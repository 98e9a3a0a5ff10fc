#!/usr/bin/env python3
"""Closed-form formulas versus the generic engine.

Every family of constellation semigroups has explicit formulas: a full
Apéry description for the triplet/quadruplet families, and a quadratic
Frobenius polynomial plus a constant type for the wider ones.  This demo
evaluates them and double-checks a few rows against the engine.
"""

from tupletfrob import (
    FAMILIES,
    apery_closed_form,
    apery_grouped,
    frobenius_from_p,
    invariants_closed_form,
    make_semigroup,
    type_from_family,
)

print("=== the registry ===")
for d in FAMILIES.values():
    poly = d.f_from_p
    print(f"{d.id:6s} pattern {str(d.pattern):22s} p = {d.p_modulus}k+{d.p_residue:<3d} "
          f"F(p) = ({poly.a2})p^2 + ({poly.a1})p + ({poly.a0})")

print()
print("=== triplet family T1 at k = 1 (S = <11,13,17>) ===")
inv = invariants_closed_form("T1", 1)
print("F =", inv.frobenius, " g =", inv.genus, " PF =", list(inv.pseudo_frobenius))
print("Apéry set, grouped as the closed form clusters it:")
print("  " + "; ".join(", ".join(map(str, block)) for block in apery_grouped("T1", 1)))
engine = make_semigroup([11, 13, 17])
print("engine agrees:", apery_closed_form("T1", 1).table == engine.apery_set().table)

print()
print("=== a bigger quadruplet row: k = 24 (S = <101,103,107,109>) ===")
inv = invariants_closed_form("Q1", 24)
print("F =", inv.frobenius, " g =", inv.genus, " PF =", list(inv.pseudo_frobenius))
engine = make_semigroup([101, 103, 107, 109])
print("engine F/g/PF match:",
      (inv.frobenius, inv.genus, inv.pseudo_frobenius)
      == (engine.frobenius_number(), engine.genus(), engine.pseudo_frobenius()))

print()
print("=== the quadratic in p, for any class member (prime or not) ===")
for p, offsets in ((11, (0, 2, 6)), (35, (0, 2, 6)), (101, (0, 2, 6, 8)),
                   (11, (0, 2, 6, 8, 12)), (97, (0, 4, 6, 10, 12, 16))):
    from tupletfrob import OffsetPattern
    pattern = OffsetPattern(offsets)
    f = frobenius_from_p(p, pattern)
    gens = [p + b for b in offsets]
    check = make_semigroup(gens).frobenius_number()
    print(f"  F(<{','.join(map(str, gens))}>) = {f} (engine: {check})")

print()
print("=== tabulated types, valid from each family's threshold ===")
for fid in ("Quin1", "Quin2", "Sex7", "Sex37", "Sep1", "Sep2"):
    d = FAMILIES[fid]
    k = d.type_k_min
    t = type_from_family(fid, k)
    engine_t = make_semigroup(d.generators(k)).type()
    print(f"  {fid:6s} t = {t} from p = {d.p_of_k(k)} (engine: {engine_t})")
