#!/usr/bin/env python3
"""Recovering the F(p) quadratics from raw data, and probing beyond them.

For a k-prime pattern of diameter q, the Frobenius number of the generated
semigroup follows a quadratic (2/q)p^2 + a1*p + a0 on each residue class of
p.  This demo re-derives every registered polynomial from engine samples by
exact rational interpolation, then pushes into octuplet territory, where the
constant term starts to vary by subclass.
"""

from tupletfrob import FAMILIES, OffsetPattern, fit_conjecture, oracle_frobenius, sweep_family

print("=== refitting the registered families from samples ===")
for fid, d in FAMILIES.items():
    fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue,
                         max_p=d.p_of_k(d.k_min + 7), min_p=d.p_of_k(d.k_min))
    poly = fit.poly
    print(f"{fid:6s} F(p) = ({poly.a2})p^2 + ({poly.a1})p + ({poly.a0})  "
          f"exact={fit.exact}  a2 == 2/q: {fit.a2_equals_2_over_q}")

print()
print("=== full cross-validation sweeps (closed form vs engine vs oracle) ===")
for fid, lo in (("T1", 0), ("Q2", 0), ("Quin1", 0)):
    report = sweep_family(fid, lo, 40)
    print(f"{fid:6s} k = {lo}..40: all match = {report.all_match} "
          f"({report.wall_time_s:.2f}s)")

print()
print("=== octuplets: the constant term is still an integer, but varies ===")
pattern = OffsetPattern((0, 2, 6, 8, 12, 18, 20, 26))
print(f"pattern {pattern}, diameter {pattern.diameter}; classes of p mod 2730")
for residue in (431, 1271, 1481, 11):
    fit = fit_conjecture(pattern, 2730, residue, max_p=2730 * 8, max_samples=5)
    poly = fit.poly
    print(f"  p = 2730k+{residue:<4d}: F(p) = ({poly.a2})p^2 + ({poly.a1})p + ({poly.a0}) "
          f"exact={fit.exact}")
print("(all leading coefficients are 2/26; the class 2730k+1271 carries a0 = -4,")
print(" and it contains the real octuplet starting at 182403491)")

print()
print("=== the brute-force oracle that anchors it all ===")
result = oracle_frobenius([11, 13, 17, 19, 23])
print("reachability table for <11,13,17,19,23>: F =", result.frobenius,
      " genus =", result.genus)
print("gaps:", list(result.gaps))
