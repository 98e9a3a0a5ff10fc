"""Closed forms for the constellation semigroup families.

Twelve parametric families are registered, keyed by offset pattern and the
residue class of the first generator p.  Each carries its Frobenius number
as a quadratic F(p) and its tabulated type; the triplet and quadruplet
families (T1, T2, Q1, Q2) also carry Apéry index sets and the genus and
pseudo-Frobenius polynomials in k.  F in k is always F(p) at p = p(k).

Below a family's k_min (only Q1 at k = 0) the invariants and the grouped
listing come from the Apéry engine.  The grouped listing derives its blocks
from the Apéry set by one rule for every family (see apery_grouped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .core import (
    APERY_MODULUS_LIMIT,
    AperySet,
    GeneratorSet,
    NumericalSemigroup,
    SemigroupInvariants,
    make_semigroup,
)
from .errors import (
    BoundExceededError,
    KBelowMinimumError,
    ResidueMismatchError,
    UnsupportedPatternError,
)
from .tuplets import OffsetPattern, PrimeTuplet

__all__ = [
    "FAMILIES",
    "FamilyDescriptor",
    "QuadraticPoly",
    "apery_closed_form",
    "apery_grouped",
    "apery_grouped_text",
    "classify",
    "classify_tuplet",
    "family_registry",
    "frobenius_from_p",
    "invariants_closed_form",
    "lemma_identities",
    "type_from_family",
]


@dataclass(frozen=True)
class QuadraticPoly:
    """F(p) = a2*p**2 + a1*p + a0 with exact rational coefficients."""

    a2: Fraction
    a1: Fraction
    a0: Fraction

    def __call__(self, p: int) -> Fraction:
        return self.a2 * p * p + self.a1 * p + self.a0

    def eval_int(self, p: int) -> int:
        """Evaluate and insist on an integer result."""
        value = self(p)
        if value.denominator != 1:
            raise ArithmeticError(f"{self} is not integral at p={p}")
        return int(value)

    def compose_linear(self, m: int, r: int) -> "QuadraticPoly":
        """Coefficients of this polynomial evaluated at p = m*k + r, in k."""
        return QuadraticPoly(
            self.a2 * m * m,
            2 * self.a2 * m * r + self.a1 * m,
            self.a2 * r * r + self.a1 * r + self.a0,
        )

    def as_json(self) -> dict:
        return {
            "a2": [self.a2.numerator, self.a2.denominator],
            "a1": [self.a1.numerator, self.a1.denominator],
            "a0": [self.a0.numerator, self.a0.denominator],
        }


def _eval_poly(coeffs: tuple[int, int, int], k: int) -> int:
    c2, c1, c0 = coeffs
    return c2 * k * k + c1 * k + c0


@dataclass(frozen=True)
class FamilyDescriptor:
    """One parametric family: residue class, formulas, and validity thresholds."""

    id: str
    pattern: OffsetPattern
    p_modulus: int
    p_residue: int
    k_min: int                      # F(p) and, with an Apéry form, the index set
                                    # and invariant polynomials hold from here
    f_from_p: QuadraticPoly         # F in k too, at p = p_of_k(k)
    type_value: int
    type_k_min: int                 # validity of type_value
    g_in_k: tuple[int, int, int] | None = None  # (c2, c1, c0); None: no Apéry form
    pf_in_k: tuple[tuple[int, int, int], ...] | None = None

    @property
    def has_apery_form(self) -> bool:
        return self.pf_in_k is not None

    def p_of_k(self, k: int) -> int:
        return self.p_modulus * k + self.p_residue

    def generators(self, k: int) -> tuple[int, ...]:
        p = self.p_of_k(k)
        return tuple(p + b for b in self.pattern.offsets)


def _q(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)


FAMILIES: dict[str, FamilyDescriptor] = {d.id: d for d in (
    FamilyDescriptor(
        "T1", OffsetPattern((0, 2, 6)), 6, 5, 0,
        QuadraticPoly(_q(1, 3), _q(4, 3), _q(-2)), 2, 0,
        g_in_k=(6, 16, 8), pf_in_k=((12, 28, 9), (12, 28, 13))),
    FamilyDescriptor(
        "T2", OffsetPattern((0, 4, 6)), 6, 7, 0,
        QuadraticPoly(_q(1, 3), _q(5, 3), _q(2)), 2, 0,
        g_in_k=(6, 20, 16), pf_in_k=((12, 32, 15), (12, 38, 30))),
    FamilyDescriptor(
        "Q1", OffsetPattern((0, 2, 6, 8)), 4, 5, 1,
        QuadraticPoly(_q(1, 4), _q(3, 4), _q(-2)), 5, 1,
        g_in_k=(2, 8, 7), pf_in_k=((0, 4, 9), (4, 13, 2), (4, 13, 4), (4, 13, 6), (4, 13, 8))),
    FamilyDescriptor(
        "Q2", OffsetPattern((0, 2, 6, 8)), 4, 7, 0,
        QuadraticPoly(_q(1, 4), _q(5, 4), _q(-2)), 3, 0,
        g_in_k=(2, 10, 12), pf_in_k=((0, 4, 11), (4, 19, 17), (4, 19, 19))),
    FamilyDescriptor(
        "Quin1", OffsetPattern((0, 2, 6, 8, 12)), 30, 11, 0,
        QuadraticPoly(_q(1, 6), _q(7, 6), _q(-2)), 6, 0),
    FamilyDescriptor(
        "Quin2", OffsetPattern((0, 4, 6, 10, 12)), 30, 7, 0,
        QuadraticPoly(_q(1, 6), _q(11, 6), _q(2)), 4, 1),
    FamilyDescriptor(
        "Sex7", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 7, 0,
        QuadraticPoly(_q(1, 8), _q(9, 8), _q(2)), 9, 1),
    FamilyDescriptor(
        "Sex37", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 37, 0,
        QuadraticPoly(_q(1, 8), _q(11, 8), _q(2)), 7, 0),
    FamilyDescriptor(
        "Sex67", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 67, 0,
        QuadraticPoly(_q(1, 8), _q(13, 8), _q(2)), 5, 0),
    FamilyDescriptor(
        "Sex97", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 97, 0,
        QuadraticPoly(_q(1, 8), _q(15, 8), _q(2)), 5, 0),
    FamilyDescriptor(
        "Sep1", OffsetPattern((0, 2, 6, 8, 12, 18, 20)), 30, 11, 1,
        QuadraticPoly(_q(1, 10), _q(9, 10), _q(-2)), 13, 1),
    FamilyDescriptor(
        "Sep2", OffsetPattern((0, 2, 8, 12, 14, 18, 20)), 30, 29, 0,
        QuadraticPoly(_q(1, 10), _q(11, 10), _q(-2)), 11, 0),
)}


def _family(family_id: str) -> FamilyDescriptor:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise UnsupportedPatternError(f"unknown family {family_id!r}") from None


def _apery_family(family_id: str, k: int) -> FamilyDescriptor:
    """The family, once it has an Apéry closed form valid at k (k >= k_min)."""
    d = _family(family_id)
    if not d.has_apery_form:
        raise UnsupportedPatternError(
            f"family {family_id} has no closed-form Apéry set (only F(p) and the type)")
    if k < d.k_min:
        raise KBelowMinimumError(f"{family_id} closed forms need k >= {d.k_min}, got {k}")
    return d


def classify(p: int, pattern: OffsetPattern) -> tuple[str, int]:
    """Match (p, pattern) to a registered family and solve p = modulus*k + residue."""
    matching = [d for d in FAMILIES.values() if d.pattern == pattern]
    if not matching:
        raise UnsupportedPatternError(f"no registered family for pattern {pattern}")
    for d in matching:
        k, rem = divmod(p - d.p_residue, d.p_modulus)
        if rem == 0 and k >= 0:
            return d.id, k
    raise ResidueMismatchError(
        f"p={p} violates the residue condition of every family with pattern {pattern}")


def classify_tuplet(tuplet: PrimeTuplet) -> tuple[str, int]:
    """Classify a verified prime tuplet."""
    family_id, k = classify(tuplet.p, tuplet.pattern)
    if tuplet.pattern.size == 4 and tuplet.p > 3:
        # first members of genuine prime quadruplets avoid the classes divisible by 3
        assert tuplet.p % 12 in (5, 11)
    return family_id, k


# --- generator identities backing the index sets ---------------------------

def _identities_t1(k: int, n1: int, n2: int, n3: int) -> list[tuple[int, int]]:
    return [
        (3 * n2, 2 * n1 + n3),
        ((2 * k + 2) * n3, (2 * k + 3) * n1 + n2),
        (2 * n2 + (2 * k + 1) * n3, (2 * k + 5) * n1),
    ]


def _identities_t2(k: int, n1: int, n2: int, n3: int) -> list[tuple[int, int]]:
    return [
        (3 * n2, n1 + 2 * n3),
        ((2 * k + 3) * n3, (2 * k + 4) * n1 + n2),
        (2 * n2 + (2 * k + 1) * n3, (2 * k + 5) * n1),
    ]


def _identities_q1(k: int, n1: int, n2: int, n3: int, n4: int) -> list[tuple[int, int]]:
    return [
        (3 * n2, 2 * n1 + n3),
        (3 * n3, n2 + 2 * n4),
        ((k + 2) * n4, (k + 3) * n1 + n3),
        (n2 + n3, n1 + n4),
        (n2 + (k + 1) * n4, (k + 4) * n1),
        (2 * n2 + n4, n1 + 2 * n3),
        (n3 + (k + 1) * n4, (k + 2) * n1 + 2 * n2),
        (2 * n3 + k * n4, (k + 3) * n1 + n2),
    ]


def _identities_q2(k: int, n1: int, n2: int, n3: int, n4: int) -> list[tuple[int, int]]:
    return [
        (3 * n2, 2 * n1 + n3),
        (3 * n3, n2 + 2 * n4),
        ((k + 2) * n4, (k + 3) * n1 + n2),
        (n2 + n3, n1 + n4),
        (2 * n2 + n4, n1 + 2 * n3),
        (n3 + (k + 1) * n4, (k + 4) * n1),
    ]


_IDENTITIES = {
    "T1": _identities_t1,
    "T2": _identities_t2,
    "Q1": _identities_q1,
    "Q2": _identities_q2,
}


def lemma_identities(family_id: str, k: int) -> bool:
    """Evaluate both sides of every generator identity of the family at k."""
    gens = _apery_family(family_id, k).generators(k)
    return all(lhs == rhs for lhs, rhs in _IDENTITIES[family_id](k, *gens))


# --- Apéry index sets -------------------------------------------------------
#
# Each index set is a union of coordinate boxes minus explicit exclusions.
# A box is a tuple of ranges (one per coefficient); the same description
# drives both enumeration and the arithmetic cardinality.

def _index_pieces(family_id: str, k: int) -> list[tuple[tuple[range, ...], frozenset]]:
    if family_id == "T1":
        return [((range(3), range(2 * k + 2)), frozenset({(2, 2 * k + 1)}))]
    if family_id == "T2":
        return [((range(3), range(2 * k + 3)),
                 frozenset({(2, 2 * k + 1), (2, 2 * k + 2)}))]
    if family_id == "Q1":
        return [
            ((range(1, 2), range(1), range(k + 1)), frozenset()),
            ((range(2, 3), range(1), range(1)), frozenset()),
            ((range(1), range(1, 3), range(k + 1)), frozenset({(0, 2, k)})),
            ((range(1), range(1), range(k + 2)), frozenset()),
        ]
    if family_id == "Q2":
        return [
            ((range(1, 2), range(1), range(k + 2)), frozenset()),
            ((range(2, 3), range(1), range(1)), frozenset()),
            ((range(1), range(1, 3), range(k + 1)), frozenset()),
            ((range(1), range(1), range(k + 2)), frozenset()),
        ]
    raise UnsupportedPatternError(f"family {family_id} has no Apéry index set")


def _index_set(family_id: str, k: int) -> list[tuple[int, ...]]:
    """Coefficient tuples over the generators other than the multiplicity.

    This enumerates the pieces one tuple at a time; apery_closed_form builds
    the same pieces as arrays, and the tests compare the two.
    """
    out = []
    for box, excluded in _index_pieces(family_id, k):
        out.extend(combo for combo in product(*box) if combo not in excluded)
    return out


def _index_set_size(family_id: str, k: int) -> int:
    """Cardinality of the index set, from the box dimensions."""
    total = 0
    for box, excluded in _index_pieces(family_id, k):
        total += math.prod(len(r) for r in box)
        total -= sum(1 for combo in excluded if all(c in r for c, r in zip(combo, box)))
    return total


def apery_closed_form(family_id: str, k: int) -> AperySet:
    """Materialize the family's Apéry set at parameter k.

    Each box of the index set becomes one int64 array of values
    (sum of coefficient times generator, broadcast over the box), with the
    excluded combinations masked out; the values then fill the table by
    residue.  The index set must have exactly `modulus` members and hit
    every residue class once.

    A listing holds one entry per residue class of p(k), so p(k) above
    core.APERY_MODULUS_LIMIT raises BoundExceededError before anything is
    allocated, as the engine does.  Below it every listed value,
    a sum of at most 2k + 4 generators, fits in int64.
    """
    gens = _apery_family(family_id, k).generators(k)
    modulus = gens[0]
    if modulus > APERY_MODULUS_LIMIT:
        raise BoundExceededError(
            f"Apéry modulus {modulus} exceeds the listing limit {APERY_MODULUS_LIMIT}")
    pieces = []
    for box, excluded in _index_pieces(family_id, k):
        values = sum(np.ix_(*(np.arange(r.start, r.stop, dtype=np.int64) * g
                              for r, g in zip(box, gens[1:]))))
        keep = np.ones(values.shape, dtype=bool)
        for combo in excluded:
            if all(c in r for c, r in zip(combo, box)):
                keep[tuple(c - r.start for c, r in zip(combo, box))] = False
        pieces.append(values[keep])
    values = np.concatenate(pieces)
    assert values.size == modulus, "index set cardinality must equal the modulus"
    slots = values % modulus
    assert np.bincount(slots, minlength=modulus).max() == 1, \
        "index set hit a residue class twice"
    table = np.empty(modulus, dtype=np.int64)
    table[slots] = values
    return AperySet(modulus, tuple(table.tolist()))


def _engine_below_k_min(family_id: str, k: int) -> NumericalSemigroup | None:
    """The Apéry engine's semigroup when the family's closed forms start above k.

    Only families with an Apéry form and 0 <= k < k_min qualify (today Q1 at
    k = 0, <5,7,11,13>); for every other (family, k) this returns None and the
    closed forms, with their k guard, apply.
    """
    d = _family(family_id)
    if d.has_apery_form and 0 <= k < d.k_min:
        return make_semigroup(d.generators(k))
    return None


def invariants_closed_form(family_id: str, k: int) -> SemigroupInvariants:
    """F from F(p) at p(k); genus, pseudo-Frobenius numbers and type from polynomials in k.

    Below the family's k_min the invariants come from the Apéry engine.
    """
    engine = _engine_below_k_min(family_id, k)
    if engine is not None:
        return engine.invariants()
    d = _apery_family(family_id, k)
    assert d.g_in_k and d.pf_in_k
    pf = tuple(sorted(_eval_poly(c, k) for c in d.pf_in_k))
    gens = d.generators(k)
    return SemigroupInvariants(
        frobenius=d.f_from_p.eval_int(d.p_of_k(k)),
        genus=_eval_poly(d.g_in_k, k),
        pseudo_frobenius=pf,
        type_=len(pf),
        embedding_dimension=len(gens),
        minimal_generators=GeneratorSet(gens),
    )


def frobenius_from_p(p: int, pattern: OffsetPattern) -> int:
    """Frobenius number of <p+b : b in pattern> from the family quadratic in p.

    The members need not be prime; only the residue class of p matters.
    """
    family_id, k = classify(p, pattern)
    d = FAMILIES[family_id]
    if k < d.k_min:
        raise KBelowMinimumError(
            f"the {family_id} quadratic needs p >= {d.p_of_k(d.k_min)}, got p={p}")
    return d.f_from_p.eval_int(p)


def type_from_family(family_id: str, k: int) -> int:
    """Tabulated type of the family at parameter k."""
    d = _family(family_id)
    if k < d.type_k_min:
        raise KBelowMinimumError(
            f"the {family_id} type value needs k >= {d.type_k_min}, got {k}")
    return d.type_value


# --- grouped (pretty-printed) Apéry listings --------------------------------

def apery_grouped(family_id: str, k: int) -> list[list[int]]:
    """Apéry elements in increasing order, grouped the way the closed form clusters them.

    Written against the largest generator n_k, the elements fall into blocks
    of near-multiples m*n_k - delta.  Consecutive elements w < w' share a
    block exactly when ceil(w/n_k) = ceil(w'/n_k) and w' - w is at most the
    largest gap between consecutive offsets of the pattern.  The Apéry set
    is apery_closed_form's, with its bound, or the engine's below k_min.
    """
    engine = _engine_below_k_min(family_id, k)
    apery = engine.apery_set() if engine is not None else apery_closed_form(family_id, k)
    d = FAMILIES[family_id]
    n_k = d.generators(k)[-1]
    offsets = d.pattern.offsets
    max_gap = max(b - a for a, b in zip(offsets, offsets[1:]))
    w = np.sort(np.array(apery.table, dtype=np.int64))
    starts = (np.diff(-(-w // n_k)) != 0) | (np.diff(w) > max_gap)
    cuts = [0, *(np.flatnonzero(starts) + 1).tolist(), w.size]
    values = w.tolist()
    return [values[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def apery_grouped_text(family_id: str, k: int) -> str:
    """Grouped listing as text, blocks separated by semicolons."""
    return "; ".join(
        ", ".join(str(v) for v in group) for group in apery_grouped(family_id, k))


def family_registry() -> list[dict]:
    """JSON-ready rows describing every registered family."""
    rows = []
    for d in FAMILIES.values():
        f = d.f_from_p.compose_linear(d.p_modulus, d.p_residue)
        if d.has_apery_form and any(c.denominator != 1 for c in (f.a2, f.a1, f.a0)):
            raise ArithmeticError(f"{d.id}: F(p) is not integral in k")
        rows.append({
            "id": d.id,
            "pattern": list(d.pattern.offsets),
            "p_modulus": d.p_modulus,
            "p_residue": d.p_residue,
            "k_min": d.k_min,
            "frobenius_in_p": d.f_from_p.as_json(),
            "frobenius_in_p_k_min": d.k_min,
            "type": d.type_value,
            "type_k_min": d.type_k_min,
            "frobenius_in_k": [int(c) for c in (f.a2, f.a1, f.a0)] if d.has_apery_form else None,
            "genus_in_k": list(d.g_in_k) if d.g_in_k else None,
            "pseudo_frobenius_in_k": [list(c) for c in d.pf_in_k] if d.pf_in_k else None,
        })
    return rows
