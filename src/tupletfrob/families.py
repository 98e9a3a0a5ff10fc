"""Closed forms for the constellation semigroup families.

Twelve parametric families are registered, keyed by offset pattern and the
residue class p = p_modulus*k + p_residue of the first generator p.  Every
fact a row states is an integer polynomial in k: each row carries its
Frobenius number as a quadratic in k and its tabulated type; the triplet and
quadruplet families (T1, T2, Q1, Q2) also carry generator identities, whose
staircase is the Apéry index set, and the genus and pseudo-Frobenius
polynomials in k.  The paper's F(p) is derived, by substituting
k = (p - p_residue)/p_modulus.

stated_at alone decides what a row states at k.  Below k_min (only Q1 at
k = 0) the invariants and the grouped listing come from the Apéry engine,
and the listing groups the Apéry set by one rule for every family.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .core import (
    AperySet,
    GeneratorSet,
    NumericalSemigroup,
    SemigroupInvariants,
    _check_apery_modulus,
    _int_at_least,
    make_semigroup,
)
from .errors import (
    KBelowMinimumError,
    ResidueMismatchError,
    UnsupportedPatternError,
)
from .tuplets import OffsetPattern, _check_pattern

__all__ = [
    "FAMILIES",
    "FamilyDescriptor",
    "QuadraticPoly",
    "apery_closed_form",
    "apery_grouped",
    "classify",
    "frobenius_from_p",
    "invariants_closed_form",
    "stated_at",
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


def _eval_poly(coeffs: tuple[int, int, int], k: int) -> int:
    c2, c1, c0 = coeffs
    return c2 * k * k + c1 * k + c0


@dataclass(frozen=True)
class FamilyDescriptor:
    """One parametric family: residue class, integer polynomials in k, thresholds.

    A polynomial (c2, c1, c0) is c2*k**2 + c1*k + c0.  The identities at k
    are pairs (lhs, rhs) of coefficient vectors over n_1..n_k with
    lhs.n = rhs.n; no lhs uses n_1.  The Apéry index set is the staircase
    the left-hand sides cut out: the coefficient tuples over n_2..n_k that
    are coordinatewise >= no lhs.  The identities are the only statement of it.
    """

    id: str
    pattern: OffsetPattern
    p_modulus: int
    p_residue: int
    k_min: int                      # F, identities and polynomials hold from here
    f_in_k: tuple[int, int, int]
    type_value: int
    type_k_min: int                 # validity of type_value
    # the Apéry form, all three or none: identities, genus and PF
    identities: Callable[[int], list[tuple[tuple[int, ...], tuple[int, ...]]]] | None = None
    g_in_k: tuple[int, int, int] | None = None
    pf_in_k: tuple[tuple[int, int, int], ...] | None = None

    @property
    def has_apery_form(self) -> bool:
        return self.pf_in_k is not None

    @property
    def f_from_p(self) -> QuadraticPoly:
        """F(p): f_in_k at k = (p - r)/m, for m = p_modulus and r = p_residue."""
        c2, c1, c0 = self.f_in_k
        m, r = self.p_modulus, self.p_residue
        return QuadraticPoly(Fraction(c2, m * m), Fraction(c1 * m - 2 * c2 * r, m * m),
                             c0 + Fraction(c2 * r * r - c1 * r * m, m * m))

    def p_of_k(self, k: int) -> int:
        return self.p_modulus * _int_at_least(k, None, TypeError, "k") + self.p_residue

    def generators(self, k: int) -> tuple[int, ...]:
        p = self.p_of_k(k)
        return tuple(p + b for b in self.pattern.offsets)


FAMILIES: dict[str, FamilyDescriptor] = {d.id: d for d in (
    FamilyDescriptor(
        "T1", OffsetPattern((0, 2, 6)), 6, 5, 0, (12, 28, 13), 2, 0,
        identities=lambda k: [
            ((0, 3, 0), (2, 0, 1)),                       # 3n2 = 2n1 + n3
            ((0, 0, 2 * k + 2), (2 * k + 3, 1, 0)),       # (2k+2)n3 = (2k+3)n1 + n2
            ((0, 2, 2 * k + 1), (2 * k + 5, 0, 0)),       # 2n2 + (2k+1)n3 = (2k+5)n1
        ],
        g_in_k=(6, 16, 8), pf_in_k=((12, 28, 9), (12, 28, 13))),
    FamilyDescriptor(
        "T2", OffsetPattern((0, 4, 6)), 6, 7, 0, (12, 38, 30), 2, 0,
        identities=lambda k: [
            ((0, 3, 0), (1, 0, 2)),                       # 3n2 = n1 + 2n3
            ((0, 0, 2 * k + 3), (2 * k + 4, 1, 0)),       # (2k+3)n3 = (2k+4)n1 + n2
            ((0, 2, 2 * k + 1), (2 * k + 5, 0, 0)),       # 2n2 + (2k+1)n3 = (2k+5)n1
        ],
        g_in_k=(6, 20, 16), pf_in_k=((12, 32, 15), (12, 38, 30))),
    FamilyDescriptor(
        "Q1", OffsetPattern((0, 2, 6, 8)), 4, 5, 1, (4, 13, 8), 5, 1,
        identities=lambda k: [
            ((0, 3, 0, 0), (2, 0, 1, 0)),                 # 3n2 = 2n1 + n3
            ((0, 0, 3, 0), (0, 1, 0, 2)),                 # 3n3 = n2 + 2n4
            ((0, 0, 0, k + 2), (k + 3, 0, 1, 0)),         # (k+2)n4 = (k+3)n1 + n3
            ((0, 1, 1, 0), (1, 0, 0, 1)),                 # n2 + n3 = n1 + n4
            ((0, 1, 0, k + 1), (k + 4, 0, 0, 0)),         # n2 + (k+1)n4 = (k+4)n1
            ((0, 2, 0, 1), (1, 0, 2, 0)),                 # 2n2 + n4 = n1 + 2n3
            ((0, 0, 1, k + 1), (k + 2, 2, 0, 0)),         # n3 + (k+1)n4 = (k+2)n1 + 2n2
            ((0, 0, 2, k), (k + 3, 1, 0, 0)),             # 2n3 + kn4 = (k+3)n1 + n2
        ],
        g_in_k=(2, 8, 7), pf_in_k=((0, 4, 9), (4, 13, 2), (4, 13, 4), (4, 13, 6), (4, 13, 8))),
    FamilyDescriptor(
        "Q2", OffsetPattern((0, 2, 6, 8)), 4, 7, 0, (4, 19, 19), 3, 0,
        identities=lambda k: [
            ((0, 3, 0, 0), (2, 0, 1, 0)),                 # 3n2 = 2n1 + n3
            ((0, 0, 3, 0), (0, 1, 0, 2)),                 # 3n3 = n2 + 2n4
            ((0, 0, 0, k + 2), (k + 3, 1, 0, 0)),         # (k+2)n4 = (k+3)n1 + n2
            ((0, 1, 1, 0), (1, 0, 0, 1)),                 # n2 + n3 = n1 + n4
            ((0, 2, 0, 1), (1, 0, 2, 0)),                 # 2n2 + n4 = n1 + 2n3
            ((0, 0, 1, k + 1), (k + 4, 0, 0, 0)),         # n3 + (k+1)n4 = (k+4)n1
        ],
        g_in_k=(2, 10, 12), pf_in_k=((0, 4, 11), (4, 19, 17), (4, 19, 19))),
    FamilyDescriptor("Quin1", OffsetPattern((0, 2, 6, 8, 12)), 30, 11, 0, (150, 145, 31), 6, 0),
    FamilyDescriptor("Quin2", OffsetPattern((0, 4, 6, 10, 12)), 30, 7, 0, (150, 125, 23), 4, 1),
    FamilyDescriptor("Sex7", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 7, 0, (1800, 345, 16), 9, 1),
    FamilyDescriptor(
        "Sex37", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 37, 0, (1800, 1275, 224), 7, 0),
    FamilyDescriptor(
        "Sex67", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 67, 0, (1800, 2205, 672), 5, 0),
    FamilyDescriptor(
        "Sex97", OffsetPattern((0, 4, 6, 10, 12, 16)), 120, 97, 0, (1800, 3135, 1360), 5, 0),
    FamilyDescriptor(
        "Sep1", OffsetPattern((0, 2, 6, 8, 12, 18, 20)), 30, 11, 1, (90, 93, 20), 13, 1),
    FamilyDescriptor(
        "Sep2", OffsetPattern((0, 2, 8, 12, 14, 18, 20)), 30, 29, 0, (90, 207, 114), 11, 0),
)}


def _family(family_id: str) -> FamilyDescriptor:
    try:
        return FAMILIES[family_id]
    except KeyError:
        raise UnsupportedPatternError(f"unknown family {family_id!r}") from None


def stated_at(family_id: str, k: int) -> dict:
    """The facts the family row states at k, by name.

    From k_min: `frobenius` and, with an Apéry form, `genus` and the sorted
    `pseudo_frobenius`, each an integer polynomial in k evaluated in integer
    arithmetic.  From type_k_min: `type`.
    """
    d = _family(family_id)
    k = _int_at_least(k, None, TypeError, "k")
    facts = {}
    if k >= d.k_min:
        facts["frobenius"] = _eval_poly(d.f_in_k, k)
        if d.has_apery_form:
            facts["genus"] = _eval_poly(d.g_in_k, k)
            facts["pseudo_frobenius"] = tuple(sorted(_eval_poly(c, k) for c in d.pf_in_k))
    if k >= d.type_k_min:
        facts["type"] = d.type_value
    return facts


def _stated(family_id: str, k: int, name: str) -> dict:
    """stated_at(family_id, k), which must hold the fact named: the one k guard."""
    facts = stated_at(family_id, k)
    if name not in facts:
        d = FAMILIES[family_id]
        raise KBelowMinimumError(
            f"{family_id} states no {name} at k={k}, p={d.p_of_k(k)} "
            f"(k_min={d.k_min}, type_k_min={d.type_k_min})")
    return facts


def _apery_row(family_id: str, k: int) -> tuple[tuple[int, ...], dict]:
    """Generators and stated facts at k, once the row states F there and has an Apéry form."""
    facts = _stated(family_id, k, "frobenius")
    d = FAMILIES[family_id]
    if not d.has_apery_form:
        raise UnsupportedPatternError(
            f"family {family_id} has no closed-form Apéry set (only F(p) and the type)")
    return d.generators(k), facts


def classify(p: int, pattern: OffsetPattern) -> tuple[str, int]:
    """Match (p, pattern) to a registered family and solve p = modulus*k + residue."""
    p = _int_at_least(p, None, TypeError, "p")
    _check_pattern(pattern)
    matching = [d for d in FAMILIES.values() if d.pattern == pattern]
    if not matching:
        raise UnsupportedPatternError(f"no registered family for pattern {pattern}")
    for d in matching:
        k, rem = divmod(p - d.p_residue, d.p_modulus)
        if rem == 0 and k >= 0:
            return d.id, k
    raise ResidueMismatchError(
        f"p={p} violates the residue condition of every family with pattern {pattern}")


# --- generator identities and the Apéry index sets they cut out -----------

def _index_lines(family_id: str, k: int) -> list[tuple[tuple[int, ...], int]]:
    """The index set as lines along the largest generator n_k.

    A pair (prefix, length) stands for the tuples (*prefix, c), 0 <= c < length.
    The prefixes run below the largest lhs coordinate in each coordinate but
    the last; the pure powers 3n2 and 3n3 make that bound exact.  A line's
    length is the least last coordinate of an lhs whose other coordinates the
    prefix reaches (each at most the prefix's); the pure power of n_k reaches
    every prefix, so every line is finite.  Lines of length 0 are dropped.
    """
    corners = [lhs[1:] for lhs, _ in FAMILIES[family_id].identities(k)]
    bounds = [max(column) for column in zip(*corners)][:-1]
    lines = []
    for prefix in product(*map(range, bounds)):
        length = min(c[-1] for c in corners if all(map(operator.le, c, prefix)))
        if length:
            lines.append((prefix, length))
    return lines


def apery_closed_form(family_id: str, k: int) -> AperySet:
    """Materialize the family's Apéry set at parameter k.

    One int64 column holds c*n_k for c below the longest line; each line of
    the index set is a slice of it plus the line's prefix combination.  The
    values then fill the table by residue.  Every slot starts at `modulus`,
    which AperySet refuses in any class, so an index set of `modulus` members
    that misses a class fails there.

    p(k) above core.APERY_MODULUS_LIMIT raises the engine's BoundExceededError
    before anything is allocated; below it every listed value fits in int64:
    a prefix takes at most two of each of n_2..n_{k-1} and a line at most
    2k + 2 of n_k, so a value is a sum of at most 2k + 6 generators.
    """
    gens, _ = _apery_row(family_id, k)
    modulus = gens[0]
    _check_apery_modulus(modulus)
    lines = _index_lines(family_id, k)
    column = np.arange(max(length for _, length in lines), dtype=np.int64) * gens[-1]
    values = np.concatenate([column[:length] + sum(map(operator.mul, prefix, gens[1:]))
                             for prefix, length in lines])
    assert values.size == modulus, "index set cardinality must equal the modulus"
    table = np.full(modulus, modulus, dtype=np.int64)
    table[values % modulus] = values
    return AperySet(modulus, table)


def _engine_below_k_min(family_id: str, k: int) -> NumericalSemigroup | None:
    """The Apéry engine's semigroup when the family's closed forms start above k.

    Only families with an Apéry form and 0 <= k < k_min qualify (today Q1 at
    k = 0, <5,7,11,13>); for every other (family, k) this returns None and the
    closed forms, with their k guard, apply.
    """
    d = _family(family_id)
    k = _int_at_least(k, None, TypeError, "k")
    if d.has_apery_form and 0 <= k < d.k_min:
        return make_semigroup(d.generators(k))
    return None


def invariants_closed_form(family_id: str, k: int) -> SemigroupInvariants:
    """F, genus, pseudo-Frobenius numbers and type as the family row states them at k.

    Below the family's k_min the invariants come from the Apéry engine.
    """
    engine = _engine_below_k_min(family_id, k)
    if engine is not None:
        return engine.invariants()
    gens, facts = _apery_row(family_id, k)
    return SemigroupInvariants(genus=facts["genus"], pseudo_frobenius=facts["pseudo_frobenius"],
                               minimal_generators=GeneratorSet(gens))


def frobenius_from_p(p: int, pattern: OffsetPattern) -> int:
    """Frobenius number of <p+b : b in pattern> from the family quadratic in p.

    The members need not be prime; only the residue class of p matters.
    """
    return _stated(*classify(p, pattern), "frobenius")["frobenius"]


def type_from_family(family_id: str, k: int) -> int:
    """Tabulated type of the family at parameter k."""
    return _stated(family_id, k, "type")["type"]


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

