"""Cross-validation: reachability oracle, family sweeps, and quadratic fits.

The oracle deliberately shares no code with the Apéry engine: it marks a
bit-packed reachability table and reads the largest unmarked index.  The
sweep machinery pits the closed forms against the engine and the oracle; the
conjecture fitter recovers F(p) quadratics with exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from . import core
from .core import _check_apery_modulus, _int_at_least, make_semigroup, validate_generators
from .errors import BoundExceededError, DomainError, InsufficientSamplesError
from .families import FAMILIES, QuadraticPoly, apery_closed_form, stated_at, _family
from .tuplets import OffsetPattern, _check_pattern, _segment_tuplets, is_admissible

__all__ = [
    "ConjectureFit",
    "OracleResult",
    "SweepEntry",
    "SweepReport",
    "fit_conjecture",
    "oracle_frobenius",
    "sweep_family",
]

# Cells of the oracle's reachability table, checked against each table
# before it is allocated (10**9 cells take 125 MB at one bit a cell); the
# engine's bound on its Apéry modulus is core.APERY_MODULUS_LIMIT.
DEFAULT_BOUND_LIMIT = 10 ** 9
# Oracle comparisons inside sweeps are skipped above this reachability bound
# to keep memory flat; the Apéry engine still covers those rows.
SWEEP_ORACLE_LIMIT = 10 ** 8
# A word of the oracle's table whose 64 cells are all reachable.
_ALL_ONES = (1 << 64) - 1


@dataclass(frozen=True)
class OracleResult:
    frobenius: int
    genus: int
    gaps: tuple[int, ...] | None = None


def _start_bound(items: tuple[int, ...]) -> int:
    """Largest cell of the oracle's first table: min(n1*ne, Erdős–Graham + n1).

    Erdős and Graham (Acta Arith. 21, 1972) bound the Frobenius number of
    a1 < ... < an with gcd 1 by 2*a(n-1)*floor(an/n) - an.  Adding n1 leaves
    a whole window of n1 cells above that bound, so the window check passes
    on the first table whenever the bound holds.  Two generators start at
    n1*ne.
    """
    n1, ne = items[0], items[-1]
    bound = n1 * ne
    if len(items) >= 3:
        bound = min(bound, 2 * items[-2] * (ne // len(items)) - ne + n1)
    return bound


def _reachable_words(items: tuple[int, ...], size: int) -> np.ndarray:
    """Reachability of the cells 0 .. size-1, 64 cells to a little-endian uint64 word.

    Cell i is bit i % 64 of word i // 64.  The table is closed under each
    generator by shift-or doubling: shifting by s moves each word q = s // 64
    words up and r = s % 64 bits up, the r top bits carrying into the next
    word.  The carry pass also reads words that the first pass has just
    updated; their cells are reachable too, so the table can only gain
    reachable cells early.  Bits above cell size-1 in the last word are left
    as they fall.
    """
    words = np.zeros((size + 63) // 64, dtype="<u8")
    words[0] = 1
    for a in items:
        shift = a
        while shift < size:
            q, r = divmod(shift, 64)
            if r == 0:
                words[q:] |= words[:words.size - q]
            else:
                words[q:] |= words[:words.size - q] << np.uint64(r)
                # carry word: the bits shifted out of the top of each source word
                words[q + 1:] |= words[:words.size - q - 1] >> np.uint64(64 - r)
            shift <<= 1
    return words


def _cells(words: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Cells start .. stop-1 of a word table as a uint8 array of 0s and 1s."""
    bits = np.unpackbits(words[start // 64:(stop + 63) // 64].view(np.uint8),
                         bitorder="little")
    offset = start % 64
    return bits[offset:offset + stop - start]


def oracle_frobenius(gens, *, with_gaps: bool = True) -> OracleResult:
    """Frobenius number and genus by brute-force reachability over a bit-packed table.

    The table holds one bit per cell, closed under each generator by
    shift-or doubling.  It starts at the Erdős–Graham bound plus n1 for three
    or more generators (n1*ne for two, or when smaller); rather than rely on
    that bound, the top window of length n1 is checked to be fully reachable
    and the bound doubled otherwise.  Generators pass the engine's input
    check (core.validate_generators), so malformed input raises the same
    errors here as in make_semigroup; only that check is shared, not the
    algorithm.
    """
    items = validate_generators(gens)
    n1 = items[0]
    bound = _start_bound(items)
    while True:
        if bound > DEFAULT_BOUND_LIMIT:
            raise BoundExceededError(
                f"reachability bound {bound} exceeds {DEFAULT_BOUND_LIMIT}")
        size = bound + 1
        words = _reachable_words(items, size)
        if bool(_cells(words, size - n1, size).all()):
            break
        bound *= 2
    # the bits above the last cell count as reachable, so every zero bit is a gap
    pad = words.size * 64 - size
    words[-1] |= np.uint64(((1 << pad) - 1) << (64 - pad))
    genus = words.size * 64 - int(np.bitwise_count(words).sum())
    if genus == 0:
        return OracleResult(-1, 0, () if with_gaps else None)
    last = words.size - 1 - int(np.argmax(words[::-1] != np.uint64(_ALL_ONES)))
    return OracleResult(
        frobenius=last * 64 + (int(words[last]) ^ _ALL_ONES).bit_length() - 1,
        genus=genus,
        gaps=tuple(np.flatnonzero(_cells(words, 0, size) == 0).tolist()) if with_gaps else None,
    )


@dataclass(frozen=True)
class SweepEntry:
    k: int
    status: str                       # "match" or "mismatch"
    detail: dict | None = None        # mismatches carry both sides; informational otherwise


@dataclass(frozen=True)
class SweepReport:
    family: str
    k_lo: int
    k_hi: int
    entries: tuple[SweepEntry, ...]

    @property
    def all_match(self) -> bool:
        return all(e.status == "match" for e in self.entries)

    @property
    def mismatches(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if e.status != "match")


def _check_k(family_id: str, k: int) -> SweepEntry:
    """One sweep row: the engine against each source of facts about the row at k."""
    gens = FAMILIES[family_id].generators(k)
    semigroup = make_semigroup(gens)
    pf = semigroup.pseudo_frobenius()
    engine = {"frobenius": semigroup.frobenius_number(), "genus": semigroup.genus(),
              "pseudo_frobenius": pf, "type": len(pf)}
    closed = stated_at(family_id, k)
    if "pseudo_frobenius" in closed:
        closed["apery"] = apery_closed_form(family_id, k).table
        engine["apery"] = semigroup.apery_set().table
    sources = {"closed": closed}
    if gens[0] * gens[-1] <= SWEEP_ORACLE_LIMIT:
        oracle = oracle_frobenius(gens, with_gaps=False)
        sources["oracle"] = {"frobenius": oracle.frobenius, "genus": oracle.genus}
    mismatch = {}
    for name, value in engine.items():
        sides = {source: facts[name] for source, facts in sources.items()
                 if name in facts and facts[name] != value}
        if sides:
            mismatch[name] = {**sides, "engine": value}
    if mismatch:
        return SweepEntry(k, "mismatch", mismatch)
    observed = {f"observed_{name}": engine[name]
                for name in ("frobenius", "type") if name not in closed}
    return SweepEntry(k, "match", observed or None)


def sweep_family(family_id: str, k_lo: int, k_hi: int, *,
                 workers: int | None = None) -> SweepReport:
    """Compare closed forms, the Apéry engine, and the oracle over a k range.

    Rows are checked serially, in order of k.  A row takes a few
    milliseconds, and a thread pool made sweeps slower, so `workers` is
    ignored; it stays only because the sweep benchmark still passes it.
    A k_lo or k_hi that is not an integer raises TypeError.
    """
    d = _family(family_id)
    k_lo = _int_at_least(k_lo, None, TypeError, "k_lo")
    k_hi = _int_at_least(k_hi, None, TypeError, "k_hi")
    if k_lo < 0 or k_hi < k_lo:
        raise ValueError(f"need 0 <= k_lo <= k_hi for family {family_id}")
    _check_apery_modulus(d.p_of_k(k_hi))
    return SweepReport(family_id, k_lo, k_hi,
                       tuple(_check_k(family_id, k) for k in range(k_lo, k_hi + 1)))


@dataclass(frozen=True)
class ConjectureFit:
    """Quadratic fit of F(p) over one residue class; exact when every sample lies on poly."""

    pattern: OffsetPattern
    p_modulus: int
    p_residue: int
    samples: tuple[tuple[int, int], ...]
    poly: QuadraticPoly

    @property
    def exact(self) -> bool:
        return all(self.poly(p) == f for p, f in self.samples)

    @property
    def a2_equals_2_over_q(self) -> bool:
        return self.poly.a2 == Fraction(2, self.pattern.diameter)

    @property
    def a0_integer(self) -> bool:
        return self.poly.a0.denominator == 1


def _quadratic_through(points) -> QuadraticPoly:
    """Exact quadratic through three points (Lagrange, rational arithmetic)."""
    (x0, y0), (x1, y1), (x2, y2) = points
    a2 = a1 = a0 = Fraction(0)
    for xi, yi, xj, xk in ((x0, y0, x1, x2), (x1, y1, x0, x2), (x2, y2, x0, x1)):
        scale = Fraction(yi, (xi - xj) * (xi - xk))
        a2 += scale
        a1 += scale * -(xj + xk)
        a0 += scale * (xj * xk)
    return QuadraticPoly(a2, a1, a0)


def fit_conjecture(pattern: OffsetPattern, p_modulus: int, p_residue: int, *,
                   max_p: int, min_p: int | None = None, primes_only: bool = False,
                   max_samples: int = 8) -> ConjectureFit:
    """Fit F(p) over the class p = modulus*k + residue and test the quadratic shape.

    The quadratic through the first three samples is computed exactly; the
    fit is exact only if every remaining sample lands on it (at least four
    samples are required).  F values come from the Apéry engine, which shares
    nothing with the family formula tables.  Samples are the first class
    members p >= min_p up to core.APERY_MODULUS_LIMIT; with primes_only, the
    ones find_tuplets finds.  Too few there, with max_p above the limit,
    raise BoundExceededError.  A p_modulus that is not a positive integer
    raises DomainError; any other integer argument that is not one, TypeError,
    as does a pattern that is not an OffsetPattern.
    """
    _check_pattern(pattern)
    p_modulus = _int_at_least(p_modulus, 1, DomainError, "p_modulus")
    p_residue = _int_at_least(p_residue, None, TypeError, "p_residue")
    max_p = _int_at_least(max_p, None, TypeError, "max_p")
    min_p = p_residue if min_p is None else _int_at_least(min_p, None, TypeError, "min_p")
    max_samples = _int_at_least(max_samples, None, TypeError, "max_samples")
    if max_samples < 4:
        raise InsufficientSamplesError(
            f"need at least 4 sample points in the class, asked for {max_samples}")
    if primes_only and (not is_admissible(pattern).admissible or
                        any(math.gcd(p_residue + b, p_modulus) > 1 for b in pattern.offsets)):
        # some p + b of the class is then always a multiple of one prime
        # q <= max(p_modulus, k), so an instance has p + b = q: none lies higher
        max_p = min(max_p, max(p_modulus, pattern.size))
    start = max(min_p, 1)
    first = start + (p_residue - start) % p_modulus
    top = min(max_p, core.APERY_MODULUS_LIMIT)
    within = range(first, top + 1, p_modulus)
    candidates = within
    if primes_only:
        # the sieve stops at the segment holding the last sample
        candidates = (t.p for t in _segment_tuplets(pattern, first, top, False, True)
                      if t.p in within)
    ps = list(islice(candidates, max_samples))
    beyond = first + len(within) * p_modulus
    if len(ps) < max_samples and beyond <= max_p:
        _check_apery_modulus(beyond)  # top is then the limit, so this raises
    if len(ps) < 4:
        raise InsufficientSamplesError(
            f"need at least 4 sample points in the class, found {len(ps)}")
    samples = tuple(
        (p, make_semigroup(p + b for b in pattern.offsets).frobenius_number()) for p in ps)
    return ConjectureFit(pattern=pattern, p_modulus=p_modulus, p_residue=p_residue,
                         samples=samples, poly=_quadratic_through(samples[:3]))
