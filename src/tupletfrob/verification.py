"""Cross-validation: reachability oracle, family sweeps, and quadratic fits.

The oracle deliberately shares no code with the Apéry engine: it marks a
bit-packed reachability table and reads the largest unmarked index.  The
sweep machinery pits the closed forms against the engine and the oracle; the
conjecture fitter recovers F(p) quadratics with exact rational arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import make_semigroup, validate_generators
from .errors import BoundExceededError, DomainError, InsufficientSamplesError
from .families import (
    FAMILIES,
    QuadraticPoly,
    apery_closed_form,
    frobenius_from_p,
    invariants_closed_form,
    type_from_family,
    _family,
)
from .tuplets import OffsetPattern, is_prime

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

    def to_json_dict(self) -> dict:
        return {"k": self.k, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class SweepReport:
    family: str
    k_lo: int
    k_hi: int
    entries: tuple[SweepEntry, ...]
    wall_time_s: float

    @property
    def all_match(self) -> bool:
        return all(e.status == "match" for e in self.entries)

    @property
    def mismatches(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if e.status != "match")

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "family": self.family,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "all_match": self.all_match,
            "entries": [e.to_json_dict() for e in self.entries],
        }
        if include_timing:
            out["wall_time_s"] = round(self.wall_time_s, 3)
        return out


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _check_k(family_id: str, k: int) -> SweepEntry:
    d = FAMILIES[family_id]
    gens = d.generators(k)
    semigroup = make_semigroup(gens)
    engine_f = semigroup.frobenius_number()
    engine_g = semigroup.genus()
    engine_pf = semigroup.pseudo_frobenius()

    mismatch: dict = {}
    info: dict = {}

    def compare(name, closed, engine):
        if closed != engine:
            mismatch[name] = {"closed": _jsonable(closed), "engine": _jsonable(engine)}

    if d.has_apery_form and k >= d.k_min:
        inv = invariants_closed_form(family_id, k)
        compare("frobenius", inv.frobenius, engine_f)
        compare("genus", inv.genus, engine_g)
        compare("pseudo_frobenius", inv.pseudo_frobenius, engine_pf)
        compare("type", inv.type_, len(engine_pf))
        compare("apery", apery_closed_form(family_id, k).table, semigroup.apery_set().table)
    else:
        if k >= d.k_min:
            compare("frobenius", frobenius_from_p(d.p_of_k(k), d.pattern), engine_f)
        else:
            info["observed_frobenius"] = engine_f
        if k >= d.type_k_min:
            compare("type", type_from_family(family_id, k), len(engine_pf))
        else:
            info["observed_type"] = len(engine_pf)

    if gens[0] * gens[-1] <= SWEEP_ORACLE_LIMIT:
        oracle = oracle_frobenius(gens, with_gaps=False)
        if oracle.frobenius != engine_f:
            mismatch["oracle_frobenius"] = {"oracle": oracle.frobenius, "engine": engine_f}
        if oracle.genus != engine_g:
            mismatch["oracle_genus"] = {"oracle": oracle.genus, "engine": engine_g}

    if mismatch:
        return SweepEntry(k, "mismatch", mismatch)
    return SweepEntry(k, "match", info or None)


def sweep_family(family_id: str, k_lo: int, k_hi: int, *,
                 workers: int | None = None) -> SweepReport:
    """Compare closed forms, the Apéry engine, and the oracle over a k range.

    Rows are checked serially, in order of k.  A row takes a few
    milliseconds, and a thread pool made sweeps slower, so `workers` is
    ignored; it stays only because the sweep benchmark still passes it.
    """
    _family(family_id)
    if k_lo < 0 or k_hi < k_lo:
        raise ValueError(f"need 0 <= k_lo <= k_hi for family {family_id}")
    start = time.perf_counter()
    entries = tuple(_check_k(family_id, k) for k in range(k_lo, k_hi + 1))
    return SweepReport(family_id, k_lo, k_hi, entries, time.perf_counter() - start)


@dataclass(frozen=True)
class ConjectureFit:
    """Quadratic fit of F(p) over one residue class of first generators."""

    pattern: OffsetPattern
    p_modulus: int
    p_residue: int
    samples: tuple[tuple[int, int], ...]
    poly: QuadraticPoly
    exact: bool
    a2_equals_2_over_q: bool
    a0_integer: bool

    def to_json_dict(self) -> dict:
        return {
            "pattern": list(self.pattern.offsets),
            "p_modulus": self.p_modulus,
            "p_residue": self.p_residue,
            "samples": [list(s) for s in self.samples],
            "poly": self.poly.as_json(),
            "exact": self.exact,
            "a2_equals_2_over_q": self.a2_equals_2_over_q,
            "a0_integer": self.a0_integer,
        }


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
    nothing with the family formula tables.  With primes_only, only p whose
    whole pattern lands on primes are sampled.
    """
    if p_modulus < 1:
        raise DomainError(f"p_modulus must be at least 1, got {p_modulus}")
    if min_p is None:
        min_p = p_residue
    p = min_p + (p_residue - min_p) % p_modulus
    ps = []
    while p <= max_p and len(ps) < max_samples:
        if p >= 1 and (not primes_only or all(is_prime(p + b) for b in pattern.offsets)):
            ps.append(p)
        p += p_modulus
    if len(ps) < 4:
        raise InsufficientSamplesError(
            f"need at least 4 sample points in the class, found {len(ps)}")
    samples = tuple(
        (p, make_semigroup(p + b for b in pattern.offsets).frobenius_number()) for p in ps)
    poly = _quadratic_through(samples[:3])
    exact = all(poly(p) == f for p, f in samples[3:])
    return ConjectureFit(
        pattern=pattern,
        p_modulus=p_modulus,
        p_residue=p_residue,
        samples=samples,
        poly=poly,
        exact=exact,
        a2_equals_2_over_q=poly.a2 == Fraction(2, pattern.diameter),
        a0_integer=poly.a0.denominator == 1,
    )
