"""Prime constellations: admissible offset patterns, minimal diameters, sieving.

An offset pattern {0 = b_1 < ... < b_k} is admissible when no prime q has all
of its residue classes covered by the offsets; only then can infinitely many
prime instances exist.  A constellation instance is a run of k consecutive
primes p + b_1, ..., p + b_k.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import _int_at_least
from .errors import BoundExceededError, KTooLargeError, NotAdmissibleError

__all__ = [
    "AdmissibilityReport",
    "OffsetPattern",
    "PrimeTuplet",
    "find_tuplets",
    "is_admissible",
    "is_prime",
    "smallest_diameter",
]

# Miller-Rabin witnesses: the first `count` bases are exact for every n below
# `bound` (OEIS A014233, the least strong pseudoprimes to the first primes),
# and all twelve for the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 64
_MR_WITNESS_COUNTS = ((1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
                      (2_152_302_898_747, 5), (3_474_749_660_383, 6),
                      (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
                      (_MR_LIMIT, 12))

# find_tuplets refuses windows whose top (hi + pattern diameter) is above this.
# At the limit the odd-only base-prime sieve covers isqrt(10^16) / 2 = 5*10^7
# flags (50 MB), and every p^2 and ceil(lo/p)*p of the window marking fits in
# int64.  The Apéry engine's own bound is core.APERY_MODULUS_LIMIT.
SIEVE_HEIGHT_LIMIT = 10 ** 16
# Numbers per sieve segment; each segment's buffer also holds the diameter.
_SEGMENT_LENGTH = 1 << 18
# Base primes above the square root of a window are marked in blocks that
# list at most this many multiples in the window.
_MARK_BUDGET = 1 << 16
# find_tuplets also refuses patterns wider than this.  A segment buffer holds
# 2^18 + diameter numbers, one byte of flags each.  At the limit its marking
# peaks near 2.5 MB: the 1.26 MB of flags and a block's few int64 arrays of
# at most _MARK_BUDGET entries.  The int32 cumsum of the consecutive test
# comes later and needs 5 MB.
SIEVE_DIAMETER_LIMIT = 10 ** 6


@dataclass(frozen=True)
class OffsetPattern:
    """Ordered offsets b_1 = 0 < b_2 < ... < b_k describing a constellation shape."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) < 2:
            raise ValueError("a pattern needs at least two offsets")
        offsets = tuple(_int_at_least(b, 0, ValueError, "offset") for b in self.offsets)
        object.__setattr__(self, "offsets", offsets)  # numpy integers become Python ints
        if self.offsets[0] != 0:
            raise ValueError("patterns start at offset 0")
        if any(a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.offsets)

    @property
    def diameter(self) -> int:
        """Largest offset; the span p_k - p_1 of an instance."""
        return self.offsets[-1]

    def __str__(self) -> str:
        return ",".join(str(b) for b in self.offsets)


def _check_pattern(pattern) -> None:
    """Raise the TypeError that every pattern-taking function gives for a non-pattern."""
    if not isinstance(pattern, OffsetPattern):
        raise TypeError(f"pattern must be an OffsetPattern, not {type(pattern).__name__}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """The smallest prime with every class covered, and the residues there; None if admissible."""

    witness_prime: int | None = None
    residues_at_witness: tuple[int, ...] | None = None

    @property
    def admissible(self) -> bool:
        return self.witness_prime is None


def _primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array.

    An odd-only sieve: flag i stands for 2i + 1, and flag 0 (for 1) stands for 2.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def is_admissible(pattern: OffsetPattern) -> AdmissibilityReport:
    """Check that no prime q has every class mod q covered by the offsets.

    Only primes q <= k matter: k offsets cannot cover more than k classes.
    The witness, if any, is the smallest covered prime.
    """
    _check_pattern(pattern)
    for q in _primes_up_to(pattern.size).tolist():
        residues = tuple(sorted(b % q for b in pattern.offsets))
        if len(set(residues)) == q:
            return AdmissibilityReport(q, residues)
    return AdmissibilityReport()


def smallest_diameter(k: int) -> tuple[int, list[OffsetPattern]]:
    """Smallest diameter with an admissible k-offset pattern, plus every such pattern.

    Admissible patterns use even offsets only (an odd offset together with 0
    covers both classes mod 2), so the exhaustive search enumerates even
    interiors in increasing diameter.  A k that is not an integer raises
    TypeError.
    """
    k = _int_at_least(k, None, TypeError, "k")
    if not 2 <= k <= 10:
        raise KTooLargeError("k must be between 2 and 10")
    d = 2 * (k - 1)
    while True:
        found = []
        for middle in combinations(range(2, d, 2), k - 2):
            pattern = OffsetPattern((0, *middle, d))
            if is_admissible(pattern).admissible:
                found.append(pattern)
        if found:
            return d, found
        d += 2


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Miller-Rabin with the fewest of the prime bases 2, 3, ..., 37 that is
    exact below n's bound in _MR_WITNESS_COUNTS: the least strong
    pseudoprimes to the first primes (OEIS A014233; G. Jaeschke, Math. Comp.
    61, 1993; J. Sorenson and J. Webster, Math. Comp. 86, 2017).
    """
    n = _int_at_least(n, None, TypeError, "n")
    if n >= _MR_LIMIT:
        raise ValueError("primality test supports n < 2**64 only")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    count = next(count for bound, count in _MR_WITNESS_COUNTS if n < bound)
    for a in _MR_BASES[:count]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeTuplet:
    """A constellation instance: p plus every pattern offset is prime."""

    p: int
    pattern: OffsetPattern

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _int_at_least(self.p, None, TypeError, "p"))
        _check_pattern(self.pattern)
        composite = [q for q in self.primes if not is_prime(q)]
        if composite:
            raise ValueError(f"not a prime tuplet at p={self.p}: {composite} are composite")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self.p + b for b in self.pattern.offsets)


def _sieve_flags(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primality flags for the window [lo, hi], lo >= 2.

    base_primes must hold every prime up to isqrt(hi).  A prime no larger
    than the square root of the window size crosses off its multiples with
    one slice.  The larger ones have few multiples each: they are listed a
    block at a time and crossed off with one fancy-index store.  No prime of
    a block has more than size // q + 1 multiples, for q its first prime, so
    a block of _MARK_BUDGET // (size // q + 1) primes lists at most
    _MARK_BUDGET of them; while size < 2^32 it holds at least one prime.
    Each prime p starts at the larger of p^2 and its first multiple >= lo,
    ceil(lo/p)*p, whose offset in the window is -lo mod p.
    """
    size = hi - lo + 1
    flags = np.ones(size, dtype=bool)
    small = np.searchsorted(base_primes, math.isqrt(size), side="right")
    for p in base_primes[:small].tolist():
        flags[max(p * p - lo, -lo % p)::p] = False
    i = small
    while i < len(base_primes):
        q = base_primes[i:i + _MARK_BUDGET // (size // int(base_primes[i]) + 1)]
        i += len(q)
        first = np.maximum(q * q - lo, -lo % q)
        if q[0] >= size:  # at most one multiple each
            flags[first[first < size]] = False
            continue
        counts = np.maximum((size - 1 - first) // q + 1, 0)
        ends = np.cumsum(counts)
        # entry t of the list is first + (t - start) * q for its prime q, where
        # start = ends - counts counts the entries of the primes before q
        multiples = np.repeat(first - (ends - counts) * q, counts)
        multiples += np.arange(ends[-1]) * np.repeat(q, counts)
        flags[multiples] = False
    return flags


def find_tuplets(
    pattern: OffsetPattern,
    lo: int,
    hi: int,
    require_consecutive: bool = True,
    *,
    allow_inadmissible: bool = False,
) -> list[PrimeTuplet]:
    """All p in [lo, hi] whose full pattern lands on primes, in increasing order.

    With require_consecutive the pattern primes must be consecutive primes:
    no stray prime may sit strictly between p and p + diameter.  Inadmissible
    patterns are refused (they admit at most finitely many instances) unless
    allow_inadmissible is set.  Raises BoundExceededError, before allocating
    anything, when hi + diameter is above SIEVE_HEIGHT_LIMIT or the diameter
    is above SIEVE_DIAMETER_LIMIT.
    """
    _check_pattern(pattern)
    lo = _int_at_least(lo, None, TypeError, "lo")
    hi = _int_at_least(hi, None, TypeError, "hi")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    return list(_segment_tuplets(pattern, lo, hi, require_consecutive, allow_inadmissible))


def _segment_tuplets(pattern: OffsetPattern, lo: int, hi: int, require_consecutive: bool,
                     allow_inadmissible: bool) -> Iterator[PrimeTuplet]:
    """find_tuplets' instances in order; a segment is sieved once the one before is used up.

    Each segment is extended by the pattern diameter so every candidate p can
    be judged inside a single buffer, and its consecutive test counts primes
    with an int32 cumsum of that buffer.  The base primes up to
    sqrt(hi + diameter) are sieved afresh on every call.
    """
    diam = pattern.diameter
    if hi + diam > SIEVE_HEIGHT_LIMIT or diam > SIEVE_DIAMETER_LIMIT:
        raise BoundExceededError(
            f"window top {hi} + diameter {diam} is outside the sieve limits "
            f"(top at most {SIEVE_HEIGHT_LIMIT}, diameter at most {SIEVE_DIAMETER_LIMIT})")
    report = is_admissible(pattern)
    if not report.admissible and not allow_inadmissible:
        raise NotAdmissibleError(
            f"pattern {pattern} covers every class mod {report.witness_prime}; "
            "pass allow_inadmissible=True to search anyway")
    lo = max(lo, 2)
    if lo > hi:
        return
    base_primes = _primes_up_to(math.isqrt(hi + diam))
    offsets = pattern.offsets
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + _SEGMENT_LENGTH - 1, hi)
        span = seg_hi - seg_lo + 1
        flags = _sieve_flags(seg_lo, seg_hi + diam, base_primes)
        hits = flags[:span].copy()
        for b in offsets[1:]:
            hits &= flags[b:b + span]
        if require_consecutive:
            # p is prime, so the other k - 1 pattern primes must be the only
            # primes in (p, p + diameter]
            c = np.cumsum(flags, dtype=np.int32)
            hits &= c[diam:diam + span] - c[:span] == len(offsets) - 1
        yield from (PrimeTuplet(seg_lo + i, pattern) for i in np.flatnonzero(hits).tolist())
        seg_lo = seg_hi + 1
