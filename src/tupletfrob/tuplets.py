"""Prime constellations: admissible offset patterns, minimal diameters, sieving.

An offset pattern {0 = b_1 < ... < b_k} is admissible when no prime q has all
of its residue classes covered by the offsets; only then can infinitely many
prime instances exist.  A constellation instance is a run of k consecutive
primes p + b_1, ..., p + b_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

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

# Deterministic Miller-Rabin witness set for the full 64-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 64

# find_tuplets refuses windows whose top (hi + pattern diameter) is above this.
# At the limit the base-prime sieve covers isqrt(10^16) = 10^8 entries (100 MB
# of flags), and every p^2 and ceil(lo/p)*p of the window marking fits in
# int64.  The Apéry engine's own bound is core.APERY_MODULUS_LIMIT.
SIEVE_HEIGHT_LIMIT = 10 ** 16
# Numbers per sieve segment; each segment's buffer also holds the diameter.
_SEGMENT_LENGTH = 1 << 18
# find_tuplets also refuses patterns wider than this.  A segment buffer holds
# 2^18 + diameter numbers: one byte of flags each, plus 8 bytes each for the
# int64 cumsum of the consecutive test and 8 more for its concatenate copy,
# so at the limit a segment peaks near 17 * 1.26e6 bytes, about 21 MB.
SIEVE_DIAMETER_LIMIT = 10 ** 6


@dataclass(frozen=True)
class OffsetPattern:
    """Ordered offsets b_1 = 0 < b_2 < ... < b_k describing a constellation shape."""

    offsets: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) < 2:
            raise ValueError("a pattern needs at least two offsets")
        for b in self.offsets:
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"bad offset {b!r}: must be a non-negative integer")
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


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    witness_prime: int | None = None
    residues_at_witness: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.admissible != (self.witness_prime is None):
            raise ValueError("a witness prime exists exactly for inadmissible patterns")


def _primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array.

    _sieve_flags sieves [2, n] with the primes up to isqrt(n), found the same way.
    """
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = _sieve_flags(2, n, _primes_up_to(math.isqrt(n)))
    return (np.flatnonzero(flags) + 2).astype(np.int64, copy=False)


def is_admissible(pattern: OffsetPattern) -> AdmissibilityReport:
    """Check that no prime q has every class mod q covered by the offsets.

    Only primes q <= k matter: k offsets cannot cover more than k classes.
    The witness, if any, is the smallest covered prime.
    """
    for q in _primes_up_to(pattern.size).tolist():
        residues = tuple(sorted(b % q for b in pattern.offsets))
        if len(set(residues)) == q:
            return AdmissibilityReport(False, q, residues)
    return AdmissibilityReport(True)


def smallest_diameter(k: int) -> tuple[int, list[OffsetPattern]]:
    """Smallest diameter with an admissible k-offset pattern, plus every such pattern.

    Admissible patterns use even offsets only (an odd offset together with 0
    covers both classes mod 2), so the exhaustive search enumerates even
    interiors in increasing diameter.
    """
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
    """Deterministic primality for 0 <= n < 2**64."""
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
    for a in _MR_BASES:
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
        composite = [self.p + b for b in self.pattern.offsets if not is_prime(self.p + b)]
        if composite:
            raise ValueError(f"not a prime tuplet at p={self.p}: {composite} are composite")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self.p + b for b in self.pattern.offsets)


def _sieve_flags(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primality flags for the window [lo, hi], lo >= 2.

    base_primes must hold every prime up to isqrt(hi).  A prime no larger
    than the window crosses off its multiples with one slice; a larger one
    has at most one multiple in the window, so those are crossed off
    together with one fancy-index store.
    """
    size = hi - lo + 1
    flags = np.ones(size, dtype=bool)
    starts = np.maximum(base_primes * base_primes, -(-lo // base_primes) * base_primes)
    small = np.searchsorted(base_primes, size, side="right")
    for p, start in zip(base_primes[:small].tolist(), starts[:small].tolist()):
        flags[start - lo::p] = False
    large = starts[small:]
    flags[large[large <= hi] - lo] = False
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

    Sieving is segmented: each window is extended by the pattern diameter so
    every candidate p can be judged inside a single buffer.  The base primes
    up to sqrt(hi + diameter) are sieved afresh on every call.
    """
    if lo > hi:
        raise ValueError("lo must not exceed hi")
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
        return []
    base_primes = _primes_up_to(math.isqrt(hi + diam))
    offsets = pattern.offsets
    out: list[PrimeTuplet] = []
    seg_lo = lo
    while seg_lo <= hi:
        seg_hi = min(seg_lo + _SEGMENT_LENGTH - 1, hi)
        span = seg_hi - seg_lo + 1
        flags = _sieve_flags(seg_lo, seg_hi + diam, base_primes)
        hits = flags[:span].copy()
        for b in offsets[1:]:
            hits &= flags[b:b + span]
        if require_consecutive:
            # the k pattern primes are then the only primes in [p, p + diameter]
            primes_before = np.concatenate(([0], np.cumsum(flags)))
            hits &= primes_before[diam + 1:diam + 1 + span] - primes_before[:span] == len(offsets)
        out.extend(PrimeTuplet(seg_lo + i, pattern) for i in np.flatnonzero(hits).tolist())
        seg_lo = seg_hi + 1
    return out
