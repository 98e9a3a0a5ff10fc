"""Constellation tests: admissibility, s(k), primality, sieving."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from tupletfrob import (
    OffsetPattern,
    PrimeTuplet,
    find_tuplets,
    is_admissible,
    is_prime,
    smallest_diameter,
)
from tupletfrob.errors import BoundExceededError, KTooLargeError, NotAdmissibleError
from tupletfrob.tuplets import SIEVE_DIAMETER_LIMIT, SIEVE_HEIGHT_LIMIT, _primes_up_to

# the 8 tightest patterns of 3 to 7 primes, as smallest_diameter(3..7) lists them
TIGHTEST = [p.offsets for k in range(3, 8) for p in smallest_diameter(k)[1]]


class TestOffsetPattern:
    def test_basic(self):
        p = OffsetPattern((0, 2, 6))
        assert p.size == 3 and p.diameter == 6 and str(p) == "0,2,6"

    def test_validation(self):
        with pytest.raises(ValueError):
            OffsetPattern((0,))
        with pytest.raises(ValueError):
            OffsetPattern((1, 3))
        with pytest.raises(ValueError):
            OffsetPattern((0, 2, 2))


class TestAdmissibility:
    def test_triplet_patterns(self):
        assert is_admissible(OffsetPattern((0, 2, 6))).admissible
        assert is_admissible(OffsetPattern((0, 4, 6))).admissible

    def test_complete_mod_3(self):
        report = is_admissible(OffsetPattern((0, 2, 4)))
        assert not report.admissible
        assert report.witness_prime == 3
        assert report.residues_at_witness == (0, 1, 2)

    def test_quadruplet_pattern(self):
        assert is_admissible(OffsetPattern((0, 2, 6, 8))).admissible

    def test_odd_offset_fails_mod_2(self):
        report = is_admissible(OffsetPattern((0, 3)))
        assert not report.admissible and report.witness_prime == 2


class TestSmallestDiameter:
    def test_known_values(self):
        expected = {
            2: (2, [(0, 2)]),
            3: (6, [(0, 2, 6), (0, 4, 6)]),
            4: (8, [(0, 2, 6, 8)]),
            5: (12, [(0, 2, 6, 8, 12), (0, 4, 6, 10, 12)]),
            6: (16, [(0, 4, 6, 10, 12, 16)]),
            7: (20, [(0, 2, 6, 8, 12, 18, 20), (0, 2, 8, 12, 14, 18, 20)]),
        }
        for k, (s, patterns) in expected.items():
            got_s, got = smallest_diameter(k)
            assert got_s == s
            assert [p.offsets for p in got] == patterns

    def test_guard(self):
        with pytest.raises(KTooLargeError):
            smallest_diameter(11)
        with pytest.raises(KTooLargeError):
            smallest_diameter(1)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_exhaustive_including_odd_offsets(self, k):
        # independent search without the even-offsets shortcut
        s, patterns = smallest_diameter(k)
        found = {}
        for d in range(k - 1, s + 1):
            hits = []
            for middle in combinations(range(1, d), k - 2):
                pat = OffsetPattern((0, *middle, d))
                if is_admissible(pat).admissible:
                    hits.append(pat.offsets)
            if hits:
                found[d] = hits
        assert min(found) == s
        assert found[s] == [p.offsets for p in patterns]


class TestIsPrime:
    def test_spot_values(self):
        assert is_prime(101)
        assert not is_prime(1)
        assert not is_prime(0)
        for k in range(50):
            assert not is_prime(6 * k + 9)

    def test_against_sieve_exhaustively(self):
        limit = 10 ** 6
        flags = bytearray(limit)
        for p in _primes_up_to(limit - 1):
            flags[p] = 1
        for n in range(limit):
            assert is_prime(n) == bool(flags[n]), n

    def test_64_bit_edges(self):
        assert is_prime(18446744073709551557)          # largest prime below 2**64
        assert not is_prime((1 << 64) - 1)
        assert not is_prime(3215031751)                # strong pseudoprime to bases 2,3,5,7
        assert not is_prime(341550071728321)
        assert not is_prime(3825123056546413051)
        assert is_prime(2 ** 61 - 1)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            is_prime(1 << 64)


class TestPrimeTuplet:
    def test_members(self):
        t = PrimeTuplet(11, OffsetPattern((0, 2, 6)))
        assert t.primes == (11, 13, 17)

    def test_rejects_composite_members(self):
        with pytest.raises(ValueError):
            PrimeTuplet(7, OffsetPattern((0, 2, 6)))  # 9 is composite


class TestFindTuplets:
    def test_triplets_in_small_range(self):
        found = find_tuplets(OffsetPattern((0, 2, 6)), 5, 20)
        assert [t.p for t in found] == [5, 11, 17]

    def test_second_form(self):
        found = find_tuplets(OffsetPattern((0, 4, 6)), 7, 10)
        assert [t.primes for t in found] == [(7, 11, 13)]

    def test_quadruplet_window(self):
        found = find_tuplets(OffsetPattern((0, 2, 6, 8)), 100, 110)
        assert [t.primes for t in found] == [(101, 103, 107, 109)]

    def test_consecutive_flag(self):
        # sexy primes (p, p+6) with p=5 straddle the prime 7
        pattern = OffsetPattern((0, 6))
        strict = find_tuplets(pattern, 5, 5, require_consecutive=True)
        loose = find_tuplets(pattern, 5, 5, require_consecutive=False)
        assert strict == []
        assert [t.primes for t in loose] == [(5, 11)]

    def test_inadmissible_refused_without_override(self):
        pattern = OffsetPattern((0, 2, 4))
        with pytest.raises(NotAdmissibleError):
            find_tuplets(pattern, 1, 100)
        found = find_tuplets(pattern, 1, 100, allow_inadmissible=True)
        assert [t.primes for t in found] == [(3, 5, 7)]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            find_tuplets(OffsetPattern((0, 2, 6)), 10, 5)

    def test_segment_boundaries(self):
        # the same result regardless of how the range is chopped up
        pattern = OffsetPattern((0, 2, 6))
        whole = [t.p for t in find_tuplets(pattern, 2, 3 * 10 ** 5)]
        lo, parts = 2, []
        rng = random.Random(10)
        while lo <= 3 * 10 ** 5:
            hi = min(lo + rng.randint(1, 70000), 3 * 10 ** 5)
            parts += [t.p for t in find_tuplets(pattern, lo, hi)]
            lo = hi + 1
        assert parts == whole

    def test_against_naive_enumeration(self):
        pattern = OffsetPattern((0, 2, 6, 8))
        naive = [p for p in range(2, 2000)
                 if all(is_prime(p + b) for b in pattern.offsets)
                 and not any(is_prime(x) for x in range(p + 1, p + 8) if x - p not in (2, 6))]
        assert [t.p for t in find_tuplets(pattern, 2, 1999)] == naive


def _tuplets_by_is_prime(offsets, lo, hi, prime, consecutive):
    """Reference enumeration from the set of primes in [lo, hi + diameter]
    found by Miller-Rabin."""
    inside = set(offsets)
    return [p for p in sorted(prime) if lo <= p <= hi
            and all(p + b in prime for b in offsets)
            and not (consecutive and any(p + x in prime
                                         for x in range(1, offsets[-1]) if x not in inside))]


class TestSieveAgainstMillerRabin:
    """find_tuplets against is_prime, which shares no code with the sieve."""

    PATTERNS = TIGHTEST + [(0, 2, 4), (0, 2), (0, 6)]  # (0, 2, 4) is inadmissible

    def check_window(self, lo, hi):
        top = hi + max(offsets[-1] for offsets in self.PATTERNS)
        prime = {n for n in range(max(lo, 0), top + 1) if is_prime(n)}
        for offsets in self.PATTERNS:
            for consecutive in (True, False):
                got = find_tuplets(OffsetPattern(offsets), lo, hi, consecutive,
                                   allow_inadmissible=True)
                want = _tuplets_by_is_prime(offsets, lo, hi, prime, consecutive)
                assert [t.p for t in got] == want, (offsets, lo, hi, consecutive)

    @pytest.mark.parametrize("lo", [0, 1, 2])
    def test_windows_from_the_bottom(self, lo):
        self.check_window(lo, 3000)

    def test_random_heights(self):
        rng = random.Random(4242)
        for _ in range(24):
            height = int(10 ** rng.uniform(3, 12))
            lo = height - rng.randrange(50)
            self.check_window(lo, lo + rng.randrange(1, 3000))

    def test_windows_crossing_segment_boundaries(self):
        # 2**18 numbers per segment: these windows need two or three segments
        rng = random.Random(4343)
        for height in (10 ** 3, 10 ** 12):
            lo = height + rng.randrange(1000)
            self.check_window(lo, lo + (1 << 18) + rng.randrange(1, 2000))
        self.check_window(10 ** 6, 10 ** 6 + (1 << 19) + 7)

    def test_prime_square_just_above_hi(self):
        # q^2 lies in (hi, hi + diameter]: the base primes must reach sqrt(hi + diameter)
        for q in (5, 7, 11, 101, 1009, 100003):
            self.check_window(q * q - 60, q * q - 1)
        assert [t.p for t in find_tuplets(OffsetPattern((0, 6)), 23, 23)] == [23]

    def test_segment_edges_hold_tuplets(self):
        # each tuplet once on the last number of a window's first segment, once on its first
        pattern = OffsetPattern((0, 2, 6))
        seg = 1 << 18
        for p in (t.p for t in find_tuplets(pattern, 10 ** 9, 10 ** 9 + 10 ** 5)):
            for lo in (p - seg + 1, p):
                assert p in [t.p for t in find_tuplets(pattern, lo, lo + seg + 10)]

    def test_at_the_height_limit(self):
        # hi + diameter equals the limit: base primes up to 10^8, int64 starts near 10^16
        pattern = OffsetPattern((0, 2))
        hi = SIEVE_HEIGHT_LIMIT - 2
        lo = hi - 3000
        prime = {n for n in range(lo, hi + 3) if is_prime(n)}
        want = _tuplets_by_is_prime((0, 2), lo, hi, prime, True)
        assert want and [t.p for t in find_tuplets(pattern, lo, hi)] == want

    def test_pattern_at_the_diameter_limit(self):
        offsets = (0, SIEVE_DIAMETER_LIMIT)
        lo, hi = 2, 3000
        prime = {n for r in (range(lo, hi + 1), range(lo + offsets[1], hi + offsets[1] + 1))
                 for n in r if is_prime(n)}
        want = _tuplets_by_is_prime(offsets, lo, hi, prime, False)
        pattern = OffsetPattern(offsets)
        assert want and [t.p for t in find_tuplets(pattern, lo, hi, False)] == want
        # many primes lie between p and p + 10^6, so no consecutive instance exists
        assert find_tuplets(pattern, lo, hi) == []


class TestSieveHeightBound:
    def test_above_limit_raises_before_allocating(self):
        # too high a window, and a low window with too wide a pattern
        for offsets, height in (((0, 2, 6), 10 ** 18), ((0, 2, SIEVE_DIAMETER_LIMIT + 2), 5)):
            tracemalloc.start()
            try:
                with pytest.raises(BoundExceededError, match="sieve limit"):
                    find_tuplets(OffsetPattern(offsets), height, height)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_limit_applies_to_hi_plus_diameter(self):
        pattern = OffsetPattern((0, 2, 6))
        with pytest.raises(BoundExceededError):
            find_tuplets(pattern, SIEVE_HEIGHT_LIMIT - 5, SIEVE_HEIGHT_LIMIT - 5)
        with pytest.raises(BoundExceededError):
            find_tuplets(OffsetPattern((0, 2, 4)), 0, SIEVE_HEIGHT_LIMIT,
                         allow_inadmissible=True)


class TestPrimesUpTo:
    def test_small_values(self):
        assert _primes_up_to(-1).tolist() == []
        assert _primes_up_to(1).tolist() == []
        assert _primes_up_to(2).tolist() == [2]
        assert _primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @pytest.mark.parametrize("n", [48, 49, 50, 120, 121, 122, 168, 169, 170])
    def test_prime_square_edges(self, n):
        # n = q^2 - 1, q^2, q^2 + 1 for q = 7, 11, 13: the top of the window
        # sits on, just below or just above the square a base prime starts at
        primes = _primes_up_to(n)
        assert primes.dtype == np.int64
        assert primes.tolist() == [m for m in range(n + 1) if is_prime(m)]
