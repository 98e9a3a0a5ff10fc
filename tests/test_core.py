"""Engine tests: construction, Apéry sets, membership, invariants."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from tupletfrob import GeneratorSet, make_semigroup, oracle_frobenius
from tupletfrob.core import APERY_MODULUS_LIMIT, AperySet, _residue_table
from tupletfrob.errors import (
    BoundExceededError,
    EmptyInputError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NonPositiveElementError,
    SemigroupIsNaturalsError,
)


def random_coprime_gens(rng, max_multiplicity=200, max_extra=400):
    while True:
        m = rng.randint(2, max_multiplicity)
        e = rng.randint(2, 6)
        gens = sorted({m, *[rng.randint(m, m + max_extra) for _ in range(e - 1)]})
        if math.gcd(*gens) == 1:
            return gens


class TestConstruction:
    def test_example_generators(self):
        s = make_semigroup([11, 13, 17])
        assert s.generators.elements == (11, 13, 17)
        assert s.multiplicity == 11

    def test_naturals(self):
        s = make_semigroup([1])
        assert s.multiplicity == 1
        assert s.contains(0) and s.contains(1) and s.contains(10**12)

    def test_sorts_and_dedups(self):
        s = make_semigroup([17, 11, 13, 11])
        assert s.generators.elements == (11, 13, 17)

    def test_gcd_failure_reports_gcd(self):
        with pytest.raises(GcdNotOneError) as exc:
            make_semigroup([4, 6])
        assert exc.value.gcd == 2

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            make_semigroup([])

    def test_non_positive(self):
        with pytest.raises(NonPositiveElementError):
            make_semigroup([5, 0])
        with pytest.raises(NonPositiveElementError):
            make_semigroup([5, -3])

    def test_generator_set_rejects_unsorted(self):
        with pytest.raises(ValueError):
            GeneratorSet((5, 3))
        with pytest.raises(ValueError):
            GeneratorSet((3, 3, 5))


class TestAperySet:
    def test_triplet_example(self):
        ap = make_semigroup([11, 13, 17]).apery_set(11)
        assert ap.elements == (0, 13, 17, 26, 30, 34, 43, 47, 51, 60, 64)

    def test_second_triplet_example(self):
        ap = make_semigroup([7, 11, 13]).apery_set(7)
        assert ap.elements == (0, 11, 13, 22, 24, 26, 37)

    def test_quadruplet_small_case(self):
        ap = make_semigroup([7, 9, 13, 15]).apery_set(7)
        assert ap.elements == (0, 9, 13, 15, 18, 24, 26)

    def test_naturals(self):
        ap = make_semigroup([1]).apery_set(1)
        assert ap.table == (0,)

    def test_modulus_must_be_member(self):
        s = make_semigroup([11, 13, 17])
        with pytest.raises(ModulusNotInSemigroupError):
            s.apery_set(12)
        with pytest.raises(ModulusNotInSemigroupError):
            s.apery_set(0)

    def test_non_generator_modulus(self):
        s = make_semigroup([11, 13, 17])
        ap = s.apery_set(24)  # 24 = 11 + 13
        assert ap.modulus == 24 and len(ap.table) == 24
        assert all(w % 24 == i for i, w in enumerate(ap.table))
        assert all(not s.contains(w - 24) for w in ap.table if w)

    def test_table_checks(self):
        assert AperySet(5, (0, 11, 7, 13, 14)).elements == (0, 7, 11, 13, 14)
        for table, message in (((0, 11, 7, 13), "length"), ((5, 11, 7, 13, 14), "hold 0"),
                               ((0, 11, 8, 13, 14), "table\\[2\\] = 8 is not congruent")):
            with pytest.raises(ValueError, match=message):
                AperySet(5, table)

    @pytest.mark.parametrize("convert", [list, lambda t: np.array(t, dtype=np.int64)],
                             ids=["list", "int64-array"])
    def test_any_integer_sequence_is_checked_and_stored_as_a_tuple(self, convert):
        ap = AperySet(5, convert((0, 11, 7, 13, 14)))
        assert type(ap.table) is tuple and all(type(w) is int for w in ap.table)
        assert hash(ap) == hash(AperySet(5, (0, 11, 7, 13, 14)))
        for table, message in (((0, 11, 7, 13), "length"), ((5, 11, 7, 13, 14), "hold 0"),
                               ((0, 11, 8, 13, 14), "table[2] = 8 is not congruent to 2 mod 5")):
            with pytest.raises(ValueError, match=re.escape(message)):
                AperySet(5, convert(table))

    def test_numpy_modulus_is_stored_as_a_python_int(self):
        assert type(AperySet(np.int64(5), (0, 11, 7, 13, 14)).modulus) is int
        with pytest.raises(ValueError, match="must be an integer"):
            AperySet(5.0, (0, 11, 7, 13, 14))

    @pytest.mark.parametrize("big", [2 ** 63 + 1, 2 ** 70 + 1])
    def test_values_past_int64_stay_exact(self, big):
        # numpy 2 would hold (0, 2**63 + 1) as float64
        assert AperySet(2, (0, big)).table == (0, big)

    def test_entries_past_int64_are_converted_to_python_ints(self):
        ap = AperySet(2, [np.int64(0), 2 ** 70 + 1])
        assert ap.table == (0, 2 ** 70 + 1) and all(type(w) is int for w in ap.table)

    # numpy would read (0, True) as the int64 array (0, 1)
    @pytest.mark.parametrize("table", [(0, 1.0), (0, 2 ** 70 + 1.0), (0, "1"),
                                       (0, True), [0, True]])
    def test_non_integer_entries_are_refused(self, table):
        with pytest.raises(ValueError, match="bad table entry .*: must be an integer"):
            AperySet(2, table)

    def test_values_past_int64_are_checked_exactly(self):
        big = 2 ** 63 + 2
        with pytest.raises(ValueError, match=re.escape(f"table[1] = {big} is not congruent")):
            AperySet(2, (0, big))

    def test_defining_property_random(self):
        rng = random.Random(1)
        for _ in range(50):
            s = make_semigroup(random_coprime_gens(rng))
            ap = s.apery_set()
            n = ap.modulus
            assert ap.table[0] == 0
            assert len(set(ap.table)) == n
            assert all(w % n == i for i, w in enumerate(ap.table))
            assert all(not s.contains(w - n) for w in ap.table if w)

    def test_relaxation_order_independent(self):
        rng = random.Random(2)
        for _ in range(25):
            gens = tuple(random_coprime_gens(rng, max_multiplicity=80))
            n = gens[0]
            reference = _residue_table(n, gens).tolist()
            for _ in range(3):
                shuffled = list(gens)
                rng.shuffle(shuffled)
                assert _residue_table(n, tuple(shuffled)).tolist() == reference


def brute_members(gens, size):
    """reachable[x] for 0 <= x < size, by dynamic programming over the generators."""
    reachable = [True] + [False] * (size - 1)
    for x in range(1, size):
        reachable[x] = any(x >= g and reachable[x - g] for g in gens)
    return reachable


def brute_apery(reachable, n):
    """Least member of each class mod n; needs reachable over [0, n * max(gens)),
    because an Apéry element is a sum of at most n - 1 generators."""
    table = [None] * n
    for x, member in enumerate(reachable):
        if member and table[x % n] is None:
            table[x % n] = x
    return table


class TestEngineAgainstBruteForce:
    # n = 1 and n = 2; generators that are multiples of n; steps sharing a
    # factor with n, so that +a splits Z_n into several orbits
    FIXED = [(1,), (1, 7), (2, 3), (2, 4, 5), (2, 9, 11), (4, 8, 9), (6, 12, 13, 18),
             (12, 15, 20, 23), (12, 18, 20, 27), (30, 42, 45, 70, 77), (10, 24, 25, 36, 43)]

    def cases(self):
        rng = random.Random(20)
        yield from self.FIXED
        while True:
            n = rng.randint(1, 40)
            gens = {n, *(rng.randint(1, 3 * n + 10) for _ in range(rng.randint(1, 5)))}
            if rng.random() < 0.3:
                gens.add(n * rng.randint(2, 4))
            if math.gcd(*gens) == 1:
                yield tuple(sorted(gens))

    def test_tables_and_invariants(self):
        rng = random.Random(21)
        for gens, _ in zip(self.cases(), range(150)):
            n = gens[0]
            other = gens[-1] + n  # a member that is not the multiplicity
            reachable = brute_members(gens, other * gens[-1])
            want = brute_apery(reachable, n)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            assert _residue_table(n, tuple(shuffled)).tolist() == want, shuffled
            s = make_semigroup(shuffled)
            assert list(s.apery_set().table) == want
            oracle = oracle_frobenius(gens)
            assert (s.frobenius_number(), s.genus()) == (oracle.frobenius, oracle.genus), gens
            if n > 1:
                def member(x):
                    return x >= want[x % n]
                pf = tuple(x for x in range(oracle.frobenius + 1)
                           if not member(x) and all(member(x + g) for g in gens))
                assert s.pseudo_frobenius() == pf, gens
                assert s.type() == len(pf)
            assert list(s.apery_set(other).table) == brute_apery(reachable, other), gens

    def test_table_is_read_only(self):
        table = make_semigroup([11, 13, 17])._table
        with pytest.raises(ValueError):
            table[1] = 0

    def test_values_near_the_int64_bound(self):
        # (n1 - 1) * nk just below 2**62; Sylvester gives the exact answers
        for a, b in ((2, 2 ** 62 - 1), (3, 2 ** 61 - 1)):
            s = make_semigroup([a, b])
            assert s.frobenius_number() == a * b - a - b
            assert s.genus() == (a - 1) * (b - 1) // 2
            assert s.pseudo_frobenius() == (a * b - a - b,)


class TestEngineBounds:
    def test_modulus_above_limit_raises_before_allocating(self):
        s = make_semigroup([APERY_MODULUS_LIMIT + 1, APERY_MODULUS_LIMIT + 2])
        tracemalloc.start()
        try:
            with pytest.raises(BoundExceededError, match="engine limit"):
                s.frobenius_number()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_huge_multiplicity(self):
        s = make_semigroup([1000000007, 1000000009])
        for query in (s.frobenius_number, s.genus, s.pseudo_frobenius, s.type,
                      s.apery_set, lambda: s.contains(5)):
            with pytest.raises(BoundExceededError):
                query()

    def test_apery_modulus_above_limit(self):
        s = make_semigroup([11, 13, 17])
        with pytest.raises(BoundExceededError):
            s.apery_set(11 * (APERY_MODULUS_LIMIT // 11 + 1))

    def test_int64_overflow_guard(self):
        for gens in ([3, 2 ** 62 + 1], [2, 2 ** 62 + 1], [5, 7, 2 ** 61]):
            with pytest.raises(BoundExceededError, match="2\\*\\*62"):
                make_semigroup(gens).frobenius_number()

    def test_numpy_modulus_gets_the_python_int_guard(self):
        # (10**6 - 1) * (3*10**13 + 1) wraps in int64 and would slip past the guard
        s = make_semigroup([2, 3 * 10 ** 13 + 1])
        with pytest.raises(BoundExceededError) as python_int:
            s.apery_set(10 ** 6)
        with pytest.raises(BoundExceededError) as numpy_int:
            s.apery_set(np.int64(10 ** 6))
        assert str(numpy_int.value) == str(python_int.value)


class TestMembership:
    def test_frobenius_boundary(self):
        s = make_semigroup([11, 13, 17])
        assert not s.contains(53)
        assert all(s.contains(x) for x in range(54, 54 + 12))

    def test_zero_and_negative(self):
        s = make_semigroup([11, 13, 17])
        assert s.contains(0)
        assert not s.contains(-1)
        assert 0 in s and -5 not in s

    def test_numpy_integers_are_accepted(self):
        s = make_semigroup([11, 13, 17])
        assert s.contains(np.int64(54)) and not s.contains(np.int64(53))
        assert s.apery_set(np.int64(24)) == s.apery_set(24)

    def test_the_multiplicity_passes_the_same_integer_check(self):
        # n equal to the multiplicity once skipped the check: 11.0 answered, 13.0 raised
        s = make_semigroup([11, 13, 17])
        assert s.apery_set(np.int64(11)) == s.apery_set(11) == s.apery_set()
        for n in (11.0, 13.0):
            with pytest.raises(ModulusNotInSemigroupError, match="must be an integer"):
                s.apery_set(n)
        with pytest.raises(ModulusNotInSemigroupError, match="must be an integer"):
            make_semigroup([1]).apery_set(True)

    @pytest.mark.parametrize("x", [7.0, True, np.bool_(True), "7"])
    def test_non_integers_are_refused(self, x):
        s = make_semigroup([11, 13, 17])
        with pytest.raises(TypeError, match="must be an integer"):
            s.contains(x)
        with pytest.raises(ModulusNotInSemigroupError, match="must be an integer"):
            s.apery_set(x)

    def test_matches_exhaustive_enumeration(self):
        # independent oracle: grow the sum-closure set directly
        gens = [6, 10, 15]
        s = make_semigroup(gens)
        limit = 100
        reachable = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x + g
                if y <= limit and y not in reachable:
                    reachable.add(y)
                    frontier.append(y)
        for x in range(limit + 1):
            assert s.contains(x) == (x in reachable), x


class TestInvariants:
    def test_frobenius_examples(self):
        assert make_semigroup([11, 13, 17]).frobenius_number() == 53
        assert make_semigroup([1]).frobenius_number() == -1

    def test_genus_examples(self):
        assert make_semigroup([11, 13, 17]).genus() == 30
        assert make_semigroup([101, 103, 107, 109]).genus() == 1351
        assert make_semigroup([1]).genus() == 0

    def test_genus_equals_gap_count(self):
        rng = random.Random(3)
        for _ in range(40):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=60))
            f = s.frobenius_number()
            gaps = sum(1 for x in range(f + 1) if not s.contains(x))
            assert s.genus() == gaps

    def test_genus_sandwich(self):
        rng = random.Random(4)
        for _ in range(40):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=60))
            f, g = s.frobenius_number(), s.genus()
            if f >= 0:
                assert (f + 1) <= 2 * g
                assert g <= f + 1

    def test_frobenius_is_a_gap_with_full_window_above(self):
        rng = random.Random(5)
        for _ in range(40):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=60))
            f = s.frobenius_number()
            assert not s.contains(f)
            assert all(s.contains(f + j) for j in range(1, s.multiplicity + 1))

    def test_sylvester_pairs(self):
        rng = random.Random(6)
        done = 0
        while done < 200:
            a = rng.randint(2, 300)
            b = rng.randint(2, 300)
            if a == b or math.gcd(a, b) != 1:
                continue
            done += 1
            assert make_semigroup([a, b]).frobenius_number() == a * b - a - b


class TestPseudoFrobenius:
    def test_examples(self):
        assert make_semigroup([11, 13, 17]).pseudo_frobenius() == (49, 53)
        assert make_semigroup([5, 7, 11, 13]).pseudo_frobenius() == (6, 8, 9)
        assert make_semigroup([11, 13, 17, 19]).pseudo_frobenius() == (15, 40, 42)

    def test_naturals_has_none(self):
        with pytest.raises(SemigroupIsNaturalsError):
            make_semigroup([1]).pseudo_frobenius()

    def test_defining_property(self):
        rng = random.Random(7)
        for _ in range(30):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=60))
            pf = s.pseudo_frobenius()
            for x in pf:
                assert not s.contains(x)
                assert all(s.contains(x + g) for g in s.generators)
            assert pf == tuple(sorted(pf))
            assert s.frobenius_number() == pf[-1]

    def test_against_pairwise_maximals(self):
        # independent route: maximality by O(n^2) difference-membership
        rng = random.Random(8)
        for _ in range(30):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=40))
            ap = s.apery_set()
            n = ap.modulus
            maximals = [w for w in ap.table
                        if not any(w2 != w and s.contains(w2 - w) for w2 in ap.table)]
            assert tuple(sorted(x - n for x in maximals)) == s.pseudo_frobenius()


class TestMinimalGenerators:
    def test_collapse_to_naturals(self):
        assert make_semigroup([1, 3, 7, 9]).minimal_generators().elements == (1,)

    def test_collapse_drops_redundant(self):
        # 9 = 3+3+3 and 11 = 3+3+5, so only {3,5} survives
        assert make_semigroup([3, 5, 9, 11]).minimal_generators().elements == (3, 5)

    def test_already_minimal(self):
        assert make_semigroup([11, 13, 17]).minimal_generators().elements == (11, 13, 17)

    def test_minimality_properties(self):
        rng = random.Random(9)
        for _ in range(30):
            s = make_semigroup(random_coprime_gens(rng, max_multiplicity=50))
            msg = s.minimal_generators().elements
            t = make_semigroup(msg)
            limit = max(s.frobenius_number(), 0) + max(msg) + 1
            # generates the same semigroup
            assert all(s.contains(x) == t.contains(x) for x in range(limit))
            # no member is a sum of two nonzero members
            for g in msg:
                assert not any(0 < g - a and t.contains(g - a) for a in msg)

    def test_invariants_bundle(self):
        inv = make_semigroup([5, 7, 11, 13]).invariants()
        assert inv.frobenius == 9
        assert inv.genus == 7
        assert inv.pseudo_frobenius == (6, 8, 9)
        assert inv.type_ == 3
        assert inv.embedding_dimension == 4
        assert inv.minimal_generators.elements == (5, 7, 11, 13)
