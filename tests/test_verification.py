"""Oracle, sweep, and conjecture-fit tests."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tupletfrob import (
    FAMILIES,
    GeneratorSet,
    NumericalSemigroup,
    OffsetPattern,
    QuadraticPoly,
    fit_conjecture,
    make_semigroup,
    oracle_frobenius,
    sweep_family,
)
from tupletfrob.errors import (
    BoundExceededError,
    DomainError,
    EmptyInputError,
    GcdNotOneError,
    InsufficientSamplesError,
    NonPositiveElementError,
)
from tupletfrob import verification
from tupletfrob.verification import _quadratic_through

from test_core import random_coprime_gens


class TestOracle:
    def test_triplet_example(self):
        res = oracle_frobenius([11, 13, 17])
        assert res.frobenius == 53 and res.genus == 30
        assert len(res.gaps) == 30 and res.gaps[-1] == 53

    def test_quadruplet_small_case(self):
        res = oracle_frobenius([7, 9, 13, 15])
        assert res.frobenius == 19 and res.genus == 12

    def test_naturals(self):
        assert oracle_frobenius([1]) == oracle_frobenius([1, 2, 3])
        res = oracle_frobenius([1])
        assert res.frobenius == -1 and res.genus == 0 and res.gaps == ()

    def test_gaps_match_membership(self):
        s = make_semigroup([6, 10, 15])
        res = oracle_frobenius([6, 10, 15])
        expected = tuple(x for x in range(res.frobenius + 1) if not s.contains(x))
        assert res.gaps == expected

    def test_without_gaps(self):
        assert oracle_frobenius([11, 13, 17], with_gaps=False).gaps is None

    def test_gcd_guard(self):
        with pytest.raises(GcdNotOneError):
            oracle_frobenius([4, 6])

    def test_bound_guard(self):
        with pytest.raises(BoundExceededError):
            oracle_frobenius([40_000, 40_001])

    def test_agrees_with_engine_on_randoms(self):
        rng = random.Random(12)
        for _ in range(150):
            gens = random_coprime_gens(rng)
            s = make_semigroup(gens)
            res = oracle_frobenius(gens, with_gaps=False)
            assert res.frobenius == s.frobenius_number(), gens
            assert res.genus == s.genus(), gens

    def test_non_coprime_first_last_pair(self):
        # n1 and ne share a factor; the top-window check keeps the answer honest
        res = oracle_frobenius([6, 10, 15])
        assert res.frobenius == 29 and res.genus == 15


def reachability_by_scan(gens):
    """Frobenius number, genus and gaps by marking members one integer at a time.

    Pure Python, no table bound: the scan stops after n1 consecutive members,
    beyond which every integer is a member.
    """
    n1 = min(gens)
    members = [True]
    run = 1
    while run < n1:
        x = len(members)
        member = any(x >= a and members[x - a] for a in gens)
        members.append(member)
        run = run + 1 if member else 0
    gaps = tuple(x for x, member in enumerate(members) if not member)
    return (gaps[-1] if gaps else -1), len(gaps), gaps


# Word-boundary cases of the bit-packed table: generators that are multiples
# of 64 (a shift of whole words), tables of 64 cells (7*9 + 1) and of
# 64*65 + 1 cells, n1 above 64 (the top window spans several words), gcd(n1,
# ne) > 1, and a start below n1*ne from a negative Erdős–Graham bound.
WORD_BOUNDARY_GENERATORS = [
    (64, 97, 135), (128, 192, 257), (7, 9), (64, 65), (131, 140, 151, 177),
    (6, 10, 15), (70, 99, 140), (1, 2, 5), (2, 3),
]


class TestOracleDifferential:
    """The bit-packed oracle against a pure-Python scan."""

    def cases(self):
        yield from WORD_BOUNDARY_GENERATORS
        rng = random.Random(31)
        done = 0
        while done < 200:
            gens = tuple(rng.randint(1, 300) for _ in range(rng.randint(2, 6)))
            if math.gcd(*gens) == 1:
                done += 1
                yield gens

    def test_against_scan(self):
        for gens in self.cases():
            f, genus, gaps = reachability_by_scan(gens)
            assert oracle_frobenius(gens) == verification.OracleResult(f, genus, gaps), gens
            assert oracle_frobenius(gens, with_gaps=False) == \
                verification.OracleResult(f, genus, None), gens

    @pytest.mark.parametrize("gens", [(3, 5), (7, 9), (64, 97, 135), (131, 140, 151, 177),
                                      (6, 10, 15)])
    def test_forced_start_bounds(self, monkeypatch, gens):
        # every start from n1 - 1 up gives every table size mod 64; below
        # F + n1 the top window holds a gap, so the first table must fail
        # the window check and the bound be doubled
        f, genus, gaps = reachability_by_scan(gens)
        n1 = gens[0]
        sizes = []
        build = verification._reachable_words
        monkeypatch.setattr(verification, "_reachable_words",
                            lambda items, size: sizes.append(size) or build(items, size))
        for start in range(n1 - 1, f + n1 + 130):
            monkeypatch.setattr(verification, "_start_bound", lambda items, s=start: s)
            sizes.clear()
            assert oracle_frobenius(gens) == verification.OracleResult(f, genus, gaps), start
            assert (len(sizes) == 1) == (start >= f + n1), (start, sizes)

    def test_bound_limit_applies_to_the_allocated_table(self, monkeypatch):
        # n1*ne = 130 is above the limit, the Erdős–Graham start 69 is not
        monkeypatch.setattr(verification, "DEFAULT_BOUND_LIMIT", 70)
        gens = (10, 11, 12, 13)
        f, genus, _ = reachability_by_scan(gens)
        assert oracle_frobenius(gens, with_gaps=False) == \
            verification.OracleResult(f, genus, None)
        # F = 29, so a start of 36 fails the window check and doubles past the limit
        assert f == 29
        monkeypatch.setattr(verification, "_start_bound", lambda items: 36)
        with pytest.raises(BoundExceededError):
            oracle_frobenius(gens)

    def test_memory_is_a_fraction_of_a_byte_table(self):
        # a byte per cell over [0, n1*ne] was the previous table
        gens = FAMILIES["T1"].generators(399)
        byte_table = gens[0] * gens[-1] + 1
        tracemalloc.start()
        try:
            oracle_frobenius(gens, with_gaps=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < byte_table / 4, (peak, byte_table)


MALFORMED_GENERATORS = [
    ([], EmptyInputError),
    ([0], NonPositiveElementError),
    ([5, -3], NonPositiveElementError),
    (["a", 3], NonPositiveElementError),
    ([None, 3], NonPositiveElementError),
    ([2.5, 3], NonPositiveElementError),
    ([True, 3], NonPositiveElementError),
    ([4, 6], GcdNotOneError),
    ([np.True_, 3], NonPositiveElementError),
    ([np.int64(0), 3], NonPositiveElementError),
    ([np.float64(3.0), 5], NonPositiveElementError),
    ([np.int64(4), np.uint8(6)], GcdNotOneError),
]


class TestMalformedGenerators:
    """The engine's entry points and the oracle reject bad input alike."""

    @pytest.mark.parametrize("gens, error", MALFORMED_GENERATORS)
    def test_same_error_everywhere(self, gens, error):
        for entry_point in (make_semigroup, oracle_frobenius, GeneratorSet):
            with pytest.raises(DomainError) as info:
                entry_point(tuple(gens))
            assert type(info.value) is error, entry_point

    def test_numpy_integers_are_accepted_as_python_ints(self):
        gens = np.array([5, 3], dtype=np.int64)
        s = make_semigroup(gens)
        assert s.generators.elements == (3, 5)
        assert all(type(g) is int for g in s.generators.elements)
        assert s.frobenius_number() == 7
        assert oracle_frobenius(gens) == oracle_frobenius([3, 5])
        direct = GeneratorSet((np.int64(7), np.int64(2 ** 61 + 1)))
        assert all(type(g) is int for g in direct.elements)
        # in int64, 6 * (2**61 + 1) would wrap below the engine's 2**62 bound
        with pytest.raises(BoundExceededError):
            NumericalSemigroup(direct).frobenius_number()

    def test_gcd_is_reported(self):
        for entry_point in (make_semigroup, oracle_frobenius):
            with pytest.raises(GcdNotOneError) as info:
                entry_point([4, 6])
            assert info.value.gcd == 2


class TestSweep:
    def test_t1_matches(self):
        report = sweep_family("T1", 0, 50)
        assert report.all_match
        assert [e.k for e in report.entries] == list(range(51))

    def test_q1_with_special_case(self):
        report = sweep_family("Q1", 0, 25)
        assert report.all_match
        # k = 0 lies below Q1's thresholds, so its row reports what it observed
        assert report.entries[0].detail == {"observed_frobenius": 9, "observed_type": 3}

    def test_closed_forms_checked_from_k_min(self, monkeypatch):
        checked = []
        real = verification.apery_closed_form
        monkeypatch.setattr(verification, "apery_closed_form",
                            lambda fid, k: checked.append(k) or real(fid, k))
        assert sweep_family("Q1", 0, 5).all_match
        assert checked == [1, 2, 3, 4, 5]

    def test_wide_family(self):
        report = sweep_family("Quin1", 0, 6)
        assert report.all_match

    def test_below_threshold_rows_report_observations(self):
        report = sweep_family("Sep1", 0, 2)
        first = report.entries[0]
        assert first.status == "match"
        assert first.detail == {"observed_frobenius": 27, "observed_type": 6}

    def test_json_round_trip(self):
        report = sweep_family("T2", 0, 10)
        payload = report.to_json_dict(include_timing=False)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["family"] == "T2" and payload["all_match"] is True
        assert len(payload["entries"]) == 11

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sweep_family("T1", 5, 3)
        with pytest.raises(ValueError):
            sweep_family("T1", -1, 3)

    def test_workers_deterministic(self):
        # the keyword is accepted and ignored: sweeps always run serially
        default = sweep_family("T1", 0, 20)
        given = sweep_family("T1", 0, 20, workers=4)
        assert default.to_json_dict(include_timing=False) == \
            given.to_json_dict(include_timing=False)


class TestQuadraticThrough:
    def test_recovers_exact_quadratic(self):
        rng = random.Random(13)
        for _ in range(50):
            a2, a1, a0 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            poly = QuadraticPoly(a2, a1, a0)
            xs = rng.sample(range(-50, 50), 3)
            fitted = _quadratic_through([(x, poly(x)) for x in xs])
            assert fitted == poly


class TestFitConjecture:
    @pytest.mark.parametrize("fid", FAMILIES)
    def test_recovers_registered_polynomials(self, fid):
        d = FAMILIES[fid]
        fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue,
                             max_p=d.p_of_k(d.k_min + 7), min_p=d.p_of_k(d.k_min))
        assert fit.exact
        assert fit.poly == d.f_from_p
        assert fit.a2_equals_2_over_q and fit.a0_integer

    def test_primes_only_mode(self):
        d = FAMILIES["T1"]
        fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue,
                             max_p=2000, primes_only=True)
        assert fit.exact and fit.poly == d.f_from_p
        assert all(p in (5, 11, 17, 41, 101, 107, 191, 227) for p, _ in fit.samples)

    def test_insufficient_samples(self):
        d = FAMILIES["T1"]
        with pytest.raises(InsufficientSamplesError):
            fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=20)

    def test_zero_modulus_is_a_domain_error(self):
        with pytest.raises(DomainError, match="p_modulus"):
            fit_conjecture(OffsetPattern((0, 2, 6)), 0, 5, max_p=1000)

    def test_mixed_classes_are_not_quadratic(self):
        # sampling across different residue classes breaks the fit; this is
        # reported through exact=False rather than an exception
        fit = fit_conjecture(OffsetPattern((0, 2, 6)), 2, 5, max_p=40)
        assert not fit.exact

    def test_json_round_trip(self):
        d = FAMILIES["Q2"]
        fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=100)
        payload = fit.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["poly"] == {"a2": [1, 4], "a1": [5, 4], "a0": [-2, 1]}

    def test_samples_cross_checked_against_oracle(self):
        d = FAMILIES["Quin2"]
        fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=400)
        for p, f in fit.samples:
            assert oracle_frobenius([p + b for b in d.pattern.offsets],
                                    with_gaps=False).frobenius == f

    def test_octuplet_class_with_minus_four(self):
        # the octuplet-hosting class p = 2730k + 1271 (p = 10 mod 13, which
        # contains the constellation at 182403491) fits exactly with a0 = -4
        pattern = OffsetPattern((0, 2, 6, 8, 12, 18, 20, 26))
        fit = fit_conjecture(pattern, 2730, 1271, max_p=2730 * 8, max_samples=6)
        assert fit.exact
        assert fit.poly.a2 == Fraction(2, 26)
        assert fit.poly.a0 == -4
