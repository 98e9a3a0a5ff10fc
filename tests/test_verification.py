"""Oracle, sweep, and conjecture-fit tests."""

import dataclasses
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
    apery_closed_form,
    apery_grouped,
    fit_conjecture,
    is_prime,
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
from tupletfrob import core, verification
from tupletfrob.tuplets import SIEVE_DIAMETER_LIMIT
from tupletfrob.verification import _quadratic_through

from test_cli import run_json
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

    def test_json_round_trip(self, capsys):
        # verify sweep writes every field of the report, and the verdict
        report = sweep_family("T2", 0, 10)
        code, payload, _ = run_json(capsys, "verify", "sweep", "--family", "T2",
                                    "--k-range", "0..10")
        assert code == 0
        assert payload["result"] == {
            "family": "T2", "k_lo": 0, "k_hi": 10, "all_match": True,
            "entries": [{"k": e.k, "status": e.status, "detail": e.detail}
                        for e in report.entries]}
        assert len(payload["result"]["entries"]) == 11

    def test_wrong_closed_genus_and_pf_are_mismatches(self, monkeypatch, capsys):
        real = verification.stated_at

        def wrong(fid, k):
            facts = real(fid, k)
            pf = (facts["pseudo_frobenius"][0] - 1, *facts["pseudo_frobenius"][1:])
            return {**facts, "genus": facts["genus"] + 1, "pseudo_frobenius": pf}

        monkeypatch.setattr(verification, "stated_at", wrong)
        report = sweep_family("T1", 1, 1)
        engine = make_semigroup((11, 13, 17))
        pf = engine.pseudo_frobenius()
        entry = report.entries[0]
        assert entry.status == "mismatch" and not report.all_match
        assert entry.detail == {
            "genus": {"closed": engine.genus() + 1, "engine": engine.genus()},
            "pseudo_frobenius": {"closed": (pf[0] - 1, *pf[1:]), "engine": pf},
        }
        # the CLI writes the tuples of a mismatch as lists
        _, payload, _ = run_json(capsys, "verify", "sweep", "--family", "T1", "--k-range", "1..1")
        written = payload["result"]["entries"][0]["detail"]
        assert payload["result"]["all_match"] is False
        assert written["pseudo_frobenius"] == {"closed": [pf[0] - 1, *pf[1:]],
                                               "engine": list(pf)}

    def test_wrong_oracle_is_a_mismatch_with_both_sides(self, monkeypatch):
        real = verification.oracle_frobenius

        def wrong(gens, *, with_gaps=True):
            res = real(gens, with_gaps=with_gaps)
            return dataclasses.replace(res, frobenius=res.frobenius + 1)

        monkeypatch.setattr(verification, "oracle_frobenius", wrong)
        report = sweep_family("Quin1", 0, 0)
        assert report.entries[0].detail == {"frobenius": {"oracle": 32, "engine": 31}}
        # a fact both sources get wrong is one entry holding both
        real_stated = verification.stated_at
        monkeypatch.setattr(verification, "stated_at",
                            lambda fid, k: {**real_stated(fid, k), "frobenius": 30})
        assert sweep_family("Quin1", 0, 0).entries[0].detail == \
            {"frobenius": {"closed": 30, "oracle": 32, "engine": 31}}

    def test_range_past_the_engine_bound_fails_before_any_row(self, monkeypatch):
        monkeypatch.setattr(core, "APERY_MODULUS_LIMIT", 11)
        rows = []
        real = verification._check_k
        monkeypatch.setattr(verification, "_check_k",
                            lambda fid, k: rows.append(k) or real(fid, k))
        assert sweep_family("T1", 0, 1).all_match   # p(1) = 11 is at the limit
        rows.clear()
        with pytest.raises(BoundExceededError,
                           match="^Apéry modulus 17 exceeds the engine limit 11$"):
            sweep_family("T1", 0, 2)
        assert rows == []

    def test_every_apery_modulus_check_has_the_engine_message(self, monkeypatch):
        monkeypatch.setattr(core, "APERY_MODULUS_LIMIT", 16)
        t1 = FAMILIES["T1"]
        for call in (lambda: apery_closed_form("T1", 2), lambda: apery_grouped("T1", 2),
                     lambda: sweep_family("T1", 0, 2),
                     lambda: fit_conjecture(t1.pattern, 6, 5, max_p=100),
                     lambda: make_semigroup(t1.generators(2)).frobenius_number()):
            with pytest.raises(BoundExceededError) as info:
                call()
            assert str(info.value) == "Apéry modulus 17 exceeds the engine limit 16"

    def test_tabulated_type_is_checked(self, monkeypatch):
        monkeypatch.setitem(FAMILIES, "T1", dataclasses.replace(FAMILIES["T1"], type_value=3))
        report = sweep_family("T1", 1, 2)
        assert [e.status for e in report.entries] == ["mismatch", "mismatch"]
        assert all(e.detail == {"type": {"closed": 3, "engine": 2}} for e in report.entries)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sweep_family("T1", 5, 3)
        with pytest.raises(ValueError):
            sweep_family("T1", -1, 3)

    @pytest.mark.parametrize("k_lo", [False, 0.0])
    def test_non_integer_bounds_are_refused(self, k_lo):
        with pytest.raises(TypeError, match="must be an integer"):
            sweep_family("T1", k_lo, 2)

    def test_numpy_bounds_are_stored_as_python_ints(self):
        report = sweep_family("T1", np.int64(0), np.int64(2))
        assert type(report.k_lo) is int and type(report.k_hi) is int
        assert report == sweep_family("T1", 0, 2)

    def test_workers_deterministic(self):
        # the keyword is accepted and ignored: sweeps always run serially
        default = sweep_family("T1", 0, 20)
        given = sweep_family("T1", 0, 20, workers=4)
        assert default == given


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

    @pytest.mark.parametrize("offsets, modulus, residue, min_p, samples", [
        ((0, 2, 6), 6, 5, None, 8),           # T1
        ((0, 2), 6, 5, None, 20),             # twins with p = 5 mod 6
        ((0, 2, 6, 8, 12), 30, 11, None, 6),  # Quin1, over several sieve windows
        ((0, 2, 6), 6, 5, 100001, 8),         # a min_p inside the class
    ])
    def test_primes_only_samples_match_a_primality_scan(self, offsets, modulus, residue,
                                                        min_p, samples):
        pattern = OffsetPattern(offsets)
        fit = fit_conjecture(pattern, modulus, residue, max_p=10 ** 7, min_p=min_p,
                             primes_only=True, max_samples=samples)
        p = residue if min_p is None else min_p
        expected = []
        while len(expected) < samples:
            if all(is_prime(p + b) for b in offsets):
                expected.append(p)
            p += modulus
        assert [p for p, _ in fit.samples] == expected

    def test_primes_only_blocked_class_has_the_scan_count(self):
        # every p = 3 mod 6 puts a multiple of 3 in (0,2,4); the scan finds only p = 3
        scan = [p for p in range(3, 10 ** 4, 6) if all(is_prime(p + b) for b in (0, 2, 4))]
        assert scan == [3]
        with pytest.raises(InsufficientSamplesError, match="found 1$"):
            fit_conjecture(OffsetPattern((0, 2, 4)), 6, 3, max_p=10 ** 12, primes_only=True)

    def test_primes_only_refuses_patterns_wider_than_the_sieve(self):
        pattern = OffsetPattern((0, 2, SIEVE_DIAMETER_LIMIT + 2))
        with pytest.raises(BoundExceededError, match="diameter"):
            fit_conjecture(pattern, 6, 5, max_p=1000, primes_only=True)

    def test_insufficient_samples(self):
        d = FAMILIES["T1"]
        with pytest.raises(InsufficientSamplesError):
            fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=20)

    @pytest.mark.parametrize("max_samples", [-1, 0, 3])
    def test_too_few_samples_asked_for_fails_before_sampling(self, monkeypatch, max_samples):
        monkeypatch.setattr(verification, "make_semigroup", None)   # no sampling may run
        d = FAMILIES["T1"]
        with pytest.raises(InsufficientSamplesError, match=f"asked for {max_samples}$"):
            fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=10 ** 4,
                           max_samples=max_samples)

    def test_zero_modulus_is_a_domain_error(self):
        with pytest.raises(DomainError, match="bad p_modulus 0: must be a positive integer"):
            fit_conjecture(OffsetPattern((0, 2, 6)), 0, 5, max_p=1000)

    @pytest.mark.parametrize("modulus", [-6, True])
    def test_negative_or_bool_modulus_is_a_domain_error(self, modulus):
        with pytest.raises(DomainError, match="bad p_modulus .*: must be a positive integer"):
            fit_conjecture(OffsetPattern((0, 2, 6)), modulus, 5, max_p=1000)

    @pytest.mark.parametrize("keywords", [{"max_p": 1000.0}, {"max_p": 1000, "max_samples": 4.5},
                                          {"max_p": 1000, "min_p": True}])
    def test_non_integer_arguments_are_refused(self, keywords):
        with pytest.raises(TypeError, match="must be an integer"):
            fit_conjecture(OffsetPattern((0, 2, 6)), 6, 5, **keywords)

    def test_numpy_integers_are_stored_as_python_ints(self):
        pattern = OffsetPattern((0, 2, 6))
        fit = fit_conjecture(pattern, np.int64(6), np.int64(5), max_p=np.int64(1000),
                             min_p=np.int64(5), max_samples=np.int64(6))
        assert fit == fit_conjecture(pattern, 6, 5, max_p=1000, min_p=5, max_samples=6)
        assert all(type(v) is int for v in (fit.p_modulus, fit.p_residue,
                                            *(v for sample in fit.samples for v in sample)))
        assert all(type(c) is Fraction and type(c.numerator) is int
                   for c in dataclasses.astuple(fit.poly))

    def test_mixed_classes_are_not_quadratic(self):
        # sampling across different residue classes breaks the fit; this is
        # reported through exact=False rather than an exception
        fit = fit_conjecture(OffsetPattern((0, 2, 6)), 2, 5, max_p=40)
        assert not fit.exact

    def test_json_round_trip(self, capsys):
        # verify conjecture writes the poly's Fractions as [numerator, denominator]
        d = FAMILIES["Q2"]
        fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue, max_p=100)
        code, payload, _ = run_json(capsys, "verify", "conjecture", "--pattern", "0,2,6,8",
                                    "--max-p", "100", "--modulus", "4", "--residue", "7")
        assert code == 0
        result = payload["result"]
        assert result["poly"] == {"a2": [1, 4], "a1": [5, 4], "a0": [-2, 1]}
        assert result["samples"] == [list(sample) for sample in fit.samples]
        assert result["pattern"] == [0, 2, 6, 8]
        assert (result["exact"], result["a2_equals_2_over_q"], result["a0_integer"]) == \
            (fit.exact, fit.a2_equals_2_over_q, fit.a0_integer) == (True, True, True)

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
