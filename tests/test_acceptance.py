"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The whole suite is single-threaded and finishes in a few minutes;
the heavyweight step is the constellation census below one million.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from tupletfrob import (
    FAMILIES,
    OffsetPattern,
    apery_closed_form,
    classify,
    find_tuplets,
    fit_conjecture,
    frobenius_from_p,
    invariants_closed_form,
    make_semigroup,
    oracle_frobenius,
    smallest_diameter,
    sweep_family,
    type_from_family,
)
from tupletfrob.errors import (
    InsufficientSamplesError,
    KBelowMinimumError,
    ResidueMismatchError,
)

from test_families import _index_set, _index_set_size


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} FAIL — {label}")
        raise
    print(f"criterion {number} PASS — {label} ({time.perf_counter() - start:.2f}s)")


GOLDEN = [
    # family, k, generators, apery elements (or None), F, g, PF
    ("T1", 1, (11, 13, 17),
     (0, 13, 17, 26, 30, 34, 43, 47, 51, 60, 64), 53, 30, (49, 53)),
    ("T2", 0, (7, 11, 13),
     (0, 11, 13, 22, 24, 26, 37), 30, 16, (15, 30)),
    ("Q1", 24, (101, 103, 107, 109), None, 2624, 1351,
     (105, 2618, 2620, 2622, 2624)),
    ("Q2", 1, (11, 13, 17, 19),
     (0, 13, 17, 19, 26, 32, 34, 36, 38, 51, 53), 42, 24, (15, 40, 42)),
]


def test_criterion_1_golden_examples():
    with criterion(1, "golden examples via closed-form and generic paths"):
        for fid, k, gens, apery, f, g, pf in GOLDEN:
            semigroup = make_semigroup(gens)
            engine_apery = semigroup.apery_set()
            closed_apery = apery_closed_form(fid, k)
            assert closed_apery.table == engine_apery.table
            if apery is not None:
                assert engine_apery.elements == apery
            inv = invariants_closed_form(fid, k)
            for got in (inv, semigroup.invariants()):
                assert got.frobenius == f
                assert got.genus == g
                assert got.pseudo_frobenius == pf
            assert frobenius_from_p(gens[0], FAMILIES[fid].pattern) == f


def test_criterion_2_special_cases():
    with criterion(2, "small-case semigroups and generator collapses"):
        # <5,7,11,13>: the generic polynomials do not apply; note the largest
        # gap is 9 (the printed value 8 contradicts max(PF) = 9 and the
        # Apéry maximum 14 - 5; the independent oracle agrees on 9)
        s = make_semigroup([5, 7, 11, 13])
        inv = invariants_closed_form("Q1", 0)
        assert s.apery_set().elements == (0, 7, 11, 13, 14)
        for got in (inv, s.invariants()):
            assert got.frobenius == 9
            assert got.genus == 7
            assert got.pseudo_frobenius == (6, 8, 9)
            assert got.type_ == 3
        assert oracle_frobenius([5, 7, 11, 13]).frobenius == 9

        # <7,9,13,15> Apéry set
        assert make_semigroup([7, 9, 13, 15]).apery_set().elements == \
            (0, 9, 13, 15, 18, 24, 26)

        # generator collapses: <1,3,7,9> = <1>, and <3,5,9,11> = <3,5,11>
        # (both collapse further to <3,5> since 9 = 3*3 and 11 = 2*3 + 5,
        # so the minimal system is {3,5})
        assert make_semigroup([1, 3, 7, 9]).minimal_generators().elements == (1,)
        left = make_semigroup([3, 5, 9, 11])
        right = make_semigroup([3, 5, 11])
        assert left.minimal_generators() == right.minimal_generators()
        assert left.minimal_generators().elements == (3, 5)
        limit = max(left.frobenius_number(), right.frobenius_number()) + 12
        assert all(left.contains(x) == right.contains(x) for x in range(limit))


def test_criterion_3_family_sweeps():
    with criterion(3, "closed forms equal engine and oracle across the k sweeps"):
        start = time.perf_counter()
        for fid, k_lo in (("T1", 0), ("T2", 0), ("Q1", 1), ("Q2", 0)):
            report = sweep_family(fid, k_lo, 200)
            assert report.all_match, (fid, report.mismatches[:3])
        assert time.perf_counter() - start < 60


@pytest.fixture(scope="module")
def census():
    """Every quintuplet, sextuplet, and septuplet with p below one million."""
    patterns = [
        OffsetPattern((0, 2, 6, 8, 12)),
        OffsetPattern((0, 4, 6, 10, 12)),
        OffsetPattern((0, 4, 6, 10, 12, 16)),
        OffsetPattern((0, 2, 6, 8, 12, 18, 20)),
        OffsetPattern((0, 2, 8, 12, 14, 18, 20)),
    ]
    return [t for pattern in patterns for t in find_tuplets(pattern, 2, 10 ** 6)]


def test_criterion_4_spot_checks_below_one_million(census):
    with criterion(4, "formula F and type match independent computation for "
                      "every wide tuplet below 1e6"):
        assert len(census) > 70
        skipped_residue = []
        checked_f = checked_t = oracle_checked = 0
        for tuplet in census:
            gens = tuplet.primes
            try:
                fid, k = classify(tuplet.p, tuplet.pattern)
            except ResidueMismatchError:
                skipped_residue.append(tuplet.p)
                continue
            d = FAMILIES[fid]
            semigroup = make_semigroup(gens)
            engine_f = semigroup.frobenius_number()
            engine_type = semigroup.type()
            if k >= d.k_min:
                assert frobenius_from_p(tuplet.p, tuplet.pattern) == engine_f, tuplet
                checked_f += 1
            else:
                with pytest.raises(KBelowMinimumError):
                    frobenius_from_p(tuplet.p, tuplet.pattern)
            if k >= d.type_k_min:
                assert type_from_family(fid, k) == engine_type, tuplet
                checked_t += 1
            else:
                assert engine_type != d.type_value, tuplet  # threshold is genuine
            if gens[0] * gens[-1] <= 10 ** 8:
                oracle = oracle_frobenius(gens, with_gaps=False)
                assert oracle.frobenius == engine_f, tuplet
                oracle_checked += 1
        # the only residue reject is the quintuplet at 5 (its first member
        # is the prime 5 itself, outside the 30k+11 class)
        assert skipped_residue == [5]
        assert checked_f >= 70 and checked_t >= 70 and oracle_checked >= 8


def test_criterion_5_smallest_diameters():
    with criterion(5, "exhaustive s(k) search reproduces the known patterns"):
        start = time.perf_counter()
        expected = {
            3: (6, [(0, 2, 6), (0, 4, 6)]),
            4: (8, [(0, 2, 6, 8)]),
            5: (12, [(0, 2, 6, 8, 12), (0, 4, 6, 10, 12)]),
            6: (16, [(0, 4, 6, 10, 12, 16)]),
            7: (20, [(0, 2, 6, 8, 12, 18, 20), (0, 2, 8, 12, 14, 18, 20)]),
        }
        for k, (s, patterns) in expected.items():
            got_s, got_patterns = smallest_diameter(k)
            assert got_s == s
            assert [p.offsets for p in got_patterns] == patterns
        assert time.perf_counter() - start < 10


EXPECTED_A0 = {
    "T1": -2, "T2": 2, "Q1": -2, "Q2": -2,
    "Quin1": -2, "Quin2": 2,
    "Sex7": 2, "Sex37": 2, "Sex67": 2, "Sex97": 2,
    "Sep1": -2, "Sep2": -2,
}


def test_criterion_6_conjecture_fits():
    with criterion(6, "exact quadratic recovery of every F(p) formula"):
        for fid, d in FAMILIES.items():
            fit = fit_conjecture(d.pattern, d.p_modulus, d.p_residue,
                                 max_p=d.p_of_k(d.k_min + 7),
                                 min_p=d.p_of_k(d.k_min))
            assert fit.exact, fid
            assert fit.poly == d.f_from_p, fid
            assert fit.poly.a2 == Fraction(2, d.pattern.diameter), fid
            assert fit.poly.a0 == EXPECTED_A0[fid], fid

        # octuplet stretch check (reported, non-blocking): the smallest
        # pattern of size 8 has diameter 26; within the class
        # p = 2730k + 1271 (which hosts the constellation at 182403491) the
        # fit is exactly quadratic with a2 = 2/26 and constant term -4.
        pattern = OffsetPattern((0, 2, 6, 8, 12, 18, 20, 26))
        fit = fit_conjecture(pattern, 2730, 1271, max_p=2730 * 8, max_samples=6)
        print(f"  octuplet stretch: exact={fit.exact} a2={fit.poly.a2} "
              f"a1={fit.poly.a1} a0={fit.poly.a0} "
              f"(a0=-4 observed: {fit.poly.a0 == -4})")
        # sampling actual octuplets below 1e5 cannot feed a fit: only the
        # instance at 11 exists down there
        with pytest.raises(InsufficientSamplesError):
            fit_conjecture(pattern, 210, 11, max_p=10 ** 5, primes_only=True)


def test_criterion_7_property_suites():
    with criterion(7, "Apéry properties, Sylvester pairs, index-set cardinalities"):
        rng = random.Random(987654321)

        # 500 random semigroups: Apéry invariants + engine/oracle agreement
        produced = 0
        while produced < 500:
            m = rng.randint(2, 200)
            gens = sorted({m, *[rng.randint(m, m + 400) for _ in range(rng.randint(1, 5))]})
            if math.gcd(*gens) != 1:
                continue
            produced += 1
            semigroup = make_semigroup(gens)
            ap = semigroup.apery_set()
            n = ap.modulus
            assert len(ap.table) == n and len(set(ap.table)) == n
            assert ap.table[0] == 0
            assert all(w % n == i for i, w in enumerate(ap.table))
            assert all(not semigroup.contains(w - n) for w in ap.table if w)
            oracle = oracle_frobenius(gens, with_gaps=False)
            assert oracle.frobenius == semigroup.frobenius_number()
            assert oracle.genus == semigroup.genus()

        # Sylvester's two-generator formula on 200 random coprime pairs
        done = 0
        while done < 200:
            a, b = rng.randint(2, 400), rng.randint(2, 400)
            if a == b or math.gcd(a, b) != 1:
                continue
            done += 1
            assert make_semigroup([a, b]).frobenius_number() == a * b - a - b

        # index-set cardinalities across the whole k range, enumerated on a
        # sampled subset (summing the line lengths covers every k)
        modulus_of = {"T1": lambda k: 6 * k + 5, "T2": lambda k: 6 * k + 7,
                      "Q1": lambda k: 4 * k + 5, "Q2": lambda k: 4 * k + 7}
        for fid, modulus in modulus_of.items():
            lo = FAMILIES[fid].k_min
            for k in range(lo, 10 ** 4 + 1):
                assert _index_set_size(fid, k) == modulus(k)
            for k in [*range(lo, 200), *rng.sample(range(200, 10 ** 4), 30), 10 ** 4]:
                assert len(_index_set(fid, k)) == modulus(k)
