"""Closed-form family tests: identities, Apéry index sets, polynomials, classification."""

import dataclasses
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from tupletfrob import (
    FAMILIES,
    OffsetPattern,
    PrimeTuplet,
    apery_closed_form,
    apery_grouped,
    classify,
    frobenius_from_p,
    invariants_closed_form,
    make_semigroup,
    stated_at,
    type_from_family,
)
from tupletfrob import core, families
from tupletfrob.errors import (
    BoundExceededError,
    KBelowMinimumError,
    ResidueMismatchError,
    UnsupportedPatternError,
)
from tupletfrob.families import QuadraticPoly, _index_lines
from tupletfrob.verification import sweep_family

from test_cli import SRC, _two_gib_address_space

APERY_FAMILIES = ("T1", "T2", "Q1", "Q2")
MODULUS_OF = {"T1": lambda k: 6 * k + 5, "T2": lambda k: 6 * k + 7,
              "Q1": lambda k: 4 * k + 5, "Q2": lambda k: 4 * k + 7}


def _index_set(fid, k):
    """The index set's coefficient tuples over n_2..n_k, one tuple at a time.

    apery_closed_form builds the same lines as arrays; this enumeration is
    the reference the tests compare it with.
    """
    return [(*prefix, c) for prefix, length in _index_lines(fid, k) for c in range(length)]


def _index_set_size(fid, k):
    """Cardinality of the index set, the sum of the line lengths."""
    return sum(length for _, length in _index_lines(fid, k))


def lemma_identities(fid, k):
    """Evaluate both sides of every generator identity of the family at k."""
    k = core._int_at_least(k, None, TypeError, "k")
    gens = FAMILIES[fid].generators(k)
    return all(sum(map(operator.mul, lhs, gens)) == sum(map(operator.mul, rhs, gens))
               for lhs, rhs in FAMILIES[fid].identities(k))


class TestClassify:
    def test_examples(self):
        assert classify(11, OffsetPattern((0, 2, 6))) == ("T1", 1)
        assert classify(7, OffsetPattern((0, 4, 6))) == ("T2", 0)
        assert classify(101, OffsetPattern((0, 2, 6, 8))) == ("Q1", 24)
        assert classify(11, OffsetPattern((0, 2, 6, 8))) == ("Q2", 1)
        assert classify(11, OffsetPattern((0, 2, 6, 8, 12))) == ("Quin1", 0)
        assert classify(7, OffsetPattern((0, 4, 6, 10, 12))) == ("Quin2", 0)
        assert classify(97, OffsetPattern((0, 4, 6, 10, 12, 16))) == ("Sex97", 0)
        assert classify(11, OffsetPattern((0, 2, 6, 8, 12, 18, 20))) == ("Sep1", 0)
        assert classify(29, OffsetPattern((0, 2, 8, 12, 14, 18, 20))) == ("Sep2", 0)

    def test_residue_mismatch(self):
        with pytest.raises(ResidueMismatchError):
            classify(13, OffsetPattern((0, 2, 6)))  # 13 = 6k+7 does not fit (p,p+2,p+6)
        with pytest.raises(ResidueMismatchError):
            classify(5, OffsetPattern((0, 2, 6, 8, 12)))  # 5 is not 30k+11

    def test_excluded_small_quadruplets(self):
        for p in (1, 3):
            with pytest.raises(ResidueMismatchError):
                classify(p, OffsetPattern((0, 2, 6, 8)))

    def test_unsupported_pattern(self):
        with pytest.raises(UnsupportedPatternError):
            classify(3, OffsetPattern((0, 2, 4)))

    def test_pattern_must_be_an_offset_pattern(self):
        # Q1 and Q2 are registered for (0, 2, 6, 8); a bare tuple or list is a type error
        with pytest.raises(TypeError, match=r"^pattern must be an OffsetPattern, not tuple$"):
            classify(101, (0, 2, 6, 8))
        with pytest.raises(TypeError, match=r"^pattern must be an OffsetPattern, not list$"):
            frobenius_from_p(101, [0, 2, 6, 8])

    def test_classify_tuplet(self):
        t = PrimeTuplet(101, OffsetPattern((0, 2, 6, 8)))
        assert classify(t.p, t.pattern) == ("Q1", 24)

    def test_sieved_tuplets_classify_below_1e5(self):
        from tupletfrob import find_tuplets
        for fid in ("T1", "T2", "Q1", "Quin1", "Quin2", "Sex7", "Sep1", "Sep2"):
            d = FAMILIES[fid]
            for t in find_tuplets(d.pattern, 7 if fid != "Sep2" else 2, 10 ** 5):
                got_fid, k = classify(t.p, t.pattern)
                if t.pattern.size == 4 and t.p > 3:
                    # first members of prime quadruplets avoid the classes divisible by 3
                    assert t.p % 12 in (5, 11), t.p
                assert d.pattern == FAMILIES[got_fid].pattern
                assert FAMILIES[got_fid].p_of_k(k) == t.p


class TestLemmaIdentities:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_hold_over_range(self, fid):
        lo = FAMILIES[fid].k_min
        assert all(lemma_identities(fid, k) for k in range(lo, 10 ** 4 + 1))

    def test_q2_at_zero(self):
        # fifth identity at k=0: 2*9 + 15 = 7 + 2*13 = 33
        assert lemma_identities("Q2", 0)


class TestIndexSets:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_cardinality_formula(self, fid):
        lo = FAMILIES[fid].k_min
        rng = random.Random(11)
        sampled = list(range(lo, 301)) + rng.sample(range(301, 10 ** 4), 25) + [10 ** 4]
        for k in sampled:
            assert len(_index_set(fid, k)) == _index_set_size(fid, k) == MODULUS_OF[fid](k)

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_cardinality_arithmetic_full_range(self, fid):
        lo = FAMILIES[fid].k_min
        for k in range(lo, 10 ** 4 + 1):
            assert _index_set_size(fid, k) == MODULUS_OF[fid](k)


def _paper_index_set(fid, k):
    """The paper's Apéry index set: boxes of coefficient ranges minus excluded points."""
    pieces = {
        "T1": [((range(3), range(2 * k + 2)), {(2, 2 * k + 1)})],
        "T2": [((range(3), range(2 * k + 3)), {(2, 2 * k + 1), (2, 2 * k + 2)})],
        "Q1": [((range(1, 2), range(1), range(k + 1)), set()),
               ((range(2, 3), range(1), range(1)), set()),
               ((range(1), range(1, 3), range(k + 1)), {(0, 2, k)}),
               ((range(1), range(1), range(k + 2)), set())],
        "Q2": [((range(1, 2), range(1), range(k + 2)), set()),
               ((range(2, 3), range(1), range(1)), set()),
               ((range(1), range(1, 3), range(k + 1)), set()),
               ((range(1), range(1), range(k + 2)), set())],
    }[fid]
    return {combo for box, excluded in pieces for combo in product(*box)} - \
        set().union(*(excluded for _, excluded in pieces))


class TestIndexSetsFromIdentities:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_staircase_is_the_papers_index_set(self, fid):
        lo = FAMILIES[fid].k_min
        rng = random.Random(19)
        for k in [*range(lo, 401), *rng.sample(range(401, 10 ** 4), 12), 10 ** 4]:
            derived = _index_set(fid, k)
            assert len(derived) == len(set(derived)), k
            assert set(derived) == _paper_index_set(fid, k), k

    @staticmethod
    def _mutations(identities):
        """Each identity dropped, and each nonzero lhs coordinate made one larger."""
        for i, (lhs, rhs) in enumerate(identities):
            yield identities[:i] + identities[i + 1:]
            for j, c in enumerate(lhs):
                if c:
                    bumped = (*lhs[:j], c + 1, *lhs[j + 1:])
                    yield [*identities[:i], (bumped, rhs), *identities[i + 1:]]

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_every_identity_carves_the_listing(self, fid, monkeypatch):
        d = FAMILIES[fid]
        for k in (d.k_min, d.k_min + 1, 7, 40):
            for mutated in self._mutations(d.identities(k)):
                monkeypatch.setitem(FAMILIES, fid,
                                    dataclasses.replace(d, identities=lambda _k: mutated))
                with pytest.raises((AssertionError, ValueError)):
                    apery_closed_form(fid, k)
            monkeypatch.setitem(FAMILIES, fid, d)
            assert apery_closed_form(fid, k).modulus == MODULUS_OF[fid](k)


class TestAperyClosedForm:
    def test_triplet_example(self):
        assert apery_closed_form("T1", 1).elements == (0, 13, 17, 26, 30, 34, 43, 47, 51, 60, 64)

    def test_second_triplet_example(self):
        assert apery_closed_form("T2", 0).elements == (0, 11, 13, 22, 24, 26, 37)

    def test_quadruplet_example(self):
        assert apery_closed_form("Q2", 1).elements == (0, 13, 17, 19, 26, 32, 34, 36, 38, 51, 53)

    def test_q2_small_case_index_set(self):
        assert apery_closed_form("Q2", 0).elements == (0, 9, 13, 15, 18, 24, 26)

    def test_q1_large_example_edges(self):
        elements = apery_closed_form("Q1", 24).elements
        assert elements[:9] == (0, 103, 107, 109, 206, 212, 214, 216, 218)
        assert elements[-4:] == (2719, 2721, 2723, 2725)

    def test_below_minimum(self):
        with pytest.raises(KBelowMinimumError):
            apery_closed_form("Q1", 0)
        with pytest.raises(KBelowMinimumError):
            apery_closed_form("T1", -1)

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_array_build_matches_tuple_enumeration(self, fid):
        # the index set enumerated one coefficient tuple at a time, summed in
        # Python ints and placed by residue, is the reference for the arrays
        rng = random.Random(41)
        lo = FAMILIES[fid].k_min
        for k in [*range(lo, 40), *rng.sample(range(40, 3000), 10)]:
            gens = FAMILIES[fid].generators(k)
            table = [None] * gens[0]
            for combo in _index_set(fid, k):
                value = sum(c * g for c, g in zip(combo, gens[1:]))
                assert table[value % gens[0]] is None
                table[value % gens[0]] = value
            assert apery_closed_form(fid, k).table == tuple(table), k

    def test_listing_bound(self, monkeypatch):
        monkeypatch.setattr(core, "APERY_MODULUS_LIMIT", 11)
        assert apery_closed_form("T1", 1).modulus == 11
        assert apery_grouped("T1", 1)
        for listing in (apery_closed_form, apery_grouped):
            with pytest.raises(BoundExceededError, match="engine limit"):
                listing("T1", 2)
        # the invariants are polynomials and need no listing
        assert invariants_closed_form("T1", 2).frobenius == 12 * 4 + 28 * 2 + 13

    def test_index_set_hitting_a_class_twice_is_refused(self, monkeypatch):
        # T1 at k = 1 lists a*13 + b*17, in class 2a + 6b mod 11: the staircase
        # under 5n2, 3n3 and 3n2 + n3 has 11 members, but (3, 0) lands on the
        # class of (0, 1), (4, 0) on that of (1, 1), and nothing on class 7
        patched = dataclasses.replace(FAMILIES["T1"], identities=lambda k: [
            (lhs, (0, 0, 0)) for lhs in ((0, 5, 0), (0, 0, 3), (0, 3, 1))])
        monkeypatch.setitem(FAMILIES, "T1", patched)
        with pytest.raises(ValueError, match=r"^table\[7\] = 11 is not congruent to 7 mod 11$"):
            apery_closed_form("T1", 1)

    def test_listing_bound_raises_before_allocating(self):
        # p = 6 * 10**8 + 5: a table of that many entries would not fit under the cap
        done = subprocess.run(
            [sys.executable, "-c",
             "from tupletfrob import apery_closed_form; apery_closed_form('T1', 10**8)"],
            capture_output=True, text=True, timeout=30, preexec_fn=_two_gib_address_space,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 1
        assert done.stderr.strip().splitlines()[-1].startswith(
            "tupletfrob.errors.BoundExceededError: Apéry modulus 600000005 exceeds")

    def test_no_apery_form_for_wide_families(self):
        with pytest.raises(UnsupportedPatternError):
            apery_closed_form("Quin1", 2)

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_matches_engine(self, fid):
        d = FAMILIES[fid]
        for k in range(d.k_min, 60):
            engine = make_semigroup(d.generators(k)).apery_set()
            assert apery_closed_form(fid, k).table == engine.table


class TestInvariantsClosedForm:
    def test_triplet_example(self):
        inv = invariants_closed_form("T1", 1)
        assert (inv.frobenius, inv.genus, inv.pseudo_frobenius) == (53, 30, (49, 53))
        assert inv.type_ == 2 and inv.embedding_dimension == 3

    def test_quadruplet_large_example(self):
        inv = invariants_closed_form("Q1", 24)
        assert inv.frobenius == 2624 and inv.genus == 1351
        assert inv.pseudo_frobenius == (105, 2618, 2620, 2622, 2624)

    def test_q1_small_case(self):
        # the generic polynomials do not apply at k=0; the values come from
        # the Apéry engine, with the largest gap 9 forced by max(PF)
        inv = invariants_closed_form("Q1", 0)
        assert (inv.frobenius, inv.genus, inv.type_) == (9, 7, 3)
        assert inv.pseudo_frobenius == (6, 8, 9)

    def test_q2_example(self):
        inv = invariants_closed_form("Q2", 1)
        assert (inv.frobenius, inv.genus, inv.pseudo_frobenius) == (42, 24, (15, 40, 42))

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_matches_engine(self, fid):
        d = FAMILIES[fid]
        for k in range(d.k_min, 60):
            s = make_semigroup(d.generators(k))
            inv = invariants_closed_form(fid, k)
            assert inv.frobenius == s.frobenius_number()
            assert inv.genus == s.genus()
            assert inv.pseudo_frobenius == s.pseudo_frobenius()


class TestStatedAt:
    @pytest.mark.parametrize("fid", FAMILIES)
    def test_keys_follow_the_thresholds(self, fid):
        d = FAMILIES[fid]
        from_k_min = {"frobenius"} | ({"genus", "pseudo_frobenius"} if fid in APERY_FAMILIES
                                      else set())
        for k in (d.k_min - 1, d.k_min, d.type_k_min - 1, d.type_k_min):
            expected = ((from_k_min if k >= d.k_min else set())
                        | ({"type"} if k >= d.type_k_min else set()))
            facts = stated_at(fid, k)
            assert set(facts) == expected, k
            if k >= 0:
                inv = make_semigroup(d.generators(k)).invariants()
                engine = {"frobenius": inv.frobenius, "genus": inv.genus,
                          "pseudo_frobenius": inv.pseudo_frobenius, "type": inv.type_}
                assert facts.items() <= engine.items(), k

    def test_every_guard_raises_one_message_shape(self):
        sep1 = FAMILIES["Sep1"].pattern
        for call, fid, fact, k, p in (
            (lambda: frobenius_from_p(5, OffsetPattern((0, 2, 6, 8))), "Q1", "frobenius", 0, 5),
            (lambda: frobenius_from_p(11, sep1), "Sep1", "frobenius", 0, 11),
            (lambda: type_from_family("Quin2", 0), "Quin2", "type", 0, 7),
            (lambda: type_from_family("Q1", 0), "Q1", "type", 0, 5),
            (lambda: invariants_closed_form("T1", -1), "T1", "frobenius", -1, -1),
            (lambda: invariants_closed_form("Quin1", -1), "Quin1", "frobenius", -1, -19),
            (lambda: apery_closed_form("Q1", 0), "Q1", "frobenius", 0, 5),
            (lambda: apery_closed_form("T2", -1), "T2", "frobenius", -1, 1),
        ):
            d = FAMILIES[fid]
            with pytest.raises(KBelowMinimumError) as info:
                call()
            assert str(info.value) == (f"{fid} states no {fact} at k={k}, p={p} "
                                       f"(k_min={d.k_min}, type_k_min={d.type_k_min})")

    def test_unknown_family(self):
        with pytest.raises(UnsupportedPatternError, match=r"^unknown family 'T9'$"):
            stated_at("T9", 0)

    def test_invariants_read_the_row_once(self, monkeypatch):
        # engine or closed form is chosen from k_min; only the k guard reads the row
        calls = []
        real = families.stated_at
        monkeypatch.setattr(families, "stated_at",
                            lambda fid, k: calls.append((fid, k)) or real(fid, k))
        assert invariants_closed_form("Q1", 100).genus == 2 * 100 ** 2 + 8 * 100 + 7
        assert calls == [("Q1", 100)]
        calls.clear()
        assert apery_grouped("Q1", 1)
        assert calls == [("Q1", 1)]


class TestNumpyIntegers:
    """Family k and p become Python ints, so numpy int64 arithmetic cannot wrap."""

    def test_stated_at(self):
        facts = stated_at("T1", np.int64(10 ** 9))
        assert facts == stated_at("T1", 10 ** 9)
        assert all(type(v) is int for v in (facts["frobenius"], facts["genus"],
                                            *facts["pseudo_frobenius"]))

    def test_generators(self):
        gens = FAMILIES["T1"].generators(np.int64(2 ** 61))
        assert gens == FAMILIES["T1"].generators(2 ** 61)
        assert all(type(g) is int and g > 0 for g in gens)

    def test_lemma_identities(self):
        assert lemma_identities("T1", np.int64(10 ** 9))

    def test_classify(self):
        family_id, k = classify(np.int64(4 * 10 ** 18 + 5), OffsetPattern((0, 2, 6, 8)))
        assert (family_id, k) == ("Q1", 10 ** 18) and type(k) is int

    def test_sweep_past_the_engine_limit_fails_at_once(self):
        with pytest.raises(BoundExceededError, match="exceeds the engine limit"):
            sweep_family("T1", 0, np.int64(2 ** 62))

    @pytest.mark.parametrize("k", [True, np.True_, 1.0, "1"])
    def test_non_integers_are_refused(self, k):
        for call in (lambda: stated_at("T1", k), lambda: FAMILIES["T1"].p_of_k(k),
                     lambda: classify(k, OffsetPattern((0, 2, 6)))):
            with pytest.raises(TypeError, match="must be an integer"):
                call()


class TestFrobeniusFromP:
    def test_examples(self):
        assert frobenius_from_p(11, OffsetPattern((0, 2, 6))) == 53
        assert frobenius_from_p(7, OffsetPattern((0, 4, 6))) == 30
        assert frobenius_from_p(101, OffsetPattern((0, 2, 6, 8))) == 2624

    def test_quintuplet_value_backed_by_oracle(self):
        from tupletfrob import oracle_frobenius
        assert frobenius_from_p(11, OffsetPattern((0, 2, 6, 8, 12))) == 31
        assert oracle_frobenius([11, 13, 17, 19, 23]).frobenius == 31

    def test_below_minimum(self):
        with pytest.raises(KBelowMinimumError):
            frobenius_from_p(5, OffsetPattern((0, 2, 6, 8)))     # Q1 needs k >= 1
        with pytest.raises(KBelowMinimumError):
            frobenius_from_p(11, OffsetPattern((0, 2, 6, 8, 12, 18, 20)))  # Sep1 needs p >= 41

    def test_residue_mismatch(self):
        with pytest.raises(ResidueMismatchError):
            frobenius_from_p(13, OffsetPattern((0, 2, 6)))

    def test_works_for_composite_first_members(self):
        # the formula is about the generating set, not primality
        p = 35  # 35 = 6*5 + 5 sits in the T1 class
        assert frobenius_from_p(p, OffsetPattern((0, 2, 6))) == \
            make_semigroup([35, 37, 41]).frobenius_number()

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_matches_engine_at_scale(self, fid):
        d = FAMILIES[fid]
        for k in range(d.k_min, d.k_min + 12):
            p = d.p_of_k(k)
            assert frobenius_from_p(p, d.pattern) == \
                make_semigroup(d.generators(k)).frobenius_number()


class TestTypeFromFamily:
    def test_examples(self):
        for k in (0, 3, 17):
            assert type_from_family("T1", k) == 2
        assert type_from_family("Q1", 3) == 5
        assert type_from_family("Quin1", 0) == 6

    def test_thresholds(self):
        for fid, k_bad in (("Q1", 0), ("Quin2", 0), ("Sex7", 0), ("Sep1", 0)):
            with pytest.raises(KBelowMinimumError):
                type_from_family(fid, k_bad)

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_matches_engine(self, fid):
        d = FAMILIES[fid]
        for k in range(d.type_k_min, d.type_k_min + 6):
            assert type_from_family(fid, k) == make_semigroup(d.generators(k)).type()

    def test_below_threshold_values_differ(self):
        # the tabulated value genuinely fails below the threshold
        for fid in ("Quin2", "Sex7", "Sep1"):
            d = FAMILIES[fid]
            assert make_semigroup(d.generators(0)).type() != d.type_value


# F in k as the paper prints it, (c2, c1, c0) for c2*k**2 + c1*k + c0
PAPER_F_IN_K = {"T1": (12, 28, 13), "T2": (12, 38, 30), "Q1": (4, 13, 8), "Q2": (4, 19, 19)}

# F(p) as the paper prints it, (a2, a1, a0) for a2*p**2 + a1*p + a0
PAPER_F_OF_P = {
    "T1": (Fraction(1, 3), Fraction(4, 3), Fraction(-2)),
    "T2": (Fraction(1, 3), Fraction(5, 3), Fraction(2)),
    "Q1": (Fraction(1, 4), Fraction(3, 4), Fraction(-2)),
    "Q2": (Fraction(1, 4), Fraction(5, 4), Fraction(-2)),
    "Quin1": (Fraction(1, 6), Fraction(7, 6), Fraction(-2)),
    "Quin2": (Fraction(1, 6), Fraction(11, 6), Fraction(2)),
    "Sex7": (Fraction(1, 8), Fraction(9, 8), Fraction(2)),
    "Sex37": (Fraction(1, 8), Fraction(11, 8), Fraction(2)),
    "Sex67": (Fraction(1, 8), Fraction(13, 8), Fraction(2)),
    "Sex97": (Fraction(1, 8), Fraction(15, 8), Fraction(2)),
    "Sep1": (Fraction(1, 10), Fraction(9, 10), Fraction(-2)),
    "Sep2": (Fraction(1, 10), Fraction(11, 10), Fraction(-2)),
}


class TestPolynomialCoherence:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_frobenius_in_k_matches_the_paper(self, fid):
        d = FAMILIES[fid]
        assert d.f_in_k == PAPER_F_IN_K[fid]
        # the largest pseudo-Frobenius number is F
        assert max(d.pf_in_k) == PAPER_F_IN_K[fid]
        # the rows state the type twice: as a value and as the count of PF polynomials
        assert d.type_value == len(d.pf_in_k)
        assert d.type_k_min == d.k_min

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_f_of_p_is_the_papers(self, fid):
        # f_from_p is derived from f_in_k; the paper states the quadratic in p
        assert FAMILIES[fid].f_from_p == QuadraticPoly(*PAPER_F_OF_P[fid])

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_leading_coefficient_is_2_over_diameter(self, fid):
        d = FAMILIES[fid]
        assert d.f_from_p.a2 == Fraction(2, d.pattern.diameter)

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_integrality_on_the_class(self, fid):
        d = FAMILIES[fid]
        for k in range(d.k_min, d.k_min + 25):
            assert d.f_from_p(d.p_of_k(k)) == stated_at(fid, k)["frobenius"], k


class TestGroupedListing:
    def test_golden_strings(self):
        assert apery_grouped("T1", 1) == [[0], [13, 17], [26, 30, 34], [43, 47, 51], [60, 64]]
        assert apery_grouped("T2", 0) == [[0], [11, 13], [22, 24, 26], [37]]
        assert apery_grouped("Q2", 0) == [[0], [9, 13, 15], [18], [24, 26]]
        assert apery_grouped("Q2", 1) == [[0], [13, 17, 19], [26], [32, 34, 36, 38], [51, 53]]
        assert apery_grouped("Q1", 0) == [[0], [7, 11, 13], [14]]

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_flat_equals_sorted_closed_form(self, fid):
        d = FAMILIES[fid]
        for k in range(max(d.k_min, 0), 25):
            flat = [v for group in apery_grouped(fid, k) for v in group]
            assert flat == sorted(flat)
            source = apery_closed_form(fid, k) if k >= d.k_min else None
            if source is not None:
                assert tuple(flat) == source.elements
    # Q1 k=0 grouped listing is covered by the golden listing above

    @pytest.mark.parametrize("fid, shape", [
        ("T1", lambda k: [1, 2] + [3] * (2 * k) + [2]),
        ("T2", lambda k: [1, 2] + [3] * (2 * k + 1) + [1]),
        ("Q1", lambda k: [1, 3, 1] + [4] * k),
        ("Q2", lambda k: [1, 3, 1] + [4] * k + [2]),
    ])
    def test_block_sizes(self, fid, shape):
        for k in range(FAMILIES[fid].k_min, 401):
            assert [len(block) for block in apery_grouped(fid, k)] == shape(k), k


class TestRegistry:
    def test_twelve_families(self):
        assert list(FAMILIES) == ["T1", "T2", "Q1", "Q2", "Quin1", "Quin2",
                                  "Sex7", "Sex37", "Sex67", "Sex97", "Sep1", "Sep2"]

    def test_apery_form_is_all_or_nothing(self):
        # identities, genus and PF polynomials come together, or the row has none
        for d in FAMILIES.values():
            stated = {d.identities is not None, d.g_in_k is not None, d.pf_in_k is not None}
            assert len(stated) == 1, d.id
            assert d.has_apery_form == (d.id in APERY_FAMILIES)

    def test_apery_rows_state_the_type_from_k_min(self):
        # invariants_closed_form reads the type behind the k_min guard alone
        for d in FAMILIES.values():
            if d.has_apery_form:
                assert d.type_k_min <= d.k_min, d.id

    def test_generators_reproduce_patterns(self):
        for d in FAMILIES.values():
            for k in (d.k_min, d.k_min + 1, d.k_min + 9):
                gens = d.generators(k)
                p = d.p_of_k(k)
                assert gens == tuple(p + b for b in d.pattern.offsets)
