"""Closed-form family tests: identities, Apéry index sets, polynomials, classification."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from tupletfrob import (
    FAMILIES,
    OffsetPattern,
    PrimeTuplet,
    apery_closed_form,
    apery_grouped,
    apery_grouped_text,
    classify,
    classify_tuplet,
    family_registry,
    frobenius_from_p,
    invariants_closed_form,
    lemma_identities,
    make_semigroup,
    type_from_family,
)
from tupletfrob import families
from tupletfrob.errors import (
    BoundExceededError,
    KBelowMinimumError,
    ResidueMismatchError,
    UnsupportedPatternError,
)
from tupletfrob.families import _index_set, _index_set_size

from test_cli import SRC, _two_gib_address_space

APERY_FAMILIES = ("T1", "T2", "Q1", "Q2")
MODULUS_OF = {"T1": lambda k: 6 * k + 5, "T2": lambda k: 6 * k + 7,
              "Q1": lambda k: 4 * k + 5, "Q2": lambda k: 4 * k + 7}


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

    def test_classify_tuplet(self):
        t = PrimeTuplet(101, OffsetPattern((0, 2, 6, 8)))
        assert classify_tuplet(t) == ("Q1", 24)

    def test_sieved_tuplets_classify_below_1e5(self):
        from tupletfrob import find_tuplets
        for fid in ("T1", "T2", "Q1", "Quin1", "Quin2", "Sex7", "Sep1", "Sep2"):
            d = FAMILIES[fid]
            for t in find_tuplets(d.pattern, 7 if fid != "Sep2" else 2, 10 ** 5):
                got_fid, k = classify_tuplet(t)
                assert d.pattern == FAMILIES[got_fid].pattern
                assert FAMILIES[got_fid].p_of_k(k) == t.p


class TestLemmaIdentities:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_hold_over_range(self, fid):
        lo = FAMILIES[fid].k_min
        assert all(lemma_identities(fid, k) for k in range(lo, 10 ** 4 + 1))

    def test_q1_needs_positive_k(self):
        with pytest.raises(KBelowMinimumError):
            lemma_identities("Q1", 0)

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
        monkeypatch.setattr(families, "APERY_MODULUS_LIMIT", 11)
        assert apery_closed_form("T1", 1).modulus == 11
        assert apery_grouped("T1", 1)
        for listing in (apery_closed_form, apery_grouped):
            with pytest.raises(BoundExceededError, match="listing limit"):
                listing("T1", 2)
        # the invariants are polynomials and need no listing
        assert invariants_closed_form("T1", 2).frobenius == 12 * 4 + 28 * 2 + 13

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


class TestPolynomialCoherence:
    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_frobenius_in_k_matches_the_paper(self, fid):
        d = FAMILIES[fid]
        in_k = d.f_from_p.compose_linear(d.p_modulus, d.p_residue)
        assert (in_k.a2, in_k.a1, in_k.a0) == tuple(map(Fraction, PAPER_F_IN_K[fid]))
        # the largest pseudo-Frobenius number is F
        assert max(d.pf_in_k) == PAPER_F_IN_K[fid]
        # the rows state the type twice: as a value and as the count of PF polynomials
        assert d.type_value == len(d.pf_in_k)
        assert d.type_k_min == d.k_min

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_leading_coefficient_is_2_over_diameter(self, fid):
        d = FAMILIES[fid]
        assert d.f_from_p.a2 == Fraction(2, d.pattern.diameter)

    @pytest.mark.parametrize("fid", FAMILIES)
    def test_integrality_on_the_class(self, fid):
        d = FAMILIES[fid]
        for k in range(d.k_min, d.k_min + 25):
            assert d.f_from_p(d.p_of_k(k)).denominator == 1


class TestGroupedListing:
    def test_golden_strings(self):
        assert apery_grouped_text("T1", 1) == "0; 13, 17; 26, 30, 34; 43, 47, 51; 60, 64"
        assert apery_grouped_text("T2", 0) == "0; 11, 13; 22, 24, 26; 37"
        assert apery_grouped_text("Q2", 0) == "0; 9, 13, 15; 18; 24, 26"
        assert apery_grouped_text("Q2", 1) == "0; 13, 17, 19; 26; 32, 34, 36, 38; 51, 53"
        assert apery_grouped_text("Q1", 0) == "0; 7, 11, 13; 14"

    @pytest.mark.parametrize("fid", APERY_FAMILIES)
    def test_flat_equals_sorted_closed_form(self, fid):
        d = FAMILIES[fid]
        for k in range(max(d.k_min, 0), 25):
            flat = [v for group in apery_grouped(fid, k) for v in group]
            assert flat == sorted(flat)
            source = apery_closed_form(fid, k) if k >= d.k_min else None
            if source is not None:
                assert tuple(flat) == source.elements
    # Q1 k=0 grouped listing is covered by the golden string above

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

    def test_registry_serializes(self):
        rows = family_registry()
        assert len(rows) == 12
        roundtrip = json.loads(json.dumps(rows))
        assert roundtrip == rows
        by_id = {row["id"]: row for row in rows}
        assert by_id["T1"]["frobenius_in_p"] == {"a2": [1, 3], "a1": [4, 3], "a0": [-2, 1]}
        assert by_id["Sex37"]["pattern"] == [0, 4, 6, 10, 12, 16]
        assert by_id["Sep2"]["type"] == 11

    def test_generators_reproduce_patterns(self):
        for d in FAMILIES.values():
            for k in (d.k_min, d.k_min + 1, d.k_min + 9):
                gens = d.generators(k)
                p = d.p_of_k(k)
                assert gens == tuple(p + b for b in d.pattern.offsets)
