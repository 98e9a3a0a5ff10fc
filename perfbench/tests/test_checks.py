"""The benchmark's checkers accept right answers and reject wrong ones.

Run with: python3 -m pytest perfbench/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checks  # noqa: E402

# <11,13,17>: F = 53, genus 30, PF = {49, 53} (the README's golden example)
GENS = [11, 13, 17]
APERY_11 = (0, 34, 13, 47, 26, 60, 17, 51, 30, 64, 43)


def test_brute_force_matches_known_semigroups():
    assert checks.brute_invariants(GENS) == (53, 30, (49, 53))
    assert checks.brute_invariants([3, 5]) == (7, 4, (7,))
    assert checks.brute_apery(GENS, 11) == sorted(APERY_11)


def test_invariant_checker_rejects_off_by_one_frobenius():
    assert checks.invariant_errors(GENS, 53, 30, (49, 53), 2) == []
    assert checks.invariant_errors(GENS, 54, 30, (49, 53), 2)


@pytest.mark.parametrize("genus, pf, type_", [(29, (49, 53), 2), (30, (53,), 1),
                                               (30, (49, 53), 3)])
def test_invariant_checker_rejects_wrong_genus_pf_or_type(genus, pf, type_):
    assert checks.invariant_errors(GENS, 53, genus, pf, type_)


def test_apery_checker_accepts_a_true_table():
    assert checks.apery_errors(GENS, APERY_11, 53, 30, (49, 53), 2) == []


@pytest.mark.parametrize("table, frob, genus, pf, type_", [
    ((11,) + APERY_11[1:], 53, 30, (49, 53), 2),        # table[0] != 0
    (APERY_11[:3] + (48,) + APERY_11[4:], 53, 30, (49, 53), 2),  # wrong residue
    (APERY_11, 52, 30, (49, 53), 2),                    # off-by-one F
    (APERY_11, 53, 31, (49, 53), 2),                    # breaks Selmer's formula
    (APERY_11, 53, 30, (48, 53), 2),                    # 48 is a member
    (APERY_11, 53, 30, (49, 53), 3),                    # type is not |PF|
])
def test_apery_checker_rejects_broken_answers(table, frob, genus, pf, type_):
    assert checks.apery_errors(GENS, table, frob, genus, pf, type_)


def test_quadratic_fit_recovers_the_triplet_formula():
    # T1, p = 5 mod 6: F(p) = p^2/3 + 4p/3 - 2 (the paper's first family)
    assert checks.fit_frobenius((0, 2, 6), 5) == (Fraction(1, 3), Fraction(4, 3), Fraction(-2))
    fits = checks.FrobeniusFits()
    assert fits.errors((0, 2, 6), 101, 3533) == []
    assert fits.errors((0, 2, 6), 11, 53) == []


def test_quadratic_check_rejects_off_by_one_frobenius():
    assert checks.FrobeniusFits().errors((0, 2, 6), 11, 54)


def test_quadratic_fit_refuses_a_class_that_is_not_quadratic():
    # F(<p, p+1, ..., p+4>) = (floor((p-2)/4) + 1) * p (Roberts) has period 4
    # in p, so the odd p are not one quadratic
    with pytest.raises(ValueError, match="not quadratic"):
        checks.fit_frobenius((0, 1, 2, 3, 4), 1, modulus=2)


def test_tuplet_checker_rejects_composite_and_unordered_results():
    assert checks.tuplet_errors((0, 2, 6), 5, 20, [5, 11, 17], sympy.isprime) == []
    assert checks.tuplet_errors((0, 2, 6), 5, 30, [5, 11, 17, 23], sympy.isprime)  # 25
    assert checks.tuplet_errors((0, 4, 6), 1, 20, [7, 13], sympy.isprime) == []
    assert checks.tuplet_errors((0, 4, 6), 1, 20, [13, 7], sympy.isprime)
    assert checks.tuplet_errors((0, 2, 6), 1, 10, [5, 11], sympy.isprime)  # 11 > hi


def test_tuplet_checker_rejects_a_stray_prime_inside_the_span():
    # 5, 7, 11 starts (0, 2, 6); as (0, 6) the prime 7 sits inside the span
    assert checks.tuplet_errors((0, 6), 5, 5, [5], sympy.isprime)


def test_enumeration_finds_a_missed_instance():
    primes = list(sympy.primerange(1, 130))
    assert checks.expected_tuplets((0, 2, 6), 1, 120, primes) == [5, 11, 17, 41, 101, 107]
    assert checks.missed_tuplet_errors((0, 2, 6), 1, 120, [5, 11, 17, 41, 101, 107],
                                       primes) == []
    assert checks.missed_tuplet_errors((0, 2, 6), 1, 120, [5, 11, 17, 101, 107], primes)
    assert checks.missed_tuplet_errors((0, 2, 6), 1, 120, [5, 7, 11, 17, 41, 101, 107],
                                       primes)


def test_repeat_checker_rejects_differing_stdout():
    assert checks.repeat_errors({"sg frobenius": [b"53\n", b"53\n"]}) == []
    assert checks.repeat_errors({"sg frobenius": [b"53\n", b"54\n"]})


def test_admissibility():
    assert checks.admissible((0, 2, 6)) and checks.admissible((0, 4, 6, 10, 12))
    assert not checks.admissible((0, 2, 4)) and not checks.admissible((0, 2, 6, 8, 10))
