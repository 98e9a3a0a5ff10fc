"""Hypothesis properties of the engine, beside the seeded loops of criterion 7.

Every property runs derandomized and with no example database, so a run is
reproducible.  Hypothesis still caches the constants it reads from the
source files under .hypothesis/constants/, which is git-ignored.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tupletfrob import make_semigroup, oracle_frobenius

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def coprime_generators(draw):
    m = draw(st.integers(2, 200))
    rest = draw(st.lists(st.integers(m, m + 400), min_size=1, max_size=5))
    gens = sorted({m, *rest})
    assume(math.gcd(*gens) == 1)
    return gens


@PROPERTY
@given(coprime_generators())
def test_engine_agrees_with_oracle(gens):
    semigroup = make_semigroup(gens)
    oracle = oracle_frobenius(gens, with_gaps=False)
    assert oracle.frobenius == semigroup.frobenius_number()
    assert oracle.genus == semigroup.genus()


@PROPERTY
@given(st.integers(2, 400), st.integers(2, 400))
def test_sylvester_formula(a, b):
    assume(a != b and math.gcd(a, b) == 1)
    assert make_semigroup([a, b]).frobenius_number() == a * b - a - b


@PROPERTY
@given(coprime_generators(), st.integers(0, 3))
def test_apery_table_axioms(gens, pick):
    semigroup = make_semigroup(gens)
    # the multiplicity, or another nonzero element as the modulus
    n = semigroup.multiplicity if pick == 0 else gens[pick % len(gens)] + gens[0] * pick
    table = semigroup.apery_set(n).table
    assert len(table) == n and table[0] == 0
    assert all(w % n == i for i, w in enumerate(table))
    assert all(semigroup.contains(w) for w in table)
    assert all(not semigroup.contains(w - n) for w in table if w)
