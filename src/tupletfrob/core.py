"""Numerical semigroups: membership, Apéry sets, and the classical invariants.

A numerical semigroup is an additive submonoid of the non-negative integers
with finite complement, i.e. the set of all non-negative integer
combinations of a generating set whose gcd is 1.  The Apéry set with respect
to a nonzero element n (the least member of each residue class mod n) is the
workhorse: membership, the Frobenius number, the genus, and the
pseudo-Frobenius numbers all read off from it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BoundExceededError,
    EmptyInputError,
    GcdNotOneError,
    ModulusNotInSemigroupError,
    NonPositiveElementError,
    SemigroupIsNaturalsError,
)

__all__ = [
    "AperySet",
    "GeneratorSet",
    "NumericalSemigroup",
    "SemigroupInvariants",
    "make_semigroup",
    "validate_generators",
]

# The engine holds one int64 entry per residue class of the Apéry modulus, so
# it refuses moduli above this (80 MB of table); the oracle's own bound is
# verification.DEFAULT_BOUND_LIMIT, and the constellation sieve's is
# tuplets.SIEVE_HEIGHT_LIMIT.
APERY_MODULUS_LIMIT = 10 ** 7
# Marks classes not reached yet; every table value stays below it.
_UNREACHED = 1 << 62


def _int_at_least(x, least: int | None, error: type[Exception], what: str) -> int:
    """x as a Python int if an integer >= least (None: any) and not a bool; else raises `error`."""
    try:
        value = operator.index(x)  # numpy bools have no __index__
    except TypeError:
        value = None
    # bool is an int subclass, but numpy refuses True as the Apéry table length
    if isinstance(x, bool) or value is None or (least is not None and value < least):
        kind = {None: "an", 0: "a non-negative", 1: "a positive"}[least]
        raise error(f"bad {what} {x!r}: must be {kind} integer")
    return value


def validate_generators(candidates) -> tuple[int, ...]:
    """The candidates sorted and deduplicated, once they pass the generator checks.

    Every entry point that takes generators (GeneratorSet, make_semigroup and
    the reachability oracle) goes through here, so each rejects malformed
    input with the same DomainError: EmptyInputError for no candidates,
    NonPositiveElementError for anything but a positive integer (bools too;
    numpy integers and other operator.index types are accepted and returned
    as Python ints), and GcdNotOneError when the gcd is not 1.
    """
    items = [_int_at_least(x, 1, NonPositiveElementError, "generator") for x in candidates]
    if not items:
        raise EmptyInputError("need at least one generator")
    g = math.gcd(*items)
    if g != 1:
        raise GcdNotOneError(g)
    return tuple(sorted(set(items)))


@dataclass(frozen=True)
class GeneratorSet:
    """Strictly increasing positive integers with overall gcd 1."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = validate_generators(self.elements)
        if elements != self.elements:
            raise ValueError("generators must be strictly increasing (sorted, no duplicates)")
        # numpy integers compare equal to the Python ints the check returns;
        # the engine's int64 bounds need Python ints, which do not wrap
        object.__setattr__(self, "elements", elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class AperySet:
    """Residue-indexed table: table[i] is the least member congruent to i mod modulus.

    The table may be any integer sequence or array.  It is stored as a
    tuple of Python ints; an entry that is not an integer (a bool included)
    is refused.
    """

    modulus: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        n = _int_at_least(self.modulus, None, ValueError, "modulus")
        table = self.table
        if not (isinstance(table, np.ndarray) and table.dtype == np.int64):
            # every entry passes the integer check; object keeps ints past int64 exact
            table = np.array([_int_at_least(x, None, ValueError, "table entry")
                              for x in table], dtype=object)
        if n < 1 or table.shape != (n,):
            raise ValueError("table length must equal the modulus")
        if table[0] != 0:
            raise ValueError("the residue class of 0 must hold 0")
        wrong = np.flatnonzero(table % n != np.arange(n))
        if wrong.size:
            i = wrong[0]
            raise ValueError(f"table[{i}] = {table[i]} is not congruent to {i} mod {n}")
        # one entry per residue class forces all n values distinct; the check's
        # temporaries are freed before tolist builds the stored tuple
        object.__setattr__(self, "modulus", n)
        object.__setattr__(self, "table", tuple(table.tolist()))

    @property
    def elements(self) -> tuple[int, ...]:
        """The table values in increasing order."""
        return tuple(sorted(self.table))


@dataclass(frozen=True)
class SemigroupInvariants:
    """Genus, sorted pseudo-Frobenius numbers and minimal generators; the rest derives."""

    genus: int
    pseudo_frobenius: tuple[int, ...]
    minimal_generators: GeneratorSet

    @property
    def frobenius(self) -> int:
        """The largest pseudo-Frobenius number."""
        return max(self.pseudo_frobenius)

    @property
    def type_(self) -> int:
        return len(self.pseudo_frobenius)

    @property
    def embedding_dimension(self) -> int:
        return len(self.minimal_generators)


def _check_apery_modulus(n: int) -> None:
    """The engine's BoundExceededError for an Apéry modulus above APERY_MODULUS_LIMIT."""
    if n > APERY_MODULUS_LIMIT:
        raise BoundExceededError(
            f"Apéry modulus {n} exceeds the engine limit {APERY_MODULUS_LIMIT}")


def _residue_table(n: int, gens: tuple[int, ...]) -> np.ndarray:
    """Least reachable element of every residue class mod n, as a read-only int64 array.

    Round robin (Böcker and Lipták, Algorithmica 2007): for one generator a,
    each orbit of +a on Z_n is swept once starting from its currently
    minimal entry, which closes the table under adding a.  Any combination
    of generators can be reordered so that equal steps are consecutive,
    hence a single pass over the generators reaches the global fixed point.
    Along an orbit rotated to start at its minimum, the sweep is
    new[j] = j*a + min over i <= j of (old[i] - i*a): one running minimum.

    Raises BoundExceededError, before allocating anything, when n is above
    APERY_MODULUS_LIMIT or when (n - 1) * max(gens) reaches 2**62.  Every
    value of the table is a sum of at most n - 1 generators, so below that
    bound the table, the sentinel of unreached classes and w + a all fit in
    int64.
    """
    _check_apery_modulus(n)
    if (n - 1) * max(gens) >= _UNREACHED:
        raise BoundExceededError(
            f"({n} - 1) * {max(gens)} reaches 2**62: Apéry values could overflow int64")
    w = np.full(n, _UNREACHED, dtype=np.int64)
    w[0] = 0
    for a in gens:
        step = a % n
        if step == 0:
            continue
        orbits = math.gcd(step, n)
        length = n // orbits
        # orbit r is r + offsets[j]; the offsets are multiples of `orbits`,
        # so column r of positions holds the orbit of r in +a order
        offsets = np.arange(length, dtype=np.int64) * step % n
        positions = offsets[:, None] + np.arange(orbits)
        start = positions[np.argmin(w[positions], axis=0), np.arange(orbits)]
        positions = offsets[:, None] + start
        positions %= n
        ja = (np.arange(length, dtype=np.int64) * a)[:, None]
        swept = w[positions] - ja
        np.minimum.accumulate(swept, axis=0, out=swept)
        swept += ja
        w[positions] = swept
    assert w.max() < _UNREACHED, "gcd 1 guarantees every class is reachable"
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class NumericalSemigroup:
    """All non-negative integer combinations of the generators."""

    generators: GeneratorSet

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero element; the natural Apéry modulus."""
        return self.generators.elements[0]

    @cached_property
    def _table(self) -> np.ndarray:
        # Apéry table at the multiplicity; backs membership and the invariants.
        # cached_property writes straight into __dict__, so the frozen
        # dataclass stays immutable from the caller's point of view.
        return _residue_table(self.multiplicity, self.generators.elements)

    def contains(self, x: int) -> bool:
        """Membership test; negative integers are never members."""
        x = _int_at_least(x, None, TypeError, "x")
        if x < 0:
            return False
        return x >= int(self._table[x % self.multiplicity])

    def __contains__(self, x: int) -> bool:
        return self.contains(x)

    def apery_set(self, n: int | None = None) -> AperySet:
        """Apéry set with respect to n, a nonzero element (default: multiplicity)."""
        if n is not None:
            n = _int_at_least(n, None, ModulusNotInSemigroupError, "modulus")
        if n is None or n == self.multiplicity:
            return AperySet(self.multiplicity, self._table)
        if n < 1 or not self.contains(n):
            raise ModulusNotInSemigroupError(f"{n} is not a nonzero element of the semigroup")
        return AperySet(n, _residue_table(n, self.generators.elements))

    def frobenius_number(self) -> int:
        """Largest integer outside the semigroup; -1 when there are no gaps."""
        return int(self._table.max()) - self.multiplicity

    def genus(self) -> int:
        """Number of gaps, in exact integer arithmetic.

        The class of i holds the gaps i, i + m, ..., w[i] - m, that is
        w[i] // m of them because w[i] is congruent to i mod m.
        """
        return int((self._table // self.multiplicity).sum())

    @cached_property
    def _pseudo_frobenius(self) -> tuple[int, ...]:
        m = self.multiplicity
        w = self._table
        maximal = np.ones(m, dtype=bool)
        for a in self.generators.elements:
            maximal &= np.roll(w, -(a % m)) != w + a
        return tuple(np.sort(w[maximal] - m).tolist())

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Sorted gaps x such that x plus any nonzero member is a member.

        These are the maximal Apéry elements (for the divisibility order of
        the semigroup) shifted down by the modulus.  An element w fails to be
        maximal iff w plus a single generator is still in the Apéry set: any
        witness w' = w + s admits a generator prefix of s, and stripping the
        rest of s keeps the defining property.
        """
        if self.multiplicity == 1:
            raise SemigroupIsNaturalsError(
                "every non-negative integer is a member; no pseudo-Frobenius numbers exist")
        return self._pseudo_frobenius

    def type(self) -> int:
        """Number of pseudo-Frobenius numbers."""
        return len(self.pseudo_frobenius())

    def minimal_generators(self) -> GeneratorSet:
        """The unique minimal generating set.

        A stored generator is redundant iff it is a sum of two nonzero
        members, which happens iff subtracting some smaller generator lands
        back in the semigroup.
        """
        gens = self.generators.elements
        keep = tuple(g for g in gens
                     if not any(0 < g - a and self.contains(g - a) for a in gens))
        return GeneratorSet(keep)

    def invariants(self) -> SemigroupInvariants:
        """All classical invariants in one bundle (undefined for <1>)."""
        return SemigroupInvariants(
            genus=self.genus(),
            pseudo_frobenius=self.pseudo_frobenius(),
            minimal_generators=self.minimal_generators(),
        )


def make_semigroup(candidates) -> NumericalSemigroup:
    """Build a numerical semigroup from an iterable of positive integers.

    The input is deduplicated and sorted; the gcd of the survivors must be 1.
    """
    return NumericalSemigroup(GeneratorSet(validate_generators(candidates)))
