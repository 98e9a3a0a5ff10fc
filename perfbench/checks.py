"""Independent correctness checks for the benchmark.

Nothing here calls into tupletfrob.  Invariants come from a coin-problem
dynamic program over a boolean table, filled in chunks of one generator
width; the program's oracle closes its table by shift-or doubling instead,
and its engine never builds a table over the integers at all.  Every checker
returns a list of error strings; an empty list means the answer passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# The residue class of p that the quadratic F(p) is fitted on.  Every family
# modulus of the paper (6, 4, 30, 120) divides it, so F is one quadratic on
# each class mod FIT_MODULUS.
FIT_MODULUS = 120


def reachable(gens, size: int) -> np.ndarray:
    """reach[x] is True iff x in [0, size) is a sum of the generators.

    Unbounded coin dynamic program: for each generator g, reach[x] |=
    reach[x - g] in increasing x, done g entries at a time, since a chunk of
    length g depends only on the chunk before it.
    """
    reach = np.zeros(size, dtype=bool)
    reach[0] = True
    for g in gens:
        for start in range(g, size, g):
            stop = min(start + g, size)
            np.logical_or(reach[start:stop], reach[start - g:stop - g], out=reach[start:stop])
    return reach


def _table_size(gens) -> int:
    # F(n1, nk) = n1*nk - n1 - nk bounds F when gcd(n1, nk) = 1, and PF needs
    # room for one more generator above F.
    return gens[0] * gens[-1] + gens[-1] + 1


def brute_invariants(gens) -> tuple[int, int, tuple[int, ...]]:
    """Frobenius number, genus and pseudo-Frobenius numbers by brute force."""
    gens = sorted(gens)
    if math.gcd(*gens) != 1 or math.gcd(gens[0], gens[-1]) != 1:
        raise ValueError(f"brute force needs coprime first and last generators, got {gens}")
    size = _table_size(gens)
    reach = reachable(gens, size)
    gaps = np.flatnonzero(~reach)
    if gaps.size == 0:
        return -1, 0, ()
    frob = int(gaps[-1])
    pf_mask = ~reach[:frob + 1]
    for g in gens:
        pf_mask &= reach[g:g + frob + 1]
    return frob, int(gaps.size), tuple(int(x) for x in np.flatnonzero(pf_mask))


def brute_apery(gens, n: int) -> list[int]:
    """Sorted Apéry set of the semigroup with respect to its element n."""
    gens = sorted(gens)
    members = np.flatnonzero(reachable(gens, _table_size(gens) + n))
    residues, first = np.unique(members % n, return_index=True)
    if residues.size != n:
        raise ValueError(f"table too small for the Apéry set of {gens} at {n}")
    return sorted(int(x) for x in members[first])


def invariant_errors(gens, frob, genus, pf, type_) -> list[str]:
    """Compare reported invariants with brute force."""
    want_f, want_g, want_pf = brute_invariants(gens)
    got = {"frobenius": frob, "genus": genus, "pseudo_frobenius": tuple(pf), "type": type_}
    want = {"frobenius": want_f, "genus": want_g, "pseudo_frobenius": want_pf,
            "type": len(want_pf)}
    return [f"{list(gens)}: {key} {got[key]} != brute force {want[key]}"
            for key in got if got[key] != want[key]]


def apery_errors(gens, table, frob, genus, pf, type_) -> list[str]:
    """Properties that an Apéry table at the multiplicity and its invariants must have.

    Checks table[i] = i mod p and table[0] = 0, F = max - p, Selmer's formula
    g = sum(table)/p - (p-1)/2, and that every reported pseudo-Frobenius
    number is a gap whose sum with each generator is a member, the largest
    being F.
    """
    p = gens[0]
    errors = []
    if len(table) != p:
        return [f"{p}: Apéry table has {len(table)} entries"]
    if table[0] != 0:
        errors.append(f"{p}: table[0] = {table[0]}")
    bad = next((i for i, w in enumerate(table) if w % p != i), None)
    if bad is not None:
        errors.append(f"{p}: table[{bad}] = {table[bad]} is not {bad} mod {p}")
    if frob != max(table) - p:
        errors.append(f"{p}: F = {frob} but max(table) - p = {max(table) - p}")
    twice = 2 * sum(table) - p * (p - 1)
    if twice != 2 * p * genus:
        errors.append(f"{p}: genus {genus} breaks Selmer's formula ({Fraction(twice, 2 * p)})")

    def member(x):
        return x >= 0 and x >= table[x % p]

    for f in pf:
        if member(f) or not all(member(f + g) for g in gens):
            errors.append(f"{p}: {f} is not pseudo-Frobenius")
    if not pf or max(pf) != frob:
        errors.append(f"{p}: max(PF) = {max(pf) if pf else None} but F = {frob}")
    if type_ != len(pf):
        errors.append(f"{p}: type {type_} but {len(pf)} pseudo-Frobenius numbers")
    return errors


def quadratic_through(points) -> tuple[Fraction, Fraction, Fraction]:
    """Exact coefficients (a2, a1, a0) of the quadratic through three points."""
    (x0, y0), (x1, y1), (x2, y2) = points
    # divided differences
    d01 = Fraction(y1 - y0, x1 - x0)
    d12 = Fraction(y2 - y1, x2 - x1)
    a2 = (d12 - d01) / (x2 - x0)
    a1 = d01 - a2 * (x0 + x1)
    a0 = y0 - a1 * x0 - a2 * x0 * x0
    return a2, a1, a0


def fit_frobenius(offsets, residue: int, modulus: int = FIT_MODULUS):
    """Quadratic F(p) on the class p = residue mod modulus, from brute force.

    The paper shows F(p) is quadratic on each residue class; the fit goes
    through the first three p >= modulus in the class and must also hit the
    fourth, otherwise the class is not quadratic there and a ValueError is
    raised.
    """
    p0 = modulus + residue % modulus
    ps = [p0 + i * modulus for i in range(4)]
    fs = [brute_invariants([p + b for b in offsets])[0] for p in ps]
    coeffs = quadratic_through(list(zip(ps, fs))[:3])
    if eval_quadratic(coeffs, ps[3]) != fs[3]:
        raise ValueError(f"F is not quadratic on p = {residue} mod {modulus} for {offsets}")
    return coeffs


def eval_quadratic(coeffs, p: int) -> Fraction:
    a2, a1, a0 = coeffs
    return a2 * p * p + a1 * p + a0


class FrobeniusFits:
    """Expected F(p) for a pattern, fitted once per residue class and cached."""

    def __init__(self):
        self._fits = {}

    def expected(self, offsets, p: int) -> Fraction:
        key = (tuple(offsets), p % FIT_MODULUS)
        if key not in self._fits:
            self._fits[key] = fit_frobenius(offsets, p % FIT_MODULUS)
        return eval_quadratic(self._fits[key], p)

    def errors(self, offsets, p: int, frob: int) -> list[str]:
        want = self.expected(offsets, p)
        if want != frob:
            return [f"p={p} pattern {list(offsets)}: F = {frob}, fitted quadratic gives {want}"]
        return []


def tuplet_errors(offsets, lo: int, hi: int, found, isprime) -> list[str]:
    """Each found p lies in [lo, hi], is listed once in order, and starts a
    run of consecutive primes p + b for b in offsets."""
    errors = []
    if list(found) != sorted(set(found)):
        errors.append(f"{list(offsets)} in [{lo}, {hi}]: results not strictly increasing")
    diam = offsets[-1]
    members = set(offsets)
    for p in found:
        if not lo <= p <= hi:
            errors.append(f"{p} outside [{lo}, {hi}]")
        composite = [p + b for b in offsets if not isprime(p + b)]
        if composite:
            errors.append(f"{p} {list(offsets)}: {composite} not prime")
        strays = [p + x for x in range(1, diam) if x not in members and isprime(p + x)]
        if strays:
            errors.append(f"{p} {list(offsets)}: primes {strays} break consecutiveness")
    return errors


def expected_tuplets(offsets, lo: int, hi: int, primes) -> list[int]:
    """Every p in [lo, hi] starting consecutive primes p + offsets, given all
    primes in [lo, hi + diameter] in increasing order."""
    primes = list(primes)
    k = len(offsets)
    return [run[0] for run in (primes[i:i + k] for i in range(len(primes) - k + 1))
            if run[0] <= hi and tuple(q - run[0] for q in run) == tuple(offsets)]


def missed_tuplet_errors(offsets, lo: int, hi: int, found, primes) -> list[str]:
    """Compare found instances with an enumeration of the primes in the window."""
    want = expected_tuplets(offsets, lo, hi, primes)
    missed = sorted(set(want) - set(found))
    extra = sorted(set(found) - set(want))
    errors = []
    if missed:
        errors.append(f"{list(offsets)} in [{lo}, {hi}]: missed {missed[:5]}")
    if extra:
        errors.append(f"{list(offsets)} in [{lo}, {hi}]: not in the enumeration {extra[:5]}")
    return errors


def repeat_errors(outputs_by_command) -> list[str]:
    """Every command printed byte-identical stdout on each repetition."""
    return [f"{cmd}: stdout differs between repetitions"
            for cmd, outs in outputs_by_command.items() if len(set(outs)) > 1]


def small_primes(n: int) -> list[int]:
    """Primes below n by trial division (only used for small n)."""
    return [q for q in range(2, n) if all(q % d for d in range(2, math.isqrt(q) + 1))]


def admissible(offsets) -> bool:
    """No prime q <= k has all its residue classes hit by the offsets."""
    return all(len({b % q for b in offsets}) < q for q in small_primes(len(offsets) + 1))
