"""The four workloads: census, sweep, scan and cli.

Each workload is a closed loop with one caller.  Its load comes in rounds:
a round is a fixed list of slots, and the seed draws the input of every slot
afresh for each round, so every round has the same make-up while the inputs
vary.  A run repeats whole rounds, which keeps the mix, and the share of
failed operations, the same in every run whatever its length.

A workload provides setup(tr), next_round(), op(inp, tr) (the timed part),
after_op(inp, out, tr) (untimed checks, and in traced runs the extra layer
calls) and check() (checks after the timed phase).  `tr` is a spans.Tracer
in traced runs and a spans.NullTracer otherwise.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

from tupletfrob import (
    FAMILIES,
    OffsetPattern,
    apery_closed_form,
    classify,
    find_tuplets,
    frobenius_from_p,
    invariants_closed_form,
    make_semigroup,
    oracle_frobenius,
    sweep_family,
)
from tupletfrob.verification import SWEEP_ORACLE_LIMIT

import checks

# The tightest admissible patterns of 3 to 7 primes (the prime triplets,
# quadruplets, quintuplets, sextuplets and septuplets of the paper).
TIGHTEST = (
    (0, 2, 6), (0, 4, 6),
    (0, 2, 6, 8),
    (0, 2, 6, 8, 12), (0, 4, 6, 10, 12),
    (0, 4, 6, 10, 12, 16),
    (0, 2, 6, 8, 12, 18, 20), (0, 2, 8, 12, 14, 18, 20),
)


class OpFailed(Exception):
    """An operation that did not produce an answer (a crash, not a wrong answer)."""


class Workload:
    name: str
    tail_quantile: float     # op_tail_ms percentile; min_ops leaves >= 10 ops beyond it
    min_ops: int

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.errors: list[str] = []

    def setup(self, tr) -> None:
        pass

    def next_round(self) -> list:
        raise NotImplementedError

    def op(self, inp, tr):
        raise NotImplementedError

    def after_op(self, inp, out, tr) -> None:
        pass

    def check(self) -> list[str]:
        return []

    def expected_failure(self, inp) -> bool:
        return False


# --- census: the Apéry engine on sieved constellations ------------------------

CENSUS_P_MAX = 10 ** 6
# (k, lowest p, highest p): the seed draws one tightest k-prime constellation
# with lo <= p < hi.  An operation's cost grows like k * p, so the slots form
# four tiers of similar cost: 11 small ones (p ~ 10^3), 8 near 2 * 10^4, 10
# near 8 * 10^4 and one near 10^6, which takes about half of a round.  The
# tier sizes put op_p50_ms in the middle of the second tier and op_tail_ms in
# the middle of the third.
CENSUS_SLOTS = (
    *[(3, 1000, 2000)] * 2, *[(4, 1000, 3500)] * 2, *[(5, 1400, 3500)] * 2,
    *[(3, 3000, 5000)] * 2, *[(4, 3000, 6000)] * 2, (7, 5000, 6000),
    *[(3, 14000, 24000)] * 2, *[(4, 14000, 24000)] * 2,
    *[(5, 14000, 24000)] * 2, *[(6, 14000, 24000)] * 2,
    *[(3, 60000, 100000)] * 4, *[(4, 60000, 100000)] * 3,
    *[(5, 60000, 100000)] * 2, (7, 60000, 100000),
    (5, 950000, 1000000),
)
# brute force covers semigroups with p * (p + diameter) up to this
CENSUS_BRUTE_LIMIT = 4 * 10 ** 6


class Census(Workload):
    name = "census"
    tail_quantile = 0.8
    min_ops = 3 * len(CENSUS_SLOTS)

    def setup(self, tr):
        self.by_size: dict[int, list[tuple[int, tuple]]] = {}
        for offsets in TIGHTEST:
            pattern = OffsetPattern(offsets)
            found = _traced_find(tr, pattern, 2, CENSUS_P_MAX)
            if tr.enabled:
                _traced_fixed_cost(tr, pattern, CENSUS_P_MAX)
            self.by_size.setdefault(len(offsets), []).extend((t.p, offsets) for t in found)
        for k, lo, hi in CENSUS_SLOTS:
            if not any(lo <= p < hi for p, _ in self.by_size[k]):
                raise RuntimeError(f"census slot {(k, lo, hi)} holds no constellation")
        self.records: set = set()

    def next_round(self):
        inputs = [self.rng.choice([c for c in self.by_size[k] if lo <= c[0] < hi])
                  for k, lo, hi in CENSUS_SLOTS]
        self.rng.shuffle(inputs)
        return inputs

    def op(self, inp, tr):
        p, offsets = inp
        semigroup = make_semigroup([p + b for b in offsets])
        with tr.span("core.apery_table"):
            semigroup.contains(0)  # the first query builds the Apéry table, nothing else
        tr.count("core.apery_table_residues", p)
        frob = semigroup.frobenius_number()
        with tr.span("core.genus"):
            genus = semigroup.genus()
        with tr.span("core.pseudo_frobenius"):
            pf = semigroup.pseudo_frobenius()
        with tr.span("core.type"):
            type_ = semigroup.type()
        return semigroup, (frob, genus, pf, type_)

    def after_op(self, inp, out, tr):
        semigroup, answer = out
        p, offsets = inp
        gens = [p + b for b in offsets]
        self.errors += checks.apery_errors(gens, semigroup.apery_set().table, *answer)
        self.records.add((p, offsets, answer))

    def check(self):
        errors = []
        fits = checks.FrobeniusFits()
        for p, offsets, (frob, genus, pf, type_) in sorted(self.records):
            errors += fits.errors(offsets, p, frob)
            if p * (p + offsets[-1]) <= CENSUS_BRUTE_LIMIT:
                errors += checks.invariant_errors([p + b for b in offsets], frob, genus, pf, type_)
        return errors


def _traced_find(tr, pattern, lo, hi):
    with tr.span("tuplets.find_tuplets"):
        found = find_tuplets(pattern, lo, hi)
    tr.count("tuplets.numbers_sieved", hi - lo + 1)
    tr.count("tuplets.tuplets_found", len(found))
    return found


def _traced_fixed_cost(tr, pattern, hi):
    """A width-1 call at the same height: the per-call cost of find_tuplets."""
    with tr.span("tuplets.find_tuplets_fixed"):
        find_tuplets(pattern, hi, hi)


# --- sweep: closed forms against the engine and the oracle ---------------------

# family -> (p modulus, p residue, offsets): the paper's parametrisation p = m*k + r
SWEEP_FAMILIES = {"T1": (6, 5, (0, 2, 6)), "T2": (6, 7, (0, 4, 6)),
                  "Q1": (4, 5, (0, 2, 6, 8)), "Q2": (4, 7, (0, 2, 6, 8))}
SWEEP_BLOCK = 10         # consecutive k per sweep_family call
SWEEP_STRATA = 10        # one block per family starts in each [40j, 40j + 30]
SWEEP_STRATUM = 40
SWEEP_BRUTE_LIMIT = 4 * 10 ** 5


def _family_gens(family: str, k: int) -> list[int]:
    m, r, offsets = SWEEP_FAMILIES[family]
    return [m * k + r + b for b in offsets]


class Sweep(Workload):
    name = "sweep"
    tail_quantile = 0.95     # the middle of the top stratum
    min_ops = 5 * len(SWEEP_FAMILIES) * SWEEP_STRATA

    def setup(self, tr):
        self.records: set = set()

    def next_round(self):
        # in each stratum the families take evenly spaced slices of the
        # possible starts, in a seeded order
        starts = SWEEP_STRATUM - SWEEP_BLOCK + 1
        inputs = []
        for j in range(SWEEP_STRATA):
            families = list(SWEEP_FAMILIES)
            self.rng.shuffle(families)
            for i, family in enumerate(families):
                lo = SWEEP_STRATUM * j + int((i + self.rng.random()) * starts / len(families))
                inputs.append((family, lo, lo + SWEEP_BLOCK - 1))
        self.rng.shuffle(inputs)
        return inputs

    def op(self, inp, tr):
        family, lo, hi = inp
        # traced runs sweep at one worker; untraced ones take the worker count
        # from TUPLETFROB_THREADS, which run.py sets to SWEEP_THREADS
        with tr.span("verification.sweep"):
            return sweep_family(family, lo, hi, workers=1 if tr.enabled else None)

    def after_op(self, inp, out, tr):
        self.records.add((inp, out.all_match, tuple((e.k, e.status) for e in out.entries)))
        if tr.enabled:
            with tr.span("replay"):
                for k in range(inp[1], inp[2] + 1):
                    _replay_check(tr, inp[0], k)

    def check(self):
        errors = []
        for (family, lo, hi), all_match, entries in sorted(self.records):
            if not all_match or entries != tuple((k, "match") for k in range(lo, hi + 1)):
                errors.append(f"sweep {family} {lo}..{hi}: {entries}")
        rows = {(family, k) for (family, lo, hi), _, _ in self.records
                for k in range(lo, hi + 1)}
        for family, k in sorted(rows):
            gens = _family_gens(family, k)
            if gens[0] * gens[-1] <= SWEEP_BRUTE_LIMIT:
                inv = invariants_closed_form(family, k)
                errors += checks.invariant_errors(gens, inv.frobenius, inv.genus,
                                                  inv.pseudo_frobenius, inv.type_)
        return errors


def _replay_check(tr, family, k):
    """One row of sweep_family through the public calls, one span per layer."""
    gens = _family_gens(family, k)
    semigroup = make_semigroup(gens)
    with tr.span("core.apery_table"):
        semigroup.contains(0)
    tr.count("core.apery_table_residues", gens[0])
    semigroup.frobenius_number()
    with tr.span("core.genus"):
        semigroup.genus()
    with tr.span("core.pseudo_frobenius"):
        semigroup.pseudo_frobenius()
    with tr.span("families.closed_form"):
        invariants_closed_form(family, k)
        if k >= FAMILIES[family].k_min:
            apery_closed_form(family, k)
    semigroup.apery_set()
    if gens[0] * gens[-1] <= SWEEP_ORACLE_LIMIT:
        with tr.span("verification.oracle"):
            oracle_frobenius(gens, with_gaps=False)
        tr.count("verification.oracle_cells", gens[0] * gens[-1] + 1)
    else:
        tr.count("verification.oracle_skipped")


# --- scan: the constellation sieve at large heights ----------------------------

SCAN_WIDTH = 200_000
SCAN_LOG_LO = 9          # heights run from 10^9 ...
SCAN_STRATA = 8          # ... in half-decade strata up to 10^13
SCAN_ENUMERATED = 2      # windows per run re-enumerated with sympy


class Scan(Workload):
    """A round pairs every tight pattern with every height stratum once."""

    name = "scan"
    tail_quantile = 0.9375   # the middle of the top stratum
    min_ops = 3 * len(TIGHTEST) * SCAN_STRATA

    def setup(self, tr):
        self.records: list = []
        # windows of the first round that sympy enumerates in full
        self.enumerated = set(self.rng.sample(range(len(TIGHTEST) * SCAN_STRATA),
                                              SCAN_ENUMERATED))
        self.rounds = 0

    def next_round(self):
        # stratified: in each stratum the patterns take evenly spaced slices
        # of the half decade in a seeded order, so every round covers it evenly
        inputs = []
        for j in range(SCAN_STRATA):
            patterns = list(TIGHTEST)
            self.rng.shuffle(patterns)
            for i, offsets in enumerate(patterns):
                share = (i + self.rng.random()) / len(patterns)
                lo = int(10 ** (SCAN_LOG_LO + (j + share) / 2))
                enumerate_all = self.rounds == 0 and len(inputs) in self.enumerated
                inputs.append((offsets, lo, lo + SCAN_WIDTH - 1, enumerate_all))
        self.rounds += 1
        self.rng.shuffle(inputs)
        return inputs

    def op(self, inp, tr):
        offsets, lo, hi, _ = inp
        pattern = OffsetPattern(offsets)
        found = _traced_find(tr, pattern, lo, hi)
        out = []
        for t in found:
            family, k = classify(t.p, pattern)
            with tr.span("families.frobenius_from_p"):
                frob = frobenius_from_p(t.p, pattern)
            out.append((t.p, family, k, frob))
        return out

    def after_op(self, inp, out, tr):
        self.records.append((inp, out))
        if tr.enabled:
            _traced_fixed_cost(tr, OffsetPattern(inp[0]), inp[2])

    def check(self):
        import sympy  # slow to import and large: kept out of set-up and peak RSS

        errors = []
        fits = checks.FrobeniusFits()
        for (offsets, lo, hi, enumerate_all), out in self.records:
            found = [p for p, _, _, _ in out]
            errors += checks.tuplet_errors(offsets, lo, hi, found, sympy.isprime)
            if enumerate_all:
                primes = sympy.primerange(lo, hi + offsets[-1] + 1)
                errors += checks.missed_tuplet_errors(offsets, lo, hi, found, primes)
            for p, family, k, frob in out:
                d = FAMILIES[family]
                if d.pattern.offsets != offsets or d.p_modulus * k + d.p_residue != p:
                    errors.append(f"p={p} {list(offsets)}: classified as {family} k={k}")
                errors += fits.errors(offsets, p, frob)
        return errors


# --- cli: cold processes ---------------------------------------------------------

# s(k) and its patterns (the tightest admissible k-tuples), from the literature
KNOWN_SK = {3: (6, ("0,2,6", "0,4,6")), 4: (8, ("0,2,6,8",)),
            5: (12, ("0,2,6,8,12", "0,4,6,10,12"))}
ADMISSIBILITY_CASES = ((0, 2, 4), (0, 2, 6), (0, 2, 6, 8), (0, 2, 4, 6),
                       (0, 4, 6, 10, 12), (0, 2, 6, 8, 10))
# The one operation that fails on every run: fit_conjecture divides by the
# modulus, so --modulus 0 ends in a ZeroDivisionError traceback instead of a
# usage or domain error.
FAILING_COMMAND = ("verify", "conjecture", "--pattern", "0,2,6", "--max-p", "1000",
                   "--modulus", "0", "--residue", "5", "--format", "json")


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _small_tuplets(offsets, below: int) -> list[int]:
    primes = checks.small_primes(below + offsets[-1] + 1)
    return [p for p in checks.expected_tuplets(offsets, 2, below, primes) if p > 3]


class Cli(Workload):
    name = "cli"
    tail_quantile = 0.75

    def setup(self, tr):
        self.commands = self._commands()
        self.min_ops = 4 * len(self.commands)
        self.stdout: dict[tuple, list[bytes]] = {}

    def _commands(self):
        """The fixed command mix; the seed draws each command's arguments."""
        rng = self.rng
        cmds = []
        p = rng.choice(_small_tuplets((0, 2, 6), 400))
        triplet = [p + b for b in (0, 2, 6)]
        cmds.append((("sg", "frobenius", "--gens", _csv(triplet)), ("invariants", triplet)))
        p = rng.choice(_small_tuplets((0, 2, 6, 8), 1000))
        quad = [p + b for b in (0, 2, 6, 8)]
        cmds.append((("sg", "pf", "--gens", _csv(quad), "--format", "json"),
                     ("invariants", quad)))
        p = rng.choice(_small_tuplets((0, 4, 6), 400))
        triplet2 = [p + b for b in (0, 4, 6)]
        cmds.append((("sg", "apery", "--gens", _csv(triplet2), "--mod", str(triplet2[1])),
                     ("apery", triplet2)))
        for style in ("flat", "paper"):
            family = rng.choice(sorted(SWEEP_FAMILIES))
            k = rng.randrange(1, 31)
            argv = ("formula", "eval", "--family", family, "--k", str(k))
            if style == "paper":
                argv += ("--style", "paper", "--format", "json")
            cmds.append((argv, ("formula", family, k)))
        p = rng.choice(_small_tuplets((0, 2, 6, 8), 2000)[1:])
        cmds.append((("formula", "from-p", "--p", str(p), "--pattern", "0,2,6,8"),
                     ("from_p", p)))
        offsets = rng.choice(((0, 2, 6), (0, 4, 6)))
        a = rng.randrange(100, 100_000)
        cmds.append((("tuplets", "find", "--pattern", _csv(offsets), "--from", str(a),
                      "--to", str(a + 2000)), ("find", offsets, a, a + 2000)))
        case = rng.choice(ADMISSIBILITY_CASES)
        cmds.append((("tuplets", "admissible", "--pattern", _csv(case), "--format", "json"),
                     ("admissible", case)))
        k = rng.choice(sorted(KNOWN_SK))
        cmds.append((("tuplets", "sk", "--k", str(k)), ("sk", k)))
        for fmt in ("text", "json"):
            family = rng.choice(sorted(SWEEP_FAMILIES))
            lo = rng.randrange(0, 21)
            cmds.append((("verify", "sweep", "--family", family, "--k-range",
                          f"{lo}..{lo + 9}", "--format", fmt), ("sweep", family, lo, lo + 9)))
        cmds.append((FAILING_COMMAND, ("usage_or_domain_error",)))
        return cmds

    def next_round(self):
        inputs = list(self.commands)
        self.rng.shuffle(inputs)
        return inputs

    def op(self, inp, tr):
        argv, _ = inp
        done = subprocess.run([sys.executable, "-m", "tupletfrob.cli", *argv],
                              capture_output=True, timeout=120)
        if done.returncode not in (0, 1, 2) or b"Traceback" in done.stderr:
            raise OpFailed(f"{' '.join(argv)}: exit {done.returncode}, "
                           f"{done.stderr.decode(errors='replace').strip().splitlines()[-1:]}")
        return done

    def after_op(self, inp, out, tr):
        self.stdout.setdefault(inp[0], []).append((out.returncode, out.stdout))

    def expected_failure(self, inp):
        return inp[0] == FAILING_COMMAND

    def check(self):
        errors = checks.repeat_errors({" ".join(argv): outs for argv, outs in self.stdout.items()})
        expect = dict(self.commands)
        for argv, outs in self.stdout.items():
            code, stdout = outs[0]
            try:
                problems = _cli_errors(expect[argv], code, stdout.decode())
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            errors += [f"{' '.join(argv)}: {e}" for e in problems]
        return errors


def _envelope(stdout: str, command: str) -> dict:
    env = json.loads(stdout)
    if env.get("command") != command or env.get("exit_code") != 0:
        raise ValueError(f"bad envelope {env}")
    return env["result"]


def _cli_errors(spec, code: int, out: str) -> list[str]:
    """Check one command's stdout against the benchmark's own computation."""
    kind = spec[0]
    if kind == "usage_or_domain_error":
        if code == 1:
            return [] if "error" in json.loads(out) else [f"no error envelope: {out!r}"]
        return [] if code == 2 else [f"exit {code}, wanted a usage or domain error"]
    if code != 0:
        return [f"exit {code}"]
    if kind == "invariants":
        gens = spec[1]
        frob, genus, pf = checks.brute_invariants(gens)
        if out.startswith("{"):
            got = _envelope(out, "sg pf")
            return [] if got == list(pf) else [f"PF {got} != brute force {list(pf)}"]
        return [] if out == f"{frob}\n" else [f"F {out!r} != brute force {frob}"]
    if kind == "apery":
        gens = spec[1]
        want = _csv(checks.brute_apery(gens, gens[1])) + "\n"
        return [] if out == want else [f"Apéry set {out!r} != brute force {want!r}"]
    if kind == "formula":
        family, k = spec[1], spec[2]
        gens = _family_gens(family, k)
        frob, genus, pf = checks.brute_invariants(gens)
        if out.startswith("{"):
            got = _envelope(out, "formula eval")
            grouped = sorted(int(v) for v in got["apery_grouped"].replace(";", ",").split(","))
            want = {"frobenius": frob, "genus": genus, "pseudo_frobenius": list(pf),
                    "type": len(pf), "generators": gens}
            errors = [f"{key} {got[key]} != brute force {value}"
                      for key, value in want.items() if got[key] != value]
            if grouped != checks.brute_apery(gens, gens[0]):
                errors.append(f"grouped Apéry listing {got['apery_grouped']!r} is not the Apéry set")
            return errors
        want = (f"family {family}, k={k}: S=<{_csv(gens)}>\n"
                f"F={frob}, g={genus}, PF={_csv(pf)}, t={len(pf)}\n")
        return [] if out == want else [f"{out!r} != {want!r}"]
    if kind == "from_p":
        p = spec[1]
        frob = checks.brute_invariants([p + b for b in (0, 2, 6, 8)])[0]
        return [] if out == f"{frob}\n" else [f"F {out!r} != brute force {frob}"]
    if kind == "find":
        import sympy

        offsets, lo, hi = spec[1], spec[2], spec[3]
        primes = sympy.primerange(lo, hi + offsets[-1] + 1)
        want = "\n".join(_csv(p + b for b in offsets)
                         for p in checks.expected_tuplets(offsets, lo, hi, primes)) or "(none)"
        return [] if out == want + "\n" else [f"{out!r} != {want!r}"]
    if kind == "admissible":
        got = _envelope(out, "tuplets admissible")["admissible"]
        want = checks.admissible(spec[1])
        return [] if got == want else [f"admissible {got} != {want}"]
    if kind == "sk":
        s, patterns = KNOWN_SK[spec[1]]
        want = f"s({spec[1]}) = {s}\n" + "\n".join(patterns) + "\n"
        return [] if out == want else [f"{out!r} != {want!r}"]
    if kind == "sweep":
        family, lo, hi = spec[1], spec[2], spec[3]
        if out.startswith("{"):
            got = _envelope(out, "verify sweep")
            entries = [(e["k"], e["status"]) for e in got["entries"]]
            ok = got["all_match"] and entries == [(k, "match") for k in range(lo, hi + 1)]
            return [] if ok else [f"sweep result {got}"]
        want = f"{family} k={lo}..{hi}: all {hi - lo + 1} checks match\n"
        return [] if out == want else [f"{out!r} != {want!r}"]
    raise ValueError(f"unknown check {kind}")


WORKLOADS = {w.name: w for w in (Census, Sweep, Scan, Cli)}
