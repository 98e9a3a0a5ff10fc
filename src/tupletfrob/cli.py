"""Command-line front end.

Four command groups (sg, tuplets, formula, verify) expose the library with
text or JSON output; each leaf parser binds its own handler.  Exit codes: 0
on success, 1 on a domain error (bad gcd, residue mismatch, ...), 2 on a
usage error, reported by argparse with the usage line of the subcommand at
fault.  JSON output is a stable envelope: {"command", "params", "result",
"exit_code"} on success and {"command", "params", "error": {"type",
"message"}, "exit_code"} on domain errors; params holds every option that
decides the outcome, so a failing call can be rerun from it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from .core import NumericalSemigroup, make_semigroup
from .errors import DomainError
from .families import (
    FAMILIES,
    apery_grouped,
    frobenius_from_p,
    invariants_closed_form,
    stated_at,
)
from .tuplets import OffsetPattern, find_tuplets, is_admissible, smallest_diameter
from .verification import fit_conjecture, sweep_family

_INT_LIST = re.compile(r"^\d+(,\d+)*$")
_K_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_VALUE_CAP = 1 << 63
_FACT_LABELS = {"frobenius": "F", "genus": "g", "pseudo_frobenius": "PF", "type": "t"}


# --- argument types: each raises ArgumentTypeError for its subcommand's parser ---

def _int_list(text: str) -> list[int]:
    if not _INT_LIST.match(text):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated unsigned decimal integers, got {text!r}")
    values = [int(tok) for tok in text.split(",")]
    if any(v >= _VALUE_CAP for v in values):
        raise argparse.ArgumentTypeError("entries must be below 2**63")
    return values


def _pattern(text: str) -> OffsetPattern:
    try:
        return OffsetPattern(tuple(_int_list(text)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad pattern: {exc}") from None


def _k_range(text: str) -> tuple[int, int]:
    m = _K_RANGE.match(text)
    if not m or int(m.group(1)) > int(m.group(2)):
        raise argparse.ArgumentTypeError(
            f"must look like LO..HI with LO <= HI, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# --- handlers: one per leaf; each fills params and returns (JSON result, text) ---
# The library returns Python ints, tuples, Fractions and dataclasses; a payload
# is a dataclass's fields (asdict) plus its derived verdicts.  json.dumps writes
# tuples as lists and Fractions through _json_default.

def _run_sg_invariant(args, params: dict) -> tuple[object, str]:
    params["gens"] = args.gens
    result = args.invariant(make_semigroup(args.gens))
    return result, _csv(result) if isinstance(result, tuple) else str(result)


def _run_sg_apery(args, params: dict) -> tuple[object, str]:
    params["gens"] = args.gens
    if args.mod is not None:
        params["mod"] = args.mod
    ap = make_semigroup(args.gens).apery_set(args.mod)
    return {**asdict(ap), "elements": ap.elements}, _csv(ap.elements)


def _run_find(args, params: dict) -> tuple[object, str]:
    if args.lo > args.hi:
        args.parser.error(f"--from {args.lo} must not exceed --to {args.hi}")
    params.update({"pattern": args.pattern.offsets, "from": args.lo, "to": args.hi,
                   "consecutive": args.consecutive,
                   "allow_inadmissible": args.allow_inadmissible})
    found = find_tuplets(args.pattern, args.lo, args.hi, args.consecutive,
                         allow_inadmissible=args.allow_inadmissible)
    result = [{"p": t.p, "primes": t.primes} for t in found]
    return result, "\n".join(_csv(t.primes) for t in found) or "(none)"


def _run_admissible(args, params: dict) -> tuple[object, str]:
    params["pattern"] = args.pattern.offsets
    report = is_admissible(args.pattern)
    if report.admissible:
        text = "admissible"
    else:
        text = (f"not admissible: residues ({_csv(report.residues_at_witness)}) "
                f"cover every class mod {report.witness_prime}")
    return {**asdict(report), "admissible": report.admissible}, text


def _run_sk(args, params: dict) -> tuple[object, str]:
    params["k"] = args.k
    s, patterns = smallest_diameter(args.k)
    result = {"k": args.k, "s": s, "patterns": [p.offsets for p in patterns]}
    return result, f"s({args.k}) = {s}\n" + "\n".join(str(p) for p in patterns)


def _run_eval(args, params: dict) -> tuple[object, str]:
    family_id, k = args.family, args.k
    params.update({"family": family_id, "k": k, "style": args.style})
    result = stated_at(family_id, k)
    if "frobenius" not in result:
        # the engine for Q1 at k = 0; everywhere else the k guard's error
        inv = invariants_closed_form(family_id, k)
        result = {"frobenius": inv.frobenius, "genus": inv.genus,
                  "pseudo_frobenius": inv.pseudo_frobenius, "type": inv.type_}
    line = ", ".join(f"{_FACT_LABELS[name]}={_csv(v) if isinstance(v, tuple) else v}"
                     for name, v in result.items())
    if args.style == "paper" and "pseudo_frobenius" in result:
        result["apery_grouped"] = "; ".join(", ".join(map(str, group))
                                            for group in apery_grouped(family_id, k))
        line += "\nAp: " + result["apery_grouped"]
    gens = FAMILIES[family_id].generators(k)
    result.update({"family": family_id, "k": k, "p": gens[0], "generators": gens})
    return result, f"family {family_id}, k={k}: S=<{_csv(gens)}>\n{line}"


def _run_from_p(args, params: dict) -> tuple[object, str]:
    params.update({"p": args.p, "pattern": args.pattern.offsets})
    result = frobenius_from_p(args.p, args.pattern)
    return result, str(result)


def _run_list(args, params: dict) -> tuple[object, str]:
    result = [{"id": d.id, "pattern": d.pattern.offsets, "p_modulus": d.p_modulus,
               "p_residue": d.p_residue, "k_min": d.k_min,
               "frobenius_in_p": asdict(d.f_from_p), "frobenius_in_p_k_min": d.k_min,
               "type": d.type_value, "type_k_min": d.type_k_min,
               "frobenius_in_k": d.f_in_k, "genus_in_k": d.g_in_k,
               "pseudo_frobenius_in_k": d.pf_in_k}
              for d in FAMILIES.values()]
    text = "\n".join(f"{row['id']:6s} pattern {_csv(row['pattern'])}"
                     f"  p = {row['p_modulus']}k+{row['p_residue']}"
                     f"  type {row['type']} (k >= {row['type_k_min']})"
                     for row in result)
    return result, text


def _run_sweep(args, params: dict) -> tuple[object, str]:
    family_id = args.family
    k_lo, k_hi = args.k_range
    params.update({"family": family_id, "k_lo": k_lo, "k_hi": k_hi})
    report = sweep_family(family_id, k_lo, k_hi)
    if report.all_match:
        text = f"{family_id} k={k_lo}..{k_hi}: all {len(report.entries)} checks match"
    else:
        lines = [f"{family_id} k={k_lo}..{k_hi}: {len(report.mismatches)} mismatches"]
        lines += [f"  k={e.k}: {e.detail}" for e in report.mismatches]
        text = "\n".join(lines)
    return {**asdict(report), "all_match": report.all_match}, text


def _run_conjecture(args, params: dict) -> tuple[object, str]:
    pattern = args.pattern
    if (args.modulus is None) != (args.residue is None):
        args.parser.error("--modulus and --residue must be given together")
    if args.modulus is None:
        registered = [d for d in FAMILIES.values() if d.pattern == pattern]
        if len(registered) != 1:
            args.parser.error("--modulus/--residue are required unless the pattern "
                              "matches exactly one registered family")
        d = registered[0]
        modulus, residue = d.p_modulus, d.p_residue
        min_p = args.min_p if args.min_p is not None else d.p_of_k(d.k_min)
    else:
        modulus, residue = args.modulus, args.residue
        min_p = args.min_p
    params.update({"pattern": pattern.offsets, "p_modulus": modulus,
                   "p_residue": residue, "max_p": args.max_p, "min_p": min_p,
                   "primes_only": args.primes_only, "samples": args.samples})
    fit = fit_conjecture(pattern, modulus, residue, max_p=args.max_p,
                         min_p=min_p, primes_only=args.primes_only,
                         max_samples=args.samples)
    result = {**asdict(fit), "pattern": pattern.offsets, "exact": fit.exact,
              "a2_equals_2_over_q": fit.a2_equals_2_over_q, "a0_integer": fit.a0_integer}
    poly = fit.poly
    text = (f"F(p) = ({poly.a2})p^2 + ({poly.a1})p + ({poly.a0}) on "
            f"p = {modulus}k{residue:+d}\n"
            f"exact={fit.exact} a2==2/q={fit.a2_equals_2_over_q} "
            f"a0_integer={fit.a0_integer} samples={len(fit.samples)}")
    return result, text


# --- parser / dispatch ----------------------------------------------------------

def _json_default(value) -> list[int]:
    """A Fraction as [numerator, denominator]; anything else json cannot write."""
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tupletfrob",
        description="Numerical semigroups of prime constellations: engine, sieve, "
                    "closed forms, and verification.")
    # no code reads a subparsers' dest; argparse names it when the subcommand is missing
    top = parser.add_subparsers(dest="group", required=True)

    def leaf(sub, name, run, help, **defaults):
        # the leaf's own parser reports the usage errors found after parsing
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(run=run, parser=p, **defaults)
        return p

    sg = top.add_parser("sg", help="generic numerical-semigroup operations")
    sg_sub = sg.add_subparsers(dest="sg_op", required=True)
    p = leaf(sg_sub, "apery", _run_sg_apery, "Apéry set")
    p.add_argument("--gens", type=_int_list, required=True, help="comma-separated generators")
    p.add_argument("--mod", type=int, default=None,
                   help="Apéry modulus (default: multiplicity)")
    for name, invariant, help_text in (
            ("frobenius", NumericalSemigroup.frobenius_number, "Frobenius number"),
            ("genus", NumericalSemigroup.genus, "number of gaps"),
            ("pf", NumericalSemigroup.pseudo_frobenius, "pseudo-Frobenius numbers"),
            ("type", NumericalSemigroup.type, "number of pseudo-Frobenius numbers"),
            ("msg", lambda s: s.minimal_generators().elements, "minimal generating set")):
        p = leaf(sg_sub, name, _run_sg_invariant, help_text, invariant=invariant)
        p.add_argument("--gens", type=_int_list, required=True,
                       help="comma-separated generators")

    tup = top.add_parser("tuplets", help="prime-constellation operations")
    tup_sub = tup.add_subparsers(dest="tuplets_op", required=True)
    p = leaf(tup_sub, "find", _run_find, "sieve a range for pattern instances")
    p.add_argument("--pattern", type=_pattern, required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--consecutive", action=argparse.BooleanOptionalAction, default=True,
                   help="require the pattern primes to be consecutive primes")
    p.add_argument("--allow-inadmissible", action="store_true",
                   help="search even when the pattern admits finitely many instances")
    p = leaf(tup_sub, "admissible", _run_admissible, "admissibility report for a pattern")
    p.add_argument("--pattern", type=_pattern, required=True)
    p = leaf(tup_sub, "sk", _run_sk, "smallest admissible diameter for k offsets")
    p.add_argument("--k", type=int, required=True)

    formula = top.add_parser("formula", help="closed-form family formulas")
    f_sub = formula.add_subparsers(dest="formula_op", required=True)
    p = leaf(f_sub, "eval", _run_eval, "evaluate a family's invariants at k")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--style", choices=("flat", "paper"), default="flat",
                   help="'paper' adds the grouped Apéry listing")
    p = leaf(f_sub, "from-p", _run_from_p, "Frobenius number from the quadratic in p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--pattern", type=_pattern, required=True)
    leaf(f_sub, "list", _run_list, "dump the family registry")

    verify = top.add_parser("verify", help="cross-validation harness")
    v_sub = verify.add_subparsers(dest="verify_op", required=True)
    p = leaf(v_sub, "sweep", _run_sweep, "closed forms vs engine vs oracle over a k range")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--k-range", type=_k_range, required=True, help="LO..HI")
    p = leaf(v_sub, "conjecture", _run_conjecture, "quadratic F(p) fit over a residue class")
    p.add_argument("--pattern", type=_pattern, required=True)
    p.add_argument("--max-p", dest="max_p", type=int, required=True)
    p.add_argument("--min-p", dest="min_p", type=int, default=None)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--residue", type=int, default=None)
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--samples", type=int, default=8)

    return parser


def main(argv: list[str] | None = None) -> int:
    params: dict = {}  # filled before the library call, so error envelopes carry it too
    try:
        args = build_parser().parse_args(argv)
        result, text = args.run(args, params)
        outcome = {"result": result, "exit_code": 0}
    except SystemExit as exc:  # argparse printed the subcommand's usage and the error
        return int(exc.code or 0)
    except DomainError as exc:
        text = f"error: {exc}"
        outcome = {"error": {"type": type(exc).__name__, "message": str(exc)},
                   "exit_code": 1}
    if args.format == "text":
        print(text, file=sys.stderr if outcome["exit_code"] else sys.stdout)
        return outcome["exit_code"]
    envelope = {"command": args.parser.prog.removeprefix("tupletfrob "), "params": params,
                **outcome}
    print(json.dumps(envelope, indent=2, sort_keys=True, default=_json_default))
    return outcome["exit_code"]


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
