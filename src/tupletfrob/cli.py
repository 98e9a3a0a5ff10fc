"""Command-line front end.

Four command groups (sg, tuplets, formula, verify) expose the library with
text or JSON output.  Exit codes: 0 on success, 1 on a domain error (bad
gcd, residue mismatch, ...), 2 on a usage error.  JSON output is a stable
envelope: {"command", "params", "result", "exit_code"} on success and
{"command", "params", "error": {"type", "message"}, "exit_code"} on domain
errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .core import make_semigroup
from .errors import DomainError
from .families import (
    FAMILIES,
    apery_grouped_text,
    family_registry,
    frobenius_from_p,
    invariants_closed_form,
)
from .tuplets import OffsetPattern, find_tuplets, is_admissible, smallest_diameter
from .verification import fit_conjecture, sweep_family

_INT_LIST = re.compile(r"^\d+(,\d+)*$")
_K_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")
_VALUE_CAP = 1 << 63


def _parse_int_list(text: str, parser: argparse.ArgumentParser, what: str) -> list[int]:
    if not _INT_LIST.match(text):
        parser.error(f"{what} must be comma-separated unsigned decimal integers, got {text!r}")
    values = [int(tok) for tok in text.split(",")]
    if any(v >= _VALUE_CAP for v in values):
        parser.error(f"{what} entries must be below 2**63")
    return values


def _pattern_of(text: str, parser: argparse.ArgumentParser) -> OffsetPattern:
    try:
        return OffsetPattern(tuple(_parse_int_list(text, parser, "--pattern")))
    except ValueError as exc:
        parser.error(f"bad --pattern: {exc}")
        raise AssertionError  # unreachable; parser.error raises SystemExit


def _ints(values) -> list[int]:
    return [int(v) for v in values]


# --- sg group ----------------------------------------------------------------

def _run_sg(args, parser, params: dict) -> tuple[object, str]:
    gens = _parse_int_list(args.gens, parser, "--gens")
    params["gens"] = gens
    op = args.sg_op
    if op == "apery" and args.mod is not None:
        params["mod"] = args.mod
    semigroup = make_semigroup(gens)
    if op == "apery":
        ap = semigroup.apery_set(args.mod)
        result = {"modulus": ap.modulus, "elements": _ints(ap.elements),
                  "table": _ints(ap.table)}
        text = ",".join(str(v) for v in ap.elements)
    elif op == "frobenius":
        result = semigroup.frobenius_number()
        text = str(result)
    elif op == "genus":
        result = semigroup.genus()
        text = str(result)
    elif op == "pf":
        result = _ints(semigroup.pseudo_frobenius())
        text = ",".join(str(v) for v in result)
    elif op == "type":
        result = semigroup.type()
        text = str(result)
    else:  # msg
        result = _ints(semigroup.minimal_generators())
        text = ",".join(str(v) for v in result)
    return result, text


# --- tuplets group -------------------------------------------------------------

def _run_tuplets(args, parser, params: dict) -> tuple[object, str]:
    op = args.tuplets_op
    if op == "find":
        pattern = _pattern_of(args.pattern, parser)
        params.update({"pattern": _ints(pattern.offsets), "from": args.lo, "to": args.hi,
                       "consecutive": args.consecutive})
        found = find_tuplets(pattern, args.lo, args.hi, args.consecutive,
                             allow_inadmissible=args.allow_inadmissible)
        result = [{"p": t.p, "primes": _ints(t.primes)} for t in found]
        text = "\n".join(",".join(str(q) for q in t.primes) for t in found) or "(none)"
    elif op == "admissible":
        pattern = _pattern_of(args.pattern, parser)
        params["pattern"] = _ints(pattern.offsets)
        report = is_admissible(pattern)
        result = {"admissible": report.admissible,
                  "witness_prime": report.witness_prime,
                  "residues_at_witness":
                      _ints(report.residues_at_witness) if report.residues_at_witness else None}
        if report.admissible:
            text = "admissible"
        else:
            residues = ",".join(str(r) for r in report.residues_at_witness)
            text = f"not admissible: residues ({residues}) cover every class mod {report.witness_prime}"
    else:  # sk
        params["k"] = args.k
        s, patterns = smallest_diameter(args.k)
        result = {"k": args.k, "s": s, "patterns": [_ints(p.offsets) for p in patterns]}
        text = f"s({args.k}) = {s}\n" + "\n".join(str(p) for p in patterns)
    return result, text


# --- formula group -------------------------------------------------------------

def _family_or_error(family_id: str, parser) -> str:
    if family_id not in FAMILIES:
        parser.error(f"unknown family {family_id!r}; choose from {','.join(FAMILIES)}")
    return family_id


def _run_formula(args, parser, params: dict) -> tuple[object, str]:
    op = args.formula_op
    if op == "eval":
        family_id = _family_or_error(args.family, parser)
        params.update({"family": family_id, "k": args.k})
        d = FAMILIES[family_id]
        p = d.p_of_k(args.k)
        if d.has_apery_form:
            inv = invariants_closed_form(family_id, args.k)
            result = {"family": family_id, "k": args.k, "p": p,
                      "generators": _ints(d.generators(args.k)),
                      "frobenius": inv.frobenius, "genus": inv.genus,
                      "pseudo_frobenius": _ints(inv.pseudo_frobenius),
                      "type": inv.type_}
            pf = ",".join(str(v) for v in inv.pseudo_frobenius)
            text = (f"family {family_id}, k={args.k}: "
                    f"S=<{','.join(str(g) for g in d.generators(args.k))}>\n"
                    f"F={inv.frobenius}, g={inv.genus}, PF={pf}, t={inv.type_}")
            if args.style == "paper":
                result["apery_grouped"] = apery_grouped_text(family_id, args.k)
                text += "\nAp: " + result["apery_grouped"]
        else:
            f_value = frobenius_from_p(p, d.pattern)
            result = {"family": family_id, "k": args.k, "p": p,
                      "generators": _ints(d.generators(args.k)), "frobenius": f_value}
            text = (f"family {family_id}, k={args.k}: "
                    f"S=<{','.join(str(g) for g in d.generators(args.k))}>\nF={f_value}")
            if args.k >= d.type_k_min:
                result["type"] = d.type_value
                text += f", t={d.type_value}"
    elif op == "from-p":
        pattern = _pattern_of(args.pattern, parser)
        params.update({"p": args.p, "pattern": _ints(pattern.offsets)})
        result = frobenius_from_p(args.p, pattern)
        text = str(result)
    else:  # list
        result = family_registry()
        lines = []
        for row in result:
            lines.append(f"{row['id']:6s} pattern {','.join(str(b) for b in row['pattern'])}"
                         f"  p = {row['p_modulus']}k+{row['p_residue']}"
                         f"  type {row['type']} (k >= {row['type_k_min']})")
        text = "\n".join(lines)
    return result, text


# --- verify group --------------------------------------------------------------

def _parse_k_range(text: str, parser) -> tuple[int, int]:
    m = _K_RANGE.match(text)
    if not m:
        parser.error(f"--k-range must look like LO..HI, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _run_verify(args, parser, params: dict) -> tuple[object, str]:
    op = args.verify_op
    if op == "sweep":
        family_id = _family_or_error(args.family, parser)
        k_lo, k_hi = _parse_k_range(args.k_range, parser)
        params.update({"family": family_id, "k_lo": k_lo, "k_hi": k_hi})
        report = sweep_family(family_id, k_lo, k_hi)
        # timing is dropped from the payload so identical inputs print identically
        result = report.to_json_dict(include_timing=False)
        if report.all_match:
            text = f"{family_id} k={k_lo}..{k_hi}: all {len(report.entries)} checks match"
        else:
            lines = [f"{family_id} k={k_lo}..{k_hi}: {len(report.mismatches)} mismatches"]
            lines += [f"  k={e.k}: {e.detail}" for e in report.mismatches]
            text = "\n".join(lines)
    else:  # conjecture
        pattern = _pattern_of(args.pattern, parser)
        if args.modulus is None or args.residue is None:
            registered = [d for d in FAMILIES.values() if d.pattern == pattern]
            if len(registered) != 1:
                parser.error("--modulus/--residue are required unless the pattern "
                             "matches exactly one registered family")
            d = registered[0]
            modulus, residue = d.p_modulus, d.p_residue
            min_p = args.min_p if args.min_p is not None else d.p_of_k(d.f_k_min)
        else:
            modulus, residue = args.modulus, args.residue
            min_p = args.min_p
        params.update({"pattern": _ints(pattern.offsets), "p_modulus": modulus,
                       "p_residue": residue, "max_p": args.max_p,
                       "primes_only": args.primes_only})
        fit = fit_conjecture(pattern, modulus, residue, max_p=args.max_p,
                             min_p=min_p, primes_only=args.primes_only,
                             max_samples=args.samples)
        result = fit.to_json_dict()
        poly = fit.poly
        text = (f"F(p) = ({poly.a2})p^2 + ({poly.a1})p + ({poly.a0}) on "
                f"p = {modulus}k+{residue}\n"
                f"exact={fit.exact} a2==2/q={fit.a2_equals_2_over_q} "
                f"a0_integer={fit.a0_integer} samples={len(fit.samples)}")
    return result, text


# --- parser / dispatch ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tupletfrob",
        description="Numerical semigroups of prime constellations: engine, sieve, "
                    "closed forms, and verification.")
    top = parser.add_subparsers(dest="group", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    sg = top.add_parser("sg", help="generic numerical-semigroup operations")
    sg_sub = sg.add_subparsers(dest="sg_op", required=True)
    for name, help_text in (("apery", "Apéry set"), ("frobenius", "Frobenius number"),
                            ("genus", "number of gaps"), ("pf", "pseudo-Frobenius numbers"),
                            ("type", "number of pseudo-Frobenius numbers"),
                            ("msg", "minimal generating set")):
        p = sg_sub.add_parser(name, help=help_text)
        p.add_argument("--gens", required=True, help="comma-separated generators")
        if name == "apery":
            p.add_argument("--mod", type=int, default=None,
                           help="Apéry modulus (default: multiplicity)")
        add_format(p)
        p.set_defaults(run=_run_sg)

    tup = top.add_parser("tuplets", help="prime-constellation operations")
    tup_sub = tup.add_subparsers(dest="tuplets_op", required=True)
    p = tup_sub.add_parser("find", help="sieve a range for pattern instances")
    p.add_argument("--pattern", required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--consecutive", action=argparse.BooleanOptionalAction, default=True,
                   help="require the pattern primes to be consecutive primes")
    p.add_argument("--allow-inadmissible", action="store_true",
                   help="search even when the pattern admits finitely many instances")
    add_format(p)
    p.set_defaults(run=_run_tuplets)
    p = tup_sub.add_parser("admissible", help="admissibility report for a pattern")
    p.add_argument("--pattern", required=True)
    add_format(p)
    p.set_defaults(run=_run_tuplets)
    p = tup_sub.add_parser("sk", help="smallest admissible diameter for k offsets")
    p.add_argument("--k", type=int, required=True)
    add_format(p)
    p.set_defaults(run=_run_tuplets)

    formula = top.add_parser("formula", help="closed-form family formulas")
    f_sub = formula.add_subparsers(dest="formula_op", required=True)
    p = f_sub.add_parser("eval", help="evaluate a family's invariants at k")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--style", choices=("flat", "paper"), default="flat",
                   help="'paper' adds the grouped Apéry listing")
    add_format(p)
    p.set_defaults(run=_run_formula)
    p = f_sub.add_parser("from-p", help="Frobenius number from the quadratic in p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--pattern", required=True)
    add_format(p)
    p.set_defaults(run=_run_formula)
    p = f_sub.add_parser("list", help="dump the family registry")
    add_format(p)
    p.set_defaults(run=_run_formula)

    verify = top.add_parser("verify", help="cross-validation harness")
    v_sub = verify.add_subparsers(dest="verify_op", required=True)
    p = v_sub.add_parser("sweep", help="closed forms vs engine vs oracle over a k range")
    p.add_argument("--family", required=True)
    p.add_argument("--k-range", required=True, help="LO..HI")
    add_format(p)
    p.set_defaults(run=_run_verify)
    p = v_sub.add_parser("conjecture", help="quadratic F(p) fit over a residue class")
    p.add_argument("--pattern", required=True)
    p.add_argument("--max-p", dest="max_p", type=int, required=True)
    p.add_argument("--min-p", dest="min_p", type=int, default=None)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--residue", type=int, default=None)
    p.add_argument("--primes-only", action="store_true")
    p.add_argument("--samples", type=int, default=8)
    add_format(p)
    p.set_defaults(run=_run_verify)

    return parser


def _command_string(args) -> str:
    parts = [args.group]
    for attr in ("sg_op", "tuplets_op", "formula_op", "verify_op"):
        op = getattr(args, attr, None)
        if op:
            parts.append(op)
    return " ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the synopsis
        return int(exc.code or 0)
    command = _command_string(args)
    params: dict = {}  # filled before the library call, so error envelopes carry it too
    try:
        result, text = args.run(args, parser, params)
    except SystemExit as exc:  # late usage errors from parser.error
        return int(exc.code or 0)
    except DomainError as exc:
        if args.format == "json":
            envelope = {"command": command, "params": params,
                        "error": {"type": type(exc).__name__, "message": str(exc)},
                        "exit_code": 1}
            print(json.dumps(envelope, indent=2, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        envelope = {"command": command, "params": params, "result": result,
                    "exit_code": 0}
        print(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
