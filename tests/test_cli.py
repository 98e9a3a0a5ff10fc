"""Command-line interface tests: dispatch, formats, exit codes, determinism."""

import json
import os
import re
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tupletfrob
from tupletfrob import verification
from tupletfrob.cli import _json_default, app, main

SRC = str(Path(tupletfrob.__file__).resolve().parents[1])
GOLDEN = Path(__file__).resolve().parent / "golden"
README = Path(__file__).resolve().parents[1] / "README.md"
WIDE_FAMILIES = ("Quin1", "Quin2", "Sex7", "Sex37", "Sex67", "Sex97", "Sep1", "Sep2")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_process(*argv, timeout=60):
    """A JSON CLI call in its own process, killed after `timeout` seconds.

    The address space is capped at 2 GiB, so a call that tried to allocate
    a table for a huge input fails there instead of exhausting the machine.
    """
    done = subprocess.run([sys.executable, "-m", "tupletfrob.cli", *argv, "--format", "json"],
                          capture_output=True, timeout=timeout,
                          preexec_fn=_two_gib_address_space,
                          env={**os.environ, "PYTHONPATH": SRC})
    return done.returncode, json.loads(done.stdout)


class TestSgGroup:
    def test_frobenius(self, capsys):
        code, out, _ = run(capsys, "sg", "frobenius", "--gens", "11,13,17")
        assert code == 0 and out.strip() == "53"

    def test_apery_flat(self, capsys):
        code, out, _ = run(capsys, "sg", "apery", "--gens", "11,13,17")
        assert code == 0
        assert out.strip() == "0,13,17,26,30,34,43,47,51,60,64"

    def test_apery_custom_modulus(self, capsys):
        code, payload, _ = run_json(capsys, "sg", "apery", "--gens", "11,13,17", "--mod", "13")
        assert code == 0
        assert payload["result"]["modulus"] == 13
        assert len(payload["result"]["table"]) == 13

    def test_genus_pf_type_msg(self, capsys):
        assert run(capsys, "sg", "genus", "--gens", "11,13,17")[1].strip() == "30"
        assert run(capsys, "sg", "pf", "--gens", "11,13,17")[1].strip() == "49,53"
        assert run(capsys, "sg", "type", "--gens", "11,13,17")[1].strip() == "2"
        assert run(capsys, "sg", "msg", "--gens", "3,5,9,11")[1].strip() == "3,5"

    def test_domain_error_exit_1(self, capsys):
        code, out, err = run(capsys, "sg", "frobenius", "--gens", "4,6")
        assert code == 1 and out == "" and "gcd 2" in err

    def test_domain_error_json_envelope(self, capsys):
        code, payload, _ = run_json(capsys, "sg", "pf", "--gens", "1")
        assert code == 1
        assert payload["exit_code"] == 1
        assert payload["error"]["type"] == "SemigroupIsNaturalsError"

    def test_domain_error_envelope_carries_params(self, capsys):
        code, payload, _ = run_json(capsys, "sg", "frobenius", "--gens", "4,6")
        assert code == 1
        assert payload["params"] == {"gens": [4, 6]}
        assert payload["error"]["type"] == "GcdNotOneError"

    def test_engine_bound_exits_1_at_once(self):
        code, payload = run_process("sg", "frobenius", "--gens", "1000000007,1000000009",
                                    timeout=30)
        assert code == 1
        assert payload["error"]["type"] == "BoundExceededError"
        assert payload["params"] == {"gens": [1000000007, 1000000009]}

    def test_usage_error_exit_2(self, capsys):
        code, _, err = run(capsys, "sg", "frobenius", "--gens", "a,b")
        assert code == 2 and "usage" in err
        code, _, err = run(capsys, "sg", "frobenius")
        assert code == 2


class TestTupletsGroup:
    def test_find(self, capsys):
        code, out, _ = run(capsys, "tuplets", "find", "--pattern", "0,2,6,8",
                           "--from", "100", "--to", "110")
        assert code == 0 and out.strip() == "101,103,107,109"

    def test_find_json(self, capsys):
        code, payload, _ = run_json(capsys, "tuplets", "find", "--pattern", "0,2,6",
                                    "--from", "5", "--to", "20")
        assert code == 0
        assert payload["result"] == [
            {"p": 5, "primes": [5, 7, 11]},
            {"p": 11, "primes": [11, 13, 17]},
            {"p": 17, "primes": [17, 19, 23]},
        ]

    @pytest.mark.parametrize("golden, argv", [
        ("find_0,2,6_5_20.txt", ["--pattern", "0,2,6", "--from", "5", "--to", "20"]),
        ("find_0,2,6,8_100_2100.json",
         ["--pattern", "0,2,6,8", "--from", "100", "--to", "2100", "--format", "json"]),
        ("find_0,6_5_5_no-consecutive.txt",
         ["--pattern", "0,6", "--from", "5", "--to", "5", "--no-consecutive"]),
    ])
    def test_find_stdout_is_byte_identical(self, capsys, golden, argv):
        code, out, _ = run(capsys, "tuplets", "find", *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_find_above_height_limit_exits_1_at_once(self):
        # a window above the height limit, and a low window with a pattern
        # wider than the diameter limit (its segment would need 931 GiB)
        for pattern, height in (([0, 2, 6], 10 ** 18), ([0, 2, 10 ** 12 + 2], 5)):
            code, payload = run_process("tuplets", "find",
                                        "--pattern", ",".join(map(str, pattern)),
                                        "--from", str(height), "--to", str(height),
                                        timeout=30)
            assert code == 1
            assert payload["error"]["type"] == "BoundExceededError"
            assert payload["params"] == {"pattern": pattern, "from": height, "to": height,
                                         "consecutive": True}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_find_reversed_range_is_usage_error(self, capsys, fmt):
        code, out, err = run(capsys, "tuplets", "find", "--pattern", "0,2,6",
                             "--from", "20", "--to", "5", "--format", fmt)
        assert code == 2 and out == ""
        assert "--from" in err and "Traceback" not in err

    def test_find_inadmissible_is_domain_error(self, capsys):
        code, _, err = run(capsys, "tuplets", "find", "--pattern", "0,2,4",
                           "--from", "1", "--to", "100")
        assert code == 1 and "mod 3" in err

    def test_admissible(self, capsys):
        code, out, _ = run(capsys, "tuplets", "admissible", "--pattern", "0,2,6")
        assert code == 0 and out.strip() == "admissible"
        code, payload, _ = run_json(capsys, "tuplets", "admissible", "--pattern", "0,2,4")
        assert payload["result"] == {"admissible": False, "witness_prime": 3,
                                     "residues_at_witness": [0, 1, 2]}

    def test_sk(self, capsys):
        code, out, _ = run(capsys, "tuplets", "sk", "--k", "3")
        assert code == 0
        assert out.splitlines() == ["s(3) = 6", "0,2,6", "0,4,6"]

    def test_sk_guard(self, capsys):
        code, _, err = run(capsys, "tuplets", "sk", "--k", "11")
        assert code == 1 and "between 2 and 10" in err


class TestFormulaGroup:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "formula", "eval", "--family", "Q2", "--k", "1")
        assert code == 0
        assert "F=42, g=24, PF=15,40,42, t=3" in out

    def test_eval_paper_style(self, capsys):
        code, out, _ = run(capsys, "formula", "eval", "--family", "T1", "--k", "1",
                           "--style", "paper")
        assert "Ap: 0; 13, 17; 26, 30, 34; 43, 47, 51; 60, 64" in out

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    @pytest.mark.parametrize("family, k, style", [
        *((family, k, "paper") for family in ("T1", "T2", "Q1", "Q2") for k in (0, 1, 2, 7, 30)),
        ("Q1", 0, "flat"),
        *((family, 7, "flat") for family in WIDE_FAMILIES),
        ("Quin2", 0, "flat"),   # below type_k_min: F without t
        ("Sex7", 0, "flat"),
    ])
    def test_eval_stdout_is_byte_identical(self, capsys, family, k, style, fmt):
        argv = ["formula", "eval", "--family", family, "--k", str(k), "--style", style]
        if fmt == "json":
            argv += ["--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        suffix = "_paper" if style == "paper" else ""
        assert out.encode() == (GOLDEN / f"eval_{family}_{k}{suffix}.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_eval_wide_family_ignores_paper_style(self, capsys, fmt):
        argv = ["formula", "eval", "--family", "Quin1", "--k", "7", "--style", "paper"]
        if fmt == "json":
            argv += ["--format", "json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"eval_Quin1_7.{fmt}").read_bytes()

    def test_eval_paper_style_above_listing_limit_exits_1_at_once(self):
        argv = ("formula", "eval", "--family", "T1", "--k", "100000000")
        code, payload = run_process(*argv, "--style", "paper", timeout=30)
        assert code == 1
        assert payload["error"]["type"] == "BoundExceededError"
        assert payload["params"] == {"family": "T1", "k": 100000000}
        # without the listing, the invariants come from the polynomials
        code, payload = run_process(*argv, timeout=30)
        assert code == 0 and payload["result"]["p"] == 600000005

    def test_eval_wide_family(self, capsys):
        code, payload, _ = run_json(capsys, "formula", "eval", "--family", "Quin1", "--k", "0")
        assert payload["result"]["frobenius"] == 31
        assert payload["result"]["type"] == 6

    @pytest.mark.parametrize("family, k", [("T1", -1), ("Quin1", -1), ("Sep1", 0)])
    def test_eval_below_the_thresholds_is_the_k_guard(self, capsys, family, k):
        code, payload, _ = run_json(capsys, "formula", "eval", "--family", family,
                                    "--k", str(k))
        assert code == 1
        assert payload["error"]["type"] == "KBelowMinimumError"
        assert re.fullmatch(rf"{family} states no frobenius at k={k}, p=-?\d+ "
                            r"\(k_min=\d+, type_k_min=\d+\)", payload["error"]["message"])

    def test_eval_unknown_family(self, capsys):
        code, _, err = run(capsys, "formula", "eval", "--family", "T9", "--k", "1")
        assert code == 2

    def test_from_p(self, capsys):
        code, out, _ = run(capsys, "formula", "from-p", "--p", "101",
                           "--pattern", "0,2,6,8")
        assert code == 0 and out.strip() == "2624"

    def test_from_p_residue_mismatch(self, capsys):
        code, _, err = run(capsys, "formula", "from-p", "--p", "13", "--pattern", "0,2,6")
        assert code == 1 and "residue" in err

    def test_list(self, capsys):
        code, payload, _ = run_json(capsys, "formula", "list")
        assert code == 0
        assert [row["id"] for row in payload["result"]] == \
            ["T1", "T2", "Q1", "Q2", "Quin1", "Quin2",
             "Sex7", "Sex37", "Sex67", "Sex97", "Sep1", "Sep2"]

    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_list_stdout_is_byte_identical(self, capsys, fmt):
        argv = ["formula", "list"] + (["--format", "json"] if fmt == "json" else [])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"list.{fmt}").read_bytes()


class TestVerifyGroup:
    @pytest.mark.parametrize("golden, argv", [
        ("sweep_T2_0_8.json", ["sweep", "--family", "T2", "--k-range", "0..8"]),
        ("conjecture_0,2,6_10000.json", ["conjecture", "--pattern", "0,2,6", "--max-p", "10000"]),
    ])
    def test_verify_json_stdout_is_byte_identical(self, capsys, golden, argv):
        code, out, _ = run(capsys, "verify", *argv, "--format", "json")
        assert code == 0
        assert out.encode() == (GOLDEN / golden).read_bytes()

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "sweep", "--family", "T1", "--k-range", "0..5")
        assert code == 0 and "all 6 checks match" in out

    def test_sweep_json(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "sweep", "--family", "Q1",
                                    "--k-range", "0..5")
        assert payload["result"]["all_match"] is True
        assert "wall_time_s" not in payload["result"]

    def test_sweep_mismatch_text(self, capsys, monkeypatch):
        real = verification.stated_at
        monkeypatch.setattr(verification, "stated_at",
                            lambda fid, k: {**real(fid, k), "genus": real(fid, k)["genus"] + 1})
        code, out, _ = run(capsys, "verify", "sweep", "--family", "T1", "--k-range", "1..2")
        assert code == 0
        assert out == ("T1 k=1..2: 2 mismatches\n"
                       "  k=1: {'genus': {'closed': 31, 'engine': 30}}\n"
                       "  k=2: {'genus': {'closed': 65, 'engine': 64}}\n")

    def test_sweep_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "sweep", "--family", "T1", "--k-range", "5-3")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sweep_reversed_range_is_usage_error(self, capsys, fmt):
        code, out, err = run(capsys, "verify", "sweep", "--family", "Q1",
                             "--k-range", "5..3", "--format", fmt)
        assert code == 2 and out == ""
        assert "--k-range" in err and "Traceback" not in err

    def test_conjecture(self, capsys):
        code, out, _ = run(capsys, "verify", "conjecture", "--pattern", "0,2,6",
                           "--max-p", "500")
        assert code == 0 and "exact=True" in out

    def test_conjecture_explicit_class(self, capsys):
        code, payload, _ = run_json(capsys, "verify", "conjecture", "--pattern",
                                    "0,2,6,8,12,18,20,26", "--max-p", "25000",
                                    "--modulus", "2730", "--residue", "1271",
                                    "--samples", "6")
        assert code == 0
        assert payload["result"]["exact"] is True
        assert payload["result"]["poly"]["a0"] == [-4, 1]

    def test_conjecture_negative_residue_is_signed(self, capsys):
        argv = ("verify", "conjecture", "--pattern", "0,2,6", "--max-p", "1000",
                "--modulus", "6", "--residue", "-1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == "F(p) = (1/3)p^2 + (4/3)p + (-2) on p = 6k-1"
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0 and payload["result"]["p_residue"] == -1

    @pytest.mark.parametrize("samples", ["-1", "3"])
    def test_conjecture_too_few_samples_is_domain_error(self, capsys, samples):
        argv = ("verify", "conjecture", "--pattern", "0,2,6", "--max-p", "10000",
                "--samples", samples)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "Traceback" not in err
        code, payload, _ = run_json(capsys, *argv)
        assert code == 1
        assert payload["error"] == {
            "type": "InsufficientSamplesError",
            "message": f"need at least 4 sample points in the class, asked for {samples}"}

    def test_conjecture_zero_modulus(self):
        code, payload = run_process("verify", "conjecture", "--pattern", "0,2,6",
                                    "--max-p", "1000", "--modulus", "0", "--residue", "5")
        assert code == 1
        assert payload["error"] == {"type": "DomainError",
                                    "message": "bad p_modulus 0: must be a positive integer"}
        assert payload["params"]["p_modulus"] == 0

    def test_conjecture_negative_modulus(self):
        code, payload = run_process("verify", "conjecture", "--pattern", "0,2,6",
                                    "--max-p", "1000", "--modulus", "-6", "--residue", "5")
        assert code == 1
        assert payload["error"] == {"type": "DomainError",
                                    "message": "bad p_modulus -6: must be a positive integer"}
        assert payload["params"]["p_modulus"] == -6

    def test_conjecture_primes_only_in_a_blocked_class_ends_at_once(self):
        # every p = 3 mod 6 is a multiple of 3, so only p = 3 has a prime triple
        code, payload = run_process("verify", "conjecture", "--pattern", "0,2,4",
                                    "--max-p", "1000000000000", "--modulus", "6",
                                    "--residue", "3", "--primes-only", timeout=30)
        assert code == 1
        assert payload["error"]["type"] == "InsufficientSamplesError"
        assert payload["params"]["max_p"] == 1000000000000

    def test_conjecture_primes_only_above_the_engine_limit_exits_1(self):
        # the candidates lie beyond 2**64, where is_prime stops
        code, payload = run_process("verify", "conjecture", "--pattern", "0,2,6",
                                    "--max-p", "99999999999999999999",
                                    "--min-p", "18446744073709551610", "--modulus", "6",
                                    "--residue", "5", "--primes-only", timeout=30)
        assert code == 1
        assert payload["error"]["type"] == "BoundExceededError"

    def test_conjecture_primes_only_in_a_class_without_instances_ends_at_once(self):
        # no prime decuplet lies below the engine's limit, so the sampler
        # reaches the limit with no sample and max_p goes beyond it
        code, payload = run_process("verify", "conjecture", "--pattern",
                                    "0,2,6,8,12,18,20,26,30,32", "--max-p", "100000000",
                                    "--modulus", "1", "--residue", "0", "--primes-only",
                                    timeout=30)
        assert code == 1
        assert payload["error"]["type"] == "BoundExceededError"

    def test_conjecture_ambiguous_pattern_needs_class(self, capsys):
        # two quadruplet families share 0,2,6,8
        code, _, err = run(capsys, "verify", "conjecture", "--pattern", "0,2,6,8",
                           "--max-p", "500")
        assert code == 2 and "--modulus" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("half", [("--modulus", "12"), ("--residue", "11")])
    def test_conjecture_half_a_class_is_a_usage_error(self, capsys, half, fmt):
        # the pattern's one registered family must not stand in for the missing half
        code, out, err = run(capsys, "verify", "conjecture", "--pattern", "0,2,6",
                             "--max-p", "1000", *half, "--format", fmt)
        assert code == 2 and out == ""
        assert "--modulus and --residue must be given together" in err


class TestConsoleScript:
    def test_app_runs_main_on_sys_argv(self, capsys, monkeypatch):
        # pyproject installs app as the tupletfrob command
        monkeypatch.setattr(sys, "argv", ["tupletfrob", "sg", "frobenius", "--gens", "11,13,17"])
        with pytest.raises(SystemExit) as info:
            app()
        assert info.value.code == 0
        assert capsys.readouterr().out == "53\n"


class TestEnvelope:
    def test_json_round_trip_and_fields(self, capsys):
        code, payload, _ = run_json(capsys, "sg", "frobenius", "--gens", "11,13,17")
        assert payload == {"command": "sg frobenius", "exit_code": 0,
                           "params": {"gens": [11, 13, 17]}, "result": 53}

    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "sweep", "--family", "T2", "--k-range", "0..8",
                "--format", "json")
        main(list(args))
        first = capsys.readouterr().out
        main(list(args))
        second = capsys.readouterr().out
        assert first == second

    def test_json_default_writes_fractions_only(self):
        assert _json_default(Fraction(-2, 3)) == [-2, 3]
        for value in (object(), {1, 2}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                _json_default(value)
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            json.dumps({"x": {1, 2}}, default=_json_default)


# each usage error and the start of the message argparse ends its report with
USAGE_ERRORS = {
    "sg frobenius --gens a,b":
        "argument --gens: must be comma-separated unsigned decimal integers, got 'a,b'",
    "sg frobenius --gens 3,9223372036854775808": "argument --gens: entries must be below 2**63",
    "tuplets find --pattern 0,2,6 --from 20 --to 5": "--from 20 must not exceed --to 5",
    "tuplets admissible --pattern 0,4,2":
        "argument --pattern: bad pattern: offsets must be strictly increasing",
    "formula eval --family T9 --k 1": "argument --family: invalid choice: 'T9'",
    "verify sweep --family Q1 --k-range 5..3":
        "argument --k-range: must look like LO..HI with LO <= HI, got '5..3'",
    "verify conjecture --pattern 0,2,6,8 --max-p 500":
        "--modulus/--residue are required unless the pattern matches exactly one "
        "registered family",
}


class TestUsageErrors:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", USAGE_ERRORS)
    def test_usage_line_names_the_subcommand(self, capsys, command, fmt):
        code, out, err = run(capsys, *command.split(), "--format", fmt)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        group, name = command.split()[:2]
        assert err.splitlines()[0].startswith(f"usage: tupletfrob {group} {name} ")
        assert err.splitlines()[-1].startswith(
            f"tupletfrob {group} {name}: error: {USAGE_ERRORS[command]}")


def _readme_commands():
    """The `tupletfrob` lines of the README's "Command line" block, options unbracketed."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    calls = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("tupletfrob "):
            argv = shlex.split(command.replace("[", "").replace("]", ""))[1:]
            comment = comment.strip()
            calls.append((argv, comment if re.fullmatch(r"[\d,]+", comment) else None))
    return calls


class TestReadme:
    def test_command_block_is_found(self):
        assert len(_readme_commands()) == 13

    @pytest.mark.parametrize("argv, expected", _readme_commands(),
                             ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_command_runs(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        if expected is not None:
            assert out.strip() == expected
