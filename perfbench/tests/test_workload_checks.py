"""Each workload's checks reject a deliberately wrong program answer.

Run with: python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

Q2_K1 = "family Q2, k=1: S=<11,13,17,19>\nF=42, g=24, PF=15,40,42, t=3\n"


@pytest.mark.parametrize("spec, good, bad", [
    (("invariants", [11, 13, 17]), "53\n", "54\n"),
    (("formula", "Q2", 1), Q2_K1, Q2_K1.replace("F=42", "F=41")),
    (("from_p", 101), "2624\n", "2625\n"),
    (("sk", 3), "s(3) = 6\n0,2,6\n0,4,6\n", "s(3) = 6\n0,2,6\n"),
    (("find", (0, 2, 6), 5, 20), "5,7,11\n11,13,17\n17,19,23\n", "5,7,11\n17,19,23\n"),
    (("sweep", "Q1", 0, 9), "Q1 k=0..9: all 10 checks match\n",
     "Q1 k=0..9: all 9 checks match\n"),
])
def test_cli_checker_rejects_wrong_stdout(spec, good, bad):
    assert workloads._cli_errors(spec, 0, good) == []
    assert workloads._cli_errors(spec, 0, bad)


def test_cli_checker_wants_an_error_from_the_failing_command():
    spec = ("usage_or_domain_error",)
    assert workloads._cli_errors(spec, 2, "") == []
    assert workloads._cli_errors(spec, 1, '{"error": {"type": "DomainError"}}') == []
    assert workloads._cli_errors(spec, 0, '{"result": null}')


def test_census_check_rejects_off_by_one_frobenius():
    census = workloads.Census(1)
    census.records = {(11, (0, 2, 6), (53, 30, (49, 53), 2))}
    assert census.check() == []
    census.records = {(11, (0, 2, 6), (52, 30, (49, 53), 2))}
    assert len(census.check()) == 2  # against the fitted quadratic and brute force


def test_sweep_check_rejects_a_mismatch_or_a_missing_row():
    sweep = workloads.Sweep(1)
    rows = tuple((k, "match") for k in range(3, 6))
    sweep.records = {(("T1", 3, 5), True, rows)}
    assert sweep.check() == []
    sweep.records = {(("T1", 3, 5), False, rows[:2] + ((5, "mismatch"),))}
    assert sweep.check()
    sweep.records = {(("T1", 3, 5), True, rows[:2])}
    assert sweep.check()


def test_scan_check_rejects_composite_missed_and_wrong_frobenius():
    scan = workloads.Scan(1)
    window = ((0, 2, 6), 100, 120, True)
    t101 = (101, "T1", 16, 3533)
    t107 = (107, "T1", 17, 3957)
    scan.records = [(window, [t101, t107])]
    assert scan.check() == []
    scan.records = [(window, [t101])]                                  # missed 107
    assert scan.check()
    scan.records = [(window, [t101, t107, (113, "T1", 18, 0)])]        # 115 composite
    assert scan.check()
    scan.records = [(window, [t101[:3] + (3534,), t107])]              # off-by-one F
    assert scan.check()
