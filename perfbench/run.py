"""Benchmark for tupletfrob: census, sweep, scan and cli workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # all four workloads, one after another

Each workload runs in fresh processes started here (child.py).  Untraced
runs (--trace 0) report the end-to-end metrics; setup_s is the median over
SETUP_REPEATS processes, the last of which goes on to the timed rounds.
Traced runs (--trace 1) do one traced round of every workload and report
the per-layer metrics summed over them, plus the cost of a bare
interpreter, of importing the CLI and of one cold CLI command.  The last
line of stdout is one JSON object: {correct, attempted, failed, metrics};
the full result also goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("census", "sweep", "scan", "cli")
SETUP_REPEATS = 5
CLI_REPEATS = 5
DEADLINE_S = 170  # every run must end within 180 s
SWEEP_THREADS = "2"  # sweep_family workers in the sweep workload; at most nproc
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("TUPLETFROB_THREADS", None)
    if workload == "sweep":
        env["TUPLETFROB_THREADS"] = SWEEP_THREADS
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, phase: str,
              deadline: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--phase", phase, "--started", repr(started)]
    if trace:
        cmd += ["--trace-file", str(OUT / f"trace-{workload}-seed{seed}.json")]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(workload),
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} {phase} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cold_seconds(argv: list[str], deadline: float) -> float:
    """Median wall time of CLI_REPEATS fresh interpreters running argv."""
    times = []
    for _ in range(CLI_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], check=True, capture_output=True,
                       env=child_env("cli"), timeout=max(1.0, deadline - time.monotonic()))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload: SETUP_REPEATS set-ups, one timed run."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_child(workload, seed, seconds, 0, "setup", deadline)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = run_child(workload, seed, seconds, 0, "run", deadline)
    setups.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["setups_s"] = setups
    return finish(result, workload, seed, seconds, 0)


def measure_traced(seed: int, seconds: float) -> dict:
    """Per-layer metrics: one traced round of every workload, summed.

    Each layer is measured on the workloads that call it, so a traced run
    covers all four whichever workload is named.
    """
    deadline = time.monotonic() + DEADLINE_S
    parts = {w: run_child(w, seed, seconds, 1, "run", deadline) for w in WORKLOADS}
    metrics = {name: sum(p["metrics"][name] for p in parts.values())
               for name in parts[WORKLOADS[0]]["metrics"]}
    metrics.update({
        "cli.interpreter_s": cold_seconds(["-c", "pass"], deadline),
        "cli.import_s": cold_seconds(["-c", "import tupletfrob.cli"], deadline),
        "cli.process_s": cold_seconds(
            ["-m", "tupletfrob.cli", "sg", "frobenius", "--gens", "11,13,17"], deadline),
    })
    result = {"correct": all(p["correct"] for p in parts.values()),
              "attempted": sum(p["attempted"] for p in parts.values()),
              "failed": sum(p["failed"] for p in parts.values()),
              "metrics": metrics,
              "errors": [f"{w}: {e}" for w, p in parts.items() for e in p["errors"]],
              "by_workload": {w: p["metrics"] for w, p in parts.items()}}
    return finish(result, "all", seed, seconds, 1)


def finish(result: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Attach units, write the full result to OUT and report failed checks."""
    result["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                         for name, value in result["metrics"].items()}
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  machine=machine_info())
    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    for error in result["errors"]:
        print(f"{workload}: check failed: {error}", file=sys.stderr)
    return result


def machine_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def summary(result: dict) -> dict:
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tupletfrob" / "__init__.py").is_file():
        print(f"no tupletfrob sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = measure_traced(args.seed, args.seconds)
        if args.workload == "all":
            print_table("one traced round of every workload", result)
        print(json.dumps(summary(result)))
        return 0
    if args.workload != "all":
        print(json.dumps(summary(measure(args.workload, args.seed, args.seconds))))
        return 0
    results = {}
    for workload in WORKLOADS:
        result = measure(workload, args.seed, args.seconds)
        results[workload] = summary(result)
        print_table(workload, result)
    print(json.dumps(results))
    return 0


def print_table(title: str, result: dict) -> None:
    print(f"{title}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")


if __name__ == "__main__":
    sys.exit(main())
