"""One workload in its own process: set up, run timed rounds, check, report.

run.py starts this script and passes --started, its CLOCK_MONOTONIC reading
just before the start, so setup_s spans interpreter start, the imports and
input generation.  With --phase setup the process stops there.  The last
line of stdout is a JSON object with the run's counts and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

import spans
import workloads

TRACED_ROUNDS = 1  # a traced run does set-up and exactly this much work

# Per-layer metrics: span totals, span counts and counters of the traced pass.
LAYER_SECONDS = ("core.apery_table", "core.genus", "core.pseudo_frobenius", "core.type",
                 "verification.oracle", "verification.sweep", "families.closed_form",
                 "families.frobenius_from_p", "tuplets.find_tuplets",
                 "tuplets.find_tuplets_fixed")
LAYER_CALLS = ("core.apery_table", "verification.oracle", "families.frobenius_from_p",
               "tuplets.find_tuplets")
LAYER_COUNTS = ("core.apery_table_residues", "verification.oracle_cells",
                "verification.oracle_skipped", "tuplets.numbers_sieved", "tuplets.tuplets_found")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at least a share q of the values are <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def run_ops(wl, tr, seconds: float, rounds: int | None):
    """Exactly `rounds` rounds when given; otherwise whole rounds until
    wl.min_ops are done and one more round would overrun `seconds` of timed
    work, judged by the length of the last round."""
    latencies, errors = [], []
    attempted = failed = 0
    timed = last_round = 0.0
    done_rounds = 0
    while (done_rounds < rounds) if rounds is not None else (
            attempted < wl.min_ops or timed + last_round <= seconds):
        round_start = timed
        for inp in wl.next_round():
            tr.op_id = attempted
            attempted += 1
            start = time.perf_counter()
            try:
                with tr.span("op"):
                    out = wl.op(inp, tr)
            except Exception as exc:  # a failed operation is counted, not fatal
                timed += time.perf_counter() - start
                failed += 1
                if not wl.expected_failure(inp):
                    errors.append(f"unexpected failure on {inp!r}: {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            timed += elapsed
            latencies.append(elapsed)
            wl.after_op(inp, out, tr)
            out = None  # release the answer before the next operation starts
        done_rounds += 1
        last_round = timed - round_start
    return latencies, attempted, failed, timed, errors


def layer_metrics(tr) -> dict:
    m = {f"{name}_s": tr.busy(name) for name in LAYER_SECONDS}
    m.update({f"{name}_calls": tr.calls(name) for name in LAYER_CALLS})
    m.update({name: tr.counts[name] for name in LAYER_COUNTS})
    op_spans = [i for i, s in enumerate(tr.spans) if s["name"] == "op"]
    m["trace.ops"] = len(op_spans)
    m["trace.unattributed_s"] = sum(tr.self_time(i) for i in op_spans)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tr = spans.Tracer() if args.trace else spans.NullTracer()
    wl.setup(tr)
    setup_s = time.monotonic() - args.started
    if args.phase == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    latencies, attempted, failed, timed, errors = run_ops(
        wl, tr, args.seconds, TRACED_ROUNDS if args.trace else None)
    rss = peak_rss_mb(children=args.workload == "cli")
    errors += wl.errors + wl.check()
    if args.trace:
        metrics = layer_metrics(tr)
        if args.trace_file:
            tr.dump(args.trace_file)
    else:
        metrics = {
            "ops_per_s": len(latencies) / timed,
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * percentile(latencies, wl.tail_quantile),
            "peak_rss_mb": rss,
        }
    print(json.dumps({"setup_s": setup_s, "correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics, "errors": errors[:20],
                      "tail_quantile": wl.tail_quantile, "timed_s": timed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
