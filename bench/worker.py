"""Run one workload in this process and print its result as one JSON line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

bench/run.py starts one worker per workload, so that the worker's peak RSS
belongs to that workload alone.  With --trace 0 the worker sets the
workload up several times before and after the measured phase, runs
operations in a closed loop for at least --seconds of operation time and
at least the workload's minimum count, checks every output, and reports
the end-to-end metrics.  With --trace 1
it sets up once and runs a fixed list of operations twice each, once
untraced and once inside spans, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from itertools import islice
from statistics import median

from spans import Recorder, layer_timings, overhead_share, self_times
from stats import percentile, tail_percentile
from workloads import WORKLOADS

# Set-up runs at least twice and for at least SETUP_S seconds before the
# measured phase, and at least once and for SETUP_S seconds after it;
# setup_s is the median of them all.  Cheap set-ups thus repeat more often,
# and the samples span the whole run, whose machine can change speed.
SETUP_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# Public functions timed in the traced run, by module.
TIMED_CALLS = [
    "tree.parse_tree", "tree.WeightedTree", "tree.path_tree",
    "tree.check_conditions",
    "euler.build_euler_cycle", "euler.find_subtree", "euler.verify_subtree",
    "planar.parse_graph", "planar.split_by_hamilton", "planar.build_dual_tree",
    "planar.is_three_connected", "planar.find_cycle_near",
    "planar.find_half_cycle_3conn", "planar.subtree_to_cycle",
    "planar.verify_cycle",
    "subsetsum.subset_sum_dense", "subsetsum.partition_dense",
    "subsetsum.subset_sum_via_partition", "subsetsum.verify_witness",
    "cli.process", "cli.json_dumps",
]
BRANCHES = ["dense-interior", "small-interior", "small-exterior", "square-cycle"]

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TIMED_CALLS
       for kind, unit in (("ms", "ms"), ("share", "share"))},
    "tree.parse_tree.self_ms": "ms",
    "tree.parse_tree.self_share": "share",
    "euler.find_subtree.ns_per_step": "ns",
    "euler.find_subtree.steps": "count",
    "euler.result_vertices": "count",
    "euler.steps_per_stop": "steps/stop",
    "planar.dual_search.steps": "count",
    **{f"planar.half3conn.branch.{b}": "count" for b in BRANCHES},
    "subsetsum.applicable_share": "share",
    "cli.import_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "cli.self_reported_ms": "ms",
    "cli.report_bytes": "bytes",
    "bench.op.self_ms": "ms",
    "trace.overhead_share": "share",
}


def run_op(wl, op, rec):
    """One operation: its time, whether its output checked out, and its
    result.  An exception fails the operation and the loop goes on."""
    t0 = time.perf_counter()
    try:
        with rec.span("op"):
            result = wl.run(op, rec)
    except Exception:
        traceback.print_exc()
        return time.perf_counter() - t0, False, None
    elapsed = time.perf_counter() - t0
    try:
        ok = bool(wl.check(op, result, rec))
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"{wl.name}: wrong output for {str(op)[:200]}", file=sys.stderr)
    return elapsed, ok, result


def set_up(wl, times: list[float], reps: int) -> None:
    spent = 0.0
    while reps > 0 or spent < SETUP_S:
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        reps -= 1


def measure(wl, seconds: float) -> dict:
    setups: list[float] = []
    set_up(wl, setups, 2)

    rec = Recorder(enabled=False)
    latencies = []
    failed = 0
    busy = 0.0
    for op in wl.ops():
        elapsed, ok, _ = run_op(wl, op, rec)
        latencies.append(elapsed)
        busy += elapsed
        failed += not ok
        if busy >= seconds and len(latencies) >= wl.min_ops:
            break
    set_up(wl, setups, 1)
    mismatches = wl.crosscheck()
    tail = tail_percentile(latencies, 90)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": len(latencies) / busy,
        "op_ms_p50": percentile(latencies, 50) * 1e3,
        "op_ms_tail": (tail if tail is not None else max(latencies)) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    return {
        "attempted": len(latencies),
        "failed": failed,
        "correct": failed == 0 and mismatches == 0,
        "metrics": metrics,
        "notes": {
            "setups_s": setups,
            "op_ms_tail": f"{'p90' if tail is not None else 'max'} of "
                          f"{len(latencies)} operations",
            "oracle_mismatches": mismatches,
        },
    }


def trace(wl) -> dict:
    wl.setup()
    ops = list(islice(wl.ops(), wl.trace_ops))
    plain, rec = Recorder(enabled=False), Recorder(enabled=True)
    untraced = wall = 0.0
    failed = 0
    # Each operation runs untraced, then traced and split into its calls.
    for op in ops:
        elapsed, ok, _ = run_op(wl, op, plain)
        untraced += elapsed
        failed += not ok
        t0 = time.perf_counter()
        _, ok, result = run_op(wl, op, rec)
        failed += not ok
        if ok:
            wl.split(op, result, rec)
        wall += time.perf_counter() - t0

    c = rec.counts
    m = {name: 0.0 for name in PER_LAYER}
    m.update(layer_timings(rec, TIMED_CALLS, wall))
    m["tree.parse_tree.self_ms"] = m["tree.parse_tree.ms"] - m["tree.WeightedTree.ms"]
    m["tree.parse_tree.self_share"] = (
        m["tree.parse_tree.share"] - m["tree.WeightedTree.share"])
    if c["euler.sweep.steps"]:
        m["euler.find_subtree.ns_per_step"] = c["euler.sweep.ns"] / c["euler.sweep.steps"]
    m["euler.find_subtree.steps"] = c["euler.find_subtree.steps"]
    m["euler.result_vertices"] = c["euler.result_vertices"]
    if c["euler.stops"]:
        m["euler.steps_per_stop"] = c["euler.find_subtree.steps"] / c["euler.stops"]
    m["planar.dual_search.steps"] = c["planar.dual_search.steps"]
    for branch in BRANCHES:
        name = f"planar.half3conn.branch.{branch}"
        m[name] = c[name]
    if c["subsetsum.calls"]:
        m["subsetsum.applicable_share"] = c["subsetsum.applicable"] / c["subsetsum.calls"]
    m.update(wl.trace_extras(rec))
    op_self = [t for s, t in zip(rec.spans, self_times(rec.spans)) if s.name == "op"]
    m["bench.op.self_ms"] = median(op_self) * 1e3
    traced = sum(rec.durations("op"))
    m["trace.overhead_share"] = overhead_share(traced, untraced)
    return {
        "attempted": 2 * len(ops),
        "failed": failed,
        "correct": failed == 0,
        "metrics": m,
        "notes": {"trace_ops": len(ops), "traced_wall_s": wall,
                  "untraced_op_s": untraced, "traced_op_s": traced},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        out = trace(wl) if args.trace else measure(wl, args.seconds)
        out["info"] = {"seed": args.seed, "scale": args.scale, **wl.info()}
    finally:
        wl.close()
    units = PER_LAYER if args.trace else END_TO_END
    out["metrics"] = {name: {"value": out["metrics"][name], "unit": unit}
                      for name, unit in units.items()}
    out["workload"] = wl.name
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
