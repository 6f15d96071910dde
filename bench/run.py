"""treewindow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
src/.  NAME is one of the workloads below, or `all` to run each in turn.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only if every operation's output checked out.  See
bench/NOTES.md for the workloads and what each metric means.

Each workload runs in a fresh worker process (bench/worker.py), so its
peak RSS is its own.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from stats import fail_share

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ["tree-cli-1m", "tree-queries", "subset-dense", "cycle-planar"]
# Each invocation must end within 180 s.
WORKER_TIMEOUT_S = 170


def run_worker(args, workload: str) -> dict | None:
    """The worker's result, or None if it failed or ran out of time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # A session of its own, so a timeout can stop the CLI children too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: no result within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def show(result: dict) -> None:
    print(f"== {result['workload']}  {json.dumps(result['info'])}")
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_share':44s} {fail_share(failed, attempted):14.6g} share"
          f"  ({failed} of {attempted} operations)")
    print(f"  notes {json.dumps(result['notes'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="operation time to measure per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "treewindow" / "__init__.py").is_file():
        print(f"error: no treewindow sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_worker(args, name)
        if result is None:
            return 1
        show(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
