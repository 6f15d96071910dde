"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The last tests run every workload at tiny sizes through bench/run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Recorder, Span, layer_timings, overhead_share, self_times
from stats import fail_share, min_samples_for, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ["euler.find_subtree.steps", "euler.result_vertices",
          "euler.steps_per_stop", "planar.dual_search.steps",
          "subsetsum.applicable_share"]


# --- percentiles -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    assert tail_percentile(list(range(99)), 90) is None
    samples = list(range(100, 0, -1))
    p90 = tail_percentile(samples, 90)
    assert p90 == 90
    assert sum(s > p90 for s in samples) == 10


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 100)


# --- fail_share ------------------------------------------------------------


def test_fail_share_counts_failed_over_attempted():
    assert fail_share(0, 7) == 0
    assert fail_share(2, 8) == 0.25
    assert fail_share(3, 3) == 1
    with pytest.raises(ValueError):
        fail_share(0, 0)
    with pytest.raises(ValueError):
        fail_share(4, 3)


# --- spans -----------------------------------------------------------------


def test_self_time_subtracts_the_covered_part_of_child_spans():
    spans = [
        Span("op", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("a.inner", 1.5, 2.5, 1),  # a grandchild: only its parent counts
        Span("b", 2.0, 4.0, 0),  # overlaps a: the union is subtracted once
        Span("c", 9.0, 12.0, 0),  # runs past its parent: clipped at 10
        Span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1, 1.0, 1.0, 2.0, 3.0, 1.0])


def test_recorder_nests_spans_and_disabled_records_nothing():
    rec = Recorder()
    with rec.span("op"):
        assert rec.call("x", lambda a, b=0: a + b, 2, b=3) == 5
    rec.count("steps", 4)
    assert [(s.name, s.parent) for s in rec.spans] == [("op", -1), ("x", 0)]
    assert rec.spans[0].start <= rec.spans[1].start <= rec.spans[1].end <= rec.spans[0].end
    assert rec.counts["steps"] == 4

    off = Recorder(enabled=False)
    with off.span("op"):
        assert off.call("x", max, 1, 7) == 7
    off.count("steps", 4)
    assert off.spans == [] and not off.counts


def test_layer_timings_report_median_and_share():
    rec = Recorder()
    rec.spans = [Span("f", 0.0, 0.001, -1), Span("f", 1.0, 1.003, -1),
                 Span("f", 2.0, 2.002, -1)]
    out = layer_timings(rec, ["f", "g"], wall_s=0.012)
    assert out["f.ms"] == pytest.approx(2.0)
    assert out["f.share"] == pytest.approx(0.5)
    assert out["g.ms"] == 0 and out["g.share"] == 0


def test_overhead_share():
    assert overhead_share(1.1, 1.0) == pytest.approx(0.1)
    assert overhead_share(0.9, 1.0) == pytest.approx(-0.1)
    with pytest.raises(ValueError):
        overhead_share(1.0, 0.0)


# --- the whole benchmark at tiny sizes -------------------------------------


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--scale", "tiny", "--seconds", "0.2",
           *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def workload_results(stdout: str) -> dict[str, dict]:
    last = json.loads(stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    out: dict[str, dict] = {}
    for key, metric in last["metrics"].items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = metric
    return last, out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_pass_prints_every_metric_with_its_unit(trace, section):
    proc = run_bench("--workload", "all", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    last, results = workload_results(proc.stdout)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4
    assert sorted(results) == sorted(w["name"] for w in SPEC["workloads"])
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, metrics in results.items():
        assert {n: m["unit"] for n, m in metrics.items()} == units, workload
    for name, unit in units.items():
        assert sum(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()) == len(results), name
    assert proc.stdout.count("fail_share") == len(results)


def test_counts_repeat_for_a_seed():
    runs = [run_bench("--workload", "all", "--seed", "5", "--trace", "1")
            for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        _, results = workload_results(proc.stdout)
        counts.append({(w, n): m["value"] for w, ms in results.items()
                       for n, m in ms.items()
                       if n in COUNTS or n.startswith("planar.half3conn.branch.")})
    assert counts[0] == counts[1]
    assert counts[0]["cycle-planar", "planar.half3conn.branch.square-cycle"] >= 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "subset-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
