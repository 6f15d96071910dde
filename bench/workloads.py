"""The four benchmark workloads.

Each workload generates its inputs from the seed with treewindow.generators
during set-up, then yields a deterministic stream of operations.  `run` is
the timed part of one operation; `check` verifies its output outside the
timed region; `split` runs only in the traced run and calls the public
functions an operation is made of, one by one, so their spans show where
the operation's time goes.  Every call into the program goes through a
Recorder, which times it when tracing is on.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from treewindow import (
    NOT_APPLICABLE,
    Decision,
    SubsetWitness,
    WeightedTree,
    WeightExceedsTargetError,
    achievable_subtree_weights,
    build_dual_tree,
    build_euler_cycle,
    check_conditions,
    cycle_search_guaranteed,
    find_cycle_near,
    find_half_cycle_3conn,
    find_subtree,
    generators,
    is_three_connected,
    oracle_subset_sum,
    parse_graph,
    parse_tree,
    partition_dense,
    path_tree,
    serialize_graph,
    serialize_tree,
    split_by_hamilton,
    subset_sum_dense,
    subset_sum_via_partition,
    subtree_to_cycle,
    verify_cycle,
    verify_subtree,
    verify_witness,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"

GOLDEN = 0.6180339887498949


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:12]


class Weyl:
    """The stream u, u + phi, u + 2 phi, ... (mod 1) from a random start.
    Every prefix covers [0, 1) almost evenly, so the share of cheap and
    costly operations in a run hardly depends on the seed or on how many
    operations the run completes."""

    def __init__(self, rng: random.Random):
        self.u = rng.random()

    def __call__(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.u


def blocks(rng: random.Random, pattern: list):
    """Endless stream of pattern's items, each block a fresh shuffle, so
    the mix is exact over every whole block."""
    while True:
        block = list(pattern)
        rng.shuffle(block)
        yield from block


def search(rec, tree, k: int, g: int, stops: int, **kwargs):
    """find_subtree inside a span, with the counts its result carries.
    stops is the length of the tree's closed walk."""
    found = rec.call("euler.find_subtree", find_subtree, tree, k, g, **kwargs)
    rec.count("euler.stops", stops)
    if found is not None and rec.enabled:
        rec.count("euler.find_subtree.steps", found.steps)
        rec.count("euler.result_vertices", len(found.vertices))
        if 10 * found.steps >= stops:
            # A sweep-dominated call: most of its time is pointer moves.
            rec.count("euler.sweep.steps", found.steps)
            rec.count("euler.sweep.ns", round(rec.spans[-1].duration * 1e9))
    return found


class Workload:
    name = ""
    min_ops = 100  # the measured phase runs at least this many operations
    trace_ops = 0  # operations in the traced run

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.ops_rng = random.Random(f"{self.name}:{seed}:ops")

    def peak_rss_mb(self) -> float:
        """This process's peak RSS, generated inputs included."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def crosscheck(self) -> int:
        """Mismatches against the exhaustive oracles on small instances."""
        return 0

    def split(self, op, result, rec) -> None:
        pass

    def trace_extras(self, rec) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# tree-cli-1m
# ---------------------------------------------------------------------------


def run_child(cmd: list[str], stdout) -> tuple[int, int]:
    """Run cmd to completion; return its exit code and its own peak RSS in
    KiB.  wait4 reports the usage of exactly the child it reaps, where
    RUSAGE_CHILDREN would give the largest of every child reaped so far.
    The child inherits PYTHONPATH, which points at the checkout's src/."""
    proc = subprocess.Popen(cmd, stdout=stdout, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


class TreeCli(Workload):
    """One client in a closed loop: each operation is one
    `treewindow find-subtree FILE k 1 --json` process on a random tree."""

    name = "tree-cli-1m"
    min_ops = 1
    trace_ops = 1

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.n = {"full": 10**6, "tiny": 2000}[scale]
        WORK.mkdir(exist_ok=True)
        self.path = WORK / f"tree-{os.getpid()}.txt"
        self.out = WORK / f"report-{os.getpid()}.json"
        self.tree = None
        self.reference = None
        self.child_peaks_kb: list[int] = []
        self.reports: list[dict] = []

    def setup(self) -> None:
        self.tree = None
        tree = generators.random_tree(self.n, 9, self.seed)
        text = serialize_tree(tree)
        self.path.write_text(text)
        self.k = tree.total_weight // 3
        self.digest = digest(text)
        self.file_bytes = len(text)
        del text
        self.tree = tree
        # Warm the bytecode cache and the page cache for the CLI's imports.
        code, _ = run_child([sys.executable, "-c", "import treewindow.cli"], None)
        if code != 0:
            raise RuntimeError("cannot import treewindow.cli")

    def info(self) -> dict:
        return {"n": self.n, "k": self.k, "g": 1, "file_bytes": self.file_bytes,
                "digest": self.digest}

    def ops(self):
        while True:
            yield "find-subtree"

    def run(self, op, rec):
        cmd = [sys.executable, "-m", "treewindow.cli", "find-subtree",
               str(self.path), str(self.k), "1", "--json"]
        with open(self.out, "wb") as out:
            code, peak_kb = rec.call("cli.process", run_child, cmd, out)
        self.child_peaks_kb.append(peak_kb)
        return code

    def check(self, op, code, rec) -> bool:
        if self.reference is None:
            # The same search in-process on the generated tree.
            found = find_subtree(self.tree, self.k, 1)
            self.reference = ("found", found.weight, list(found.window))
            self.tree = None
        if code != 0:
            return False
        raw = self.out.read_bytes()
        report = json.loads(raw)
        self.reports.append({"bytes": len(raw), "ms": report["wall_time_ms"]})
        payload = report["payload"] or {}
        got = (report["outcome"], payload.get("weight"), payload.get("window"))
        return got == self.reference and report["input_digest"] == self.digest

    def split(self, op, code, rec) -> None:
        text = self.path.read_text()
        tree = rec.call("tree.parse_tree", parse_tree, text)
        del text
        rec.call("tree.WeightedTree", WeightedTree, tree.weights, tree.adjacency)
        cycle = rec.call("euler.build_euler_cycle", build_euler_cycle, tree)
        found = search(rec, tree, self.k, 1, len(cycle), cycle=cycle)
        del cycle
        rec.call("euler.verify_subtree", verify_subtree, tree, found, self.k, 1)
        rec.call("cli.json_dumps", cli_report_json, found)

    def peak_rss_mb(self) -> float:
        return max(self.child_peaks_kb) / 1024

    def trace_extras(self, rec) -> dict[str, float]:
        imports = []
        for _ in range(5):
            t0 = time.perf_counter()
            run_child([sys.executable, "-c", "import treewindow.cli"], None)
            imports.append(time.perf_counter() - t0)
        in_process = sum(sum(rec.durations(name)) for name in CLI_WORK_SPANS)
        ops = rec.durations("cli.process")
        return {
            "cli.import_ms": median(imports) * 1e3,
            "cli.process_overhead_ms": (sum(ops) - in_process) / len(ops) * 1e3,
            "cli.self_reported_ms": median([r["ms"] for r in self.reports]),
            "cli.report_bytes": median([r["bytes"] for r in self.reports]),
        }

    def close(self) -> None:
        for path in (self.path, self.out):
            path.unlink(missing_ok=True)


# What the CLI process does for one find-subtree, as in-process spans.
CLI_WORK_SPANS = ("tree.parse_tree", "euler.build_euler_cycle",
                  "euler.find_subtree", "euler.verify_subtree", "cli.json_dumps")


def cli_report_json(found) -> str:
    """The JSON the CLI prints for a found subtree."""
    return json.dumps({
        "subcommand": "find-subtree", "input_digest": "", "outcome": "found",
        "payload": {"weight": found.weight, "vertices": sorted(found.vertices),
                    "window": list(found.window)},
        "step_count": found.steps, "wall_time_ms": 0.0,
    }, sort_keys=True)


# ---------------------------------------------------------------------------
# tree-queries
# ---------------------------------------------------------------------------


class TreeQueries(Workload):
    """Repeated queries against one tree and its prebuilt closed walk."""

    name = "tree-queries"
    trace_ops = 20

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.n = {"full": 3 * 10**5, "tiny": 3000}[scale]

    def setup(self) -> None:
        self.tree = self.cycle = None
        self.tree = generators.random_tree(self.n, 9, self.seed)
        self.cycle = build_euler_cycle(self.tree)
        find_subtree(self.tree, 10, 1, cycle=self.cycle)

    def info(self) -> dict:
        weights = np.asarray(self.tree.weights, dtype=np.int64)
        walk = np.asarray(self.cycle.vertices, dtype=np.int64)
        return {"n": self.n, "total_weight": self.tree.total_weight,
                "digest": digest(weights.tobytes() + walk.tobytes())}

    def ops(self):
        rng = self.ops_rng
        total = self.tree.total_weight
        stops = len(self.cycle)
        small, large = Weyl(rng), Weyl(rng)
        for is_large in blocks(rng, [True] * 3 + [False] * 7):
            if is_large:
                k = total // 10 + int(large() * (total // 2 - total // 10))
            else:
                k = 10 + int(small() * 991)
            yield k, rng.choice((1, 8)), rng.randrange(stops)

    def run(self, op, rec):
        k, g, start = op
        return search(rec, self.tree, k, g, len(self.cycle),
                      start=start, cycle=self.cycle)

    def check(self, op, found, rec) -> bool:
        k, g, _ = op
        report = rec.call("tree.check_conditions", check_conditions, self.tree, k, g)
        if found is None:
            return not report.overall
        return rec.call("euler.verify_subtree", verify_subtree, self.tree, found, k, g)

    def crosscheck(self) -> int:
        rng = random.Random(f"{self.name}:{self.seed}:oracle")
        bad = 0
        for i in range(12):
            tree = generators.random_tree(20 + 5 * i, 9, rng.randrange(1 << 30))
            weights = achievable_subtree_weights(tree)
            for _ in range(5):
                g = rng.choice((1, 2, 8))
                k = rng.randint(9, tree.total_weight)
                start = rng.randrange(2 * tree.n_vertices - 2)
                window = set(range(k - g + 1, k + 1))
                guaranteed = check_conditions(tree, k, g).overall
                try:
                    found = find_subtree(tree, k, g, start=start)
                except AssertionError:  # the program's own guarantee check
                    bad += 1
                    continue
                if found is None:
                    bad += guaranteed
                else:
                    bad += found.weight not in weights or found.weight not in window
                bad += guaranteed and not window & weights
        return bad


# ---------------------------------------------------------------------------
# subset-dense
# ---------------------------------------------------------------------------


def dense_values(rng: random.Random, n: int) -> list[int]:
    """n values of 1 and 2 with total at most 2n - 2 and even."""
    vals = [rng.choice((1, 2)) for _ in range(n)]
    if sum(vals) % 2:
        vals[rng.randrange(n)] ^= 3  # 1 <-> 2 flips the parity
    while sum(vals) > 2 * n - 2:
        vals[vals.index(2)] = 1
        vals[vals.index(2)] = 1
    return vals


def subset_instance(rng: random.Random, solver: str, n: int, special: str | None):
    """One instance (solver, values, k, expected outcome).  special is None
    for an instance inside the solver's threshold, else "na" (outside it)
    or "no" (the via-partition false fast path)."""
    vals = dense_values(rng, n)
    total = sum(vals)
    if solver == "dense":
        if special == "na":
            return solver, tuple(vals), total - n, "na"
        return solver, tuple(vals), rng.randint(max(2, total - n + 1), n), "yes"
    if solver == "partition":
        if special == "na":
            heavy = [3 if v == 1 else 4 for v in vals]  # total > 2n - 2, even
            return solver, tuple(heavy), 0, "na"
        return solver, tuple(vals), total // 2, "yes"
    if special == "no":
        # n - 1 ones and one n + 1 with k = n: within the threshold, but the
        # big element rules a subset of sum k out.
        ones = [1] * n
        ones[rng.randrange(n)] = n + 1
        return solver, tuple(ones), n, "no"
    if special == "na":
        return solver, tuple(vals), total - n - 1, "na"
    return solver, tuple(vals), rng.randint(total - n, total // 2), "yes"


class SubsetDense(Workload):
    """Dense SubsetSum and Partition instances of log-uniform size."""

    name = "subset-dense"
    trace_ops = 60
    SOLVERS = ("dense", "partition", "via")
    # One instance in ten lies outside its threshold or takes the false path.
    SPECIALS = (("dense", "na"), ("partition", "na"), ("via", "na"), ("via", "no"))

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        self.pool_size, self.lo, self.hi = {
            "full": (240, 100, 10**4), "tiny": (24, 20, 200)}[scale]

    def setup(self) -> None:
        rng = random.Random(f"{self.name}:{self.seed}")
        size = Weyl(rng)
        ratio = self.hi / self.lo
        pool = []
        for i in range(self.pool_size):
            n = round(self.lo * ratio ** size())
            if i % 10 == 9:
                solver, special = self.SPECIALS[(i // 10) % len(self.SPECIALS)]
            else:
                solver, special = self.SOLVERS[i % 3], None
            pool.append(subset_instance(rng, solver, n, special))
        self.pool = pool

    def info(self) -> dict:
        sizes = [len(inst[1]) for inst in self.pool]
        return {"instances": len(self.pool), "n_min": min(sizes),
                "n_max": max(sizes), "values": sum(sizes),
                "digest": digest(repr(self.pool))}

    def ops(self):
        order = list(range(len(self.pool)))
        while True:
            self.ops_rng.shuffle(order)
            for i in order:
                yield self.pool[i]

    def run(self, op, rec):
        solver, vals, k, _ = op
        if solver == "dense":
            return rec.call("subsetsum.subset_sum_dense", subset_sum_dense, vals, k)
        if solver == "partition":
            return rec.call("subsetsum.partition_dense", partition_dense, vals)
        return rec.call("subsetsum.subset_sum_via_partition",
                        subset_sum_via_partition, vals, k)

    def check(self, op, result, rec) -> bool:
        solver, vals, k, expect = op
        rec.count("subsetsum.calls")
        if result is NOT_APPLICABLE:
            return expect == "na"
        rec.count("subsetsum.applicable")
        if isinstance(result, Decision):
            if not result.value:
                return expect == "no" and result.witness is None
            result = result.witness
        if expect != "yes" or not isinstance(result, SubsetWitness):
            return False
        return rec.call("subsetsum.verify_witness", verify_witness, vals, result, k)

    def split(self, op, result, rec) -> None:
        solver, vals, k, expect = op
        if expect != "yes":
            return
        if solver == "via" and sum(vals) != 2 * k:
            # The reduction adds one element and solves Partition.
            vals = vals + (sum(vals) - 2 * k,)
            k = sum(vals) // 2
        tree = rec.call("tree.path_tree", path_tree, vals)
        rec.call("tree.check_conditions", check_conditions, tree, k, 1)
        cycle = rec.call("euler.build_euler_cycle", build_euler_cycle, tree)
        search(rec, tree, k, 1, len(cycle), cycle=cycle)

    def crosscheck(self) -> int:
        bad = checked = 0
        for solver, vals, k, expect in self.pool:
            if expect == "na" or len(vals) > 200 or checked == 20:
                continue
            checked += 1
            witness = oracle_subset_sum(vals, k)
            bad += (witness is not None) != (expect == "yes")
        return bad


# ---------------------------------------------------------------------------
# cycle-planar
# ---------------------------------------------------------------------------

FAMILIES = (
    ("square-cycle-fanned", generators.square_cycle_fanned),
    ("small-face-ring", generators.small_face_ring),
    ("square-cycle", generators.square_cycle),
)
# The rotations of families for the two kinds of search.  A fanned graph
# has a dual twice as large as the others, and its half-length search costs
# the most, so some families come twice: the median then falls inside the
# fanned near-k searches and the p90 inside the small-face-ring half-length
# searches, not on the edge between two families.
NEAR_FAMILIES = ("square-cycle-fanned", "small-face-ring",
                 "square-cycle-fanned", "square-cycle")
HALF_FAMILIES = ("square-cycle-fanned", "small-face-ring",
                 "square-cycle", "small-face-ring")


class CyclePlanar(Workload):
    """parse_graph then a cycle search, on plane hamiltonian graphs."""

    name = "cycle-planar"
    # Twice the count a p90 needs: its operations are cheap to set up, and a
    # longer run averages more of the machine's swings in speed.
    min_ops = 200
    trace_ops = 12

    def __init__(self, seed: int, scale: str):
        super().__init__(seed, scale)
        # n must be even and a multiple of 6 for small_face_ring.
        self.near_n, self.half_n = {"full": (3000, 96), "tiny": (60, 24)}[scale]

    def setup(self) -> None:
        self.texts = {}
        self.near_edges = {}
        for family, make in FAMILIES:
            for kind, n in (("near", self.near_n), ("half", self.half_n)):
                text = serialize_graph(*make(n))
                graph, _ = parse_graph(text)  # warms the parse
                self.texts[family, kind] = text
                if kind == "near":
                    self.near_edges[family] = graph.n_edges

    def info(self) -> dict:
        return {"near_n": self.near_n, "half_n": self.half_n,
                "digests": {f"{f}/{kind}": digest(t)
                            for (f, kind), t in self.texts.items()}}

    def band(self, family: str, g: int) -> tuple[int, int] | None:
        """The k interval where cycle_search_guaranteed holds, if any."""
        n, m = self.near_n, self.near_edges[family]
        lo, hi = max(3, (3 * n - m) // 2), min(n, (m - n + 4 * g + 3) // 2)
        while lo <= hi and not cycle_search_guaranteed(n, m, lo, g):
            lo += 1
        while hi >= lo and not cycle_search_guaranteed(n, m, hi, g):
            hi -= 1
        return (lo, hi) if lo <= hi else None

    def ops(self):
        rng = self.ops_rng
        inside, anywhere = Weyl(rng), Weyl(rng)
        in_band = blocks(rng, [True] * 3 + [False])
        near_count = half_count = 0
        for kind in blocks(rng, ["near"] * 3 + ["half"]):
            if kind == "half":
                family = HALF_FAMILIES[half_count % 4]
                half_count += 1
                yield family, "half", None, None
                continue
            family = NEAR_FAMILIES[near_count % 4]
            g = (1, 4)[near_count // 4 % 2]
            near_count += 1
            band = self.band(family, g)
            if band and next(in_band):
                k = band[0] + int(inside() * (band[1] - band[0] + 1))
            else:
                k = 3 + int(anywhere() * (self.near_n - 2))
            yield family, "near", k, g

    def run(self, op, rec):
        family, kind, k, g = op
        graph, ham = rec.call("planar.parse_graph", parse_graph, self.texts[family, kind])
        if kind == "near":
            cycle = rec.call("planar.find_cycle_near", find_cycle_near, graph, ham, k, g)
        else:
            cycle = rec.call("planar.find_half_cycle_3conn", find_half_cycle_3conn,
                             graph, ham)
        return graph, ham, cycle

    def check(self, op, result, rec) -> bool:
        family, kind, k, g = op
        graph, _, cycle = result
        n = graph.n_vertices
        if cycle is None:
            return kind == "near" and not cycle_search_guaranteed(n, graph.n_edges, k, g)
        if kind == "near":
            in_range = k - g + 1 <= cycle.length <= k
        else:
            in_range = cycle.length in (n // 2 - 1, n // 2 - 2)
        return in_range and rec.call("planar.verify_cycle", verify_cycle, graph, cycle)

    def split(self, op, result, rec) -> None:
        family, kind, k, g = op
        graph, ham, _ = result
        n = graph.n_vertices
        if kind == "half":
            rec.call("planar.is_three_connected", is_three_connected, graph)
        split = rec.call("planar.split_by_hamilton", split_by_hamilton, graph, ham)
        dual = rec.call("planar.build_dual_tree", build_dual_tree, graph, ham, "interior")
        if kind == "near":
            target, slack = k - 2, g
        else:
            # The decision tree of find_half_cycle_3conn, read from outside.
            target = cap = n // 2 - 3
            if n + len(split.interior) > 3 * n // 2:
                branch, slack = "dense-interior", 1
            elif max(dual.tree.weights) <= cap:
                branch, slack = "small-interior", 2
            else:
                dual = rec.call("planar.build_dual_tree", build_dual_tree,
                                graph, ham, "exterior")
                if max(dual.tree.weights) <= cap:
                    branch, slack = "small-exterior", 2
                else:
                    branch = "square-cycle"
            rec.count(f"planar.half3conn.branch.{branch}")
            if branch == "square-cycle":
                return
        try:
            found = search(rec, dual.tree, target, slack, 2 * dual.tree.n_vertices - 2)
        except WeightExceedsTargetError:
            found = None
        if found is not None:
            rec.count("planar.dual_search.steps", found.steps)
            rec.call("planar.subtree_to_cycle", subtree_to_cycle, dual, found.vertices)



WORKLOADS = {w.name: w for w in (TreeCli, TreeQueries, SubsetDense, CyclePlanar)}
