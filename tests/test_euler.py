"""Closed walk construction and the windowed subtree search."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treewindow

from treewindow import (
    TIGHT_FAMILIES,
    DegenerateTreeError,
    SubtreeResult,
    WeightExceedsTargetError,
    WeightedTree,
    achievable_subtree_weights,
    build_euler_cycle,
    check_conditions,
    find_subtree,
    path_tree,
    star_tree,
    tight_instance,
    verify_subtree,
)
from treewindow.euler import _MAX_CHUNK
from treewindow.generators import random_tree

from helpers import oracle_find_subtree, walk_rotation

PROPERTY_SETTINGS = settings(max_examples=260, deadline=None)


@st.composite
def weighted_trees(draw, min_n: int = 1, max_n: int = 9, max_weight: int = 6):
    n = draw(st.integers(min_n, max_n))
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        adjacency[p].append(v)
        adjacency[v].append(p)
    weights = tuple(draw(st.integers(1, max_weight)) for _ in range(n))
    return WeightedTree(weights, tuple(tuple(row) for row in adjacency))


def window_stops(s: int, t: int, length: int) -> list[int]:
    if s <= t:
        return list(range(s, t + 1))
    return list(range(s, length)) + list(range(0, t + 1))


def is_connected_in(tree: WeightedTree, vertices: set[int]) -> bool:
    root = next(iter(vertices))
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in tree.adjacency[v]:
            if u in vertices and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == vertices


class TestEulerCycle:
    def test_three_vertex_path(self):
        cycle = build_euler_cycle(path_tree((1, 2, 1)))
        assert cycle.vertices.tolist() == [0, 1, 2, 1]
        assert walk_rotation(cycle) == [0, 1, 0, 0]

    def test_single_vertex_refused(self):
        with pytest.raises(DegenerateTreeError):
            build_euler_cycle(WeightedTree((1,), ((),)))

    @PROPERTY_SETTINGS
    @given(weighted_trees(min_n=2))
    def test_walk_invariants(self, tree):
        cycle = build_euler_cycle(tree)
        n = tree.n_vertices
        length = len(cycle)
        assert length == 2 * (n - 1)

        # each stop leaves along a real dart, the rotation successor of the
        # dart it arrived by
        darts = set()
        for i, r in enumerate(walk_rotation(cycle)):
            v = cycle.vertices[i]
            back = tree.adjacency[v].index(cycle.vertices[i - 1])
            assert r == (back + 1) % tree.degree(v)
            darts.add((v, r))
        # every dart exactly once
        assert len(darts) == length

        # multiplicity of each vertex equals its degree
        for v in range(n):
            assert cycle.vertices.tolist().count(v) == tree.degree(v)


class TestFindSubtree:
    def test_path_exact(self):
        t = path_tree((1, 2, 1, 2, 1, 2, 1))
        res = find_subtree(t, 5, 1)
        assert res is not None
        assert res.weight == 5
        assert verify_subtree(t, res, 5, 1)

    def test_single_vertex_hit_and_miss(self):
        t = WeightedTree((4,), ((),))
        res = find_subtree(t, 5, 2)
        assert res is not None and res.vertices == {0} and res.steps == 0
        assert res.ids.tolist() == [0] and res.ids.dtype == np.int64
        assert find_subtree(t, 5, 1) is None

    @pytest.mark.parametrize("start", [1, 5, -1])
    def test_single_vertex_start_checked(self, start):
        t = WeightedTree((3,), ((),))
        with pytest.raises(ValueError, match=rf"start stop {start} out of range 0\.\.0"):
            find_subtree(t, 3, 1, start=start)
        assert find_subtree(t, 3, 1, start=0).weight == 3

    def test_overweight_vertex_refused(self):
        with pytest.raises(WeightExceedsTargetError):
            find_subtree(path_tree((5, 1)), 3, 1)

    def test_bad_arguments(self):
        t = path_tree((1, 1))
        with pytest.raises(ValueError):
            find_subtree(t, 0, 1)
        with pytest.raises(ValueError):
            find_subtree(t, 1, 0)
        with pytest.raises(ValueError):
            find_subtree(t, 2, 1, start=7)

    def test_prebuilt_cycle_reused(self):
        t = path_tree((1, 2, 1, 2, 1))
        cycle = build_euler_cycle(t)
        a = find_subtree(t, 4, 1)
        b = find_subtree(t, 4, 1, cycle=cycle)
        assert a == b

    def test_walk_of_another_tree_refused(self):
        # Every condition flag holds here, so pairing the tree with the
        # shorter walk of another tree must not end in a silent None.
        tree = path_tree((1,) * 4)
        assert check_conditions(tree, 3, 1).overall
        with pytest.raises(ValueError, match="another tree"):
            find_subtree(tree, 3, 1, cycle=build_euler_cycle(path_tree((1, 1))))
        # a single vertex has no walk of its own to pair with
        with pytest.raises(ValueError, match="another tree"):
            find_subtree(WeightedTree((3,), ((),)), 3, 1, cycle=build_euler_cycle(tree))

    def test_walk_of_same_size_tree_refused(self):
        # Both walks have six stops, so only the tie to its tree tells them apart.
        with pytest.raises(ValueError, match="another tree"):
            find_subtree(path_tree((1,) * 4), 2, 1, start=5,
                         cycle=build_euler_cycle(star_tree(1, (1, 1, 1))))

    def test_tight_star_misses_window(self):
        inst = tight_instance("star_gh", 2)
        assert find_subtree(inst.tree, inst.k, inst.g) is None
        window = set(range(inst.k - inst.g + 1, inst.k + 1))
        assert not window & achievable_subtree_weights(inst.tree)

    def test_tight_paths_miss_window(self):
        for family, p, q in (("path_lower", 2, 1), ("path_upper", 2, None)):
            inst = tight_instance(family, p, q)
            assert find_subtree(inst.tree, inst.k, inst.g) is None
            window = set(range(inst.k - inst.g + 1, inst.k + 1))
            assert not window & achievable_subtree_weights(inst.tree)

    def test_tight_cap_raises(self):
        inst = tight_instance("star_cap", 3, 3)
        with pytest.raises(WeightExceedsTargetError):
            find_subtree(inst.tree, inst.k, inst.g)


def result_of(ids, weight: int) -> SubtreeResult:
    return SubtreeResult(np.array(ids, dtype=np.int64), weight, (0, 0), 0)


class TestVerifySubtree:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_connectivity_matches_reference(self, data):
        tree = data.draw(weighted_trees())
        chosen = data.draw(st.sets(st.integers(0, tree.n_vertices - 1), min_size=1))
        weight = sum(tree.weights[v] for v in chosen)
        result = result_of(sorted(chosen), weight)
        assert verify_subtree(tree, result, weight, 1) == is_connected_in(tree, chosen)

    def test_rejects_wrong_weight_and_range(self):
        tree = path_tree((1, 2, 1))
        assert not verify_subtree(tree, result_of([0, 1], 4), 4, 1)
        assert not verify_subtree(tree, result_of([0, 1], 3), 5, 1)
        assert not verify_subtree(tree, result_of([3], 1), 1, 1)

    @pytest.mark.parametrize("ids", [
        [1, 0],  # unsorted
        [0, 1, 1],  # duplicate
        [-2, 0],  # negative: tree.weights[-2] is vertex 1's weight
        [1, 3],  # out of range
        np.array([0.0, 1.0]),  # float
        np.array([True, True]),  # bool
        np.array([[0, 1]]),  # not flat
        [],  # empty
    ], ids=["unsorted", "duplicate", "negative", "out-of-range", "float", "bool",
            "2d", "empty"])
    def test_rejects_malformed_ids(self, ids):
        # Vertices 0 and 1 weigh 3 together; only the form of ids is wrong.
        tree = path_tree((1, 2, 1))
        assert verify_subtree(tree, result_of([0, 1], 3), 3, 1)
        ids = ids if isinstance(ids, np.ndarray) else np.array(ids, dtype=np.int64)
        assert not verify_subtree(tree, SubtreeResult(ids, 3, (0, 0), 0), 3, 1)

    def test_rejects_ids_that_are_not_an_array(self):
        tree = path_tree((1, 2, 1))
        assert not verify_subtree(tree, SubtreeResult([0, 1], 3, (0, 0), 0), 3, 1)


class TestSubtreeResult:
    @pytest.fixture(scope="class")
    def found(self):
        tree = random_tree(2000, 9, 4)
        found = find_subtree(tree, tree.total_weight // 3, 1, start=99)
        assert found is not None and len(found.ids) > 100
        return found

    def test_ids_are_a_sorted_read_only_int64_set(self, found):
        ids = found.ids
        assert ids.dtype == np.int64 and ids.ndim == 1
        assert (np.diff(ids) > 0).all()
        assert not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[0] = 0

    def test_vertices_view(self, found):
        assert found.vertices == frozenset(found.ids.tolist())
        assert json.dumps(sorted(found.vertices)) == json.dumps(found.ids.tolist())

    def test_equal_and_hash_by_value(self, found):
        twin = SubtreeResult(found.ids.copy(), found.weight, found.window, found.steps)
        assert twin == found and hash(twin) == hash(found)
        assert len({twin, found}) == 1
        for other in (SubtreeResult(found.ids[1:], found.weight, found.window, found.steps),
                      SubtreeResult(found.ids, found.weight + 1, found.window, found.steps),
                      SubtreeResult(found.ids, found.weight, found.window, found.steps + 1)):
            assert other != found
        assert hash(SubtreeResult(found.ids[1:], found.weight, found.window,
                                  found.steps)) != hash(found)
        assert found != found.vertices


class TestSearchProperties:
    @PROPERTY_SETTINGS
    @given(weighted_trees(), st.data())
    def test_guaranteed_inputs_succeed(self, tree, data):
        k = data.draw(st.integers(1, tree.total_weight), label="k")
        g = data.draw(st.integers(1, 4), label="g")
        report = check_conditions(tree, k, g)
        if not report.overall:
            return
        start = 0
        if tree.n_vertices > 1:
            start = data.draw(
                st.integers(0, 2 * (tree.n_vertices - 1) - 1), label="start"
            )
        res = find_subtree(tree, k, g, start=start)
        assert res is not None
        assert verify_subtree(tree, res, k, g)
        assert res.steps <= 3 * 2 * (tree.n_vertices - 1)

    @PROPERTY_SETTINGS
    @given(weighted_trees(), st.data())
    def test_any_result_verifies(self, tree, data):
        k = data.draw(st.integers(max(tree.weights), tree.total_weight), label="k")
        g = data.draw(st.integers(1, 4), label="g")
        res = find_subtree(tree, k, g)
        if res is not None:
            assert verify_subtree(tree, res, k, g)
            assert res.weight in achievable_subtree_weights(tree)

    @PROPERTY_SETTINGS
    @given(weighted_trees(min_n=2, max_n=8), st.data())
    def test_window_trace_is_consistent(self, tree, data):
        """Replay every pointer move: the reported weight must equal the
        weight of the distinct vertices inside the stop window, and that
        vertex set must stay connected."""
        k = data.draw(st.integers(max(tree.weights), tree.total_weight), label="k")
        g = data.draw(st.integers(1, 3), label="g")
        cycle = build_euler_cycle(tree)
        length = len(cycle)
        moves = []
        find_subtree(
            tree, k, g, cycle=cycle,
            on_move=lambda kind, s, t, w: moves.append((kind, s, t, w)),
        )
        for kind, s, t, weight in moves:
            stops = window_stops(s, t, length)
            inside = {cycle.vertices[i] for i in stops}
            assert weight == sum(tree.weights[v] for v in inside)
            assert is_connected_in(tree, inside)


@st.composite
def search_inputs(draw):
    """A tree from one of the package's families, and k, g and a start
    stop, k up to a little past the total weight."""
    family = draw(st.sampled_from(("random", "path", "star", "tight")))
    weights = st.lists(st.integers(1, 6), min_size=1, max_size=60)
    if family == "random":
        tree = random_tree(draw(st.integers(1, 60)), draw(st.integers(1, 6)),
                           draw(st.integers(0, 2**20)))
    elif family == "path":
        tree = path_tree(draw(weights))
    elif family == "star":
        w = draw(weights)
        tree = star_tree(w[0], w[1:])
    else:
        name = draw(st.sampled_from(TIGHT_FAMILIES))
        p = draw(st.integers(3, 12))
        q = draw(st.integers(3, p) if name == "star_cap" else st.integers(1, 5))
        tree = tight_instance(name, p, q).tree
    k = draw(st.integers(1, tree.total_weight + 8), label="k")
    g = draw(st.integers(1, 6), label="g")
    start = draw(st.integers(0, max(2 * tree.n_vertices - 3, 0)), label="start")
    return tree, k, g, start


def traced(search, tree, k, g, start):
    """The outcome of one search, or the class of the error it raised,
    and its on_move calls."""
    moves = []
    try:
        outcome = search(tree, k, g, start=start,
                         on_move=lambda *move: moves.append(move))
    except WeightExceedsTargetError as exc:
        outcome = type(exc)
    return outcome, moves


class TestAgainstOracle:
    """The phase sweep makes the same moves as the one-move-at-a-time
    search in tests/helpers.py, event for event."""

    @settings(max_examples=500, deadline=None)
    @given(search_inputs())
    def test_same_result_and_moves(self, case):
        assert traced(find_subtree, *case) == traced(oracle_find_subtree, *case)

    @pytest.fixture(scope="class")
    def big_tree(self):
        return random_tree(20000, 9, 11)

    def test_phase_past_chunk_cap(self, big_tree):
        case = (big_tree, big_tree.total_weight // 2, 1, 7)
        outcome, moves = traced(find_subtree, *case)
        assert (outcome, moves) == traced(oracle_find_subtree, *case)
        grows = [kind == "grow" for kind, *_ in moves]
        assert outcome is not None and all(grows[:_MAX_CHUNK + 1])

    def test_window_wraps_the_walk(self, big_tree):
        length = 2 * (big_tree.n_vertices - 1)
        case = (big_tree, 5000, 1, length - 100)
        outcome, moves = traced(find_subtree, *case)
        assert (outcome, moves) == traced(oracle_find_subtree, *case)
        s, t = outcome.window
        assert t < s and verify_subtree(big_tree, outcome, 5000, 1)

    @pytest.mark.parametrize("start", [0, 1, 97])
    def test_budget_runs_out_past_the_total(self, start):
        tree = random_tree(60, 9, start)
        case = (tree, tree.total_weight + 1, 1, start)
        outcome, moves = traced(find_subtree, *case)
        assert (outcome, moves) == traced(oracle_find_subtree, *case)
        assert outcome is None and len(moves) == 3 * 2 * (tree.n_vertices - 1)


def test_small_query_allocates_little():
    """Once the tree is warm, a small-k search allocates in proportion to
    its window, nothing in proportion to the tree."""
    tree = random_tree(10**5, 9, 3)
    find_subtree(tree, 20, 1)
    tracemalloc.start()
    try:
        for start in range(0, 2 * tree.n_vertices - 2, 19997):
            assert find_subtree(tree, 20, 1, start=start) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_large_query_allocates_little():
    """A large-k answer is one int64 array: no per-vertex Python object is
    built unless a caller reads result.vertices."""
    tree = random_tree(10**5, 9, 3)
    find_subtree(tree, 20, 1)
    tracemalloc.start()
    try:
        found = find_subtree(tree, tree.total_weight // 3, 1, start=12345)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found is not None and len(found.ids) > 20000
    assert peak < 1 << 20


def test_threads_share_a_new_tree():
    """A search only reads its tree, so threads may search one tree at
    once, from its first search on, and get the serial answers."""
    queries = [(k, g, start) for k in (20, 3000, 40000) for g in (1, 8)
               for start in (0, 777, 9001)]
    serial = random_tree(5000, 9, 5)
    expected = [find_subtree(serial, *q[:2], start=q[2]) for q in queries]
    tree = random_tree(5000, 9, 5)
    results = [[] for _ in range(4)]

    def search_all(out):
        out.extend(find_subtree(tree, k, g, start=start) for k, g, start in queries * 5)

    workers = [threading.Thread(target=search_all, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(out == expected * 5 for out in results)


_OPTIMIZED_SWEEP = """
import sys
import treewindow.subsetsum as subsetsum
from treewindow import (InvariantError, SubtreeResult, check_conditions, find_subtree,
                        subset_sum_dense, verify_subtree)
from treewindow.generators import random_tree

if __debug__:
    sys.exit("assertions are on; run with python -O")
searched = 0
for seed in range(120):
    tree = random_tree(2 + seed % 25, 1 + seed % 4, seed)
    for k in range(1, tree.total_weight + 1):
        for g in (1, 2, 3):
            if not check_conditions(tree, k, g).overall:
                continue
            found = find_subtree(tree, k, g, start=seed % (2 * tree.n_vertices - 2))
            if found is None or not verify_subtree(tree, found, k, g):
                sys.exit(f"guarantee broken: seed {seed}, k {k}, g {g}")
            searched += 1

# One tree big enough that a phase outgrows the chunk cap.
tree = random_tree(20000, 9, 5)
half = tree.total_weight // 2
for k, g, start in ((half, 1, 0), (half + 1, 8, 20001), (half // 2, 3, 39997)):
    found = find_subtree(tree, k, g, start=start)
    if found is None or not verify_subtree(tree, found, k, g):
        sys.exit(f"guarantee broken: k {k}, g {g}, start {start}")
    searched += 1

# Unsorted ids are refused under -O too.
if verify_subtree(tree, SubtreeResult(found.ids[::-1], found.weight, found.window, 0), k, g):
    sys.exit("unsorted ids passed the verifier")

# A search that breaks its guarantee must still raise under -O.
subsetsum.find_subtree = lambda *args, **kwargs: None
try:
    subset_sum_dense((1, 2, 1, 2, 1), 4)
    sys.exit("a broken guarantee went unnoticed")
except InvariantError:
    pass
print(searched)
"""


def test_guarantees_survive_optimize():
    """The guarantee sweep holds, and its checks still fire, under -O."""
    src = str(Path(treewindow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_SWEEP],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert int(proc.stdout) > 1000
