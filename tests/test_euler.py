"""Closed walk construction and the windowed subtree search."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treewindow

from treewindow import (
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
        assert cycle.rotation.tolist() == [0, 1, 0, 0]

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

        # each stop leaves along a real dart, landing on the next stop
        darts = set()
        for i in range(length):
            v = cycle.vertices[i]
            r = cycle.rotation[i]
            assert 0 <= r < tree.degree(v)
            head = tree.adjacency[v][r]
            assert head == cycle.vertices[(i + 1) % length]
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
        assert find_subtree(t, 5, 1) is None

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


class TestVerifySubtree:
    @PROPERTY_SETTINGS
    @given(st.data())
    def test_connectivity_matches_reference(self, data):
        tree = data.draw(weighted_trees())
        chosen = data.draw(st.sets(st.integers(0, tree.n_vertices - 1), min_size=1))
        weight = sum(tree.weights[v] for v in chosen)
        result = SubtreeResult(frozenset(chosen), weight, (0, 0), 0)
        assert verify_subtree(tree, result, weight, 1) == is_connected_in(tree, chosen)

    def test_rejects_wrong_weight_and_range(self):
        tree = path_tree((1, 2, 1))
        assert not verify_subtree(tree, SubtreeResult(frozenset({0, 1}), 4, (0, 0), 0), 4, 1)
        assert not verify_subtree(tree, SubtreeResult(frozenset({0, 1}), 3, (0, 0), 0), 5, 1)
        assert not verify_subtree(tree, SubtreeResult(frozenset({3}), 1, (0, 0), 0), 1, 1)


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


_OPTIMIZED_SWEEP = """
import sys
import treewindow.subsetsum as subsetsum
from treewindow import (InvariantError, check_conditions, find_subtree,
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
