"""Closed-walk construction and the windowed subtree search.

Every tree with ordered neighbor lists has a single closed walk that uses
each directed edge once: leave a vertex along the rotation successor of the
edge you arrived by.  The walk has 2(n-1) stops; each stop names the vertex
it leaves and the rotation index of the edge it takes.  Consecutive stops
are at adjacent vertices, and every contiguous stop window covers a
connected set of vertices, so sliding a window over the walk sweeps
connected subtrees while touching each stop a bounded number of times.

The search keeps a window [s, t] of stops and the total weight of the
distinct vertices inside it.  It alternates growing t until the weight
reaches k - g + 1 and shrinking s while the weight exceeds k; whenever the
weight lands in [k-g+1, k] the window's vertex set is the answer.  Both
pointers only move forward, at most 3 * 2(n-1) moves in total, which makes
the whole search linear in the tree size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTreeError, InvariantError, WeightExceedsTargetError
from .tree import WeightedTree, _spans_subtree, check_conditions


@dataclass(frozen=True, eq=False)
class EulerCycle:
    """The closed walk of one tree, stops in traversal order.

    vertices[i] is the tree vertex stop i leaves from; rotation[i] is the
    index (into that vertex's neighbor list) of the edge taken; both are
    read-only int64 arrays.  The successor of stop i is stop (i + 1) % len,
    the predecessor (i - 1) % len.  tree is the tree walked; find_subtree
    refuses to pair the walk with any other tree.
    """

    vertices: np.ndarray
    rotation: np.ndarray
    tree: WeightedTree

    def __len__(self) -> int:
        return len(self.vertices)


def build_euler_cycle(tree: WeightedTree) -> EulerCycle:
    """The closed walk of a tree.  The tree walked it when it was built,
    in O(n): array passes, one sort, and one Python pass along the walk.

    Raises DegenerateTreeError for a single-vertex tree, which has no walk;
    callers treat that case directly.
    """
    if tree.n_vertices == 1:
        raise DegenerateTreeError("single-vertex tree has no closed walk")
    return EulerCycle(tree._stops, tree._turns, tree)


@dataclass(frozen=True)
class SubtreeResult:
    """A found subtree: its vertex set, weight, and the walk window (s, t)
    of stop indices (inclusive, possibly wrapping) that produced it, plus
    the number of pointer moves the search spent."""

    vertices: frozenset[int]
    weight: int
    window: tuple[int, int]
    steps: int


def find_subtree(
    tree: WeightedTree,
    k: int,
    g: int,
    *,
    start: int = 0,
    cycle: EulerCycle | None = None,
    on_move=None,
) -> SubtreeResult | None:
    """Find a connected subgraph with total weight in [k-g+1, k].

    Guaranteed to succeed when check_conditions(tree, k, g) passes; on other
    inputs it runs the same bounded sweep and returns None if nothing turns
    up.  Requires every single vertex weight <= k (WeightExceedsTargetError
    otherwise): a too-heavy vertex can never leave a window in range.

    start is the stop index to open the window at; cycle lets callers reuse
    the walk of this tree for repeated searches (ValueError for the walk
    of another tree).  on_move, if given, is called as
    on_move(kind, s, t, weight) after every pointer move, with kind "grow"
    or "shrink" and s, t the current inclusive window.
    """
    if k < 1:
        raise ValueError(f"target k must be >= 1, got {k}")
    if g < 1:
        raise ValueError(f"slack g must be >= 1, got {g}")
    if tree.max_weight > k:
        raise WeightExceedsTargetError(
            f"vertex weight {tree.max_weight} exceeds target {k}"
        )

    low = k - g + 1
    if tree.n_vertices == 1:
        w = tree.total_weight
        if low <= w <= k:
            return SubtreeResult(frozenset((0,)), w, (0, 0), 0)
        return None

    if cycle is None:
        cycle = build_euler_cycle(tree)
    elif cycle.tree is not tree:
        raise ValueError("the walk was built for another tree")
    length = len(cycle)
    if not 0 <= start < length:
        raise ValueError(f"start stop {start} out of range 0..{length - 1}")

    # memoryviews read the arrays as Python ints, at about list speed.
    rho = memoryview(cycle.vertices)
    weights = memoryview(tree.weights)
    occ = [0] * tree.n_vertices
    budget = 3 * length

    s = t = start
    v = rho[start]
    occ[v] = 1
    weight = weights[v]
    steps = 0

    while True:
        while weight < low:
            if steps >= budget:
                return _not_found(tree, k, g)
            t += 1
            if t == length:
                t = 0
            steps += 1
            v = rho[t]
            o = occ[v]
            occ[v] = o + 1
            if o == 0:
                weight += weights[v]
            if on_move is not None:
                on_move("grow", s, t, weight)
        if weight <= k:
            return _window_result(cycle, s, t, weight, steps)
        while weight > k:
            if steps >= budget:
                return _not_found(tree, k, g)
            v = rho[s]
            o = occ[v] - 1
            occ[v] = o
            if o == 0:
                weight -= weights[v]
            s += 1
            if s == length:
                s = 0
            steps += 1
            if on_move is not None:
                on_move("shrink", s, t, weight)
        if weight >= low:
            return _window_result(cycle, s, t, weight, steps)


def _window_result(cycle: EulerCycle, s: int, t: int, weight: int,
                   steps: int) -> SubtreeResult:
    """The result for window [s, t]: the vertices at its stops."""
    stops = cycle.vertices
    inside = stops[s:t + 1] if s <= t else np.r_[stops[s:], stops[:t + 1]]
    return SubtreeResult(frozenset(inside.tolist()), weight, (s, t), steps)


def _not_found(tree: WeightedTree, k: int, g: int) -> None:
    # The sweep is exhaustive: running out of budget with the sufficient
    # conditions satisfied would contradict the guarantee, so it can only
    # mean a bug in the search itself.
    report = check_conditions(tree, k, g)
    if report.overall:
        raise InvariantError(
            f"search budget exhausted although all conditions hold: {report}"
        )
    return None


def verify_subtree(
    tree: WeightedTree, result: SubtreeResult, k: int, g: int
) -> bool:
    """Independently check a search result: weight range, weight sum, and
    connectivity of the vertex set in the tree, counted as edges (without
    the walk): k vertices of a tree are connected iff they span k - 1."""
    vertices = np.fromiter(result.vertices, dtype=np.int64,
                           count=len(result.vertices))
    if not len(vertices) or not k - g + 1 <= result.weight <= k:
        return False
    if ((vertices < 0) | (vertices >= tree.n_vertices)).any():
        return False
    if int(tree.weights[vertices].sum()) != result.weight:
        return False
    return _spans_subtree(tree, vertices)
