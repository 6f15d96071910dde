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
from itertools import chain

import numpy as np

from .errors import DegenerateTreeError, WeightExceedsTargetError
from .tree import WeightedTree, _marked_connected, check_conditions


@dataclass(frozen=True)
class EulerCycle:
    """The closed walk, stops in traversal order.

    vertices[i] is the tree vertex stop i leaves from; rotation[i] is the
    index (into that vertex's neighbor tuple) of the edge taken.  The
    successor of stop i is stop (i + 1) % len, the predecessor (i - 1) % len.
    """

    vertices: tuple[int, ...]
    rotation: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)


def build_euler_cycle(tree: WeightedTree) -> EulerCycle:
    """Construct the closed walk of a tree in O(n) (array passes + one sort).

    Raises DegenerateTreeError for a single-vertex tree, which has no walk;
    callers treat that case directly.
    """
    n = tree.n_vertices
    if n == 1:
        raise DegenerateTreeError("single-vertex tree has no closed walk")
    adjacency = tree.adjacency
    degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=n)
    length = int(degrees.sum())  # == 2 * (n - 1)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(degrees[:-1], out=offsets[1:])

    # Darts (directed edges) are numbered off[v], off[v]+1, ... in rotation
    # order; tails[d] is the vertex dart d leaves.
    tails = np.repeat(np.arange(n, dtype=np.int64), degrees)
    heads = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=length)

    # Pair each dart with its reverse: both darts of an edge share the key
    # (min * n + max), so after a stable sort they sit next to each other.
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    order = np.argsort(keys, kind="stable")
    reverse = np.empty(length, dtype=np.int64)
    reverse[order[0::2]] = order[1::2]
    reverse[order[1::2]] = order[0::2]

    # Successor of dart d: the dart after reverse[d] in its vertex's block.
    successor = reverse + 1
    block_end = offsets[heads] + degrees[heads]
    wrap = successor == block_end
    successor[wrap] = offsets[heads[wrap]]

    succ = successor.tolist()
    tour = [0] * length
    d = 0
    for i in range(length):
        tour[i] = d
        d = succ[d]
    assert d == 0, "walk did not close after visiting every dart"

    tour_arr = np.asarray(tour, dtype=np.int64)
    stop_vertices = tails[tour_arr]
    stop_rotation = tour_arr - offsets[stop_vertices]
    return EulerCycle(
        vertices=tuple(stop_vertices.tolist()),
        rotation=tuple(stop_rotation.tolist()),
    )


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
    a prebuilt walk for repeated searches on one tree (ValueError if its
    length does not fit the tree).  on_move, if given, is called as
    on_move(kind, s, t, weight) after every pointer move, with kind "grow"
    or "shrink" and s, t the current inclusive window.
    """
    if k < 1:
        raise ValueError(f"target k must be >= 1, got {k}")
    if g < 1:
        raise ValueError(f"slack g must be >= 1, got {g}")
    heaviest = max(tree.weights)
    if heaviest > k:
        raise WeightExceedsTargetError(
            f"vertex weight {heaviest} exceeds target {k}"
        )

    low = k - g + 1
    if tree.n_vertices == 1:
        w = tree.weights[0]
        if low <= w <= k:
            return SubtreeResult(frozenset((0,)), w, (0, 0), 0)
        return None

    if cycle is None:
        cycle = build_euler_cycle(tree)
    length = len(cycle)
    if length != 2 * (tree.n_vertices - 1):
        raise ValueError(
            f"walk has {length} stops but a tree on {tree.n_vertices} vertices "
            f"has {2 * (tree.n_vertices - 1)}; it was built for another tree"
        )
    if not 0 <= start < length:
        raise ValueError(f"start stop {start} out of range 0..{length - 1}")

    rho = cycle.vertices
    weights = tree.weights
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
            return SubtreeResult(
                frozenset(i for i, o in enumerate(occ) if o),
                weight,
                (s, t),
                steps,
            )
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
            return SubtreeResult(
                frozenset(i for i, o in enumerate(occ) if o),
                weight,
                (s, t),
                steps,
            )


def _not_found(tree: WeightedTree, k: int, g: int) -> None:
    # The sweep is exhaustive: running out of budget with the sufficient
    # conditions satisfied would contradict the guarantee, so it can only
    # mean a bug in the search itself.
    report = check_conditions(tree, k, g)
    assert not report.overall, (
        f"search budget exhausted although all conditions hold: {report}"
    )
    return None


def verify_subtree(
    tree: WeightedTree, result: SubtreeResult, k: int, g: int
) -> bool:
    """Independently check a search result: weight range, weight sum, and
    connectivity of the vertex set in the tree."""
    vertices = result.vertices
    if not vertices:
        return False
    if any(not 0 <= v < tree.n_vertices for v in vertices):
        return False
    if sum(tree.weights[v] for v in vertices) != result.weight:
        return False
    if not k - g + 1 <= result.weight <= k:
        return False
    mask = bytearray(tree.n_vertices)
    for v in vertices:
        mask[v] = 1
    return _marked_connected(tree.adjacency, mask)
