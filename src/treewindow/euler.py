"""Closed-walk construction and the windowed subtree search.

Every tree with ordered neighbor lists has a single closed walk that uses
each directed edge once: leave a vertex along the rotation successor of the
edge you arrived by.  The walk has 2(n-1) stops; each stop names the vertex
it leaves.  Consecutive stops are at adjacent vertices, and every
contiguous stop window covers a connected set of vertices, so sliding a
window over the walk sweeps connected subtrees while touching each stop a
bounded number of times.

The search keeps a window [s, t] of stops and the total weight of the
distinct vertices inside it.  It alternates growing t until the weight
reaches k - g + 1 and shrinking s while the weight exceeds k; whenever the
weight lands in [k-g+1, k] the window's vertex set is the answer.  Both
pointers only move forward, at most 3 * 2(n-1) moves in total, which makes
the whole search linear in the tree size.

Whether a move changes the weight depends only on the next-visit gaps of
the walk (the Euler-tour technique's next-occurrence array): stop i's
vertex is visited again gap(i) stops later.  Shrinking past stop j drops
its vertex iff gap(j) > t - j.  Growing onto stop i adds its vertex iff
the previous visit lies before s, and that visit is L + 2 - gap(i - 1)
stops back (L the walk's length), because the walk leaves i - 1's vertex
into the branch of i's vertex and returns from it along the same edge.
So a run of moves in one direction (a phase) needs no per-vertex state:
its weight changes are one cumsum over a chunk of stops, and a
searchsorted finds the move that ends the phase.  Chunks double from 64
up to 16,384 stops.  The tree builds the gaps along with its walk, so a
search only reads its tree.  The answer is read off the final window the
same way, as a sorted int64 array of vertex ids (SubtreeResult.ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTreeError, InvariantError, WeightExceedsTargetError
from .tree import WeightedTree, _check_int, _spans_subtree, check_conditions


# A phase is swept in chunks of stops that double from _FIRST_CHUNK up to
# _MAX_CHUNK, so that a short phase stays short and a long one runs at
# array speed; _AHEAD counts the stops of a chunk.
_FIRST_CHUNK, _MAX_CHUNK = 64, 1 << 14
_AHEAD = np.arange(_MAX_CHUNK, dtype=np.int64)
_AHEAD.flags.writeable = False
_ROOT = np.zeros(1, dtype=np.int64)  # the ids of a single-vertex tree's answer
_ROOT.flags.writeable = False


@dataclass(frozen=True, eq=False)
class EulerCycle:
    """The closed walk of one tree, stops in traversal order.

    vertices[i] is the tree vertex stop i leaves from, a read-only int64
    array.  The successor of stop i is stop (i + 1) % len, the
    predecessor (i - 1) % len.  tree is the tree walked; find_subtree
    refuses to pair the walk with any other tree.
    """

    vertices: np.ndarray
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
    return EulerCycle(tree._stops, tree)


@dataclass(frozen=True, eq=False)
class SubtreeResult:
    """A found subtree: its vertex ids (from find_subtree, a sorted,
    duplicate-free, read-only int64 array), weight, the walk window (s, t)
    of stop indices (inclusive, possibly wrapping) that produced it, and
    the search's pointer moves.  vertices is the same set as a frozenset,
    built on first access.  Results compare and hash by value."""

    ids: np.ndarray
    weight: int
    window: tuple[int, int]
    steps: int

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(self.ids.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubtreeResult):
            return NotImplemented
        return (self.weight == other.weight and self.window == other.window
                and self.steps == other.steps and np.array_equal(self.ids, other.ids))

    def __hash__(self) -> int:
        return hash((self.ids.tobytes(), self.weight, self.window, self.steps))


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

    start is the stop index to open the window at (0 for a lone vertex).
    The search runs on the walk the tree keeps; cycle, if given, must be
    that walk (ValueError for the walk of another tree).  on_move, if
    given, is called as on_move(kind, s, t, weight) after every pointer
    move, with kind "grow" or "shrink" and s, t the current inclusive window.
    """
    k = _check_int("target k", k, 1)
    g = _check_int("slack g", g, 1)
    start = _check_int("start stop", start)
    if tree.max_weight > k:
        raise WeightExceedsTargetError(
            f"vertex weight {tree.max_weight} exceeds target {k}"
        )

    if cycle is not None and cycle.tree is not tree:
        raise ValueError("the walk was built for another tree")
    stops, weights = tree._stops, tree.weights
    length = len(stops)
    last = max(length - 1, 0)
    if not 0 <= start <= last:
        raise ValueError(f"start stop {start} out of range 0..{last}")

    low = k - g + 1
    if tree.n_vertices == 1:
        w = tree.total_weight
        if low <= w <= k:
            return SubtreeResult(_ROOT, w, (0, 0), 0)
        return None

    gaps = tree._gaps
    budget = 3 * length

    # s and t run on past the end of the walk, stop i being stop
    # i % length; a chunk of stops ends at the end of the walk at the latest.
    s = t = start
    weight = int(weights[stops[start]])
    steps = 0
    grew, chunk = None, 0
    while not low <= weight <= k:
        grow = weight < low
        chunk = min(2 * chunk, _MAX_CHUNK) if grow == grew else _FIRST_CHUNK
        grew = grow
        first = (t + 1 if grow else s) % length
        m = min(chunk, budget - steps, length - first)
        if m == 0:
            return _not_found(tree, k, g)
        if grow:
            # Stop t + 1 + r brings a new vertex iff the vertex's previous
            # visit, length + 2 - gaps[t + 1 + r] stops back, is before s.
            counted = gaps[first:first + m] + _AHEAD[:m] < length + 1 - (t - s)
        else:
            # Stop s + r takes its vertex along iff the vertex's next
            # visit, gaps[s + r + 1] stops on, is past t.
            counted = gaps[first + 1:first + 1 + m] + _AHEAD[:m] > t - s
        change = (weights.take(stops[first:first + m]) * counted).cumsum()
        # The moves up to the first that brings the weight into line.
        moves = min(int(change.searchsorted(low - weight if grow else weight - k)) + 1, m)
        if on_move is not None:
            for r, d in enumerate(change[:moves].tolist(), 1):
                if grow:
                    on_move("grow", s % length, (t + r) % length, weight + d)
                else:
                    on_move("shrink", (s + r) % length, t % length, weight - d)
        steps += moves
        if grow:
            t += moves
            weight += int(change[moves - 1])
        else:
            s += moves
            weight -= int(change[moves - 1])
    # The window's vertices, each read at its last stop in the window, in
    # chunks as above.
    last, j = [], s
    while j <= t:
        first = j % length
        m = min(_MAX_CHUNK, t + 1 - j, length - first)
        last.append(stops[first:first + m][gaps[first + 1:first + 1 + m] + _AHEAD[:m] > t - j])
        j += m
    ids = np.concatenate(last)
    ids.sort()
    ids.flags.writeable = False
    return SubtreeResult(ids, weight, (s % length, t % length), steps)


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
    """Independently check a search result: ids a non-empty, strictly
    increasing array of vertex ids in range, weight range, weight sum, and
    connectivity of the vertex set in the tree, counted as edges (without
    the walk): k vertices of a tree are connected iff they span k - 1."""
    ids = result.ids
    if not (isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype.kind in "iu"
            and len(ids) and 0 <= ids[0] and ids[-1] < tree.n_vertices
            and (ids[1:] > ids[:-1]).all()):
        return False
    if not k - g + 1 <= result.weight <= k:
        return False
    if int(tree.weights[ids].sum()) != result.weight:
        return False
    return _spans_subtree(tree, ids)
