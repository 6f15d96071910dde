"""Vertex-weighted trees with an explicit rotation system.

A tree here is more than an adjacency structure: the neighbor lists are
ordered, and that order is the (clockwise) rotation used to build the
closed walk the subtree search slides over.  Two trees with the same edges
but different neighbor orders are different inputs on purpose.

Vertices are dense integers 0..n-1.  Weights are integers >= 1; a weight
of zero would let windows change vertex content without changing weight,
which breaks the search's accounting, so zero is rejected at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter

from .errors import (
    FormatError,
    InstanceTooLargeError,
    NotATreeError,
    WeightError,
)

# Totals are kept below 2**62 so results stay inside machine-integer range
# for any port of this code to fixed-width languages.
MAX_TOTAL_WEIGHT = 1 << 62

# An exhaustive oracle run is refused above this many table cells.
ORACLE_CELL_BOUND = 10**8


@dataclass(frozen=True)
class WeightedTree:
    """Immutable vertex-weighted tree.

    Attributes:
        weights: weight of each vertex, indexed 0..n-1, every entry >= 1.
        adjacency: per-vertex neighbor tuples in rotation order.
    """

    weights: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]
    total_weight: int = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.weights)
        if n == 0:
            raise NotATreeError("a tree needs at least one vertex")
        if len(self.adjacency) != n:
            raise NotATreeError(
                f"{n} weights but {len(self.adjacency)} adjacency rows"
            )
        for v, w in enumerate(self.weights):
            if type(w) is not int or w < 1:
                raise WeightError(f"vertex {v}: weight {w!r} is not an integer >= 1")
        total = sum(self.weights)
        if total >= MAX_TOTAL_WEIGHT:
            raise WeightError(f"total weight {total} exceeds 2**62")
        object.__setattr__(self, "total_weight", total)

        m = _check_rotation_system(self.adjacency, NotATreeError)
        if m != n - 1:
            raise NotATreeError(f"{m} edges for {n} vertices; a tree has {n - 1}")
        if not _marked_connected(self.adjacency, bytearray(b"\x01") * n):
            raise NotATreeError("adjacency is disconnected")

    @property
    def n_vertices(self) -> int:
        return len(self.weights)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _check_rotation_system(adjacency, error_cls) -> int:
    """Check that ordered neighbor lists describe a simple undirected graph:
    ids in range, no duplicate neighbors or self loops, and every edge
    listed by both endpoints.  Returns the edge count; raises error_cls."""
    n = len(adjacency)
    edge_count = Counter()
    for v, nbrs in enumerate(adjacency):
        if len(set(nbrs)) != len(nbrs):
            raise error_cls(f"vertex {v}: duplicate neighbor")
        for u in nbrs:
            if not 0 <= u < n:
                raise error_cls(f"vertex {v}: neighbor {u} out of range")
            if u == v:
                raise error_cls(f"vertex {v}: self loop")
            edge_count[(u, v) if u < v else (v, u)] += 1
    for e, cnt in edge_count.items():
        if cnt != 2:
            raise error_cls(f"edge {e} is not listed by both endpoints")
    return len(edge_count)


def _marked_connected(adjacency, mask: bytearray) -> bool:
    """Whether the vertices v with mask[v] set induce a connected subgraph
    of adjacency (true when none are marked).  Walks from the first marked
    vertex and clears every mark it reaches, so the answer is whether any
    mark is left; the caller's mask is consumed."""
    start = mask.find(1)
    if start < 0:
        return True
    mask[start] = 0
    stack = [start]
    while stack:
        for u in adjacency[stack.pop()]:
            if mask[u]:
                mask[u] = 0
                stack.append(u)
    return 1 not in mask


def path_tree(weights) -> WeightedTree:
    """Path with the given weights, vertex i adjacent to i-1 and i+1."""
    n = len(weights)
    if n == 1:
        return WeightedTree((weights[0],), ((),))
    adjacency = [(i - 1, i + 1) for i in range(n)]
    adjacency[0] = (1,)
    adjacency[n - 1] = (n - 2,)
    return WeightedTree(tuple(weights), tuple(adjacency))


def star_tree(center_weight: int, leaf_weights) -> WeightedTree:
    """Star with center vertex 0 and leaves 1..len(leaf_weights)."""
    n = len(leaf_weights) + 1
    adjacency = [tuple(range(1, n))] + [(0,)] * (n - 1)
    return WeightedTree((center_weight, *leaf_weights), tuple(adjacency))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
#   tree <n>
#   <v>: <weight>: <neighbor> <neighbor> ...
#
# one line per vertex, neighbors in rotation order, '#' starts a comment.


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read_header(text: str, keyword: str, min_n: int):
    """Content lines of an instance file and the n of its '<keyword> <n>'
    header line, which must be the first content line."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("empty input")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise FormatError(f"expected '{keyword} <n>' header, got {header!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise FormatError(f"bad vertex count {parts[1]!r}", lineno) from None
    if n < min_n:
        raise FormatError(f"vertex count must be >= {min_n}, got {n}", lineno)
    return n, lines


def _read_vertex_line(
    lineno: int, line: str, n: int, seen: list[bool], usage: str
) -> list:
    """Split a vertex line shaped like usage ('<v>: ...: <neighbors>') into
    its integer fields and the neighbor tuple, and mark v in seen."""
    row = line.split(":")
    if len(row) != usage.count(":") + 1:
        raise FormatError(f"expected {usage!r}", lineno)
    try:
        nbrs = tuple(map(int, row.pop().split()))
        row = list(map(int, row))
    except ValueError:
        raise FormatError(f"non-integer token in {line!r}", lineno) from None
    v = row[0]
    if not 0 <= v < n:
        raise FormatError(f"vertex id {v} out of range 0..{n - 1}", lineno)
    if seen[v]:
        raise FormatError(f"vertex {v} defined twice", lineno)
    seen[v] = True
    row.append(nbrs)
    return row


def parse_tree(text: str) -> WeightedTree:
    """Parse the tree file format; raises FormatError with a line number."""
    n, lines = _read_header(text, "tree", 1)
    if len(lines) - 1 != n:
        raise FormatError(
            f"expected {n} vertex lines, found {len(lines) - 1}", lines[0][0]
        )

    weights: list[int] = [0] * n
    adjacency: list[tuple[int, ...]] = [()] * n
    seen = [False] * n
    usage = "<v>: <weight>: <neighbors>"
    for lineno, line in lines[1:]:
        v, w, nbrs = _read_vertex_line(lineno, line, n, seen, usage)
        if w < 1:
            raise FormatError(f"vertex {v}: weight must be >= 1, got {w}", lineno)
        weights[v] = w
        adjacency[v] = nbrs
    try:
        return WeightedTree(tuple(weights), tuple(adjacency))
    except (NotATreeError, WeightError) as exc:
        raise type(exc)(str(exc)) from None


def serialize_tree(tree: WeightedTree) -> str:
    out = [f"tree {tree.n_vertices}"]
    for v in range(tree.n_vertices):
        nbrs = " ".join(str(u) for u in tree.adjacency[v])
        out.append(f"{v}: {tree.weights[v]}: {nbrs}".rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Search window conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Target weight k, slack g, the totals they are checked against, and
    which sufficient conditions for guaranteed search success hold.

    The search finds a subtree with weight in [k-g+1, k] whenever all five
    flags are true.  Each flag false leaves the guarantee void, but the
    search is still run and may succeed anyway.
    """

    k: int
    g: int
    n2: int  # total vertex weight
    h: int  # 2 * n_vertices - n2 (can be negative)
    range_ok: bool  # 1 <= k <= n2
    slack_ok: bool  # g + h > 2
    lower_ok: bool  # 2k - 4g - h + 3 <= n2
    upper_ok: bool  # n2 <= 2k + g + h - 2
    cap_ok: bool  # every vertex weight <= k

    @property
    def overall(self) -> bool:
        return (
            self.range_ok
            and self.slack_ok
            and self.lower_ok
            and self.upper_ok
            and self.cap_ok
        )

    def flags(self) -> dict[str, bool]:
        return {
            "range_ok": self.range_ok,
            "slack_ok": self.slack_ok,
            "lower_ok": self.lower_ok,
            "upper_ok": self.upper_ok,
            "cap_ok": self.cap_ok,
        }


def check_conditions(tree: WeightedTree, k: int, g: int) -> ConditionReport:
    """Evaluate the five sufficient conditions for the window search."""
    if g < 1:
        raise ValueError(f"slack g must be >= 1, got {g}")
    n2 = tree.total_weight
    h = 2 * tree.n_vertices - n2
    return ConditionReport(
        k=k, g=g, n2=n2, h=h,
        range_ok=1 <= k <= n2,
        slack_ok=g + h > 2,
        lower_ok=2 * k - 4 * g - h + 3 <= n2,
        upper_ok=n2 <= 2 * k + g + h - 2,
        cap_ok=max(tree.weights) <= k,
    )


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def achievable_subtree_weights(tree: WeightedTree) -> frozenset[int]:
    """Every weight realized by some connected subgraph, by exhaustive DP.

    For each vertex v (rooted at 0), combine the weight sets of subtrees
    hanging below v that contain v; the answer is the union over all v.
    Weight sets are bitmask integers, so merging a child is a handful of
    shifts.  Deliberately simple and independent of the fast search; used
    to cross-check it.  Refuses instances whose n1 * n2 table would exceed
    ORACLE_CELL_BOUND.
    """
    n = tree.n_vertices
    if n * tree.total_weight > ORACLE_CELL_BOUND:
        raise InstanceTooLargeError(
            f"oracle table {n} * {tree.total_weight} exceeds {ORACLE_CELL_BOUND}"
        )
    adjacency = tree.adjacency
    weights = tree.weights

    parent = [-1] * n
    order = [0]
    for v in order:  # grows while iterating: BFS order
        for u in adjacency[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)

    below = [0] * n  # bitmask of weights of subtrees containing v, within v's branch
    result = 0
    for v in reversed(order):
        mask = 1 << weights[v]
        for u in adjacency[v]:
            if parent[u] == v:
                child = below[u]
                combined = mask
                while child:
                    low = child & -child
                    combined |= mask << (low.bit_length() - 1)
                    child ^= low
                mask = combined
        below[v] = mask
        result |= mask

    out = set()
    while result:
        low = result & -result
        out.add(low.bit_length() - 1)
        result ^= low
    return frozenset(out)


# ---------------------------------------------------------------------------
# Tight families: for each, exactly one condition flag fails and no subtree
# has weight in [k-g+1, k], showing the flag cannot be dropped.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TightInstance:
    tree: WeightedTree
    k: int
    g: int
    failing_flag: str


TIGHT_FAMILIES = ("star_gh", "path_lower", "path_upper", "star_cap")


def tight_instance(family: str, p: int, q: int | None = None) -> TightInstance:
    """Build a member of one of the four boundary families.

    star_gh(p):       star of order 2p, center weight 1, leaves weight 2;
                      k = 2p, g = 1; only the slack condition fails.
    path_lower(p, q): path of order p + 2q, the middle p vertices weight 1,
                      the rest weight 2; k = p + 2q + 1, g = 1; only the
                      lower bound fails (by exactly one).
    path_upper(p):    path of order 2p + 3, middle vertex weight p + 2
                      flanked by weight 2, the rest weight 1; k = p + 3,
                      g = 1; only the upper bound fails (by exactly one).
    star_cap(p, q):   star of order p + 1, center weight q + 1, leaves
                      weight 1, with 2 < q <= p; k = q, g = 2; only the
                      weight cap fails.
    """
    if p < 2:
        raise ValueError(f"family parameter p must be >= 2, got {p}")

    if family == "star_gh":
        tree = star_tree(1, (2,) * (2 * p - 1))
        return TightInstance(tree, k=2 * p, g=1, failing_flag="slack_ok")

    if family == "path_lower":
        if q is None or q < 1:
            raise ValueError("path_lower needs q >= 1")
        weights = [2] * q + [1] * p + [2] * q
        return TightInstance(path_tree(weights), k=p + 2 * q + 1, g=1,
                             failing_flag="lower_ok")

    if family == "path_upper":
        weights = [1] * (2 * p + 3)
        weights[p] = 2
        weights[p + 1] = p + 2
        weights[p + 2] = 2
        return TightInstance(path_tree(weights), k=p + 3, g=1,
                             failing_flag="upper_ok")

    if family == "star_cap":
        if q is None or not 2 < q <= p:
            # q = p + 1 would also kill the slack condition; keep q <= p so
            # the cap is the single failing flag.
            raise ValueError("star_cap needs 2 < q <= p")
        tree = star_tree(q + 1, (1,) * p)
        return TightInstance(tree, k=q, g=2, failing_flag="cap_ok")

    raise ValueError(f"unknown family {family!r}; choose from {TIGHT_FAMILIES}")
