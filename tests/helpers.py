"""Independent brute-force reference implementations for cross-checks.

Everything here is deliberately naive: exhaustive enumeration with no
shared code or ideas with the package internals, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

from collections import Counter

from treewindow import FormatError, NotATreeError, WeightError, WeightedTree


def naive_subtree_weights(tree: WeightedTree) -> set[int]:
    """Weights of all connected vertex subsets, by subset enumeration.
    Exponential; keep n under ~15."""
    n = tree.n_vertices
    found: set[int] = set()
    for mask in range(1, 1 << n):
        first = (mask & -mask).bit_length() - 1
        seen = 1 << first
        stack = [first]
        while stack:
            for u in tree.adjacency[stack.pop()]:
                bit = 1 << u
                if mask & bit and not seen & bit:
                    seen |= bit
                    stack.append(u)
        if seen == mask:
            total = 0
            rest = mask
            while rest:
                v = (rest & -rest).bit_length() - 1
                total += tree.weights[v]
                rest &= rest - 1
            found.add(total)
    return found


def naive_cycle_lengths(adjacency) -> set[int]:
    """Lengths of all simple cycles, by DFS from each minimal vertex.
    Exponential; keep the graph small."""
    lengths: set[int] = set()

    def walk(start: int, v: int, seen: set[int], depth: int) -> None:
        for u in adjacency[v]:
            if u == start and depth >= 3:
                lengths.add(depth)
            elif u > start and u not in seen:
                seen.add(u)
                walk(start, u, seen, depth + 1)
                seen.discard(u)

    for s in range(len(adjacency)):
        walk(s, s, {s}, 1)
    return lengths


def naive_subset_sums(values) -> set[int]:
    """All achievable subset sums including 0."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums}
    return sums


# Tokens for fuzzing instance files: malformed ones, and spellings of
# integers that int() reads but a plain digit scan would not.
FUZZ_TOKENS = ("x", "1.5", "", "+", "-", "--1", "1-", "0x1", "1e3", "١", "1_0",
               "+7", "-0", "007", " 3", "99999999999999999999", "3\x1f", "٣٣")


# ---------------------------------------------------------------------------
# The tuple-based line-by-line readers of tree and graph files, and the tree
# validator, as references for the array reader in treewindow.tree.
# ---------------------------------------------------------------------------


def _oracle_lines(text: str, keyword: str, min_n: int):
    """n and the content lines (lineno, line) of a '<keyword> <n>' file."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
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
    return n, lines[1:]


def _oracle_row(lineno: int, line: str, n: int, seen: list, fields: int):
    """The integer fields and the neighbor tuple of one vertex line."""
    row = line.split(":")
    if len(row) != fields + 1:
        raise FormatError("wrong number of ':' separators", lineno)
    try:
        nbrs = tuple(map(int, row.pop().split()))
        row = [int(f) for f in row]
    except ValueError:
        raise FormatError(f"non-integer token in {line!r}", lineno) from None
    if not 0 <= row[0] < n:
        raise FormatError(f"vertex id {row[0]} out of range", lineno)
    if seen[row[0]]:
        raise FormatError(f"vertex {row[0]} defined twice", lineno)
    seen[row[0]] = True
    return row, nbrs


def oracle_parse_tree(text: str):
    """(weights, adjacency) tuples of a tree file, or the exception
    (FormatError, NotATreeError, WeightError) a tree file earns."""
    n, lines = _oracle_lines(text, "tree", 1)
    if len(lines) != n:
        raise FormatError(f"expected {n} vertex lines, found {len(lines)}")
    weights = [0] * n
    adjacency = [()] * n
    seen = [False] * n
    for lineno, line in lines:
        (v, w), nbrs = _oracle_row(lineno, line, n, seen, 2)
        if w < 1:
            raise FormatError(f"vertex {v}: weight must be >= 1", lineno)
        weights[v] = w
        adjacency[v] = nbrs
    oracle_check_tree(weights, adjacency)
    return tuple(weights), tuple(adjacency)


def oracle_parse_graph(text: str):
    """(adjacency, hamilton order) tuples of a plane-graph file, or the
    FormatError it earns; the embedding itself is not checked."""
    n, lines = _oracle_lines(text, "graph", 3)
    adjacency = [()] * n
    seen = [False] * n
    ham = None
    for lineno, line in lines:
        if line.startswith("hamilton:"):
            if ham is not None:
                raise FormatError("duplicate hamilton line", lineno)
            try:
                ham = tuple(int(tok) for tok in line[9:].split())
            except ValueError:
                raise FormatError("non-integer token in hamilton line", lineno) from None
            continue
        (v,), adjacency_v = _oracle_row(lineno, line, n, seen, 1)
        adjacency[v] = adjacency_v
    if not all(seen):
        raise FormatError(f"no line for vertex {seen.index(False)}")
    if ham is None:
        raise FormatError("missing 'hamilton:' line")
    return tuple(adjacency), ham


def oracle_check_tree(weights, adjacency) -> None:
    """Raise WeightError or NotATreeError unless this is a tree."""
    n = len(weights)
    if sum(weights) >= 1 << 62:
        raise WeightError("total weight exceeds 2**62")
    edge_count = Counter()
    for v, nbrs in enumerate(adjacency):
        if len(set(nbrs)) != len(nbrs):
            raise NotATreeError(f"vertex {v}: duplicate neighbor")
        for u in nbrs:
            if not 0 <= u < n or u == v:
                raise NotATreeError(f"vertex {v}: bad neighbor {u}")
            edge_count[(u, v) if u < v else (v, u)] += 1
    if any(cnt != 2 for cnt in edge_count.values()):
        raise NotATreeError("an edge is not listed by both endpoints")
    if len(edge_count) != n - 1:
        raise NotATreeError(f"{len(edge_count)} edges for {n} vertices")
    seen = {0}
    stack = [0]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != n:
        raise NotATreeError("adjacency is disconnected")


def oracle_walk(adjacency) -> list[tuple[int, int]]:
    """The closed walk as (vertex, rotation index) stops, from vertex 0
    along its first edge: arriving at u from v, leave u by the edge after
    the one back to v."""
    stops = []
    v, r = 0, 0
    for _ in range(sum(map(len, adjacency))):
        stops.append((v, r))
        u = adjacency[v][r]
        v, r = u, (adjacency[u].index(v) + 1) % len(adjacency[u])
    return stops
