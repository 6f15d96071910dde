"""Independent brute-force reference implementations for cross-checks.

Everything here is deliberately naive: exhaustive enumeration with no
shared code or ideas with the package internals, so agreement between the
two is meaningful evidence.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from treewindow import (
    EmbeddingError,
    FormatError,
    InvariantError,
    NotATreeError,
    SubtreeResult,
    WeightError,
    WeightedTree,
    WeightExceedsTargetError,
    check_conditions,
)


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


def walk_rotation(cycle) -> list[int]:
    """Each stop's rotation index, worked out from the walk's vertices: the
    position of the next stop's vertex in the stop's neighbor list."""
    stops, adjacency = cycle.vertices.tolist(), cycle.tree.adjacency
    return [adjacency[v].index(stops[(i + 1) % len(stops)]) for i, v in enumerate(stops)]


def oracle_find_subtree(tree, k, g, *, start=0, on_move=None):
    """The window search one pointer move at a time, with an occupancy
    count per vertex, over oracle_walk's stops.  Same arguments, result,
    exceptions and on_move calls as treewindow.find_subtree, for inputs
    that find_subtree accepts."""
    weights = tree.weights.tolist()
    if max(weights) > k:
        raise WeightExceedsTargetError(f"vertex weight {max(weights)} exceeds target {k}")
    low = k - g + 1
    if tree.n_vertices == 1:
        return oracle_result([0], weights[0], (0, 0), 0) if low <= weights[0] <= k else None
    rho = [v for v, _ in oracle_walk(tree.adjacency)]
    length = len(rho)
    occ = [0] * tree.n_vertices
    s = t = start
    occ[rho[s]] = 1
    weight = weights[rho[s]]
    steps = 0
    while not low <= weight <= k:
        if steps == 3 * length:
            if check_conditions(tree, k, g).overall:
                raise InvariantError("search budget exhausted although all conditions hold")
            return None
        steps += 1
        if weight < low:
            t = (t + 1) % length
            occ[rho[t]] += 1
            if occ[rho[t]] == 1:
                weight += weights[rho[t]]
            if on_move is not None:
                on_move("grow", s, t, weight)
        else:
            occ[rho[s]] -= 1
            if occ[rho[s]] == 0:
                weight -= weights[rho[s]]
            s = (s + 1) % length
            if on_move is not None:
                on_move("shrink", s, t, weight)
    return oracle_result([v for v, n in enumerate(occ) if n], weight, (s, t), steps)


def oracle_result(inside, weight, window, steps):
    """A SubtreeResult whose ids are the sorted list inside, as int64."""
    return SubtreeResult(np.array(inside, dtype=np.int64), weight, window, steps)


# ---------------------------------------------------------------------------
# The tuple-based face tracer, hamilton split, dual tree and boundary walk,
# as references for the dart arrays of treewindow.planar.
# ---------------------------------------------------------------------------


def oracle_trace(adjacency):
    """Faces as vertex walks plus a map from each dart (u, v) to its face:
    after arriving at v from u, a walk leaves along the rotation successor
    (at v) of the edge back to u.  Faces come in order of their first dart
    in row order, each walked from that dart."""
    position = {}
    for u, nbrs in enumerate(adjacency):
        for i, v in enumerate(nbrs):
            position[(u, v)] = i
    faces = []
    face_of = {}
    for u0 in range(len(adjacency)):
        for v0 in adjacency[u0]:
            if (u0, v0) in face_of:
                continue
            walk = []
            a, b = u0, v0
            while (a, b) not in face_of:
                face_of[(a, b)] = len(faces)
                walk.append(a)
                nbrs = adjacency[b]
                a, b = b, nbrs[(position[(b, a)] + 1) % len(nbrs)]
            faces.append(tuple(walk))
    return tuple(faces), face_of


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def oracle_split(adjacency, order):
    """(interior, exterior) sorted chord tuples: at each vertex, chords
    between the cycle successor and predecessor in rotation order lie on
    side A, the rest on side B.  The side with more chords is the interior;
    on a tie, the side of the first chord in row order."""
    n = len(order)
    nxt = {order[i]: order[(i + 1) % n] for i in range(n)}
    prv = {order[i]: order[(i - 1) % n] for i in range(n)}
    side_at = {}  # chord -> True if side A
    for u, rot in enumerate(adjacency):
        d = len(rot)
        i_next, i_prev = rot.index(nxt[u]), rot.index(prv[u])
        i = (i_next + 1) % d
        in_side_a = True
        while i != i_next:
            if i == i_prev:
                in_side_a = False
            else:
                chord = _norm(u, rot[i])
                if side_at.setdefault(chord, in_side_a) != in_side_a:
                    raise EmbeddingError(f"chord {chord} lies on different sides")
            i = (i + 1) % d
    first = next((_norm(u, w) for u, rot in enumerate(adjacency) for w in rot
                  if w not in (nxt[u], prv[u])), None)
    side_a = tuple(sorted(c for c, a in side_at.items() if a))
    side_b = tuple(sorted(c for c, a in side_at.items() if not a))
    if len(side_a) != len(side_b):
        return (side_a, side_b) if len(side_a) > len(side_b) else (side_b, side_a)
    return (side_b, side_a) if first is not None and not side_at[first] else (side_a, side_b)


def oracle_dual(adjacency, order, side):
    """(faces, dual rows, weights, chord_of) of one region: the subgraph
    of cycle edges and that region's chords is traced, and its face bounded
    by the cycle alone (the other region) is dropped."""
    interior, exterior = oracle_split(adjacency, order)
    chords = set(interior if side == "interior" else exterior)
    n = len(order)
    ham_edges = {_norm(order[i], order[(i + 1) % n]) for i in range(n)}
    keep = ham_edges | chords
    sub = tuple(tuple(w for w in adjacency[u] if _norm(u, w) in keep) for u in range(n))
    faces, face_of = oracle_trace(sub)
    anti = next(i for i, walk in enumerate(faces) if len(walk) == n and all(
        _norm(walk[j], walk[(j + 1) % n]) in ham_edges for j in range(n)))
    ids = [i for i in range(len(faces)) if i != anti]
    renumber = {old: new for new, old in enumerate(ids)}
    rows = [[] for _ in ids]
    chord_of = {}
    for old in ids:
        walk = faces[old]
        for j, a in enumerate(walk):
            b = walk[(j + 1) % len(walk)]
            if _norm(a, b) in chords:
                other = renumber[face_of[(b, a)]]
                rows[renumber[old]].append(other)
                chord_of[_norm(renumber[old], other)] = _norm(a, b)
    side_faces = tuple(faces[old] for old in ids)
    return (side_faces, tuple(map(tuple, rows)),
            [len(walk) - 2 for walk in side_faces], chord_of)


def chord_of(dual) -> dict[tuple[int, int], tuple[int, int]]:
    """Each dual edge of a DualTree, as a sorted pair, to the chord it
    crosses, also sorted: a dict view of dual.chords to compare with
    oracle_dual's."""
    tails = np.repeat(np.arange(dual.tree.n_vertices), np.diff(dual.tree.offsets))
    heads = dual.tree.neighbors
    up = tails < heads
    return dict(zip(zip(tails[up].tolist(), heads[up].tolist()),
                    map(tuple, np.sort(dual.chords[up], axis=1).tolist())))


def oracle_boundary(faces, chosen):
    """The cycle of edges on exactly one chosen face, from its smallest
    vertex toward the smaller neighbor, or None if those edges do not form
    one cycle."""
    use = Counter()
    for f in set(chosen):
        walk = faces[f]
        use.update(_norm(walk[j - 1], walk[j]) for j in range(len(walk)))
    neighbors = {}
    for (a, b), count in use.items():
        if count == 1:
            neighbors.setdefault(a, []).append(b)
            neighbors.setdefault(b, []).append(a)
    if any(len(nb) != 2 for nb in neighbors.values()):
        return None
    start = min(neighbors)
    walk = [start, min(neighbors[start])]
    while walk[-1] != start:
        a, b = neighbors[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    walk.pop()
    return tuple(walk) if len(walk) == len(neighbors) else None


def oracle_verify_cycle(adjacency, seq) -> bool:
    """Whether seq lists >= 3 distinct vertex ids, each (cyclically) adjacent
    to the next."""
    n = len(adjacency)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if any(isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n for v in seq):
        return False
    return all(seq[i - 1] in adjacency[seq[i]] for i in range(len(seq)))


def _crosses(a, b, chords) -> bool:
    """Whether chord (a, b), a < b, of a convex polygon crosses one of chords."""
    return any(a < c < b < d or c < a < d < b for c, d in chords)


def _noncrossing_chords(rng, n, taken):
    """A random set of pairwise non-crossing chords of the convex n-gon
    0..n-1, none of them in taken."""
    chords = []
    for _ in range(rng.randrange(2 * n)):
        a, b = sorted(rng.sample(range(n), 2))
        if b - a in (1, n - 1) or (a, b) in taken or _crosses(a, b, chords):
            continue
        taken.add((a, b))
        chords.append((a, b))
    return chords


def oracle_convex_rows(n, interior, exterior):
    """(rows, hamilton order) of convex_embedding(n, interior, exterior),
    row by row: at each vertex the ring successor, interior chords by
    ascending hop, the ring predecessor, exterior chords by descending
    hop."""
    at = [([], []) for _ in range(n)]
    for side, chords in enumerate((interior, exterior)):
        for a, b in chords:
            at[a][side].append(b)
            at[b][side].append(a)
    rows = []
    for v, (ins, outs) in enumerate(at):
        ins = sorted(ins, key=lambda w: (w - v) % n)
        outs = sorted(outs, key=lambda w: -((w - v) % n))
        rows.append(tuple([(v + 1) % n] + ins + [(v - 1) % n] + outs))
    return tuple(rows), tuple(range(n))


# One octahedron bead, labels 1..6: outer triangle 1 2 3, inner 4 5 6.
_BEAD_ROTATION = {
    1: (2, 5, 4, 3),
    2: (3, 6, 5, 1),
    3: (1, 4, 6, 2),
    4: (1, 5, 6, 3),
    5: (4, 1, 2, 6),
    6: (4, 5, 2, 3),
}
_BEAD_PATH = (1, 4, 3, 6, 5, 2)


def oracle_malkevitch_rows(p):
    """(rows, hamilton order) of malkevitch(p), bead by bead: label L of
    bead i is vertex 6*i + L - 1, and for p >= 2 bead i's 1-2 edge becomes
    links from its 1 to bead i - 1's 2 and from its 2 to bead i + 1's 1,
    in the same rotation slots."""
    def idx(bead, label):
        return 6 * (bead % p) + label - 1

    rows = []
    for bead in range(p):
        for label in range(1, 7):
            row = []
            for nb in _BEAD_ROTATION[label]:
                if p > 1 and label == 1 and nb == 2:
                    row.append(idx(bead - 1, 2))
                elif p > 1 and label == 2 and nb == 1:
                    row.append(idx(bead + 1, 1))
                else:
                    row.append(idx(bead, nb))
            rows.append(tuple(row))
    return tuple(rows), tuple(idx(bead, label) for bead in range(p) for label in _BEAD_PATH)


def min_degree_chords(rng, n):
    """Non-crossing chords inside and outside the convex n-gon 0..n-1,
    drawn toward minimum degree 4: while a vertex has degree < 4, one of
    lowest degree gets a chord, on either side, to a vertex of lowest
    degree among those it reaches without a crossing.  Stops early when
    that vertex reaches none."""
    sides, degree = ([], []), [2] * n
    while min(degree) < 4:
        a = min(range(n), key=lambda v: (degree[v], rng.random()))
        options = [(degree[b], rng.random(), chord, side)
                   for side in sides for b in range(n) for chord in [tuple(sorted((a, b)))]
                   if (b - a) % n not in (0, 1, n - 1)
                   and chord not in sides[0] + sides[1] and not _crosses(*chord, side)]
        if not options:
            break
        _, _, (a, b), side = min(options)
        side.append((a, b))
        degree[a] += 1
        degree[b] += 1
    return sides


def random_plane_hamiltonian(rng, n, chords=None):
    """(rows, hamilton order) of a random plane hamiltonian graph: chords
    (inside, outside) of a convex n-gon, random non-crossing ones unless
    given, then a random relabelling, mirror image and rotation of each
    row, and a random start and direction of the cycle."""
    from treewindow.generators import convex_embedding

    if chords is None:
        taken = set()
        inside = _noncrossing_chords(rng, n, taken)
        chords = inside, _noncrossing_chords(rng, n, taken)
    graph, _ = convex_embedding(n, *chords)
    label = rng.sample(range(n), n)
    mirror = rng.random() < 0.5
    rows = [()] * n
    for v, row in enumerate(graph.adjacency):
        row = row[::-1] if mirror else row
        turn = rng.randrange(len(row))
        rows[label[v]] = tuple(label[u] for u in row[turn:] + row[:turn])
    start = rng.randrange(n)
    order = label[start:] + label[:start]
    return tuple(rows), tuple(order[::-1] if rng.random() < 0.5 else order)


def oracle_is_three_connected(rows) -> bool:
    """Whether n >= 4 and the graph stays connected after deleting any one
    vertex or any two, by a fresh search for each deletion."""
    n = len(rows)

    def connected_without(gone):
        rest = [v for v in range(n) if v not in gone]
        seen = {rest[0]}
        stack = [rest[0]]
        while stack:
            for u in rows[stack.pop()]:
                if u not in gone and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(rest)

    return n >= 4 and all(connected_without({a, b}) for a in range(n) for b in range(a, n))


def oracle_face_pairs_three_connected(graph) -> bool:
    """is_three_connected by an earlier face test, for small plane graphs.

    With n >= 4 a graph is 3-connected iff deleting any vertex v leaves a
    2-connected graph, and a plane graph is 2-connected iff no face walk
    repeats a vertex.  The faces around v merge into one when v goes, with
    sum(len - 2) places, so v passes iff they hold that many distinct
    vertices other than v (fewer if a face walk repeats v).  Time and
    memory grow with the sum of the squared face lengths, one pair per two
    places of a face."""
    n, bounds = graph.n_vertices, graph._face_offsets
    if n < 4:
        return False
    lengths = np.diff(bounds)
    at = np.repeat(np.arange(n), np.diff(graph.offsets))[graph._walk]  # per place
    size = np.repeat(lengths, lengths)  # per place, the length of its face
    # Pair each place i with every place of its face, in size[i] slots.
    j = np.arange(int((lengths ** 2).sum()))
    j += np.repeat(np.repeat(bounds[:-1], lengths) - np.cumsum(size) + size, size)
    u, w = np.repeat(at, size), at[j]
    other = u != w
    pairs = np.sort(u[other] * n + w[other])
    firsts = pairs[np.r_[True, pairs[1:] != pairs[:-1]]]
    return np.array_equal(np.bincount(firsts // n, minlength=n),
                          np.bincount(at, size - 2, minlength=n))
