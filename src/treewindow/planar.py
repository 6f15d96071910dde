"""Plane hamiltonian graphs: faces, hamilton splits, dual trees, cycles.

A plane graph is given as a rotation system (ordered neighbor lists).  A
hamilton cycle drawn in the plane separates the remaining edges into the
two open regions; each region's faces form a tree under adjacency across
chords.  Giving each face the weight (length - 2) makes subtree weights
and primal cycle lengths interchangeable: the boundary of a connected set
S of faces is a cycle of length exactly weight(S) + 2.  That turns
"find a cycle of length near k" into "find a subtree of weight near k-2",
which the window search answers in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import Counter

import numpy as np

from .errors import (
    EmbeddingError,
    FormatError,
    InvariantError,
    NotHamiltonianError,
    PreconditionError,
    StructureError,
    WeightExceedsTargetError,
)
from .euler import find_subtree
from .tree import (
    WeightedTree,
    _csr,
    _csr_rows,
    _csr_tree,
    _marked_connected,
    _pair_darts,
    _read_header,
    _read_rows,
    _spans_subtree,
)


# ---------------------------------------------------------------------------
# Plane graphs and face tracing
# ---------------------------------------------------------------------------


def _trace(adjacency):
    """Orbit decomposition of darts: next dart after arriving at v from u
    is the rotation successor (at v) of the edge back to u.  Returns the
    faces as vertex walks plus a map from each dart to its face index."""
    position = {}
    for u, nbrs in enumerate(adjacency):
        for i, v in enumerate(nbrs):
            position[(u, v)] = i
    faces: list[tuple[int, ...]] = []
    face_of: dict[tuple[int, int], int] = {}
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


@dataclass(frozen=True, eq=False)
class PlaneGraph:
    """Immutable plane graph as a rotation system.

    Construction validates simplicity, symmetry, connectivity, and that
    the traced embedding satisfies Euler's formula n - m + f = 2 (i.e. the
    rotation system really describes a plane drawing).
    """

    adjacency: tuple[tuple[int, ...], ...]
    n_edges: int = field(init=False)
    faces: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        n = len(self.adjacency)
        if n < 3:
            raise EmbeddingError(f"plane graph needs >= 3 vertices, got {n}")
        m = len(_pair_darts(*_csr(self.adjacency, EmbeddingError), EmbeddingError)) // 2
        if not _marked_connected(self.adjacency, bytearray(b"\x01") * n):
            raise EmbeddingError("graph is disconnected")

        faces, _ = _trace(self.adjacency)
        if n - m + len(faces) != 2:
            raise EmbeddingError(
                f"Euler check failed: n - m + f = {n} - {m} + {len(faces)} != 2; "
                "the rotation system is not a plane embedding"
            )
        object.__setattr__(self, "n_edges", m)
        object.__setattr__(self, "faces", faces)

    @property
    def n_vertices(self) -> int:
        return len(self.adjacency)

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (v, u) if v < u else (u, v)
            for v, nbrs in enumerate(self.adjacency)
            for u in nbrs
        )

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


# ---------------------------------------------------------------------------
# Hamilton cycles and the two-sided split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonCycle:
    """A hamilton cycle as the vertex sequence v0 v1 ... v_{n-1}."""

    order: tuple[int, ...]

    def validate(self, graph: PlaneGraph) -> None:
        n = graph.n_vertices
        if sorted(self.order) != list(range(n)):
            raise NotHamiltonianError(
                "cycle must list every vertex exactly once"
            )
        for i, v in enumerate(self.order):
            u = self.order[(i + 1) % n]
            if u not in graph.adjacency[v]:
                raise NotHamiltonianError(f"consecutive pair ({v}, {u}) is not an edge")

    def positions(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}

    def edge_set(self) -> frozenset[tuple[int, int]]:
        n = len(self.order)
        return frozenset(
            _norm(self.order[i], self.order[(i + 1) % n]) for i in range(n)
        )


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Split:
    """Non-cycle edges of a plane hamiltonian graph, by region.

    interior is the side with at least as many chords as exterior; on a
    tie, the side containing the first chord in input order.
    """

    interior: tuple[tuple[int, int], ...]
    exterior: tuple[tuple[int, int], ...]


def split_by_hamilton(graph: PlaneGraph, ham: HamiltonCycle) -> Split:
    """Partition the chords into the two regions of the hamilton cycle.

    The side of a chord at a vertex u is read off the rotation: chords
    between the cycle-successor edge and the cycle-predecessor edge (going
    in rotation order) lie in one region, the rest in the other.  A plane
    embedding gives every chord the same side at both endpoints; a
    mismatch means the input was not a plane embedding of this cycle.
    """
    ham.validate(graph)
    n = graph.n_vertices
    order = ham.order
    nxt = {order[i]: order[(i + 1) % n] for i in range(n)}
    prv = {order[i]: order[(i - 1) % n] for i in range(n)}

    side_at: dict[tuple[int, int], bool] = {}  # chord -> True if side A
    for u in range(n):
        rot = graph.adjacency[u]
        d = len(rot)
        i_next = rot.index(nxt[u])
        i_prev = rot.index(prv[u])
        i = (i_next + 1) % d
        in_side_a = True
        while i != i_next:
            w = rot[i]
            if i == i_prev:
                in_side_a = False
            elif w != nxt[u] and w != prv[u]:
                chord = _norm(u, w)
                prev_side = side_at.get(chord)
                if prev_side is None:
                    side_at[chord] = in_side_a
                elif prev_side != in_side_a:
                    raise EmbeddingError(
                        f"chord {chord} lies on different sides at its endpoints; "
                        "not a plane embedding of this hamilton cycle"
                    )
            i = (i + 1) % d

    first_chord: tuple[int, int] | None = None  # for the tie rule
    for u in range(n):
        for w in graph.adjacency[u]:
            if w != nxt[u] and w != prv[u]:
                first_chord = _norm(u, w)
                break
        if first_chord is not None:
            break

    side_a = tuple(sorted(c for c, a in side_at.items() if a))
    side_b = tuple(sorted(c for c, a in side_at.items() if not a))
    if len(side_a) > len(side_b):
        return Split(side_a, side_b)
    if len(side_b) > len(side_a):
        return Split(side_b, side_a)
    if first_chord is not None and not side_at[first_chord]:
        return Split(side_b, side_a)
    return Split(side_a, side_b)


# ---------------------------------------------------------------------------
# Dual trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualTree:
    """The faces of one region of the hamilton cycle, as a weighted tree.

    Dual vertex i is the face with walk faces[i]; its weight is the face
    length minus 2.  Two faces are adjacent when they share a chord;
    chord_of maps each dual edge (as a sorted pair) back to that chord.
    """

    tree: WeightedTree
    faces: tuple[tuple[int, ...], ...]
    side: str
    chord_of: dict[tuple[int, int], tuple[int, int]]
    primal_n: int

    def face_edges(self, i: int) -> tuple[tuple[int, int], ...]:
        walk = self.faces[i]
        return tuple(
            _norm(walk[j], walk[(j + 1) % len(walk)]) for j in range(len(walk))
        )


def build_dual_tree(
    graph: PlaneGraph, ham: HamiltonCycle, side: str = "interior"
) -> DualTree:
    """Build the face tree of one region (side "interior" or "exterior").

    The subgraph of cycle edges plus that region's chords is traced; the
    face bounded by the cycle alone (the whole opposite region) is dropped
    and the remaining faces become the tree.  Asserts the text-book facts:
    the result is a tree and its weights sum to n - 2.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    split = split_by_hamilton(graph, ham)
    chords = set(split.interior if side == "interior" else split.exterior)
    ham_edges = ham.edge_set()
    n = graph.n_vertices

    keep = ham_edges | chords
    sub_adjacency = tuple(
        tuple(w for w in graph.adjacency[u] if _norm(u, w) in keep)
        for u in range(n)
    )
    faces, face_of = _trace(sub_adjacency)
    m_sub = n + len(chords)
    if n - m_sub + len(faces) != 2:
        raise EmbeddingError(
            f"{side} subgraph fails the Euler check; chords are not one-sided"
        )

    anti = None
    for idx, walk in enumerate(faces):
        if len(walk) == n and all(
            _norm(walk[j], walk[(j + 1) % n]) in ham_edges for j in range(n)
        ):
            anti = idx
            break
    if anti is None:
        raise StructureError("no face bounded by the hamilton cycle alone")

    ids = [idx for idx in range(len(faces)) if idx != anti]
    renumber = {old: new for new, old in enumerate(ids)}
    side_faces = tuple(faces[old] for old in ids)

    adjacency: list[list[int]] = [[] for _ in ids]
    chord_of: dict[tuple[int, int], tuple[int, int]] = {}
    for old in ids:
        walk = faces[old]
        fid = renumber[old]
        for j, a in enumerate(walk):
            b = walk[(j + 1) % len(walk)]
            if _norm(a, b) in chords:
                other = face_of[(b, a)]
                adjacency[fid].append(renumber[other])
                chord_of[_norm(fid, renumber[other])] = _norm(a, b)

    try:
        weights = np.array([len(walk) - 2 for walk in side_faces], dtype=np.int64)
        tree = _csr_tree(weights, *_csr(adjacency, StructureError))
    except Exception as exc:
        raise StructureError(f"face adjacency of the {side} region is not a tree: {exc}")
    if tree.total_weight != n - 2:
        raise StructureError(
            f"face weights sum to {tree.total_weight}, expected n - 2 = {n - 2}"
        )
    return DualTree(tree=tree, faces=side_faces, side=side,
                    chord_of=chord_of, primal_n=n)


# ---------------------------------------------------------------------------
# Subtrees of the dual <-> cycles of the graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CycleResult:
    """A cycle in the primal graph, as its cyclic vertex sequence."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)


def subtree_to_cycle(dual: DualTree, vertices) -> CycleResult:
    """Boundary cycle of a connected set of dual faces.

    Edges lying on exactly one chosen face form the boundary; for a
    connected face set they form a single cycle of length exactly
    (total weight of the chosen faces) + 2.
    """
    chosen = sorted(set(vertices))
    if not chosen:
        raise ValueError("need at least one dual vertex")
    if any(not 0 <= v < dual.tree.n_vertices for v in chosen):
        raise ValueError("dual vertex id out of range")
    if not _spans_subtree(dual.tree, np.array(chosen, dtype=np.int64)):
        raise ValueError("dual vertices do not induce a connected subtree")

    edge_use = Counter()
    for fid in chosen:
        for e in dual.face_edges(fid):
            edge_use[e] += 1
    boundary = [e for e, cnt in edge_use.items() if cnt == 1]
    if any(cnt > 2 for cnt in edge_use.values()):
        raise StructureError("an edge borders more than two chosen faces")

    neighbors: dict[int, list[int]] = {}
    for a, b in boundary:
        neighbors.setdefault(a, []).append(b)
        neighbors.setdefault(b, []).append(a)
    if any(len(nb) != 2 for nb in neighbors.values()):
        raise StructureError("boundary is not a disjoint union of cycles")

    start = min(neighbors)
    walk = [start, min(neighbors[start])]
    while walk[-1] != start:
        prev, here = walk[-2], walk[-1]
        a, b = neighbors[here]
        walk.append(b if a == prev else a)
    walk.pop()
    if len(walk) != len(boundary):
        raise StructureError("boundary is not a single cycle")

    expected = int(dual.tree.weights[chosen].sum()) + 2
    if len(walk) != expected:
        raise StructureError(
            f"boundary length {len(walk)} != subtree weight + 2 = {expected}"
        )
    return CycleResult(tuple(walk))


def verify_cycle(graph: PlaneGraph, cycle: CycleResult) -> bool:
    """Independent validation: distinct vertices, length >= 3, each
    consecutive pair (cyclically) an edge of the graph."""
    seq = cycle.vertices
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    if any(not 0 <= v < graph.n_vertices for v in seq):
        return False
    return all(
        seq[(i + 1) % len(seq)] in graph.adjacency[seq[i]]
        for i in range(len(seq))
    )


# ---------------------------------------------------------------------------
# Cycle search by edge density
# ---------------------------------------------------------------------------


def cycle_search_guaranteed(n: int, m: int, k: int, g: int) -> bool:
    """Whether edge density alone guarantees find_cycle_near succeeds.

    With density excess gamma = m/n - 2, the guarantee needs
    g + ceil(gamma*n) + 2 > 0, 3 <= k <= n, and
    floor((1-gamma)n/2) <= k <= ceil((1+gamma)n)/2 + 2g + 3/2.
    Since gamma*n = m - 2n exactly, everything reduces to integers.
    """
    return (
        g + (m - 2 * n) + 2 > 0
        and 3 <= k <= n
        and (3 * n - m) // 2 <= k
        and 2 * k <= m - n + 4 * g + 3
    )


def find_cycle_near(
    graph: PlaneGraph, ham: HamiltonCycle, k: int, g: int
) -> CycleResult | None:
    """Find a cycle of length in [k-g+1, k] through the interior face tree.

    Builds the interior dual, searches it for a subtree of weight in
    [k-g-1, k-2], and converts the result back to a cycle.  Success is
    guaranteed whenever cycle_search_guaranteed(n, m, k, g) holds; on
    other inputs the search still runs and None is a legitimate outcome.
    """
    if k < 3:
        raise ValueError(f"cycle target k must be >= 3, got {k}")
    if g < 1:
        raise ValueError(f"slack g must be >= 1, got {g}")
    dual = build_dual_tree(graph, ham, "interior")
    try:
        found = find_subtree(dual.tree, k - 2, g)
    except WeightExceedsTargetError:
        # Some single face is already longer than k: the guarantee's
        # hypotheses cannot hold, and no window could help.
        found = None
    if found is None:
        if cycle_search_guaranteed(graph.n_vertices, graph.n_edges, k, g):
            raise InvariantError("density guarantee held but the dual search failed")
        return None
    cycle = subtree_to_cycle(dual, found.vertices)
    if not k - g + 1 <= cycle.length <= k:
        raise InvariantError(f"cycle length {cycle.length} outside [{k - g + 1}, {k}]")
    return cycle


# ---------------------------------------------------------------------------
# Half-length cycles in 3-connected graphs of minimum degree 4
# ---------------------------------------------------------------------------


def is_three_connected(graph: PlaneGraph) -> bool:
    """Brute-force check: no vertex set of size <= 2 disconnects the graph."""
    n = graph.n_vertices
    if n < 4:
        return False
    adjacency = graph.adjacency
    full = b"\x01" * n
    for a in range(n):
        mask = bytearray(full)
        mask[a] = 0
        if not _marked_connected(adjacency, mask):
            return False
    for a in range(n):
        for b in range(a + 1, n):
            mask = bytearray(full)
            mask[a] = mask[b] = 0
            if not _marked_connected(adjacency, mask):
                return False
    return True


def _square_cycle_positions(length: int) -> list[int]:
    """A cycle of the given length in the square of a cycle, by hop pattern:
    walk up the even positions, come back down the odd ones (or the other
    way around for even lengths).  Valid whenever 3 <= length < n."""
    if length % 2:
        a = (length - 1) // 2
        return list(range(0, 2 * a + 1, 2)) + list(range(2 * a - 1, 0, -2))
    a = (length - 2) // 2
    return [0] + list(range(1, 2 * a + 2, 2)) + list(range(2 * a, 1, -2))


def find_half_cycle_3conn(graph: PlaneGraph, ham: HamiltonCycle) -> CycleResult:
    """Cycle of length n/2 - 1 or n/2 - 2 in a 3-connected plane
    hamiltonian graph with minimum degree 4 and even n >= 8.

    Decision tree over the interior region (which has at least 3n/2 edges
    under these hypotheses):
      * more than 3n/2 interior edges: the interior face tree is large
        enough that a weight-exactly-(n/2 - 3) subtree is guaranteed;
        gives length n/2 - 1.
      * all interior faces shorter than n/2: search with slack 2 for
        weight n/2 - 4 or n/2 - 3; gives length n/2 - 2 or n/2 - 1.
      * otherwise both regions have exactly 3n/2 edges (so the graph is
        4-regular); if one of them has only faces shorter than n/2,
        search that side as above.  If both contain a face of length n/2,
        the graph is the square of a cycle, and an explicit hop-pattern
        cycle of length n/2 - 1 is returned.
    """
    n = graph.n_vertices
    if n < 8:
        raise PreconditionError(f"need n >= 8, got {n}")
    if n % 2:
        raise PreconditionError(f"need even n, got {n}")
    if min(graph.degree(v) for v in range(n)) < 4:
        raise PreconditionError("need minimum degree >= 4")
    if not is_three_connected(graph):
        raise PreconditionError("graph is not 3-connected")
    ham.validate(graph)

    target = n // 2 - 3
    cap = n // 2 - 3  # face length < n/2 means dual weight <= n/2 - 3

    interior = build_dual_tree(graph, ham, "interior")
    interior_edges = n + len(interior.chord_of)  # one dual edge per chord

    if interior_edges > 3 * n // 2:
        return _guaranteed_cycle(interior, target, 1, "dense interior")

    if interior.tree.max_weight <= cap:
        return _guaranteed_cycle(interior, target, 2, "small interior faces")

    # Both regions now have exactly 3n/2 edges (edge counts are tied), so
    # the interior/exterior naming was an arbitrary tie-break; the same
    # small-face argument may apply to the other region.
    exterior = build_dual_tree(graph, ham, "exterior")
    if exterior.tree.max_weight <= cap:
        return _guaranteed_cycle(exterior, target, 2, "small exterior faces")

    # Both regions contain a face of length n/2: the only graph consistent
    # with that is the square of a cycle.  Verify via the hamilton
    # labeling and construct the cycle directly.
    positions = ham.positions()
    for v in range(n):
        expect = {
            (positions[v] + off) % n for off in (-2, -1, 1, 2)
        }
        if {positions[u] for u in graph.adjacency[v]} != expect:
            raise StructureError(
                "both regions have a half-length face, yet the graph is not "
                "the square of a cycle; input contradicts the theory"
            )
    walk = [ham.order[p] for p in _square_cycle_positions(n // 2 - 1)]
    cycle = CycleResult(tuple(walk))
    if not verify_cycle(graph, cycle):
        raise InvariantError(f"hop-pattern walk {walk} is not a cycle")
    return cycle


def _guaranteed_cycle(dual: DualTree, target: int, g: int, case: str) -> CycleResult:
    found = find_subtree(dual.tree, target, g)
    if found is None:
        raise InvariantError(f"{case} must contain the target subtree")
    return subtree_to_cycle(dual, found.vertices)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------
#
#   graph <n>
#   <v>: <neighbor> <neighbor> ...     (rotation order)
#   hamilton: v0 v1 ... v_{n-1}


def parse_graph(text: str) -> tuple[PlaneGraph, HamiltonCycle]:
    """Parse the plane-graph file format (rotation lists + hamilton line)."""
    n, lineno, text, start = _read_header(text, "graph", 3)
    lines = text[start:].split("\n")
    ham: HamiltonCycle | None = None
    for i, line in enumerate(lines):
        line = line.strip()
        if line.startswith("hamilton:"):
            if ham is not None:
                raise FormatError("duplicate hamilton line", lineno + 1 + i)
            try:
                ham = HamiltonCycle(tuple(int(tok) for tok in line[9:].split()))
            except ValueError:
                raise FormatError("non-integer token in hamilton line",
                                  lineno + 1 + i) from None
            lines[i] = ""
    _, offsets, neighbors = _read_rows("\n".join(lines), 0, lineno, n, 1,
                                       "<v>: <neighbors>")
    if ham is None:
        raise FormatError("missing 'hamilton:' line")
    graph = PlaneGraph(_csr_rows(offsets, neighbors))
    ham.validate(graph)
    return graph, ham


def serialize_graph(graph: PlaneGraph, ham: HamiltonCycle) -> str:
    out = [f"graph {graph.n_vertices}"]
    for v in range(graph.n_vertices):
        nbrs = " ".join(str(u) for u in graph.adjacency[v])
        out.append(f"{v}: {nbrs}")
    out.append("hamilton: " + " ".join(str(v) for v in ham.order))
    return "\n".join(out) + "\n"
