"""Plane hamiltonian graphs: faces, hamilton splits, dual trees, cycles.

A plane graph is a rotation system (ordered neighbor lists), stored like a
tree as int64 CSR arrays.  Building one walks every face once; the rest is
read off that walk and the hamilton positions with whole-array
operations.  A hamilton cycle drawn in the plane splits the other edges
(chords) into two regions, and each region's faces form a tree under
adjacency across chords.  Its closed walk crosses the chords in hamilton
order, so it is read off that order, and checked to be a tree's walk.
With face weight length - 2, the boundary of a connected face set S is a
cycle of length weight(S) + 2.  That turns "find a cycle of length near
k" into "find a subtree of weight near k-2", which the window search
answers in linear time.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _Rotation,
    _check_int,
    _csr,
    _csr_rows,
    _first_non_int,
    _pair_darts,
    _read_header,
    _read_rows,
    _spans_subtree,
    _store,
    _successor,
    _tails,
    _totals,
)


# ---------------------------------------------------------------------------
# Plane graphs and their faces
# ---------------------------------------------------------------------------


class PlaneGraph(_Rotation):
    """Plane graph as a rotation system in CSR form.

    offsets (n + 1 entries) and neighbors (2m dart heads) are read-only
    int64 arrays: vertex v's neighbors in rotation order are
    neighbors[offsets[v]:offsets[v + 1]]; n_edges is an int.
    PlaneGraph(adjacency) takes neighbor rows; adjacency and faces are
    tuple views built on each access.  Construction validates simplicity,
    symmetry, connectivity, and Euler's formula n - m + f = 2 over the
    traced faces (i.e. that the rotation system really is plane).
    """

    __slots__ = ("n_edges", "_reverse", "_walk", "_face_offsets")

    def __init__(self, adjacency) -> None:
        _plane_graph(*_csr(adjacency, EmbeddingError), self)
        # Euler's formula alone passes a disconnected union with a non-planar
        # part.  parse_graph needs no walk: its hamilton cycle spans the graph.
        if not _connected(self.offsets, self.neighbors):
            raise EmbeddingError("graph is disconnected")

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The faces as vertex walks, ordered by and starting from their
        smallest dart; built on each access."""
        return _csr_rows(self._face_offsets, _tails(self.offsets)[self._walk])


def _connected(offsets, neighbors) -> bool:
    """Whether the CSR graph is connected, by a walk from vertex 0."""
    off, nbrs = offsets.tolist(), memoryview(neighbors)
    seen, stack = bytearray(len(off) - 1), [0]
    seen[0] = 1
    while stack:
        v = stack.pop()
        for u in nbrs[off[v]:off[v + 1]]:
            if not seen[u]:
                seen[u] = 1
                stack.append(u)
    return 0 not in seen


def _plane_graph(offsets, neighbors, graph=None) -> PlaneGraph:
    """Validate int64 CSR arrays as a plane graph (all but connectivity)
    and walk its faces; the arrays and the walk go into graph, a new
    PlaneGraph unless given."""
    graph = PlaneGraph.__new__(PlaneGraph) if graph is None else graph
    n = len(offsets) - 1
    if n < 3:
        raise EmbeddingError(f"plane graph needs >= 3 vertices, got {n}")
    reverse = _pair_darts(offsets, neighbors, EmbeddingError)

    # The faces are the successor orbits; walk each from its smallest dart,
    # so they come in order of that dart.
    successor = _successor(offsets, neighbors, reverse.copy())
    walk = np.empty_like(successor)
    succ, out, seen = memoryview(successor), memoryview(walk), bytearray(len(walk))
    starts, i = [], 0
    for first in range(len(walk)):
        if not seen[first]:
            starts.append(i)
            d = first
            while not seen[d]:  # until the orbit is back at first
                seen[d] = 1
                out[i] = d
                i += 1
                d = succ[d]
    del successor, succ, out, seen

    m, f = len(neighbors) // 2, len(starts)
    if n - m + f != 2:
        raise EmbeddingError(
            f"Euler check failed: n - m + f = {n} - {m} + {f} != 2; "
            "the rotation system is not a plane embedding"
        )
    graph.n_edges = m
    for name, array in (("offsets", offsets), ("neighbors", neighbors),
                        ("_reverse", reverse), ("_walk", walk),
                        ("_face_offsets", np.array(starts + [len(walk)], dtype=np.int64))):
        array.flags.writeable = False
        setattr(graph, name, array)
    return graph


# ---------------------------------------------------------------------------
# Hamilton cycles and the two-sided split
# ---------------------------------------------------------------------------


def _cycle_darts(graph: PlaneGraph, seq: np.ndarray) -> np.ndarray:
    """The darts v -> w of graph where w follows v in the cyclic vertex
    sequence seq (a repeated v counts once), in dart order: len(seq) of
    them exactly when the vertices are distinct and each consecutive pair
    is an edge."""
    following = np.full(graph.n_vertices, -1, dtype=np.int64)
    following[seq] = np.roll(seq, -1)
    return np.flatnonzero(graph.neighbors == following[_tails(graph.offsets)])


@dataclass(frozen=True)
class HamiltonCycle:
    """A hamilton cycle as the vertex sequence v0 v1 ... v_{n-1}."""

    order: tuple[int, ...]

    def validate(self, graph: PlaneGraph) -> None:
        _hamilton_darts(graph, self.order)


def _hamilton_darts(graph: PlaneGraph, order) -> tuple[np.ndarray, np.ndarray]:
    """order as an array and the dart from each vertex to its successor on
    the cycle, in vertex order; raises NotHamiltonianError unless order is
    a hamilton cycle of graph."""
    n = graph.n_vertices
    seq = None if _first_non_int(order, 0, n) is not None else np.array(order, dtype=np.int64)
    if seq is None or len(seq) != n or np.count_nonzero(np.bincount(seq, minlength=n)) != n:
        raise NotHamiltonianError("cycle must list every vertex exactly once")
    darts = _cycle_darts(graph, seq)
    if len(darts) != n:  # the first vertex of the cycle without its dart
        i = int(np.argmin(np.isin(seq, np.searchsorted(graph.offsets, darts, "right") - 1)))
        raise NotHamiltonianError(
            f"consecutive pair ({order[i]}, {order[(i + 1) % n]}) is not an edge")
    return seq, darts


@dataclass(frozen=True)
class Split:
    """Non-cycle edges of a plane hamiltonian graph, by region.

    interior is the side with at least as many chords as exterior; on a
    tie, the side containing the first chord in input order.
    """

    interior: tuple[tuple[int, int], ...]
    exterior: tuple[tuple[int, int], ...]


def _sides(graph: PlaneGraph, ham: HamiltonCycle):
    """Validate ham and read the regions off the rotation, which at each
    vertex runs cycle successor, region A's chords, cycle predecessor,
    region B's chords.  Returns the order as an array, per dart whether it
    is a chord and whether the angle after it lies in A (the face of dart
    d lies in the region of the angle after reverse(d)), whether A is the
    interior, per face whether it lies in the interior, and per dart its
    turn, its place in the rotation counted from the cycle successor."""
    seq, following = _hamilton_darts(graph, ham.order)
    reverse, offsets = graph._reverse, graph.offsets
    preceding = np.empty_like(following)
    preceding[graph.neighbors[following]] = reverse[following]
    tails, degrees = _tails(offsets), np.diff(offsets)
    turn = (np.arange(len(tails)) - following[tails]) % degrees[tails]
    span = ((preceding - following) % degrees)[tails]
    in_a = turn < span
    chord = (turn != 0) & (turn != span)
    # A plane embedding of this cycle puts every chord on one side.
    clash = np.flatnonzero(chord & (in_a != in_a[reverse]))
    if len(clash):
        pair = sorted((int(tails[clash[0]]), int(graph.neighbors[clash[0]])))
        raise EmbeddingError(
            f"chord {tuple(pair)} lies on different sides at its endpoints; "
            "not a plane embedding of this hamilton cycle"
        )
    a_chords = np.count_nonzero(chord & in_a)
    b_chords = np.count_nonzero(chord) - a_chords
    a_inside = a_chords > b_chords or a_chords == b_chords and (
        not b_chords or bool(in_a[np.argmax(chord)]))  # the first chord's side
    interior = in_a[reverse[graph._walk[graph._face_offsets[:-1]]]] == a_inside
    return seq, chord, in_a, a_inside, interior, turn


def split_by_hamilton(graph: PlaneGraph, ham: HamiltonCycle) -> Split:
    """Partition the chords into the two regions of the hamilton cycle."""
    _, chord, in_a, a_inside, _, _ = _sides(graph, ham)
    tails, n = _tails(graph.offsets), graph.n_vertices
    keys = tails * n + graph.neighbors
    chord &= tails < graph.neighbors  # each chord once, from its smaller end

    def pairs(mask):
        a, b = np.divmod(np.sort(keys[mask]), n)
        return tuple(zip(a.tolist(), b.tolist()))

    side_a, side_b = pairs(chord & in_a), pairs(chord & ~in_a)
    return Split(side_a, side_b) if a_inside else Split(side_b, side_a)


# ---------------------------------------------------------------------------
# Dual trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualTree:
    """The faces of one region of the hamilton cycle, as a weighted tree.

    Dual vertex i is the face whose vertex walk is
    face_vertices[face_offsets[i]:face_offsets[i + 1]]; its weight is the
    face length minus 2.  Two faces are adjacent when they share a chord:
    chords[d] holds the ends of the chord that dual dart d (an index of
    tree.neighbors) crosses.  hamilton is the cycle's vertex order.  All
    four are read-only int64 arrays; faces is a view of them.
    """

    tree: WeightedTree
    side: str
    primal_n: int
    face_offsets: np.ndarray
    face_vertices: np.ndarray
    chords: np.ndarray
    hamilton: np.ndarray

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The face walks, built on each access."""
        return _csr_rows(self.face_offsets, self.face_vertices)


def build_dual_tree(
    graph: PlaneGraph, ham: HamiltonCycle, side: str = "interior"
) -> DualTree:
    """Build the face tree of one region (side "interior" or "exterior").

    The region's faces, in the graph's face order, become the dual
    vertices; each face's chord darts, in walk order, give its dual
    neighbors.  The dual's closed walk is read off the hamilton order, and
    checked: the result is a tree and its weights sum to n - 2.
    """
    if side not in ("interior", "exterior"):
        raise ValueError(f"side must be 'interior' or 'exterior', got {side!r}")
    return _dual_tree(graph, _sides(graph, ham), side)


def _dual_tree(graph: PlaneGraph, sides, side: str) -> DualTree:
    seq, chord, _, a_inside, interior, turn = sides
    in_region = interior if side == "interior" else ~interior
    n = graph.n_vertices
    walk, reverse, bounds = graph._walk, graph._reverse, graph._face_offsets
    lengths = np.diff(bounds)
    ids = np.flatnonzero(in_region)
    on_region = np.repeat(in_region, lengths)  # per position of the walk
    dual_of = np.empty_like(walk)  # per dart, the dual vertex of its face
    dual_of[walk] = np.repeat(np.cumsum(in_region) - 1, lengths)

    darts = walk[on_region & chord[walk]]  # the region's chord darts, walk order
    index = np.full(len(walk), -1)  # per dart, its index among darts
    index[darts] = np.arange(len(darts))
    back = index[reverse[darts]]  # the dual's reverse darts
    not_tree = StructureError(f"face adjacency of the {side} region is not a tree")
    if len(darts) != 2 * (len(ids) - 1) or (back < 0).any():
        raise not_tree
    tails = dual_of[darts]
    neighbors = tails[back]
    offsets = np.r_[0, np.cumsum(np.bincount(tails, minlength=len(ids)))]
    # The closed walk round the dual crosses each chord next to one end,
    # in hamilton order round the region: chord darts by the place of
    # their tail, descending in region A and ascending in B, and at one
    # vertex in rotation order.  If successor steps through every dart in
    # that order, the faces are connected, and with one edge fewer than
    # faces they form a tree.
    primal_tails = _tails(graph.offsets)
    place = np.empty(n, dtype=np.int64)
    place[seq] = np.arange(n)
    at = place[primal_tails[darts]]
    tour = np.lexsort((turn[darts], -at if a_inside == (side == "interior") else at))
    tour = np.roll(tour, -int(np.argmax(tour == 0))) if len(tour) else tour
    if (_successor(offsets, neighbors, back)[tour] != np.roll(tour, -1)).any():
        raise not_tree
    weights = lengths[ids] - 2
    tree = _store(None, _totals(weights), weights, offsets, neighbors, tails[tour], tour)
    if tree.total_weight != n - 2:
        raise StructureError(
            f"face weights sum to {tree.total_weight}, expected n - 2 = {n - 2}"
        )

    face_offsets = np.r_[0, np.cumsum(lengths[ids])]
    face_vertices = primal_tails[walk[on_region]]
    chords = np.c_[primal_tails[darts], graph.neighbors[darts]]
    for array in (face_offsets, face_vertices, chords, seq):
        array.flags.writeable = False
    return DualTree(tree=tree, side=side, primal_n=n, face_offsets=face_offsets,
                    face_vertices=face_vertices, chords=chords, hamilton=seq)


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

    The region is a dissection of the hamilton polygon, so the boundary of
    a connected face set runs through the set's vertices in hamilton
    order; its length is exactly (total weight of the chosen faces) + 2.
    The cycle starts at its smallest vertex and runs toward the smaller of
    that vertex's two neighbors on it.  vertices is an integer array, such
    as SubtreeResult.ids, or any collection of ids.
    """
    chosen = vertices if isinstance(vertices, np.ndarray) else list(vertices)
    if not len(chosen):
        raise ValueError("need at least one dual vertex")
    bad = _first_non_int(chosen, 0, dual.tree.n_vertices)
    if bad is not None:
        raise ValueError(f"dual vertex {chosen[bad]!r} is not an id in range")
    on_picked = np.zeros(dual.tree.n_vertices, dtype=bool)
    on_picked[np.asarray(chosen, dtype=np.int64)] = True
    picked = np.flatnonzero(on_picked)
    if not _spans_subtree(dual.tree, picked):
        raise ValueError("dual vertices do not induce a connected subtree")

    inside = np.zeros(dual.primal_n, dtype=bool)
    inside[dual.face_vertices[np.repeat(on_picked, np.diff(dual.face_offsets))]] = True
    ring = dual.hamilton[inside[dual.hamilton]]
    expected = int(dual.tree.weights[picked].sum()) + 2
    if len(ring) != expected:
        raise StructureError(
            f"boundary length {len(ring)} != subtree weight + 2 = {expected}"
        )
    walk = np.roll(ring, -int(np.argmin(ring))).tolist()
    if walk[-1] < walk[1]:
        walk[1:] = walk[:0:-1]
    return CycleResult(tuple(walk))


def verify_cycle(graph: PlaneGraph, cycle: CycleResult) -> bool:
    """Independent validation: length >= 3, and each vertex id, in cyclic
    order, has a dart to the next; a repeated vertex gets at most one dart,
    so that also proves the vertices distinct."""
    seq = cycle.vertices
    if len(seq) < 3 or _first_non_int(seq, 0, graph.n_vertices) is not None:
        return False
    return len(_cycle_darts(graph, np.array(seq, dtype=np.int64))) == len(seq)


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
    k = _check_int("cycle target k", k, 3)
    g = _check_int("slack g", g, 1)
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
    cycle = subtree_to_cycle(dual, found.ids)
    if not k - g + 1 <= cycle.length <= k:
        raise InvariantError(f"cycle length {cycle.length} outside [{k - g + 1}, {k}]")
    return cycle


# ---------------------------------------------------------------------------
# Half-length cycles in 3-connected graphs of minimum degree 4
# ---------------------------------------------------------------------------


def is_three_connected(graph: PlaneGraph) -> bool:
    """Whether n >= 4 and no two vertices disconnect the graph.

    A plane graph has no cut vertex iff no face walk repeats a vertex.
    Then each edge vw closes exactly one 4-cycle v f w f' in the
    vertex-face incidence graph, through its two faces f and f'; any other
    4-cycle is a closed curve through two vertices v and w with vertices
    on both sides, so {v, w} is a 2-cut.  So the graph is 3-connected iff
    the incidence graph has exactly m 4-cycles.  They are counted as in
    Chiba and Nishizeki, "Arboricity and subgraph listing algorithms"
    (1985): with the nodes ranked by degree, each 4-cycle once from its
    top node x, over the wedges x-y-z whose y and z rank below x.  Edge
    x-y then adds deg(y) = min(deg(x), deg(y)) wedges, which sums to O(m)
    over a plane graph."""
    n, walk, bounds = graph.n_vertices, graph._walk, graph._face_offsets
    if n < 4:
        return False
    # The incidence graph in CSR form: vertex v's faces, one per dart, then
    # face i's vertices, one per place of its walk.
    lengths = np.diff(bounds)
    faces_of = np.empty_like(walk)
    faces_of[walk] = np.repeat(np.arange(n, n + len(lengths)), lengths)
    neighbors = np.r_[faces_of, _tails(graph.offsets)[walk]]
    offsets = np.r_[graph.offsets, len(walk) + bounds[1:]]
    degree = np.diff(offsets)
    rank = np.empty_like(degree)
    rank[np.argsort(degree, kind="stable")] = np.arange(len(degree))

    x = np.repeat(rank, degree)
    down = rank[neighbors] < x  # the edges x-y with y below x
    x, y = x[down], neighbors[down]
    size = degree[y]
    z = np.arange(size.sum()) + np.repeat(offsets[y] - np.cumsum(size) + size, size)
    x, z = np.repeat(x, size), rank[neighbors[z]]
    # A face walk through v k times lists v k times in its face's row and
    # the face k times in v's, so their edge leads back to x k * k times.
    if np.count_nonzero(z == x) != len(y):
        return False  # a face walk repeats a vertex, which is a cut vertex
    keys = np.sort((x * len(rank) + z)[z < x])  # one per wedge x-y-z
    runs = np.diff(np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True]))
    return int((runs * (runs - 1) // 2).sum()) == graph.n_edges


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
        the graph is the square of a cycle, whose cycle of hops 1 is read
        off the faces (it need not be ham), and an explicit hop-pattern
        cycle of length n/2 - 1 is returned.
    """
    n = graph.n_vertices
    if n < 8:
        raise PreconditionError(f"need n >= 8, got {n}")
    if n % 2:
        raise PreconditionError(f"need even n, got {n}")
    if np.diff(graph.offsets).min() < 4:
        raise PreconditionError("need minimum degree >= 4")
    sides = _sides(graph, ham)
    if not is_three_connected(graph):
        raise PreconditionError("graph is not 3-connected")

    lengths = np.diff(graph._face_offsets)
    _, _, _, _, interior, _ = sides
    dense = n + np.count_nonzero(interior) - 1 > 3 * n // 2  # one interior edge per chord
    # A dense interior is searched first.  Otherwise both regions have
    # exactly 3n/2 edges (edge counts are tied), so the interior/exterior
    # naming was an arbitrary tie-break; the same small-face argument may
    # apply to the other region.
    for side, faces in (("interior", interior), ("exterior", ~interior)):
        if dense or lengths[faces].max() < n // 2:
            dual = _dual_tree(graph, sides, side)
            found = find_subtree(dual.tree, n // 2 - 3, 1 if dense else 2)
            if found is None:
                raise InvariantError(f"the {side} faces must contain the target subtree")
            return subtree_to_cycle(dual, found.ids)

    # Both regions now hold one face of length n/2 and n/2 triangles, which
    # makes the graph the square of a cycle, though ham need not be its
    # cycle of hops 1.  A long face runs along the even places of that
    # cycle, and the face across its edge from place 2i to 2i + 2 is a
    # triangle with third vertex at place 2i + 1.
    longest = int(np.argmax(lengths))
    darts = graph._walk[graph._face_offsets[longest]:graph._face_offsets[longest + 1]]
    r = graph._reverse[darts]
    third = graph.neighbors[_successor(graph.offsets, graph.neighbors[r], graph._reverse[r])]
    order = np.c_[_tails(graph.offsets)[darts], third].ravel()
    # With 2n edges, the graph is the square of order iff order and its
    # even and odd places are cycles of it.
    if graph.n_edges != 2 * n or any(
            len(_cycle_darts(graph, seq)) != len(seq) for seq in (order, order[::2], order[1::2])):
        raise StructureError(
            "both regions have a half-length face, yet the graph is not "
            "the square of a cycle; input contradicts the theory"
        )
    # The boundary of the first n/2 - 3 triangles: up the even places and
    # back down the odd ones.
    length = n // 2 - 1
    cycle = CycleResult(tuple(order[np.r_[0:length:2, length - 1 - length % 2:0:-2]].tolist()))
    if not verify_cycle(graph, cycle):
        raise InvariantError(f"hop-pattern walk {cycle.vertices} is not a cycle")
    return cycle


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
    ham: HamiltonCycle | None = None
    at = text.find("hamilton:", start)
    while at >= 0:
        begin, end = text.rfind("\n", 0, at) + 1, text.find("\n", at)
        end = len(text) if end < 0 else end
        line = text[begin:end].strip()
        if line.startswith("hamilton:"):
            where = lineno + 1 + text.count("\n", start, begin)
            if ham is not None:
                raise FormatError("duplicate hamilton line", where)
            try:
                ham = HamiltonCycle(tuple(map(int, line[9:].split())))
            except ValueError:
                raise FormatError("non-integer token in hamilton line", where) from None
            text, end = text[:begin] + text[end:], begin  # blank the line
        at = text.find("hamilton:", end)
    _, offsets, neighbors = _read_rows(text, start, lineno, n, 1, "<v>: <neighbors>")
    if ham is None:
        raise FormatError("missing 'hamilton:' line")
    graph = _plane_graph(offsets, neighbors)
    ham.validate(graph)
    return graph, ham


def serialize_graph(graph: PlaneGraph, ham: HamiltonCycle) -> str:
    out = [f"graph {graph.n_vertices}"]
    for v, row in enumerate(graph.adjacency):
        out.append(f"{v}: {' '.join(map(str, row))}")
    out.append("hamilton: " + " ".join(str(v) for v in ham.order))
    return "\n".join(out) + "\n"
