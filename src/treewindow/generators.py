"""Instance generators: weighted trees and plane hamiltonian graphs.

All generators are deterministic (a seed argument where randomness is
involved), so serialized instances are byte-for-byte reproducible.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import EmbeddingError
from .planar import HamiltonCycle, PlaneGraph, _plane_graph
from .tree import WeightedTree, _csr_tree, _first_non_int


def random_tree(n: int, max_weight: int = 9, seed: int = 0) -> WeightedTree:
    """Random tree on n vertices with weights uniform in 1..max_weight.

    Vertex v >= 1 attaches to a uniformly random earlier vertex, which
    biases toward short trees; good enough for fuzzing and demos.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if max_weight < 1:
        raise ValueError(f"need max_weight >= 1, got {max_weight}")
    rng = random.Random(seed)
    parent = np.array([rng.randrange(v) for v in range(1, n)], dtype=np.int64)
    weights = np.array([rng.randint(1, max_weight) for _ in range(n)], dtype=np.int64)
    # Vertex v's rotation: its parent (v >= 1), then its children in
    # ascending order; so the children, sorted by parent, fill every slot
    # that is not a parent slot.
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(parent, minlength=n) + (np.arange(n) > 0), out=offsets[1:])
    neighbors = np.empty(2 * n - 2, dtype=np.int64)
    parent_slot = np.zeros(2 * n - 2, dtype=bool)
    parent_slot[offsets[1:n]] = True
    neighbors[parent_slot] = parent
    neighbors[~parent_slot] = np.argsort(parent, kind="stable") + 1
    return _csr_tree(weights, offsets, neighbors)


# ---------------------------------------------------------------------------
# Plane hamiltonian graphs with the cycle on a convex polygon
# ---------------------------------------------------------------------------


def convex_embedding(
    n: int,
    interior: list[tuple[int, int]],
    exterior: list[tuple[int, int]],
) -> tuple[PlaneGraph, HamiltonCycle]:
    """Embed the cycle 0..n-1 as a convex polygon with the given chords
    drawn inside respectively outside.  At each vertex the rotation is:
    ring successor, interior chords by ascending hop length, ring
    predecessor, exterior chords by descending hop length."""
    inside = [end for a, b in interior for end in (a, b)]
    ends = inside + [end for a, b in exterior for end in (a, b)]
    bad = _first_non_int(ends, 0, n)
    if bad is not None:
        raise EmbeddingError(f"vertex {ends[bad ^ 1]}: neighbor {ends[bad]!r} out of range")
    # Both darts of each ring edge (v, v + 1), then of each chord, interior
    # ones first.  By tail, side, then hop (exterior: counted backwards),
    # they take rotation order: ring successors hop 1, predecessors n - 1.
    ring = np.arange(n, dtype=np.int64)
    tails = np.r_[np.c_[ring, (ring + 1) % n].ravel(), np.array(ends, dtype=np.int64)]
    heads = tails[np.arange(len(tails)) ^ 1]
    outer = np.arange(len(tails)) >= 2 * len(ring) + len(inside)
    order = np.lexsort((np.where(outer, tails - heads, heads - tails) % n, outer, tails))
    offsets = np.searchsorted(tails[order], np.arange(len(ring) + 1))
    return _plane_graph(offsets, heads[order]), HamiltonCycle(tuple(range(n)))


def square_cycle(n: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """The square of an n-cycle (every vertex joined to neighbors at hop
    1 and 2), drawn with even-hop chords inside and odd-hop outside.
    4-regular, 3-connected, and both regions look identical: the extremal
    input for half-length cycle search."""
    if n < 6 or n % 2:
        raise ValueError(f"need even n >= 6, got {n}")
    interior = [(2 * i, (2 * i + 2) % n) for i in range(n // 2)]
    exterior = [(2 * i + 1, (2 * i + 3) % n) for i in range(n // 2)]
    return convex_embedding(n, interior, exterior)


def square_cycle_fanned(n: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """square_cycle with the central interior face triangulated by a fan
    from vertex 0.  The interior then has 2n-3 > 3n/2 edges, making it
    the dense case of half-length cycle search."""
    if n < 8 or n % 2:
        raise ValueError(f"need even n >= 8, got {n}")
    interior = [(2 * i, (2 * i + 2) % n) for i in range(n // 2)]
    interior += [(0, 2 * j) for j in range(2, n // 2 - 1)]
    exterior = [(2 * i + 1, (2 * i + 3) % n) for i in range(n // 2)]
    return convex_embedding(n, interior, exterior)


def small_face_ring(n: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """4-regular plane hamiltonian graph (n = 6k) where both regions have
    exactly 3n/2 edges and every face is short: interior gets a triangle
    on the three corner vertices plus zigzags along each arc, exterior
    gets caps over the corners plus a convex ring on the remaining even
    vertices.  Exercises half-length search with no dominant face."""
    if n < 12 or n % 6:
        raise ValueError(f"need n = 6k with k >= 2, got {n}")
    k = n // 6
    corners = (0, 2 * k, 4 * k)
    interior = [(0, 2 * k), (2 * k, 4 * k), (0, 4 * k)]
    for a in corners:
        interior += [(a + 1 + 2 * i, a + 3 + 2 * i) for i in range(k - 1)]
    exterior = [((a - 1) % n, a + 1) for a in corners]
    evens = [v for v in range(0, n, 2) if v not in corners]
    exterior += [
        (evens[i], evens[(i + 1) % len(evens)]) for i in range(len(evens))
    ]
    return convex_embedding(n, interior, exterior)


# ---------------------------------------------------------------------------
# Necklaces of octahedra
# ---------------------------------------------------------------------------

# One bead: the octahedron as an antiprism, outer triangle 0 1 2 and inner
# triangle 3 4 5, rotations counterclockwise.  Vertex L of bead i becomes
# index 6*i + L.
_BEAD = np.array([
    (1, 4, 3, 2),
    (2, 5, 4, 0),
    (0, 3, 5, 1),
    (0, 4, 5, 2),
    (3, 0, 1, 5),
    (3, 4, 1, 2),
], dtype=np.int64)
# Hamilton path through a bead from vertex 0 to vertex 1.
_BEAD_PATH = np.array((0, 3, 2, 5, 4, 1))


def malkevitch(p: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """Necklace of p octahedra: 4-regular, n = 6p.

    For p = 1 this is the octahedron itself, which is 3-connected.  For
    p >= 2, each bead loses its outer 0-1 edge and instead links its
    vertex 1 to the next bead's vertex 0, closing a ring of beads; the
    link edge takes over the removed edge's slot in both rotations, so the
    embedding stays plane.  The necklace is then only 2-connected: the two
    link ends of a bead cut it from the rest.
    The cycle spectrum of these graphs has a gap: short cycles live
    inside single beads, long ones must traverse the whole necklace.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    start = 6 * np.arange(p)
    beads = _BEAD + start[:, None, None]
    # The link slots (for p = 1, the bead's own 0-1 edge).
    beads[:, 0, 0] = np.roll(start, 1) + 1
    beads[:, 1, 3] = np.roll(start, -1)
    graph = _plane_graph(np.arange(0, 24 * p + 1, 4, dtype=np.int64), beads.ravel())
    ham = HamiltonCycle(tuple((_BEAD_PATH + start[:, None]).ravel().tolist()))
    ham.validate(graph)
    return graph, ham
