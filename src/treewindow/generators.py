"""Instance generators: weighted trees and plane hamiltonian graphs.

All generators are deterministic (a seed argument where randomness is
involved), so serialized instances are byte-for-byte reproducible.
"""

from __future__ import annotations

import random

import numpy as np

from .planar import HamiltonCycle, PlaneGraph
from .tree import WeightedTree, _csr_tree


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
    at: list[tuple[list[int], list[int]]] = [([], []) for _ in range(n)]
    for side, chords in enumerate((interior, exterior)):
        for a, b in chords:
            at[a][side].append(b)
            at[b][side].append(a)
    rows = []
    for v, (ins, outs) in enumerate(at):
        ins = sorted(ins, key=lambda w: (w - v) % n)
        outs = sorted(outs, key=lambda w: -((w - v) % n))
        rows.append(tuple([(v + 1) % n] + ins + [(v - 1) % n] + outs))
    return PlaneGraph(tuple(rows)), HamiltonCycle(tuple(range(n)))


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

# One bead: the octahedron as an antiprism, outer triangle 1 2 3 and inner
# triangle 4 5 6, rotations counterclockwise.  Vertex L of bead i becomes
# index 6*i + L - 1.
_BEAD_ROTATION = {
    1: (2, 5, 4, 3),
    2: (3, 6, 5, 1),
    3: (1, 4, 6, 2),
    4: (1, 5, 6, 3),
    5: (4, 1, 2, 6),
    6: (4, 5, 2, 3),
}
# Hamilton path through a bead from vertex 1 to vertex 2.
_BEAD_PATH = (1, 4, 3, 6, 5, 2)


def malkevitch(p: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """Necklace of p octahedra: 4-regular, n = 6p.

    For p = 1 this is the octahedron itself, which is 3-connected.  For
    p >= 2, each bead loses its outer 1-2 edge and instead links its
    vertex 2 to the next bead's vertex 1, closing a ring of beads; the
    link edge takes over the removed edge's slot in both rotations, so the
    embedding stays plane.  The necklace is then only 2-connected: the two
    link ends of a bead cut it from the rest.
    The cycle spectrum of these graphs has a gap: short cycles live
    inside single beads, long ones must traverse the whole necklace.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")

    def idx(bead: int, label: int) -> int:
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
    order = tuple(idx(bead, label) for bead in range(p) for label in _BEAD_PATH)
    graph = PlaneGraph(tuple(rows))
    ham = HamiltonCycle(order)
    ham.validate(graph)
    return graph, ham
