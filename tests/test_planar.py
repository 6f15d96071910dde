"""Plane graphs, hamilton splits, dual trees, and the cycle searches."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treewindow import (
    CycleResult,
    EmbeddingError,
    FormatError,
    HamiltonCycle,
    NotHamiltonianError,
    PlaneGraph,
    PreconditionError,
    StructureError,
    TreeWindowError,
    build_dual_tree,
    cycle_search_guaranteed,
    find_cycle_near,
    find_half_cycle_3conn,
    find_subtree,
    is_three_connected,
    parse_graph,
    serialize_graph,
    split_by_hamilton,
    subtree_to_cycle,
    verify_cycle,
)
from treewindow.generators import (
    convex_embedding,
    malkevitch,
    small_face_ring,
    square_cycle,
    square_cycle_fanned,
)
from treewindow.planar import _dual_tree, _sides
from treewindow.tree import _csr_tree
from helpers import (
    FUZZ_TOKENS,
    chord_of,
    min_degree_chords,
    naive_cycle_lengths,
    oracle_boundary,
    oracle_dual,
    oracle_face_pairs_three_connected,
    oracle_is_three_connected,
    oracle_parse_graph,
    oracle_split,
    oracle_trace,
    oracle_tree_walk,
    oracle_verify_cycle,
    random_plane_hamiltonian,
)


def ring_graph(n: int) -> tuple[PlaneGraph, HamiltonCycle]:
    """Chordless cycle: two faces, no chords on either side."""
    adjacency = tuple(((v + 1) % n, (v - 1) % n) for v in range(n))
    return PlaneGraph(adjacency), HamiltonCycle(tuple(range(n)))


def lopsided_18() -> tuple[PlaneGraph, HamiltonCycle]:
    """4-regular, tied 9/9 chord split: the interior holds one long face
    while every exterior face is short.  Not 3-connected ({0, 12} is a
    cut), which is why the main search cannot reach this shape."""
    interior = [(i, (i + 2) % 18) for i in range(0, 18, 2)]
    exterior = [(1, 3), (3, 5), (5, 7), (7, 9), (9, 11), (1, 11),
                (13, 15), (15, 17), (13, 17)]
    return convex_embedding(18, interior, exterior)


class TestPlaneGraph:
    def test_octahedron_faces(self):
        graph, _ = malkevitch(1)
        assert graph.n_vertices == 6 and graph.n_edges == 12
        faces = graph.faces
        assert len(faces) == 8
        assert all(len(walk) == 3 for walk in faces)

    def test_nonplanar_rotation_rejected(self):
        k5 = tuple(tuple(u for u in range(5) if u != v) for v in range(5))
        with pytest.raises(EmbeddingError, match="Euler"):
            PlaneGraph(k5)

    def test_asymmetric_rejected(self):
        with pytest.raises(EmbeddingError):
            PlaneGraph(((1, 2), (0,), ()))

    def test_self_loop_rejected(self):
        with pytest.raises(EmbeddingError):
            PlaneGraph(((0, 1), (0, 2), (1, 0)))

    def test_disconnected_rejected(self):
        two_triangles = (
            (1, 2), (2, 0), (0, 1),
            (4, 5), (5, 3), (3, 4),
        )
        with pytest.raises(EmbeddingError):
            PlaneGraph(two_triangles)
        # A triangle beside K4 drawn on the torus: 7 - 9 + 4 = 2 passes Euler.
        triangle_and_torus_k4 = (
            (1, 2), (2, 0), (0, 1),
            (4, 5, 6), (3, 5, 6), (3, 4, 6), (3, 4, 5),
        )
        with pytest.raises(EmbeddingError, match="disconnected"):
            PlaneGraph(triangle_and_torus_k4)

    def test_too_small(self):
        with pytest.raises(EmbeddingError):
            PlaneGraph(((1,), (0,)))

    def test_edges_and_degree(self):
        graph, _ = square_cycle(8)
        assert len(graph.neighbors) == 2 * graph.n_edges == 32
        assert all(graph.degree(v) == 4 for v in range(8))


class TestHamiltonCycle:
    def test_validate_ok(self):
        graph, ham = square_cycle(10)
        ham.validate(graph)  # does not raise

    def test_missing_vertex(self):
        graph, _ = square_cycle(6)
        with pytest.raises(NotHamiltonianError, match="exactly once"):
            HamiltonCycle((0, 1, 2, 3, 4, 4)).validate(graph)

    def test_non_edge_pair(self):
        graph, _ = square_cycle(6)
        with pytest.raises(NotHamiltonianError, match="not an edge"):
            HamiltonCycle((0, 3, 1, 2, 4, 5)).validate(graph)

    def test_order(self):
        ham = HamiltonCycle((2, 0, 1))
        assert ham.order == (2, 0, 1)


class TestSplit:
    def test_octahedron_tie(self):
        graph, ham = malkevitch(1)
        split = split_by_hamilton(graph, ham)
        assert len(split.interior) == len(split.exterior) == 3
        # tie resolved toward the side of the first chord in input order
        assert (0, 4) in split.interior

    def test_square_cycle_tie(self):
        graph, ham = square_cycle(8)
        split = split_by_hamilton(graph, ham)
        assert split.interior == ((0, 2), (0, 6), (2, 4), (4, 6))
        assert split.exterior == ((1, 3), (1, 7), (3, 5), (5, 7))

    def test_k4(self):
        graph, ham = convex_embedding(4, [(0, 2)], [(1, 3)])
        split = split_by_hamilton(graph, ham)
        assert split.interior == ((0, 2),)
        assert split.exterior == ((1, 3),)

    def test_majority_side_wins(self):
        graph, ham = square_cycle_fanned(12)
        split = split_by_hamilton(graph, ham)
        assert len(split.interior) > len(split.exterior)

    def test_chordless(self):
        graph, ham = ring_graph(6)
        split = split_by_hamilton(graph, ham)
        assert split.interior == split.exterior == ()


class TestDualTree:
    def test_square_cycle_interior(self):
        graph, ham = square_cycle(8)
        dual = build_dual_tree(graph, ham, "interior")
        assert sorted(dual.tree.weights) == [1, 1, 1, 1, 2]
        assert dual.tree.total_weight == 6  # n - 2
        assert dual.primal_n == 8 and dual.side == "interior"
        # the long central face is adjacent to all four triangles
        center = dual.tree.weights.tolist().index(2)
        assert dual.tree.degree(center) == 4

    def test_exterior_mirrors_interior(self):
        graph, ham = square_cycle(8)
        dual = build_dual_tree(graph, ham, "exterior")
        assert sorted(dual.tree.weights) == [1, 1, 1, 1, 2]

    def test_chords_match_dual_edges(self):
        graph, ham = square_cycle(8)
        split = split_by_hamilton(graph, ham)
        dual = build_dual_tree(graph, ham, "interior")
        assert set(chord_of(dual).values()) == set(split.interior)

    def test_fanned_interior_is_all_triangles(self):
        graph, ham = square_cycle_fanned(8)
        dual = build_dual_tree(graph, ham, "interior")
        assert dual.tree.weights.tolist() == [1] * 6

    def test_weight_sums(self):
        for graph, ham in (square_cycle(14), small_face_ring(18), malkevitch(3)):
            n = graph.n_vertices
            for side in ("interior", "exterior"):
                dual = build_dual_tree(graph, ham, side)
                assert dual.tree.total_weight == n - 2

    def test_bad_side(self):
        graph, ham = square_cycle(8)
        with pytest.raises(ValueError):
            build_dual_tree(graph, ham, "outside")

    @pytest.mark.parametrize("make", [
        lambda: square_cycle(100_000),
        lambda: square_cycle_fanned(100_000),
        lambda: small_face_ring(99_996),
        lambda: malkevitch(1),
        lambda: malkevitch(2),
        lambda: malkevitch(7),
    ], ids=["square-cycle", "fanned", "small-face-ring", "malkevitch-1", "malkevitch-2",
            "malkevitch-7"])
    def test_walk_matches_walked_tree(self, make):
        """The walk read off the hamilton order is the one a tree build
        walks on the same arrays."""
        graph, ham = make()
        for side in ("interior", "exterior"):
            dual = build_dual_tree(graph, ham, side).tree
            walked = _csr_tree(dual.weights.copy(), dual.offsets.copy(), dual.neighbors.copy())
            assert np.array_equal(dual._stops, walked._stops)
            assert np.array_equal(dual._gaps, walked._gaps)

    @pytest.mark.parametrize("make", [square_cycle, square_cycle_fanned, small_face_ring])
    def test_wrong_regions_refused(self, make):
        """Moving any one face to the other region, with the regions named
        either way round, leaves no tree to build; and with the regions
        named the wrong way round alone, the walk read off the hamilton
        order runs backwards and is refused."""
        graph, ham = make(24)
        seq, chord, in_a, a_inside, interior, turn = _sides(graph, ham)
        cases = [(interior, not a_inside)]
        for face in range(len(interior)):
            flipped = interior.copy()
            flipped[face] = ~flipped[face]
            cases += [(flipped, a_inside), (flipped, not a_inside)]
        for mask, a in cases:
            for side in ("interior", "exterior"):
                with pytest.raises(StructureError,
                                   match=f"^face adjacency of the {side} region is not a tree"):
                    _dual_tree(graph, (seq, chord, in_a, a, mask, turn), side)

    def test_no_sort_and_no_walk(self, monkeypatch):
        """Dual trees take neither the dart pairing sort nor the orbit walk
        of a tree build."""
        import treewindow.planar as planar_mod
        import treewindow.tree as tree_mod

        def refuse(*args):
            raise AssertionError("called")
        graph, ham = square_cycle(40)
        for module, name in ((tree_mod, "_pair_darts"), (tree_mod, "_orbit_of_zero"),
                             (planar_mod, "_pair_darts")):
            monkeypatch.setattr(module, name, refuse)
        for side in ("interior", "exterior"):
            build_dual_tree(graph, ham, side)
        assert find_cycle_near(graph, ham, 20, 2) is not None


class TestSubtreeToCycle:
    def test_single_face(self):
        graph, ham = square_cycle(8)
        dual = build_dual_tree(graph, ham)
        center = dual.tree.weights.tolist().index(2)
        cycle = subtree_to_cycle(dual, [center])
        assert cycle.length == 4
        assert set(cycle.vertices) == {0, 2, 4, 6}
        assert verify_cycle(graph, cycle)

    def test_face_pair(self):
        graph, ham = square_cycle(8)
        dual = build_dual_tree(graph, ham)
        center = dual.tree.weights.tolist().index(2)
        triangle = dual.tree.adjacency[center][0]
        cycle = subtree_to_cycle(dual, [center, triangle])
        assert cycle.length == 5
        assert verify_cycle(graph, cycle)

    def test_length_law_exhaustive(self):
        graph, ham = small_face_ring(12)
        dual = build_dual_tree(graph, ham)
        n2 = dual.tree.n_vertices
        for r in range(1, n2 + 1):
            for chosen in itertools.combinations(range(n2), r):
                try:
                    cycle = subtree_to_cycle(dual, chosen)
                except ValueError:
                    continue  # not connected in the dual
                weight = sum(dual.tree.weights[v] for v in chosen)
                assert cycle.length == weight + 2
                assert verify_cycle(graph, cycle)

    def test_rejects_bad_input(self):
        graph, ham = square_cycle(8)
        dual = build_dual_tree(graph, ham)
        center = dual.tree.weights.tolist().index(2)
        triangles = [v for v in range(5) if v != center]
        with pytest.raises(ValueError):
            subtree_to_cycle(dual, [])
        with pytest.raises(ValueError):
            subtree_to_cycle(dual, [99])
        with pytest.raises(ValueError):
            subtree_to_cycle(dual, triangles[:2])  # meet only at the center


class TestVerifyCycle:
    def test_accepts_triangle(self):
        graph, _ = square_cycle(8)
        assert verify_cycle(graph, CycleResult((0, 1, 2)))

    def test_rejects_short_repeat_nonedge(self):
        graph, _ = square_cycle(8)
        assert not verify_cycle(graph, CycleResult((0, 1)))
        assert not verify_cycle(graph, CycleResult((0, 1, 2, 1)))
        assert not verify_cycle(graph, CycleResult((0, 1, 5)))
        assert not verify_cycle(graph, CycleResult((0, 1, 99)))


class TestFindCycleNear:
    def test_guarantee_predicate(self):
        assert cycle_search_guaranteed(12, 24, 7, 1)
        assert not cycle_search_guaranteed(6, 6, 5, 1)
        assert not cycle_search_guaranteed(12, 24, 2, 1)
        assert not cycle_search_guaranteed(12, 24, 13, 1)

    def test_exact_length_when_guaranteed(self):
        graph, ham = square_cycle(12)
        for k in range(6, 10):
            assert cycle_search_guaranteed(12, 24, k, 1)
            cycle = find_cycle_near(graph, ham, k, 1)
            assert cycle is not None and cycle.length == k
            assert verify_cycle(graph, cycle)

    def test_slack_widens_window(self):
        graph, ham = malkevitch(2)
        cycle = find_cycle_near(graph, ham, 9, 3)
        assert cycle is not None and 7 <= cycle.length <= 9
        assert verify_cycle(graph, cycle)

    def test_chordless_hit_and_miss(self):
        graph, ham = ring_graph(6)
        hit = find_cycle_near(graph, ham, 6, 1)
        assert hit is not None and hit.length == 6
        miss = find_cycle_near(graph, ham, 5, 1)
        assert miss is None
        assert not cycle_search_guaranteed(6, 6, 5, 1)

    def test_bad_arguments(self):
        graph, ham = square_cycle(8)
        with pytest.raises(ValueError):
            find_cycle_near(graph, ham, 2, 1)
        with pytest.raises(ValueError):
            find_cycle_near(graph, ham, 4, 0)

    def test_found_lengths_really_occur(self):
        graph, ham = malkevitch(1)
        lengths = naive_cycle_lengths(graph.adjacency)
        for k in range(3, 7):
            cycle = find_cycle_near(graph, ham, k, 1)
            assert cycle is not None and cycle.length == k
            assert k in lengths


_SMALL_GRAPHS = {
    **{f"square-cycle-{n}": lambda n=n: square_cycle(n) for n in (6, 8, 10, 12)},
    **{f"square-cycle-fanned-{n}": lambda n=n: square_cycle_fanned(n) for n in (8, 10, 12)},
    **{f"small-face-ring-{n}": lambda n=n: small_face_ring(n) for n in (12, 18)},
    **{f"malkevitch-{p}": lambda p=p: malkevitch(p) for p in (1, 2, 3)},
    **{f"ring-{n}": lambda n=n: ring_graph(n) for n in (3, 4, 5)},
    "lopsided-18": lopsided_18,
}


class TestThreeConnected:
    def test_positive(self):
        graph, _ = square_cycle(8)
        assert is_three_connected(graph)

    def test_necklace_has_two_cut(self):
        graph, _ = malkevitch(2)
        assert not is_three_connected(graph)

    def test_ring_has_two_cut(self):
        graph, _ = ring_graph(6)
        assert not is_three_connected(graph)

    def test_small_graphs(self):
        graph, _ = ring_graph(3)
        assert not is_three_connected(graph)

    def test_pendant_vertex(self):
        # Vertex 0 hangs off vertex 4: the face around it repeats 4, and
        # the incidence graph alone would have exactly m 4-cycles.
        graph = PlaneGraph(((4,), (2, 5, 3), (1, 4), (1, 5), (2, 0), (3, 1)))
        assert not is_three_connected(graph)

    @pytest.mark.parametrize("name", sorted(_SMALL_GRAPHS))
    def test_families_match_oracle(self, name):
        graph, _ = _SMALL_GRAPHS[name]()
        expected = oracle_is_three_connected(graph.adjacency)
        assert is_three_connected(graph) == oracle_face_pairs_three_connected(graph) == expected

    @pytest.mark.parametrize("family", [square_cycle, square_cycle_fanned])
    def test_linear_memory(self, family):
        # Two faces of 10,000 places, or a hub of degree about 20,000: the
        # face-pair test would need about 9 GB on the first.
        graph, _ = family(20000)
        tracemalloc.start()
        try:
            assert is_three_connected(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20


def _drop_edges(rng, rows):
    """rows without 1-3 random edges, which may leave cut vertices, bridges,
    or a graph that is no longer connected or hamiltonian."""
    rows = [list(row) for row in rows]
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(len(rows))
        if rows[v]:
            u = rng.choice(rows[v])
            rows[v].remove(u)
            rows[u].remove(v)
    return tuple(map(tuple, rows))


def _random_plane_graphs(seed, count):
    """PlaneGraphs from random_plane_hamiltonian with n = 4-20, half of them
    with chords drawn toward minimum degree 4 (mostly 3-connected), and
    half of all with edges dropped; inputs PlaneGraph rejects are skipped."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 20)
        chords = min_degree_chords(rng, n) if rng.random() < 0.5 else None
        rows, _ = random_plane_hamiltonian(rng, n, chords)
        if rng.random() < 0.5:
            rows = _drop_edges(rng, rows)
        try:
            yield PlaneGraph(rows), rows
        except EmbeddingError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_three_connected_matches_oracle(seed):
    for graph, rows in _random_plane_graphs(seed, 3):
        expected = oracle_is_three_connected(rows)
        assert oracle_face_pairs_three_connected(graph) == expected, rows
        assert is_three_connected(graph) == expected, rows


def test_three_connected_matches_networkx():
    nx = pytest.importorskip("networkx")
    for graph, rows in _random_plane_graphs(7, 300):
        edges = [(v, u) for v, row in enumerate(rows) for u in row]
        expected = nx.node_connectivity(nx.Graph(edges)) >= 3
        assert is_three_connected(graph) == expected, rows


class TestFindHalfCycle:
    def test_square_cycles(self):
        for n in (8, 10, 12, 16):
            graph, ham = square_cycle(n)
            cycle = find_half_cycle_3conn(graph, ham)
            assert cycle.length in (n // 2 - 1, n // 2 - 2)
            assert verify_cycle(graph, cycle)

    def test_dense_interior_branch(self):
        graph, ham = square_cycle_fanned(12)
        interior = split_by_hamilton(graph, ham).interior
        assert 12 + len(interior) > 3 * 12 // 2  # strict majority of edges
        cycle = find_half_cycle_3conn(graph, ham)
        assert cycle.length == 5  # exact: slack 1 branch
        assert verify_cycle(graph, cycle)

    def test_small_faces_branch(self):
        graph, ham = small_face_ring(12)
        dual = build_dual_tree(graph, ham, "interior")
        assert max(dual.tree.weights) <= 12 // 2 - 3
        cycle = find_half_cycle_3conn(graph, ham)
        assert cycle.length in (4, 5)
        assert verify_cycle(graph, cycle)

    def test_square_of_cycle_branch(self):
        # The square of a 14-cycle again, along another hamilton cycle with
        # hops other than 1 and 2: the square's own cycle comes off the faces.
        relabelled = convex_embedding(
            14, [(2, 5), (6, 9), (0, 10), (2, 4), (6, 8), (10, 12), (0, 12)],
            [(4, 7), (8, 11), (3, 13), (5, 7), (9, 11), (1, 13), (1, 3)])
        for graph, ham in (square_cycle(14), relabelled):
            interior = build_dual_tree(graph, ham, "interior")
            exterior = build_dual_tree(graph, ham, "exterior")
            cap = 14 // 2 - 3
            assert max(interior.tree.weights) > cap
            assert max(exterior.tree.weights) > cap
            cycle = find_half_cycle_3conn(graph, ham)
            assert cycle.length == 6
            assert verify_cycle(graph, cycle)

    def test_exterior_fallback_branch(self):
        # The tied-split shape whose long face sits in the interior while
        # all exterior faces are short cannot be 3-connected, so the public
        # entry point rejects it; drive the branch with the gate relaxed.
        graph, ham = lopsided_18()
        assert all(graph.degree(v) == 4 for v in range(18))
        interior = build_dual_tree(graph, ham, "interior")
        exterior = build_dual_tree(graph, ham, "exterior")
        assert max(interior.tree.weights) == 7 > 18 // 2 - 3
        assert max(exterior.tree.weights) == 4 <= 18 // 2 - 3

        with pytest.raises(PreconditionError, match="3-connected"):
            find_half_cycle_3conn(graph, ham)

        import treewindow.planar as planar_mod
        original = planar_mod.is_three_connected
        planar_mod.is_three_connected = lambda g: True
        try:
            cycle = find_half_cycle_3conn(graph, ham)
        finally:
            planar_mod.is_three_connected = original
        assert cycle.length in (7, 8)
        assert verify_cycle(graph, cycle)

    @pytest.mark.parametrize("make, built", [
        (lambda: square_cycle(12), []),
        (lambda: square_cycle_fanned(12), ["interior"]),
        (lambda: small_face_ring(12), ["interior"]),
        (lopsided_18, ["exterior"]),
    ], ids=["square-cycle", "dense-interior", "small-interior", "small-exterior"])
    def test_builds_only_the_searched_dual(self, monkeypatch, make, built):
        """Face counts and lengths come off the graph; a dual tree is built
        only for the region that is searched."""
        import treewindow.planar as planar_mod
        searched, dual_tree = [], planar_mod._dual_tree
        monkeypatch.setattr(planar_mod, "_dual_tree",
                            lambda *args: searched.append(args[2]) or dual_tree(*args))
        # lopsided_18 reaches the small-exterior branch only with the gate relaxed.
        monkeypatch.setattr(planar_mod, "is_three_connected", lambda graph: True)
        graph, ham = make()
        assert verify_cycle(graph, find_half_cycle_3conn(graph, ham))
        assert searched == built

    def test_hamilton_checked_before_connectivity(self):
        graph, _ = malkevitch(2)  # not 3-connected either
        with pytest.raises(NotHamiltonianError):
            find_half_cycle_3conn(graph, HamiltonCycle(tuple(range(12))))

    def test_preconditions(self):
        graph, ham = square_cycle(6)
        with pytest.raises(PreconditionError, match="n >= 8"):
            find_half_cycle_3conn(graph, ham)

        graph, ham = ring_graph(9)
        with pytest.raises(PreconditionError, match="even"):
            find_half_cycle_3conn(graph, ham)

        interior = [(i, (i + 2) % 8) for i in range(0, 8, 2)]
        exterior = [(3, 5), (5, 7), (1, 7)]  # (1, 3) dropped: degree 3
        graph, ham = convex_embedding(8, interior, exterior)
        with pytest.raises(PreconditionError, match="degree"):
            find_half_cycle_3conn(graph, ham)

        graph, ham = malkevitch(2)
        with pytest.raises(PreconditionError, match="3-connected"):
            find_half_cycle_3conn(graph, ham)


def test_half_cycle_on_random_graphs():
    """Every random sample that meets the hypotheses of
    find_half_cycle_3conn (even n >= 8, minimum degree 4, 3-connected) gets
    a verified cycle of length n/2 - 1 or n/2 - 2."""
    rng = random.Random(15)
    qualified = 0
    for _ in range(200):
        n = rng.randrange(8, 25, 2)
        rows, order = random_plane_hamiltonian(rng, n, min_degree_chords(rng, n))
        graph = PlaneGraph(rows)
        if min(map(len, rows)) < 4 or not is_three_connected(graph):
            continue
        qualified += 1
        cycle = find_half_cycle_3conn(graph, HamiltonCycle(order))
        assert verify_cycle(graph, cycle), rows
        assert cycle.length in (n // 2 - 1, n // 2 - 2), rows
    assert qualified >= 20


def test_headline_band_on_random_graphs():
    """The paper's headline band: on every random sample of minimum degree
    4, the density guarantee covers each k from floor(n/2) to ceil(n/2) + 3
    (clipped to [3, n]), find_cycle_near returns a verified cycle of length
    exactly k, and for n <= 14 exhaustive enumeration has a cycle of that
    length too."""
    rng = random.Random(7)
    qualified = 0
    for _ in range(150):
        n = rng.randint(6, 29)
        rows, order = random_plane_hamiltonian(rng, n, min_degree_chords(rng, n))
        if min(map(len, rows)) < 4:
            continue
        qualified += 1
        graph, ham = PlaneGraph(rows), HamiltonCycle(order)
        spectrum = naive_cycle_lengths(rows) if n <= 14 else None
        for k in range(max(3, n // 2), min(n, (n + 1) // 2 + 3) + 1):
            assert cycle_search_guaranteed(n, graph.n_edges, k, 1), (rows, k)
            cycle = find_cycle_near(graph, ham, k, 1)
            assert cycle is not None and cycle.length == k, (rows, k)
            assert verify_cycle(graph, cycle), (rows, k)
            assert spectrum is None or k in spectrum, (rows, k)
    assert qualified >= 100


def test_guarantee_on_random_graphs():
    """On random plane hamiltonian graphs, most of minimum degree below 4,
    for g in (1, 2, 4) and every k in 3..n: find_cycle_near never returns
    None while cycle_search_guaranteed holds, every cycle it returns is
    verified and of length in [k-g+1, k], and for n <= 12 exhaustive
    enumeration has a cycle of that length too.

    A None outside the guarantee is not checked against the enumeration:
    the search sees only cycles that bound a subtree of interior faces, so
    it may miss a length the graph has."""
    rng = random.Random(11)
    thin = guaranteed = found = spectrum_checked = 0
    for i in range(120):
        n = rng.randint(4, 16)
        chords = min_degree_chords(rng, n) if i % 2 else None
        rows, order = random_plane_hamiltonian(rng, n, chords)
        thin += min(map(len, rows)) < 4
        graph, ham = PlaneGraph(rows), HamiltonCycle(order)
        spectrum = naive_cycle_lengths(rows) if n <= 12 else None
        for g in (1, 2, 4):
            for k in range(3, n + 1):
                cycle = find_cycle_near(graph, ham, k, g)
                if cycle_search_guaranteed(n, graph.n_edges, k, g):
                    guaranteed += 1
                    assert cycle is not None, (rows, k, g)
                if cycle is None:
                    continue
                found += 1
                assert verify_cycle(graph, cycle), (rows, k, g)
                assert k - g + 1 <= cycle.length <= k, (rows, k, g)
                if spectrum is not None:
                    spectrum_checked += 1
                    assert cycle.length in spectrum, (rows, k, g)
    assert thin >= 60 and guaranteed >= 1000
    assert found >= 2000 and spectrum_checked >= 1000


class TestGraphFormat:
    def test_roundtrip(self):
        graph, ham = square_cycle(8)
        text = serialize_graph(graph, ham)
        graph2, ham2 = parse_graph(text)
        assert graph2.adjacency == graph.adjacency
        assert ham2.order == ham.order

    def test_header_errors(self):
        with pytest.raises(FormatError):
            parse_graph("")
        with pytest.raises(FormatError, match="graph"):
            parse_graph("tree 4\n")
        with pytest.raises(FormatError, match=">= 3"):
            parse_graph("graph 2\n")

    def test_body_errors(self):
        base = serialize_graph(*square_cycle(6))
        with pytest.raises(FormatError, match="twice"):
            parse_graph(base + "0: 1 2 4 5\n")
        with pytest.raises(FormatError, match="duplicate hamilton"):
            parse_graph(base + "hamilton: 0 1 2 3 4 5\n")
        with pytest.raises(FormatError, match="hamilton"):
            parse_graph("\n".join(base.splitlines()[:-1]) + "\n")  # line removed
        with pytest.raises(FormatError, match="vertex 3"):
            parse_graph("graph 4\n0: 1 2\n1: 0 3\n2: 0 3\nhamilton: 0 1 3 2\n")

    def test_bad_cycle_rejected(self):
        graph, ham = square_cycle(6)
        text = serialize_graph(graph, HamiltonCycle((0, 2, 4, 1, 3, 5)))
        with pytest.raises(NotHamiltonianError):
            parse_graph(text)

    def test_disconnected_rejected(self):
        # parse_graph walks no extra time for connectivity: Euler's formula
        # refuses two triangles, the hamilton cycle a triangle beside a
        # K4 drawn on the torus (which passes Euler).
        triangle = "0: 1 2\n1: 2 0\n2: 0 1\n"
        with pytest.raises(EmbeddingError, match="Euler"):
            parse_graph("graph 6\n" + triangle + "3: 4 5\n4: 5 3\n5: 3 4\n"
                        "hamilton: 0 1 2 3 4 5\n")
        with pytest.raises(NotHamiltonianError):
            parse_graph("graph 7\n" + triangle + "3: 4 5 6\n4: 3 5 6\n5: 3 4 6\n"
                        "6: 3 4 5\nhamilton: 0 1 2 3 4 5 6\n")


# ---------------------------------------------------------------------------
# Differential fuzz: parse_graph against the line-by-line graph reader
# ---------------------------------------------------------------------------

_FUZZ_GRAPHS = [serialize_graph(*make(n)) for make, n in (
    (square_cycle, 6), (square_cycle, 8), (square_cycle_fanned, 8),
    (small_face_ring, 12), (malkevitch, 1), (malkevitch, 2))]


def _mutate_graph(data, lines: list[str]) -> list[str]:
    """One random edit of a graph file's lines (header first)."""
    i = data.draw(st.integers(1, len(lines) - 1), label="line")
    tokens = lines[i].split(" ")
    t = data.draw(st.integers(0, len(tokens) - 1), label="token")
    kind = data.draw(st.sampled_from(
        ["drop_line", "dup_line", "swap_lines", "drop_token", "dup_token",
         "bad_token", "out_of_range", "comment", "spacing", "header"]), label="kind")
    if kind == "drop_line":
        del lines[i]
    elif kind == "dup_line":
        lines.insert(i, lines[i])
    elif kind == "swap_lines":
        j = data.draw(st.integers(1, len(lines) - 1), label="other")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "comment":
        lines.insert(i, "# " + lines[i])
        lines[i + 1] += " # note"
    elif kind == "spacing":
        gap = data.draw(st.sampled_from(["\t", "  ", "\xa0", "\x1f", "\x0b"]))
        lines[i] = gap + lines[i].replace(" ", gap) + gap
    elif kind == "header":
        lines[0] = data.draw(st.sampled_from(["graph 2", "graph x", "tree 6", "graph 99"]))
    else:
        if kind == "drop_token":
            del tokens[t]
        elif kind == "dup_token":
            tokens.insert(t, tokens[t])
        else:
            suffix = ":" if tokens[t].endswith(":") else ""
            tokens[t] = (data.draw(st.sampled_from(FUZZ_TOKENS)) if kind == "bad_token"
                         else str(data.draw(st.sampled_from([-1, 99, len(lines)])))) + suffix
        lines[i] = " ".join(tokens)
    return lines


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_graph_reader_matches_oracle(data):
    lines = data.draw(st.sampled_from(_FUZZ_GRAPHS), label="graph").splitlines()
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        lines = _mutate_graph(data, lines)
    text = "\n".join(lines) + "\n"
    try:
        adjacency, order = oracle_parse_graph(text)
        HamiltonCycle(order).validate(PlaneGraph(adjacency))
        expected = (adjacency, order)
    except TreeWindowError as exc:
        expected = type(exc)
    try:
        graph, ham = parse_graph(text)
    except TreeWindowError as exc:
        assert type(exc) is expected, (text, exc)
        return
    assert (graph.adjacency, ham.order) == expected, text


# ---------------------------------------------------------------------------
# Vertex ids: integers only, at every entry point
# ---------------------------------------------------------------------------

_ID_CASES = {
    "hamilton-bool": (lambda g, d: HamiltonCycle((True, 0, 2, 3, 4, 5)).validate(g),
                      NotHamiltonianError),
    "hamilton-float": (lambda g, d: HamiltonCycle((0.0, 1, 2, 3, 4, 5)).validate(g),
                       NotHamiltonianError),
    "hamilton-numpy": (lambda g, d: HamiltonCycle(tuple(np.arange(6))).validate(g), None),
    "verify-float": (lambda g, d: verify_cycle(g, CycleResult((0.0, 1, 2))), False),
    "verify-bool": (lambda g, d: verify_cycle(g, CycleResult((True, 2, 0))), False),
    "verify-numpy": (lambda g, d: verify_cycle(g, CycleResult(tuple(np.arange(3)))), True),
    "subtree-float": (lambda g, d: subtree_to_cycle(d, [1.0]), ValueError),
    "subtree-bool": (lambda g, d: subtree_to_cycle(d, [True]), ValueError),
    "subtree-numpy": (lambda g, d: subtree_to_cycle(d, [np.int64(1)]).length, 3),
}


@pytest.mark.parametrize("case", sorted(_ID_CASES))
def test_vertex_ids_must_be_integers(case):
    graph, ham = square_cycle(6)
    dual = build_dual_tree(graph, ham)
    call, expected = _ID_CASES[case]
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(graph, dual)
    else:
        assert call(graph, dual) == expected


# ---------------------------------------------------------------------------
# The dart arrays read no rows
# ---------------------------------------------------------------------------


def test_no_row_reads(monkeypatch):
    text = serialize_graph(*square_cycle_fanned(60))
    reads = []
    for name in ("adjacency", "faces"):
        view = getattr(PlaneGraph, name)
        monkeypatch.setattr(PlaneGraph, name, property(
            lambda graph, view=view, name=name: reads.append(name) or view.fget(graph)))
    graph, ham = parse_graph(text)
    split_by_hamilton(graph, ham)
    dual = build_dual_tree(graph, ham, "exterior")
    cycle = find_cycle_near(graph, ham, 40, 1)
    subtree_to_cycle(dual, [0])
    assert verify_cycle(graph, cycle)
    graph, ham = small_face_ring(12)
    assert is_three_connected(graph)
    assert verify_cycle(graph, find_half_cycle_3conn(graph, ham))
    assert reads == []
    graph.faces
    assert reads == ["faces"]  # the counter works


# ---------------------------------------------------------------------------
# Differential fuzz: faces, split, duals and boundaries against the
# tuple-based oracles, on random plane hamiltonian graphs
# ---------------------------------------------------------------------------


def _same_faces(faces, expected, chordless):
    """faces equal, except that the one face of a chordless region may be
    walked either way round."""
    if chordless:
        return len(faces) == len(expected) == 1 and sorted(faces[0]) == sorted(expected[0])
    return faces == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(4, 30), st.integers(0, 2**32 - 1), st.data())
def test_planar_matches_oracles(n, seed, data):
    rng = random.Random(seed)
    rows, order = random_plane_hamiltonian(rng, n)
    graph, ham = PlaneGraph(rows), HamiltonCycle(order)
    assert graph.adjacency == rows
    assert graph.faces == oracle_trace(rows)[0]
    split = split_by_hamilton(graph, ham)
    assert (split.interior, split.exterior) == oracle_split(rows, order)
    for side, chords in (("interior", split.interior), ("exterior", split.exterior)):
        dual = build_dual_tree(graph, ham, side)
        faces, dual_rows, weights, oracle_chords = oracle_dual(rows, order, side)
        assert _same_faces(dual.faces, faces, not chords)
        assert dual.tree.adjacency == dual_rows
        assert dual.tree.weights.tolist() == weights
        assert (dual.tree._stops.tolist(), dual.tree._gaps.tolist()) == oracle_tree_walk(
            dual.tree.offsets, dual.tree.neighbors)
        assert chord_of(dual) == oracle_chords
        k = data.draw(st.integers(dual.tree.max_weight, n - 2), label="k")
        found = find_subtree(dual.tree, k, data.draw(st.integers(1, 3), label="g"))
        if found is None:
            continue
        cycle = subtree_to_cycle(dual, found.vertices)
        assert cycle.vertices == oracle_boundary(faces, found.vertices)
        assert verify_cycle(graph, cycle)
        seq = list(cycle.vertices)
        i = data.draw(st.integers(0, len(seq) - 1), label="at")
        seq[i] = data.draw(st.sampled_from([seq[i - 1], -1, n, rng.randrange(n)]), label="to")
        bad = CycleResult(tuple(seq))
        assert verify_cycle(graph, bad) == oracle_verify_cycle(rows, seq)
