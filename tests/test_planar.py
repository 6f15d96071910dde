"""Plane graphs, hamilton splits, dual trees, and the cycle searches."""

import itertools

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
    TreeWindowError,
    build_dual_tree,
    cycle_search_guaranteed,
    find_cycle_near,
    find_half_cycle_3conn,
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
from helpers import FUZZ_TOKENS, naive_cycle_lengths, oracle_parse_graph


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

    def test_too_small(self):
        with pytest.raises(EmbeddingError):
            PlaneGraph(((1,), (0,)))

    def test_edges_and_degree(self):
        graph, _ = square_cycle(8)
        assert len(graph.edges()) == graph.n_edges == 16
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

    def test_positions_and_edges(self):
        ham = HamiltonCycle((2, 0, 1))
        assert ham.positions() == {2: 0, 0: 1, 1: 2}
        assert ham.edge_set() == {(0, 2), (0, 1), (1, 2)}


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
        assert set(dual.chord_of.values()) == set(split.interior)

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
        graph, ham = square_cycle(14)
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
