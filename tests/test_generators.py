"""Instance generators: determinism, structure, cycle spectra."""

import random
import re

import numpy as np
import pytest

from treewindow import (
    EmbeddingError,
    HamiltonCycle,
    PlaneGraph,
    generators,
    parse_graph,
    serialize_graph,
    serialize_tree,
)
from treewindow.generators import (
    convex_embedding,
    malkevitch,
    random_tree,
    small_face_ring,
    square_cycle,
    square_cycle_fanned,
)
from helpers import (
    _noncrossing_chords,
    naive_cycle_lengths,
    oracle_convex_rows,
    oracle_malkevitch_rows,
)


def rows_text(rows, order) -> str:
    return serialize_graph(PlaneGraph(rows), HamiltonCycle(order))


class TestRandomTree:
    def test_deterministic(self):
        a = random_tree(12, max_weight=5, seed=7)
        b = random_tree(12, max_weight=5, seed=7)
        assert serialize_tree(a) == serialize_tree(b)
        assert a == b

    def test_seed_changes_output(self):
        a = random_tree(12, seed=1)
        b = random_tree(12, seed=2)
        assert a != b

    def test_weight_bound(self):
        t = random_tree(30, max_weight=3, seed=0)
        assert all(1 <= w <= 3 for w in t.weights)

    def test_single_vertex(self):
        assert random_tree(1).n_vertices == 1

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_tree(0)
        with pytest.raises(ValueError):
            random_tree(3, max_weight=0)


class TestConvexEmbedding:
    def test_crossing_chords_rejected(self):
        with pytest.raises(EmbeddingError):
            convex_embedding(6, [(0, 2), (1, 3)], [])

    def test_square_with_diagonals(self):
        graph, ham = convex_embedding(4, [(0, 2)], [(1, 3)])
        assert graph.n_edges == 6
        ham.validate(graph)

    @pytest.mark.parametrize("end", [6, 2.0, -1, True])
    def test_bad_chord_end(self, end):
        message = f"^vertex 0: neighbor {re.escape(repr(end))} out of range$"
        for sides in (([(0, end)], []), ([], [(0, end)]), ([(end, 0)], []),
                      ([(np.int64(0), end)], [])):
            with pytest.raises(EmbeddingError, match=message):
                convex_embedding(6, *sides)


class TestAgainstRows:
    """The generators write CSR arrays; the row builders they replaced
    hold them byte for byte."""

    @pytest.mark.parametrize("family, n", [
        *((square_cycle, n) for n in (6, 8, 14, 3000)),
        *((square_cycle_fanned, n) for n in (8, 10, 20, 3000)),
        *((small_face_ring, n) for n in (12, 18, 36, 3000)),
    ])
    def test_family(self, family, n, monkeypatch):
        calls = []
        embed = generators.convex_embedding
        monkeypatch.setattr(generators, "convex_embedding",
                            lambda *args: calls.append(args) or embed(*args))
        assert serialize_graph(*family(n)) == rows_text(*oracle_convex_rows(*calls[0]))

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 17])
    def test_malkevitch(self, p):
        assert serialize_graph(*malkevitch(p)) == rows_text(*oracle_malkevitch_rows(p))

    def test_random_chords(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randrange(3, 30)
            taken = set()
            chords = _noncrossing_chords(rng, n, taken), _noncrossing_chords(rng, n, taken)
            assert (serialize_graph(*convex_embedding(n, *chords))
                    == rows_text(*oracle_convex_rows(n, *chords)))


@pytest.mark.parametrize("build", [
    lambda: PlaneGraph(((1, 2), (2, 0), (0, 1))),
    lambda: parse_graph("graph 3\n0: 1 2\n1: 2 0\n2: 0 1\nhamilton: 0 1 2\n")[0],
    lambda: convex_embedding(6, [(0, 2)], [(1, 3)])[0],
    lambda: square_cycle(8)[0],
    lambda: square_cycle_fanned(8)[0],
    lambda: small_face_ring(12)[0],
    lambda: malkevitch(2)[0],
], ids=["PlaneGraph", "parse_graph", "convex_embedding", "square_cycle",
        "square_cycle_fanned", "small_face_ring", "malkevitch"])
def test_graph_arrays_read_only_int64(build):
    graph = build()
    for array in (graph.offsets, graph.neighbors):
        assert array.dtype == np.int64 and not array.flags.writeable


class TestFamilies:
    def test_square_cycle_structure(self):
        for n in (6, 8, 14, 20):
            graph, ham = square_cycle(n)
            assert graph.n_vertices == n and graph.n_edges == 2 * n
            assert all(graph.degree(v) == 4 for v in range(n))
            for v in range(n):
                assert set(graph.adjacency[v]) == {
                    (v + d) % n for d in (-2, -1, 1, 2)
                }
            ham.validate(graph)

    def test_square_cycle_bad_n(self):
        with pytest.raises(ValueError):
            square_cycle(7)
        with pytest.raises(ValueError):
            square_cycle(4)

    def test_fanned_structure(self):
        for n in (8, 12, 20):
            graph, ham = square_cycle_fanned(n)
            assert graph.n_vertices == n
            assert graph.n_edges == 2 * n + n // 2 - 3
            assert min(graph.degree(v) for v in range(n)) >= 4
            ham.validate(graph)

    def test_fanned_bad_n(self):
        with pytest.raises(ValueError):
            square_cycle_fanned(6)

    def test_small_face_ring_structure(self):
        for n in (12, 18, 30):
            graph, ham = small_face_ring(n)
            assert graph.n_vertices == n and graph.n_edges == 2 * n
            assert all(graph.degree(v) == 4 for v in range(n))
            ham.validate(graph)

    def test_small_face_ring_bad_n(self):
        with pytest.raises(ValueError):
            small_face_ring(8)
        with pytest.raises(ValueError):
            small_face_ring(13)

    def test_malkevitch_structure(self):
        for p in (1, 2, 4):
            graph, ham = malkevitch(p)
            n = 6 * p
            assert graph.n_vertices == n and graph.n_edges == 2 * n
            assert all(graph.degree(v) == 4 for v in range(n))
            ham.validate(graph)

    def test_malkevitch_bad_p(self):
        with pytest.raises(ValueError):
            malkevitch(0)

    def test_roundtrip_all_families(self):
        instances = [
            square_cycle(10),
            square_cycle_fanned(10),
            small_face_ring(12),
            malkevitch(2),
        ]
        for graph, ham in instances:
            text = serialize_graph(graph, ham)
            graph2, ham2 = parse_graph(text)
            assert graph2.adjacency == graph.adjacency
            assert ham2.order == ham.order
            assert serialize_graph(graph2, ham2) == text


class TestCycleSpectra:
    def test_octahedron(self):
        graph, _ = malkevitch(1)
        assert naive_cycle_lengths(graph.adjacency) == {3, 4, 5, 6}

    def test_two_beads(self):
        graph, _ = malkevitch(2)
        expected = {3, 4, 5, 6} | set(range(6, 13))
        assert naive_cycle_lengths(graph.adjacency) == expected

    def test_three_beads_have_a_gap(self):
        graph, _ = malkevitch(3)
        lengths = naive_cycle_lengths(graph.adjacency)
        assert lengths == {3, 4, 5, 6} | set(range(9, 19))
        assert 7 not in lengths and 8 not in lengths
