"""Weighted trees: validation, file format, conditions, weight oracle."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treewindow import (
    FormatError,
    InstanceTooLargeError,
    NotATreeError,
    TreeWindowError,
    WeightError,
    WeightedTree,
    achievable_subtree_weights,
    build_dual_tree,
    build_euler_cycle,
    check_conditions,
    find_cycle_near,
    find_subtree,
    oracle_subset_sum,
    parse_tree,
    path_tree,
    serialize_tree,
    star_tree,
    subset_sum_dense,
    subset_sum_via_partition,
    tight_instance,
)
from treewindow.generators import random_tree, square_cycle, square_cycle_fanned
from treewindow.tree import ORACLE_CELL_BOUND, _ROUND_WALKERS, _csr_tree, _is_ruler, _pair_darts
from helpers import (FUZZ_TOKENS, naive_subtree_weights, oracle_pair_darts, oracle_parse_tree,
                     oracle_tree_walk, oracle_walk, walk_rotation)

PROPERTY_SETTINGS = settings(max_examples=260, deadline=None)


@st.composite
def weighted_trees(draw, max_n: int = 10, max_weight: int = 6):
    n = draw(st.integers(1, max_n))
    adjacency = [[] for _ in range(n)]
    for v in range(1, n):
        p = draw(st.integers(0, v - 1))
        adjacency[p].append(v)
        adjacency[v].append(p)
    weights = tuple(
        draw(st.integers(1, max_weight)) for _ in range(n)
    )
    return WeightedTree(weights, tuple(tuple(row) for row in adjacency))


class TestPathTree:
    def test_closed_form_matches_walked_tree(self):
        """path_tree writes its walk down; WeightedTree walks the same path."""
        rng = np.random.default_rng(8)
        for n in range(1, 65):
            weights = rng.integers(1, 10, n).tolist()
            rows = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
            fast, walked = path_tree(weights), WeightedTree(weights, rows)
            for name in ("weights", "offsets", "neighbors", "_stops", "_gaps"):
                a, b = getattr(fast, name), getattr(walked, name)
                assert a.dtype == b.dtype and a.tolist() == b.tolist(), (n, name)
                assert not a.flags.writeable
            assert (fast.total_weight, fast.max_weight) == (walked.total_weight, walked.max_weight)

    def test_checks_kept(self):
        with pytest.raises(NotATreeError):
            path_tree(())
        with pytest.raises(WeightError):
            path_tree((1, 0, 1))
        with pytest.raises(WeightError):
            path_tree((1 << 61, 1 << 61))


class TestBuiltComplete:
    """Every constructor leaves the tree complete: its arrays are int64
    and the walk's next-visit gaps int32, all read-only, and a search only
    reads the tree."""

    @pytest.mark.parametrize("build", [
        lambda: WeightedTree((2, 1, 3), ((1,), (0, 2), (1,))),
        lambda: parse_tree("tree 4\n0: 1: 1 2 3\n1: 2: 0\n2: 1: 0\n3: 3: 0\n"),
        lambda: path_tree((1, 2, 1, 1)),
        lambda: random_tree(200, 5, 4),
        lambda: build_dual_tree(*square_cycle(12), "interior").tree,
        lambda: WeightedTree((4,), ((),)),
        lambda: star_tree(3, (1, 2, 2)),
    ], ids=["WeightedTree", "parse_tree", "path_tree", "random_tree", "dual", "single", "star"])
    def test_gaps_built_and_search_reads_only(self, build):
        tree = build()
        assert all(getattr(tree, name).dtype == np.int64
                   for name in ("weights", "offsets", "neighbors", "_stops"))
        gaps, stops = tree._gaps, tree._stops.tolist()
        assert not gaps.flags.writeable and gaps.dtype == np.int32
        length = len(stops)
        # gaps[i + 1]: stops from stop i to the next visit of its vertex
        expected = [next(d for d in range(1, length + 1) if stops[(i + d) % length] == v)
                    for i, v in enumerate(stops)]
        assert gaps.tolist() == (expected[-1:] + expected if length else [0])
        names = ("offsets", "neighbors", *WeightedTree.__slots__)
        before = {name: getattr(tree, name) for name in names}
        assert find_subtree(tree, tree.total_weight, 1).weight == tree.total_weight
        assert all(getattr(tree, name) is value for name, value in before.items())
        assert all(not a.flags.writeable for a in before.values() if isinstance(a, np.ndarray))


# ---------------------------------------------------------------------------
# The list-ranked walk and the packed pairing against scalar references
# ---------------------------------------------------------------------------

# Vertices of a tree of 2**15 darts, and of the smallest tree whose walk
# holds _ROUND_WALKERS rulers, so that its walkers step a whole-array
# round before the scalar loop (about 2**_RULER_BITS darts a ruler).
RANKED = 16385
FIRST_ROUND = 4083


def _outcome(build, *args):
    """What build(*args) returns, or the class and message it raises."""
    try:
        return build(*args)
    except TreeWindowError as exc:
        return type(exc), str(exc)


def _csr_arrays(rows):
    """The CSR offsets and neighbors of rows, ids unchecked."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return offsets, np.array([u for row in rows for u in row], dtype=np.int64)


def _path_rows(n):
    return [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]


def _ruler_free_path(n):
    """Rows of the path 0 - 1 - ... - n-1 whose rotations send each step
    away from vertex 0 along a dart that is not a ruler, so the first half
    of the walk holds no ruler but dart 0."""
    rows = _path_rows(n)
    inner = np.arange(1, n - 1)  # vertex v's darts are 2v - 1 and 2v
    for v in inner[~_is_ruler(2 * inner - 1)].tolist():
        rows[v].reverse()  # the step to v + 1 takes dart 2v - 1
    return rows


def _caterpillar_rows(spine, legs):
    rows = _path_rows(spine)
    for v in range(spine):
        for _ in range(legs):
            rows[v].append(len(rows))
            rows.append([v])
    return rows


class TestWalkAgainstScalar:
    """Every tree's stops and gaps equal those of the walk stepped one
    dart at a time, on both sides of the size where the list ranking
    starts whole-array rounds, and of 2**15 darts."""

    @pytest.mark.parametrize("n", [1, 2, 3, 50, FIRST_ROUND - 1, FIRST_ROUND, FIRST_ROUND + 1,
                                   RANKED - 1, RANKED, RANKED + 1, 3 * RANKED])
    def test_random_trees(self, n):
        tree = random_tree(n, 9, n)
        assert (tree._stops.tolist(), tree._gaps.tolist()) == oracle_tree_walk(
            tree.offsets, tree.neighbors)

    @pytest.mark.parametrize("rows", [
        _path_rows(RANKED + 7),
        [list(range(1, RANKED + 7))] + [[0]] * (RANKED + 6),
        [list(range(RANKED + 6, 0, -1))] + [[0]] * (RANKED + 6),
        _caterpillar_rows(RANKED // 4, 3),
        _caterpillar_rows(RANKED, 1),
        _ruler_free_path(2 * RANKED),
    ], ids=["path", "star", "star-reversed", "caterpillar", "comb", "ruler-free-path"])
    def test_shapes(self, rows):
        tree = WeightedTree([1] * len(rows), rows)
        assert (tree._stops.tolist(), tree._gaps.tolist()) == oracle_tree_walk(
            tree.offsets, tree.neighbors)

    def test_first_round_size(self):
        rulers = np.count_nonzero(_is_ruler(np.arange(2 * FIRST_ROUND - 2)))
        assert rulers == _ROUND_WALKERS
        assert np.count_nonzero(_is_ruler(np.arange(2 * FIRST_ROUND - 4))) < rulers

    def test_ruler_free_stretch(self):
        """The walk of _ruler_free_path steps n - 1 darts before its second
        ruler."""
        n = 2 * RANKED
        rows = _ruler_free_path(n)
        offsets, _ = _csr_arrays(rows)
        out = [offsets[v] + rows[v].index(v + 1) for v in range(n - 1)]
        assert _is_ruler(np.array(out)).tolist() == [True] + [False] * (n - 2)

    def test_parse_shuffled_lines(self):
        tree = random_tree(RANKED + 500, 9, 5)
        header, *lines = serialize_tree(tree).splitlines()
        random.Random(3).shuffle(lines)
        parsed = parse_tree("\n".join([header, *lines]) + "\n")
        assert parsed == tree
        assert parsed._stops.tolist() == tree._stops.tolist()
        assert parsed._gaps.tolist() == tree._gaps.tolist()


def _mutate_rows(rng, rows):
    """rows with one random defect: a duplicate neighbor, a one-sided
    edge, a self loop, an out-of-range id, an edge too many or too few,
    or an edge moved into a cycle (n - 1 edges, disconnected)."""
    rows = [list(row) for row in rows]
    n = len(rows)
    v, u = rng.randrange(n), rng.randrange(n)
    kind = rng.choice(["dup", "one_sided", "self", "range", "extra", "drop", "move"])
    if kind == "dup" and rows[v]:
        rows[v].insert(rng.randrange(len(rows[v]) + 1), rng.choice(rows[v]))
    elif kind == "one_sided":
        rows[v].insert(rng.randrange(len(rows[v]) + 1), u)
    elif kind == "self":
        rows[v].append(v)
    elif kind == "range":
        rows[v].insert(rng.randrange(len(rows[v]) + 1), rng.choice([-1, n, n + 5, -n - 1]))
    elif kind == "extra" and u != v and u not in rows[v]:
        rows[v].append(u)
        rows[u].insert(0, v)
    elif kind in ("drop", "move") and rows[v]:
        w = rows[v].pop(rng.randrange(len(rows[v])))
        if 0 <= w < n and v in rows[w]:  # an earlier defect may leave it one-sided
            rows[w].remove(v)
        if kind == "move":  # join two vertices on the same side of the cut
            side, todo = {v}, [v]
            while todo:
                for x in rows[todo.pop()]:
                    if x not in side:
                        side.add(x)
                        todo.append(x)
            a, b = rng.choice(sorted(side)), rng.choice(sorted(side))
            if a != b and b not in rows[a]:
                rows[a].append(b)
                rows[b].append(a)
    return rows


def _two_parts(a, cycle):
    """Rows of a path on vertices 0..a-1 and a cycle on the next cycle
    vertices: a + cycle - 1 edges on a + cycle vertices, not a tree."""
    rows = _path_rows(a) + [[] for _ in range(cycle)]
    for i in range(cycle):
        v, w = a + i, a + (i + 1) % cycle
        rows[v].append(w)
        rows[w].append(v)
    return rows


class TestPairingSort:
    """Darts paired by a plain sort of packed keys get the reverse darts of
    a stable argsort, on nearly sorted keys as on random ones."""

    @pytest.mark.parametrize("n", [300, 3000, 6 * RANKED])
    def test_sortedness(self, n):
        g, h = square_cycle(n)
        fanned, _ = square_cycle_fanned(n)
        duals = [build_dual_tree(g, h, side).tree for side in ("interior", "exterior")]
        tree = random_tree(n, 9, 1)
        for offsets, neighbors in [(g.offsets, g.neighbors), (fanned.offsets, fanned.neighbors),
                                   *((d.offsets, d.neighbors) for d in duals),
                                   (tree.offsets, tree.neighbors)]:
            assert np.array_equal(_pair_darts(offsets, neighbors, NotATreeError),
                                  oracle_pair_darts(offsets, neighbors, NotATreeError))

    def test_no_darts(self):
        assert _pair_darts(np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
                           NotATreeError).tolist() == []


class TestErrorsAgainstScalar:
    """Malformed CSR arrays raise the class and message of the stable-sort
    pairing and the dart-by-dart walk, on both sides of the size where
    walks are list-ranked."""

    def _check(self, rows):
        offsets, neighbors = _csr_arrays(rows)
        weights = np.ones(len(rows), dtype=np.int64)
        expected = _outcome(oracle_pair_darts, offsets, neighbors, NotATreeError)
        got = _outcome(_pair_darts, offsets, neighbors, NotATreeError)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.tolist() == expected.tolist() and got.dtype == expected.dtype
        tree = _outcome(_csr_tree, weights, offsets, neighbors)
        expected = _outcome(oracle_tree_walk, offsets, neighbors)
        if isinstance(tree, WeightedTree):
            tree = tree._stops.tolist(), tree._gaps.tolist()
        assert tree == expected
        return expected

    def test_small_fuzz(self):
        rng = random.Random(11)
        for case in range(600):
            tree = random_tree(rng.randint(1, 12), 3, case)
            rows = [list(row) for row in tree.adjacency]
            for _ in range(rng.randint(1, 2)):
                rows = _mutate_rows(rng, rows)
            self._check(rows)

    @pytest.mark.parametrize("shape", ["random", "path"])
    def test_ranked_fuzz(self, shape):
        rng = random.Random(12)
        rows = ([list(row) for row in random_tree(RANKED + 100, 3, 7).adjacency]
                if shape == "random" else _path_rows(RANKED + 100))
        for _ in range(16):
            self._check(_mutate_rows(rng, rows))

    def test_tiny(self):
        assert self._check([[]]) == ([], [0])
        assert self._check([[1], [0]]) == ([0, 1], [2, 2, 2])
        assert self._check([[0]]) == (NotATreeError, "vertex 0: self loop")
        assert self._check([[1, 1], [0, 0]]) == (NotATreeError, "vertex 0: duplicate neighbor")

    @pytest.mark.parametrize("a, cycle", [(RANKED, 3), (RANKED, 5000), (5, RANKED)],
                             ids=["small-cycle", "large-cycle", "small-path"])
    def test_disconnected(self, a, cycle):
        """n - 1 edges in a path and a cycle: the orbit of dart 0 misses
        the cycle's two faces, whether or not they hold rulers."""
        if cycle == 3:  # the triangle's darts are the last six; none a ruler
            while _is_ruler(np.arange(2 * a - 2, 2 * a + 4)).any():
                a += 1
        rows = _two_parts(a, cycle)
        offsets, _ = _csr_arrays(rows)
        off_orbit = np.arange(offsets[a], offsets[-1])
        assert _is_ruler(off_orbit).any() == (cycle > 3)
        assert self._check(rows) == (NotATreeError, "adjacency is disconnected")

    def test_argsort_fallback(self):
        """Past n**2 * 2**bits >= 2**63 the keys are sorted by a stable
        argsort, with the same results."""
        edges = 1 << 20
        n = 1482911  # the least n with n**2 << 22 >= 1 << 63
        assert n * n << (2 * edges).bit_length() >= 1 << 63 > (n - 1) ** 2 << 22
        # A path on the last edges + 1 vertices, which keeps its keys near
        # n**2; each inner vertex lists its lower neighbor first.
        first = n - edges - 1
        degrees = np.zeros(n, dtype=np.int64)
        degrees[first + 1:n - 1] = 2
        degrees[[first, n - 1]] = 1
        offsets = np.r_[0, np.cumsum(degrees)]
        inner = np.c_[np.arange(edges - 1), np.arange(2, edges + 1)].ravel()
        neighbors = first + np.r_[1, inner, edges - 1]
        for defect in (None, "dup", "one_sided"):
            nbrs = neighbors.copy()
            if defect == "dup":
                nbrs[3] = nbrs[4]
            elif defect == "one_sided":
                nbrs[-1] -= 1
            expected = _outcome(oracle_pair_darts, offsets, nbrs, NotATreeError)
            got = _outcome(_pair_darts, offsets, nbrs, NotATreeError)
            if defect:
                assert got == expected and got[0] is NotATreeError
            else:
                assert isinstance(got, np.ndarray) and np.array_equal(got, expected)


@pytest.mark.parametrize("n", [2 * 10**4, 2 * 10**5])
def test_tree_build_memory_per_dart(n):
    """Building a tree allocates at most 38 bytes per dart at its peak;
    the tree keeps 12 (its stops and gaps) of them."""
    tree = random_tree(n, 9, 1)
    arrays = [getattr(tree, name).copy() for name in ("weights", "offsets", "neighbors")]
    del tree
    tracemalloc.start()
    try:
        tree = _csr_tree(*arrays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_vertices == n
    assert peak < 38 * (2 * n - 2)


class TestIntegerArguments:
    """k, g and start are integers at every public entry: numpy integers
    count, bool, float and str do not."""

    ENTRIES = {
        "find_subtree": lambda k, g=1, start=0: find_subtree(path_tree((1,) * 6), k, g,
                                                             start=start),
        "check_conditions": lambda k, g=1: check_conditions(path_tree((1,) * 6), k, g),
        "find_cycle_near": lambda k, g=1: find_cycle_near(*square_cycle(12), k, g),
        "subset_sum_dense": lambda k: subset_sum_dense((1,) * 6, k),
        "subset_sum_via_partition": lambda k: subset_sum_via_partition((1,) * 7, k),
        "oracle_subset_sum": lambda k: oracle_subset_sum((1,) * 6, k),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("k", [6.5, 6.0, True, "6"], ids=["float", "whole", "bool", "str"])
    def test_non_integer_target_refused(self, entry, k):
        with pytest.raises(ValueError, match=r"k must be an integer, got"):
            self.ENTRIES[entry](k)
        assert self.ENTRIES[entry](np.int64(6)) is not None

    @pytest.mark.parametrize("entry", ["find_subtree", "check_conditions", "find_cycle_near"])
    @pytest.mark.parametrize("g", [1.0, True], ids=["float", "bool"])
    def test_non_integer_slack_refused(self, entry, g):
        with pytest.raises(ValueError, match=r"slack g must be an integer, got"):
            self.ENTRIES[entry](6, g)
        assert self.ENTRIES[entry](6, np.int64(1)) is not None

    @pytest.mark.parametrize("start", [1.0, True], ids=["float", "bool"])
    def test_non_integer_start_refused(self, start):
        with pytest.raises(ValueError, match=r"start stop must be an integer, got"):
            self.ENTRIES["find_subtree"](6, 1, start)
        assert self.ENTRIES["find_subtree"](6, 1, np.int64(1)).weight == 6


class TestValidation:
    def test_single_vertex(self):
        t = WeightedTree((5,), ((),))
        assert t.n_vertices == 1 and t.total_weight == 5

    def test_weight_below_one(self):
        with pytest.raises(WeightError):
            WeightedTree((0, 1), ((1,), (0,)))

    def test_non_integer_weight(self):
        with pytest.raises(WeightError):
            WeightedTree((1.5, 1), ((1,), (0,)))

    def test_bool_weight_rejected(self):
        with pytest.raises(WeightError):
            WeightedTree((True, True), ((1,), (0,)))

    @pytest.mark.parametrize("weights", [
        np.array([1, 2]), np.array([1, 2], dtype=np.uint8),
        tuple(np.array([1, 2])), (np.int32(1), 2),
    ], ids=["int64-array", "uint8-array", "int64-scalars", "int32-scalar"])
    def test_numpy_integer_weights_accepted(self, weights):
        tree = WeightedTree(weights, ((1,), (0,)))
        assert tree.weights.tolist() == [1, 2] and tree.total_weight == 3
        assert type(tree.total_weight) is int and type(tree.max_weight) is int

    @pytest.mark.parametrize("weights", [
        (True, 2), np.array([True, True]), (np.True_, 2),
        (1.0, 2), (np.float64(1), 2), np.array([1.0, 2.0]),
    ], ids=["bool", "bool-array", "numpy-bool", "float", "numpy-float",
            "float-array"])
    def test_bool_and_float_weights_rejected(self, weights):
        with pytest.raises(WeightError):
            WeightedTree(weights, ((1,), (0,)))

    def test_neighbors_must_be_integers(self):
        with pytest.raises(NotATreeError, match="vertex 0"):
            WeightedTree((1, 1), ((True,), (0,)))
        with pytest.raises(NotATreeError, match="vertex 1"):
            WeightedTree((1, 1), ((1,), (0.0,)))

    def test_self_loop(self):
        with pytest.raises(NotATreeError):
            WeightedTree((1, 1), ((1, 0), (0,)))

    def test_asymmetric_adjacency(self):
        with pytest.raises(NotATreeError, match=r"edge \(0, 2\) is not listed"):
            WeightedTree((1, 1, 1), ((1, 2), (0,), ()))

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            WeightedTree((1, 1, 1), ((1, 2), (0, 2), (0, 1)))

    def test_disconnected_rejected(self):
        # two components, n - 1 edges faked by doubling one edge
        with pytest.raises(NotATreeError):
            WeightedTree((1, 1, 1, 1), ((1, 1), (0, 0), (3,), (2,)))

    def test_neighbor_out_of_range(self):
        with pytest.raises(NotATreeError):
            WeightedTree((1, 1), ((5,), (0,)))

    def test_row_count_must_match(self):
        with pytest.raises(NotATreeError, match="2 weights but 1 adjacency rows"):
            WeightedTree((1, 1), ((1,),))

    def test_degree(self):
        t = star_tree(1, (2, 2, 2))
        assert t.degree(0) == 3 and t.degree(1) == 1


class TestFileFormat:
    GOOD = """\
# a comment
tree 3

1: 4: 0 2
0: 1: 1
2: 2: 1
"""

    def test_parse(self):
        t = parse_tree(self.GOOD)
        assert t.weights.tolist() == [1, 4, 2]
        assert t.adjacency == ((1,), (0, 2), (1,))

    def test_roundtrip(self):
        t = parse_tree(self.GOOD)
        assert parse_tree(serialize_tree(t)) == t

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_tree("0: 1:\n")

    def test_bad_count(self):
        with pytest.raises(FormatError):
            parse_tree("tree x\n")

    def test_duplicate_vertex_line(self):
        with pytest.raises(FormatError, match="twice"):
            parse_tree("tree 2\n0: 1: 1\n0: 1: 1\n")

    def test_missing_vertex_line(self):
        with pytest.raises(FormatError):
            parse_tree("tree 2\n0: 1: 1\n")

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_tree("tree 2\n0: 1: 1\nbogus line\n")

    @PROPERTY_SETTINGS
    @given(weighted_trees())
    def test_roundtrip_property(self, tree):
        assert parse_tree(serialize_tree(tree)) == tree


class TestConditions:
    def test_star_slack_fails_alone(self):
        inst = tight_instance("star_gh", 4)
        report = check_conditions(inst.tree, inst.k, inst.g)
        flags = report.flags()
        assert not flags["slack_ok"]
        assert all(v for name, v in flags.items() if name != "slack_ok")
        assert not report.overall

    def test_path_conditions_hold(self):
        t = path_tree((1, 2, 1, 2, 1, 2, 1))
        report = check_conditions(t, 5, 1)
        assert report.overall

    def test_params(self):
        t = path_tree((1, 2, 1, 2, 1, 2, 1))
        report = check_conditions(t, 5, 1)
        assert (report.k, report.g) == (5, 1)
        assert report.n2 == t.total_weight == 10
        assert report.h == 2 * 7 - 10

    def test_g_below_one(self):
        with pytest.raises(ValueError):
            check_conditions(path_tree((1, 1)), 1, 0)


class TestAchievableWeights:
    def test_star_of_order_eight(self):
        inst = tight_instance("star_gh", 4)
        assert achievable_subtree_weights(inst.tree) == frozenset(
            {1, 2, 3, 5, 7, 9, 11, 13, 15}
        )

    def test_alternating_path(self):
        t = path_tree((1, 2, 1, 2, 1, 2, 1))
        assert achievable_subtree_weights(t) == frozenset(range(1, 11))

    def test_single_vertex(self):
        assert achievable_subtree_weights(WeightedTree((7,), ((),))) == {7}

    def test_table_bound(self):
        # 2 * (ORACLE_CELL_BOUND // 2 + 1) cells, one over the bound
        tree = path_tree((ORACLE_CELL_BOUND // 2, 1))
        with pytest.raises(InstanceTooLargeError, match=f"exceeds {ORACLE_CELL_BOUND}"):
            achievable_subtree_weights(tree)
        assert achievable_subtree_weights(path_tree((ORACLE_CELL_BOUND // 2 - 1, 1))) == {
            1, ORACLE_CELL_BOUND // 2 - 1, ORACLE_CELL_BOUND // 2}

    @PROPERTY_SETTINGS
    @given(weighted_trees())
    def test_matches_naive_enumeration(self, tree):
        assert achievable_subtree_weights(tree) == naive_subtree_weights(tree)


class TestTightFamilies:
    def test_exactly_one_flag_fails(self):
        cases = [
            ("star_gh", 3, None),
            ("path_lower", 4, 2),
            ("path_upper", 5, None),
            ("star_cap", 6, 4),
        ]
        for family, p, q in cases:
            inst = tight_instance(family, p, q)
            flags = check_conditions(inst.tree, inst.k, inst.g).flags()
            failing = [name for name, ok in flags.items() if not ok]
            assert failing == [inst.failing_flag], (family, failing)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            tight_instance("star_gh", 1)
        with pytest.raises(ValueError):
            tight_instance("path_lower", 3)  # q required
        with pytest.raises(ValueError):
            tight_instance("star_cap", 4, 2)  # q must exceed 2
        with pytest.raises(ValueError):
            tight_instance("star_cap", 4, 5)  # q must stay <= p
        with pytest.raises(ValueError):
            tight_instance("no_such_family", 4)


# ---------------------------------------------------------------------------
# Differential fuzz: the array reader against the line-by-line oracle
# ---------------------------------------------------------------------------

def _mutate(data, lines: list[str]) -> list[str]:
    """One random edit of a tree file's lines (header first)."""
    n = len(lines) - 1
    i = data.draw(st.integers(1, max(n, 1)), label="line")
    kind = data.draw(st.sampled_from(
        ["drop_line", "dup_line", "swap_lines", "drop_token", "dup_token",
         "bad_token", "out_of_range", "one_sided_edge", "both_sided_edge",
         "comment", "blank", "spacing", "weight", "header"]), label="kind")
    if i >= len(lines):
        lines.append("")
    line = lines[i]
    tokens = line.split(" ")
    if kind == "drop_line":
        del lines[i:i + 1]
    elif kind == "dup_line":
        lines.insert(i, line)
    elif kind == "swap_lines":
        j = data.draw(st.integers(1, len(lines) - 1), label="other")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind in ("drop_token", "dup_token", "bad_token", "out_of_range"):
        t = data.draw(st.integers(0, len(tokens) - 1), label="token")
        if kind == "drop_token":
            del tokens[t]
        elif kind == "dup_token":
            tokens.insert(t, tokens[t])
        else:
            suffix = ":" if tokens[t].endswith(":") else ""
            new = (data.draw(st.sampled_from(FUZZ_TOKENS)) if kind == "bad_token"
                   else str(data.draw(st.sampled_from([-1, n, n + 1, -n]))))
            tokens[t] = new + suffix
        lines[i] = " ".join(tokens)
    elif kind in ("one_sided_edge", "both_sided_edge"):
        u = data.draw(st.integers(1, len(lines) - 1), label="u")
        v = data.draw(st.integers(1, len(lines) - 1), label="v")
        lines[u] += f" {v - 1}"
        if kind == "both_sided_edge":
            lines[v] += f" {u - 1}"
    elif kind == "comment":
        lines.insert(i, "# " + data.draw(st.sampled_from(["note", "1: 2: 3", ""])))
        lines[0] += "  # header comment"
    elif kind == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", "  ", "\t", " "])))
    elif kind == "spacing":
        gap = data.draw(st.sampled_from(["\t", "  ", "\xa0", "\x1f", "\x0b", "\u2028"]))
        lines[i] = gap + line.replace(": ", " :", 1).replace(" ", gap) + gap
    elif kind == "weight" and line.count(":") == 2:
        v, _, nbrs = line.split(":")
        w = data.draw(st.sampled_from(["0", "-3", str(1 << 62), "5"]))
        lines[i] = f"{v}: {w}:{nbrs}"
    elif kind == "header":
        lines[0] = data.draw(st.sampled_from(
            [f"tree {n + 1}", f"tree {n - 1}", "tree", "tree x", "graph 3", "tree 0",
             "tree 1000000000000"]))
    return lines


def _cycle_plus_part(n: int) -> str:
    """A triangle on 0, 1, 2 and a path on 3..n-1: n - 1 edges, no tree."""
    adjacency = [[1, 2], [0, 2], [0, 1]] + [[] for _ in range(n - 3)]
    for v in range(4, n):
        adjacency[v - 1].append(v)
        adjacency[v].append(v - 1)
    return f"tree {n}\n" + "".join(
        f"{v}: 1: {' '.join(map(str, row))}\n" for v, row in enumerate(adjacency))


class TestDifferentialFuzz:
    @settings(max_examples=600, deadline=None)
    @given(st.data())
    def test_reader_matches_oracle(self, data):
        if data.draw(st.booleans(), label="cycle_plus_part"):
            text = _cycle_plus_part(data.draw(st.integers(4, 9), label="n"))
        else:
            tree = random_tree(data.draw(st.integers(1, 9), label="n"),
                               data.draw(st.integers(1, 4), label="w"),
                               data.draw(st.integers(0, 99), label="seed"))
            text = serialize_tree(tree)
        lines = text.splitlines()
        for _ in range(data.draw(st.integers(0, 3), label="edits")):
            lines = _mutate(data, lines)
        text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"

        try:
            expected = oracle_parse_tree(text)
        except TreeWindowError as exc:
            expected = type(exc)
        try:
            tree = parse_tree(text)
        except TreeWindowError as exc:
            assert type(exc) is expected, (text, exc)
            return
        assert isinstance(expected, tuple), (text, expected)
        weights, adjacency = expected
        assert tree.weights.tolist() == list(weights)
        assert tree.adjacency == adjacency
        if tree.n_vertices > 1:
            cycle = build_euler_cycle(tree)
            walk = list(zip(cycle.vertices.tolist(), walk_rotation(cycle)))
            assert walk == oracle_walk(adjacency)
        assert serialize_tree(parse_tree(serialize_tree(tree))) == serialize_tree(tree)

    def test_large_values_keep_their_error_class(self):
        base = "tree 2\n0: 1: 1\n1: 1: 0\n"
        for text in (base.replace("0: 1:", "0: 99999999999999999999:"),
                     base.replace("0: 1:", "0: -99999999999999999999:"),
                     base.replace("0: 1: 1", "0: 1: 99999999999999999999"),
                     base.replace("1: 1: 0", "99999999999999999999: 1: 0"),
                     base.replace("0: 1:", "0: " + "9" * 5000 + ":")):
            with pytest.raises(TreeWindowError) as got:
                parse_tree(text)
            with pytest.raises(type(got.value)):
                oracle_parse_tree(text)
