"""Weighted trees: validation, file format, conditions, weight oracle."""

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
from treewindow.generators import random_tree, square_cycle
from treewindow.tree import ORACLE_CELL_BOUND
from helpers import (FUZZ_TOKENS, naive_subtree_weights, oracle_parse_tree, oracle_walk,
                     walk_rotation)

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
