"""Weighted trees: validation, file format, conditions, weight oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from treewindow import (
    FormatError,
    NotATreeError,
    WeightError,
    WeightedTree,
    achievable_subtree_weights,
    check_conditions,
    parse_tree,
    path_tree,
    serialize_tree,
    star_tree,
    tight_instance,
)
from helpers import naive_subtree_weights

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
        assert t.weights == (1, 4, 2)
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
