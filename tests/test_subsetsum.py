"""Dense SubsetSum / Partition solvers against the exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treewindow import (
    NOT_APPLICABLE,
    Decision,
    InstanceTooLargeError,
    SubsetWitness,
    oracle_subset_sum,
    partition_dense,
    subset_sum_dense,
    subset_sum_via_partition,
    verify_witness,
)
from helpers import naive_subset_sums

PROPERTY_SETTINGS = settings(max_examples=260, deadline=None)

multisets = st.lists(st.integers(1, 6), min_size=1, max_size=10).map(tuple)


class TestDense:
    def test_contiguous_witness(self):
        w = subset_sum_dense((1, 2, 1, 2, 1), 4)
        assert isinstance(w, SubsetWitness)
        assert verify_witness((1, 2, 1, 2, 1), w, 4)
        idx = w.indices
        assert idx[-1] - idx[0] + 1 == len(idx)  # one contiguous run

    def test_sparse_refused(self):
        assert subset_sum_dense((3, 1, 4, 1, 5), 9) is NOT_APPLICABLE

    def test_target_below_band(self):
        assert subset_sum_dense((2, 1, 1), 1) is NOT_APPLICABLE

    def test_bad_values(self):
        with pytest.raises(ValueError):
            subset_sum_dense((), 1)
        with pytest.raises(ValueError):
            subset_sum_dense((1, 0), 1)
        with pytest.raises(ValueError):
            subset_sum_dense((1, 1), 0)

    def test_bool_values_rejected(self):
        with pytest.raises(ValueError):
            subset_sum_dense((True, 1, 1), 2)

    @pytest.mark.parametrize("values", [
        np.array([1, 2, 1, 2, 1]), tuple(np.array([1, 2, 1, 2, 1])),
        (1, np.int32(2), 1, 2, np.uint8(1)),
    ], ids=["int64-array", "int64-scalars", "mixed-scalars"])
    def test_numpy_integer_values_accepted(self, values):
        w = subset_sum_dense(values, 4)
        assert w == subset_sum_dense((1, 2, 1, 2, 1), 4)
        assert all(type(i) is int for i in w.indices) and type(w.total) is int

    @pytest.mark.parametrize("values", [
        np.array([True, True, True]), (np.True_, 1, 1), (1.0, 1, 1),
        (np.float64(1), 1, 1), np.array([1.0, 1.0, 1.0]),
    ], ids=["bool-array", "numpy-bool", "float", "numpy-float", "float-array"])
    def test_bool_and_float_values_rejected(self, values):
        with pytest.raises(ValueError):
            subset_sum_dense(values, 2)


class TestPartition:
    def test_split_found(self):
        d = partition_dense((1, 1, 1, 1, 2))
        assert isinstance(d, Decision) and d.value
        assert verify_witness((1, 1, 1, 1, 2), d.witness, 3)

    def test_too_few_elements(self):
        assert partition_dense((2, 2, 2)) is NOT_APPLICABLE
        assert oracle_subset_sum((2, 2, 2), 3) is None

    def test_odd_total_rejected(self):
        with pytest.raises(ValueError):
            partition_dense((1, 1, 1))


class TestViaPartition:
    def test_reduction_witness(self):
        values = (1, 1, 1, 1, 1, 3)
        d = subset_sum_via_partition(values, 3)
        assert isinstance(d, Decision) and d.value
        assert verify_witness(values, d.witness, 3)

    def test_no_extra_element_corner_refused(self):
        # total == 2k and N == k: nothing can be added to reach the
        # partition threshold, and no uniform answer exists there; both a
        # yes instance and a no instance must come back refused.
        assert subset_sum_via_partition((1, 1, 3, 3), 4) is NOT_APPLICABLE
        assert oracle_subset_sum((1, 1, 3, 3), 4) is not None
        assert subset_sum_via_partition((2, 2, 2), 3) is NOT_APPLICABLE
        assert oracle_subset_sum((2, 2, 2), 3) is None

    def test_no_extra_element_above_threshold_decides(self):
        # total == 2k but one more element than the boundary: the direct
        # partition route still answers
        values = (1, 1, 1, 1, 2)
        d = subset_sum_via_partition(values, 3)
        assert isinstance(d, Decision) and d.value
        assert verify_witness(values, d.witness, 3)

    def test_oversized_element_decides_no(self):
        values = (6, 1, 1, 1, 1)
        d = subset_sum_via_partition(values, 5)
        assert d == Decision(False, None)
        assert oracle_subset_sum(values, 5) is None

    def test_threshold_refusal(self):
        assert subset_sum_via_partition((6, 1, 1, 1), 4) is NOT_APPLICABLE

    def test_target_above_half_rejected(self):
        with pytest.raises(ValueError):
            subset_sum_via_partition((1, 1, 1), 3)


class TestOracle:
    def test_witness_backtracking(self):
        values = (3, 1, 4, 1, 5)
        w = oracle_subset_sum(values, 9)
        assert w is not None and verify_witness(values, w, 9)

    def test_unreachable_target(self):
        assert oracle_subset_sum((2, 4, 6), 5) is None
        assert oracle_subset_sum((1, 1), 7) is None

    def test_empty_subset(self):
        w = oracle_subset_sum((3, 5), 0)
        assert w == SubsetWitness((), 0)

    def test_size_bound(self):
        with pytest.raises(InstanceTooLargeError):
            oracle_subset_sum((10**7,) * 11, 10**7)

    def test_negative_target(self):
        with pytest.raises(ValueError):
            oracle_subset_sum((1,), -1)


class TestVerifyWitness:
    def test_rejects_duplicates(self):
        assert not verify_witness((2, 2), SubsetWitness((0, 0), 4), 4)

    def test_rejects_out_of_range(self):
        assert not verify_witness((2,), SubsetWitness((3,), 2), 2)

    def test_rejects_wrong_total(self):
        assert not verify_witness((2, 3), SubsetWitness((0,), 3), 3)
        assert not verify_witness((2, 3), SubsetWitness((0,), 2), 3)


class TestAgreement:
    @PROPERTY_SETTINGS
    @given(multisets, st.data())
    def test_dense_matches_enumeration(self, values, data):
        k = data.draw(st.integers(1, sum(values)), label="k")
        result = subset_sum_dense(values, k)
        if result is NOT_APPLICABLE:
            n, total = len(values), sum(values)
            assert (
                total > 2 * n - 2
                or not total - n + 1 <= k <= n
                or max(values) > k
            )
        else:
            assert verify_witness(values, result, k)
            assert k in naive_subset_sums(values)

    @PROPERTY_SETTINGS
    @given(multisets, st.data())
    def test_via_partition_matches_enumeration(self, values, data):
        total = sum(values)
        if total < 2:
            return
        k = data.draw(st.integers(1, total // 2), label="k")
        result = subset_sum_via_partition(values, k)
        achievable = naive_subset_sums(values)
        if result is NOT_APPLICABLE:
            below = len(values) < total - k
            boundary = total == 2 * k and len(values) == k
            assert below or boundary
        elif result.value:
            assert verify_witness(values, result.witness, k)
            assert k in achievable
        else:
            assert k not in achievable

    @PROPERTY_SETTINGS
    @given(multisets)
    def test_partition_matches_enumeration(self, values):
        total = sum(values)
        if total % 2:
            return
        result = partition_dense(values)
        if result is NOT_APPLICABLE:
            assert len(values) < total // 2 + 1
        elif result.value:
            assert verify_witness(values, result.witness, total // 2)
        else:
            assert total // 2 not in naive_subset_sums(values)

    @PROPERTY_SETTINGS
    @given(multisets, st.data())
    def test_oracle_matches_enumeration(self, values, data):
        k = data.draw(st.integers(0, sum(values) + 2), label="k")
        w = oracle_subset_sum(values, k)
        if w is None:
            assert k not in naive_subset_sums(values)
        else:
            assert verify_witness(values, w, k)
