"""Dense-instance SubsetSum and Partition in linear time, plus a DP oracle.

A path is a tree, and on a path the window search sweeps contiguous runs
of elements.  When a multiset is dense enough (total close to the element
count) the search conditions hold automatically, so a subset of sum
exactly k exists among contiguous runs and is found in O(N).  The three
solvers here apply that idea directly, to Partition, and to SubsetSum via
the classic Partition reduction.  Each checks its threshold explicitly and
reports "not applicable" outside it rather than guessing; NotApplicable is
deliberately distinct from a false decision.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import InstanceTooLargeError, InvariantError
from .euler import find_subtree
from .tree import ORACLE_CELL_BOUND, _first_non_int, path_tree


class _NotApplicableType:
    """Singleton marker: the dense criterion's threshold does not cover
    this instance, so the fast solver refuses to answer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotApplicable"


NOT_APPLICABLE = _NotApplicableType()


@dataclass(frozen=True)
class SubsetWitness:
    """Positions (into the input order) of a subset and their sum."""

    indices: tuple[int, ...]
    total: int


@dataclass(frozen=True)
class Decision:
    """A decided instance; witness present whenever value is True."""

    value: bool
    witness: SubsetWitness | None


def _check_values(values) -> tuple[int, ...]:
    """values as a tuple of ints >= 1; numpy integers are accepted, bool
    and float are not."""
    vals = tuple(values)
    if not vals:
        raise ValueError("multiset must be non-empty")
    bad = _first_non_int(vals, 1, math.inf)
    if bad is not None:
        raise ValueError(f"element {bad}: {vals[bad]!r} is not an integer >= 1")
    return tuple(map(operator.index, vals))


def _require(holds: bool, message: str) -> None:
    """Raise InvariantError unless a proven guarantee holds."""
    if not holds:
        raise InvariantError(message)


def verify_witness(values, witness: SubsetWitness, target: int) -> bool:
    """Check a witness against the original multiset and target sum."""
    idx = witness.indices
    if len(set(idx)) != len(idx):
        return False
    if any(not 0 <= i < len(values) for i in idx):
        return False
    total = sum(values[i] for i in idx)
    return total == witness.total == target


def subset_sum_dense(values, k: int) -> SubsetWitness | _NotApplicableType:
    """Subset of sum exactly k for dense instances, as a contiguous run.

    Applies when total <= 2N - 2, total - N + 1 <= k <= N, and every
    element <= k; under those bounds a contiguous run of the input order
    summing to k always exists, and the path window search finds it.
    Returns NOT_APPLICABLE outside the bounds (a false answer is never
    produced here: within the bounds the answer is always yes).
    """
    vals = _check_values(values)
    if k < 1:
        raise ValueError(f"target k must be >= 1, got {k}")
    n = len(vals)
    total = sum(vals)
    if total > 2 * n - 2 or not total - n + 1 <= k <= n or max(vals) > k:
        return NOT_APPLICABLE
    result = find_subtree(path_tree(vals), k, 1)
    _require(result is not None, "dense thresholds hold but the path search failed")
    indices = tuple(result.ids.tolist())
    _require(indices[-1] - indices[0] + 1 == len(indices), "path window not contiguous")
    return SubsetWitness(indices, result.weight)


def partition_dense(values) -> Decision | _NotApplicableType:
    """Split into two halves of equal sum, for instances with N >= total/2 + 1.

    Within that threshold the split exists if and only if no element
    exceeds total/2.  The total must be even (ValueError otherwise).
    """
    vals = _check_values(values)
    total = sum(vals)
    if total % 2:
        raise ValueError(f"partition needs an even total, got {total}")
    half = total // 2
    if len(vals) < half + 1:
        return NOT_APPLICABLE
    if max(vals) > half:
        return Decision(False, None)
    witness = subset_sum_dense(vals, half)
    _require(isinstance(witness, SubsetWitness),
             "partition threshold implies the dense subset-sum thresholds")
    return Decision(True, witness)


def subset_sum_via_partition(values, k: int) -> Decision | _NotApplicableType:
    """Subset of sum k via the Partition reduction, for 1 <= k < total and
    N >= big = max(k, total - k).

    Within that threshold the answer is yes if and only if no element
    exceeds big.  A witness is recovered from a half of sum big of the
    input padded with one element of value |total - 2k| (no pad when that
    is 0), which subset_sum_dense finds: the half holding the pad, less
    the pad, when 2k < total, and the other half otherwise (the classic
    reduction, Garey and Johnson 1979).

    One boundary case is excluded and reported NOT_APPLICABLE: total == 2k
    with N == k exactly, where there is no pad and the instance falls one
    element short of the dense thresholds.  The yes-iff-small-elements
    equivalence is false there ((2, 2, 2) with k = 3 is a counterexample),
    so no linear answer is available.
    """
    vals = _check_values(values)
    n, total = len(vals), sum(vals)
    if not 1 <= k < total:
        raise ValueError(f"target k must satisfy 1 <= k < total = {total}, got {k}")
    big, pad = max(k, total - k), total - 2 * k
    if n < big:
        return NOT_APPLICABLE
    if max(vals) > big:
        return Decision(False, None)
    if total == 2 * n == 2 * k:
        return NOT_APPLICABLE

    half = subset_sum_dense(vals + (abs(pad),) if pad else vals, big)
    _require(isinstance(half, SubsetWitness),
             "via-partition threshold implies the dense thresholds")
    chosen = set(half.indices)
    if (n in chosen) == (pad > 0):  # this half is the witness, less the pad
        indices = tuple(i for i in half.indices if i != n)
    else:  # the other half is
        indices = tuple(i for i in range(n) if i not in chosen)
    witness = SubsetWitness(indices, sum(vals[i] for i in indices))
    _require(witness.total == k, "back-mapped witness must sum to k")
    return Decision(True, witness)


def oracle_subset_sum(values, k: int) -> SubsetWitness | None:
    """Exact decision by pseudo-polynomial DP, with a witness.

    Ground truth for the dense solvers.  The sums reachable with each
    prefix of the values are one bitmask integer, and the witness is read
    back from those masks; refuses instances whose N * total table would
    exceed ORACLE_CELL_BOUND.
    """
    vals = _check_values(values)
    if k < 0:
        raise ValueError(f"target k must be >= 0, got {k}")
    n = len(vals)
    total = sum(vals)
    if n * total > ORACLE_CELL_BOUND:
        raise InstanceTooLargeError(
            f"oracle table {n} * {total} exceeds {ORACLE_CELL_BOUND}"
        )
    if k > total:
        return None
    below = (2 << k) - 1  # the sums 0..k
    masks = [1]  # masks[i]: the sums reachable with vals[:i]
    for a in vals:
        masks.append((masks[-1] | masks[-1] << a) & below)
    if not masks[-1] >> k & 1:
        return None
    indices, s = [], k
    for i in reversed(range(n)):
        if not masks[i] >> s & 1:  # s needs vals[i]
            s -= vals[i]
            indices.append(i)
    return SubsetWitness(tuple(reversed(indices)), k)
