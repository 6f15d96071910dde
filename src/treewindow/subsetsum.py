"""Dense-instance SubsetSum and Partition in linear time, plus a DP oracle.

A path is a tree, and on a path the window search sweeps contiguous runs
of elements.  When a multiset is dense enough (total close to the element
count) the search conditions hold automatically, so a subset of sum
exactly k exists among contiguous runs and is found in O(N).  The three
solvers here apply that idea directly, to Partition, and to SubsetSum via
the classic Partition reduction.  Only subset_sum_dense tests a threshold;
outside it the solvers report "not applicable" rather than guessing, and
NotApplicable is deliberately distinct from a false decision.

Each public entry checks its multiset once (a 1-D integer array in one
vectorized pass) and hands the checked tuple and its total to a private
core (_dense, _via, _oracle) that checks nothing again; the CLI checks
the multiset once and calls the same cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import InstanceTooLargeError, InvariantError
from .euler import find_subtree
from .tree import ORACLE_CELL_BOUND, _check_int, _first_non_int, path_tree


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


def _check_values(values) -> tuple[tuple[int, ...], int]:
    """values as a tuple of ints >= 1, and their total.  A 1-D integer
    array is checked as an array; numpy integers are accepted, bool and
    float are not."""
    array = isinstance(values, np.ndarray) and values.ndim == 1
    vals = values if array else tuple(values)
    if not len(vals):
        raise ValueError("multiset must be non-empty")
    bad = _first_non_int(vals, 1, math.inf)
    if bad is not None:
        raise ValueError(f"element {bad}: {vals[bad]!r} is not an integer >= 1")
    vals = tuple(vals.tolist() if array else map(int, vals))
    return vals, sum(vals)


def _require(holds: bool, message: str) -> None:
    """Raise InvariantError unless a proven guarantee holds."""
    if not holds:
        raise InvariantError(message)


def verify_witness(values, witness: SubsetWitness, target: int) -> bool:
    """Check a witness against the original multiset and target sum."""
    idx = witness.indices
    if _first_non_int(idx, 0, len(values)) is not None or len(set(idx)) != len(idx):
        return False
    total = sum(values[i] for i in idx)
    return total == witness.total == target


def subset_sum_dense(values, k: int) -> SubsetWitness | _NotApplicableType:
    """Subset of sum exactly k for dense instances, as a contiguous run.

    Applies when total <= 2N - 2 and total - N + 1 <= k <= N (so no
    element exceeds k); under those bounds a contiguous run of the input
    order summing to k always exists, and the path window search finds it.
    Returns NOT_APPLICABLE outside the bounds (a false answer is never
    produced here: within the bounds the answer is always yes).
    """
    vals, total = _check_values(values)
    return _dense(vals, total, _check_int("target k", k, 1))


def _dense(vals: tuple[int, ...], total: int, k: int) -> SubsetWitness | _NotApplicableType:
    """subset_sum_dense on checked values and their total."""
    n = len(vals)
    if total > 2 * n - 2 or not total - n + 1 <= k <= n:
        return NOT_APPLICABLE
    # Within the bounds no value exceeds k <= N, so int64 holds them all.
    result = find_subtree(path_tree(np.array(vals, dtype=np.int64)), k, 1)
    _require(result is not None, "dense thresholds hold but the path search failed")
    indices = tuple(result.ids.tolist())
    _require(indices[-1] - indices[0] + 1 == len(indices), "path window not contiguous")
    return SubsetWitness(indices, result.weight)


def partition_dense(values) -> Decision | _NotApplicableType:
    """Split into two halves of equal sum: subset_sum_dense at total/2.

    At k = total/2 the dense bounds read N >= total/2 + 1, and within them
    the split always exists, so the answer is Decision(True, witness) or
    NOT_APPLICABLE.  The total must be even (ValueError otherwise).
    """
    vals, total = _check_values(values)
    if total % 2:
        raise ValueError(f"partition needs an even total, got {total}")
    witness = _dense(vals, total, total // 2)
    return witness if witness is NOT_APPLICABLE else Decision(True, witness)


def subset_sum_via_partition(values, k: int) -> Decision | _NotApplicableType:
    """Subset of sum k via the Partition reduction, for 1 <= k < total.

    With big = max(k, total - k), an element above big answers no at any
    N: it is in no subset of sum k, and the other elements sum to less
    than k.  Otherwise the input is padded with one element of value
    |total - 2k| (no pad when that is 0), and subset_sum_dense looks for a
    half of sum big; its bounds on the padded multiset read N >= big, or
    N >= big + 1 without a pad.  The witness is the half holding the pad,
    less the pad, when 2k < total, and the other half otherwise (the
    classic reduction, Garey and Johnson 1979).  NOT_APPLICABLE when
    subset_sum_dense refuses the padded multiset.
    """
    vals, total = _check_values(values)
    k = _check_int("target k", k)
    if not 1 <= k < total:
        raise ValueError(f"target k must satisfy 1 <= k < total = {total}, got {k}")
    return _via(vals, total, k)


def _via(vals: tuple[int, ...], total: int, k: int) -> Decision | _NotApplicableType:
    """subset_sum_via_partition on checked values, their total and 1 <= k < total."""
    n, big, pad = len(vals), max(k, total - k), total - 2 * k
    if max(vals) > big:
        return Decision(False, None)
    # The padded multiset sums to 2 * big.
    half = _dense(vals + (abs(pad),) if pad else vals, 2 * big, big)
    if half is NOT_APPLICABLE:
        return NOT_APPLICABLE
    chosen = np.zeros(n + 1, dtype=bool)
    chosen[list(half.indices)] = True
    # The witness is the half with the pad (slot n, dropped) when 2k < total,
    # and the half without it otherwise.
    mask = (chosen[:n] if chosen[n] == (pad > 0) else ~chosen[:n]).tolist()
    witness = SubsetWitness(tuple(compress(range(n), mask)), sum(compress(vals, mask)))
    _require(witness.total == k, "back-mapped witness must sum to k")
    return Decision(True, witness)


def oracle_subset_sum(values, k: int) -> SubsetWitness | None:
    """Exact decision by pseudo-polynomial DP, with a witness.

    Ground truth for the dense solvers.  The sums reachable with each
    prefix of the values are one bitmask integer, and the witness is read
    back from those masks; refuses instances whose N * total table would
    exceed ORACLE_CELL_BOUND.
    """
    vals, total = _check_values(values)
    return _oracle(vals, total, _check_int("target k", k, 0))


def _oracle(vals: tuple[int, ...], total: int, k: int) -> SubsetWitness | None:
    """oracle_subset_sum on checked values, their total and k >= 0."""
    n = len(vals)
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
