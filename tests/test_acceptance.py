"""End-to-end acceptance checks, one test per contract point.

Each test prints a single summary line with its measured numbers after all
of its assertions have cleared, so a verbose run reads as a checklist.
"""

import itertools
import random
import time

from treewindow import (
    NOT_APPLICABLE,
    WeightExceedsTargetError,
    build_dual_tree,
    build_euler_cycle,
    check_conditions,
    achievable_subtree_weights,
    cycle_search_guaranteed,
    find_cycle_near,
    find_half_cycle_3conn,
    find_subtree,
    oracle_subset_sum,
    partition_dense,
    path_tree,
    split_by_hamilton,
    subset_sum_dense,
    subset_sum_via_partition,
    subtree_to_cycle,
    tight_instance,
    verify_cycle,
    verify_subtree,
    verify_witness,
)
from treewindow.generators import (
    malkevitch,
    random_tree,
    small_face_ring,
    square_cycle,
    square_cycle_fanned,
)
from helpers import naive_cycle_lengths, naive_subset_sums, naive_subtree_weights


def test_1_search_succeeds_whenever_conditions_hold():
    """1000+ random trees, every (k, g) with k <= total weight, g <= 4:
    a passing condition report implies a verifier-passing subtree."""
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    n_trees = 1000
    searches = guaranteed = extra_hits = 0

    for i in range(n_trees):
        n = rng.randint(1, 10)
        cap = (1, 2, 2, 3, 4, 6)[i % 6]  # mix of weight profiles, all <= 6
        tree = random_tree(n, max_weight=cap, seed=i)
        cycle = build_euler_cycle(tree) if n > 1 else None
        for k in range(1, tree.total_weight + 1):
            for g in range(1, 5):
                report = check_conditions(tree, k, g)
                try:
                    res = find_subtree(tree, k, g, cycle=cycle)
                except WeightExceedsTargetError:
                    assert not report.cap_ok
                    res = None
                searches += 1
                if report.overall:
                    guaranteed += 1
                    assert res is not None, (tree, k, g)
                    assert verify_subtree(tree, res, k, g)
                elif res is not None:
                    extra_hits += 1
                    assert verify_subtree(tree, res, k, g)

    elapsed = time.perf_counter() - t0
    assert guaranteed > 0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 guarantee: PASS ({n_trees} trees, {searches} searches, "
          f"{guaranteed} guaranteed hits, {extra_hits} bonus hits, {elapsed:.1f}s)")


def test_2_boundary_families_fail_exactly_one_flag():
    """Each boundary family, parameters swept to 10: the named flag is the
    only one failing, the search reports nothing, and the exact weight set
    confirms the window is empty."""
    cases = []
    for p in range(2, 11):
        cases.append(("star_gh", p, None))
        cases.append(("path_upper", p, None))
        for q in range(1, 11):
            cases.append(("path_lower", p, q))
    for p in range(3, 11):
        for q in range(3, p + 1):
            cases.append(("star_cap", p, q))

    for family, p, q in cases:
        inst = tight_instance(family, p, q)
        flags = check_conditions(inst.tree, inst.k, inst.g).flags()
        failing = [name for name, ok in flags.items() if not ok]
        assert failing == [inst.failing_flag], (family, p, q, failing)

        try:
            res = find_subtree(inst.tree, inst.k, inst.g)
        except WeightExceedsTargetError:
            assert inst.failing_flag == "cap_ok"
            res = None
        assert res is None, (family, p, q)

        window = set(range(inst.k - inst.g + 1, inst.k + 1))
        assert not window & achievable_subtree_weights(inst.tree), (family, p, q)

    print(f"ACCEPTANCE 2 boundary-families: PASS ({len(cases)} instances)")


def test_3_search_is_linear_time():
    """Million-vertex alternating path: bounded steps, < 5 s, and the step
    counter grows 10x (within [8, 12]) for a 10x larger input."""
    steps = {}
    wall = {}
    for n in (10**5, 10**6):
        tree = path_tree((1, 2) * (n // 2))
        k = tree.total_weight // 2
        assert check_conditions(tree, k, 1).overall
        t0 = time.perf_counter()
        res = find_subtree(tree, k, 1)
        wall[n] = time.perf_counter() - t0
        assert res is not None and res.weight == k
        assert res.steps <= 3 * 2 * (n - 1)
        steps[n] = res.steps

    assert wall[10**6] < 5.0
    ratio = steps[10**6] / steps[10**5]
    assert 8.0 <= ratio <= 12.0
    print(f"ACCEPTANCE 3 linearity: PASS (10^6 stops in {wall[10**6]:.2f}s, "
          f"steps {steps[10**6]}, ratio {ratio:.2f})")


def test_4_half_window_cycles_min_degree_four():
    """4-regular fixtures: a cycle of every length from n/2 up to n/2 + 3
    (clipped to [3, n]) is found exactly; small cases are cross-checked
    against exhaustive enumeration."""
    instances = [malkevitch(1), malkevitch(2)]
    instances += [square_cycle(n) for n in range(8, 61, 2)]

    checked = 0
    for graph, ham in instances:
        n = graph.n_vertices
        window = [k for k in range(n // 2, n // 2 + 4) if 3 <= k <= n]
        spectrum = naive_cycle_lengths(graph.adjacency) if n <= 14 else None
        for k in window:
            cycle = find_cycle_near(graph, ham, k, 1)
            assert cycle is not None, (n, k)
            assert cycle.length == k
            assert verify_cycle(graph, cycle)
            if spectrum is not None:
                assert k in spectrum
            checked += 1

    print(f"ACCEPTANCE 4 half-window: PASS ({len(instances)} graphs, "
          f"{checked} lengths)")


def test_5_half_length_cycles_three_connected():
    """Squares of cycles for even n in [8, 40] and the generator families
    covering the small-face and dense-interior branches: always a cycle of
    length n/2 - 1 or n/2 - 2."""
    runs = []
    for n in range(8, 41, 2):
        runs.append(("square", *square_cycle(n)))
        runs.append(("fanned", *square_cycle_fanned(n)))
    for n in range(12, 41, 6):
        runs.append(("ring", *small_face_ring(n)))

    for label, graph, ham in runs:
        n = graph.n_vertices
        if label == "fanned":  # strict interior edge majority: exact branch
            interior_edges = n + len(split_by_hamilton(graph, ham).interior)
            assert interior_edges > 3 * n // 2
        if label == "ring":  # every interior face short: slack-2 branch
            dual = build_dual_tree(graph, ham, "interior")
            assert max(dual.tree.weights) <= n // 2 - 3
        cycle = find_half_cycle_3conn(graph, ham)
        assert cycle.length in (n // 2 - 1, n // 2 - 2), (label, n)
        assert verify_cycle(graph, cycle)

    print(f"ACCEPTANCE 5 half-length: PASS ({len(runs)} graphs)")


def test_6_density_guarantees_medium_cycle():
    """Every generated instance with m >= 2n and n <= 60: the single call
    with k = floor(2n/3), g = ceil(n/3) yields a cycle with length between
    floor(n/3) and ceil(2n/3)."""
    instances = []
    instances += [square_cycle(n) for n in range(6, 61, 2)]
    instances += [square_cycle_fanned(n) for n in range(8, 61, 2)]
    instances += [small_face_ring(n) for n in range(12, 61, 6)]
    instances += [malkevitch(p) for p in range(1, 11)]

    for graph, ham in instances:
        n, m = graph.n_vertices, graph.n_edges
        assert m >= 2 * n
        k = 2 * n // 3
        g = -(-n // 3)
        assert cycle_search_guaranteed(n, m, k, g)
        cycle = find_cycle_near(graph, ham, k, g)
        assert cycle is not None, (n, m)
        assert n // 3 <= cycle.length <= -(-2 * n // 3), (n, cycle.length)
        assert verify_cycle(graph, cycle)

    print(f"ACCEPTANCE 6 density-bound: PASS ({len(instances)} graphs)")


def test_7_subset_sum_agrees_with_oracle_exhaustively():
    """All multisets with up to 8 elements of value at most 5: every dense
    decision and witness agrees with both the DP oracle and plain
    enumeration; (2, 2, 2) is the canonical refused-but-false case."""
    t0 = time.perf_counter()
    decided = refused = 0

    for n in range(1, 9):
        for values in itertools.combinations_with_replacement(range(1, 6), n):
            total = sum(values)
            achievable = naive_subset_sums(values)

            for k in range(1, total + 1):
                dp = oracle_subset_sum(values, k)
                assert (dp is not None) == (k in achievable)
                if dp is not None:
                    assert verify_witness(values, dp, k)

                dense = subset_sum_dense(values, k)
                if dense is NOT_APPLICABLE:
                    refused += 1
                else:
                    decided += 1
                    assert verify_witness(values, dense, k)
                    assert k in achievable

                if k < total:
                    via = subset_sum_via_partition(values, k)
                    if via is not NOT_APPLICABLE:
                        decided += 1
                        assert via.value == (k in achievable)
                        if via.value:
                            assert verify_witness(values, via.witness, k)
                    else:
                        refused += 1

            if total % 2 == 0:
                part = partition_dense(values)
                if part is not NOT_APPLICABLE:
                    decided += 1
                    assert part.value == (total // 2 in achievable)
                    if part.value:
                        assert verify_witness(values, part.witness, total // 2)
                else:
                    refused += 1

    assert partition_dense((2, 2, 2)) is NOT_APPLICABLE
    assert oracle_subset_sum((2, 2, 2), 3) is None

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 subset-sum: PASS ({decided} decided, "
          f"{refused} refused, {elapsed:.1f}s)")


def test_8_structural_invariants():
    """Closed-walk shape, window trace replay, dual tree weight totals,
    and the cycle-length law, over the whole fixture set."""
    trees = [
        tight_instance("star_gh", 5).tree,
        tight_instance("path_lower", 4, 3).tree,
        tight_instance("path_upper", 6).tree,
        tight_instance("star_cap", 7, 4).tree,
        path_tree((1, 2) * 25),
    ] + [random_tree(n, max_weight=4, seed=n) for n in range(2, 40)]

    walks = 0
    for tree in trees:
        cycle = build_euler_cycle(tree)
        n = tree.n_vertices
        assert len(cycle) == 2 * (n - 1)
        for v in range(n):
            assert cycle.vertices.tolist().count(v) == tree.degree(v)
        walks += 1

        # trace replay: reported weight always matches the window content,
        # and the window's vertex set stays connected
        states = []
        find_subtree(tree, max(tree.weights) + 1, 2, cycle=cycle,
                     on_move=lambda kind, s, t, w: states.append((s, t, w)))
        length = len(cycle)
        for s, t, w in states:
            stops = (range(s, t + 1) if s <= t
                     else list(range(s, length)) + list(range(t + 1)))
            inside = {cycle.vertices[i] for i in stops}
            assert w == sum(tree.weights[v] for v in inside)
            seen = {next(iter(inside))}
            queue = list(seen)
            while queue:
                for u in tree.adjacency[queue.pop()]:
                    if u in inside and u not in seen:
                        seen.add(u)
                        queue.append(u)
            assert seen == inside

    graphs = [square_cycle(16), square_cycle_fanned(16),
              small_face_ring(18), malkevitch(3)]
    laws = 0
    for graph, ham in graphs:
        n = graph.n_vertices
        for side in ("interior", "exterior"):
            dual = build_dual_tree(graph, ham, side)  # asserts tree-ness
            assert dual.tree.total_weight == n - 2
            for k in range(1, n - 1):
                found = find_subtree(dual.tree, k, 1) if k >= max(
                    dual.tree.weights) else None
                if found is None:
                    continue
                cycle = subtree_to_cycle(dual, found.vertices)
                assert cycle.length == found.weight + 2
                assert verify_cycle(graph, cycle)
                laws += 1

    small = random_tree(9, max_weight=5, seed=3)
    assert achievable_subtree_weights(small) == naive_subtree_weights(small)

    print(f"ACCEPTANCE 8 invariants: PASS ({walks} walks, {laws} cycle-law "
          f"checks, {len(graphs)} graphs)")
