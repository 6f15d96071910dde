"""Command line front end.

Subcommands: find-subtree, find-cycle, subset-sum, gen, dot, oracle.
Results print as single greppable lines (SUBTREE ..., CYCLE ..., NOTFOUND);
--json switches to one JSON report object.  Exit codes are a stable
contract: 0 found/true, 2 not-found/not-applicable/false, 1 error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time

from . import generators
from .errors import InstanceTooLargeError, InvariantError, TreeWindowError
from .euler import find_subtree, verify_subtree
from .planar import (
    CycleResult,
    find_cycle_near,
    find_half_cycle_3conn,
    parse_graph,
    serialize_graph,
    verify_cycle,
)
from .subsetsum import (
    NOT_APPLICABLE,
    Decision,
    SubsetWitness,
    oracle_subset_sum,
    partition_dense,
    subset_sum_dense,
    subset_sum_via_partition,
    verify_witness,
)
from .tree import (
    WeightedTree,
    achievable_subtree_weights,
    check_conditions,
    parse_tree,
    serialize_tree,
    tight_instance,
)

_EXIT = {"found": 0, "not-found": 2, "not-applicable": 2}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _report(args) -> int:
    """Run a reporting subcommand, print its line or its JSON report, and
    map the outcome to the exit code.  The timer covers reading the input.

    Each reporting command returns (input digest, outcome, payload,
    step count, result line); outcome is found | not-found | not-applicable.
    """
    t0 = time.perf_counter()
    digest, outcome, payload, steps, line = args.run(args)
    ms = (time.perf_counter() - t0) * 1000
    if args.json:
        print(json.dumps({
            "subcommand": args.command, "input_digest": digest,
            "outcome": outcome, "payload": payload, "step_count": steps,
            "wall_time_ms": round(ms, 3),
        }, sort_keys=True))
    else:
        print(line)
    return _EXIT[outcome]


def _ids(csv: str) -> list[int]:
    try:
        return [int(tok) for tok in csv.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {csv!r}") from None


def _kind(text: str) -> str:
    """First meaningful token of an instance file: 'tree' or 'graph'."""
    return re.match(r"(?:\s|#[^\n\r]*)*([^\s#]*)", text).group(1)


# ---------------------------------------------------------------------------
# find-subtree
# ---------------------------------------------------------------------------


def _cmd_find_subtree(args):
    text = _read(args.file)
    digest = _digest(text)
    tree = parse_tree(text)
    del text

    if args.check_only:
        report = check_conditions(tree, args.k, args.g)
        flags = report.flags()
        states = [*flags.items(), ("overall", report.overall)]
        line = "CONDITIONS " + " ".join(
            f"{name}={'ok' if ok else 'FAIL'}" for name, ok in states
        )
        payload = {"flags": flags, "overall": report.overall,
                   "k": report.k, "g": report.g, "n2": report.n2, "h": report.h}
        return (digest, "found" if report.overall else "not-found",
                payload, None, line)

    result = find_subtree(tree, args.k, args.g, start=args.start)

    if args.oracle:
        achievable = achievable_subtree_weights(tree)
        window = set(range(max(1, args.k - args.g + 1), args.k + 1))
        if result is None and window & achievable:
            raise InvariantError(
                f"oracle found achievable weights {sorted(window & achievable)} "
                "in the window but the search returned nothing"
            )
        if result is not None and result.weight not in achievable:
            raise InvariantError(
                f"search weight {result.weight} is not oracle-achievable"
            )

    if result is None:
        return digest, "not-found", None, None, "NOTFOUND"
    if not verify_subtree(tree, result, args.k, args.g):
        raise InvariantError(f"search returned an invalid subtree: {result}")
    verts = sorted(result.vertices)
    payload = {"weight": result.weight, "vertices": verts,
               "window": list(result.window)}
    line = f"SUBTREE weight={result.weight} vertices={','.join(map(str, verts))}"
    return digest, "found", payload, result.steps, line


# ---------------------------------------------------------------------------
# find-cycle
# ---------------------------------------------------------------------------


def _cmd_find_cycle(args):
    text = _read(args.file)
    digest = _digest(text)
    graph, ham = parse_graph(text)

    if args.half3conn:
        cycle: CycleResult | None = find_half_cycle_3conn(graph, ham)
    else:
        if args.k is None or args.g is None:
            raise ValueError("find-cycle needs k and g unless --half3conn is given")
        cycle = find_cycle_near(graph, ham, args.k, args.g)

    if cycle is None:
        return digest, "not-found", None, None, "NOTFOUND"
    if not verify_cycle(graph, cycle):
        raise InvariantError(f"search returned an invalid cycle: {cycle}")
    payload = {"length": cycle.length, "vertices": list(cycle.vertices)}
    line = (f"CYCLE length={cycle.length} "
            f"vertices={','.join(map(str, cycle.vertices))}")
    return digest, "found", payload, None, line


# ---------------------------------------------------------------------------
# subset-sum
# ---------------------------------------------------------------------------


def _solve_subset_sum(values: tuple[int, ...], k: int, fallback: bool):
    """Dense solvers in order of strength, then the DP if allowed.
    Returns (decision: bool | None, witness, method)."""
    res = subset_sum_dense(values, k)
    if res is not NOT_APPLICABLE:
        return True, res, "dense"

    total = sum(values)
    if 2 * k <= total:
        via = subset_sum_via_partition(values, k)
        if via is not NOT_APPLICABLE:
            return via.value, via.witness, "via-partition"
    elif k <= total:
        # A subset sums to k exactly when its complement sums to total - k.
        via = subset_sum_via_partition(values, total - k)
        if via is not NOT_APPLICABLE:
            witness = None
            if via.witness is not None:
                rest = sorted(set(range(len(values))) - set(via.witness.indices))
                witness = SubsetWitness(tuple(rest), k)
            return via.value, witness, "via-partition"

    if fallback:
        wit = oracle_subset_sum(values, k)
        return (wit is not None), wit, "oracle"
    return None, None, None


def _cmd_subset_sum(args):
    raw = args.values
    if args.values_opt is not None:
        raw = args.values_opt
        # with --values, a lone positional token is the target k
        if args.values is not None:
            if args.k is not None or not args.values.lstrip("-").isdigit():
                raise ValueError("give the multiset exactly once, "
                                 "positionally or with --values")
            args.k = int(args.values)
    if raw is None:
        raise ValueError("subset-sum needs a multiset, positionally "
                         "or with --values")
    if raw == "-":
        raw = sys.stdin.readline()
    values = tuple(_ids(raw))
    digest = _digest(f"{values}|{args.k}|{args.partition}")

    if args.partition:
        if args.k is not None:
            raise ValueError("--partition takes no target k")
        target, word, listed, extra = sum(values) // 2, "PARTITION", "left", {}
        res = partition_dense(values)  # raises on an odd total
        if res is NOT_APPLICABLE and args.fallback_oracle:
            wit = oracle_subset_sum(values, target)
            res = Decision(wit is not None, wit)
        decision, witness = ((None, None) if res is NOT_APPLICABLE
                             else (res.value, res.witness))
    else:
        if args.k is None:
            raise ValueError("subset-sum needs a target k (or --partition)")
        if args.k > sum(values):
            decision, witness, method = False, None, "trivial"
        else:
            decision, witness, method = _solve_subset_sum(
                values, args.k, args.fallback_oracle
            )
        target, word, listed, extra = args.k, "SUBSETSUM", "indices", {"method": method}

    if decision is None:
        return digest, "not-applicable", None, None, "NOTAPPLICABLE"
    if not decision:
        return (digest, "not-found", {"decision": False, "witness": None, **extra},
                None, f"{word} FALSE")
    if witness is None or not verify_witness(values, witness, target):
        raise InvariantError(f"solver returned an invalid witness: {witness}")
    payload = {"decision": True, "witness": list(witness.indices), **extra}
    line = f"{word} TRUE {listed}={','.join(map(str, witness.indices))}"
    return digest, "found", payload, None, line


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

_TIGHT_BY_CLI = {
    "tight-star": "star_gh",
    "tight-path-lower": "path_lower",
    "tight-path-upper": "path_upper",
    "tight-star-cap": "star_cap",
}

_GRAPH_FAMILIES = {
    "square-cycle": generators.square_cycle,
    "square-cycle-fanned": generators.square_cycle_fanned,
    "small-face-ring": generators.small_face_ring,
    "malkevitch": generators.malkevitch,
}


def _cmd_gen(args) -> int:
    family = args.family
    params = args.params

    def need(count: int, usage: str) -> None:
        if len(params) != count:
            raise ValueError(f"{family} takes {usage}")

    if family in _TIGHT_BY_CLI:
        if family in ("tight-path-lower", "tight-star-cap"):
            need(2, "two parameters: p q")
            inst = tight_instance(_TIGHT_BY_CLI[family], params[0], params[1])
            extra = f" q={params[1]}"
        else:
            need(1, "one parameter: p")
            inst = tight_instance(_TIGHT_BY_CLI[family], params[0])
            extra = ""
        print(f"# family={family} p={params[0]}{extra} "
              f"k={inst.k} g={inst.g} fails={inst.failing_flag}")
        sys.stdout.write(serialize_tree(inst.tree))
        return 0

    if family == "random-tree":
        need(1, "one parameter: n (plus --max-weight, --seed)")
        tree = generators.random_tree(params[0], args.max_weight, args.seed)
        print(f"# family=random-tree n={params[0]} "
              f"max-weight={args.max_weight} seed={args.seed}")
        sys.stdout.write(serialize_tree(tree))
        return 0

    if family in _GRAPH_FAMILIES:
        need(1, "one parameter")
        graph, ham = _GRAPH_FAMILIES[family](params[0])
        print(f"# family={family} n={graph.n_vertices} m={graph.n_edges}")
        sys.stdout.write(serialize_graph(graph, ham))
        return 0

    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# dot
# ---------------------------------------------------------------------------


def _dot_tree(tree: WeightedTree, highlight: set[int]) -> str:
    out = ["graph tree {", "  node [shape=circle];"]
    for v, w in enumerate(tree.weights.tolist()):
        style = " style=filled fillcolor=gold" if v in highlight else ""
        out.append(f'  {v} [label="{v}\\nw={w}"{style}];')
    for v, nbrs in enumerate(tree.adjacency):
        for u in nbrs:
            if v < u:
                out.append(f"  {v} -- {u};")
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_graph(graph, ham, cycle: list[int] | None) -> str:
    marked = set()
    if cycle:
        marked = {
            tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
            for i in range(len(cycle))
        }
    out = ["graph plane {", "  node [shape=circle];", "  layout=circo;"]
    for v in ham.order:
        out.append(f"  {v};")
    for v, u in sorted(graph.edges()):
        style = " [color=red penwidth=2]" if (v, u) in marked else ""
        out.append(f"  {v} -- {u}{style};")
    out.append("}")
    return "\n".join(out) + "\n"


def _cmd_dot(args) -> int:
    text = _read(args.file)
    head = _kind(text)
    highlight = _ids(args.highlight) if args.highlight else []
    if head == "tree":
        tree = parse_tree(text)
        bad = [v for v in highlight if not 0 <= v < tree.n_vertices]
        if bad:
            raise ValueError(f"highlight ids out of range: {bad}")
        sys.stdout.write(_dot_tree(tree, set(highlight)))
        return 0
    graph, ham = parse_graph(text)
    if highlight:
        if not verify_cycle(graph, CycleResult(tuple(highlight))):
            raise ValueError("highlight is not a cycle of the graph")
    sys.stdout.write(_dot_graph(graph, ham, highlight or None))
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

_ORACLE_GRAPH_LIMIT = 20


def _oracle_cycle_lengths(graph) -> list[int]:
    if graph.n_vertices > _ORACLE_GRAPH_LIMIT:
        raise InstanceTooLargeError(
            f"cycle spectrum oracle is exponential; limit is "
            f"{_ORACLE_GRAPH_LIMIT} vertices, got {graph.n_vertices}"
        )
    lengths: set[int] = set()

    def walk(start: int, v: int, seen: set[int], depth: int) -> None:
        for u in graph.adjacency[v]:
            if u == start and depth >= 3:
                lengths.add(depth)
            elif u > start and u not in seen:
                seen.add(u)
                walk(start, u, seen, depth + 1)
                seen.discard(u)

    for s in range(graph.n_vertices):
        walk(s, s, {s}, 1)
    return sorted(lengths)


def _cmd_oracle(args):
    text = _read(args.file)
    digest = _digest(text)
    if _kind(text) == "tree":
        found = sorted(achievable_subtree_weights(parse_tree(text)))
        kind, label = "weights", "WEIGHTS"
    else:
        graph, _ = parse_graph(text)
        found = _oracle_cycle_lengths(graph)
        kind, label = "lengths", "LENGTHS"

    if args.k is None:
        return (digest, "found", {kind: found}, None,
                f"{label} {','.join(map(str, found))}")
    hit = args.k in found
    return (digest, "found" if hit else "not-found",
            {kind: found, "k": args.k}, None,
            f"{label} k={args.k} {'present' if hit else 'absent'}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="treewindow",
        description="Weight-window subtree search and its cycle/subset-sum applications.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-subtree",
                       help="subtree of weight in [k-g+1, k] in a weighted tree")
    p.add_argument("file", help="tree file, or - for stdin")
    p.add_argument("k", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--start", type=int, default=0,
                   help="stop index to open the window at")
    p.add_argument("--check-only", action="store_true",
                   help="print the sufficient-condition report and stop")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the outcome against the exact weight set")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_report, run=_cmd_find_subtree)

    p = sub.add_parser("find-cycle",
                       help="cycle of length in [k-g+1, k] in a plane hamiltonian graph")
    p.add_argument("file", help="graph file, or - for stdin")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("g", type=int, nargs="?")
    p.add_argument("--half3conn", action="store_true",
                   help="cycle of length n/2-1 or n/2-2 (3-connected, min degree 4)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_report, run=_cmd_find_cycle)

    p = sub.add_parser("subset-sum",
                       help="dense subset-sum / partition decision with witness")
    p.add_argument("values", nargs="?",
                   help="the multiset: integers separated by commas or "
                        "spaces, or - to read one line from stdin")
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("--values", dest="values_opt", metavar="VALUES",
                   help="alternative to the positional form")
    p.add_argument("--partition", action="store_true")
    p.add_argument("--fallback-oracle", action="store_true",
                   help="run the exact DP when the dense thresholds do not apply")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_report, run=_cmd_subset_sum)

    p = sub.add_parser("gen", help="write a generated instance to stdout")
    p.add_argument("family", help="tight-star, tight-path-lower, tight-path-upper, "
                                  "tight-star-cap, random-tree, malkevitch, "
                                  "square-cycle, square-cycle-fanned, small-face-ring")
    p.add_argument("params", type=int, nargs="*")
    p.add_argument("--max-weight", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("dot", help="DOT rendering of a tree or graph file")
    p.add_argument("file")
    p.add_argument("--highlight", help="comma-separated vertex ids "
                                       "(subtree for trees, cycle walk for graphs)")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("oracle",
                       help="exhaustive reference answers (small instances)")
    p.add_argument("file", help="tree or graph file")
    p.add_argument("--k", type=int, help="report presence of this weight/length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_report, run=_cmd_oracle)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except AssertionError as exc:  # InvariantError included
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (TreeWindowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
