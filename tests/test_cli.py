"""Command line interface, driven in-process through main(argv)."""

import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import treewindow
import treewindow.cli as cli
from treewindow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def path_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "tight-path-lower", "3", "2")
    assert code == 0
    f = tmp_path / "path.tree"
    f.write_text(out)
    return str(f)


@pytest.fixture
def sq12_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "square-cycle", "12")
    assert code == 0
    f = tmp_path / "sq12.graph"
    f.write_text(out)
    return str(f)


@pytest.fixture
def star_file(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "tight-star", "2")
    assert code == 0
    f = tmp_path / "star.tree"
    f.write_text(out)
    return str(f)


@pytest.fixture
def ring_file(tmp_path):
    n = 6
    lines = [f"graph {n}"]
    for v in range(n):
        lines.append(f"{v}: {(v + 1) % n} {(v - 1) % n}")
    lines.append("hamilton: " + " ".join(map(str, range(n))))
    f = tmp_path / "ring.graph"
    f.write_text("\n".join(lines) + "\n")
    return str(f)


# One case per report the CLI can print: argv with file placeholders, the
# exit code, the text line and the --json object (wall_time_ms masked).
_GOLDEN = {
    "check-only-ok": (
        ["find-subtree", "{path}", "6", "2", "--check-only"], 0,
        "CONDITIONS range_ok=ok slack_ok=ok lower_ok=ok upper_ok=ok cap_ok=ok overall=ok",
        '{"input_digest": "05322bf61b43", "outcome": "found", "payload": {"flags": '
        '{"cap_ok": true, "lower_ok": true, "range_ok": true, "slack_ok": true, '
        '"upper_ok": true}, "g": 2, "h": 3, "k": 6, "n2": 11, "overall": true}, '
        '"step_count": null, "subcommand": "find-subtree", "wall_time_ms": 0}'),
    "check-only-fail": (
        ["find-subtree", "{star}", "4", "1", "--check-only"], 2,
        "CONDITIONS range_ok=ok slack_ok=FAIL lower_ok=ok upper_ok=ok cap_ok=ok overall=FAIL",
        '{"input_digest": "a9f1a5937a8b", "outcome": "not-found", "payload": {"flags": '
        '{"cap_ok": true, "lower_ok": true, "range_ok": true, "slack_ok": false, '
        '"upper_ok": true}, "g": 1, "h": 1, "k": 4, "n2": 7, "overall": false}, '
        '"step_count": null, "subcommand": "find-subtree", "wall_time_ms": 0}'),
    "subtree-found": (
        ["find-subtree", "{path}", "6", "2"], 0,
        "SUBTREE weight=5 vertices=0,1,2",
        '{"input_digest": "05322bf61b43", "outcome": "found", "payload": '
        '{"vertices": [0, 1, 2], "weight": 5, "window": [0, 2]}, "step_count": 2, '
        '"subcommand": "find-subtree", "wall_time_ms": 0}'),
    "subtree-not-found": (
        ["find-subtree", "{star}", "4", "1"], 2,
        "NOTFOUND",
        '{"input_digest": "a9f1a5937a8b", "outcome": "not-found", "payload": null, '
        '"step_count": null, "subcommand": "find-subtree", "wall_time_ms": 0}'),
    "cycle-found": (
        ["find-cycle", "{sq12}", "7", "1"], 0,
        "CYCLE length=7 vertices=0,1,2,4,6,8,10",
        '{"input_digest": "4caea86c362b", "outcome": "found", "payload": '
        '{"length": 7, "vertices": [0, 1, 2, 4, 6, 8, 10]}, "step_count": null, '
        '"subcommand": "find-cycle", "wall_time_ms": 0}'),
    "cycle-not-found": (
        ["find-cycle", "{ring}", "5", "1"], 2,
        "NOTFOUND",
        '{"input_digest": "9e07f87fe989", "outcome": "not-found", "payload": null, '
        '"step_count": null, "subcommand": "find-cycle", "wall_time_ms": 0}'),
    "partition-not-applicable": (
        ["subset-sum", "2,2,2", "--partition"], 2,
        "NOTAPPLICABLE",
        '{"input_digest": "afc20aebee5c", "outcome": "not-applicable", "payload": null, '
        '"step_count": null, "subcommand": "subset-sum", "wall_time_ms": 0}'),
    "partition-true": (
        ["subset-sum", "1,1,1,1,2", "--partition"], 0,
        "PARTITION TRUE left=0,1,2",
        '{"input_digest": "429249f951c3", "outcome": "found", "payload": '
        '{"decision": true, "witness": [0, 1, 2]}, "step_count": null, '
        '"subcommand": "subset-sum", "wall_time_ms": 0}'),
    "partition-false": (
        ["subset-sum", "2,2,2", "--partition", "--fallback-oracle"], 2,
        "PARTITION FALSE",
        '{"input_digest": "afc20aebee5c", "outcome": "not-found", "payload": '
        '{"decision": false, "witness": null}, "step_count": null, '
        '"subcommand": "subset-sum", "wall_time_ms": 0}'),
    "subset-not-applicable": (
        ["subset-sum", "3,1,4,1,5", "9"], 2,
        "NOTAPPLICABLE",
        '{"input_digest": "07d181e1d5bf", "outcome": "not-applicable", "payload": null, '
        '"step_count": null, "subcommand": "subset-sum", "wall_time_ms": 0}'),
    "subset-true": (
        ["subset-sum", "1,2,1,2,1", "4"], 0,
        "SUBSETSUM TRUE indices=0,1,2",
        '{"input_digest": "c231e247f2f1", "outcome": "found", "payload": '
        '{"decision": true, "method": "dense", "witness": [0, 1, 2]}, '
        '"step_count": null, "subcommand": "subset-sum", "wall_time_ms": 0}'),
    "subset-false": (
        ["subset-sum", "6,1,1,1,1", "5"], 2,
        "SUBSETSUM FALSE",
        '{"input_digest": "3654b5d75e05", "outcome": "not-found", "payload": '
        '{"decision": false, "method": "via-partition", "witness": null}, '
        '"step_count": null, "subcommand": "subset-sum", "wall_time_ms": 0}'),
    "subset-total": (
        ["subset-sum", "3,1", "4"], 0,
        "SUBSETSUM TRUE indices=0,1",
        '{"input_digest": "0fec32367bd1", "outcome": "found", "payload": '
        '{"decision": true, "method": "trivial", "witness": [0, 1]}, '
        '"step_count": null, "subcommand": "subset-sum", "wall_time_ms": 0}'),
    "oracle-k": (
        ["oracle", "{star}", "--k", "4"], 2,
        "WEIGHTS k=4 absent",
        '{"input_digest": "a9f1a5937a8b", "outcome": "not-found", "payload": '
        '{"k": 4, "weights": [1, 2, 3, 5, 7]}, "step_count": null, '
        '"subcommand": "oracle", "wall_time_ms": 0}'),
    "oracle": (
        ["oracle", "{star}"], 0,
        "WEIGHTS 1,2,3,5,7",
        '{"input_digest": "a9f1a5937a8b", "outcome": "found", "payload": '
        '{"weights": [1, 2, 3, 5, 7]}, "step_count": null, '
        '"subcommand": "oracle", "wall_time_ms": 0}'),
}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", list(_GOLDEN))
def test_golden_report(capsys, path_file, star_file, sq12_file, ring_file,
                       case, as_json):
    argv, code, line, report = _GOLDEN[case]
    files = {"path": path_file, "star": star_file, "sq12": sq12_file,
             "ring": ring_file}
    argv = [arg.format(**files) for arg in argv] + (["--json"] if as_json else [])
    got_code, out, err = run(capsys, *argv)
    assert (got_code, err) == (code, "")
    if as_json:
        assert re.fullmatch(r'.*"wall_time_ms": \d+\.\d+}\n', out)
        out = re.sub(r'"wall_time_ms": [\d.]+', '"wall_time_ms": 0', out)
    assert out == (report if as_json else line) + "\n"


def _readme_examples():
    """(command, shown output lines) for each `$ ... treewindow ...` line in
    the code blocks of README.md, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", text, re.M | re.S):
        shown = None  # lines before a block's first command are no output
        for line in block.splitlines():
            if line.startswith("$ "):
                shown = []
                examples.append((line[2:], shown))
            elif shown is not None:
                shown.append(line)
    return [(cmd, shown) for cmd, shown in examples
            if cmd.partition("#")[0].rpartition("|")[2].split()[0] == "treewindow"]


def _mask_wall_time(text):
    return re.sub(r'"wall_time_ms": [\d.]+', '"wall_time_ms": 0', text)


def test_readme_examples(capsys, monkeypatch, tmp_path):
    """Every README example runs in a fresh directory as shown: `> FILE`
    writes there, `echo ... |` is stdin, a trailing `# ...` is a comment,
    and a comment `exit N` gives the exit code (0 when no output is shown)."""
    examples = _readme_examples()
    assert len(examples) >= 15
    monkeypatch.chdir(tmp_path)
    for example, shown in examples:
        command, _, comment = example.partition("#")
        stdin, _, command = command.rpartition("|")
        if stdin:
            echoed = " ".join(shlex.split(stdin)[1:])
            monkeypatch.setattr("sys.stdin", io.StringIO(echoed + "\n"))
        argv, target = shlex.split(command)[1:], None
        if ">" in argv:
            argv, target = argv[:-2], argv[-1]
        code, out, err = run(capsys, *argv)
        if target:
            Path(target).write_text(out)
        elif shown:
            assert _mask_wall_time(out) == _mask_wall_time("\n".join(shown) + "\n"), example
        stated = re.search(r"exit (\d+)", comment)
        if stated or not shown:
            assert code == (int(stated[1]) if stated else 0), (example, err)


_BROKEN_CHECK = """
import sys
import treewindow.cli as cli
setattr(cli, sys.argv[1], lambda *args: False)
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("verifier, argv", [
    ("verify_subtree", ["find-subtree", "{path}", "6", "2"]),
    ("verify_cycle", ["find-cycle", "{sq12}", "7", "1"]),
    ("verify_witness", ["subset-sum", "1,2,1,2,1", "4"]),
])
def test_result_check_survives_optimize(path_file, sq12_file, verifier, argv):
    """Under python -O a result that fails its verifier still exits 1."""
    src = str(Path(treewindow.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [arg.format(path=path_file, sq12=sq12_file) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_CHECK, verifier, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("internal error:")


class TestFindSubtree:
    def test_found(self, capsys, path_file):
        code, out, _ = run(capsys, "find-subtree", path_file, "6", "2")
        assert code == 0
        assert out.startswith("SUBTREE weight=")
        weight = int(out.split()[1].split("=")[1])
        assert weight in (5, 6)

    def test_not_found(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "tight-star", "2")
        f = tmp_path / "star.tree"
        f.write_text(out)
        code, out, _ = run(capsys, "find-subtree", str(f), "4", "1")
        assert code == 2 and out.strip() == "NOTFOUND"

    def test_oracle_crosscheck(self, capsys, path_file):
        code, out, _ = run(capsys, "find-subtree", path_file, "6", "2", "--oracle")
        assert code == 0 and out.startswith("SUBTREE")

    def test_oracle_allows_miss_outside_guarantee(self, capsys, tmp_path):
        """slack_ok fails here (g + h = 1 + 10 - 14 = -3), so a miss is no
        fault even though the oracle reaches 7."""
        f = tmp_path / "miss.tree"
        f.write_text("tree 5\n0: 4: 1\n1: 1: 0 2 3 4\n2: 1: 1\n3: 3: 1\n4: 5: 1\n")
        assert run(capsys, "oracle", str(f), "--k", "7")[0] == 0
        code, out, err = run(capsys, "find-subtree", str(f), "7", "1", "--oracle")
        assert (code, out, err) == (2, "NOTFOUND\n", "")
        code, out, _ = run(capsys, "find-subtree", str(f), "7", "1", "--oracle", "--json")
        report = json.loads(out)
        assert code == 2 and report["outcome"] == "not-found" and report["payload"] is None

    def test_oracle_flags_miss_under_guarantee(self, capsys, monkeypatch, path_file):
        monkeypatch.setattr(cli, "find_subtree", lambda *args, **kwargs: None)
        code, out, err = run(capsys, "find-subtree", path_file, "6", "2", "--oracle")
        assert (code, out) == (1, "")
        assert err.startswith("internal error: oracle found achievable weights [5, 6]")

    def test_oracle_memory_independent_of_slack(self, capsys, tmp_path):
        f = tmp_path / "three.tree"
        f.write_text("tree 3\n0: 1: 1\n1: 1: 0 2\n2: 1: 1\n")
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "find-subtree", str(f), "1000000", "1000000", "--oracle")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and out.startswith("SUBTREE")
        assert peak < 4 * 2**20

    def test_check_only(self, capsys, path_file):
        code, out, _ = run(capsys, "find-subtree", path_file, "6", "2",
                           "--check-only")
        assert code == 0
        assert out.startswith("CONDITIONS ")
        assert "overall=ok" in out

    def test_check_only_failing(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "tight-star", "2")
        f = tmp_path / "star.tree"
        f.write_text(out)
        code, out, _ = run(capsys, "find-subtree", str(f), "4", "1",
                           "--check-only")
        assert code == 2
        assert "slack_ok=FAIL" in out and "range_ok=ok" in out
        assert "overall=FAIL" in out

    def test_json_report(self, capsys, path_file):
        code, out, _ = run(capsys, "find-subtree", path_file, "6", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["subcommand"] == "find-subtree"
        assert report["outcome"] == "found"
        assert report["payload"]["weight"] in (5, 6)
        assert isinstance(report["step_count"], int)
        assert isinstance(report["wall_time_ms"], float)
        assert len(report["input_digest"]) == 12

    def test_stdin(self, capsys, path_file, monkeypatch):
        with open(path_file) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        code, out, _ = run(capsys, "find-subtree", "-", "6", "2")
        assert code == 0 and out.startswith("SUBTREE")

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.tree"
        f.write_text("tree 2\n0: 1: 1\n")
        code, _, err = run(capsys, "find-subtree", str(f), "1", "1")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("start", ["5", "-1"])
    def test_single_vertex_start_checked(self, capsys, tmp_path, start):
        f = tmp_path / "one.tree"
        f.write_text("tree 1\n0: 3:\n")
        code, out, err = run(capsys, "find-subtree", str(f), "3", "1", f"--start={start}")
        assert (code, out) == (1, "")
        assert err == f"error: start stop {start} out of range 0..0\n"
        code, out, _ = run(capsys, "find-subtree", str(f), "3", "1", "--start", "0")
        assert code == 0 and out.strip() == "SUBTREE weight=3 vertices=0"

    @pytest.mark.parametrize("name, reason", [
        ("missing.tree", "No such file or directory"),
        (".", "Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_path(self, capsys, tmp_path, name, reason):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "find-subtree", path, "1", "1")
        assert code == 1 and out == ""
        assert err == f"error: cannot read {path}: {reason}\n"


class TestFindCycle:
    def test_window(self, capsys, sq12_file):
        code, out, _ = run(capsys, "find-cycle", sq12_file, "7", "1")
        assert code == 0
        assert out.startswith("CYCLE length=7 ")

    def test_half3conn(self, capsys, sq12_file):
        code, out, _ = run(capsys, "find-cycle", sq12_file, "--half3conn")
        assert code == 0
        length = int(out.split()[1].split("=")[1])
        assert length in (4, 5)

    def test_not_found(self, capsys, ring_file):
        code, out, _ = run(capsys, "find-cycle", ring_file, "5", "1")
        assert code == 2 and out.strip() == "NOTFOUND"

    def test_missing_target(self, capsys, sq12_file):
        code, _, err = run(capsys, "find-cycle", sq12_file)
        assert code == 1 and "needs k and g" in err

    def test_half3conn_rejects_thin_graph(self, capsys, ring_file):
        code, _, err = run(capsys, "find-cycle", ring_file, "--half3conn")
        assert code == 1 and "error:" in err

    def test_half3conn_long_faces(self, capsys, tmp_path):
        # Two faces of 10,000 places, where a face-pair 3-connectivity test
        # would need about 9 GB.
        code, out, _ = run(capsys, "gen", "square-cycle", "20000")
        assert code == 0
        path = tmp_path / "sq20000.graph"
        path.write_text(out)
        code, out, _ = run(capsys, "find-cycle", str(path), "--half3conn")
        assert code == 0
        assert out.startswith("CYCLE length=9999 ")

    @pytest.mark.parametrize("extra", [["7", "1"], ["7"]])
    def test_half3conn_rejects_k_and_g(self, capsys, sq12_file, extra):
        code, out, err = run(capsys, "find-cycle", sq12_file, *extra, "--half3conn")
        assert (code, out) == (1, "")
        assert err == "error: --half3conn takes no k or g\n"


class TestSubsetSum:
    def test_dense_true(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "1,2,1,2,1", "4")
        assert code == 0
        assert out.startswith("SUBSETSUM TRUE indices=")

    def test_sparse_not_applicable(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "3,1,4,1,5", "9")
        assert code == 2 and out.strip() == "NOTAPPLICABLE"

    def test_fallback_oracle(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "3,1,4,1,5", "9",
                           "--fallback-oracle")
        assert code == 0 and out.startswith("SUBSETSUM TRUE")

    def test_decided_false(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "6,1,1,1,1", "5")
        assert code == 2 and out.strip() == "SUBSETSUM FALSE"

    def test_target_above_total(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "1,1", "5")
        assert code == 2 and out.strip() == "SUBSETSUM FALSE"

    def test_complement_route(self, capsys):
        # 2k > total: the reduction pads toward k
        code, out, _ = run(capsys, "subset-sum", "2,2,2,2,2,1", "6", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["payload"]["method"] == "via-partition"
        assert report["payload"]["decision"] is True

    @pytest.mark.parametrize("values", ["3,1", "2,2"])
    def test_target_total(self, capsys, values):
        code, out, _ = run(capsys, "subset-sum", values, "4")
        assert code == 0 and out.strip() == "SUBSETSUM TRUE indices=0,1"

    def test_target_zero(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "3,1", "0")
        assert code == 0 and out.strip() == "SUBSETSUM TRUE indices="

    def test_negative_target(self, capsys):
        code, _, err = run(capsys, "subset-sum", "3,1", "-1")
        assert code == 1 and "k >= 0" in err

    def test_partition(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "1,1,1,1,2", "--partition")
        assert code == 0 and out.startswith("PARTITION TRUE left=")

    def test_partition_not_applicable(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "2,2,2", "--partition")
        assert code == 2 and out.strip() == "NOTAPPLICABLE"

    def test_partition_oracle_fallback(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "2,2,2", "--partition",
                           "--fallback-oracle")
        assert code == 2 and out.strip() == "PARTITION FALSE"

    def test_partition_rejects_target(self, capsys):
        code, _, err = run(capsys, "subset-sum", "1,1", "1", "--partition")
        assert code == 1 and "no target" in err

    def test_partition_odd_total(self, capsys):
        code, _, err = run(capsys, "subset-sum", "1,1,1", "--partition")
        assert code == 1 and "even total" in err

    @pytest.mark.parametrize("values", ["3,1", "5,1,1,1"])
    def test_partition_oversized_element(self, capsys, values):
        # N = total/2 is below the dense threshold, but an element above
        # total/2 answers no
        code, out, _ = run(capsys, "subset-sum", values, "--partition")
        assert code == 2 and out.strip() == "PARTITION FALSE"

    def test_oversized_element_below_threshold(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "6,1,1,1", "4", "--json")
        assert code == 2
        payload = json.loads(out)["payload"]
        assert payload == {"decision": False, "method": "via-partition", "witness": None}

    @pytest.mark.parametrize("argv, message", [
        (["0,1", "0"], "element 0: 0 is not an integer >= 1"),
        (["0,3", "3"], "element 0: 0 is not an integer >= 1"),
        (["--values=0,1", "1"], "element 0: 0 is not an integer >= 1"),
        (["", "0"], "multiset must be non-empty"),
        (["1 -2", "1"], "element 1: -2 is not an integer >= 1"),
        (["0,1", "--partition"], "element 0: 0 is not an integer >= 1"),
    ], ids=["zero-target", "total-target", "values-flag", "empty", "negative",
            "partition-before-odd-total"])
    def test_invalid_multiset(self, capsys, argv, message):
        code, out, err = run(capsys, "subset-sum", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_values(self, capsys):
        code, _, err = run(capsys, "subset-sum", "1,x,3", "2")
        assert code == 1 and err.startswith("error:")

    def test_values_flag(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "--values", "3,1,1,1", "3")
        assert code == 0
        assert out.strip() == "SUBSETSUM TRUE indices=0"

    def test_values_flag_partition(self, capsys):
        code, out, _ = run(capsys, "subset-sum", "--values", "1,1,1,1,2",
                           "--partition")
        assert code == 0 and out.startswith("PARTITION TRUE")

    def test_values_given_twice(self, capsys):
        code, _, err = run(capsys, "subset-sum", "1,2", "--values", "3,4")
        assert code == 1 and "exactly once" in err

    def test_values_missing(self, capsys):
        code, _, err = run(capsys, "subset-sum", "--partition")
        assert code == 1 and "needs a multiset" in err

    def test_stdin_line(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 1 1 2\n"))
        code, out, _ = run(capsys, "subset-sum", "-", "4")
        assert code == 0 and out.startswith("SUBSETSUM TRUE")


class TestGen:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "random-tree", "20", "--seed", "5")
        _, second, _ = run(capsys, "gen", "random-tree", "20", "--seed", "5")
        assert first == second

    def test_tight_header(self, capsys):
        code, out, _ = run(capsys, "gen", "tight-star-cap", "5", "4")
        assert code == 0
        header = out.splitlines()[0]
        assert "fails=cap_ok" in header and "k=4" in header

    def test_graph_families(self, capsys):
        for family, param in (("square-cycle", 10),
                              ("square-cycle-fanned", 10),
                              ("small-face-ring", 12),
                              ("malkevitch", 2)):
            code, out, _ = run(capsys, "gen", family, str(param))
            assert code == 0
            assert out.splitlines()[0].startswith(f"# family={family} ")
            assert "graph " in out

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "gen", "moebius", "5")
        assert code == 1 and "unknown family" in err

    def test_wrong_arity(self, capsys):
        code, _, err = run(capsys, "gen", "tight-path-lower", "3")
        assert code == 1 and "two parameters" in err

    def test_invalid_parameter(self, capsys):
        code, _, err = run(capsys, "gen", "square-cycle", "7")
        assert code == 1 and err.startswith("error:")


class TestDot:
    def test_tree(self, capsys, path_file):
        code, out, _ = run(capsys, "dot", path_file, "--highlight", "0,1")
        assert code == 0
        assert out.startswith("graph tree {")
        assert "fillcolor=gold" in out

    def test_tree_bad_highlight(self, capsys, path_file):
        code, _, err = run(capsys, "dot", path_file, "--highlight", "0,99")
        assert code == 1 and "out of range" in err

    def test_graph_with_cycle(self, capsys, sq12_file):
        code, out, _ = run(capsys, "dot", sq12_file, "--highlight", "0,1,2")
        assert code == 0
        assert "layout=circo" in out and "color=red" in out

    def test_graph_bad_highlight(self, capsys, sq12_file):
        code, _, err = run(capsys, "dot", sq12_file, "--highlight", "0,1,6")
        assert code == 1 and "not a cycle" in err


class TestOracle:
    def test_tree_weights(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "tight-star", "2")
        f = tmp_path / "star.tree"
        f.write_text(out)
        code, out, _ = run(capsys, "oracle", str(f))
        assert code == 0
        assert out.strip() == "WEIGHTS 1,2,3,5,7"

    def test_tree_k_absent(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "tight-star", "2")
        f = tmp_path / "star.tree"
        f.write_text(out)
        code, out, _ = run(capsys, "oracle", str(f), "--k", "4")
        assert code == 2 and out.strip() == "WEIGHTS k=4 absent"
        code, out, _ = run(capsys, "oracle", str(f), "--k", "5")
        assert code == 0 and out.strip() == "WEIGHTS k=5 present"

    def test_graph_lengths(self, capsys, tmp_path, sq12_file):
        code, out, _ = run(capsys, "oracle", sq12_file)
        assert code == 0
        lengths = [int(tok) for tok in out.split()[1].split(",")]
        assert lengths == list(range(3, 13))

    def test_graph_too_large(self, capsys, tmp_path):
        _, out, _ = run(capsys, "gen", "square-cycle", "22")
        f = tmp_path / "sq22.graph"
        f.write_text(out)
        code, _, err = run(capsys, "oracle", str(f))
        assert code == 1 and "limit" in err

    @pytest.mark.parametrize("argv", [
        ["oracle", "{f}"], ["find-subtree", "{f}", "100", "5", "--oracle"],
    ], ids=["oracle", "find-subtree"])
    def test_tree_table_too_large(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, "gen", "random-tree", "5000")
        assert code == 0
        f = tmp_path / "big.tree"
        f.write_text(out)
        code, out, err = run(capsys, *(arg.format(f=f) for arg in argv))
        assert (code, out) == (1, "")
        assert err == "error: oracle table 5000 * 24769 exceeds 100000000\n"

    def test_json(self, capsys, sq12_file):
        code, out, _ = run(capsys, "oracle", sq12_file, "--k", "7", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["outcome"] == "found"
        assert 7 in report["payload"]["lengths"]


class TestParser:
    def test_no_arguments(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
