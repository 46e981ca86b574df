import ast
import hashlib
import io
import json
import multiprocessing
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

import reedcheck as rc
from reedcheck import cli
from reedcheck.cli import main

C5_G6 = rc.graph_to_graph6(rc.Graph.cycle(5))
C6_G6 = rc.graph_to_graph6(rc.Graph.cycle(6))
K5_G6 = rc.graph_to_graph6(rc.Graph.complete(5))
P4_G6 = rc.graph_to_graph6(rc.Graph.path(4))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ndjson(out):
    return [json.loads(line) for line in out.splitlines()]


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "invariants", C5_G6, K5_G6, P4_G6)
    assert code == 0
    rows = ndjson(out)
    assert [r["slack"] for r in rows] == [0, 0, 1]
    assert rows[0] == {
        "graph6": C5_G6, "n": 5, "m": 5, "delta": 2, "omega": 2,
        "chi": 3, "alpha": 2, "reed_bound": 3, "slack": 0,
    }


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", C6_G6, C5_G6)
    assert code == 0
    rows = ndjson(out)
    assert rows[0]["member"] is False
    assert rows[0]["witness"] == {"pattern": "P5", "vertices": [0, 1, 2, 3, 4]}
    assert rows[1]["member"] is True


def test_classify_named_families(capsys):
    code, out, _ = run(capsys, "classify", "--family", "3k1", rc.graph_to_graph6(rc.Graph.complete(4)))
    assert code == 0
    assert ndjson(out)[0]["member"] is True


def test_classify_forbid_custom_pattern(capsys):
    # forbidding K2 keeps only edgeless graphs
    code, out, _ = run(capsys, "classify", "--forbid", "A_", "--", C5_G6)
    assert code == 0
    row = ndjson(out)[0]
    assert row["member"] is False and row["witness"]["pattern"] == "A_"


def test_family_and_forbid_are_exclusive(capsys):
    code, _, err = run(capsys, "classify", "--family", "3k1", "--forbid", "A_", "--", C5_G6)
    assert code == 2
    assert "mutually exclusive" in err


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "p5-flagc", "--n-max", "5")
    assert code == 0
    report = ndjson(out)[0]
    assert report["examined"] == 53
    assert report["violation_count"] == 0
    assert report["per_n"]["5"]["members"] == 32


def test_sweep_rejects_out_of_range_n(capsys):
    code, _, err = run(capsys, "sweep", "--n-max", "99")
    assert code == 2
    assert "--n-max" in err


def test_sweep_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--family", "nope"])
    assert err.value.code == 2


def test_sweep_source_file(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(f">>graph6<<\n{C5_G6}\n{C6_G6}\n{K5_G6}\n")
    code, out, _ = run(capsys, "sweep", "--source", str(src))
    assert code == 0
    report = ndjson(out)[0]
    assert report["examined"] == 3
    assert report["members"] == 2  # C6 contains an induced P5


def test_source_reads_a_graph_that_shares_the_header_line(capsys, tmp_path):
    # networkx writes the header in front of the graph, on the same line
    three, one = tmp_path / "three.g6", tmp_path / "one.g6"
    with open(three, "wb") as handle:
        for i, g in enumerate((nx.cycle_graph(5), nx.path_graph(4), nx.complete_graph(3))):
            nx.write_graph6(g, handle, header=i == 0)
    with open(one, "wb") as handle:
        nx.write_graph6(nx.cycle_graph(5), handle)
    assert one.read_text() == f">>graph6<<{C5_G6}\n"
    code, out, _ = run(capsys, "sweep", "--source", str(three))
    assert code == 0
    report = ndjson(out)[0]
    assert (report["examined"], report["skipped_lines"]) == (3, 0)
    assert sorted(report["per_n"]) == ["3", "4", "5"]
    code, out, _ = run(capsys, "invariants", "--source", str(one))
    assert code == 0
    assert [row["graph6"] for row in ndjson(out)] == [C5_G6]


def test_source_rows_carry_bare_codes(capsys, tmp_path):
    # rows pass the --source text on without encoding it again: a networkx
    # file with CRLF line endings must still give each graph's bare code
    graphs = (nx.cycle_graph(5), nx.path_graph(4), nx.complete_graph(3), nx.empty_graph(1))
    src = tmp_path / "crlf.g6"
    src.write_bytes(b"".join(nx.to_graph6_bytes(g, header=i == 0).replace(b"\n", b"\r\n")
                             for i, g in enumerate(graphs)))
    assert src.read_bytes().startswith(b">>graph6<<Dhc\r\n")
    code, out, _ = run(capsys, "invariants", "--source", str(src))
    assert code == 0
    assert [row["graph6"] for row in ndjson(out)] == [
        rc.graph_to_graph6(rc.Graph.from_edges(g.number_of_nodes(), g.edges())) for g in graphs]


def test_sweep_source_lenient_counts_skips(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text(f"{C5_G6}\né\n!!bad\n{K5_G6}\n", encoding="utf-8")
    code, out, _ = run(capsys, "sweep", "--source", str(src), "--lenient")
    assert code == 0
    assert ndjson(out)[0]["skipped_lines"] == 2
    code, _, err = run(capsys, "sweep", "--source", str(src), "--strict")
    assert code == 2
    assert "line 2" in err


def test_sweep_workers_byte_identical(capsys, monkeypatch):
    monkeypatch.setattr(rc.corpus, "_TASK_SIZE", 32)  # more than one task: a real pool
    outputs = []
    for workers in ("1", "2", "8"):
        code, out, _ = run(capsys, "sweep", "--n-max", "5", "--workers", workers)
        assert code == 0
        row = ndjson(out)[0]
        row.pop("wall_time_s")
        outputs.append(json.dumps(row, sort_keys=True))
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_lines_under_a_real_pool(capsys, tmp_path, graphs_by_n, monkeypatch):
    # a pool reads the stream on its task-feeder thread, and re-raises a
    # decoding error from there in a worker: the error must still name the
    # line; the first two tasks, 64 lines, are read before the pool starts
    monkeypatch.setattr(rc.corpus, "_TASK_SIZE", 32)
    lines = [rc.graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]]
    lines[149:149] = ["!bad\n"]
    family = rc.FAMILIES["p5-flagc"]
    messages = []
    for workers in (1, 2):
        with pytest.raises(rc.Graph6Error) as err:
            rc.sweep_stream(family, lines, workers=workers)
        messages.append(str(err.value))
    assert messages[0].startswith("line 150: ")
    assert messages[1] == messages[0]
    src = tmp_path / "graphs.g6"
    src.write_text("".join(lines))
    code, _, err = run(capsys, "sweep", "--source", str(src), "--workers", "2")
    assert code == 2
    assert err.startswith("error: line 150: ")
    serial, pooled = (rc.sweep_stream(family, lines, strict=False, audit=True, workers=workers)
                      for workers in (1, 2))
    assert pooled.skipped_lines == serial.skipped_lines == 1
    pooled.wall_time_s = serial.wall_time_s
    assert pooled == serial


@pytest.mark.parametrize("argv", [("--n-max", "7"), ("--source", "graphs.g6")])
def test_a_pool_that_cannot_start_is_an_error_not_a_violation(capsys, tmp_path, graphs_by_n,
                                                              monkeypatch, argv):
    # exit code 1 means violation certificates; an OS error is exit 2, and
    # not an unreadable --source
    def no_pool(processes):
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(rc.corpus.os, "cpu_count", lambda: 2)
    monkeypatch.chdir(tmp_path)
    Path("graphs.g6").write_text("".join(
        rc.graph_to_graph6(g) + "\n" for n in range(8) for g in graphs_by_n[n]))
    code, out, err = run(capsys, "sweep", *argv, "--workers", "2")
    assert (code, out, err) == (2, "", "error: [Errno 11] Resource temporarily unavailable\n")


@pytest.mark.parametrize("argv", [("sweep",), ("sweep", "--workers", "2"), ("invariants",)])
def test_a_missing_source_cannot_be_read(capsys, tmp_path, argv):
    missing = tmp_path / "missing.g6"
    code, out, err = run(capsys, *argv, "--source", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


def test_bad_workers_is_a_usage_error(capsys):
    code, _, err = run(capsys, "sweep", "--n-max", "4", "--workers", "-5")
    assert code == 2
    assert "--workers" in err


def test_audit_size_limit_names_the_graph(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Dhc\nJ~~~~~~~~~_\n")
    code, _, err = run(capsys, "sweep", "--source", str(src), "--audit")
    assert code == 2
    assert "J~~~~~~~~~_" in err
    code, _, err = run(capsys, "audit", "--source", str(src))
    assert code == 2
    assert "J~~~~~~~~~_" in err


def test_audit_command(capsys):
    code, out, _ = run(capsys, "audit", C5_G6)
    assert code == 0
    row = ndjson(out)[0]
    assert row["member"] is True
    assert row["counters"]["S2"]["holds"] >= 1
    assert row["violations"] == []


def test_audit_violations_on_non_member_keep_exit_zero(capsys):
    code, out, _ = run(capsys, "audit", C6_G6)
    row = ndjson(out)[0]
    assert row["member"] is False
    assert code == 0


def test_audit_violations_on_member_flip_exit_code(capsys):
    # against a custom family that the violating host does belong to,
    # the same violations make the run fail
    code, out, _ = run(capsys, "audit", "--forbid", "D~{", "--", "E@V_")
    row = ndjson(out)[0]
    assert row["member"] is True
    assert len(row["violations"]) >= 1
    assert code == 1


def test_audit_certificate_replay_round_trip(capsys):
    host = "E@V_"
    code, out, _ = run(capsys, "audit", host)
    assert code == 0
    row = ndjson(out)[0]
    statuses = {(v["statement"], tuple(v["tuple"]), v["u"]): v["status"]
                for v in row["violations"]}
    for cert in row["violations"]:
        replayed = rc.replay_finding(cert)
        assert statuses[(cert["statement"], tuple(cert["tuple"]), cert["u"])] == replayed.status


def test_audit_source_output_is_pinned(capsys, tmp_path, graphs_by_n):
    # every byte of the audit of all 209 graphs with n <= 6: counters,
    # violated certificates and their order
    src = tmp_path / "graphs.g6"
    src.write_text("".join(
        rc.graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]))
    code, out, _ = run(capsys, "audit", "--source", str(src))
    assert code == 0
    rows = ndjson(out)
    assert len(rows) == 209
    assert sum(len(row["violations"]) for row in rows) == 8
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "05aa6df5c278a3d531fe8dfda0025a0337c8f104a7e5aae5049e9b647a3abb97")


def _audit_source(capsys, tmp_path, lines):
    src = tmp_path / "graphs.g6"
    src.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run(capsys, "audit", "--source", str(src))
    assert code == 0
    return out


def test_audit_source_output_is_pinned_at_n7(capsys, tmp_path, graphs_by_n):
    # all 1,044 classes with n = 7, audited on every canonical optimal coloring
    out = _audit_source(capsys, tmp_path, [rc.graph_to_graph6(g) for g in graphs_by_n[7]])
    rows = ndjson(out)
    assert len(rows) == 1044
    assert sum(len(row["violations"]) for row in rows) == 296
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a0f6e66927387f5fa8f9bc4a85909cea04b4dfbe7bf28b92ae391a06a0ce337a")


def test_audit_source_output_is_pinned_on_random_graphs(capsys, tmp_path):
    # 40 seeded G(n, p) with n = 8..10, audited on first-fit rotations, so
    # S2 and S3 also run on colorings that use more than chi colors
    rnd = random.Random(2018)
    lines = []
    for i in range(40):
        n = 8 + i % 3
        p = rnd.uniform(0.2, 0.9)
        lines.append(rc.graph_to_graph6(rc.Graph.from_edges(
            n, [(v, w) for v in range(n) for w in range(v + 1, n) if rnd.random() < p])))
    out = _audit_source(capsys, tmp_path, lines)
    rows = ndjson(out)
    assert sum(row["member"] for row in rows) == 17
    assert sum(row["counters"]["S2"]["violated"] for row in rows) == 28
    assert sum(row["counters"]["S3"]["holds"] for row in rows) == 2
    assert sum(row["counters"]["S3"]["violated"] for row in rows) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d495965092510cb12268e623fb212fb606f775700812f9b9f7d83a6695774de8")


def test_invariants_source_output_is_pinned_on_random_graphs(capsys, tmp_path):
    # every byte of 300 seeded G(n, p) bundles with n = 12..20, the sizes the
    # invariants benchmark runs, against the clique and DSATUR solvers
    rnd = random.Random(2027)
    lines = []
    for i in range(300):
        n = 12 + i % 9
        p = rnd.uniform(0.2, 0.9)
        lines.append(rc.graph_to_graph6(rc.Graph.from_edges(
            n, [(v, w) for v in range(n) for w in range(v + 1, n) if rnd.random() < p])))
    src = tmp_path / "graphs.g6"
    src.write_text("".join(line + "\n" for line in lines))
    code, out, _ = run(capsys, "invariants", "--source", str(src))
    assert code == 0
    rows = ndjson(out)
    assert [row["graph6"] for row in rows] == lines
    assert sum(row["chi"] > row["omega"] for row in rows) == 48
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7cd73e3436c0a6b80117dff28800fe69fb0b5ab1078203c9a74baed0d553bb14")


def test_patterns_command(capsys):
    code, out, _ = run(capsys, "patterns")
    assert code == 0
    rows = {r["name"]: r for r in ndjson(out)}
    assert rows["FlagC"]["n"] == 5 and rows["FlagC"]["m"] == 5
    assert rows["P5"]["n"] == 5 and rows["P5"]["m"] == 4
    flag = rc.graph_from_graph6(rows["Flag"]["graph6"])
    flagc = rc.graph_from_graph6(rows["FlagC"]["graph6"])
    assert rc.complement(flag) == flagc


def test_out_file_and_pretty(capsys, tmp_path):
    out_path = tmp_path / "report.ndjson"
    code, out, _ = run(capsys, "invariants", C5_G6, "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["chi"] == 3
    code, out, _ = run(capsys, "patterns", "--pretty")
    assert code == 0 and "FlagC" in out


def test_pretty_output_is_pinned(capsys):
    cases = [
        (["invariants", "Dhc", "Ch"], [
            "Dhc  n=5 m=5 delta=2 omega=2 chi=3 alpha=2 reed_bound=3 slack=0",
            "Ch  n=4 m=3 delta=2 omega=2 chi=2 alpha=2 reed_bound=3 slack=1",
        ]),
        (["classify", "Dhc", "EhEG"], [
            "Dhc  p5-flagc: member",
            "EhEG  p5-flagc: not a member (induced P5 at [0, 1, 2, 3, 4])",
        ]),
        (["sweep", "--n-max", "5"], [
            "family p5-flagc: examined 53, members 51, violations 0, tight 19 (WALL)",
            "  n=0: examined 1, members 1, tight 0",
            "  n=1: examined 1, members 1, tight 1",
            "  n=2: examined 2, members 2, tight 2",
            "  n=3: examined 4, members 4, tight 3",
            "  n=4: examined 11, members 11, tight 5",
            "  n=5: examined 34, members 32, tight 8",
        ]),
        (["audit", "Dhc", "E@V_"], [
            "Dhc  member=True colorings=5 violated=0  "
            "[I:25, S1:25, S2:30, S3:0, S4:25, CLAIM:25, FINAL:25]",
            "E@V_  member=False colorings=10 violated=4  "
            "[I:60, S1:60, S2:48, S3:0, S4:60, CLAIM:60, FINAL:60]",
        ]),
    ]
    for argv, expected in cases:
        code, out, err = run(capsys, *argv, "--pretty")
        assert (code, err) == (0, ""), argv
        # the sweep's wall time differs from run to run
        assert re.sub(r"\(\d+\.\d\ds\)$", "(WALL)", out, flags=re.M).splitlines() == expected


def test_no_input_is_usage_error(capsys, tmp_path):
    empty, header = tmp_path / "empty.g6", tmp_path / "header.g6"
    empty.write_text("")
    header.write_text(">>graph6<<\n")
    for argv in (["invariants"], ["invariants", "--source", str(empty)],
                 ["classify", "--source", str(header)], ["audit", "--source", str(header)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "no input graphs" in err


def test_unwritable_out_is_a_usage_error(capsys, tmp_path, monkeypatch):
    missing = tmp_path / "missing" / "x"

    def never(*args, **kwargs):
        raise AssertionError("the output is opened before the sweep starts")

    monkeypatch.setattr(cli, "sweep", never)
    for argv in (["invariants", "Dhc"], ["sweep", "--n-max", "3"]):
        code, out, err = run(capsys, *argv, "--out", str(missing))
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot write {missing}: ")


def test_source_commands_write_each_row_as_they_read(tmp_path, graphs_by_n, monkeypatch):
    src = tmp_path / "graphs.g6"
    src.write_text("".join(rc.graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]))
    pulled = [0]

    def counted_lines(lines):
        for line in lines:
            pulled[0] += 1
            yield line

    monkeypatch.setattr(cli, "Graph6Stream",
                        lambda lines, strict: rc.Graph6Stream(counted_lines(lines), strict=strict))
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    bundles = []

    def counted(g, _bundle=cli.invariant_bundle):
        # one line is read ahead of the bundle, and every earlier row is written
        assert pulled[0] - len(bundles) <= 1
        assert stdout.getvalue().count("\n") == len(bundles)
        bundles.append(g)
        return _bundle(g)

    monkeypatch.setattr(cli, "invariant_bundle", counted)
    assert main(["invariants", "--source", str(src)]) == 0
    assert len(bundles) == pulled[0] == len(stdout.getvalue().splitlines()) == 209


def test_strict_bad_line_keeps_the_rows_before_it(capsys, tmp_path, graphs_by_n):
    lines = [rc.graph_to_graph6(g) + "\n" for n in range(7) for g in graphs_by_n[n]]
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text("".join(lines[:149]))
    bad.write_text("".join(lines[:149] + ["!bad\n"] + lines[149:]))
    code, before, _ = run(capsys, "classify", "--source", str(good))
    assert code == 0
    code, out, err = run(capsys, "classify", "--source", str(bad))
    assert code == 2
    assert err.startswith("error: line 150: ")
    assert len(out.splitlines()) == 149
    assert out == before


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_reader_that_stops_early_ends_the_run_by_sigpipe(tmp_path, graphs_by_n):
    src = tmp_path / "graphs.g6"
    src.write_text("".join(rc.graph_to_graph6(g) + "\n" for n in range(9) for g in graphs_by_n[n]))
    env = {**os.environ, "PYTHONPATH": str(Path(rc.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "reedcheck.cli", "classify", "--source", str(src)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert json.loads(proc.stdout.readline())["graph6"] == "?"
    proc.stdout.close()
    assert proc.wait(timeout=300) == -signal.SIGPIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_lenient_output_equals_the_file_without_its_bad_lines(capsys, tmp_path):
    good, bad = tmp_path / "good.g6", tmp_path / "bad.g6"
    good.write_text(f"{C5_G6}\n{P4_G6}\n{K5_G6}\n", encoding="utf-8")
    bad.write_text(f"!!bad\n{C5_G6}\né\n{P4_G6}\n\n{K5_G6}\nD~\n", encoding="utf-8")
    for command in ("invariants", "classify", "audit"):
        expected = run(capsys, command, "--source", str(good))
        assert expected[1].count("\n") == 3
        assert run(capsys, command, "--source", str(bad), "--lenient") == expected, command
        assert run(capsys, command, "--source", str(bad))[0] == 2, command


def test_bad_graph6_argument(capsys):
    code, _, err = run(capsys, "invariants", "!!nope")
    assert code == 2


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
            for line in block.splitlines() if line.startswith("reedcheck ")]


def test_readme_cli_block_runs(capsys):
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "invariants", "classify", "sweep", "sweep", "audit", "patterns"]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "classify":
            [row] = ndjson(out)
            assert (row["graph6"], row["member"], row["witness"]["pattern"]) == (
                "EhEG", False, "P5")


def test_package_imports_only_the_standard_library():
    # the README promises no runtime dependencies beyond the standard library
    package = Path(rc.__file__).parent
    imported = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported and imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
