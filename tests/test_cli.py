"""Command-line behavior: exit codes, JSON output, streaming corpora."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathramsey
from pathramsey import cli, goodness
from pathramsey.graphs import (
    Graph,
    colored_to_json,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    orientation_to_json,
    path_graph,
    star_graph,
    unoriented,
)
from conftest import MALFORMED_HYPERGRAPHS, StoppedClock, dual_of_cyclic_host, grid_coloring


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


class TestTargets:
    def test_parse_target_shapes(self):
        assert cli.parse_target("P5") == path_graph(5)
        assert cli.parse_target("s4") == star_graph(4)
        assert cli.parse_target("K3") == complete_graph(3)
        with pytest.raises(Exception):
            cli.parse_target("Q5")

    def test_colors_replication(self):
        assert cli.parse_targets("P4", 3) == [path_graph(4)] * 3
        with pytest.raises(Exception):
            cli.parse_targets("P4,P5", 3)


class TestOrient:
    def test_clique_passes_with_no_marks(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(graph6_encode(complete_graph(4)) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p5", "--input", str(src)])
        assert code == 0
        assert rows[0]["passed"] is True
        assert all(orient == 0 for _, _, _, orient in rows[0]["orientation"]["edges"])

    def test_forbidden_path_is_an_input_error(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text(graph6_encode(path_graph(5)) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p5", "--input", str(src)])
        assert code == 3
        assert len(rows[0]["witness_path"]) == 5

    @pytest.mark.parametrize("line", ["C?", "?"], ids=["four-isolated", "empty"])
    def test_disconnected_graph_is_an_input_error(self, capsys, tmp_path, line):
        src = tmp_path / "in.g6"
        src.write_text(line + "\n")
        code, rows = run(capsys, ["orient", "--family", "p5", "--input", str(src)])
        assert code == 3
        assert "connected" in rows[0]["error"]

    def test_no_passing_strategy_is_a_violation(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            cli.orientation, "check_nst_bounded",
            lambda *args: cli.orientation.BoundVerdict(False),
        )
        src = tmp_path / "in.g6"
        src.write_text(graph6_encode(complete_graph(3)) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p6", "--input", str(src)])
        assert code == 1
        assert "'3-cycle'" in rows[0]["error"]

    def test_debug_log_reports_case_and_strategy(self):
        env = {**os.environ, "RAMSEY_ORIENT_LOG": "debug",
               "PYTHONPATH": str(Path(pathramsey.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "orient", "--family", "p7"],
            input=graph6_encode(path_graph(5)) + "\n", env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == [
            "DEBUG pathramsey.orientation: "
            "P7-free orientation: n=5, case 'tree', strategy 'tree from 0'"
        ]

    @pytest.mark.parametrize("g, case, strategy", [
        (path_graph(5), "tree", "tree from 0"),
        (cycle_graph(6), "long cycle", "unoriented"),
        (Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),  # K2,3
         "4-cycle, pairing", "structure+double source"),
    ], ids=["tree", "long-cycle", "four-cycle-pairing"])
    def test_record_names_case_and_strategy(self, capsys, tmp_path, g, case, strategy):
        src = tmp_path / "in.g6"
        src.write_text(graph6_encode(g) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p7", "--input", str(src)])
        assert code == 0 and rows[0]["passed"]
        assert (rows[0]["case"], rows[0]["strategy"]) == (case, strategy)

    def test_streaming_many_graphs(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        lines = [graph6_encode(complete_graph(k)) for k in (2, 3, 4)]
        src.write_text("\n".join(lines) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p6", "--input", str(src)])
        assert code == 0 and len(rows) == 3
        assert all(r["passed"] for r in rows)

    def test_five_cycle_m2_figure(self, capsys, tmp_path):
        # 5-cycle with a second two-edge path between a and c and pendants:
        # exactly one oriented edge toward each midpoint plus the pendants
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (0, 5), (2, 5),
                 (0, 6), (0, 7), (2, 8)]
        src = tmp_path / "in.g6"
        src.write_text(graph6_encode(Graph.from_edges(9, edges)) + "\n")
        code, rows = run(capsys, ["orient", "--family", "p7", "--input", str(src)])
        assert code == 0 and rows[0]["passed"]
        oriented = [e for e in rows[0]["orientation"]["edges"] if e[3] != 0]
        assert [e[:2] for e in oriented if e[:2] in ([0, 1], [2, 5])] == [[0, 1], [2, 5]]


class TestVerify:
    def test_ramsey_pass(self, capsys):
        code, rows = run(capsys, ["verify", "ramsey", "--N", "6", "--targets", "P5,P5"])
        assert code == 0
        assert rows[0]["outcome"] == "is_ramsey"
        assert rows[0]["critical_colorings"] == 4

    def test_ramsey_k3_k3_counts_the_pentagon(self, capsys):
        # the one 2-coloring of K5 with no monochromatic triangle: two 5-cycles
        code, rows = run(capsys, ["verify", "ramsey", "--N", "6", "--targets", "K3,K3"])
        assert code == 0 and rows[0]["outcome"] == "is_ramsey"
        assert rows[0]["critical_colorings"] == 1

    def test_ramsey_three_path_colors_count_critical_colorings(self, capsys):
        code, rows = run(capsys, ["verify", "ramsey", "--N", "6", "--targets", "P4",
                                  "--colors", "3"])
        assert code == 0 and rows[0]["outcome"] == "is_ramsey"
        assert rows[0]["critical_colorings"] == 12

    def test_ramsey_failure_exit(self, capsys):
        code, rows = run(capsys, ["verify", "ramsey", "--N", "5", "--targets", "P5,P5"])
        assert code == 1
        assert rows[0]["outcome"] == "too_small"

    @pytest.mark.parametrize("N, outcome, exit_code", [(1, "is_ramsey", 0), (2, "not_tight", 1)])
    def test_ramsey_single_vertex_paths(self, capsys, N, outcome, exit_code):
        code, rows = run(capsys, ["verify", "ramsey", "--N", str(N), "--targets", "P1,P1"])
        assert code == exit_code
        assert rows[0]["outcome"] == outcome

    def test_ramsey_budget_indeterminate(self, capsys):
        code, rows = run(
            capsys,
            ["verify", "ramsey", "--N", "9", "--targets", "P7,P7",
             "--budget-colorings", "1000"],
        )
        assert code == 2
        assert rows[0]["outcome"] == "indeterminate"

    def test_ramsey_time_budget_indeterminate(self, capsys, monkeypatch):
        monkeypatch.setattr(goodness, "time", StoppedClock(50))  # out of time mid-probe
        code, rows = run(
            capsys,
            ["verify", "ramsey", "--N", "9", "--targets", "P7,P7", "--budget-seconds", "5"],
        )
        assert code == 2
        assert rows[0]["outcome"] == "indeterminate" and rows[0]["critical_colorings"] is None

    def test_ramsey_time_budget_runs_out_in_the_augmentation(self, capsys, monkeypatch):
        monkeypatch.setattr(goodness, "time", StoppedClock(200))  # the probe reads it 81 times
        code, rows = run(
            capsys,
            ["verify", "ramsey", "--N", "9", "--targets", "P7,P7", "--budget-seconds", "5"],
        )
        assert code == 2
        assert rows[0]["outcome"] == "indeterminate" and rows[0]["critical_colorings"] is None
        assert rows[0]["colorings_checked"] > 81  # states past the probe's

    def test_info_log_reports_each_search(self):
        env = {**os.environ, "RAMSEY_ORIENT_LOG": "info",
               "PYTHONPATH": str(Path(pathramsey.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "verify", "ramsey", "--N", "5",
             "--targets", "P3,P3"], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1  # R(P3, P3) = 3, so N = 5 is not tight
        lines = proc.stderr.splitlines()
        assert [line.split(":")[1] for line in lines] == [
            f" augmentation level K{n}" for n in range(1, 6)]
        assert lines[-1].endswith(": 0 colorings kept, 0 up to isomorphism, 15 states")
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "verify", "goodness", "--targets", "P5,P5"],
            input=graph6_encode(complete_graph(6)) + "\n", env=env,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        [line] = proc.stderr.splitlines()
        assert line.startswith("INFO pathramsey.goodness: coloring search on 6 vertices: all hit True")

    def test_info_log_counts_the_catalog_and_stuck_parents(self):
        env = {**os.environ, "RAMSEY_ORIENT_LOG": "info",
               "PYTHONPATH": str(Path(pathramsey.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "pathramsey.cli", "verify", "ramsey", "--N", "6",
             "--targets", "P5,P5"], env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        counts = [re.search(r"K(\d+): catalog offered (\d+), refined (\d+), (\d+) stuck parents: "
                            r"(\d+) colorings kept", line).groups() for line in proc.stderr.splitlines()]
        assert [int(c[0]) for c in counts] == list(range(1, 7))
        assert all(int(offered) >= int(kept) for _, offered, _, _, kept in counts)
        # a K5 coloring with a vertex that closes a P5 in both colors: no child
        assert counts[-1][1:] == ("0", "0", "1", "0")

    def test_goodness(self, capsys, tmp_path):
        src = tmp_path / "hosts.g6"
        src.write_text(graph6_encode(complete_graph(6)) + "\n")
        code, rows = run(
            capsys,
            ["verify", "goodness", "--targets", "P5", "--colors", "2",
             "--input", str(src)],
        )
        assert code == 0 and rows[0]["verdict"] == "all_colorings_hit"

    def test_pipeline(self, capsys, tmp_path):
        src = tmp_path / "host.json"
        src.write_text(colored_to_json(grid_coloring(4, 4)))
        code, rows = run(capsys, ["verify", "pipeline", "--input", str(src)])
        assert code == 0
        assert rows[0]["proper"] is True and rows[0]["colors_used"] == 4

    def test_lemma(self, capsys, tmp_path):
        src = tmp_path / "orientation.json"
        src.write_text(orientation_to_json(unoriented(grid_coloring(4, 4))))
        code, rows = run(
            capsys,
            ["verify", "lemma", "--n", "5", "--s", "1", "--t", "4",
             "--input", str(src)],
        )
        assert code == 0 and rows[0]["status"] == "pass"
        code, rows = run(
            capsys,
            ["verify", "lemma", "--n", "8", "--s", "1", "--t", "4",
             "--input", str(src)],
        )
        assert code == 1 and rows[0]["status"] == "hypothesis_failed"

    def test_chi_index(self, capsys, tmp_path):
        src = tmp_path / "hypergraph.json"
        doc = {"v": 9, "edges": [
            sorted({r, 3 + c, 6 + (r + c) % 3}) for r in range(3) for c in range(3)
        ]}
        src.write_text(json.dumps(doc))
        code, rows = run(capsys, ["verify", "chi-index", "--input", str(src)])
        assert code == 0 and rows[0]["chi_index"] == 3

    def test_chi_index_time_budget_is_indeterminate(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "dual.json"
        src.write_text(dual_of_cyclic_host(17, (5, 8, 13)).to_json())
        monkeypatch.setattr(goodness, "time", StoppedClock(1))  # out of time at the first check
        argv = ["verify", "chi-index", "--input", str(src), "--budget-seconds", "0.05"]
        code, rows = run(capsys, argv)
        assert code == 2 and rows[0]["indeterminate"] and rows[0]["chi_index"] is None

    def test_chi_index_of_many_disjoint_hyperedges(self, capsys, tmp_path):
        # one vertex of the intersection graph per hyperedge, far deeper than
        # the interpreter's recursion limit
        src = tmp_path / "disjoint.json"
        src.write_text(json.dumps({"v": 3600, "edges": [[3 * i, 3 * i + 1, 3 * i + 2]
                                                        for i in range(1200)]}))
        code, rows = run(capsys, ["verify", "chi-index", "--input", str(src)])
        assert code == 0 and rows[0]["chi_index"] == 1

    @pytest.mark.parametrize("text", MALFORMED_HYPERGRAPHS.values(), ids=MALFORMED_HYPERGRAPHS.keys())
    def test_chi_index_malformed_document_is_input_error(self, capsys, tmp_path, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        code = cli.main(["verify", "chi-index", "--input", str(src)])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{nope")
        code = cli.main(["verify", "pipeline", "--input", str(src)])
        capsys.readouterr()
        assert code == 3

    def test_malformed_edge_row_is_input_error(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text('{"n": 2, "k": 2, "edges": [[0, 1, 0]]}')
        code = cli.main(["verify", "pipeline", "--input", str(src)])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])

    @pytest.mark.parametrize("n", ["x", 4.7], ids=["string-n", "float-n"])
    def test_non_integer_order_is_input_error(self, capsys, tmp_path, n):
        # a valid 4-vertex pipeline input apart from its vertex count
        doc = json.loads(colored_to_json(grid_coloring(2, 2)))
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({**doc, "n": n}))
        code = cli.main(["verify", "pipeline", "--input", str(src)])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])

    def test_ramsey_rejects_nonpositive_order(self, capsys):
        code = cli.main(["verify", "ramsey", "--N", "0", "--targets", "P3,P3"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "error" in json.loads(captured.err.splitlines()[-1])

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_nonpositive_worker_count_is_input_error(self, capsys, tmp_path, workers):
        src = tmp_path / "host.g6"
        src.write_text(graph6_encode(complete_graph(5)) + "\n")
        for argv in (["verify", "ramsey", "--N", "5", "--targets", "P4,P4"],
                     ["verify", "goodness", "--targets", "P4,P4", "--input", str(src)]):
            code = cli.main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert "worker count" in json.loads(captured.err.splitlines()[-1])["error"]

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_worker_count_is_checked_before_the_input_is_read(self, capsys, tmp_path, workers):
        empty, missing = tmp_path / "empty.g6", tmp_path / "missing.g6"
        empty.write_text("")
        for src in (empty, missing):
            argv = ["verify", "goodness", "--targets", "P4,P4", "--input", str(src)]
            code = cli.main(argv + ["--workers", workers])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert "worker count" in json.loads(captured.err.splitlines()[-1])["error"]

    def test_chi_index_takes_no_worker_count(self, capsys, tmp_path):
        src = tmp_path / "hypergraph.json"
        src.write_text(json.dumps({"v": 3, "edges": [[0, 1, 2]]}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "chi-index", "--input", str(src), "--workers", "0"])
        assert exc.value.code == 3  # a usage error is an input error
        assert "unrecognized arguments: --workers 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "ramsey", "--N", "x", "--targets", "P3,P3"],
        ["verify", "ramsey", "--N", "5"],
        ["verify", "nope"],
    ], ids=["non-integer-N", "missing-targets", "unknown-subcommand"])
    def test_usage_error_is_input_error(self, capsys, argv):
        # not 2, which means Indeterminate
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "ramsey", "--help"])
        assert exc.value.code == 0
        assert "--workers" in capsys.readouterr().out

    def test_nan_time_budget_is_input_error(self, capsys, tmp_path):
        # NaN compares false both ways, so it would pass a "<= 0" test and never run out
        src = tmp_path / "hypergraph.json"
        src.write_text(json.dumps({"v": 3, "edges": [[0, 1, 2]]}))
        for argv in (["verify", "ramsey", "--N", "6", "--targets", "K3,K3"],
                     ["verify", "chi-index", "--input", str(src)]):
            code = cli.main(argv + ["--budget-seconds", "nan"])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert "time budget" in json.loads(captured.err.splitlines()[-1])["error"]

    @pytest.mark.parametrize("argv", [
        ["orient", "--family", "p5"],
        ["verify", "goodness", "--targets", "P5", "--colors", "2"],
    ])
    def test_graph6_with_trailing_characters_is_input_error(self, capsys, tmp_path, argv):
        src = tmp_path / "corpus.g6"
        src.write_text(graph6_encode(complete_graph(4)) + "\nDQcGARBAGE\n")
        code = cli.main(argv + ["--input", str(src)])
        assert code == 3
        assert "error" in json.loads(capsys.readouterr().err.splitlines()[-1])


class TestWitness:
    def test_graph6_output(self, capsys):
        code, _ = run(capsys, ["verify", "ramsey", "--N", "6", "--targets", "P5,P5"])
        code = cli.main(["witness", "--N", "10", "--format", "graph6"])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert code == 0
        assert graph6_decode(out).n == 13

    def test_json_round_trips(self, capsys):
        code, rows = run(capsys, ["witness", "--N", "5"])
        assert code == 0
        assert rows[0]["n"] == 5 and rows[0]["k"] == 2

    def test_precondition(self, capsys):
        assert cli.main(["witness", "--N", "3"]) == 3
        capsys.readouterr()

    def test_output_file(self, tmp_path, capsys):
        dst = tmp_path / "out.json"
        assert cli.main(["witness", "--N", "7", "--output", str(dst)]) == 0
        capsys.readouterr()
        assert json.loads(dst.read_text())["n"] == 8
