import csv
import json
import os
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from mewclique import SolveResult, solve, write_weighted_edge_list
from mewclique import cli, solver
from mewclique.cli import BENCH_FIELDS, REPORT_FIELDS, main

from conftest import ROOT, SIX_EDGES, checkout_env, interrupting_workspace
from mewclique import VertexSet, WeightedGraph


@pytest.fixture
def tiny_wedge(tmp_path):
    path = tmp_path / "tiny.wedge"
    path.write_text(write_weighted_edge_list(WeightedGraph(6, SIX_EDGES)))
    return path


@pytest.fixture
def triangle_wedge(tmp_path):
    path = tmp_path / "tri.wedge"
    path.write_text("p wedge 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n")
    return path


class TestSolve:
    def test_json_schema_and_values(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge), "--pls-iters", "0",
                     "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == list(REPORT_FIELDS)
        expected = solve(WeightedGraph(6, SIX_EDGES))
        assert report["instance"] == "tiny"
        assert report["n"] == 6
        assert report["density"] == 0.53
        assert report["lb"] == 0
        assert report["best_weight"] == 19
        assert report["clique"] == [4, 5, 6]
        assert report["iterations"] == expected.iterations
        assert report["proven_optimal"] is True
        for key in ("pls_time", "solve_time", "total_time"):
            assert isinstance(report[key], float) and report[key] >= 0

    def test_csv_schema(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge), "--pls-iters", "0",
                     "--output", "csv"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == list(REPORT_FIELDS)
        row = dict(zip(rows[0], rows[1]))
        assert row["best_weight"] == "19"
        assert row["clique"] == "4 5 6"
        assert row["proven_optimal"] == "true"
        float(row["solve_time"])  # parses

    def test_text_output(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge)]) == 0  # PLS on by default
        out = capsys.readouterr().out
        assert "best_weight: 19" in out
        assert "proven_optimal: true" in out

    def test_pls_warm_start_reports_lb(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge), "--pls-iters", "2",
                     "--seed", "7", "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        from mewclique import PlsConfig, pls, set_weight
        g = WeightedGraph(6, SIX_EDGES)
        expected_lb = set_weight(g, pls(g, PlsConfig(iterations=2, seed=7)))
        assert report["lb"] == expected_lb
        assert report["best_weight"] == 19

    def test_pls_iters_zero_is_no_pls(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge), "--pls-iters", "0",
                     "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lb"] == 0
        assert report["pls_time"] == 0.0
        with pytest.raises(SystemExit) as exc:  # one spelling: no alias
            main(["solve", str(tiny_wedge), "--no-pls"])
        assert exc.value.code == 2

    def test_negative_pls_iters(self, tiny_wedge, capsys):
        assert main(["solve", str(tiny_wedge), "--pls-iters", "-1"]) == 1
        assert "iterations" in capsys.readouterr().err

    def test_dimacs_auto_weight(self, data_dir, capsys):
        path = data_dir / "johnson8-2-4.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--pls-iters", "0", "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_weight"] == 192
        assert report["proven_optimal"] is True

    def test_python_dash_m_from_checkout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mewclique", "solve",
             "tests/data/johnson8-2-4.clq", "--dimacs-auto-weight",
             "--output", "json"],
            cwd=ROOT, env=checkout_env(), capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["best_weight"] == 192

    def test_single_vertex_instance(self, tmp_path, capsys):
        path = tmp_path / "empty.wedge"
        path.write_text("p wedge 1 0\n")
        assert main(["solve", str(path), "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_weight"] == 0

    def test_published_optimum_with_default_warm_start(self, data_dir, capsys):
        path = data_dir / "brock200_2.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--output", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["best_weight"] == 6542
        assert report["lb"] >= 1  # warm start produced something
        assert report["proven_optimal"] is True

    def test_node_limit_exit_code(self, data_dir, capsys):
        path = data_dir / "brock200_2.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--pls-iters", "0", "--node-limit", "5",
                     "--output", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["proven_optimal"] is False

    def test_ctrl_c_exit_code(self, data_dir, monkeypatch, capsys):
        # Ctrl-C mid-search reports the incumbent, unproven, as a limit does
        monkeypatch.setattr(solver, "ColoringWorkspace",
                            interrupting_workspace(50))
        path = data_dir / "brock200_2.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--pls-iters", "0", "--output", "json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["proven_optimal"] is False and report["best_weight"] > 0

    def test_ctrl_c_in_warm_start(self, data_dir, monkeypatch, capsys):
        # Ctrl-C in PLS exits as one in the search does, with no traceback,
        # and the search never starts
        def interrupted(g, cfg):
            raise KeyboardInterrupt

        def no_search(*args):
            raise AssertionError("the search ran after Ctrl-C")

        monkeypatch.setattr(cli, "pls", interrupted)
        monkeypatch.setattr(cli, "solve", no_search)
        path = data_dir / "johnson8-2-4.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--output", "json"]) == 2
        out = capsys.readouterr()
        report = json.loads(out.out)
        assert list(report) == list(REPORT_FIELDS) and out.err == ""
        assert {k: report[k] for k in ("lb", "best_weight", "clique",
                                       "iterations", "proven_optimal")} == {
            "lb": 0, "best_weight": 0, "clique": [], "iterations": 0,
            "proven_optimal": False}
        assert report["solve_time"] == 0
        assert report["total_time"] == report["pls_time"] >= 0

    @pytest.mark.parametrize("suffix, extra", [
        (".clq", []),                                        # plain DIMACS needs a choice
        (".clq", ["--dimacs-auto-weight", "--unit-weights"]),  # but not both
        (".txt", []),                                        # also when sniffed
    ], ids=["extra0", "extra1", "txt"])
    def test_dimacs_weighting_flags_required(self, data_dir, tmp_path, suffix,
                                             extra, capsys):
        path = tmp_path / f"johnson8-2-4{suffix}"
        path.write_text((data_dir / "johnson8-2-4.clq").read_text())
        assert main(["solve", str(path), *extra]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", [".wedge", ".txt", ".clq"])
    def test_weight_flags_rejected_for_wedge(self, tiny_wedge, suffix, capsys):
        path = tiny_wedge.rename(tiny_wedge.with_suffix(suffix))
        for flag in ("--dimacs-auto-weight", "--unit-weights"):
            assert main(["solve", str(path), flag]) == 1
            assert ("error: weighting flags only apply to DIMACS instances"
                    in capsys.readouterr().err)
        assert main(["solve", str(path),
                     "--pls-iters", "0"]) == 0  # needs no flag
        assert "best_weight: 19" in capsys.readouterr().out

    @pytest.mark.parametrize("name, text, flags, weight", [
        ("tri.clq", "p wedge 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n", [], 6),
        ("tri.wedge", "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n",
         ["--unit-weights"], 3),
    ], ids=["tri.clq", "tri.wedge"])
    def test_problem_line_names_the_format(self, tmp_path, name, text, flags,
                                           weight, capsys):
        path = tmp_path / name
        path.write_text(text)
        assert main(["solve", str(path), *flags, "--output", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["best_weight"] == weight

    def test_limits_checked_before_parse_and_warm_start(self, data_dir,
                                                        monkeypatch, capsys):
        def no_warm_start(*args, **kwargs):
            raise AssertionError("PLS ran before the limits were checked")

        monkeypatch.setattr(cli, "pls", no_warm_start)
        path = data_dir / "johnson8-2-4.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--time-limit", "-1"]) == 1
        assert "time_limit" in capsys.readouterr().err

    def test_nan_time_limit_checked_before_parse(self, data_dir, monkeypatch,
                                                 capsys):
        def no_parse(*args, **kwargs):
            raise AssertionError("the instance was read before the limits "
                                 "were checked")

        monkeypatch.setattr(cli, "_load_instance", no_parse)
        path = data_dir / "johnson8-2-4.clq"
        assert main(["solve", str(path), "--dimacs-auto-weight",
                     "--time-limit", "nan"]) == 1
        assert "time_limit" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.clq")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.clq"
        bad.write_text("p edge 2 1\ne 1 5\n")
        assert main(["solve", str(bad), "--unit-weights"]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("name, data, code, err", [
        ("fr.clq", b"c auteur: Fran\xe7ois\np edge 2 1\ne 1 2\n", 0, ""),
        ("fr.clq", b"c Fran\xe7ois\np edge 2 1\ne 1 2 \xe7\n", 1, "line 3"),
        ("none.txt", b"c no problem line\ne 1 2\n", 1, "error:"),
        ("col.txt", b"p col 3 3\n", 1, "line 1"),
    ], ids=["latin1-comment", "byte-outside-comment", "no-p-line", "p-col"])
    def test_instance_bytes_and_sniffing(self, tmp_path, name, data, code, err,
                                         capsys):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["solve", str(path), "--unit-weights"]) == code
        assert err in capsys.readouterr().err

    def test_utf8_comment_in_the_c_locale(self, tmp_path):
        path = tmp_path / "fr.clq"
        path.write_bytes("c auteur: François\np edge 2 1\ne 1 2\n".encode())
        proc = subprocess.run(
            [sys.executable, "-m", "mewclique", "solve", str(path),
             "--unit-weights"],
            env=checkout_env(LC_ALL="C", PYTHONUTF8="0"),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.wedge", tmp_path / "b.wedge"
        for out in (a, b):
            assert main(["gen", "--n", "12", "--density", "0.5",
                         "--seed", "3", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_edge_counts(self, tmp_path):
        empty = tmp_path / "e.wedge"
        main(["gen", "--n", "10", "--density", "0", "--seed", "1",
              "--out", str(empty)])
        assert "p wedge 10 0" in empty.read_text()
        full = tmp_path / "f.wedge"
        main(["gen", "--n", "10", "--density", "1", "--seed", "1",
              "--out", str(full)])
        assert "p wedge 10 45" in full.read_text()

    def test_bad_params(self, tmp_path, capsys):
        assert main(["gen", "--n", "5", "--density", "2",
                     "--out", str(tmp_path / "x.wedge")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def _make_instances(self, tmp_path, count=3):
        paths = []
        for i in range(count):
            p = tmp_path / f"inst{i}.wedge"
            main(["gen", "--n", "12", "--density", "0.5",
                  "--seed", str(i), "--out", str(p)])
            paths.append(p)
        return paths

    def test_manifest_order_and_total(self, tmp_path, capsys):
        paths = self._make_instances(tmp_path)
        manifest = tmp_path / "list.txt"
        manifest.write_text(
            "# tiny instances\n"
            + "\n".join(p.name for p in reversed(paths)) + "\n")
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", "--manifest", str(manifest),
                     "--pls-iters", "0"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == list(BENCH_FIELDS)
        names = [r[0] for r in rows[1:]]
        assert names == ["inst2", "inst1", "inst0", "TOTAL"]

    @pytest.mark.parametrize("data, code", [
        (b"# Fran\xe7ois\ninst0.wedge\n", 0),  # comment bytes are not decoded
        (b"inst0.wedge\xc2\x85\n", 1),          # U+0085 is part of the name
    ], ids=["latin1-comment", "nel-after-entry"])
    def test_manifest_bytes(self, tmp_path, data, code, capsys):
        self._make_instances(tmp_path, count=1)
        manifest = tmp_path / "list.txt"
        manifest.write_bytes(data)
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", "--manifest", str(manifest),
                     "--pls-iters", "0"]) == code
        # split at "\n" only: an error row's name may hold U+0085
        rows = list(csv.DictReader(capsys.readouterr().out.split("\n")))
        assert len(rows) == 2
        assert (rows[0]["error"] == "") == (code == 0)
        assert (rows[0]["best_weight"] != "") == (code == 0)

    def test_error_row_named_by_file_name(self, tmp_path, capsys):
        # a good row is named by its file's stem, an error row by its
        # entry's file name, so the two rows below are told apart
        self._make_instances(tmp_path, count=1)
        manifest = tmp_path / "list.txt"
        manifest.write_bytes(b"inst0.wedge\ninst0.wedge\xc2\x85\n")
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", "--manifest", str(manifest),
                     "--pls-iters", "0"]) == 1
        rows = list(csv.DictReader(capsys.readouterr().out.split("\n")))
        assert [r["instance"] for r in rows] == \
            ["inst0", "inst0.wedge\x85", "TOTAL"]
        assert rows[0]["error"] == "" and rows[1]["error"] != ""

    def test_manifest_utf8_name(self, tmp_path, capsys):
        folder = tmp_path / "donn\u00e9es"
        folder.mkdir()
        self._make_instances(folder, count=1)
        manifest = tmp_path / "list.txt"
        manifest.write_bytes("donn\u00e9es/inst0.wedge\n".encode())
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", "--manifest", str(manifest),
                     "--pls-iters", "0"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["instance"] for r in rows] == ["inst0", "TOTAL"]

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["bench", "--manifest", str(tmp_path / "gone.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gone.txt" in err

    def test_jobs_do_not_change_results(self, tmp_path):
        paths = [str(p) for p in self._make_instances(tmp_path)]
        out1, out4 = tmp_path / "r1.csv", tmp_path / "r4.csv"
        assert main(["bench", *paths,
                     "--pls-iters", "0", "--out", str(out1)]) == 0
        assert main(["bench", *paths, "--pls-iters", "0", "--jobs", "4",
                     "--out", str(out4)]) == 0

        def stable(path):
            rows = list(csv.DictReader(path.read_text().splitlines()))
            return [(r["instance"], r["best_weight"], r["iterations"])
                    for r in rows]

        assert stable(out1) == stable(out4)

    def test_jobs_capped_at_instance_count(self, tmp_path, capsys, monkeypatch):
        # a fork-started pool starts all max_workers at the first submit,
        # so one instance must ask for one worker; the stand-in pool runs
        # each task inline and starts no process
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor",
                            InlinePool)
        paths = self._make_instances(tmp_path, count=1)
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", str(paths[0]),
                     "--pls-iters", "0", "--jobs", "64"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["instance"] for r in rows] == ["inst0", "TOTAL"]
        assert asked == [1]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_bad_jobs(self, tmp_path, capsys, jobs):
        # exit 1 is a usage error; argparse's 2 would read as "limit hit"
        paths = self._make_instances(tmp_path, count=1)
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", str(paths[0]),
                     "--pls-iters", "0", "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--jobs" in err

    def test_failure_rows_keep_going(self, tmp_path, capsys):
        paths = self._make_instances(tmp_path, count=2)
        missing = tmp_path / "gone.wedge"
        capsys.readouterr()  # drop the gen chatter
        assert main(["bench", str(paths[0]), str(missing), str(paths[1]),
                     "--pls-iters", "0"]) == 1
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert [r["instance"] for r in rows] == \
            ["inst0", "gone.wedge", "inst1", "TOTAL"]
        assert rows[1]["error"] != ""
        assert rows[0]["error"] == "" and rows[0]["best_weight"] != ""

    def test_worker_death_becomes_error_row(self, tmp_path, capsys, monkeypatch):
        # a worker killed mid-solve breaks the pool; the rows it took
        # with it are recorded as errors and the table is still written,
        # also at --jobs 1, where the solve still runs in a worker
        paths = self._make_instances(tmp_path, count=2)
        real_run_solve = cli._run_solve

        def die_on_inst1(path, **opts):
            if Path(path).stem == "inst1":
                os._exit(1)
            return real_run_solve(path, **opts)

        monkeypatch.setattr(cli, "_run_solve", die_on_inst1)  # forked workers inherit it
        for jobs in ("1", "2"):
            capsys.readouterr()  # drop the gen chatter
            assert main(["bench", *map(str, paths), "--pls-iters", "0",
                         "--jobs", jobs]) == 1
            rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
            # inst0's row is an error row too when the pool broke first
            assert [r["instance"] for r in rows] == \
                ["inst0.wedge" if rows[0]["error"] else "inst0",
                 "inst1.wedge", "TOTAL"]
            assert "worker process died" in rows[1]["error"]

    def test_limit_exit_code(self, data_dir, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["bench", str(data_dir / "brock200_2.clq"),
                     "--dimacs-auto-weight", "--pls-iters", "0",
                     "--node-limit", "5", "--out", str(out)]) == 2

    def test_published_optima_table(self, data_dir, tmp_path):
        # the fast subset of the benchmark set; the full table is the
        # acceptance suite's job
        expected = {"johnson8-2-4": "192", "hamming6-4": "396",
                    "hamming6-2": "32736", "c-fat200-1": "7734"}
        out = tmp_path / "table.csv"
        paths = [str(data_dir / f"{name}.clq") for name in expected]
        assert main(["bench", *paths, "--dimacs-auto-weight",
                     "--pls-iters", "0", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        got = {r["instance"]: r["best_weight"] for r in rows[:-1]}
        assert got == expected
        assert rows[-1]["instance"] == "TOTAL"

    def test_no_instances(self, capsys):
        assert main(["bench", "--pls-iters", "0"]) == 1
        assert "no instances" in capsys.readouterr().err


class TestOracleCmd:
    def test_reports_weight_and_clique(self, triangle_wedge, capsys):
        assert main(["oracle", str(triangle_wedge)]) == 0
        out = capsys.readouterr().out
        assert "oracle_weight: 6" in out
        assert "clique: 1 2 3" in out

    def test_check_agrees(self, triangle_wedge, capsys):
        assert main(["oracle", str(triangle_wedge), "--check"]) == 0
        assert "solver agrees: 6" in capsys.readouterr().out

    def test_check_mismatch(self, triangle_wedge, monkeypatch, capsys):
        def lighter(g):  # the edge (1, 2) of weight 1 in place of 6
            res = solve(g)
            return SolveResult(VertexSet([0, 1]), 1, res.proven_optimal,
                               res.iterations, res.elapsed, res.initial_weight)

        monkeypatch.setattr(cli, "solve", lighter)
        assert main(["oracle", str(triangle_wedge), "--check"]) == 1
        assert ("mismatch: solver found 1, oracle found 6"
                in capsys.readouterr().err)

    def test_check_sweep(self, tmp_path):
        for i in range(10):
            p = tmp_path / f"o{i}.wedge"
            main(["gen", "--n", "14", "--density", "0.6",
                  "--seed", str(100 + i), "--out", str(p)])
            assert main(["oracle", str(p), "--check"]) == 0

    def test_too_large(self, data_dir, capsys):
        assert main(["oracle", str(data_dir / "johnson8-2-4.clq"),
                     "--unit-weights"]) == 1
        assert "too large" in capsys.readouterr().err

    def test_n_limit_override(self, data_dir, capsys):
        assert main(["oracle", str(data_dir / "johnson8-2-4.clq"),
                     "--unit-weights", "--n-limit", "28", "--check"]) == 0
        out = capsys.readouterr().out
        # unit weights: best clique has 4 vertices, hence 6 unit edges
        assert "oracle_weight: 6" in out
