import json
from dataclasses import asdict

import numpy as np
import pytest

from walkstitch import cli, engine
from walkstitch.fixtures import gnp, two_cliques
from walkstitch.graph import save_cache


@pytest.fixture
def path_graph_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# fixture\n0 1\n1 2\n")
    return str(p)


@pytest.fixture
def c8_file(tmp_path):
    p = tmp_path / "c8.txt"
    p.write_text("".join(f"{v} {(v + 1) % 8}\n" for v in range(8)))
    return str(p)


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(p)


@pytest.fixture
def cliques_cache(tmp_path):
    p = tmp_path / "cliques.lwg"
    save_cache(two_cliques(15), str(p))
    return str(p)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


class TestIngest:
    def test_path_graph(self, path_graph_file, tmp_path, capsys):
        cache = tmp_path / "g.lwg"
        assert run_cli("ingest", path_graph_file, cache) == 0
        assert capsys.readouterr().out.strip() == "n=3 m=2"

    def test_bad_token_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 x\n")
        assert run_cli("ingest", bad, tmp_path / "g.lwg") == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("text, line", [
        ("0 1\n+5 1\n", 2), ("0 1\n-0 1\n", 2), ("0 1\n1_0 2\n", 2),
        ("0 1\n\u0663 1\n", 2), ("0 1\n0\xa01\n", 2), ("\ufeff0 1\n1 2\n", 1)],
        ids=["plus", "minus-zero", "underscore", "arabic-digit", "nbsp", "bom"])
    def test_forms_outside_the_grammar_exit_2(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        assert run_cli("ingest", bad, tmp_path / "g.lwg") == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_non_utf8_edge_list_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\n1 \xff\n")
        assert run_cli("ingest", bad, tmp_path / "g.lwg") == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8")

    def test_truncated_cache_exit_2(self, cliques_cache, capsys):
        with open(cliques_cache, "r+b") as f:
            f.truncate(100)
        assert run_cli("walks", "--graph", cliques_cache, "--root", 0, "--seed", 1) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("neighbors", [
        [2, 1, 0, 0],      # vertex 0's row is unsorted
        [1, 1, 0, 0],      # vertex 0 lists vertex 1 twice
        [0, 1, 0, 0],      # self-loop at vertex 0
        [1, 2, 2, 0]])     # (0, 1) and (1, 2) are stored one way only
    def test_bad_adjacency_cache_exit_2(self, neighbors, tmp_path, capsys):
        # 3 vertices, 2 edges, degrees 2, 1, 1, identity id map
        words = [3, 2, 2, 1, 1, *neighbors, 3, 0, 1, 2]
        cache = tmp_path / "bad.lwg"
        cache.write_bytes(b"LWG1" + np.array(words, dtype="<u8").tobytes())
        assert run_cli("walks", "--graph", cache, "--root", 0, "--seed", 1) == 2
        assert capsys.readouterr().err.startswith(f"error: {cache}: corrupt graph cache")


class TestWalks:
    def test_cycles_metric(self, cliques_cache, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", cliques_cache, "--root", 1,
                     "--length", 4, "--target", 1000, "--growth", 10,
                     "--theta", 20, "--b0", 10, "--seed", 5,
                     "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["metrics"]["cycles"] == 4
        assert data["seed"] == 5
        assert data["version"]
        assert data["config"]["target"] == 1000
        assert 0.0 <= data["metrics"]["failure_rate_final"] <= 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("graph, target, flags, shortfall", [
        # C8's root base of 20 * 2 = 40 is below the default theta of 100,
        # so calibration cannot grow it: 40 of 1000 walks, and exit 0
        ("c8_file", 1000, [], 960),
        ("cliques_cache", 200, ["--theta", 20, "--b0", 10], 0)])
    def test_report_gives_the_shortfall(self, graph, target, flags, shortfall,
                                        request, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", request.getfixturevalue(graph), "--root", 0,
                     "--length", 4, "--target", target, *flags, "--seed", 1,
                     "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["shortfall"] == shortfall == max(0, target - data["walks_ok"])

    def test_rerun_byte_identical(self, cliques_cache, tmp_path):
        args = ["walks", "--graph", cliques_cache, "--root", 0, "--length", 4,
                "--target", 200, "--theta", 20, "--b0", 10, "--seed", 9,
                "--out", tmp_path / "w.txt", "--report", tmp_path / "r.json"]
        assert run_cli(*args) == 0
        first = ((tmp_path / "w.txt").read_bytes(), (tmp_path / "r.json").read_bytes())
        assert run_cli(*args) == 0
        assert (tmp_path / "w.txt").read_bytes() == first[0]
        assert (tmp_path / "r.json").read_bytes() == first[1]

    def test_walk_file_roundtrip(self, cliques_cache, tmp_path):
        out = tmp_path / "w.txt"
        run_cli("walks", "--graph", cliques_cache, "--root", 0, "--length", 4,
                "--target", 100, "--theta", 20, "--b0", 10, "--seed", 1,
                "--out", out)
        walks = cli.read_walk_file(str(out), root=0)
        assert walks.shape[1] == 5
        assert np.all(walks[:, 0] == 0)
        for line in out.read_text().splitlines():
            toks = line.split()
            assert toks[2] == "ok" or toks[2].startswith("failed@")

    def test_csv_outputs(self, cliques_cache, tmp_path):
        csv = tmp_path / "cycles.csv"
        run_cli("walks", "--graph", cliques_cache, "--root", 0, "--length", 4,
                "--target", 100, "--theta", 20, "--b0", 10, "--seed", 1,
                "--csv", csv)
        lines = csv.read_text().splitlines()
        assert lines[0] == "cycle,budget_total,rooted_attempted,rooted_ok,failure_rate"
        # 2 calibration cycles + final stitch for target 100 at growth 10
        assert len(lines) == 1 + 3

    def test_dump_budgets_single_run(self, cliques_cache, tmp_path, monkeypatch):
        runs = []

        def counting_run(*args, **kwargs):
            runs.append(engine.run_budgeted(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(cli, "run_budgeted", counting_run)
        dump = tmp_path / "budgets.csv"
        rc = run_cli("walks", "--graph", cliques_cache, "--root", 0, "--length", 4,
                     "--target", 100, "--theta", 20, "--b0", 10, "--seed", 1,
                     "--dump-budgets", dump)
        assert rc == 0
        assert len(runs) == 1
        budgets = runs[0].budgets
        expected = ["vertex,label,budget"] + [
            f"{v},{k + 1},{budgets[v, k]}" for v, k in zip(*np.nonzero(budgets))]
        assert dump.read_text().splitlines() == expected
        assert len(expected) > 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_failure_exit_1(self, tmp_path):
        edges = tmp_path / "c4.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        rc = run_cli("walks", "--graph", edges, "--root", 0, "--length", 4,
                     "--target", 100000, "--theta", 1000000, "--b0", 1,
                     "--tau", 1, "--fail-policy", "abort", "--seed", 2)
        assert rc == 1

    def test_theory_param_mode(self, c8_file, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", c8_file, "--root", 0, "--param-mode", "theory",
                     "--confidence", 1.5, "--scale", 0.01, "--length", 2, "--growth", 2,
                     "--target", 8, "--seed", 4, "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["config"]["confidence"] == 1.5 and data["config"]["scale"] == 0.01
        assert data["metrics"]["cycles"] == 4     # floor(log2 8) calibration cycles + 1
        assert data["metrics"]["rooted_ok"] >= 8
        assert data["walks_valid"] is True
        # the report shows the derived parameters that ran, not the desk flags
        ran = engine.theory_params(8, 2, 2.0, 1.5, target=8, scale=0.01,
                                   fail_policy="tolerate")
        assert data["params"]["mode"] == "theory"
        assert data["params"]["threshold"] == ran.threshold
        assert ran.threshold != data["config"]["theta"]
        assert data["params"] == asdict(ran)

    def test_timings_in_report(self, c8_file, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", c8_file, "--root", 0, "--length", 2,
                     "--target", 5, "--seed", 1, "--timings", "--report", report)
        assert rc == 0
        assert json.loads(report.read_text())["wall_clock_sec"] >= 0.0
        assert "wall clock" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv,where", [
        (["walks", "--mode", "theory", "--tau", 1.5, "--b0", 1, "--theta", 1],
         "6.46e+09 segments exceed the int32 segment index at vertex 0, label 19"),
        (["compare-baseline", "--baseline-tau", 5],
         "2.44e+09 segments exceed the int32 segment index at vertex 0, label 5"),
    ], ids=["walks", "compare-baseline"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_budget_overflow_exit_1(self, argv, where, c4_file, tmp_path, capsys):
        # tau^(3k-3) surplus at L 64 overflows the int32 segment index
        report = tmp_path / "r.json"
        rc = run_cli(argv[0], "--graph", c4_file, "--root", 0, "--seed", 1,
                     "--length", 64, "--target", 10, *argv[1:], "--report", report)
        assert rc == 1
        assert capsys.readouterr().err.endswith(f"fail: {where}\n")
        assert not report.exists()

    def test_length_above_int16_labels_exit_2(self, c4_file, capsys):
        rc = run_cli("walks", "--graph", c4_file, "--root", 0, "--mode", "theory",
                     "--tau", 1.0000001, "--length", 32768, "--b0", 2, "--theta", 1,
                     "--target", 5, "--seed", 1)
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: length 32768 exceeds 2^14, as labels are int16\n")

    @pytest.mark.parametrize("b0,rc_expected", [(40, 0), (20, 1)])
    def test_bucketed_abort(self, b0, rc_expected, c8_file, tmp_path, capsys):
        out = tmp_path / "w.txt"
        rc = run_cli("walks", "--graph", c8_file, "--root", 0, "--mode", "theory",
                     "--fail-policy", "abort", "--length", 4, "--target", 500,
                     "--tau", 1.5, "--theta", 10, "--b0", b0, "--seed", 3, "--out", out)
        assert rc == rc_expected
        if rc == 0:
            lines = out.read_text().splitlines()
            assert len(lines) >= 500
            assert all(line.split()[2] == "ok" for line in lines)
        else:   # the failure names the cycle it happened in
            assert capsys.readouterr().err.startswith(
                "fail: stitch failed: vertex 3, label 4, phase 1, cycle 3,")
            assert not out.exists()

    def test_int32_segment_limit_exit_1(self, path_graph_file, capsys):
        # about 10^13 segments: refused before any segment array is allocated
        rc = run_cli("walks", "--graph", path_graph_file, "--root", 0, "--length", 2,
                     "--b0", 1e12, "--seed", 1)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fail: ") and "segments exceed the int32 segment index" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_physical_memory_limit_exit_1(self, c4_file, tmp_path, monkeypatch, capsys):
        # a host of 4096 bytes without a meminfo file: the run is refused
        # before allocating
        monkeypatch.setattr(engine, "_MEMINFO", str(tmp_path / "missing"))
        pages = {"SC_PHYS_PAGES": 1, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(engine.os, "sysconf", pages.__getitem__)
        rc = run_cli("walks", "--graph", c4_file, "--root", 0, "--length", 4, "--seed", 1)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("fail: ") and err.endswith(
            "bytes, more than the 4096 bytes of available memory\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_out_of_memory_exit_1(self, path_graph_file, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        monkeypatch.setattr(engine, "init_walks", no_memory)
        rc = run_cli("walks", "--graph", path_graph_file, "--root", 0, "--seed", 1)
        assert rc == 1
        assert capsys.readouterr().err == "fail: Unable to allocate 8.00 GiB for an array\n"

    def test_strict_capacity_exit_3(self, cliques_cache, tmp_path):
        rc = run_cli("walks", "--graph", cliques_cache, "--root", 0,
                     "--length", 4, "--target", 100, "--theta", 20, "--b0", 10,
                     "--machines", 4, "--capacity", 10, "--strict", "--seed", 2)
        assert rc == 3

    def test_multi_source_budget_file(self, cliques_cache, tmp_path):
        budgets = tmp_path / "b.txt"
        budgets.write_text("1 50\n16 50\n")
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", cliques_cache, "--budgets", budgets,
                     "--length", 4, "--theta", 20, "--b0", 10, "--seed", 3,
                     "--out", tmp_path / "w.txt", "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert set(data["walks_per_root"]) == {"1", "16"}
        assert data["shortfall"] == {"1": 0, "16": 0}
        assert data["params"]["threshold"] == 20 and data["params"]["length"] == 4

    @pytest.mark.parametrize("seed, rc", [(-1, 2), (0, 0), ((1 << 64) - 1, 0), (1 << 64, 2)])
    def test_seed_range(self, seed, rc, path_graph_file, tmp_path, capsys):
        # a seed outside [0, 2^64) would alias one inside it
        out = tmp_path / "w.txt"
        argv = ("walks", "--graph", path_graph_file, "--root", 0, "--length", 2,
                "--target", 10, "--theta", 5, "--seed", seed, "--out", out,
                "--report", tmp_path / "r.json")
        if rc == 0:
            assert run_cli(*argv) == 0 and out.exists()
            return
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert f"argument --seed: {seed} is outside [0, 2^64)" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_root_exit_2(self, cliques_cache):
        assert run_cli("walks", "--graph", cliques_cache, "--seed", 1) == 2

    def test_zero_machines_exit_2(self, cliques_cache, capsys):
        rc = run_cli("walks", "--graph", cliques_cache, "--root", 0,
                     "--machines", 0, "--seed", 1)
        assert rc == 2
        assert "error: num_machines must be >= 1" in capsys.readouterr().err

    def test_missing_graph_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.txt"
        rc = run_cli("walks", "--graph", missing, "--root", 0, "--seed", 1)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    @pytest.mark.parametrize("flag", ["--dump-budgets", "--csv"])
    def test_multi_source_rejects_single_root_outputs(self, flag, cliques_cache, tmp_path,
                                                      capsys):
        budgets = tmp_path / "b.txt"
        budgets.write_text("1 20\n")
        out = tmp_path / "out.csv"
        rc = run_cli("walks", "--graph", cliques_cache, "--budgets", budgets, "--length", 4,
                     flag, out, "--seed", 1, "--report", tmp_path / "r.json")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err
        assert not out.exists()

    def test_non_integer_budget_exit_2(self, cliques_cache, tmp_path, capsys):
        budgets = tmp_path / "b.txt"
        budgets.write_text("1 50\n16 fifty\n")
        rc = run_cli("walks", "--graph", cliques_cache, "--budgets", budgets,
                     "--length", 4, "--seed", 3)
        assert rc == 2
        assert f"error: {budgets}:2:" in capsys.readouterr().err

    def test_repeated_budget_vertex_exit_2(self, cliques_cache, tmp_path, capsys):
        budgets = tmp_path / "b.txt"
        budgets.write_text("0 5\n# comment\n0 7\n")
        report = tmp_path / "r.json"
        rc = run_cli("walks", "--graph", cliques_cache, "--budgets", budgets,
                     "--length", 4, "--seed", 3, "--report", report)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {budgets}:3: vertex 0 already has a budget\n"
        assert not report.exists()


class TestCsvBytes:
    def test_budget_and_score_files(self, tmp_path):
        # one edge, base budget 3 per unit degree, no surplus, one cycle:
        # every (vertex, label) entry is 3
        edges = tmp_path / "k2.txt"
        edges.write_text("0 1\n")
        dump, scores = tmp_path / "b.csv", tmp_path / "q.csv"
        assert run_cli("walks", "--graph", edges, "--root", 0, "--length", 2,
                       "--target", 1, "--b0", 3, "--tau", 1, "--seed", 1,
                       "--dump-budgets", dump, "--report", tmp_path / "w.json") == 0
        assert dump.read_bytes() == b"vertex,label,budget\n0,1,3\n0,2,3\n1,1,3\n1,2,3\n"
        assert run_cli("ppr", "--graph", edges, "--root", 1, "--alpha", 1.0,
                       "--seed", 1, "--out", scores, "--report", tmp_path / "q.json") == 0
        assert scores.read_bytes() == b"vertex,score\n1,1.0\n"


@pytest.mark.parametrize("alpha", [1.0, 0.2])
@pytest.mark.parametrize("vertex", [-1, 8])
@pytest.mark.parametrize("command", ["ppr", "cluster"])
def test_vertex_out_of_range_exit_2(command, vertex, alpha, tmp_path, capsys):
    cache = tmp_path / "g.lwg"
    save_cache(two_cliques(4), str(cache))   # n = 8
    out = tmp_path / "out.txt"
    if command == "ppr":
        args = ["--root", vertex, "--target", 100, "--laziness", "half", "--verify"]
    else:
        args = ["--seed-vertex", vertex, "--target-volume", 13]
    rc = run_cli(command, "--graph", cache, *args, "--alpha", alpha, "--T", 4,
                 "--M", 50, "--seed", 1, "--out", out, "--report", tmp_path / "r.json")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("params", [["--alpha", 1.5], ["--alpha", 1.0, "--T", 0, "--M", 0]],
                         ids=["alpha-above-one", "alpha-one-T-M-zero"])
def test_cluster_bad_ppr_params_exit_2(params, tmp_path, capsys):
    cache = tmp_path / "g.lwg"
    save_cache(two_cliques(4), str(cache))
    out = tmp_path / "cut.txt"
    rc = run_cli("cluster", "--graph", cache, "--seed-vertex", 1, "--target-volume", 13,
                 *params, "--seed", 1, "--out", out, "--report", tmp_path / "r.json")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "walks --b0 nan", "walks --b0 inf", "walks --tau nan", "walks --tau inf",
    "walks --growth nan", "walks --growth inf", "walks --theta nan", "walks --theta inf",
    "walks --param-mode theory --confidence nan", "walks --param-mode theory --scale nan",
    "compare-baseline --baseline-tau nan", "compare-baseline --baseline-tau inf",
    "ppr --alpha 0.2 --ppr-mode theory --eta nan",
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameter_exit_2(argv, path_graph_file, tmp_path, capsys):
    command, *params = argv.split()
    report = tmp_path / "r.json"
    rc = run_cli(command, "--graph", path_graph_file, "--root", 0, "--target", 10,
                 "--length", 2, *params, "--seed", 1, "--report", report)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not report.exists()


class TestPPRCommand:
    def test_alpha_one_single_row(self, cliques_cache, tmp_path):
        out = tmp_path / "q.csv"
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 3,
                     "--alpha", 1.0, "--seed", 4, "--out", out,
                     "--report", tmp_path / "r.json")
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == ["vertex,score", "3,1.0"]

    def test_verify_against_oracle(self, cliques_cache, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1,
                     "--alpha", 0.2, "--T", 16, "--M", 5000,
                     "--target", 5500, "--growth", 4, "--theta", 10,
                     "--b0", 60, "--tau", 1.2, "--laziness", "half",
                     "--seed", 4, "--verify", "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["max_abs_error_vs_exact"] <= 0.05
        assert abs(data["mass"] - (1 - 0.8 ** 17)) < 1e-12
        assert data["params"]["length"] == 16 and data["params"]["laziness"] == "half"
        assert data["params"]["target"] == 5500

    def test_walk_shortfall_exit_1(self, cliques_cache, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text("1 1 ok 1 1 1\n" * 3)
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1, "--alpha", 0.3,
                     "--T", 2, "--M", 5, "--walks", wfile, "--laziness", "half",
                     "--seed", 6)
        assert rc == 1
        assert capsys.readouterr().err.startswith("fail: need M=5 walks, have 3")

    # 1 and 20 lie in different cliques of two_cliques(15) and the bridge
    # does not join them, so the step 1 -> 20 is not an edge
    @pytest.mark.parametrize("bad,message", [("x", ":2: expected 64-bit integers"),
                                             ("30", ": vertex ids must lie in [0, 30)"),
                                             ("20", ": a walk step is not an edge of the graph")])
    def test_bad_walk_vertex_exit_2(self, bad, message, cliques_cache, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text(f"1 1 ok 1 1 1\n1 1 ok 1 {bad} 1\n")
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1, "--alpha", 0.3,
                     "--T", 2, "--M", 2, "--walks", wfile, "--laziness", "half",
                     "--seed", 6)
        assert rc == 2
        assert f"error: {wfile}{message}" in capsys.readouterr().err

    def test_no_walks_no_engine_params_exit_2(self, cliques_cache):
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1,
                     "--alpha", 0.2, "--seed", 4)
        assert rc == 2

    def test_theory_mode_needs_eta(self, cliques_cache, capsys):
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1, "--alpha", 0.2,
                     "--ppr-mode", "theory", "--target", 100, "--seed", 1)
        assert rc == 2
        assert capsys.readouterr().err == "error: theory mode needs --eta\n"

    def test_theory_mode_target_below_m_exit_1(self, cliques_cache, tmp_path, capsys):
        report = tmp_path / "r.json"
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1, "--alpha", 0.2,
                     "--ppr-mode", "theory", "--eta", 0.5, "--target", 100, "--length", 4,
                     "--seed", 1, "--report", report)
        assert rc == 1
        assert capsys.readouterr().err.startswith("fail: need M=")
        assert not report.exists()

    def test_walks_file_reuse(self, cliques_cache, tmp_path):
        wfile = tmp_path / "w.txt"
        run_cli("walks", "--graph", cliques_cache, "--root", 1, "--length", 16,
                "--target", 4000, "--growth", 10, "--theta", 20, "--b0", 20,
                "--laziness", "half", "--seed", 6, "--out", wfile)
        rc = run_cli("ppr", "--graph", cliques_cache, "--root", 1,
                     "--alpha", 0.3, "--T", 16, "--M", 3000,
                     "--walks", wfile, "--laziness", "half", "--seed", 6,
                     "--out", tmp_path / "q.csv")
        assert rc == 0


class TestClusterCommand:
    def test_planted_fixture(self, cliques_cache, tmp_path):
        report = tmp_path / "r.json"
        out = tmp_path / "set.txt"
        csv = tmp_path / "sweep.csv"
        rc = run_cli("cluster", "--graph", cliques_cache, "--seed-vertex", 1,
                     "--alpha", 0.1, "--target-volume", 211,
                     "--T", 32, "--M", 20000, "--seed", 4,
                     "--out", out, "--csv", csv, "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert set(data["cut"]) == set(range(15))
        cut_file = [int(x) for x in out.read_text().split()]
        assert set(cut_file) == set(range(15))
        # SweepResult schema
        assert set(data["sweep"]) == {"ordering", "phi_list", "best_j",
                                      "best_set", "phi", "phi_exact"}
        assert data["phi"] == pytest.approx(1 / 211)
        assert data["phi_exact"] == data["sweep"]["phi_exact"] == [1, 211]
        assert data["bound"] > data["phi"]
        lines = csv.read_text().splitlines()
        assert lines[0] == "prefix,vertex,phi"
        assert len(lines) == 1 + len(data["sweep"]["ordering"])
        assert "params" not in data     # cluster runs fixed desk parameters

    def test_teleport_dominated_flag(self, cliques_cache, tmp_path):
        report = tmp_path / "r.json"
        rc = run_cli("cluster", "--graph", cliques_cache, "--seed-vertex", 2,
                     "--alpha", 1.0, "--target-volume", 14, "--seed", 1,
                     "--report", report)
        assert rc == 0
        assert json.loads(report.read_text())["teleport_dominated"] is True


class TestCompareBaseline:
    def test_locality_ratio_exceeds_one(self, tmp_path):
        cache = tmp_path / "g.lwg"
        save_cache(gnp(500, 0.02, seed=3), str(cache))
        report = tmp_path / "r.json"
        csv = tmp_path / "cmp.csv"
        rc = run_cli("compare-baseline", "--graph", cache, "--root", 0,
                     "--length", 4, "--target", 200, "--growth", 10,
                     "--theta", 3, "--b0", 1, "--tau", 1.5, "--seed", 7,
                     "--csv", csv, "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["budget_ratio"] > 1.0
        assert data["baseline"]["total_budget"] == \
            data["budget_ratio"] * data["local"]["total_budget"]
        assert data["params"]["surplus"] == 1.5 and data["params"]["mode"] == "practical"
        lines = csv.read_text().splitlines()
        assert lines[0] == "algorithm,total_budget,supersteps,rooted_ok"
        local = data["local"]
        assert lines[1:] == [
            f"budgeted,{local['total_budget']},{local['supersteps']},{local['rooted_ok']}",
            "uniform,{total_budget},{supersteps},{rooted_ok}".format(**data["baseline"])]

    def test_no_locality_advantage_ratio_near_one(self, tmp_path):
        # target close to b0 * deg(root) and growth so large that no
        # calibration cycle runs: both engines do one stationary-ish cycle
        cache = tmp_path / "g.lwg"
        save_cache(gnp(200, 0.05, seed=5), str(cache))
        g = gnp(200, 0.05, seed=5)
        target = 4 * g.degree(0)
        report = tmp_path / "r.json"
        rc = run_cli("compare-baseline", "--graph", cache, "--root", 0,
                     "--length", 4, "--target", target, "--growth", 1e9,
                     "--theta", 5, "--b0", 4, "--tau", 1.3, "--seed", 7,
                     "--report", report)
        assert rc == 0
        ratio = json.loads(report.read_text())["budget_ratio"]
        assert 0.5 <= ratio <= 2.0


class TestOracleCheck:
    def test_known_fixtures_pass(self, capsys):
        assert run_cli("oracle-check", "c8-walks") == 0
        assert "PASS" in capsys.readouterr().out
        assert run_cli("oracle-check", "ppr-k2") == 0
        for name in ("k3-paths", "cliques-cut"):
            capsys.readouterr()
            assert run_cli("oracle-check", name) == 0
            assert capsys.readouterr().out == f"{name:<14} PASS\n"

    def test_unknown_fixture_exit_2(self):
        assert run_cli("oracle-check", "nope") == 2


class TestConfigFile:
    def test_config_with_cli_override(self, cliques_cache, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("target=100\nlength=4\ntheta=20\nb0=10\nseed=5\n"
                       f"graph={cliques_cache}\nroot=0\n")
        report = tmp_path / "r.json"
        rc = run_cli("--config", cfg, "walks", "--target", "200",
                     "--report", report)
        assert rc == 0
        data = json.loads(report.read_text())
        assert data["config"]["target"] == 200  # CLI wins
        assert data["config"]["length"] == 4    # from config file
        assert data["seed"] == 5

    @pytest.mark.parametrize("bad", ["taget=5", "param_mode=thoery", "target=abc"])
    def test_bad_config_line_exit_2_runs_nothing(self, bad, cliques_cache, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(cli, "run_budgeted", None)  # any engine call would raise
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"length=4\nseed=5\ngraph={cliques_cache}\nroot=0\n{bad}\n")
        report = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg, "walks", "--report", report)
        assert exc.value.code == 2
        assert not report.exists()

    @pytest.mark.parametrize("argv", [
        ["walks", "--graph", "G", "--root", 0, "--length", 4, "--target", 100,
         "--theta", 20, "--b0", 10, "--fail-policy", "abort", "--seed", 3],
        ["ppr", "--graph", "G", "--root", 1, "--alpha", 0.2, "--T", 8, "--M", 500,
         "--target", 600, "--length", 8, "--laziness", "half", "--seed", 4,
         "--verify"],
        ["cluster", "--graph", "G", "--seed-vertex", 1, "--alpha", 0.1,
         "--target-volume", 211, "--T", 8, "--M", 500, "--seed", 4],
    ], ids=["walks", "ppr", "cluster"])
    def test_config_report_matches_flags(self, argv, cliques_cache, tmp_path):
        argv = [cliques_cache if a == "G" else a for a in argv]
        report = tmp_path / "r.json"
        assert run_cli(*argv, "--report", report) == 0
        from_flags = report.read_bytes()
        report.unlink()
        cfg = tmp_path / "run.cfg"
        lines, rest = [], argv[1:]
        while rest:
            key = rest.pop(0)[2:]
            val = "true" if key == "verify" else rest.pop(0)
            lines.append(f"{key.replace('-', '_')} = {val}")
        cfg.write_text("# same run as flags\n" + "\n".join(lines) + "\n")
        assert run_cli("--config", cfg, argv[0], "--report", report) == 0
        assert report.read_bytes() == from_flags

    @pytest.mark.parametrize("value,expected", [
        ("true", True), ("1", True), ("YES", True), ("on", True),
        ("false", False), ("0", False), ("off", False), ("", False)])
    def test_store_true_spellings(self, value, expected, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"strict={value}\n")
        argv = cli.splice_config(["--config", str(cfg), "walks", "--graph", "g",
                                  "--seed", "1"])
        assert cli.build_parser().parse_args(argv).strict is expected
