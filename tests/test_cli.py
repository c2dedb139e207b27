import json
import subprocess
import sys

import pytest

from helpers import spy_finds
from ramsey_abc import abc_search, cli, counting
from ramsey_abc.abc_search import BUDGET_EXHAUSTED, WITNESS_FOUND, SearchParams, SearchResult
from ramsey_abc.cli import (
    EXIT_BUDGET,
    EXIT_CLAIM,
    EXIT_DATA,
    EXIT_NONWITNESS,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    load_graph_file,
    main,
)
from ramsey_abc.counting import FitnessReport
from ramsey_abc.graph import Graph, emit_adjacency_list, encode_graph6


def test_runconfig_roundtrip():
    params = SearchParams(p=3, q=10, n=40, mode="extension", degree_range=(4, 9), seed=7)
    config = RunConfig(params, base_file="base.adj")
    assert RunConfig.from_dict(config.to_dict()) == config
    for key in ("bogus", "count_cap", "init_density"):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_dict({"p": 3, "q": 3, "n": 5, key: 1})


def test_load_graph_file_sniffs_formats(tmp_path):
    g = Graph.cycle(5)
    adj = tmp_path / "g.adj"
    adj.write_text(emit_adjacency_list(g))
    g6 = tmp_path / "g.g6"
    g6.write_text(encode_graph6(g) + "\n")
    assert load_graph_file(adj) == g
    assert load_graph_file(g6) == g


def test_load_graph_file_notes_reconciled_entries(tmp_path, capsys):
    # row 3 omits vertex 2: the parser merges the one-sided entry, and the
    # CLI says so on stderr while certifying the same triangle
    path = tmp_path / "tri.adj"
    path.write_text("1:2 3\n2:1 3\n3:1\n")
    assert main(["verify", str(path), "--p", "3", "--q", "3"]) == EXIT_NONWITNESS
    out, err = capsys.readouterr()
    assert "clique count: 1" in out and "warning" not in out
    assert err.splitlines() == [
        f"warning: {path}: reconciled adjacency entries: 1 "
        "(first 2-3: listed in row 2 but not in row 3)"
    ]
    path.write_text("1:2 3\n2:1 3\n3:1 2\n")
    assert main(["verify", str(path), "--p", "3", "--q", "3"]) == EXIT_NONWITNESS
    assert capsys.readouterr().err == ""


def test_search_writes_run_record(tmp_path, capsys):
    code = main(
        [
            "search", "--p", "3", "--q", "3", "--n", "5",
            "--seed", "1", "--budget", "10000", "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "witness-found" in out
    run_dir = next(tmp_path.iterdir())
    for name in ("config.json", "history.csv", "result.json", "witness.adj", "witness.g6"):
        assert (run_dir / name).exists()
    result = json.loads((run_dir / "result.json").read_text())
    assert result["best_fitness"]["total"] == 0
    assert result["reason"] == "witness-found"
    assert result["accepted_moves"] >= 0 and result["scout_restarts"] >= 0
    config = json.loads((run_dir / "config.json").read_text())
    assert RunConfig.from_dict(config).params.seed == 1
    assert config["degree_range"] is None  # full mode reads no range
    # the witness file certifies clean
    assert main(["verify", str(run_dir / "witness.adj"), "--p", "3", "--q", "3"]) == EXIT_OK


def test_search_replay_reproduces_history(tmp_path):
    args = [
        "search", "--p", "3", "--q", "4", "--n", "8",
        "--seed", "11", "--budget", "5000", "--out", str(tmp_path),
    ]
    assert main(args) in (EXIT_OK, EXIT_BUDGET)
    assert main(args) in (EXIT_OK, EXIT_BUDGET)
    dirs = sorted(tmp_path.iterdir())
    assert len(dirs) == 2
    first = (dirs[0] / "history.csv").read_bytes()
    second = (dirs[1] / "history.csv").read_bytes()
    assert first == second
    r1 = json.loads((dirs[0] / "result.json").read_text())
    r2 = json.loads((dirs[1] / "result.json").read_text())
    assert r1["best_graph6"] == r2["best_graph6"]


def test_search_config_file_with_flag_override(tmp_path):
    config = {
        "p": 3, "q": 3, "n": 5, "seed": 1, "budget": 10_000,
        "out_dir": str(tmp_path / "a"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["search", "--config", str(path)]) == EXIT_OK
    # flag overrides the config's output directory
    assert main(["search", "--config", str(path), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a").exists() and (tmp_path / "b").exists()
    # the recorded config replays to an identical history
    run_a = next((tmp_path / "a").iterdir())
    assert main(
        ["search", "--config", str(run_a / "config.json"), "--out", str(tmp_path / "c")]
    ) == EXIT_OK
    run_c = next((tmp_path / "c").iterdir())
    assert (run_a / "history.csv").read_bytes() == (run_c / "history.csv").read_bytes()


@pytest.mark.parametrize(
    "config, code",
    [
        ({"p": 3, "q": 10, "mode": "extension", "degree_range": "4..9"}, EXIT_USAGE),
        ([1, 2], EXIT_DATA),
        ({"p": 3, "q": 3, "n": 5, "colony_size": 20.0}, EXIT_USAGE),
        ({"p": 3, "q": 3, "n": 5.0}, EXIT_USAGE),
        ({"p": 3, "q": 10, "mode": "extension", "base_file": 7}, EXIT_USAGE),
        ({"p": 3, "q": 10, "mode": "extension", "n": "39"}, EXIT_USAGE),
        ({"p": 3, "q": 4, "n": 8, "degree_range": [1, 2]}, EXIT_USAGE),  # full mode reads none
        ({"p": 1, "q": 1, "n": 1, "seed": 0, "budget": 50}, EXIT_USAGE),  # no vertex pair to flip
    ],
)
def test_search_config_types_exit_cleanly(tmp_path, config, code):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_abc", "search", "--config", str(path),
         "--out", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "flag, key", [(["--degree-range", "1..2"], "degree_range"), (["--base", "g.adj"], "base_file")]
)
def test_search_full_mode_rejects_extension_flags(tmp_path, flag, key):
    # full mode reads no degree range or base, so config.json must never record one
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_abc", "search", "--p", "3", "--q", "4", "--n", "8",
         *flag, "--out", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert key in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_search_budget_exhaustion_exit(tmp_path):
    code = main(
        [
            "search", "--p", "3", "--q", "3", "--n", "5",
            "--seed", "1", "--budget", "20", "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_BUDGET


def test_verify_reports_json(capsys):
    assert main(["verify-appendix", "--json"]) == EXIT_OK
    records = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in records] == ["A", "B", "C", "D"]
    assert all(r["passed"] for r in records)
    assert main(["verify-deletions", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert len(record["named"]) == 4
    assert record["scan_witnesses"] == [["A", 37], ["A", 38], ["C", 3], ["C", 38]]


def test_search_missing_params(tmp_path, capsys):
    assert main(["search", "--p", "3", "--q", "3", "--out", str(tmp_path)]) == EXIT_USAGE
    assert "missing required" in capsys.readouterr().err


def test_search_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMSEY_ABC_OUT", str(tmp_path / "envruns"))
    code = main(["search", "--p", "3", "--q", "3", "--n", "5", "--seed", "1", "--budget", "200"])
    assert code == EXIT_OK
    assert (tmp_path / "envruns").is_dir()
    assert list((tmp_path / "envruns").iterdir())


def test_search_extension_mode_with_base_file(tmp_path):
    assert main(["extract-base", "--out", str(tmp_path / "base.adj")]) == EXIT_OK
    code = main(
        [
            "search", "--mode", "extension", "--base", str(tmp_path / "base.adj"),
            "--p", "3", "--q", "10", "--degree-range", "4..9",
            "--seed", "5", "--budget", "30", "--colony-size", "4",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert code == EXIT_BUDGET
    config = json.loads((next((tmp_path / "runs").iterdir()) / "config.json").read_text())
    assert config["degree_range"] == [4, 9]
    assert config["base_file"].endswith("base.adj")


def test_search_extension_mode_defaults_to_bundled_base(tmp_path, capsys):
    code = main(
        [
            "search", "--mode", "extension", "--p", "3", "--q", "10",
            "--seed", "2", "--budget", "60", "--colony-size", "4",
            "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_BUDGET  # the (3,10,40) target is out of reach
    result = json.loads((next(tmp_path.iterdir()) / "result.json").read_text())
    assert result["best_extension"]["attachments"]
    assert result["best_fitness"]["total"] > 0
    config = json.loads((next(tmp_path.iterdir()) / "config.json").read_text())
    assert config["n"] == 40
    assert config["degree_range"] == [4, 9]


def test_search_extension_mode_derives_degree_range(tmp_path, capsys):
    code = main(
        [
            "search", "--mode", "extension", "--p", "3", "--q", "10", "--n", "39",
            "--seed", "2", "--budget", "20", "--colony-size", "4",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert code == EXIT_BUDGET
    config = json.loads((next((tmp_path / "runs").iterdir()) / "config.json").read_text())
    assert config["degree_range"] == [3, 9]  # bounds.degree_range(3, 10, 39)
    # R(3,10) is not exactly known, so (3,11) has no derivable range
    code = main(
        [
            "search", "--mode", "extension", "--p", "3", "--q", "11",
            "--out", str(tmp_path / "inexact"),
        ]
    )
    assert code == EXIT_USAGE
    assert "--degree-range" in capsys.readouterr().err
    assert not (tmp_path / "inexact").exists()


def test_search_empty_derived_band_exits_cleanly(tmp_path):
    # bounds.degree_range(3, 5, 40) is [31, 4]; the user gave no range to blame
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_abc", "search", "--mode", "extension",
         "--p", "3", "--q", "5", "--n", "40", "--out", str(tmp_path / "runs")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "witness band [31, 4] of (3,5,40) is empty" in proc.stderr
    assert "two integers" not in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_search_rejects_n_above_max_vertices_before_running(tmp_path, monkeypatch, capsys):
    # a 62-vertex base plus 5 added vertices is n = 67: refused before any search
    def never_run(params, base=None):
        raise AssertionError("search ran")

    monkeypatch.setattr(cli, "run", never_run)  # the abc_search.run that cmd_search calls
    (tmp_path / "c62.adj").write_text(emit_adjacency_list(Graph.cycle(62)))
    code = main(
        [
            "search", "--mode", "extension", "--base", str(tmp_path / "c62.adj"),
            "--p", "3", "--q", "3", "--degree-range", "1..5", "--budget", "20000",
            "--out", str(tmp_path / "runs"),
        ]
    )
    assert code == EXIT_USAGE
    assert "n must be at most 64, got 67" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("n", [35, 43])
def test_search_rejects_added_vertex_count_before_running(tmp_path, monkeypatch, capsys, n):
    # extension mode adds 1..7 vertices to the 35-vertex bundled base
    def never(*args):
        raise AssertionError("search ran")

    monkeypatch.setattr(abc_search, "build_indep_cache", never)
    monkeypatch.setattr(abc_search, "random_extension", never)
    code = main(
        [
            "search", "--mode", "extension", "--p", "3", "--q", "10", "--n", str(n),
            "--degree-range", "4..9", "--out", str(tmp_path / "runs"),
        ]
    )
    assert code == EXIT_USAGE
    assert f"1..7 added vertices, got n={n} over base 35" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_search_rejects_witness_that_fails_certification(tmp_path, monkeypatch, capsys):
    def fake_run(params, base=None):
        return SearchResult(
            best_position=Graph.complete(params.n),
            best_fitness=FitnessReport(0, 0),
            rounds=0,
            evaluations=1,
            history=(),
            reason=WITNESS_FOUND,
        )

    monkeypatch.setattr(cli, "run", fake_run)
    code = main(["search", "--p", "3", "--q", "3", "--n", "5", "--out", str(tmp_path)])
    assert code == EXIT_CLAIM
    assert "cliques 10, independent sets 0" in capsys.readouterr().err
    assert not list(tmp_path.glob("**/witness.*"))


def test_search_rejects_best_fitness_that_fails_certification(tmp_path, monkeypatch, capsys):
    # not a witness, but its carried fitness disagrees with an exact recount
    def fake_run(params, base=None):
        return SearchResult(
            best_position=Graph.complete(params.n),
            best_fitness=FitnessReport(3, 0),
            rounds=0,
            evaluations=1,
            history=(),
            reason=BUDGET_EXHAUSTED,
        )

    monkeypatch.setattr(cli, "run", fake_run)
    code = main(["search", "--p", "3", "--q", "3", "--n", "5", "--out", str(tmp_path)])
    assert code == EXIT_CLAIM
    assert "cliques 10, independent sets 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_search_rejects_swapped_counts_with_the_right_total(tmp_path, monkeypatch, capsys):
    # K5 reported as (cliques 0, independent sets 10): the exact total, 10,
    # agrees, but the counts are swapped, so nothing is written
    def fake_run(params, base=None):
        return SearchResult(Graph.complete(5), FitnessReport(0, 10), 0, 1, (), BUDGET_EXHAUSTED)

    monkeypatch.setattr(cli, "run", fake_run)
    runs = tmp_path / "runs"
    code = main(["search", "--p", "3", "--q", "3", "--n", "5", "--out", str(runs)])
    assert code == EXIT_CLAIM
    assert "exact count 10 (cliques 10, independent sets 0)" in capsys.readouterr().err
    assert not runs.exists()


def test_search_cache_over_budget_exits_cleanly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(counting, "MAX_CACHE_SETS", 10)
    code = main(
        [
            "search", "--mode", "extension", "--p", "3", "--q", "10",
            "--seed", "0", "--budget", "20", "--out", str(tmp_path),
        ]
    )
    assert code == EXIT_DATA
    assert "more than 10 independent sets" in capsys.readouterr().err


def test_verify_non_witness(tmp_path, g1, capsys):
    path = tmp_path / "g1.adj"
    path.write_text(emit_adjacency_list(g1))
    code = main(["verify", str(path), "--p", "3", "--q", "3"])
    assert code == EXIT_NONWITNESS
    out = capsys.readouterr().out
    assert "clique violation: [2, 3, 4]" in out
    assert "independent-set violation: [1, 3, 5]" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "extension", "--p", "3", "--q", "10", "--seed", "2", "--budget", "200"],
        ["--p", "3", "--q", "4", "--n", "8", "--seed", "0", "--budget", "50"],
    ],
    ids=["extension", "full"],
)
def test_search_certifies_its_best_without_a_find(tmp_path, monkeypatch, capsys, argv):
    # search reads only the certificate's counts, so it pays for no violation
    calls = spy_finds(monkeypatch)
    assert main(["search", *argv, "--out", str(tmp_path)]) == EXIT_BUDGET
    assert calls == {"find_clique": [], "find_independent_set": []}


def test_verify_finds_one_violation_per_positive_count(tmp_path, g1, c5, monkeypatch, capsys):
    # g1 has a triangle and an independent triple, K6 only triangles, C5 neither
    paths = []
    for name, g in (("g1", g1), ("k6", Graph.complete(6)), ("c5", c5)):
        paths.append(tmp_path / f"{name}.adj")
        paths[-1].write_text(emit_adjacency_list(g))
    calls = spy_finds(monkeypatch)
    assert main(["verify", *map(str, paths), "--p", "3", "--q", "3"]) == EXIT_NONWITNESS
    assert calls == {"find_clique": [(5, 3), (6, 3)], "find_independent_set": [(5, 3)]}
    out = capsys.readouterr().out
    assert out.count("clique violation: ") == 2
    assert "clique violation: [1, 2, 3]" in out  # K6's first triangle
    assert out.count("independent-set violation: ") == 1


def test_verify_missing_file():
    assert main(["verify", "nope.adj", "--p", "3", "--q", "3"]) == EXIT_DATA


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{tmp}", "--p", "3", "--q", "3"],
        ["count", "--file", "{tmp}", "--p", "3", "--q", "3"],
        ["search", "--config", "{tmp}"],
        ["search", "--p", "3", "--q", "3", "--n", "5", "--seed", "0", "--budget", "8",
         "--out", "{tmp}/file/runs"],
    ],
    ids=["verify-dir", "count-dir", "config-dir", "out-under-file"],
)
def test_os_errors_exit_data(tmp_path, capsys, argv):
    # any OS error on a path given by the user is a data error, not a crash
    (tmp_path / "file").write_text("")
    code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "file error" in err and "Traceback" not in err


@pytest.mark.parametrize("out", ["file", "file/runs"])
def test_search_out_under_a_file_fails_before_running(tmp_path, monkeypatch, capsys, out):
    # an output root that is a file, or lies under one, is refused before any
    # search: the message names the file and nothing is written
    def never_run(params, base=None):
        raise AssertionError("search ran")

    monkeypatch.setattr(cli, "run", never_run)
    (tmp_path / "file").write_text("")
    root = tmp_path / out
    code = main(["search", "--p", "3", "--q", "5", "--n", "13", "--out", str(root)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err == f"file error: output root {root}: {tmp_path / 'file'} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{bad}", "--p", "3", "--q", "3"],
        ["count", "--file", "{bad}", "--p", "3", "--q", "3"],
        ["search", "--config", "{bad}", "--out", "{runs}"],
        ["search", "--mode", "extension", "--p", "3", "--q", "10", "--base", "{bad}",
         "--out", "{runs}"],
    ],
    ids=["verify", "count", "config", "base"],
)
def test_undecodable_file_exits_data(tmp_path, capsys, argv):
    # bytes that are not UTF-8 text are a data error, like an unreadable file,
    # and the message names the file
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    runs = tmp_path / "runs"
    code = main([arg.replace("{bad}", str(bad)).replace("{runs}", str(runs)) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"file error: {bad}: not UTF-8 text" in err and "Traceback" not in err
    assert not runs.exists()


def test_invalid_json_config_names_the_file(tmp_path, capsys):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"p": 3,')
    runs = tmp_path / "runs"
    code = main(["search", "--config", str(bad), "--out", str(runs)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"config error: {bad}: Expecting property name")
    assert "Traceback" not in err
    assert not runs.exists()


def test_verify_appendix_cli(capsys):
    assert main(["verify-appendix"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4


def test_verify_deletions_cli(capsys):
    assert main(["verify-deletions"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "A-37" in out and "C-3" in out


def test_count_indep_range(tmp_path, capsys):
    base_code = main(["extract-base", "--out", str(tmp_path / "base.adj")])
    assert base_code == EXIT_OK
    capsys.readouterr()
    assert main(["count", "--file", str(tmp_path / "base.adj"), "--indep", "5..8"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "20265 22995 13760 3360"


def test_count_fitness(tmp_path, capsys, c5):
    path = tmp_path / "c5.adj"
    path.write_text(emit_adjacency_list(c5))
    assert main(["count", "--file", str(path), "--p", "3", "--q", "3"]) == EXIT_OK
    assert "total: 0" in capsys.readouterr().out
    assert main(["count", "--file", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--p", "3"], "--p needs --q"),
        (["--q", "3"], "--q needs --p"),
        (["--p", "3", "--cliques", "1..2"], "--p needs --q"),
        (["--q", "3", "--indep", "1..2"], "--q needs --p"),
        (["--p", "2", "--q", "2", "--cliques", "1..2"],
         "--p/--q cannot be combined with --cliques"),
        (["--p", "2", "--q", "2", "--indep", "1"], "--p/--q cannot be combined with --indep"),
    ],
    ids=["p-alone", "q-alone", "p-with-cliques", "q-with-indep", "pq-with-cliques",
         "pq-with-indep"],
)
def test_count_needs_p_and_q_together(tmp_path, capsys, flags, message):
    # a lone --p or --q, or --p/--q with a range, is refused by name, never
    # silently ignored
    path = tmp_path / "k2.adj"
    path.write_text(emit_adjacency_list(Graph.complete(2)))
    assert main(["count", "--file", str(path), *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_count_parse_error(tmp_path):
    bad = tmp_path / "bad.adj"
    bad.write_text("1:2\nnot a row\n")
    assert main(["count", "--file", str(bad), "--p", "2", "--q", "2"]) == EXIT_DATA


def test_bounds_cli_rejects_nonpositive_n(capsys):
    assert main(["bounds", "3", "10", "-5"]) == EXIT_USAGE
    assert "vertex count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--cliques", "--indep"])
def test_count_rejects_empty_range(tmp_path, capsys, c5, flag):
    path = tmp_path / "c5.adj"
    path.write_text(emit_adjacency_list(c5))
    assert main(["count", "--file", str(path), flag, "3..2"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "empty range '3..2'" in captured.err and not captured.out


def test_count_range_without_upper_bound_names_the_form(tmp_path, capsys, c5):
    path = tmp_path / "c5.adj"
    path.write_text(emit_adjacency_list(c5))
    assert main(["count", "--file", str(path), "--indep", "2.."]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "bad range '2..': expected K or LO..HI" in captured.err and not captured.out
    assert "Traceback" not in captured.err


def test_search_empty_degree_range_names_the_form(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--mode", "extension", "--degree-range", "9..4"])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "empty range '9..4': expected LO..HI with LO <= HI" in err
    assert "invalid _parse_range value" not in err and "Traceback" not in err


def test_bounds_cli(capsys):
    assert main(["bounds", "3", "10", "40"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[40,42]" in out and "[4,9]" in out
    assert main(["bounds", "4", "6", "36", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["degree_range"] == [11, 17]
    assert "note" in record


def test_bounds_cli_clamps_the_band(capsys):
    # n - R(3, 9) = -35: no vertex of a 1-vertex graph has a negative degree
    assert main(["bounds", "3", "10", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "degree range for (3,10,1) witnesses: [0,0]"
    assert main(["bounds", "3", "10", "20", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["degree_range"] == [0, 9]


def test_bounds_cli_names_an_empty_band(capsys):
    # bounds.degree_range(3, 10, 100) is [64, 9]: no degree fits, so no witness
    assert main(["bounds", "3", "10", "100"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [
        "degree range for (3,10,100) witnesses: [64,9]",
        "empty: no (3,10,100) witness exists",
    ]
    assert main(["bounds", "3", "10", "100", "--json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert (record["degree_range"], record["feasible"]) == ([64, 9], False)
    assert main(["bounds", "3", "10", "40", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["feasible"] is True
    assert main(["bounds", "3", "10", "40"]) == EXIT_OK
    assert "empty" not in capsys.readouterr().out


def test_bounds_inexact_subvalue(capsys):
    assert main(["bounds", "3", "11", "46"]) == EXIT_USAGE


def test_enumerate_tf_cli(capsys):
    assert main(["enumerate-tf", "5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 14
    from ramsey_abc.graph import decode_graph6
    from ramsey_abc.counting import count_cliques

    for line in lines:
        assert count_cliques(decode_graph6(line), 3) == 0


def test_extract_base_cli(tmp_path, capsys):
    assert main(["extract-base", "--out", str(tmp_path / "base.adj")]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert (tmp_path / "base.adj").exists() and (tmp_path / "base.g6").exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_abc", "bounds", "3", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "R(3,3) = 6" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ramsey_abc", "search", "--bogus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE
