import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import spy_finds
from ramsey_abc.abc_search import BUDGET_EXHAUSTED, WITNESS_FOUND, SearchResult
from ramsey_abc.cli import EXIT_CLAIM, EXIT_OK, EXIT_USAGE
from ramsey_abc.counting import FitnessReport
from ramsey_abc.graph import Graph

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ROOT = SCRIPTS.parent


@pytest.fixture
def experiments():
    spec = importlib.util.spec_from_file_location(
        "search_experiments", SCRIPTS / "search_experiments.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_experiments_counts_certified_witnesses(experiments, capsys):
    # seed 0 finds a (3,3,5) witness after 149 of its 500 evaluations
    assert experiments.main(["--seeds", "1", "--budget", "500"]) == EXIT_OK
    assert "success (certified): (3,3,5) 1/1, (3,4,8) " in capsys.readouterr().out


def test_search_experiments_refuses_an_uncertified_best(experiments, monkeypatch, capsys):
    # a search that reports K5 as a (3,3) witness: the exact recount has 10 triangles
    def lying_run(params, base=None, cache=None):
        return SearchResult(Graph.complete(5), FitnessReport(0, 0), 0, 1, (), WITNESS_FOUND)

    monkeypatch.setattr(experiments, "run", lying_run)
    assert experiments.main(["--seeds", "1"]) == EXIT_CLAIM
    out, err = capsys.readouterr()
    assert "fails certification: exact count 10" in err
    assert "success" not in out


def test_search_experiments_refuses_swapped_counts(experiments, monkeypatch, capsys):
    # K5 reported as (cliques 0, independent sets 10): the right total, 10,
    # but the exact counts are (10, 0)
    def swapped_run(params, base=None, cache=None):
        return SearchResult(Graph.complete(5), FitnessReport(0, 10), 0, 1, (), BUDGET_EXHAUSTED)

    monkeypatch.setattr(experiments, "run", swapped_run)
    assert experiments.main(["--seeds", "1"]) == EXIT_CLAIM
    out, err = capsys.readouterr()
    assert "seed 0: reported best fitness 10 fails certification" in err
    assert "success" not in out


def test_search_experiments_batch_builds_one_cache(experiments, monkeypatch, capsys):
    # every seed of an extension batch searches the same base, q and n, so
    # the base's independent-set cache is built once, not once per seed
    from ramsey_abc import abc_search, dataset

    built = []
    build = abc_search.build_indep_cache

    def counted_build(base, sizes):
        built.append(tuple(sizes))
        return build(base, sizes)

    monkeypatch.setattr(abc_search, "build_indep_cache", counted_build)
    params = abc_search.SearchParams(3, 10, 40, budget=200, mode=abc_search.EXTENSION_MODE)
    assert experiments.batch(params, range(3), dataset.extract_base()) is not None
    assert built == [tuple(range(5, 11))]
    assert capsys.readouterr().out.count("  seed ") == 3


@pytest.mark.parametrize("mode", ["extension", "full"])
def test_search_experiments_batch_makes_no_find_call(experiments, monkeypatch, capsys, mode):
    # every seed's best is certified by its counts alone; no violation is searched for
    from ramsey_abc import abc_search, dataset

    calls = spy_finds(monkeypatch, experiments)
    if mode == "extension":
        params = abc_search.SearchParams(3, 10, 40, budget=200, mode=abc_search.EXTENSION_MODE)
        assert experiments.batch(params, range(2), dataset.extract_base()) == 0
    else:
        assert experiments.batch(abc_search.SearchParams(3, 4, 8, budget=50), range(2)) == 0
    assert calls == {"find_clique": [], "find_independent_set": []}


@pytest.mark.parametrize("flags", [["--budget", "0"], ["--colony-size", "3"]])
def test_search_experiments_rejects_bad_params(experiments, capsys, flags):
    # --budget 0 is refused, not replaced by the default budget
    assert experiments.main(["--seeds", "1", *flags]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "search" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/reproduce_results.py"],
        ["scripts/search_experiments.py", "--seeds", "1", "--budget", "500"],
    ],
    ids=["reproduce_results", "search_experiments"],
)
def test_scripts_run_from_a_checkout_without_install(argv):
    # -S skips site-packages and PYTHONPATH is cleared, so the package is not
    # importable until the script puts the checkout's src/ on sys.path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "ModuleNotFoundError" not in done.stderr
    if argv[0] == "scripts/reproduce_results.py":
        # its own time to the ms, which the CI pin strips as [0-9.]+s
        last = done.stdout.splitlines()[-1]
        assert re.fullmatch(r"== ALL CHECKS PASS \(\d+\.\d{3}s\) ==", last), last
