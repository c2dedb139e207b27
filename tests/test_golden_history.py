"""Pinned search trajectories: the SHA-256 of history.csv for fixed configs,
and the graph6 of each run's best position.

A pure refactor must leave these hashes unchanged. Two runs of one commit
agreeing (criterion 11) does not show that a change kept the search the same;
these values pin it across commits. Update them only with a change that is
meant to alter the search, and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from ramsey_abc import dataset
from ramsey_abc.abc_search import EXTENSION_MODE, WITNESS_FOUND, SearchParams, run
from ramsey_abc.cli import RunConfig, _write_run_record, main
from ramsey_abc.construct import extension_to_graph
from ramsey_abc.counting import build_indep_cache

GOLDEN = [
    (
        ["--p", "3", "--q", "4", "--n", "8", "--seed", "31"],
        "14a479db27d06f58fd8e5916a016ca88e4e3b623d6d1a3fd7df25971356a9488",
        "GGSsL_",
    ),
    (
        ["--p", "3", "--q", "5", "--n", "13", "--seed", "0", "--budget", "5000"],
        "8cadcb1a6bd86645d0a8c8cda416fa2e240e9107ea42ef03166ca4fe6f14810c",
        "L@HIVESOn?z?Da",
    ),
    (
        ["--mode", "extension", "--p", "3", "--q", "10", "--n", "39",
         "--seed", "0", "--budget", "1000"],
        "9796cccdcc6af15ca50cdcdd720c7e0ad7d4161de8e931104a16a729cd05fb9b",
        "fsaCCA?O?O_aC??`c@O@b?RcHQ?DcA@H?PC_@QO@@Q?DA@MP?RgKADoH?aR?KCbOC_JE?xO@AALC@"
        "AJPG?__V?_K@ROO_A@dOG@?_????cG?BKo@s?_PCB?kE?@A_",
    ),
    (
        ["--p", "4", "--q", "4", "--n", "12", "--seed", "0"],  # a witness after 405 evaluations
        "706182829882e06f85d04a8968e2a08a15725ac7a630cbc9378cfc48427fb76b",
        r"KPXpva\UfKpd",
    ),
    (
        # alpha < 1 leaves onlookers idle, and the run ends with scouts pending
        ["--p", "3", "--q", "5", "--n", "13", "--alpha", "0.5", "--maxlimit", "2",
         "--colony-size", "8", "--seed", "0", "--budget", "3000"],
        "f645867c356653a342870ace607a4cca10ae5e19c725de2d35146e36c6fc0c45",
        "LUCFAjCW@JbPIK",
    ),
    (
        # fresh positions here count their 10-sets by the recursion (counting.fitness)
        ["--p", "3", "--q", "10", "--n", "39", "--colony-size", "4", "--budget", "60",
         "--seed", "0"],
        "bb349b89a5051c61f915785477df200fcc7c357b23ea3463196bf4e1dc05789a",
        "f_?H?I?QgA??I?DW@?@AApASO?IGGo?C??Ia_g?Z??@_COCGA?@WBGO@?u_?h?hCJc?LOi?CE_?O??D?OsOE?o?"
        "uO@P?H_?EHK_BA?_[?PPG??ODOS@?D?AA?h?@?",
    ),
]


@pytest.mark.parametrize(
    "flags, digest, best_graph6", GOLDEN,
    ids=["full-3-4-8", "full-3-5-13", "ext-3-10-39", "full-4-4-12", "full-3-5-13-idle",
         "full-3-10-39"],
)
def test_history_csv_is_pinned(tmp_path, flags, digest, best_graph6):
    main(["search", *flags, "--out", str(tmp_path)])
    (run_dir,) = tmp_path.iterdir()
    assert hashlib.sha256((run_dir / "history.csv").read_bytes()).hexdigest() == digest
    # history.csv holds no position: pin the best one as well
    assert json.loads((run_dir / "result.json").read_text())["best_graph6"] == best_graph6


def test_library_run_matches_cli_golden(tmp_path):
    # run() derives the extension degree range itself, so the library
    # searches the space the CLI does and writes the same history
    (_, digest, best_graph6), = (case for case in GOLDEN if "extension" in case[0])
    params = SearchParams(3, 10, 39, mode=EXTENSION_MODE, seed=0, budget=1000)
    result = run(params, dataset.extract_base())
    best_graph = extension_to_graph(result.best_position)
    _write_run_record(tmp_path, RunConfig(params), result, best_graph, 0.0)
    assert hashlib.sha256((tmp_path / "history.csv").read_bytes()).hexdigest() == digest
    assert json.loads((tmp_path / "result.json").read_text())["best_graph6"] == best_graph6


def test_extension_golden_runs_without_numpy(tmp_path):
    # the package has no runtime dependency: with numpy made unimportable,
    # the CLI still writes the pinned extension history
    (flags, digest, _), = (case for case in GOLDEN if "extension" in case[0])
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # every import of numpy now raises ImportError\n"
        "from ramsey_abc.cli import main\n"
        "main(sys.argv[1:])\n"
        "assert sys.modules['numpy'] is None\n"
        "assert not [name for name in sys.modules if name.startswith('numpy.')]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "search", *flags, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    (run_dir,) = tmp_path.iterdir()
    assert hashlib.sha256((run_dir / "history.csv").read_bytes()).hexdigest() == digest


def _sweep_digest(runs) -> str:
    digest = hashlib.sha256()
    for result in runs:
        rows = [dataclasses.astuple(row) for row in result.history]
        digest.update(repr((result.reason, result.evaluations, result.rounds, rows)).encode())
    return digest.hexdigest()


def test_budget_boundary_is_pinned():
    # where a run stops when its budget runs out, at every budget around the
    # phases: the initial draws, an employed bee's second draw, a scout's
    # draw, the end of a round, and a witness found on the last evaluation
    full = [run(SearchParams(3, 5, 12, colony_size=6, maxlimit=2, seed=0, budget=b))
            for b in range(1, 121)]
    base = dataset.extract_base()
    cache = build_indep_cache(base, range(6, 11))
    ext = [run(SearchParams(3, 10, 39, colony_size=4, maxlimit=2, mode=EXTENSION_MODE,
                            seed=0, budget=b), base, cache)
           for b in range(1, 41)]
    witness = []
    for seed in range(20):
        small = SearchParams(3, 3, 5, colony_size=4, maxlimit=2, seed=seed, budget=10_000)
        found = run(small)
        assert found.reason == WITNESS_FOUND
        needed = found.evaluations
        witness += [run(dataclasses.replace(small, budget=b))
                    for b in range(max(1, needed - 3), needed + 2)]
    assert [_sweep_digest(full), _sweep_digest(ext), _sweep_digest(witness)] == [
        "55ec7f315abe2f89e5aedd8d115dcf67bebfa92ab25390d76a7c5671df63ad0b",
        "a1e5417345cd7b4d30fbd40a2ed4029c59c721d14e39d6d958e08da537bad0d1",
        "3e7f4421fd3ccb951e29bd0c65cf25094073303e8283fc98577b3a53426e2977",
    ]
