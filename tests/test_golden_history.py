"""Pinned search trajectories: the SHA-256 of history.csv for fixed configs,
and the graph6 of each run's best position.

A pure refactor must leave these hashes unchanged. Two runs of one commit
agreeing (criterion 11) does not show that a change kept the search the same;
these values pin it across commits. Update them only with a change that is
meant to alter the search, and say so in CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from ramsey_abc import dataset
from ramsey_abc.abc_search import EXTENSION_MODE, SearchParams, run
from ramsey_abc.cli import RunConfig, _write_run_record, main
from ramsey_abc.construct import extension_to_graph

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
]


@pytest.mark.parametrize(
    "flags, digest, best_graph6", GOLDEN,
    ids=["full-3-4-8", "full-3-5-13", "ext-3-10-39", "full-4-4-12", "full-3-5-13-idle"],
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
    _write_run_record(tmp_path, RunConfig(params.resolved()), result, best_graph, 0.0)
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
