"""A cold process loads scipy only when it solves an LP.

Each case runs a fresh interpreter under ``-X importtime``, which lists on
stderr every module the process imports, so the CLI runs exactly as
``python -m persuade`` does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from persuade import cli

SRC = Path(__file__).resolve().parent.parent / "src"
LP_MODULES = {"scipy.optimize", "scipy.sparse"}
README_INSTANCE = {
    "states": ["low", "mid", "high"],
    "actions": ["pass", "take"],
    "prior": [0.1, 0.6, 0.3],
    "sender_v": [[0, 1], [0, 1], [0, 1]],
    "receiver": {"kind": "expected", "u": [[0, 2], [0, -1], [0, -1]]},
}
README_QUEUE = ["--lambda", "0.95", "--beta", "2.5", "--tau", "7.5", "--capacity", "100"]


def _cold(*args):
    """Exit code, stdout and imported module names of ``python -X importtime ARGS``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc.returncode, proc.stdout, modules


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    """Interpreter arguments of each cold case, on the README instance and queue schemes."""
    root = tmp_path_factory.mktemp("cold")
    instance = root / "inst.json"
    instance.write_text(json.dumps(README_INSTANCE))
    scheme, queue_scheme = str(root / "scheme.json"), str(root / "queue.scheme.json")
    assert cli.run(["solve", "--instance", str(instance), "--out", scheme]) == 0
    assert cli.run(["queue", *README_QUEUE, "--out", queue_scheme]) == 0
    return {
        "import": ["-c", "import persuade"],
        "validate": ["-m", "persuade", "validate", "--instance", str(instance), "--scheme", scheme],
        "simulate": ["-m", "persuade", "simulate", "--scheme", queue_scheme, *README_QUEUE,
                     "--events", "10000", "--seed", "3"],
        "solve": ["-m", "persuade", "solve", "--instance", str(instance)],
    }


@pytest.mark.parametrize("case", ["import", "validate", "simulate"])
def test_no_lp_no_scipy_import(argvs, case):
    rc, _, modules = _cold(*argvs[case])
    assert rc == 0
    assert "persuade" in modules
    assert modules & LP_MODULES == set()


def test_cold_solve_loads_scipy_and_prints_the_in_process_bytes(argvs, capsys):
    capsys.readouterr()
    assert cli.run(argvs["solve"][2:]) == 0
    expected = capsys.readouterr().out
    rc, out, modules = _cold(*argvs["solve"])
    assert rc == 0
    assert out == expected
    assert "scipy.optimize" in modules
