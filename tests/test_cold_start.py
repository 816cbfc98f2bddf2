"""A cold process never loads ``scipy.optimize`` or ``scipy.sparse``.

The LP verbs load scipy's HiGHS extension module by itself, and every
LP's constraints are a numpy ``CscMatrix``.

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
        "check-full": ["-m", "persuade", "check-full", "--instance", str(instance)],
        "queue": ["-m", "persuade", "queue", *README_QUEUE],
    }


@pytest.mark.parametrize("case", ["import", "validate", "simulate"])
def test_no_lp_no_scipy_import(argvs, case):
    rc, _, modules = _cold(*argvs[case])
    assert rc == 0
    assert "persuade" in modules
    assert modules & LP_MODULES == set()


@pytest.mark.parametrize(
    "verb, loaded",
    [("solve", set()), ("check-full", set()), ("queue", set())],
    ids=["solve", "check-full", "queue"],
)
def test_cold_lp_verb_prints_the_in_process_bytes_without_scipy_optimize(argvs, capsys, verb, loaded):
    # HiGHS loads by itself, and the queue's flow LP is a numpy CSC matrix.
    capsys.readouterr()
    assert cli.run(argvs[verb][2:]) == 0
    expected = capsys.readouterr().out
    rc, out, modules = _cold(*argvs[verb])
    assert rc == 0
    assert out == expected
    assert modules & LP_MODULES == loaded


ENGINE_AND_SCIPY = """
import sys
import numpy as np
from persuade.geometry import HIGHS_CORE, CscMatrix, LinearProgram, solve_lp

a = np.array([[1.0, 1, 1, 1], [0, 1, 2, 3]])
lp = LinearProgram(np.arange(4.0), CscMatrix.from_dense(a), np.array([1.0, 1.5]))
answers = []
for step in {order}:
    if step == "solve":
        answers.append(solve_lp(lp))
    else:
        assert "scipy.optimize" not in sys.modules
        import scipy.optimize
assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is sys.modules[HIGHS_CORE]
assert [name for name in sys.modules if name.endswith("_highspy._core")] == [HIGHS_CORE]
assert scipy.optimize.linprog(-lp.c, A_eq=a, b_eq=lp.b_eq, method="highs-ds").success
print(len({{(res.x.tobytes(), res.dual.tobytes()) for res in answers}}))
"""


@pytest.mark.parametrize(
    "order",
    [("solve", "import", "solve"), ("import", "solve")],
    ids=["engine-first", "scipy-first"],
)
def test_one_highs_module_whichever_loads_it_first(order):
    # Loaded before scipy.optimize, the engine is the module scipy then
    # uses; loaded after, it is scipy's.  Either way one copy, one answer.
    rc, out, _ = _cold("-c", ENGINE_AND_SCIPY.format(order=order))
    assert rc == 0
    assert out == "1\n"
