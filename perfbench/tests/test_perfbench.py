"""Tests of the benchmark's own code: inputs, checks and the traced run."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.trace import Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    QUEUE_CAPACITY,
    README_INSTANCE,
    CliCold,
    Known,
    Op,
    Outcome,
    QueueScale,
    QueueSim,
    Record,
    SimScheme,
    SolveFixed,
    check_solve,
    cli_op,
    exit_problem,
    fresh_out_op,
    rationing_params,
    run_op,
    solve_cycle,
)


def test_generator_is_deterministic_under_a_seed():
    assert solve_cycle(7, 3) == solve_cycle(7, 3)
    assert solve_cycle(7, 3) != solve_cycle(8, 3)
    assert solve_cycle(7, 3) != solve_cycle(7, 4)
    first = rationing_params(np.random.default_rng([7, 0]), 4)
    assert first == rationing_params(np.random.default_rng([7, 0]), 4)
    lam, beta, tau = first
    joinable = [n for n in range(50) if n + 1 + beta * np.sqrt(n + 1) <= tau]
    assert joinable == [0, 1, 2, 3]


def test_run_size_follows_seconds_not_the_clock():
    # Two runs of one seed must attempt the same ops, however fast the host.
    sizes = {cls.name: cls.__new__(cls).cycles(20) for cls in (SolveFixed, QueueScale, QueueSim, CliCold)}
    assert sizes == {"solve-fixed": 4, "queue-scale": 1, "queue-sim": 8, "cli-cold": 1}
    assert SolveFixed.__new__(SolveFixed).cycles(1) == 4


def test_queue_sim_keeps_its_mix_when_a_set_up_solve_fails():
    workload = QueueSim.__new__(QueueSim)
    workload.seed = 1
    workload.schemes = [SimScheme(0.7, 1.0, 5.0, 40, "a.json", 0.9, None),
                        SimScheme(1.5, 1.0, 5.0, 100, "b.json", 0.5, None)]
    for c in range(3):
        kinds = [op.kind for op in workload.cycle(c)]
        assert len(kinds) == 4 and kinds[-1] == "sample"
        assert all(kind.startswith("simulate:") for kind in kinds[:3])


def _move_posterior(doc):
    posterior = doc["signals"][0]["posterior"]
    i = int(np.argmax(posterior))
    posterior[i] -= 0.25
    posterior[(i + 1) % len(posterior)] += 0.25


def _drop_marginal(doc):
    del doc["signals"][0]["marginal"]


def _posterior_off_one(doc):
    doc["signals"][0]["posterior"][0] += 0.1


def _conditional_over_one(doc):
    # State "low" has prior 0.1: far more than float noise can touch.
    doc["conditional"][0][0] = 1.5


def _float_noise(doc):
    # The noise the solvers write: a conditional entry a few 1e-9 over 1,
    # a posterior entry a little under 0.
    doc["conditional"][0][0] += 3e-9
    doc["signals"][1]["posterior"][0] = -5e-11


def _noise_and_moved_posterior(doc):
    _float_noise(doc)
    _move_posterior(doc)


def _solve_readme(tmp_path, edit):
    """Run the README solve op, with ``edit`` applied to its --out scheme."""
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps(README_INSTANCE))
    out = tmp_path / "out.json"
    argv = ["solve", "--instance", str(instance), "--out", str(out)]

    def solve_then_edit(tracer=None, op_id=0):
        outcome = cli_op(argv)
        doc = json.loads(out.read_text())
        edit(doc)
        out.write_text(json.dumps(doc))
        return outcome

    execute = fresh_out_op(argv, out) if edit is None else solve_then_edit
    return run_op(Op("solve", execute, lambda o: check_solve(o, README_INSTANCE, out)))


def test_clean_out_scheme_passes(tmp_path):
    record = _solve_readme(tmp_path, None)
    assert not record.failed and not record.wrong


@pytest.mark.parametrize(
    "edit",
    [_move_posterior, _drop_marginal, _posterior_off_one, _conditional_over_one,
     _noise_and_moved_posterior],
)
def test_tampered_out_scheme_is_a_wrong_op(tmp_path, edit):
    record = _solve_readme(tmp_path, edit)
    assert record.outcome.rc == 0
    assert record.failed and record.wrong


def test_float_noise_in_out_scheme_is_the_known_defect(tmp_path):
    record = _solve_readme(tmp_path, _float_noise)
    assert record.failed and not record.wrong
    assert [type(p) for p in record.problems] == [Known]
    assert "does not read back" in record.problems[0]


def test_known_exit_messages_are_scoped_to_their_verb():
    boundary = "persuade: blend of states 0,29 misses the boundary: differential 1.416e+00"
    highs = "persuade: LP engine failed: (HiGHS Status 0: Not Set)"
    floor = "persuade: belief weight np.float64(-2.5e-11) below tolerance -1e-12"

    def known(line, verb, rc=2, **where):
        return isinstance(exit_problem(Outcome(rc, "", line, 0.0), verb, **where), Known)

    assert known(boundary, "solve", receiver="cvar")
    assert not known(boundary, "solve", receiver="mean_stdev")
    assert not known(boundary, "solve", rc=1, receiver="cvar")
    assert known(highs, "queue", capacity=QUEUE_CAPACITY)
    assert not known(highs, "queue", capacity=100)
    assert not known(highs, "solve")
    assert known(floor, "queue", capacity=100)
    assert not known(floor.replace("-2.5e-11", "-0.3"), "queue", capacity=100)
    assert not known(floor, "solve")


def test_cold_op_failing_otherwise_than_its_reference_is_wrong():
    workload = CliCold.__new__(CliCold)
    reference = Outcome(0, "{}", "", 0.0)
    known = Known("--out scheme does not read back: prior (float noise)")
    workload.reference = {"queue": Record("queue", reference, [known], 1)}
    crash = Outcome(1, "", "Traceback (most recent call last):\n  ...", 0.0)
    problems = workload._check("queue", crash)
    assert problems and not all(isinstance(p, Known) for p in problems)
    assert workload._check("queue", Outcome(0, "{}", "", 0.0)) == [known]
    assert workload._check("queue", Outcome(0, "{ }", "", 0.0)) != [known]


@pytest.mark.parametrize(
    "make",
    [
        lambda seed, workdir: SolveFixed(seed, workdir, ROOT),
        lambda seed, workdir: QueueScale(seed, workdir, ROOT),
        lambda seed, workdir: QueueSim(seed, workdir, ROOT),
        lambda seed, workdir: CliCold(seed, workdir, ROOT),
    ],
    ids=["solve-fixed", "queue-scale", "queue-sim", "cli-cold"],
)
def test_traced_stdout_matches_untraced(make, tmp_path):
    workload = make(3, tmp_path)
    ops = workload.cycle(0)
    # One op of each workload, plus the sampler op of queue-sim.
    chosen = [ops[0]] + [op for op in ops if op.kind == "sample"]
    tracer = Tracer()
    for op_id, op in enumerate(chosen):
        plain = run_op(op)
        traced = run_op(op, tracer, op_id)
        tracer.absorb(traced.outcome.spans, op_id)
        assert plain.outcome.rc == traced.outcome.rc == 0
        assert traced.outcome.stdout == plain.outcome.stdout
    metrics = layer_metrics(tracer.spans, 1)
    assert tracer.spans and all(end >= start for _, start, end, *_ in tracer.spans)
    assert all(value >= 0 for value in metrics.values())
