"""The four workloads: seeded inputs, the ops that run them, and output checks.

Every op goes through a public entry point of ``persuade``: ``cli.run`` in
process with stdout captured, a library function, or a ``python -m
persuade`` child process.  A workload builds its inputs from the seed in
``__init__`` (the set-up that ``setup_s`` times) and hands out its ops one
cycle at a time; a cycle holds every kind of op in fixed proportions, so a
run of whole cycles always has the same mix.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import persuade.cli
import persuade.scheme
from persuade.scheme import POSTERIOR_TOLERANCE, ROW_SUM_TOLERANCE
from persuade import (
    ActionSpace,
    Belief,
    FormatError,
    PersuasionInstance,
    QueueInstance,
    SenderUtility,
    StateSpace,
    instance_from_json,
    queue_model,
    scheme_from_json,
    scheme_to_json,
    scheme_value,
    validate_scheme,
)

# A solve's reported value must match the re-scored --out scheme this closely.
VALUE_TOLERANCE = 1e-7
# Value may sit this far under a baseline it has to dominate.
BASELINE_SLACK = 1e-9
# Queue occupancy must sum to one within this.
OCCUPANCY_TOLERANCE = 1e-9
# Simulated join rates and sampled signal frequencies may stray this many
# standard errors from their exact values ...
Z_BOUND = 5.0
# ... plus this much, for schemes where every batch reads the same rate.
RATE_FLOOR = 1e-6

# Known defects of the program (perfbench/README.md lists them).  Each check
# names one only where it can see that defect and no other cause: the verb,
# the exit code, the exact message and the size of the numbers in it.  Ops
# that hit one still count as failed; they do not make a run incorrect.
#
# compute_k01 bisects across the CVaR score's jump when an accept state's
# loss law lies wholly at or below tau; solve exits 2.
MISSES_BOUNDARY = re.compile(r"persuade: blend of states \d+,\d+ misses the boundary: .*")
# HiGHS fails on the dense capacity-1600 flow LP of about half the
# full-persuasion instances; queue exits 2.
HIGHS_FAILED = re.compile(r"persuade: LP engine failed: .*HiGHS Status.*")
# HiGHS returns a flow LP solution over solve_lp's equality tolerance on
# about 1% of small queue solves; queue exits 2.
LP_RESIDUAL = re.compile(r"persuade: equality residual ([0-9.e+-]+) out of tolerance")
# solve_queue builds a Belief from an LP prior with an entry a little under
# Belief's -1e-12 floor, on about 1% of small queue solves; queue exits 2.
BELIEF_FLOOR = re.compile(
    r"persuade: belief weight (?:np\.float64\()?(-[0-9.e+-]+)\)? below tolerance -1e-12"
)
# Largest equality residual and deepest belief entry put down to LP noise.
LP_NOISE = 1e-6
BELIEF_NOISE = 1e-9
# solve_queue drops LP weights <= 1e-12 from the plan but not from the
# prior, so tail states keep prior mass that the law covers only in part or
# not at all.  Largest prior mass of a state that defect can touch:
UNCOVERED_MASS = 1e-9
# The solvers accept LP solutions with equality residuals up to 1e-9 times
# the right-hand side scale, which validate_scheme's 1e-9 Bayes tolerance
# then flags.  Largest Bayes residual put down to that round-off:
ROUNDOFF_RESIDUAL = 1e-7
# Solvers write --out schemes with float noise that scheme_from_json
# rejects: prior and posterior entries a little below 0, conditional
# entries a little over 1, and any conditional entry at all (seen from
# -1.3 to 41) on queue tail states of near-zero prior.  The largest noise
# of each kind elsewhere:
NEGATIVE_NOISE = 1e-10
CONDITIONAL_NOISE = 1e-8

# README example instance (the cli-cold solve / check-full / validate input).
README_INSTANCE = {
    "states": ["low", "mid", "high"],
    "actions": ["pass", "take"],
    "prior": [0.1, 0.6, 0.3],
    "sender_v": [[0, 1], [0, 1], [0, 1]],
    "receiver": {"kind": "expected", "u": [[0, 2], [0, -1], [0, -1]]},
}


class Known(str):
    """A problem that is one of the program's known defects."""


@dataclass
class Outcome:
    """What one op produced: exit code, stdout (or a digest), its wall time."""

    rc: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    value: object = None


@dataclass
class Op:
    """One unit of work; ``check`` lists what is wrong with an outcome."""

    kind: str
    execute: Callable[..., Outcome]
    check: Callable[[Outcome], list[str]]
    work: int = 1


@dataclass
class Record:
    """One executed op and what its checks found."""

    kind: str
    outcome: Outcome
    problems: list
    work: int
    mismatch: bool = False
    # Host-speed gauge time around this run, in seconds (run.py sets it).
    gauge: float = 0.0

    @property
    def failed(self) -> bool:
        return self.outcome.rc != 0 or bool(self.problems)

    @property
    def wrong(self) -> bool:
        # A failure other than a known defect of the program is a wrong
        # answer, as is a traced op printing other bytes than its twin.
        return self.mismatch or not all(isinstance(p, Known) for p in self.problems)


def run_op(op, tracer=None, op_id: int = 0) -> Record:
    outcome = op.execute(tracer, op_id)
    try:
        problems = op.check(outcome)
    except Exception as exc:  # malformed output fails the op, not the benchmark
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    outcome.value = None  # checked; drawn samples would otherwise pile up
    return Record(op.kind, outcome, problems, op.work)


def _first_line(text: str) -> str:
    return text.strip().splitlines()[0] if text.strip() else ""


def _recording(tracer, op_id: int):
    return nullcontext() if tracer is None else tracer.recording(op_id)


def cli_op(argv: list[str], tracer=None, op_id: int = 0) -> Outcome:
    """``persuade.cli.run(argv)`` in process, stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), _recording(tracer, op_id):
        start = perf_counter()
        try:
            rc = persuade.cli.run(argv)
        except Exception:  # a traceback is a failed op, as in a real process
            traceback.print_exc()
            rc = 1
        seconds = perf_counter() - start
    return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(), seconds=seconds)


def fresh_out_op(argv: list[str], out: Path):
    """An in-process op whose --out file is removed first, so a stale one never passes."""

    def execute(tracer=None, op_id: int = 0) -> Outcome:
        out.unlink(missing_ok=True)
        return cli_op(argv, tracer, op_id)

    return execute


def child_op(root: Path, workdir: Path, argv: list[str], tracer=None, op_id: int = 0) -> Outcome:
    """One fresh ``python -m persuade`` process; traced, a recording wrapper."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spans_path = workdir / f"spans-{op_id}.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "persuade", *argv]
    else:
        cmd = [sys.executable, str(root / "perfbench" / "child.py"), str(spans_path), *argv]
    with open(workdir / "child.err", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err)
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    spans = []
    if tracer is not None and spans_path.exists():
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    return Outcome(
        rc=proc.returncode,
        stdout=stdout.decode("utf-8"),
        stderr=stderr,
        seconds=seconds,
        rss_mb=usage.ru_maxrss / 1024.0,
        spans=spans,
    )


def without_noise(doc):
    """``doc`` with the solvers' float noise clipped away, or None.

    None when any entry strays further than that noise: a prior or
    posterior entry below -NEGATIVE_NOISE, or a conditional entry outside
    [-NEGATIVE_NOISE, 1 + CONDITIONAL_NOISE] on a state whose prior is above
    UNCOVERED_MASS.  Clipping leaves every other fault (a missing field, a
    wrong length, a posterior that does not sum to 1) for scheme_from_json
    to reject.
    """
    try:
        prior = np.array(doc["prior"], dtype=float)
        cond = np.array(doc["conditional"], dtype=float)
        posteriors = [np.array(s["posterior"], dtype=float) for s in doc["signals"]]
    except (KeyError, TypeError, ValueError):
        return None
    if cond.ndim != 2 or cond.shape[1:] != prior.shape:
        return None
    lowest = min([prior.min(initial=0.0)] + [p.min(initial=0.0) for p in posteriors])
    live = cond[:, prior > UNCOVERED_MASS]
    if (lowest < -NEGATIVE_NOISE or live.min(initial=0.0) < -NEGATIVE_NOISE
            or live.max(initial=0.0) > 1.0 + CONDITIONAL_NOISE):
        return None
    return dict(
        doc,
        prior=np.clip(prior, 0.0, None).tolist(),
        conditional=np.clip(cond, 0.0, 1.0).tolist(),
        signals=[dict(s, posterior=np.clip(p, 0.0, None).tolist())
                 for s, p in zip(doc["signals"], posteriors)],
    )


def read_out(path: Path, problems: list):
    """The --out scheme, or None with the reason appended to ``problems``.

    A scheme that scheme_from_json rejects for the solvers' float noise
    alone (a known defect) is read with that noise clipped away, so that it
    is still validated and re-scored.  Any other rejection is a wrong answer.
    """
    doc = json.loads(Path(path).read_text())
    try:
        return scheme_from_json(doc)
    except FormatError as exc:
        problem = f"--out scheme does not read back: {exc}"
    cleaned = without_noise(doc)
    try:
        scheme = scheme_from_json(cleaned)
    except FormatError:
        problems.append(problem)
        return None
    problems.append(Known(f"{problem} (float noise)"))
    return scheme


def simulator_input(path: Path):
    """A checked --out scheme rewritten with its float noise clipped away.

    The simulate verb rejects the noise too; clipping moves nothing but
    entries of states of near-zero prior mass.
    """
    scheme = read_out(path, [])
    Path(path).write_text(json.dumps(scheme_to_json(scheme)))
    return scheme


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Checks


def exit_problem(outcome: Outcome, verb: str, receiver: str = "", capacity: int = 0) -> str:
    """The problem of an op that exited nonzero, Known if a defect of this verb explains it.

    ``receiver`` is a solve instance's receiver kind, ``capacity`` a queue's.
    """
    line = _first_line(outcome.stderr)
    problem = f"exit {outcome.rc}: {line}"
    if outcome.rc != 2:
        return problem
    if verb == "solve":
        known = receiver == "cvar" and MISSES_BOUNDARY.fullmatch(line)
    elif verb == "queue":
        residual = LP_RESIDUAL.fullmatch(line)
        floor = BELIEF_FLOOR.fullmatch(line)
        known = (
            (residual and float(residual[1]) <= LP_NOISE)
            or (floor and float(floor[1]) >= -BELIEF_NOISE)
            or (capacity == QUEUE_CAPACITY and HIGHS_FAILED.fullmatch(line))
        )
    else:
        known = False
    return Known(problem) if known else problem


def residuals_above(scheme, floor: float) -> tuple[float, float]:
    """Bayes and posterior residuals over states and signals of mass above ``floor``."""
    prior = scheme.prior
    columns = scheme.conditional[:, prior > floor].sum(axis=0)
    bayes = float(np.max(np.abs(columns - 1.0), initial=0.0))
    posterior = 0.0
    for row, signal in zip(scheme.conditional, scheme.signals):
        implied = float(row @ prior)
        if signal.marginal > floor and implied > 0.0:
            gap = float(np.max(np.abs(row * prior / implied - signal.posterior)))
            posterior = max(posterior, gap)
    return bayes, posterior


def validation_problems(scheme, instance, queue: bool = False) -> list[str]:
    """``validate_scheme`` verdict, naming a known defect when one is the cause.

    ``queue`` marks a scheme of ``solve_queue``, whose states of prior and
    signals of marginal below UNCOVERED_MASS carry noise-level LP weights
    and are left out of the known-defect test.
    """
    report = validate_scheme(scheme, instance)
    if report.ok:
        return []
    bayes, posterior = residuals_above(scheme, UNCOVERED_MASS if queue else 0.0)
    summary = (f"bayes_residual {report.bayes_residual:.2e}, posterior_residual "
               f"{report.posterior_residual:.2e}, {len(report.flagged)} flagged")
    if not report.flagged and bayes <= ROUNDOFF_RESIDUAL and posterior <= POSTERIOR_TOLERANCE:
        where = "; within LP round-off"
        if bayes < report.bayes_residual or posterior < report.posterior_residual:
            where += " once states and signals of near-zero mass are left out"
        return [Known(f"--out scheme fails validate_scheme: {summary}{where}")]
    return [f"--out scheme fails validate_scheme: {summary}"]


def check_solve(outcome: Outcome, instance_doc: dict, out_path: Path) -> list[str]:
    """stdout is JSON; the --out scheme validates and re-scores to ``value``."""
    if outcome.rc != 0:
        return [exit_problem(outcome, "solve", receiver=instance_doc["receiver"]["kind"])]
    doc = json.loads(outcome.stdout)
    instance = instance_from_json(instance_doc)
    problems = []
    scheme = read_out(out_path, problems)
    value = doc["value"]
    if scheme is not None:
        problems += validation_problems(scheme, instance)
        rescored = scheme_value(scheme, instance)
        if not abs(rescored - value) <= VALUE_TOLERANCE:
            problems.append(f"scheme_value {rescored!r} != reported value {value!r}")
    if not value >= doc["baselines"]["full_info"] - BASELINE_SLACK:
        problems.append("value below full_info")
    if doc["method"] == "binary" and not value >= doc["baselines"]["no_info"] - BASELINE_SLACK:
        problems.append("binary value below no_info")
    return problems


def queue_persuasion(lam: float, beta: float, tau: float, capacity: int, prior) -> PersuasionInstance:
    """The fixed-prior game a queue scheme answers, built from the public API."""
    return PersuasionInstance(
        states=StateSpace(tuple(str(n) for n in range(capacity))),
        actions=ActionSpace(("leave", "join")),
        prior=Belief(np.asarray(prior, dtype=float)),
        sender=SenderUtility(np.column_stack([np.zeros(capacity), np.ones(capacity)])),
        receiver=queue_model(QueueInstance(lam, beta, tau, capacity)),
    )


def check_queue(outcome: Outcome, params: tuple, out_path: Path) -> list[str]:
    """Threshold holds, sandwich ok, occupancy a law, --out scheme validates."""
    if outcome.rc != 0:
        return [exit_problem(outcome, "queue", capacity=params[3])]
    doc = json.loads(outcome.stdout)
    problems = []
    if doc["threshold"]["holds"] is not True:
        problems.append("threshold does not hold")
    sandwich = doc["sandwich"]
    if sandwich["applicable"] and not sandwich["passed"]:
        problems.append("sandwich audit fails")
    if not abs(math.fsum(doc["occupancy"]) - 1.0) <= OCCUPANCY_TOLERANCE:
        problems.append("occupancy does not sum to 1")
    scheme = read_out(out_path, problems)
    if scheme is not None:
        problems += validation_problems(scheme, queue_persuasion(*params, scheme.prior), queue=True)
    return problems


def check_verdict(outcome: Outcome, verb: str, ok: Callable[[dict], bool]) -> list[str]:
    """The verb exited 0 and ``ok`` accepts its JSON stdout."""
    if outcome.rc != 0:
        return [exit_problem(outcome, verb)]
    return [] if ok(json.loads(outcome.stdout)) else [f"{verb} printed a wrong verdict"]


def check_samples(outcome: Outcome, schemes) -> list[str]:
    """Each signal's sampled frequency is within Z_BOUND binomial SEs of its marginal.

    ``outcome.value`` holds one (states, signals) draw per scheme.
    """
    problems = []
    for scheme, (states, signals) in zip(schemes, outcome.value):
        n = signals.size
        counts = np.bincount(signals, minlength=scheme.n_signals)
        if states.min() < 0 or states.max() >= scheme.prior.size:
            problems.append("sampled state out of range")
        for sig, count in zip(scheme.signals, counts):
            m = sig.marginal
            if abs(count / n - m) > Z_BOUND * math.sqrt(m * (1.0 - m) / n) + RATE_FLOOR:
                problems.append(
                    f"signal {sig.label}: frequency {count / n:.5f} vs marginal {m:.5f}"
                )
    return problems


class Workload:
    """A named op mix; subclasses build their inputs from a seed in ``__init__``."""

    name = ""
    # A run is --seconds over this nominal time of one cycle (all passes)
    # on the host the benchmark was built on, in whole cycles within these
    # bounds.  The count depends on --seconds alone, never on the clock, so
    # two runs of one seed attempt the same ops.
    cycle_seconds = 1.0
    min_cycles = 1
    max_cycles: int | None = None
    # Each op executes this many times, in passes spread over the run, and
    # counts its fastest time, as timeit does.
    repeats = 3
    # Whether op times are scaled by the host-speed gauge (run.py): true
    # where ops run in this process, whose speed the gauge reads.
    gauged = True
    # Ops run during set-up to make inputs, checked like every other op.
    setup_records: tuple[Record, ...] | list[Record] = ()

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def cycles(self, seconds: float) -> int:
        """Cycles in a run of ``seconds``."""
        n = max(self.min_cycles, round(seconds / self.cycle_seconds))
        return n if self.max_cycles is None else min(n, self.max_cycles)

    def finish(self, records: list[Record]) -> None:
        """Checks that need every record of the run."""


# ---------------------------------------------------------------------------
# solve-fixed


def _accept_signs(rng, d):
    # Half the states accept outright, each clear of indifference by at least
    # 0.05, so every instance of a size has the same number of k01 pairs.
    signs = -np.ones(d)
    signs[rng.choice(d, d // 2, replace=False)] = 1.0
    return signs * rng.uniform(0.05, 1.0, d)


def _mean_stdev(rng, d):
    # Action 0's payoff moments do not move with the state: convex reject region.
    g_mean = np.zeros((d, 2))
    g_var = np.zeros((d, 2))
    g_mean[:, 0], g_var[:, 0] = 0.5, 0.25
    g_mean[:, 1] = rng.uniform(0.0, 1.0, d)
    g_var[:, 1] = rng.uniform(0.05, 1.0, d)
    beta = float(rng.uniform(0.2, 1.0))
    u = np.zeros((d, 2))
    u[:, 1] = beta * (np.sqrt(g_var[:, 1]) - 0.5) + _accept_signs(rng, d)
    return {"kind": "mean_stdev", "u": u.tolist(), "g_mean": g_mean.tolist(),
            "g_var": g_var.tolist(), "beta": beta}


def _maximin(rng, d):
    # Identical action-1 columns across scenarios: convex reject region.
    tables = np.zeros((int(rng.integers(2, 5)), d, 2))
    tables[:, :, 0] = rng.uniform(-1.0, 1.0, tables.shape[:2])
    tables[:, :, 1] = tables[:, :, 0].min(axis=0) + _accept_signs(rng, d)
    return {"kind": "maximin", "tables": tables.tolist()}


def _loss_law(rng):
    return sorted(rng.uniform(0.0, 2.0, 4).tolist()), rng.dirichlet(np.ones(4)).tolist()


def _cvar(rng, d):
    # One action-0 loss law for every state: convex reject region.
    reject_values, reject_probs = _loss_law(rng)
    values, probs = [], []
    for _ in range(d):
        v, p = _loss_law(rng)
        values.append([reject_values, v])
        probs.append([reject_probs, p])
    return {"kind": "cvar", "loss_values": values, "loss_probs": probs,
            "tau": float(rng.uniform(0.2, 1.0))}


def _three_action(rng, d):
    return {"kind": "expected", "u": rng.uniform(-1.0, 1.0, (d, 3)).tolist()}


def _nonconvex(rng, d):
    # Action-0 moments vary with the state, so the binary fast path is off.
    doc = _mean_stdev(rng, d)
    doc["g_mean"] = rng.uniform(0.0, 1.0, (d, 2)).tolist()
    doc["g_var"] = rng.uniform(0.05, 1.0, (d, 2)).tolist()
    return doc


def solve_instance(rng, receiver, d: int) -> dict:
    n_actions = 3 if receiver is _three_action else 2
    sender = (
        rng.uniform(0.0, 1.0, (d, 3)).tolist() if n_actions == 3 else [[0.0, 1.0]] * d
    )
    return {
        "states": [f"s{i}" for i in range(d)],
        "actions": [f"a{i}" for i in range(n_actions)],
        "prior": rng.dirichlet(np.ones(d)).tolist(),
        "sender_v": sender,
        "receiver": receiver(rng, d),
    }


# One cycle: each binary family over a ladder of state counts, then the
# grid-only instances over a ladder of (receiver, states, grid k) from
# about 1.8k to 46k grid points.  Cycle c takes ladder c mod 4; the four
# interleave, so a run's op times fill the range with no gaps where a
# percentile could jump between seeds.
BINARY_FAMILIES = (("mean_stdev", _mean_stdev), ("maximin", _maximin), ("cvar", _cvar))
BINARY_LADDERS = (
    (8, 12, 16, 22, 28, 36),
    (9, 13, 18, 24, 31, 40),
    (10, 14, 20, 26, 33, 38),
    (11, 15, 19, 25, 30, 34),
)
GRID_LADDER = (
    (_three_action, 4, 20),
    (_nonconvex, 4, 36),
    (_three_action, 6, 12),
    (_nonconvex, 5, 24),
    (_three_action, 6, 16),
    (_nonconvex, 5, 30),
)
# Distinct cycles of inputs generated at set-up; longer runs repeat them.
SOLVE_POOL_CYCLES = 8


def solve_cycle(seed: int, c: int) -> list[tuple[str, dict, list[str]]]:
    """Cycle ``c`` of the solve-fixed stream: (family, instance, extra flags)."""
    items = []
    for f, (family, receiver) in enumerate(BINARY_FAMILIES):
        for i, d in enumerate(BINARY_LADDERS[c % len(BINARY_LADDERS)]):
            rng = np.random.default_rng([seed, c, f, i])
            items.append((family, solve_instance(rng, receiver, d), []))
    for i, (receiver, d, k) in enumerate(GRID_LADDER):
        rng = np.random.default_rng([seed, c, len(BINARY_FAMILIES), i])
        items.append(("grid", solve_instance(rng, receiver, d), ["--grid-k", str(k)]))
    return items


class SolveFixed(Workload):
    """Seeded fixed-prior instances through the in-process ``solve`` verb."""

    name = "solve-fixed"
    # At least four cycles (96 ops, one of each ladder), so the 90th
    # percentile has about ten ops beyond it.  The seed's draw of instances
    # moves the median more than a second pass steadies it, so each op runs
    # once and a run holds more distinct instances instead.
    cycle_seconds = 5.0
    min_cycles = 4
    repeats = 1

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.workdir = workdir
        self.pool = [solve_cycle(seed, c) for c in range(SOLVE_POOL_CYCLES)]
        warm = np.random.default_rng([seed, 1 << 20])
        for receiver in [r for _, r in BINARY_FAMILIES] + [_three_action]:
            doc = solve_instance(warm, receiver, 4)
            path = _write_json(workdir / "warm.json", doc)
            cli_op(["solve", "--instance", path, "--out", str(workdir / "warm.out.json")])

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (family, doc, extra) in enumerate(self.pool[c % len(self.pool)]):
            path = _write_json(self.workdir / f"inst-{c}-{i}.json", doc)
            out = self.workdir / f"inst-{c}-{i}.out.json"
            argv = ["solve", "--instance", path, "--out", str(out), *extra]
            ops.append(
                Op(
                    kind=family,
                    execute=fresh_out_op(argv, out),
                    check=lambda o, doc=doc, out=out: check_solve(o, doc, out),
                )
            )
        return ops


# ---------------------------------------------------------------------------
# queue-scale


def _accept_bound(n: int, beta: float) -> float:
    # Patience needed to join behind n others outright.
    return n + 1 + beta * math.sqrt(n + 1)


def rationing_params(rng, accept_states: int) -> tuple[float, float, float]:
    """λ ≳ 0.9 and τ set so exactly ``accept_states`` lengths are joinable."""
    lam = float(rng.uniform(0.9, 1.3))
    beta = float(rng.uniform(0.5, 2.5))
    lo, hi = _accept_bound(accept_states - 1, beta), _accept_bound(accept_states, beta)
    return lam, beta, float(lo + rng.uniform(0.1, 0.9) * (hi - lo))


# Full-persuasion ops: low λ, β = 0, so nobody is told to leave and every
# length gets a signal.  A fixed sweep around λ = 0.6, τ = 5.5 rather than a
# draw: the dense flow LP fails in HiGHS (exit 2) on about half of this
# region's instances, scattered through it, and one draw per run would make
# every run-level figure bimodal.  The sweep fails on 0.55 and 0.65 and
# solves 0.6 (60 signals, 3.9 MB of stdout) in every run.
PERSUASION_SWEEP = ((0.55, 0.0, 5.5), (0.6, 0.0, 5.5), (0.65, 0.0, 5.5))


# Joinable lengths of the rationing ops of a cycle: 5 signals each.  Four
# ops of one size, so the median op is always one of them, and one that
# fails early in HiGHS (defect 5) moves it by a rank within them.
RATIONING_ACCEPT = (4, 4, 4, 4)
QUEUE_CAPACITY = 1600


class QueueScale(Workload):
    """The in-process ``queue`` verb at capacity 1600, both regimes per cycle.

    A cycle is four seeded rationing ops (4 joinable lengths each) and the
    full-persuasion sweep, so the median op is a rationing solve.
    """

    name = "queue-scale"
    # One cycle of seven ops is a run: a second would outlast the time
    # limits, and ops of seconds average the bursts out themselves.
    max_cycles = 1
    repeats = 1

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0])
        self.params = [("rationing", rationing_params(rng, a)) for a in RATIONING_ACCEPT] + [
            ("persuasion", params) for params in PERSUASION_SWEEP
        ]
        warm = rationing_params(np.random.default_rng([seed, 1 << 20]), 4)
        cli_op(self._argv(warm, 100, workdir / "warm.out.json"))

    @staticmethod
    def _argv(params, capacity, out) -> list[str]:
        lam, beta, tau = params
        return ["queue", "--lambda", repr(lam), "--beta", repr(beta), "--tau", repr(tau),
                "--capacity", str(capacity), "--out", str(out)]

    def cycle(self, c: int) -> list[Op]:
        ops = []
        for i, (regime, params) in enumerate(self.params):
            out = self.workdir / f"queue-{c}-{i}.out.json"
            argv = self._argv(params, QUEUE_CAPACITY, out)
            ops.append(
                Op(
                    kind=regime,
                    execute=fresh_out_op(argv, out),
                    check=lambda o, p=(*params, QUEUE_CAPACITY), out=out: check_queue(o, p, out),
                )
            )
        return ops

# ---------------------------------------------------------------------------
# queue-sim


# (λ, capacity, joinable lengths) of the three schemes solved at set-up.
SIM_QUEUES = ((0.7, 40, 3), (0.95, 70, 4), (1.5, 100, 5))
SIM_EVENTS = 20_000
# Pairs a sample op draws from each scheme.
SAMPLE_DRAWS = 400_000


class SimScheme(NamedTuple):
    """A queue scheme solved at set-up, with the LP join probability."""

    lam: float
    beta: float
    tau: float
    capacity: int
    path: str
    join: float
    scheme: object


class QueueSim(Workload):
    """Simulator and scheme sampler on small queue schemes solved at set-up.

    A cycle runs the in-process ``simulate`` verb for SIM_EVENTS events
    once per queue of SIM_QUEUES, then one sample op: a
    ``sample_scheme_batch`` draw of SAMPLE_DRAWS pairs from each scheme.
    With three simulate ops to one sample op, the median op is a simulate
    run and the 90th percentile a sample op.  When a set-up solve fails,
    the solved schemes take its simulate op in turn, so every run has the
    same mix.
    """

    name = "queue-sim"
    # The batch-means check needs a few simulate runs per scheme.
    cycle_seconds = 2.4
    min_cycles = 4

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.setup_records = []
        self.schemes = []
        for j, (lam, capacity, joinable) in enumerate(SIM_QUEUES):
            rng = np.random.default_rng([seed, j])
            _, beta, tau = rationing_params(rng, joinable)
            path = workdir / f"sim-{j}.scheme.json"
            argv = ["queue", "--lambda", repr(lam), "--beta", repr(beta), "--tau", repr(tau),
                    "--capacity", str(capacity), "--out", str(path)]
            params = (lam, beta, tau, capacity)
            solved = run_op(Op("set-up queue", lambda tracer=None, op_id=0, argv=argv: cli_op(argv),
                               lambda o, params=params, path=path: check_queue(o, params, path)))
            self.setup_records.append(solved)
            if solved.outcome.rc != 0 or solved.wrong:
                # A scheme the program cannot solve is a failed set-up op;
                # the run goes on with the others.
                continue
            join = json.loads(solved.outcome.stdout)["join_probability"]
            scheme = simulator_input(path)
            self.schemes.append(SimScheme(lam, beta, tau, capacity, str(path), join, scheme))
        if not self.schemes:
            raise RuntimeError(f"no queue-sim scheme solved: {[r.problems for r in self.setup_records]}")
        cli_op(self._sim_argv(self.schemes[0], 0))
        _sample_op([self.schemes[0].scheme], 0)

    @staticmethod
    def _sim_argv(s: SimScheme, sim_seed: int) -> list[str]:
        return ["simulate", "--scheme", s.path, "--lambda", repr(s.lam),
                "--capacity", str(s.capacity), "--tau", repr(s.tau), "--beta", repr(s.beta),
                "--events", str(SIM_EVENTS), "--seed", str(sim_seed)]

    def cycle(self, c: int) -> list[Op]:
        seeds = np.random.default_rng([self.seed, c]).integers(2**31, size=len(SIM_QUEUES) + 1)
        ops = []
        for j in range(len(SIM_QUEUES)):
            entry = self.schemes[(c * len(SIM_QUEUES) + j) % len(self.schemes)]
            argv = self._sim_argv(entry, int(seeds[j]))
            ops.append(
                Op(
                    kind=f"simulate:{entry.lam}",
                    execute=lambda tracer=None, op_id=0, argv=argv: cli_op(argv, tracer, op_id),
                    check=self._check_sim,
                    work=SIM_EVENTS,
                )
            )
        schemes = [entry.scheme for entry in self.schemes]
        ops.append(
            Op(
                kind="sample",
                execute=lambda tracer=None, op_id=0, s=int(seeds[-1]): _sample_op(
                    schemes, s, tracer, op_id
                ),
                check=lambda o: check_samples(o, schemes),
                work=SAMPLE_DRAWS * len(schemes),
            )
        )
        return ops

    @staticmethod
    def _check_sim(outcome: Outcome) -> list[str]:
        if outcome.rc != 0:
            return [exit_problem(outcome, "simulate")]
        doc = json.loads(outcome.stdout)
        if doc["events"] != SIM_EVENTS or doc["arrivals"] <= 0:
            return ["simulation did not run its events"]
        return []

    def finish(self, records) -> None:
        """Batch means: each simulate op is one batch of SIM_EVENTS events.

        The spread of the batches' join rates is the standard error of one
        batch, autocorrelation included; each batch must sit within Z_BOUND
        of them from the LP join probability, and the mean of the batches
        within Z_BOUND standard errors of the mean.  When leaving is rare
        (a few clumped leaves per batch) a handful of batches understates
        that spread, so it is floored at the binomial standard error of a
        batch, which the positive autocorrelation of a queue can only raise.
        """
        for entry in self.schemes:
            join = entry.join
            batch = [r for r in records if r.kind == f"simulate:{entry.lam}" and not r.problems]
            docs = [json.loads(r.outcome.stdout) for r in batch]
            rates = np.array([doc["join_rate"] for doc in docs])
            if rates.size < 2:
                for r in batch:
                    r.problems.append("too few simulate batches for a batch-means check")
                continue
            arrivals = min(doc["arrivals"] for doc in docs)
            sd = max(float(rates.std(ddof=1)), math.sqrt(join * (1.0 - join) / arrivals))
            mean_ok = abs(rates.mean() - join) <= Z_BOUND * sd / math.sqrt(rates.size) + RATE_FLOOR
            for r, rate in zip(batch, rates):
                if not mean_ok:
                    r.problems.append(
                        f"mean join rate {rates.mean():.5f} vs LP {join:.5f} (sd {sd:.5f})"
                    )
                elif abs(rate - join) > Z_BOUND * sd + RATE_FLOOR:
                    r.problems.append(f"join rate {rate:.5f} vs LP {join:.5f} (sd {sd:.5f})")


def _sample_op(schemes, seed: int, tracer=None, op_id: int = 0) -> Outcome:
    with _recording(tracer, op_id):
        start = perf_counter()
        draws = [persuade.scheme.sample_scheme_batch(scheme, seed + j, SAMPLE_DRAWS)
                 for j, scheme in enumerate(schemes)]
        seconds = perf_counter() - start
    digest = hashlib.sha256(b"".join(a.tobytes() for pair in draws for a in pair)).hexdigest()
    return Outcome(rc=0, stdout=digest, stderr="", seconds=seconds, value=draws)


# ---------------------------------------------------------------------------
# cli-cold


COLD_VERBS = ("solve", "check-full", "validate", "queue", "simulate")
# README queue example, whose scheme the cold simulate op replays.
README_QUEUE = ["--lambda", "0.95", "--beta", "2.5", "--tau", "7.5", "--capacity", "100"]
README_QUEUE_PARAMS = (0.95, 2.5, 7.5, 100)


class CliCold(Workload):
    """One fresh ``python -m persuade`` process per op, verb by verb."""

    name = "cli-cold"
    # Ops run in child processes, whose speed the parent's gauge misreads
    # (it runs just after each child exits), so times are raw seconds.
    gauged = False
    # Every cycle runs the same five argvs; a second would only duplicate
    # them in the percentiles, so a run is one cycle in three passes.
    max_cycles = 1

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.root = root
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0])
        inst = _write_json(workdir / "readme.json", README_INSTANCE)
        lam, beta, tau = rationing_params(rng, int(rng.integers(3, 6)))
        q = ["--lambda", repr(lam), "--beta", repr(beta), "--tau", repr(tau), "--capacity", "100"]
        readme_scheme = workdir / "readme.scheme.json"
        queue_scheme = workdir / "queue.scheme.json"
        solve_out = workdir / "solve.out.json"
        queue_out = workdir / "queue.out.json"
        # validate and simulate read schemes the program solves at set-up:
        # the README instance and the README queue example.
        self.setup_records = [
            run_op(Op("set-up solve",
                      lambda tracer=None, op_id=0: cli_op(
                          ["solve", "--instance", inst, "--out", str(readme_scheme)]),
                      lambda o: check_solve(o, README_INSTANCE, readme_scheme))),
            run_op(Op("set-up queue",
                      lambda tracer=None, op_id=0: cli_op(
                          ["queue", *README_QUEUE, "--out", str(queue_scheme)]),
                      lambda o: check_queue(o, README_QUEUE_PARAMS, queue_scheme))),
        ]
        queue_setup = self.setup_records[1]
        if queue_setup.outcome.rc == 0 and not queue_setup.wrong:
            simulator_input(queue_scheme)
        self.argvs = {
            "solve": ["solve", "--instance", inst, "--out", str(solve_out)],
            "check-full": ["check-full", "--instance", inst],
            "validate": ["validate", "--instance", inst, "--scheme", str(readme_scheme)],
            "queue": ["queue", *q, "--out", str(queue_out)],
            "simulate": ["simulate", "--scheme", str(queue_scheme), *README_QUEUE,
                         "--events", "10000", "--seed", str(int(rng.integers(2**31)))],
        }
        # In-process references: a cold op must exit as these did and print
        # their exact bytes.
        checks = {
            "solve": lambda o: check_solve(o, README_INSTANCE, solve_out),
            "queue": lambda o: check_queue(o, (lam, beta, tau, 100), queue_out),
            "validate": lambda o: check_verdict(o, "validate", lambda doc: doc["ok"] is True),
            "check-full": lambda o: check_verdict(
                o, "check-full", lambda doc: doc["full_persuasion"] in (True, False, None)),
            "simulate": lambda o: check_verdict(o, "simulate", lambda doc: doc["events"] == 10000),
        }
        self.reference = {
            verb: run_op(Op(verb, lambda tracer=None, op_id=0, argv=self.argvs[verb]: cli_op(argv),
                            checks[verb]))
            for verb in COLD_VERBS
        }

    def cycle(self, c: int) -> list[Op]:
        return [
            Op(
                kind=verb,
                execute=lambda tracer=None, op_id=0, argv=self.argvs[verb]: child_op(
                    self.root, self.workdir, argv, tracer, op_id
                ),
                check=lambda o, verb=verb: self._check(verb, o),
            )
            for verb in COLD_VERBS
        ]

    def _check(self, verb: str, outcome: Outcome) -> list[str]:
        """A cold op shares its in-process reference's verdict if it behaved the same."""
        ref = self.reference[verb]
        if outcome.rc != ref.outcome.rc or (
            outcome.rc != 0 and _first_line(outcome.stderr) != _first_line(ref.outcome.stderr)
        ):
            return [f"exit {outcome.rc} (in process {ref.outcome.rc}): {_first_line(outcome.stderr)}"]
        if outcome.stdout != ref.outcome.stdout:
            return ["stdout differs from the in-process run"]
        return list(ref.problems)


WORKLOADS = {w.name: w for w in (SolveFixed, QueueScale, QueueSim, CliCold)}
