"""Disclosure about queue length to arriving customers.

A single server works at unit rate; customers arrive at rate
``arrival_rate`` and only see the operator's signal, not the queue.  A
customer who joins behind n others waits for n + 1 unit-mean exponential
services, so a posterior mu over queue lengths prices the wait at
E_mu[X] + beta * sqrt(Var_mu[X]); joining is worth it when that stays at
or below the patience level tau.  The operator maximizes throughput.

The twist over the fixed-prior solver: the queue-length distribution an
arrival sees is itself shaped by who joins, so the per-action mass
vectors must satisfy birth-death balance on top of the hull constraints.
One LP handles both, and the belief prior is read back off its solution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .binary import (
    HullCandidates,
    ThresholdReport,
    classify_states,
    hull_candidates,
    verify_threshold,
)
from .geometry import (
    ATOM_FLOOR,
    InfeasibleProgramError,
    LinearProgram,
    LpSolverError,
    solve_lp,
)
from .model import (
    ActionSpace,
    Belief,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    StateSpace,
    make_model,
    mixture_moments,
)
from .scheme import SignalingScheme, scheme_from_plan, signal_cdf

# Residual caps on the solved flow-balance system.
BALANCE_TOLERANCE = 1e-8
NORMALIZATION_TOLERANCE = 1e-9
# Join posteriors must sit this close to indifference for the sandwich audit.
SANDWICH_UTILITY_TOLERANCE = 1e-6
# Posterior entries above this count as support in the sandwich audit.
SUPPORT_FLOOR = 1e-8
# The sandwich audit applies when the Leave mass exceeds this.
LEAVE_MASS_FLOOR = 1e-10
# Slack on the sandwich audit's ordering of Join wait means and variances.
MOMENT_ORDER_SLACK = 1e-9
# Join posteriors this close in max norm are one vertex; their atoms merge.
JOIN_MERGE_TOLERANCE = 1e-12
# gamma_closed_form's round-off: how far tau may fall short of the short
# length's bound, and the radicand short of zero (then read as zero).
CLOSED_FORM_SLACK = 1e-9
# Simulation guardrails.
MIN_HORIZON = 10_000
BURN_IN_FRACTION = 0.10
# Largest number of boundary blends (strict-reject x joinable lengths) a
# queue solve takes on; each is a flow-LP column.  HiGHS time grows faster
# than the column count: on a 2-core host, 4e4 blends (capacity 10^4, 4
# joinable lengths) solve in about 5 s, 8e4 in 15 s, 9.75e4 (capacity 2000,
# 50 joinable) in 50 s, and 2e5 ran past 5 minutes.  Memory stays near
# 250 MB up to the bound.
MAX_QUEUE_BLENDS = 100_000

__all__ = [
    "BALANCE_TOLERANCE",
    "NORMALIZATION_TOLERANCE",
    "MIN_HORIZON",
    "BURN_IN_FRACTION",
    "MAX_QUEUE_BLENDS",
    "QueueInstance",
    "QueueSolution",
    "SandwichReport",
    "SimulationResult",
    "posterior_wait_moments",
    "gamma_closed_form",
    "queue_model",
    "solve_queue",
    "verify_sandwich",
    "simulate_queue",
]


@dataclass(frozen=True)
class QueueInstance:
    """Arrival rate, risk weight, patience level, and state cap.

    ``capacity`` is the number of observable queue lengths {0, ...,
    capacity - 1}; an arrival finding the system at ``capacity`` is
    turned away outright.
    """

    arrival_rate: float
    beta: float
    tau: float
    capacity: int

    def __post_init__(self):
        if not self.arrival_rate > 0.0:
            raise ValueError("arrival rate must be positive")
        if self.beta < 0.0:
            raise ValueError("beta must be nonnegative")
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.capacity < 2:
            raise ValueError("capacity must be at least 2")


def posterior_wait_moments(posterior: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the wait under a belief over queue lengths.

    Behind n customers the wait is the sum of n + 1 independent unit
    exponentials (the service in progress restarts by memorylessness), so
    its mean and variance are both n + 1; a belief mixes those.
    """
    d = np.asarray(posterior, dtype=float).size
    lengths = np.arange(1, d + 1, dtype=float)
    mean, var = mixture_moments(lengths, lengths, np.asarray(posterior, dtype=float))
    return float(mean), float(var)


def gamma_closed_form(n, m, tau: float, beta: float):
    """Boundary blend weight between queue lengths n (long) and m (short).

    Solves E + beta * sqrt(Var) = tau in closed form along the segment
    gamma * e_n + (1 - gamma) * e_m, using the two-point moment formulas
    E = 1 + m + (n - m) gamma and Var = E + (n - m)^2 gamma (1 - gamma).
    Requires m to be joinable outright and n not:
    m + 1 + beta sqrt(m + 1) <= tau < n + 1 + beta sqrt(n + 1).
    Given arrays of lengths, returns an array of weights, NaN for each pair
    where a scalar call raises ValueError.
    """
    n, m = np.asarray(n), np.asarray(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound_m = m + 1 + beta * np.sqrt(m + 1)
        bound_n = n + 1 + beta * np.sqrt(n + 1)
        span, slack, beta2 = n - m, tau - 1 - m, beta * beta
        h = (
            beta2 * (span + 1) ** 2
            + 4 * slack * (span + 1)
            + 4 * (1 + beta2) * (1 + m)
            - 4 * slack * slack
        )
        root = np.sqrt(np.where(h < 0.0, 0.0, h))
        gamma = (2 * slack + beta2 * (span + 1) - beta * root) / (2 * span * (1 + beta2))
    faults = (
        (n <= m, "need n > m"),
        (beta < 0.0, "beta must be nonnegative"),
        (tau < bound_m - CLOSED_FORM_SLACK, "tau {0!r} outside [{1!r}, {2!r}) for n={3}, m={4}"),
        (tau >= bound_n, "tau {0!r} outside [{1!r}, {2!r}) for n={3}, m={4}"),
        (h < -CLOSED_FORM_SLACK, "negative radicand {5!r}; fall back to bisection"),
    )
    if gamma.ndim:
        undefined = np.any(np.broadcast_arrays(*(bad for bad, _ in faults)), axis=0)
        return np.where(undefined, np.nan, np.clip(gamma, 0.0, 1.0))
    for bad, message in faults:
        if bad:
            raise ValueError(message.format(tau, float(bound_m), float(bound_n), n, m, float(h)))
    return float(np.clip(gamma, 0.0, 1.0))


def queue_model(instance: QueueInstance):
    """Receiver model over queue lengths: join scores tau - E - beta*sd."""
    d = instance.capacity
    lengths = np.arange(1, d + 1, dtype=float)
    u = np.zeros((d, 2))
    u[:, 1] = instance.tau - lengths
    g_mean = np.zeros((d, 2))
    g_var = np.zeros((d, 2))
    g_mean[:, 1] = lengths
    g_var[:, 1] = lengths
    return make_model(
        "mean_stdev", u=u, g_mean=g_mean, g_var=g_var, beta=instance.beta
    )


@dataclass(frozen=True, eq=False)
class QueueSolution:
    """Solved queue disclosure problem.

    ``t0``/``t1`` are per-arrival joint masses over seen lengths (they
    include the mass lost to hard blocking at capacity, which is why they
    sum short of one).  ``plan`` and ``scheme`` are rescaled onto the
    belief prior, the seen-length law conditioned on not being blocked.
    ``candidates`` are the flow LP's columns; ``candidates.gamma`` the blends.
    """

    instance: QueueInstance
    persuasion: PersuasionInstance
    candidates: HullCandidates
    t0: np.ndarray
    t1: np.ndarray
    prior: np.ndarray
    plan: OptimalPlan
    scheme: SignalingScheme
    join_probability: float
    throughput: float
    occupancy: np.ndarray
    threshold: ThresholdReport


def _flow_program(d: int, lam: float, candidates: HullCandidates) -> LinearProgram:
    """The flow LP, built column by column from each candidate's support.

    Columns are the hull candidates in their order: the join candidates
    (pure accept states, then blends), then the leave candidates (pure
    strict-reject states), each held as two (state, weight) slots.  Row
    w < d - 1 of a column is the balance term v[w + 1] - rate * v[w] and
    row d - 1 the normalization term 1 + rate * v[d - 1], with rate the
    arrival rate for join columns and 0 for leave ones.  So a slot (s, x)
    adds x at row s - 1, and -rate * x at row s (rate * x when s = d - 1);
    every column starts with 1 at row d - 1.  These terms are summed as a
    COO matrix (at most two meet in a balance row, so the sums are the
    dense ones bit for bit) and exact zeros are left out.
    """
    states, weights, n1 = candidates.states, candidates.weights, candidates.n_accept
    n = states.shape[0]
    cols = np.repeat(np.arange(n), states.shape[1])
    s, x = states.ravel(), weights.ravel()
    rate = np.where(cols < n1, lam, 0.0)
    up = s >= 1
    rows = np.concatenate([np.full(n, d - 1), s[up] - 1, s])
    values = np.concatenate(
        [np.ones(n), x[up], np.where(s < d - 1, -rate * x, rate * x)]
    )
    columns = np.concatenate([np.arange(n), cols[up], cols])
    a_eq = scipy.sparse.coo_array((values, (rows, columns)), shape=(d, n)).tocsc()
    a_eq.sum_duplicates()
    a_eq.eliminate_zeros()
    b_eq = np.zeros(d)
    b_eq[d - 1] = 1.0
    c = np.concatenate([np.ones(n1), np.zeros(n - n1)])
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq)


def solve_queue(instance: QueueInstance) -> QueueSolution:
    """Throughput-optimal signaling with the seen-length law endogenous.

    Variables are convex weights on the acceptance-hull vertices (the
    join side) and on pure rejected lengths (the leave side).  Balance
    ties each length's inflow to the join mass one step shorter;
    normalization accounts for arrivals blocked at capacity.  The program
    is sparse: a candidate has at most two lengths of support, so its
    column has at most five nonzeros (see ``_flow_program``), and HiGHS
    gets it in CSC form.  Instances with more than MAX_QUEUE_BLENDS
    boundary blends are refused with a ValueError.  The belief prior is
    reconstructed from the solution and the scheme compiled with joins
    sorted by expected wait, then a single coalesced Leave signal.
    """
    d = instance.capacity
    lam = instance.arrival_rate
    # Placeholder prior; the real one comes out of the LP below.
    probe = PersuasionInstance(
        states=StateSpace(tuple(str(n) for n in range(d))),
        actions=ActionSpace(("leave", "join")),
        prior=Belief.uniform(d),
        sender=SenderUtility(np.column_stack([np.zeros(d), np.ones(d)])),
        receiver=queue_model(instance),
    )
    classification = classify_states(probe)
    n_strict = len(classification.strict_reject)
    n_accept = len(classification.accept)
    if n_strict * n_accept > MAX_QUEUE_BLENDS:
        raise ValueError(
            f"capacity {d} needs {n_strict * n_accept} boundary blends "
            f"({n_strict} strict-reject x {n_accept} joinable lengths), "
            f"over the limit of {MAX_QUEUE_BLENDS}"
        )
    candidates = hull_candidates(
        probe,
        classification,
        gamma_fn=lambda n, m: gamma_closed_form(n, m, instance.tau, instance.beta),
    )
    res = solve_lp(_flow_program(d, lam, candidates))
    if res.status != "optimal":
        raise InfeasibleProgramError(f"queue flow LP is {res.status}")

    # HiGHS may return weights a few ulps below zero; they would turn into
    # negative prior entries.
    weights = np.maximum(res.x, 0.0)
    n1 = candidates.n_accept

    def mass_over_lengths(cols: slice) -> np.ndarray:
        # V^T x over the given candidates, one support slot at a time.
        return np.bincount(
            candidates.states[cols].ravel(),
            weights=(candidates.weights[cols] * weights[cols, None]).ravel(),
            minlength=d,
        )

    t1 = mass_over_lengths(slice(0, n1))
    t0 = mass_over_lengths(slice(n1, None))
    balance = np.abs(t0[1:] + t1[1:] - lam * t1[:-1]).max()
    if balance > BALANCE_TOLERANCE:
        raise LpSolverError(f"flow balance residual {balance:.3e}")
    norm = abs(t0.sum() + t1.sum() + lam * t1[d - 1] - 1.0)
    if norm > NORMALIZATION_TOLERANCE:
        raise LpSolverError(f"flow normalization residual {norm:.3e}")

    mass = t0.sum() + t1.sum()
    if mass <= ATOM_FLOOR:
        raise InfeasibleProgramError("all arrivals are blocked; no belief prior")
    prior = (t0 + t1) / mass

    join_atoms = []
    kept = np.nonzero(weights[:n1] > ATOM_FLOOR)[0]
    for i, row in zip(kept, candidates.rows(kept)):
        # Blends with gamma = 0 collapse onto pure vertices; fold the mass
        # together up front so the Join numbering stays gap-free.
        for atom in join_atoms:
            if np.max(np.abs(atom[2] - row)) <= JOIN_MERGE_TOLERANCE:
                atom[3] += weights[i] / mass
                break
        else:
            mean, var = posterior_wait_moments(row)
            join_atoms.append([mean, var, row, weights[i] / mass])
    join_atoms.sort(key=lambda item: item[0])
    atoms = [
        PlanAtom(
            action=1, posterior=post, weight=float(w), label=f"Join_{j + 1}"
        )
        for j, (_, _, post, w) in enumerate(join_atoms)
    ]
    leave_mass = float(t0.sum()) / mass
    if leave_mass > ATOM_FLOOR:
        atoms.append(
            PlanAtom(
                action=0,
                posterior=t0 / t0.sum(),
                weight=leave_mass,
                label="Leave",
            )
        )
    plan = OptimalPlan(
        t=np.vstack([t0, t1]) / mass,
        prior=prior,
        value=float(t1.sum() / mass),
        atoms=tuple(atoms),
    )
    plan.check()

    persuasion = dataclasses.replace(probe, prior=Belief(prior))
    compiled = scheme_from_plan(plan, persuasion)
    threshold = verify_threshold(
        plan, list(range(d)), instance=persuasion, candidates=candidates
    )
    occupancy = np.concatenate([t0 + t1, [lam * t1[d - 1]]])
    return QueueSolution(
        instance=instance,
        persuasion=persuasion,
        candidates=candidates,
        t0=t0,
        t1=t1,
        prior=prior,
        plan=plan,
        scheme=compiled,
        join_probability=float(t1.sum()),
        throughput=float(lam * t1.sum()),
        occupancy=occupancy,
        threshold=threshold,
    )


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Structural audit of the Join signals of a queue solution.

    When some arrivals are told to leave, the optimal Join posteriors
    should each sit on the indifference surface, mix at most two lengths,
    and nest: sorted by expected wait, their short legs ascend, their
    long legs descend, and the wait variance falls as the mean rises.
    ``applicable`` is False when nobody leaves (then none of this binds).
    """

    applicable: bool
    utility_ok: bool
    support_ok: bool
    ordering_ok: bool
    moments_ok: bool
    join_diffs: tuple[float, ...]
    join_supports: tuple[tuple[int, ...], ...]
    join_means: tuple[float, ...]
    join_vars: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.utility_ok and self.support_ok and self.ordering_ok and self.moments_ok

    @property
    def ok(self) -> bool:
        return (not self.applicable) or self.passed


def verify_sandwich(solution: QueueSolution) -> SandwichReport:
    """Run the nesting checks on the solved Join signals."""
    model = solution.persuasion.receiver
    joins = [s for s in solution.scheme.signals if s.action == 1]
    applicable = solution.t0.sum() > LEAVE_MASS_FLOOR and bool(joins)
    diffs = tuple(float(model.differential(s.posterior)) for s in joins)
    supports = tuple(
        tuple(int(w) for w in np.nonzero(s.posterior > SUPPORT_FLOOR)[0])
        for s in joins
    )
    moments = [posterior_wait_moments(s.posterior) for s in joins]
    means = tuple(m for m, _ in moments)
    variances = tuple(v for _, v in moments)

    utility_ok = all(abs(x) <= SANDWICH_UTILITY_TOLERANCE for x in diffs)
    support_ok = all(1 <= len(s) <= 2 for s in supports)
    ordering_ok = True
    if support_ok and joins:
        lows = [s[0] for s in supports]
        highs = [s[-1] for s in supports]
        chain = lows + highs[::-1]
        ordering_ok = all(a <= b for a, b in zip(chain, chain[1:]))
    moments_ok = all(
        means[j + 1] >= means[j] - MOMENT_ORDER_SLACK
        and variances[j + 1] <= variances[j] + MOMENT_ORDER_SLACK
        for j in range(len(joins) - 1)
    )
    return SandwichReport(
        applicable=bool(applicable),
        utility_ok=utility_ok,
        support_ok=support_ok,
        ordering_ok=ordering_ok,
        moments_ok=moments_ok,
        join_diffs=diffs,
        join_supports=supports,
        join_means=means,
        join_vars=variances,
    )


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Event-driven run of a scheme against the queue dynamics.

    Tallies cover the post-burn-in window.  ``arrival_seen`` counts the
    system size each arrival found (the blocked level included);
    ``occupancy_time`` is the time-weighted law over system sizes.
    """

    events: int
    burn_in_events: int
    arrivals: int
    blocked: int
    joins: int
    leaves: int
    join_rate: float
    signal_counts: dict[str, int]
    arrival_seen: np.ndarray
    occupancy_time: np.ndarray
    total_time: float


def simulate_queue(
    instance: QueueInstance,
    scheme: SignalingScheme,
    events: int,
    seed: int,
) -> SimulationResult:
    """Simulate arrivals obeying the scheme's recommendations.

    Runs exactly ``events`` arrival/departure events, discarding the
    first BURN_IN_FRACTION of them before tallying.  Horizons under
    MIN_HORIZON are refused: shorter runs say nothing at these rates.
    The seed is required; identical seeds give identical runs.
    """
    if events < MIN_HORIZON:
        raise ValueError(f"horizon {events} below the minimum {MIN_HORIZON}")
    d = instance.capacity
    if scheme.prior.size != d:
        raise ValueError("scheme state count does not match the capacity")
    rng = np.random.default_rng(seed)
    lam = instance.arrival_rate
    n_signals = scheme.n_signals
    cdf = signal_cdf(scheme)
    join_action = np.array([s.action == 1 for s in scheme.signals])

    burn = int(BURN_IN_FRACTION * events)
    n = 0
    t = 0.0
    next_arrival = rng.exponential(1.0 / lam)
    next_departure = math.inf
    arrivals = blocked = joins = leaves = 0
    signal_counts = np.zeros(n_signals, dtype=np.int64)
    arrival_seen = np.zeros(d + 1, dtype=np.int64)
    occupancy_time = np.zeros(d + 1)
    stats_start = 0.0

    for event in range(events):
        counting = event >= burn
        if event == burn:
            stats_start = min(next_arrival, next_departure)
        if next_arrival <= next_departure:
            now = next_arrival
            if counting:
                occupancy_time[n] += now - max(t, stats_start)
            t = now
            next_arrival = t + rng.exponential(1.0 / lam)
            if counting:
                arrivals += 1
                arrival_seen[n] += 1
            if n >= d:
                if counting:
                    blocked += 1
                continue
            sig = int(np.searchsorted(cdf[n], rng.random(), side="left"))
            sig = min(sig, n_signals - 1)
            if counting:
                signal_counts[sig] += 1
            if join_action[sig]:
                if counting:
                    joins += 1
                n += 1
                if n == 1:
                    next_departure = t + rng.exponential(1.0)
            else:
                if counting:
                    leaves += 1
        else:
            now = next_departure
            if counting:
                occupancy_time[n] += now - max(t, stats_start)
            t = now
            n -= 1
            next_departure = t + rng.exponential(1.0) if n > 0 else math.inf

    total_time = t - stats_start
    if occupancy_time.sum() > 0:
        occupancy_time = occupancy_time / occupancy_time.sum()
    return SimulationResult(
        events=events,
        burn_in_events=burn,
        arrivals=arrivals,
        blocked=blocked,
        joins=joins,
        leaves=leaves,
        join_rate=joins / arrivals if arrivals else 0.0,
        signal_counts={
            scheme.signals[i].label: int(signal_counts[i]) for i in range(n_signals)
        },
        arrival_seen=arrival_seen,
        occupancy_time=occupancy_time,
        total_time=total_time,
    )
