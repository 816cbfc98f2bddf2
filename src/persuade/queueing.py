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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .binary import (
    BOUNDARY_TOLERANCE,
    HullCandidates,
    ThresholdReport,
    classify_states,
    hull_candidates,
    verify_threshold,
)
from .geometry import (
    CscMatrix,
    LinearProgram,
    LpResult,
    LpSolverError,
    certificate_bound,
    certify,
    solve_lp,
)
from .model import (
    PLAN_MASS_TOLERANCE,
    TIE_TOLERANCE,
    ActionSpace,
    Belief,
    FormatError,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    StateSpace,
    make_model,
)
from .scheme import (
    POSTERIOR_TOLERANCE,
    SignalingScheme,
    _GuideTable,
    _check_fit,
    scheme_from_plan,
    signal_cdf,
)

# gamma_closed_form reads a radicand this far below zero as zero (round-off at
# a tangent); a pair further short is bisected, and compute_k01 checks both.
CLOSED_FORM_SLACK = 1e-9
# Simulation guardrails.
MIN_HORIZON = 10_000
BURN_IN_FRACTION = 0.10
# Events simulated per block of draws.  It exists to bound memory: a run
# holds one block's draws, path and tallies whatever its horizon, where
# drawing all 10^6 events of a default run at once peaked at 62 MB.
SIM_BLOCK = 1 << 16
# The flow LP is first solved on the lengths up to max(PREFIX_MIN,
# PREFIX_PER_JOINABLE * (l + 1)), l the longest joinable length, and the
# prefix doubles until its certificate holds.  Rationing optima end within
# a few lengths of l; at capacity 1600 every queue-scale rationing solve
# closes on its first prefix (lengths up to 16, 69 columns of 7,984).
PREFIX_MIN = 8
PREFIX_PER_JOINABLE = 4
# Largest number of lengths, and of boundary blends (strict-reject x joinable
# lengths), a queue solve takes on; each is a flow-LP column.  The prefix
# solve keeps HiGHS small, so this bound is about memory and output: lifted,
# a cold capacity-10^5 `queue` (lambda 0.95, tau 10, beta 2.5 or 1: 4 or 7
# joinable lengths) took 0.8-1.6 s, peaked at 224-332 MB and wrote 31-55 MB of
# JSON on a 2-core Xeon host; with no joinable length (no blend), capacity
# 2 x 10^5 took 0.8-0.9 s at 165 MB there.
MAX_QUEUE_BLENDS = 100_000

__all__ = [
    "MIN_HORIZON",
    "BURN_IN_FRACTION",
    "SIM_BLOCK",
    "PREFIX_MIN",
    "PREFIX_PER_JOINABLE",
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
    turned away outright.  A field out of range is a ``FormatError`` at its name.
    """

    arrival_rate: float
    beta: float
    tau: float
    capacity: int

    def __post_init__(self):
        for field, value, ok, rule in (
            ("arrival_rate", self.arrival_rate, self.arrival_rate > 0.0, "positive"),
            ("beta", self.beta, self.beta >= 0.0, "nonnegative"),
            ("tau", self.tau, self.tau > 0.0, "positive"),
        ):
            if not (ok and math.isfinite(value)):
                raise FormatError(field, f"must be a finite {rule} number, not {value}")
        if self.capacity < 2:
            raise FormatError("capacity", f"must be at least 2, not {self.capacity}")


def posterior_wait_moments(posterior: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the wait under a belief over queue lengths.

    Behind n customers the wait is the sum of n + 1 independent unit
    exponentials (the service in progress restarts by memorylessness), so
    its mean and variance are both n + 1; a belief mixes those.
    """
    mu = np.asarray(posterior, dtype=float)
    lengths = np.arange(1, mu.size + 1, dtype=float)
    mean = mu @ lengths
    var = mu @ (lengths + lengths * lengths) - mean * mean
    return float(mean), float(np.maximum(var, 0.0))


def gamma_closed_form(n, m, tau: float, beta: float):
    """Boundary blend weight between queue lengths n (long) and m (short).

    Solves E + beta * sqrt(Var) = tau in closed form along the segment
    gamma * e_n + (1 - gamma) * e_m, using the two-point moment formulas
    E = 1 + m + (n - m) gamma and Var = E + (n - m)^2 gamma (1 - gamma).
    Requires m to be joinable outright and n not:
    m + 1 + beta sqrt(m + 1) <= tau < n + 1 + beta sqrt(n + 1), the first
    up to TIE_TOLERANCE, the rule ``classify_states`` applies.  The weight
    is NaN wherever the closed form is undefined: n <= m, beta < 0, tau
    outside that range, or a radicand below -CLOSED_FORM_SLACK.  Given
    arrays of lengths, returns an array of weights; given scalars, a float.
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
        # The root (2 s + beta^2 (S + 1) - beta sqrt(h)) / (2 S (1 + beta^2)),
        # s the slack and S the span, times its conjugate over itself: the
        # textbook numerator cancels more digits the longer the span.  At
        # beta = 0 and s = 0 this is 0 / 0, and gamma is 0 there.
        den = span * (2 * slack + beta2 * (span + 1) + beta * root)
        gamma = np.where(den == 0.0, 0.0, 2 * (slack * slack - beta2 * (1 + m)) / den)
    undefined = (
        (n <= m) | (beta < 0.0) | (tau < bound_m - TIE_TOLERANCE) | (tau >= bound_n)
        | (h < -CLOSED_FORM_SLACK)
    )
    gamma = np.where(undefined, np.nan, np.clip(gamma, 0.0, 1.0))
    return gamma if gamma.ndim else float(gamma)


def queue_model(instance: QueueInstance):
    """Receiver model over queue lengths: join scores tau - E - beta*sd.

    A ``mean_stdev`` model whose ``edge_root`` is ``gamma_closed_form``.
    """
    d = instance.capacity
    lengths = np.arange(1, d + 1, dtype=float)
    u = np.zeros((d, 2))
    u[:, 1] = instance.tau - lengths
    g_mean = np.zeros((d, 2))
    g_var = np.zeros((d, 2))
    g_mean[:, 1] = lengths
    g_var[:, 1] = lengths
    model = make_model("mean_stdev", u=u, g_mean=g_mean, g_var=g_var, beta=instance.beta)
    return dataclasses.replace(
        model, edge_root=lambda n, m: gamma_closed_form(n, m, instance.tau, instance.beta)
    )


@dataclass(frozen=True, eq=False)
class QueueSolution:
    """Solved queue disclosure problem.

    ``t0``/``t1`` are per-arrival joint masses over seen lengths (they
    include the mass lost to hard blocking at capacity, which is why they
    sum short of one).  ``plan`` and ``scheme`` are rescaled onto the
    belief prior, the seen-length law conditioned on not being blocked.
    ``candidates`` are the flow LP's columns; ``candidates.gamma`` the blends.
    ``flow`` is the certified flow LP solve (see ``_solve_flow``).
    """

    instance: QueueInstance
    persuasion: PersuasionInstance
    candidates: HullCandidates
    flow: LpResult
    t0: np.ndarray
    t1: np.ndarray
    plan: OptimalPlan
    scheme: SignalingScheme
    join_probability: float
    throughput: float
    occupancy: np.ndarray
    threshold: ThresholdReport


def _flow_program(d: int, lam: float, states: np.ndarray, weights: np.ndarray,
                  n_join: int) -> LinearProgram:
    """The flow LP over d rows, built column by column from each candidate's support.

    Column i is the candidate with the (state, weight) slots ``states[i]``
    and ``weights[i]``; the first ``n_join`` are join candidates, the rest
    leave candidates.  Row w < d - 1 of a column is the balance term
    v[w + 1] - rate * v[w] and row d - 1 the normalization term
    1 + rate * v[d - 1], with rate the arrival rate for join columns and 0
    for leave ones.  So a slot (s, x) adds x at row s - 1, and -rate * x at
    row s (rate * x when s = d - 1); every column has 1 at row d - 1, the
    last row.  A slot's rows s - 1 < s are in order, so merging the two
    slots sorts a column: the shorter length's slot first, and for a pure
    state (w, w) both w - 1 terms before both w terms.  Equal rows are then
    summed (at most two of their terms are nonzero, so the sums are the
    dense ones bit for bit), and exact zeros and row -1 (a slot at length
    0) left out.

    Over the capacity's d rows and all the hull candidates, joins first,
    this is the whole chain's program.  Over L + 2 rows and the candidates
    supported on lengths <= L, it is a rung of ``_solve_flow``: the whole
    program's rows 0..L and normalization row on those columns, bit for
    bit, as those columns have no entry past row L.
    """
    n = states.shape[0]
    rate = np.where(np.arange(n) < n_join, lam, 0.0)[:, None]
    flow = np.where(states < d - 1, -rate, rate) * weights
    rows = np.column_stack([states[:, 0] - 1, states[:, 0], states[:, 1] - 1, states[:, 1],
                            np.full(n, d - 1)])
    values = np.column_stack([weights[:, 0], flow[:, 0], weights[:, 1], flow[:, 1], np.ones(n)])
    # The sorted term order when slot 0's length is shorter, equal, longer.
    merge = np.array([[0, 1, 2, 3, 4], [0, 2, 1, 3, 4], [2, 3, 0, 1, 4]])
    order = merge[np.sign(states[:, 0] - states[:, 1]) + 1] + np.arange(0, 5 * n, 5)[:, None]
    rows, values = rows.ravel()[order], values.ravel()[order]
    # Each run of equal rows sums into its last term, and the others become 0.
    for k in range(1, 5):
        same = rows[:, k] == rows[:, k - 1]
        values[:, k] += values[:, k - 1] * same
        values[:, k - 1] *= ~same
    keep = (values != 0.0) & (rows >= 0)
    # Entries kept up to the end of each column.
    indptr = np.concatenate(([0], np.cumsum(keep)[4::5]))
    a_eq = CscMatrix(indptr, rows[keep], values[keep], (d, n))
    b_eq = np.zeros(d)
    b_eq[d - 1] = 1.0
    c = np.concatenate([np.ones(n_join), np.zeros(n - n_join)])
    return LinearProgram(c=c, a_eq=a_eq, b_eq=b_eq)


def _extend_duals(y: np.ndarray, length: int, lam: float, candidates: HullCandidates) -> None:
    """Fill in place the duals of the balance rows past a prefix of lengths.

    Read y(d - 1) as -y_N, y_N the normalization dual, and y(-1) as 0.  A
    column with slots (s, x) and rate r then prices at
    c - y_N - sum x (y(s - 1) - r y(s)).  Lengths past the prefix are
    strict-reject, so a column has at most one slot there: a Leave column
    at n prices -y_N - y(n - 1), and a blend of n with a joinable m at
    weight g > 0 prices 1 - y_N - g (y(n - 1) - lam y(n)) - (1 - g) (y(m - 1)
    - lam y(m)).  From n = d - 1 down to length + 2, y(n - 1) is set to
    the smallest value at which every column whose long slot is n prices
    at most 0; it enters the blends at n - 1 as + g lam y(n - 1), so the
    smallest value is also the easiest on them.
    """
    d = y.size
    cls = candidates.classification
    accept = np.asarray(cls.accept, dtype=np.intp)
    short = np.where(accept > 0, y[accept - 1], 0.0) - lam * y[accept]
    g = candidates.gamma
    need = np.full(d, -np.inf)
    need[list(cls.strict_reject)] = np.divide(
        1.0 - y[d - 1] - (1.0 - g) * short, g, out=np.full(g.shape, -np.inf), where=g > 0.0
    ).max(axis=1, initial=-np.inf)
    need = need.tolist()
    floor = y_n = -y[d - 1]
    for n in range(d - 1, length + 1, -1):
        y_n = y[n - 1] = max(floor, lam * y_n + need[n])


def _solve_flow(d: int, lam: float, candidates: HullCandidates) -> LpResult:
    """The flow LP solved on a prefix of lengths and certified on the whole chain.

    The rung of a prefix L is the program ``_flow_program`` builds over
    L + 2 rows from the columns supported on lengths <= L: the whole
    chain's program restricted to them, whose rows past L are zero, and
    whose row L, the balance of length L + 1, forces zero Join mass at L.
    So its optimum is feasible for the whole chain, and ``certify`` checks
    it there, with the prefix duals extended past L by ``_extend_duals``.
    When the value is within the certificate's bound of 1, the dual e_N
    (the normalization row alone) certifies it instead, as no more than
    every arrival can join: in full persuasion the prefix duals are
    degenerate, and their extension prices the tail at (1 - lam) / lam
    whatever L is.  Such a rung is kept only when it puts no weight on a
    Leave column: Leave weight there is the geometric tail of joiners past
    L, which the rung cannot hold.  With l the longest joinable length, L
    starts at max(PREFIX_MIN, PREFIX_PER_JOINABLE * (l + 1)) and doubles
    while the certificate, or the engine on the prefix, fails, or the tail
    is not held.  Its last rung, L = d - 1, is the full program: its
    answer is kept, and its failure raised.  ``rounds`` counts the rungs,
    and ``columns`` the last one's columns.
    """
    states, weights, n1 = candidates.states, candidates.weights, candidates.n_accept
    lp = _flow_program(d, lam, states, weights, n1)
    longest = states.max(axis=1)
    bound = certificate_bound(lp)
    joinable = candidates.classification.accept
    length = max(PREFIX_MIN, PREFIX_PER_JOINABLE * (max(joinable, default=-1) + 1))
    for rung in itertools.count(1):
        length = min(length, d - 1)
        cols = np.flatnonzero(longest <= length)
        sub = lp if cols.size == lp.c.size else _flow_program(
            min(length + 2, d), lam, states[cols], weights[cols], np.count_nonzero(cols < n1))
        try:
            res = solve_lp(sub)
            x = np.zeros(lp.c.size)
            x[cols] = res.x
            y = np.zeros(d)
            full = res.value >= 1.0 - bound
            if full:
                y[d - 1] = 1.0
            else:
                y[: sub.b_eq.size - 1], y[d - 1] = res.dual[:-1], res.dual[-1]
                _extend_duals(y, length, lam, candidates)
            if not (full and x[n1:].any() and length < d - 1):
                return certify(lp, x, res.value, y, rounds=rung, columns=cols.size)
        except LpSolverError:
            if length == d - 1:
                raise
        length *= 2


def solve_queue(instance: QueueInstance) -> QueueSolution:
    """Throughput-optimal signaling with the seen-length law endogenous.

    Variables are convex weights on the acceptance-hull vertices (the
    join side) and on pure rejected lengths (the leave side).  Balance
    ties each length's inflow to the join mass one step shorter;
    normalization accounts for arrivals blocked at capacity.  The program
    is sparse: a candidate has at most two lengths of support, so its
    column has at most five nonzeros (see ``_flow_program``), and HiGHS
    gets the columns of a prefix of lengths in CSC form (see
    ``_solve_flow``).  Instances with more than MAX_QUEUE_BLENDS lengths or
    boundary blends are refused with a ValueError.  The weights are
    certified on the whole chain and floored, so the belief prior is read
    off exactly the weights that become atoms, and the scheme is compiled
    with joins sorted by expected wait, then a single coalesced Leave signal.
    """
    d = instance.capacity
    if d > MAX_QUEUE_BLENDS:
        raise ValueError(f"capacity {d} is over the limit of {MAX_QUEUE_BLENDS} lengths")
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
    candidates = hull_candidates(probe, classification)
    res = _solve_flow(d, lam, candidates)
    n1 = candidates.n_accept
    # V^T x over the join and then the leave candidates, one support slot
    # at a time.
    t1, t0 = (
        np.bincount(
            candidates.states[cols].ravel(),
            weights=(candidates.weights[cols] * res.x[cols, None]).ravel(),
            minlength=d,
        )
        for cols in (slice(0, n1), slice(n1, None))
    )
    mass = t0.sum() + t1.sum()
    prior = (t0 + t1) / mass

    # Equal posteriors are equal flow-LP columns, and a vertex solution
    # keeps at most one of them, so each kept candidate is its own Join.
    kept = np.flatnonzero(res.x[:n1])
    rows = candidates.rows(kept)
    by_wait = sorted(range(kept.size), key=lambda i: posterior_wait_moments(rows[i])[0])
    atoms = [
        PlanAtom(1, rows[i], float(res.x[kept[i]] / mass), f"Join_{j + 1}")
        for j, i in enumerate(by_wait)
    ]
    leave_mass = float(t0.sum()) / mass
    if leave_mass > 0.0:
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
    threshold = verify_threshold(plan, list(range(d)), candidates)
    occupancy = np.concatenate([t0 + t1, [lam * t1[d - 1]]])
    return QueueSolution(
        instance=instance,
        persuasion=persuasion,
        candidates=candidates,
        flow=res,
        t0=t0,
        t1=t1,
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
    should each sit on the indifference surface (within BOUNDARY_TOLERANCE),
    mix at most two lengths (entries above POSTERIOR_TOLERANCE), and nest:
    sorted by expected wait, their short legs ascend, their long legs
    descend, and the wait variance falls as the mean rises.  ``applicable``
    is False, and ``passed`` moot, when Leave mass is at most PLAN_MASS_TOLERANCE.
    """

    applicable: bool
    utility_ok: bool
    support_ok: bool
    ordering_ok: bool
    moments_ok: bool
    join_means: tuple[float, ...]

    @property
    def passed(self) -> bool:
        return self.utility_ok and self.support_ok and self.ordering_ok and self.moments_ok


def verify_sandwich(solution: QueueSolution) -> SandwichReport:
    """Run the nesting checks on the solved Join signals."""
    model = solution.persuasion.receiver
    joins = [s for s in solution.scheme.signals if s.action == 1]
    applicable = solution.plan.t[0].sum() > PLAN_MASS_TOLERANCE and bool(joins)
    supports = [np.flatnonzero(s.posterior > POSTERIOR_TOLERANCE) for s in joins]
    moments = [posterior_wait_moments(s.posterior) for s in joins]
    means = tuple(m for m, _ in moments)
    variances = [v for _, v in moments]

    utility_ok = all(abs(model.differential(s.posterior)) <= BOUNDARY_TOLERANCE for s in joins)
    support_ok = all(1 <= len(s) <= 2 for s in supports)
    ordering_ok = True
    if support_ok and joins:
        lows = [s[0] for s in supports]
        highs = [s[-1] for s in supports]
        chain = lows + highs[::-1]
        ordering_ok = all(a <= b for a, b in zip(chain, chain[1:]))
    moments_ok = all(
        means[j + 1] >= means[j] - TIE_TOLERANCE
        and variances[j + 1] <= variances[j] + TIE_TOLERANCE
        for j in range(len(joins) - 1)
    )
    return SandwichReport(
        applicable=bool(applicable),
        utility_ok=utility_ok,
        support_ok=support_ok,
        ordering_ok=ordering_ok,
        moments_ok=moments_ok,
        join_means=means,
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


def _check_horizon(events: int, path: str = "events") -> None:
    """Refuse (``FormatError`` at ``path``) a horizon under MIN_HORIZON, too short to tell."""
    if events < MIN_HORIZON:
        raise FormatError(path, f"horizon {events} below the minimum {MIN_HORIZON}")


def simulate_queue(
    instance: QueueInstance,
    scheme: SignalingScheme,
    events: int,
    seed: int,
) -> SimulationResult:
    """Simulate arrivals obeying the scheme's recommendations.

    Runs exactly ``events`` arrival/departure events, discarding the
    first BURN_IN_FRACTION of them before tallying.  A horizon
    ``_check_horizon`` refuses, or a scheme ``_check_fit`` refuses for
    ``capacity`` states and actions leave (0) and join (1), is a ``FormatError``.

    The run is the embedded jump chain of the queue's birth-death process.
    Each event k takes one uniform w and one unit exponential E, drawn a
    block of SIM_BLOCK events at a time: ``rng.random`` for the block's
    uniforms, then ``rng.standard_exponential`` for its exponentials.  So
    the seed is required, and identical seeds give identical runs.  With
    the signals ordered joins first, state n < capacity has cuts on the w
    scale, its cumulative signal law times lam / (lam + 1) (times 1 at
    n = 0, where no one departs).  Event k at length n is an arrival when
    w < lam / (lam + 1) (always at 0), which gets signal count(cut[n] <= w);
    it joins when w is under the last join signal's cut, and is turned away
    at the blocked level; any other event is a departure.  The event ends
    a stay of E / (lam + 1) at n > 0 and E / lam at 0.  The Python loop
    only moves the length along the path; the tallies are taken from the
    path in numpy, the signals on the same floats the loop compared, so
    each join is a join signal.  Arrivals and signals count from event
    ``burn_in_events`` on, and stays from the one after it.
    """
    _check_horizon(events)
    d = instance.capacity
    _check_fit(scheme, d, 2)
    n_signals = scheme.n_signals
    order = sorted(range(n_signals), key=lambda i: scheme.signals[i].action != 1)
    n_join = sum(s.action == 1 for s in scheme.signals)
    lam = instance.arrival_rate
    arrive_cut = lam / (lam + 1.0)
    # Row n ends at 1.0 or arrive_cut, above every w that arrives there.
    cut = signal_cdf(scheme, order)
    cut[1:] *= arrive_cut
    signal_of = _GuideTable(cut)
    up_at = (cut[:, n_join - 1].tolist() if n_join else [-1.0] * d) + [-1.0]
    down = np.full(d + 1, arrive_cut)
    down[0] = 2.0
    down_at = down.tolist()

    rng = np.random.default_rng(seed)
    burn = int(BURN_IN_FRACTION * events)
    n = 0
    signal_counts = np.zeros(n_signals, dtype=np.int64)
    arrival_seen = np.zeros(d + 1, dtype=np.int64)
    occupancy_time = np.zeros(d + 1)
    for start in range(0, events, SIM_BLOCK):
        size = min(SIM_BLOCK, events - start)
        w = rng.random(size)
        stay = rng.standard_exponential(size)
        path = []
        visit = path.append
        for x in w.tolist():
            visit(n)
            if x < up_at[n]:
                n += 1
            elif x >= down_at[n]:
                n -= 1
        path = np.array(path, dtype=np.intp)

        # Arrivals and signals count from event burn on, stays from the next.
        first, after = max(burn - start, 0), max(burn + 1 - start, 0)
        seen, w = path[first:], w[first:]
        arrived = w < down[seen]
        arrival_seen += np.bincount(seen[arrived], minlength=d + 1)
        admitted = arrived & (seen < d)
        sig = signal_of.count(seen[admitted], w[admitted], "right")
        signal_counts += np.bincount(sig, minlength=n_signals)
        stayed = path[after:]
        rate = lam + (stayed > 0)
        occupancy_time += np.bincount(stayed, weights=stay[after:] / rate, minlength=d + 1)

    total_time = float(occupancy_time.sum())
    if total_time > 0:
        occupancy_time = occupancy_time / total_time
    arrivals = int(arrival_seen.sum())
    joins = int(signal_counts[:n_join].sum())
    by_signal = dict(zip(order, signal_counts.tolist()))
    return SimulationResult(
        events=events,
        burn_in_events=burn,
        arrivals=arrivals,
        blocked=int(arrival_seen[d]),
        joins=joins,
        leaves=int(signal_counts[n_join:].sum()),
        join_rate=joins / arrivals if arrivals else 0.0,
        signal_counts={s.label: by_signal[i] for i, s in enumerate(scheme.signals)},
        arrival_seen=arrival_seen,
        occupancy_time=occupancy_time,
        total_time=total_time,
    )
