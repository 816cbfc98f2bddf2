"""Queue disclosure: closed-form blends, the flow LP, and the simulator."""

import dataclasses
import decimal
import math
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from scipy.optimize import linprog

import oracles
import persuade.queueing
from persuade import (
    FormatError,
    LpSolverError,
    OptimalPlan,
    QueueInstance,
    Signal,
    SignalingScheme,
    ThresholdReport,
    cli,
    gamma_closed_form,
    posterior_wait_moments,
    queue_model,
    sample_scheme_batch,
    simulate_queue,
    solve_queue,
    validate_scheme,
    verify_sandwich,
    verify_threshold,
)
from persuade.binary import classify_states
from persuade.geometry import CscMatrix, certificate_bound
from persuade.model import (
    PLAN_MASS_TOLERANCE,
    ActionSpace,
    Belief,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    StateSpace,
)
from persuade.queueing import PREFIX_MIN, PREFIX_PER_JOINABLE, SIM_BLOCK
from persuade.scheme import POSTERIOR_TOLERANCE, scheme_from_plan
from conftest import reference_queue

TAU, BETA = 7.5, 2.5


@pytest.fixture(scope="module")
def reference_solution():
    return solve_queue(reference_queue())


def _probe(d, tau=TAU, beta=BETA):
    inst = QueueInstance(arrival_rate=0.5, beta=beta, tau=tau, capacity=d)
    return PersuasionInstance(
        states=StateSpace(tuple(str(n) for n in range(d))),
        actions=ActionSpace(("leave", "join")),
        prior=Belief.uniform(d),
        sender=SenderUtility(np.column_stack([np.zeros(d), np.ones(d)])),
        receiver=queue_model(inst),
    )


def test_queue_instance_guards():
    # Each refusal names the field; the CLI maps it to its flag and keeps the message.
    for args, field, message in (
        ((0.0, 1.0, 5.0, 10), "arrival_rate", "must be a finite positive number, not 0.0"),
        ((0.5, -0.1, 5.0, 10), "beta", "must be a finite nonnegative number, not -0.1"),
        ((0.5, 1.0, -2.0, 10), "tau", "must be a finite positive number, not -2.0"),
        ((0.5, 1.0, 5.0, 1), "capacity", "must be at least 2, not 1"),
    ):
        with pytest.raises(FormatError) as caught:
            QueueInstance(*args)
        assert (caught.value.path, caught.value.message) == (field, message)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 5.0, 10), (0.5, bad, 5.0, 10), (0.5, 1.0, bad, 10)):
            with pytest.raises(ValueError, match="finite"):
                QueueInstance(*args)


def test_waiting_moments():
    # Behind n customers the wait has mean and variance n + 1.
    for n in (0, 1, 7):
        assert posterior_wait_moments(np.eye(8)[n]) == (n + 1.0, n + 1.0)


def test_posterior_wait_moments_frozen():
    mean, var = posterior_wait_moments(np.array([0.5, 0.0, 0.0, 0.5]))
    assert mean == pytest.approx(2.5, abs=1e-12)
    assert var == pytest.approx(4.75, abs=1e-12)
    assert posterior_wait_moments(np.eye(5)[2]) == pytest.approx((3.0, 3.0))


def test_posterior_wait_moments_mixes_two_lengths():
    # Lengths 0 and 4 wait 1 and 5 on average, with variances 1 and 5.
    mean, var = posterior_wait_moments(np.array([0.5, 0.0, 0.0, 0.0, 0.5]))
    assert mean == pytest.approx(3.0, abs=1e-15)
    assert var == pytest.approx(7.0, abs=1e-12)


def test_gamma_closed_form_frozen_values():
    frozen = {
        (3, 0): 0.41379310344827586,
        (3, 1): 0.3622929173129029,
        (3, 2): 0.0714909014013016,
        (4, 0): 0.24166436972207656,
        (4, 1): 0.18503793750006045,
        (4, 2): 0.02741988565311102,
    }
    for (n, m), want in frozen.items():
        gamma = gamma_closed_form(n, m, TAU, BETA)
        assert gamma == pytest.approx(want, abs=1e-12), (n, m)
        # The blend must price exactly at the patience level.
        chi = np.zeros(5)
        chi[n], chi[m] = gamma, 1.0 - gamma
        mean, var = posterior_wait_moments(chi)
        assert mean + BETA * math.sqrt(var) == pytest.approx(TAU, abs=1e-9)
    assert gamma_closed_form(3, 0, TAU, BETA) == pytest.approx(12 / 29, abs=1e-12)


def test_gamma_beta_zero_is_the_linear_cutpoint():
    for n, m, tau in ((5, 1, 4.0), (3, 0, 2.5), (10, 2, 7.0)):
        want = (tau - 1 - m) / (n - m)
        assert gamma_closed_form(n, m, tau, 0.0) == pytest.approx(want, abs=1e-12)


def test_gamma_endpoints():
    bound_m = 2 + BETA * math.sqrt(2)
    assert gamma_closed_form(5, 1, bound_m, BETA) == pytest.approx(0.0, abs=1e-9)
    # Linear receivers accept right up to the long leg.
    assert gamma_closed_form(5, 1, 6.0 - 1e-9, 0.0) == pytest.approx(1.0, abs=1e-8)
    # Risk-weighted ones do not: the stdev term peaks mid-segment, so even
    # with e_n itself near indifference the boundary crossing nearest the
    # short leg stays interior.  That crossing is what the solver needs.
    bound_n = 6 + BETA * math.sqrt(6)
    tau = bound_n - 1e-9
    gamma = gamma_closed_form(5, 1, tau, BETA)
    assert gamma < 0.8
    model = queue_model(QueueInstance(0.5, BETA, tau, 8))
    eye = np.eye(8)
    chi = gamma * eye[5] + (1 - gamma) * eye[1]
    assert model.differential(chi) == pytest.approx(0.0, abs=1e-9)
    past = (gamma + 1e-3) * eye[5] + (1 - gamma - 1e-3) * eye[1]
    assert model.differential(past) < 0.0


def test_gamma_guards():
    assert math.isnan(gamma_closed_form(2, 2, 5.0, 1.0))  # n <= m
    assert math.isnan(gamma_closed_form(3, 0, 5.0, -1.0))  # negative beta
    assert math.isnan(gamma_closed_form(3, 1, 1.0, 1.0))  # below the short leg's bound
    assert math.isnan(gamma_closed_form(3, 1, 6.0, 0.0))  # at the long leg's bound
    assert type(gamma_closed_form(2, 2, 5.0, 1.0)) is float


def test_gamma_closed_form_arrays_match_scalar_calls():
    # Every (n, m) with n, m < 12, so n <= m, lengths on the wrong side of
    # tau and a negative beta all occur.  A scalar call is NaN on exactly
    # the pairs the array call marks NaN and the one-pair-at-a-time
    # reference has no weight for, and elsewhere all three agree bit for bit.
    n, m = (a.ravel() for a in np.meshgrid(np.arange(12), np.arange(12), indexing="ij"))
    undefined = 0
    for tau in (0.5, 2.0, 3.0 - 5e-10, 5.0, TAU, 10.0, 20.0):
        for beta in (-1.0, 0.0, 1.0, BETA):
            batch = gamma_closed_form(n, m, tau, beta)
            assert batch.shape == n.shape
            for i, (ni, mi) in enumerate(zip(n.tolist(), m.tolist())):
                want = oracles.gamma_closed_form_scalar(ni, mi, tau, beta)
                scalar = gamma_closed_form(ni, mi, tau, beta)
                assert type(scalar) is float
                if want is None:
                    undefined += 1
                    assert math.isnan(scalar) and math.isnan(batch[i]), (ni, mi, tau, beta)
                    continue
                assert float(batch[i]).hex() == scalar.hex() == want.hex(), (ni, mi, tau, beta)
    assert 0 < undefined < 7 * 4 * n.size


def test_gamma_closed_form_long_spans_sit_on_the_boundary():
    # The differential at the returned weight, worked out in 60-digit
    # decimal arithmetic, for spans up to 10^5.  The root in its textbook
    # form, a difference of two terms of size beta^2 (n - m), missed it by
    # up to 2.2e-7 here, and by 1.0e-7 at (41999, 1), tau 6, beta 2.5,
    # past BOUNDARY_TOLERANCE: a capacity-50000 queue solve exited 2.
    lengths = np.array([100, 1600, 10_000, 41_999, 52_430, 99_999])
    for tau, beta in ((6.0, 2.5), (7.5, 2.5), (10.0, 2.5), (5.5, 1.0), (12.0, 0.5), (5.5, 0.0)):
        shorts = [m for m in range(12) if m + 1 + beta * math.sqrt(m + 1) <= tau]
        assert shorts
        for m in shorts:
            gammas = gamma_closed_form(lengths, np.full(lengths.size, m), tau, beta)
            for n, gamma in zip(lengths.tolist(), gammas.tolist()):
                with decimal.localcontext() as ctx:
                    ctx.prec = 60
                    g, span = decimal.Decimal(gamma), decimal.Decimal(n - m)
                    mean = 1 + m + span * g
                    var = mean + span * span * g * (1 - g)
                    diff = decimal.Decimal(tau) - mean - decimal.Decimal(beta) * var.sqrt()
                assert abs(diff) <= decimal.Decimal("1e-12"), (n, m, tau, beta, float(diff))


def test_gamma_matches_bisection():
    for tau in (5.0, TAU, 10.0):
        for beta in (0.0, 1.0, BETA):
            model = queue_model(
                QueueInstance(arrival_rate=0.5, beta=beta, tau=tau, capacity=16)
            )
            eye = np.eye(16)
            for n in (3, 8, 15):
                for m in (0, 1, 2):
                    bound_m = m + 1 + beta * math.sqrt(m + 1)
                    bound_n = n + 1 + beta * math.sqrt(n + 1)
                    if not bound_m <= tau < bound_n:
                        continue
                    closed = gamma_closed_form(n, m, tau, beta)
                    bisected = oracles.segment_bisection(
                        model.differential, eye[n], eye[m]
                    )
                    assert abs(closed - bisected) <= 1e-8, (n, m, tau, beta)


def test_queue_model_scores_and_classification():
    probe = _probe(6)
    diffs = probe.receiver.differential(np.eye(6))
    frozen = [
        4.0,
        1.9644660940672622,
        0.16987298107780724,
        -1.5,
        -3.0901699437494745,
        -4.623724356957945,
    ]
    assert np.allclose(diffs, frozen, atol=1e-12)
    cls = classify_states(probe)
    assert cls.accept == (0, 1, 2)
    assert cls.strict_reject == (3, 4, 5)


def test_solve_queue_reference_instance(reference_solution):
    sol = reference_solution
    assert sol.candidates.classification.accept == (0, 1, 2)
    assert sol.candidates.gamma.shape == (97, 3)

    assert sol.scheme.labels == ("Join_1", "Join_2", "Join_3", "Join_4", "Leave")
    sandwich = verify_sandwich(sol)
    assert sandwich.applicable and sandwich.passed
    assert oracles.join_supports(sol.scheme) == ((0, 4), (0, 3), (1, 3), (2, 3))
    want_means = (
        1.9666574788883062,
        2.2413793103448274,
        2.7245858346258058,
        3.0714909014013016,
    )
    assert np.allclose(sandwich.join_means, want_means, atol=1e-9)

    gammas = {
        (4, 0): 0.24166436972207656,
        (3, 0): 0.41379310344827586,
        (3, 1): 0.3622929173129029,
        (3, 2): 0.0714909014013016,
    }
    joins = [s for s in sol.scheme.signals if s.action == 1]
    for signal, (n, m) in zip(joins, gammas):
        chi = np.zeros(100)
        chi[n], chi[m] = gammas[(n, m)], 1 - gammas[(n, m)]
        assert np.allclose(signal.posterior, chi, atol=1e-9)

    assert sol.join_probability == pytest.approx(0.8296488217262841, abs=1e-9)
    assert sol.throughput == pytest.approx(0.95 * sol.join_probability, abs=1e-12)
    assert sol.threshold.holds
    assert sol.threshold.threshold_state == 4
    assert sol.threshold.monotone_ok

    lam = sol.instance.arrival_rate
    balance = np.abs(sol.t0[1:] + sol.t1[1:] - lam * sol.t1[:-1]).max()
    assert balance <= 1e-8
    assert sol.occupancy.sum() == pytest.approx(1.0, abs=1e-9)
    assert sol.occupancy.min() >= -1e-12
    mass = sol.t0.sum() + sol.t1.sum()
    assert np.allclose(sol.plan.prior * mass, sol.t0 + sol.t1, atol=1e-12)
    assert sol.plan.value == pytest.approx(sol.join_probability / mass, abs=1e-12)

    report = validate_scheme(sol.scheme, sol.persuasion)
    assert report.ok
    join_marginal = sum(s.marginal for s in joins)
    assert join_marginal == pytest.approx(sol.plan.value, abs=1e-9)


def test_solve_queue_full_join_reduces_to_blocking_queue():
    sol = solve_queue(QueueInstance(0.5, 0.0, 20.0, 4))
    pi = oracles.mm1c_occupancy(0.5, 4)
    assert np.allclose(sol.occupancy, pi, atol=1e-9)
    assert sol.join_probability == pytest.approx(0.967741935483871, abs=1e-9)
    assert sol.plan.value == pytest.approx(1.0, abs=1e-12)
    assert sol.scheme.labels == ("Join_1", "Join_2", "Join_3", "Join_4")
    assert np.allclose(sol.plan.prior, pi[:4] / pi[:4].sum(), atol=1e-12)
    assert sol.threshold.holds and sol.threshold.threshold_state is None
    sandwich = verify_sandwich(sol)
    assert not sandwich.applicable


def test_solve_queue_nobody_joins():
    sol = solve_queue(QueueInstance(0.95, 2.5, 0.5, 10))
    assert sol.candidates.classification.accept == ()
    assert sol.join_probability == pytest.approx(0.0, abs=1e-12)
    assert sol.throughput == pytest.approx(0.0, abs=1e-12)
    assert sol.scheme.labels == ("Leave",)
    assert np.allclose(sol.plan.prior, np.eye(10)[0], atol=1e-12)
    assert np.allclose(sol.occupancy, np.concatenate([[1.0], np.zeros(10)]))
    assert sol.threshold.holds and sol.threshold.threshold_state == 0


@pytest.mark.parametrize("lam, capacity", [(0.6, 20), (1.3, 12)])
def test_solved_scheme_prior_is_nonnegative_and_samples(lam, capacity):
    # HiGHS returns weights a few ulps below zero on these instances; kept,
    # they made the scheme prior negative and the sampler refuse it.
    sol = solve_queue(QueueInstance(lam, BETA, TAU, capacity))
    assert sol.t0.min() >= 0.0 and sol.t1.min() >= 0.0
    assert sol.plan.prior.min() >= 0.0 and sol.scheme.prior.min() >= 0.0
    states, signals = sample_scheme_batch(sol.scheme, 0, 1000)
    assert states.shape == signals.shape == (1000,)


def test_simulation_is_deterministic():
    sol = solve_queue(QueueInstance(0.5, 0.0, 20.0, 4))
    a = simulate_queue(sol.instance, sol.scheme, events=20_000, seed=7)
    b = simulate_queue(sol.instance, sol.scheme, events=20_000, seed=7)
    assert a.arrivals == b.arrivals and a.joins == b.joins
    assert a.blocked == b.blocked and a.leaves == b.leaves
    assert a.join_rate == b.join_rate
    assert a.signal_counts == b.signal_counts
    assert np.array_equal(a.arrival_seen, b.arrival_seen)
    assert np.allclose(a.occupancy_time, b.occupancy_time, atol=0.0)
    assert a.burn_in_events == 2_000


# (λ, β, τ, capacity) of solved schemes the simulator and the sampler
# must run draw for draw as the reference loops do.
IDENTITY_QUEUES = [
    (0.5, 0.0, 20.0, 4),
    (0.9, 2.5, 7.5, 5),
    (0.7, 2.5, 7.5, 40),
    (0.95, 2.5, 7.5, 70),
    (0.95, 2.5, 7.5, 100),
    (1.5, 1.0, 5.0, 100),
    (1.2, 2.5, 7.5, 1600),
    None,  # the zero-row scheme
]
# The last spans ten blocks of draws, and its first tallied event opens
# the second block.
IDENTITY_EVENTS = (10_000, 20_000, 33_333, 10 * SIM_BLOCK + 5)


def _identity_case(params):
    """(instance, scheme) of a solved queue, or of a scheme with an all-zero CDF row.

    In the latter, state 2 has no signal mass, so its signal law is not a
    law: ``SignalingScheme`` refuses it, and the sampler and the simulator
    never see it.
    """
    if params is not None:
        sol = solve_queue(QueueInstance(*params))
        return sol.instance, sol.scheme
    d = 6
    conditional = np.random.default_rng(5).dirichlet(np.ones(3), size=d).T
    conditional[:, 2] = 0.0
    prior = np.full(d, 1.0 / d)
    signals = tuple(
        Signal(label, prior, action, 1.0 / 3.0)
        for label, action in (("a", 1), ("b", 0), ("c", 1))
    )
    return QueueInstance(1.5, BETA, TAU, d), SignalingScheme(signals, conditional, prior)


@pytest.mark.parametrize("case", range(len(IDENTITY_QUEUES)))
def test_simulation_matches_the_numpy_reference_loop(case):
    if IDENTITY_QUEUES[case] is None:
        # State 2's signal law is not a law, so there is no scheme to run.
        with pytest.raises(FormatError, match="^conditional: law of state 2 sums to 0.0, not 1$"):
            _identity_case(None)
        return
    instance, scheme = _identity_case(IDENTITY_QUEUES[case])
    for run in (2 * case, 2 * case + 1):
        seed, events = run % 8, IDENTITY_EVENTS[run % 4]
        got = simulate_queue(instance, scheme, events, seed)
        want = oracles.simulate_queue_reference(instance, scheme, events, seed)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), field.name
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
            else:
                assert a == b, field.name


def _batch_means_agree(a: np.ndarray, b: np.ndarray, arrivals: int) -> bool:
    """Whether two sets of batch statistics, one batch per row, agree in mean.

    A batch's standard error is the spread of its set, floored at the
    binomial one of ``arrivals`` draws at the pooled mean; the means must
    meet within 5 standard errors of their difference.
    """
    pooled = (a.mean(axis=0) + b.mean(axis=0)) / 2.0
    floor = np.sqrt(pooled * (1.0 - pooled) / arrivals)
    se = np.sqrt(sum(np.maximum(x.std(axis=0, ddof=1), floor) ** 2 / len(x) for x in (a, b)))
    return bool(np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se))


@pytest.mark.parametrize("case", range(len(IDENTITY_QUEUES) - 1))
def test_simulation_keeps_the_law_of_the_event_race_loop(case):
    # The cases include the reference queue and M/M/1/4.  Each seed is one
    # batch of each simulator; their join rates, seen-length laws and
    # time-weighted occupancies must agree in mean, though no draw is shared.
    instance, scheme = _identity_case(IDENTITY_QUEUES[case])
    runs = [
        [simulate(instance, scheme, 20_000, seed) for seed in range(6)]
        for simulate in (simulate_queue, oracles.simulate_queue_reference_events)
    ]
    arrivals = min(sim.arrivals for sims in runs for sim in sims)
    for stat in (
        lambda sim: sim.join_rate,
        lambda sim: sim.arrival_seen / sim.arrivals,
        lambda sim: sim.occupancy_time,
    ):
        a, b = (np.array([stat(sim) for sim in sims]) for sims in runs)
        assert _batch_means_agree(a, b, arrivals)


@pytest.mark.parametrize("case", range(len(IDENTITY_QUEUES)))
def test_sampler_matches_the_per_state_mask_loop(case):
    if IDENTITY_QUEUES[case] is None:
        # State 2's signal law is not a law, so there is no scheme to draw from.
        with pytest.raises(FormatError, match="^conditional: law of state 2 sums to 0.0, not 1$"):
            _identity_case(None)
        return
    _, scheme = _identity_case(IDENTITY_QUEUES[case])
    for seed in (case, case + 8):
        got = sample_scheme_batch(scheme, seed, 50_000)
        want = oracles.sample_scheme_batch_reference(scheme, seed, 50_000)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def full_persuasion_1600():
    return solve_queue(QueueInstance(0.6, 0.0, 5.5, 1600)).scheme


def _zero_mass_scheme():
    """States 0 and 3 of six have no prior mass; signal "z" has none in any state."""
    prior = np.array([0.0, 0.3, 0.2, 0.0, 0.1, 0.4])
    conditional = np.zeros((4, 6))
    conditional[[0, 1, 3]] = np.random.default_rng(9).dirichlet(np.ones(3), size=6).T
    conditional[1:, [0, 3]] = 0.0
    conditional[0, [0, 3]] = 1.0
    signals = tuple(
        Signal(label, prior, action, 0.25) for label, action in (("a", 1), ("b", 0), ("z", 1), ("c", 0))
    )
    return SignalingScheme(signals, conditional, prior)


@pytest.mark.parametrize("n", [0, 1, 7, 50_000])
@pytest.mark.parametrize("case", ["full persuasion at 1600", "zero masses"])
def test_sampler_matches_the_reference_on_ties_and_tails(case, n, full_persuasion_1600):
    # The capacity-1600 scheme's prior has a geometric tail, packed into the
    # last buckets of its guide table; the other scheme's CDFs have runs of
    # equal entries, from its zero-prior states and its zero-mass signal.
    scheme = full_persuasion_1600 if case == "full persuasion at 1600" else _zero_mass_scheme()
    for seed in (3, 4):
        got = sample_scheme_batch(scheme, seed, n)
        want = oracles.sample_scheme_batch_reference(scheme, seed, n)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if case == "zero masses" and n:
        states, signals = got
        assert not np.isin(states, [0, 3]).any() and not (signals == 2).any()


def _simulation_peak(solution, events: int) -> int:
    tracemalloc.start()
    try:
        simulate_queue(solution.instance, solution.scheme, events, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulation_memory_does_not_grow_with_the_horizon(reference_solution):
    # A run holds one block of SIM_BLOCK events, about 4.5 MiB here; all
    # 10^6 events drawn at once peaked at 62 MB.
    short = _simulation_peak(reference_solution, 100_000)
    long = _simulation_peak(reference_solution, 1_000_000)
    assert long <= 8 * 2**20
    assert long <= 1.5 * short


def test_simulation_guards():
    sol = solve_queue(QueueInstance(0.5, 0.0, 20.0, 4))
    with pytest.raises(FormatError, match="^events: horizon 9999 below the minimum 10000$"):
        simulate_queue(sol.instance, sol.scheme, events=9_999, seed=1)
    other = QueueInstance(0.5, 0.0, 20.0, 5)
    with pytest.raises(ValueError, match="state count"):
        simulate_queue(other, sol.scheme, events=20_000, seed=1)


def test_simulation_tracks_the_blocking_queue():
    sol = solve_queue(QueueInstance(0.5, 0.0, 20.0, 4))
    sim = simulate_queue(sol.instance, sol.scheme, events=200_000, seed=11)
    assert sim.leaves == 0
    assert abs(sim.join_rate - sol.join_probability) < 0.01
    pi = oracles.mm1c_occupancy(0.5, 4)
    assert np.max(np.abs(sim.occupancy_time - pi)) < 0.01
    seen = sim.arrival_seen / sim.arrival_seen.sum()
    assert np.max(np.abs(seen - pi)) < 0.01  # PASTA
    assert sim.arrivals == sim.joins + sim.leaves + sim.blocked


def test_verify_sandwich_flags_a_tampered_scheme(reference_solution):
    sol = reference_solution
    first = sol.scheme.signals[0]
    bad = np.zeros(100)
    bad[0] = 1.0
    tampered_signals = (
        Signal(first.label, bad, first.action, first.marginal),
    ) + sol.scheme.signals[1:]
    tampered = SignalingScheme(
        signals=tampered_signals,
        conditional=sol.scheme.conditional,
        prior=sol.scheme.prior,
    )
    report = verify_sandwich(dataclasses.replace(sol, scheme=tampered))
    assert report.applicable
    assert not report.utility_ok
    assert not report.passed


def test_sandwich_does_not_apply_to_noise_level_leave_mass():
    # A first rung left 9.3e-10 of Leave mass here, the tail of joiners past
    # its prefix; the ladder climbs past it, so nobody is told to leave.
    sol = solve_queue(QueueInstance(0.4303267821128942, 0.31518274714343164, 4.54884511112753, 100))
    assert "Leave" not in sol.scheme.labels and sol.plan.value == 1.0
    report = verify_sandwich(sol)
    assert not report.applicable
    # Leave mass up to the precision plan mass is checked to reads as none,
    # as full_persuasion reads a plan; twice that does not.
    for leave, applicable in ((0.93 * PLAN_MASS_TOLERANCE, False), (2 * PLAN_MASS_TOLERANCE, True)):
        t = sol.plan.t.copy()
        t[0, 0], t[1, 0] = leave, t[1, 0] - leave
        noisy = dataclasses.replace(sol, plan=dataclasses.replace(sol.plan, t=t))
        assert verify_sandwich(noisy).applicable is applicable


def test_default_label_and_sandwich_count_the_same_support(reference_solution):
    # Join_1 mixes lengths 0 and 4; an entry at 5e-9 on length 50 is under
    # POSTERIOR_TOLERANCE, so neither the label nor the audit counts it.
    sol = reference_solution
    posterior = sol.scheme.signals[0].posterior.copy()
    posterior[50], posterior[0] = 5e-9, posterior[0] - 5e-9
    assert 0.0 < posterior[50] <= POSTERIOR_TOLERANCE
    plan = OptimalPlan(
        t=np.vstack([np.zeros(100), posterior]),
        prior=posterior,
        value=1.0,
        atoms=(PlanAtom(action=1, posterior=posterior, weight=1.0),),
    )
    compiled = scheme_from_plan(plan, sol.persuasion)
    assert compiled.labels == (f"mix(4,0,{posterior[4]:.6g})",)
    assert oracles.join_supports(compiled) == ((0, 4),)
    tampered = dataclasses.replace(sol, scheme=compiled)
    assert verify_sandwich(tampered).support_ok


# Rationing (some arrivals told to leave) and full persuasion (nobody is)
# at three capacities, then three edge instances: no accept state, no
# strict-reject state, a single accept state.
FLOW_CASES = (
    [(0.95, 2.5, 7.5, cap) for cap in (40, 100, 400)]
    + [(0.6, 0.0, 5.5, cap) for cap in (40, 100, 400)]
    + [(0.8, 1.0, 1.5, 10), (0.5, 0.0, 100.0, 10), (2.0, 0.0, 1.0, 5)]
)


# Full persuasion at capacities 100 and 400: the weights above ATOM_FLOOR
# of the direct solve of the whole chain join 0.99999999999747 and
# 0.99999999999868 of the arrivals, where the optimum is 1 (every arrival
# joins, and blocking at capacity is below 1e-20).
DIRECT_SHORT_OF_ONE = ((0.6, 0.0, 5.5, 100), (0.6, 0.0, 5.5, 400))


def _record_flow_programs(monkeypatch):
    programs = []
    real_flow_program = persuade.queueing._flow_program

    def recording_flow_program(*args):
        programs.append(real_flow_program(*args))
        return programs[-1]

    monkeypatch.setattr(persuade.queueing, "_flow_program", recording_flow_program)
    return programs


def _blends(candidates):
    """The (reject_state, accept_state, gamma) of each blend, in column order."""
    pairs = slice(len(candidates.classification.accept), candidates.n_accept)
    return [
        (w0, w1, g)
        for (w0, w1), g in zip(candidates.states[pairs].tolist(), candidates.weights[pairs, 0].tolist())
    ]


def _dense_flow(sol):
    """``oracles.queue_flow_dense`` of a solved queue's whole chain."""
    inst, cls = sol.instance, sol.candidates.classification
    return oracles.queue_flow_dense(
        inst.capacity, inst.arrival_rate, cls.accept, cls.strict_reject, _blends(sol.candidates)
    )


@pytest.mark.parametrize("params", FLOW_CASES, ids=str)
def test_sparse_flow_lp_matches_dense_oracle(params, monkeypatch):
    programs = _record_flow_programs(monkeypatch)
    inst = QueueInstance(*params)
    sol = solve_queue(inst)
    # The first program built is the whole chain's, the one certify reads.
    lp = programs[0]

    d, lam = inst.capacity, inst.arrival_rate
    cls = sol.candidates.classification
    blends = _blends(sol.candidates)
    c, a_eq, b_eq, v1, v0 = _dense_flow(sol)
    dense = scipy.sparse.csc_array(a_eq)
    assert type(lp.a_eq) is CscMatrix and lp.a_eq.shape == dense.shape
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lp.a_eq, field), getattr(dense, field)), field
    assert np.array_equal(lp.c, c) and np.array_equal(lp.b_eq, b_eq)

    # HiGHS gets the same program either way, so it returns the same basis;
    # solve_lp clips its weights at 0 and floors them at ATOM_FLOOR.
    x = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds").x
    x = np.maximum(x, 0.0)
    x = np.where(x > 1e-12, x, 0.0)
    assert np.array_equal(persuade.queueing.solve_lp(lp).x, x)

    # The prefix solve reaches the direct solve's optimum, or 1 where the
    # direct solve falls short of it; the masses below are then those of
    # the prefix.
    n1 = v1.shape[0]
    if params in DIRECT_SHORT_OF_ONE:
        assert 1.0 - 1e-11 < x[:n1].sum() < 1.0 - 1e-12
        assert sol.join_probability == pytest.approx(1.0, abs=1e-12)
        x = sol.flow.x
    t1 = v1.T @ x[:n1]
    t0 = v0.T @ x[n1:]
    mass = t0.sum() + t1.sum()
    assert sol.join_probability == pytest.approx(t1.sum(), abs=1e-12)
    assert sol.plan.value == pytest.approx(t1.sum() / mass, abs=1e-12)
    occupancy = np.concatenate([t0 + t1, [lam * t1[d - 1]]])
    assert np.max(np.abs(sol.occupancy - occupancy)) <= 1e-12

    cutoff = verify_threshold(
        OptimalPlan(t=np.vstack([t0, t1]) / mass, prior=(t0 + t1) / mass, value=0.0, atoms=()),
        list(range(d)),
        sol.candidates,
    )
    violations = oracles.threshold_violations(
        list(range(d)),
        cls.accept,
        cls.strict_reject,
        {(w0, w1): g for w0, w1, g in blends},
    )
    assert sol.threshold == ThresholdReport(
        holds=cutoff.holds,
        threshold_state=cutoff.threshold_state,
        monotone_ok=not violations,
    )
    assert validate_scheme(sol.scheme, sol.persuasion).ok


def test_engine_failure_on_a_prefix_moves_up_the_ladder(monkeypatch):
    # The first prefix fails in the engine; the second closes.  A failure
    # on the whole chain, the last rung, is raised.
    real_solve_lp = persuade.queueing.solve_lp
    sizes = []

    def failing_first(lp):
        sizes.append(lp.c.size)
        if len(sizes) == 1 or lp.c.size == 391:
            raise LpSolverError("LP engine failed: (HiGHS Status 0: Not Set)")
        return real_solve_lp(lp)

    monkeypatch.setattr(persuade.queueing, "solve_lp", failing_first)
    sol = solve_queue(QueueInstance(0.95, 2.5, 7.5, 100))
    assert sizes == [43, 91] and sol.flow.rounds == 2
    assert sol.join_probability == pytest.approx(0.8296488217262936, abs=1e-12)
    sizes.clear()
    monkeypatch.setattr(persuade.queueing, "PREFIX_MIN", 99)
    with pytest.raises(LpSolverError, match="HiGHS Status 0"):
        solve_queue(QueueInstance(0.95, 2.5, 7.5, 100))
    assert sizes == [391]


def _rationing_params(seed):
    # The first rationing op of the queue-scale benchmark at ``seed``: lengths
    # 0..3 joinable outright, length 4 not.
    rng = np.random.default_rng([seed, 0])
    lam, beta = float(rng.uniform(0.9, 1.3)), float(rng.uniform(0.5, 2.5))
    lo, hi = 4 + 2 * beta, 5 + beta * math.sqrt(5)
    return lam, beta, float(lo + rng.uniform(0.1, 0.9) * (hi - lo))


RATIONING_1600 = [(*_rationing_params(seed), 1600) for seed in range(101, 111)]


@pytest.mark.parametrize("params", FLOW_CASES + RATIONING_1600, ids=str)
def test_prefix_solve_is_certified_against_the_direct_solve(params, monkeypatch):
    programs = _record_flow_programs(monkeypatch)
    sol = solve_queue(QueueInstance(*params))
    lp = programs[0]
    assert lp.c.size == sol.candidates.states.shape[0] and lp.b_eq.size == params[3]
    bound = certificate_bound(lp)
    assert sol.flow.reduced_cost <= bound and sol.flow.gap <= bound
    assert sol.flow.columns <= lp.c.size and sol.flow.x.size == lp.c.size
    direct = persuade.queueing.solve_lp(lp)
    assert abs(sol.flow.value - direct.value) <= bound
    if params[3] == 1600:
        # Rationing closes on the first prefix, lengths 0..16.
        assert sol.flow.rounds == 1 and sol.flow.columns == 69
        assert sol.flow.reduced_cost <= 1e-14


@pytest.mark.parametrize("params", FLOW_CASES + RATIONING_1600, ids=str)
def test_every_rung_is_the_whole_chain_restricted_to_it(params, monkeypatch):
    # A rung of prefix L holds the columns supported on lengths <= L, and
    # the rows 0..L and the normalization row: each rung _solve_flow
    # builds is the dense oracle's matrix restricted to them, bit for bit.
    # A solve that always fails walks the ladder up to the whole chain.
    sol = solve_queue(QueueInstance(*params))
    c, a_eq, b_eq, _, _ = _dense_flow(sol)
    d = params[3]
    programs = []

    def failing(lp):
        programs.append(lp)
        raise LpSolverError("LP engine failed: no optimum (HiGHS Status 0: Not Set)")

    monkeypatch.setattr(persuade.queueing, "solve_lp", failing)
    with pytest.raises(LpSolverError, match="HiGHS Status 0"):
        solve_queue(QueueInstance(*params))
    longest = sol.candidates.states.max(axis=1)
    joinable = sol.candidates.classification.accept
    length = max(PREFIX_MIN, PREFIX_PER_JOINABLE * (max(joinable, default=-1) + 1))
    rungs = [min(length, d - 1)]
    while rungs[-1] < d - 1:
        rungs.append(min(2 * rungs[-1], d - 1))
    assert len(programs) == len(rungs)
    for lp, length in zip(programs, rungs):
        cols = np.flatnonzero(longest <= length)
        rows = np.r_[: min(length + 1, d - 1), d - 1] if cols.size < c.size else np.arange(d)
        want = scipy.sparse.csc_array(a_eq[np.ix_(rows, cols)])
        assert lp.a_eq.shape == want.shape
        assert np.array_equal(lp.a_eq.indptr, want.indptr)
        assert np.array_equal(lp.a_eq.indices, want.indices)
        assert lp.a_eq.data.tobytes() == want.data.tobytes()
        assert lp.c.tobytes() == c[cols].tobytes() and lp.b_eq.tobytes() == b_eq[rows].tobytes()


@pytest.mark.parametrize("lam, rungs", [(0.55, 2), (0.6, 2), (0.65, 3)])
def test_full_persuasion_climbs_the_prefix_ladder(lam, rungs):
    # Everyone joins, so the mass at length n is about lam^n: the prefix
    # must reach the lengths where that falls under the certificate's
    # bound, 40 lengths at lam .55 and .6 and 80 at .65 (16 lengths first).
    sol = solve_queue(QueueInstance(lam, 0.0, 5.5, 1600))
    assert sol.flow.rounds == rungs
    assert sol.plan.value == 1.0
    assert validate_scheme(sol.scheme, sol.persuasion).ok


@pytest.mark.parametrize("capacity", [100, 400, 1600])
def test_full_persuasion_climbs_past_the_tail_of_joiners(capacity):
    # The second rung's optimum is within the certificate's bound of 1 but
    # puts 1.9e-9 on a Leave column: the joiners past its prefix, which it
    # cannot hold.  The third holds them, and nobody is told to leave.
    sol = solve_queue(
        QueueInstance(0.44389059492858984, 0.6225674878326488, 5.143517505325058, capacity)
    )
    assert sol.flow.rounds == 3 and sol.flow.columns == 187
    assert not sol.t0.any() and sol.plan.value == 1.0
    assert abs(1.0 - sol.flow.value) <= 1e-12
    assert sol.threshold == ThresholdReport(holds=True, threshold_state=None, monotone_ok=True)


def _sweep(seed, n):
    """n random queue instances: rationing and full persuasion, capacity 5 to 1600."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        lam = rng.uniform(0.2, 3.0)
        beta = rng.uniform(0.0, 3.0) if rng.random() < 0.7 else 0.0
        tau = rng.uniform(1.5, 12.0)
        yield QueueInstance(lam, beta, tau, int(rng.choice([5, 12, 30, 100, 400, 1600])))


def test_random_queue_instances_solve_and_validate():
    # Draws 138 and 246 priced a column of the whole chain at 8.9e-8 under
    # HiGHS's default dual tolerance, and exited 2 before solve_lp retried
    # on its certificate.
    instances = list(_sweep(12, 300))
    assert instances[138].arrival_rate == 2.8927817964701577
    assert instances[246].arrival_rate == 2.372653907359783
    for instance in instances:
        sol = solve_queue(instance)
        assert validate_scheme(sol.scheme, sol.persuasion).ok, instance


def test_corrupted_flow_duals_fail_the_certificate_on_the_whole_chain(monkeypatch):
    # With zeroed duals every Join column prices at 1, so no prefix closes:
    # the prefixes end at lengths 12, 24, 48 and 96, and then the rung of
    # the whole chain raises the plan LPs' certificate error.
    real_solve_lp = persuade.queueing.solve_lp
    sizes = []

    def zeroed(lp):
        sizes.append(lp.c.size)
        res = real_solve_lp(lp)
        return dataclasses.replace(res, dual=np.zeros_like(res.dual))

    monkeypatch.setattr(persuade.queueing, "solve_lp", zeroed)
    with pytest.raises(LpSolverError, match="LP optimality certificate failed: reduced cost 1.000e"):
        solve_queue(QueueInstance(0.95, 2.5, 7.5, 100))
    assert sizes == [43, 91, 187, 379, 391]


def test_swapped_order_audit_matches_pairwise_oracle():
    sol = solve_queue(QueueInstance(0.95, 2.5, 7.5, 400))
    cls = sol.candidates.classification
    assert cls.accept == (0, 1, 2)
    # Accept state 2 after strict-reject state 3, and two strict-reject
    # states swapped far apart.
    order = [0, 1, 3, 2] + list(range(4, 400))
    order[100], order[300] = 300, 100
    report = verify_threshold(sol.plan, order, sol.candidates)
    gammas = {
        (w0, wa): sol.candidates.gamma[i, k]
        for i, w0 in enumerate(cls.strict_reject)
        for k, wa in enumerate(cls.accept)
    }
    expected = oracles.threshold_violations(order, cls.accept, cls.strict_reject, gammas)
    assert any("not strict-reject" in v for v in expected)
    assert any("blend weight" in v for v in expected)
    assert report.monotone_ok is (not expected)
    assert report.monotone_ok is False


def test_capacity_ten_thousand_rationing_solve_completes():
    beta = 1.0
    # Lengths 0..3 are joinable outright, length 4 is not.
    tau = 0.5 * (4 + beta * 2.0 + 5 + beta * math.sqrt(5))
    sol = solve_queue(QueueInstance(1.1, beta, tau, 10_000))
    assert sol.candidates.classification.accept == (0, 1, 2, 3)
    assert sol.candidates.gamma.shape == (9_996, 4)
    assert sol.threshold.holds and sol.threshold.monotone_ok
    assert 0.0 < sol.join_probability < 1.0
    assert sol.occupancy.sum() == pytest.approx(1.0, abs=1e-9)

    # One swapped pair faults only at the earlier state: each accept
    # state's blend weight rises from length 5001 to 5000.
    order = list(range(10_000))
    order[5000], order[5001] = 5001, 5000
    start = time.perf_counter()
    report = verify_threshold(sol.plan, order, sol.candidates)
    assert time.perf_counter() - start < 5.0
    # The identity order passes, so every fault involves a moved state.  The
    # pairwise oracle is quadratic, so it reads the accept states and the
    # lengths around the swap.
    g = sol.candidates.gamma
    window = order[:4] + order[4998:5004]
    gammas = {(w0, a): g[w0 - 4, a] for w0 in window[4:] for a in range(4)}
    expected = oracles.threshold_violations(window, range(4), window[4:], gammas)
    assert expected == [
        f"blend weight with accept state {a} fails to drop from state 5001 "
        f"({g[4997, a]:.6g}) to 5000 ({g[4996, a]:.6g})"
        for a in range(4)
    ]
    assert report.monotone_ok is (not expected)
    assert report.monotone_ok is False


def test_queue_over_the_blend_bound_exits_cleanly(capsys):
    # beta = 0 and tau = 500.5 make lengths 0..499 joinable: 500 x 500
    # blends, over the bound, refused right after classification.
    argv = ["queue", "--lambda", "0.9", "--beta", "0", "--tau", "500.5", "--capacity", "1000"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "persuade: capacity 1000 needs 250000 boundary blends (500 strict-reject "
        f"x 500 joinable lengths), over the limit of {persuade.queueing.MAX_QUEUE_BLENDS}\n"
    )


def test_capacity_hundred_thousand_is_refused_within_seconds():
    # Lengths 0..3 are joinable: 99,996 x 4 blends, over the bound.  The
    # refusal comes right after classification, which scores each length
    # from its own feature row, so it takes well under the 10 s cap.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="399984 boundary blends .* over the limit of 100000"):
        solve_queue(QueueInstance(0.95, 2.5, 10.0, 100_000))
    assert time.perf_counter() - start < 10.0


def test_capacity_over_the_bound_with_nobody_joinable_is_refused_at_once(capsys):
    # tau < 1 + beta makes every length strict-reject, so there is no blend
    # for MAX_QUEUE_BLENDS to count; every length is a flow-LP column, and
    # the capacity is refused before the probe instance is built.
    capacity = persuade.queueing.MAX_QUEUE_BLENDS + 1
    message = f"capacity {capacity} is over the limit of {capacity - 1} lengths"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_queue(QueueInstance(1.0, 0.0, 0.5, capacity))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20
    argv = ["queue", "--lambda", "1", "--beta", "0", "--tau", "0.5", "--capacity", str(capacity)]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", f"persuade: {message}\n")
