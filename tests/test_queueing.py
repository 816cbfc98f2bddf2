"""Queue disclosure: closed-form blends, the flow LP, and the simulator."""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.sparse
from scipy.optimize import linprog

import oracles
import persuade.binary
import persuade.queueing
from persuade import (
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
from persuade.model import (
    ActionSpace,
    Belief,
    PersuasionInstance,
    SenderUtility,
    StateSpace,
)
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
    with pytest.raises(ValueError, match="arrival rate"):
        QueueInstance(0.0, 1.0, 5.0, 10)
    with pytest.raises(ValueError, match="beta"):
        QueueInstance(0.5, -0.1, 5.0, 10)
    with pytest.raises(ValueError, match="tau"):
        QueueInstance(0.5, 1.0, 0.0, 10)
    with pytest.raises(ValueError, match="capacity"):
        QueueInstance(0.5, 1.0, 5.0, 1)


def test_waiting_moments():
    # Behind n customers the wait has mean and variance n + 1.
    for n in (0, 1, 7):
        assert posterior_wait_moments(np.eye(8)[n]) == (n + 1.0, n + 1.0)


def test_posterior_wait_moments_frozen():
    mean, var = posterior_wait_moments(np.array([0.5, 0.0, 0.0, 0.5]))
    assert mean == pytest.approx(2.5, abs=1e-12)
    assert var == pytest.approx(4.75, abs=1e-12)
    assert posterior_wait_moments(np.eye(5)[2]) == pytest.approx((3.0, 3.0))


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
    with pytest.raises(ValueError, match="n > m"):
        gamma_closed_form(2, 2, 5.0, 1.0)
    with pytest.raises(ValueError, match="beta"):
        gamma_closed_form(3, 0, 5.0, -1.0)
    with pytest.raises(ValueError, match="outside"):
        gamma_closed_form(3, 1, 1.0, 1.0)  # below the short leg's bound
    with pytest.raises(ValueError, match="outside"):
        gamma_closed_form(3, 1, 6.0, 0.0)  # at the long leg's bound


def test_gamma_closed_form_arrays_match_scalar_calls():
    # Every (n, m) with n, m < 12, so n <= m, lengths on the wrong side of
    # tau and a negative beta all occur.  A scalar call raises on exactly
    # the pairs the array call marks NaN, and both are bit for bit the
    # one-pair-at-a-time reference.
    n, m = (a.ravel() for a in np.meshgrid(np.arange(12), np.arange(12), indexing="ij"))
    raised = 0
    for tau in (0.5, 2.0, 3.0 - 5e-10, 5.0, TAU, 10.0, 20.0):
        for beta in (-1.0, 0.0, 1.0, BETA):
            batch = gamma_closed_form(n, m, tau, beta)
            assert batch.shape == n.shape
            for i, (ni, mi) in enumerate(zip(n.tolist(), m.tolist())):
                want = oracles.gamma_closed_form_scalar(ni, mi, tau, beta)
                try:
                    scalar = gamma_closed_form(ni, mi, tau, beta)
                except ValueError:
                    raised += 1
                    assert want is None and math.isnan(batch[i]), (ni, mi, tau, beta)
                    continue
                assert type(scalar) is float
                assert float(batch[i]).hex() == scalar.hex() == want.hex(), (ni, mi, tau, beta)
    assert 0 < raised < 7 * 4 * n.size


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
    assert sandwich.applicable and sandwich.passed and sandwich.ok
    assert sandwich.join_supports == ((0, 4), (0, 3), (1, 3), (2, 3))
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
    assert np.allclose(sol.prior * mass, sol.t0 + sol.t1, atol=1e-12)
    assert np.allclose(sol.plan.prior, sol.prior)
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
    assert np.allclose(sol.prior, pi[:4] / pi[:4].sum(), atol=1e-12)
    assert sol.threshold.holds and sol.threshold.threshold_state is None
    sandwich = verify_sandwich(sol)
    assert not sandwich.applicable
    assert sandwich.ok


def test_solve_queue_nobody_joins():
    sol = solve_queue(QueueInstance(0.95, 2.5, 0.5, 10))
    assert sol.candidates.classification.accept == ()
    assert sol.join_probability == pytest.approx(0.0, abs=1e-12)
    assert sol.throughput == pytest.approx(0.0, abs=1e-12)
    assert sol.scheme.labels == ("Leave",)
    assert np.allclose(sol.prior, np.eye(10)[0], atol=1e-12)
    assert np.allclose(sol.occupancy, np.concatenate([[1.0], np.zeros(10)]))
    assert sol.threshold.holds and sol.threshold.threshold_state == 0


@pytest.mark.parametrize("lam, capacity", [(0.6, 20), (1.3, 12)])
def test_solved_scheme_prior_is_nonnegative_and_samples(lam, capacity):
    # HiGHS returns weights a few ulps below zero on these instances; kept,
    # they made the scheme prior negative and the sampler refuse it.
    sol = solve_queue(QueueInstance(lam, BETA, TAU, capacity))
    assert sol.t0.min() >= 0.0 and sol.t1.min() >= 0.0
    assert sol.prior.min() >= 0.0 and sol.scheme.prior.min() >= 0.0
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


def test_simulation_guards():
    sol = solve_queue(QueueInstance(0.5, 0.0, 20.0, 4))
    with pytest.raises(ValueError, match="horizon"):
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
    assert not report.ok


# Rationing (some arrivals told to leave) and full persuasion (nobody is)
# at three capacities, then three edge instances: no accept state, no
# strict-reject state, a single accept state.
FLOW_CASES = (
    [(0.95, 2.5, 7.5, cap) for cap in (40, 100, 400)]
    + [(0.6, 0.0, 5.5, cap) for cap in (40, 100, 400)]
    + [(0.8, 1.0, 1.5, 10), (0.5, 0.0, 100.0, 10), (2.0, 0.0, 1.0, 5)]
)


@pytest.mark.parametrize("params", FLOW_CASES, ids=str)
def test_sparse_flow_lp_matches_dense_oracle(params, monkeypatch):
    programs = []
    real_solve_lp = persuade.queueing.solve_lp

    def recording_solve_lp(lp):
        programs.append(lp)
        return real_solve_lp(lp)

    monkeypatch.setattr(persuade.queueing, "solve_lp", recording_solve_lp)
    inst = QueueInstance(*params)
    sol = solve_queue(inst)
    (lp,) = programs

    d, lam = inst.capacity, inst.arrival_rate
    cls = sol.candidates.classification
    pairs = slice(len(cls.accept), sol.candidates.n_accept)
    blends = [
        (w0, w1, g)
        for (w0, w1), g in zip(
            sol.candidates.states[pairs].tolist(), sol.candidates.weights[pairs, 0].tolist()
        )
    ]
    c, a_eq, b_eq, v1, v0 = oracles.queue_flow_dense(
        d, lam, cls.accept, cls.strict_reject, blends
    )
    dense = scipy.sparse.csc_array(a_eq)
    assert scipy.sparse.issparse(lp.a_eq)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lp.a_eq, field), getattr(dense, field)), field
    assert np.array_equal(lp.c, c) and np.array_equal(lp.b_eq, b_eq)

    # HiGHS gets the same program either way, so it returns the same basis.
    x = linprog(-c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds").x
    assert np.array_equal(real_solve_lp(lp).x, x)

    n1 = v1.shape[0]
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
        witness=cutoff.witness,
        monotone_ok=not violations,
        violations=tuple(violations),
    )


def test_clean_solve_never_runs_the_pairwise_audit(monkeypatch):
    def refuse(*args):
        raise AssertionError("pairwise audit ran on a clean solve")

    monkeypatch.setattr(persuade.binary, "_pairwise_violations", refuse)
    sol = solve_queue(QueueInstance(0.95, 2.5, 7.5, 400))
    assert sol.threshold.monotone_ok is True


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
