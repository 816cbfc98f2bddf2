"""State classification, boundary blends, and the acceptance-hull LP."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from persuade import (
    ActionSpace,
    Belief,
    HullCandidates,
    OptimalPlan,
    PersuasionInstance,
    SenderUtility,
    StateClassification,
    StateSpace,
    ThresholdReport,
    UtilityModel,
    classify_states,
    compute_k01,
    full_persuasion,
    hull_candidates,
    make_model,
    solve_binary,
    verify_threshold,
)
from persuade.binary import BISECTION_TOLERANCE, BOUNDARY_TOLERANCE
from conftest import threshold_instance


def _binary_instance(prior, receiver, labels=None, v1=None):
    d = len(prior)
    names = labels or tuple(str(w) for w in range(d))
    table = np.column_stack([np.zeros(d), np.ones(d) if v1 is None else v1])
    return PersuasionInstance(
        states=StateSpace(names),
        actions=ActionSpace(("no", "yes")),
        prior=Belief(np.asarray(prior, dtype=float)),
        sender=SenderUtility(table),
        receiver=receiver,
    )


def _queue_style_model(d, tau, beta):
    lengths = np.arange(1.0, d + 1.0)
    u = np.column_stack([np.zeros(d), tau - lengths])
    g = np.column_stack([np.zeros(d), lengths])
    return make_model("mean_stdev", u=u, g_mean=g, g_var=g, beta=beta)


def _with_root(instance, root):
    """The instance with ``root`` as its receiver's ``edge_root``."""
    return dataclasses.replace(
        instance, receiver=dataclasses.replace(instance.receiver, edge_root=root)
    )


def _expected_binary(du):
    du = np.asarray(du, dtype=float)
    return make_model("expected", u=np.column_stack([np.zeros(du.size), du]))


def test_classify_states_queue_frozen():
    inst = _binary_instance(
        np.full(6, 1.0 / 6.0), _queue_style_model(6, 7.5, 2.5)
    )
    cls = classify_states(inst)
    assert cls.accept == (0, 1, 2)
    assert cls.strict_reject == (3, 4, 5)
    assert oracles.weak_reject_states(inst) == (3, 4, 5)
    expected = [
        4.0,
        1.9644660940672622,
        0.16987298107780724,
        -1.5,
        -3.0901699437494745,
        -4.623724356957945,
    ]
    assert np.allclose(cls.differentials, expected, atol=1e-12)


def test_classify_boundary_state_joins_both_sides():
    inst = _binary_instance([0.4, 0.3, 0.3], _expected_binary([0.0, 1.0, -1.0]))
    cls = classify_states(inst)
    assert 0 in cls.accept and 0 in oracles.weak_reject_states(inst)
    assert cls.strict_reject == (2,)


def test_compute_k01_threshold_game():
    inst = threshold_instance()
    gamma = compute_k01(inst)
    assert gamma.shape == (3,)
    candidates = hull_candidates(inst)
    assert candidates.states[3:6].tolist() == [[3, 0], [3, 1], [3, 2]]
    assert np.array_equal(candidates.gamma, gamma.reshape(1, 3))
    for g, w1, row in zip(gamma, (0, 1, 2), candidates.rows(slice(3, 6))):
        assert g == pytest.approx(1.0 / 3.0, abs=1e-9)
        target = np.zeros(4)
        target[3], target[w1] = g, 1 - g
        assert np.allclose(row, target)


def test_compute_k01_accepts_closed_form_and_checks_boundary():
    inst = threshold_instance()
    gamma = compute_k01(_with_root(inst, lambda w0, w1: np.full(w0.shape, 1.0 / 3.0)))
    assert all(g == pytest.approx(1.0 / 3.0, abs=1e-15) for g in gamma)
    with pytest.raises(ValueError, match="boundary"):
        compute_k01(_with_root(inst, lambda w0, w1: np.full(w0.shape, 0.9)))


def test_compute_k01_degenerate_boundary_accept_state():
    inst = _binary_instance([0.4, 0.3, 0.3], _expected_binary([1.0, 0.0, -1.0]))
    candidates = hull_candidates(inst)
    assert candidates.states[2:4].tolist() == [[2, 0], [2, 1]]
    assert np.array_equal(candidates.gamma.ravel(), compute_k01(inst))
    assert candidates.gamma[0, 0] == pytest.approx(0.5, abs=1e-9)
    assert candidates.gamma[0, 1] == 0.0
    assert np.allclose(candidates.rows(slice(3, 4)), [[0.0, 1.0, 0.0]])


def test_compute_k01_empty_without_strict_rejects():
    inst = _binary_instance([0.5, 0.5], _expected_binary([1.0, 2.0]))
    assert compute_k01(inst).shape == (0,)


def _per_pair_k01(instance, root=None):
    """compute_k01 one pair at a time on 1-d beliefs, bisecting with the oracle.

    ``root(w0, w1)`` stands for the receiver's edge root, NaN where it has
    none.  Returns the (reject, accept, gamma.hex()) triples, or the first
    boundary miss's message.  A blend at gamma 0 is its accept state and
    goes unchecked.
    """
    cls = classify_states(instance)
    diff = instance.receiver.differential
    eye = np.eye(instance.n_states)
    out = []
    for w0 in cls.strict_reject:
        for w1 in cls.accept:
            if float(diff(eye[w1])) < 0.0:
                g = 0.0
            else:
                g = math.nan if root is None else float(root(w0, w1))
                if math.isnan(g):
                    g = oracles.segment_bisection(diff, eye[w0], eye[w1])
            g = min(max(g, 0.0), 1.0)
            boundary = float(diff(g * eye[w0] + (1.0 - g) * eye[w1]))
            if g > 0.0 and abs(boundary) > BOUNDARY_TOLERANCE:
                return (
                    f"blend of states {w0},{w1} misses the boundary: "
                    f"differential {boundary:.3e}"
                )
            out.append((w0, w1, g.hex()))
    return out


def _batched_k01(instance):
    try:
        gamma = compute_k01(instance)
    except ValueError as exc:
        return str(exc)
    cls = classify_states(instance)
    pairs = [(w0, w1) for w0 in cls.strict_reject for w1 in cls.accept]
    return [(w0, w1, g.hex()) for (w0, w1), g in zip(pairs, gamma.tolist())]


def _k01_receiver(family, rng, d, flat):
    if family == "mean_stdev":
        # Action 0's moments do not move with the state: convex reject region.
        g_mean = np.column_stack([np.full(d, 0.5), rng.uniform(0.0, 1.0, d)])
        g_var = np.column_stack([np.full(d, 0.25), rng.uniform(0.05, 1.0, d)])
        u = np.column_stack([np.zeros(d), rng.uniform(-1.0, 1.0, d)])
        beta = float(rng.uniform(0.0, 2.0))
        return make_model("mean_stdev", u=u, g_mean=g_mean, g_var=g_var, beta=beta)
    if family == "maximin":
        tables = np.zeros((int(rng.integers(2, 5)), d, 2))
        tables[:, :, 0] = rng.uniform(-1.0, 1.0, tables.shape[:2])
        tables[:, :, 1] = tables[:, :, 0].min(axis=0) + rng.uniform(-1.0, 1.0, d)
        return make_model("maximin", tables=tables)
    if family == "custom":
        a, b = rng.uniform(-1.0, 1.0, d), rng.uniform(0.05, 1.0, d)
        s = float(rng.uniform(0.0, 1.0))

        def evaluator(mu, action):
            return float(mu @ a - s * np.sqrt(mu @ b)) if action else 0.0

        return make_model(
            "custom", evaluator=evaluator, n_states=d, n_actions=2,
            convex_reject_region=True,
        )
    if family == "cvar":
        # One action-0 loss law for every state: convex reject region.  Some
        # action-1 laws lie wholly at or below tau: accept states with no
        # tail mass, where the differential jumps at gamma 0.
        values, probs = [], []
        for _ in range(d):
            top = 1.0 if rng.uniform() < 0.3 else 2.0
            values.append([[0.5, 1.5], sorted(rng.uniform(0.0, top, 3).tolist())])
            probs.append([[0.5, 0.5], rng.dirichlet(np.ones(3)).tolist()])
        return make_model("cvar", loss_values=values, loss_probs=probs, tau=1.0)
    du = rng.uniform(-1.0, 1.0, d)
    if flat:
        # An accept state only within TIE_TOLERANCE: its blends are gamma 0.
        du[0] = -5e-10
    return _expected_binary(du)


BUILT_IN_KINDS = ["mean_stdev", "maximin", "expected", "cvar"]


@st.composite
def _k01_cases(draw, families=("custom", *BUILT_IN_KINDS)):
    family = draw(st.sampled_from(families))
    d = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    receiver = _k01_receiver(family, rng, d, flat=draw(st.booleans()))
    open_pairs = draw(st.integers(0, 2**20))
    return _binary_instance(np.full(d, 1.0 / d), receiver), open_pairs


@settings(max_examples=200, deadline=None)
@given(_k01_cases())
def test_batched_k01_matches_per_pair_bisection(case):
    inst, open_pairs = case
    # A custom model has no closed form: every edge is bisected.
    if inst.receiver.kind == "custom":
        assert _batched_k01(inst) == _per_pair_k01(inst)

    # A closed form for some pairs, NaN (no closed form) for the others: an
    # edge root leaves its NaN pairs to the bisection, whatever the kind.
    eye = np.eye(inst.n_states)
    diff = inst.receiver.differential

    def pair_gamma(w0, w1):
        if open_pairs >> ((w0 * inst.n_states + w1) % 20) & 1:
            return math.nan
        if float(diff(eye[w1])) < 0.0:
            return 0.25  # never asked: a tolerance-only accept state blends at 0
        return oracles.segment_bisection(diff, eye[w0], eye[w1])

    # compute_k01 passes every pair at once; the reference asks one at a time.
    root = np.vectorize(pair_gamma, otypes=[float])
    assert _batched_k01(_with_root(inst, root)) == _per_pair_k01(inst, root)


# The closed-form blends of the built-in kinds sit this close to the surface;
# the worst over the solve-fixed instances of 40 seeds is 1.9e-13, a CVaR edge.
EDGE_ROOT_RESIDUAL = 1e-12


@settings(max_examples=300, deadline=None)
@given(_k01_cases(BUILT_IN_KINDS))
def test_closed_form_k01_within_bisection_bracket(case):
    # Each built-in kind's edge root lies in the oracle bisection's final
    # bracket, give or take an ulp, and on the surface to EDGE_ROOT_RESIDUAL.
    inst, _ = case
    cls = classify_states(inst)
    gamma = compute_k01(inst, cls)
    diff = inst.receiver.differential
    eye = np.eye(inst.n_states)
    pairs = [(w0, w1) for w0 in cls.strict_reject for w1 in cls.accept]
    for (w0, w1), g in zip(pairs, gamma.tolist()):
        if float(diff(eye[w1])) < 0.0:
            assert g == 0.0
            continue
        lo = oracles.segment_bisection(diff, eye[w0], eye[w1])
        ulp = math.ulp(max(g, lo))
        assert lo - ulp <= g <= lo + BISECTION_TOLERANCE + ulp, (w0, w1, g, lo)
        if g > 0.0:
            assert abs(float(diff(g * eye[w0] + (1.0 - g) * eye[w1]))) <= EDGE_ROOT_RESIDUAL


def test_tolerance_only_accept_state_blends_at_zero():
    # State 0 accepts only within TIE_TOLERANCE.  Along its edge to the
    # strict-reject state 2 the differential turns positive, so bisecting
    # that edge would land near 0.75; its blend is gamma 0 instead.
    def evaluator(mu, action):
        return float(mu @ [-5e-10, 1.0, -1.0] + 4.0 * mu[0] * mu[2]) if action else 0.0

    receiver = make_model(
        "custom", evaluator=evaluator, n_states=3, n_actions=2, convex_reject_region=True
    )
    inst = _binary_instance(np.full(3, 1.0 / 3.0), receiver)
    cls = classify_states(inst)
    assert cls.accept == (0, 1) and cls.strict_reject == (2,)
    gamma = compute_k01(inst, cls)
    assert gamma.shape == (2,)
    assert gamma[0] == 0.0
    assert gamma[1] == pytest.approx(0.5, abs=BISECTION_TOLERANCE)
    assert _batched_k01(inst) == _per_pair_k01(inst)


def test_compute_k01_model_calls_do_not_grow_with_pairs(monkeypatch):
    # 20 strict-reject x 20 accept states: 400 edges, one block of slots.
    d = 40
    inst = _binary_instance(
        np.full(d, 1.0 / d), _k01_receiver("mean_stdev", np.random.default_rng(3), d, False)
    )
    calls = []
    original = UtilityModel.differential_slots

    def counted(self, states, weights):
        calls.append(states.shape)
        return original(self, states, weights)

    monkeypatch.setattr(UtilityModel, "differential_slots", counted)
    k01 = compute_k01(inst)
    assert len(k01) > 100
    # classify_states, then the boundary check: the edge roots need no call.
    assert len(calls) == 2
    custom = _binary_instance(
        np.full(d, 1.0 / d), _k01_receiver("custom", np.random.default_rng(3), d, False)
    )
    cls = classify_states(custom)
    calls.clear()
    assert len(compute_k01(custom, cls)) > 100
    assert len(calls) <= 35
    # With a root for every pair, no bisection step runs: the one call is
    # the boundary check, here on no blends.
    calls.clear()
    compute_k01(_with_root(custom, lambda w0, w1: np.zeros(w0.shape)), cls)
    assert calls == [(0, 2)]


def test_compute_k01_calls_edge_root_once_with_every_pair():
    d = 40
    inst = _binary_instance(
        np.full(d, 1.0 / d), _k01_receiver("mean_stdev", np.random.default_rng(3), d, False)
    )
    cls = classify_states(inst)
    calls = []

    def root(reject_states, accept_states):
        calls.append((reject_states.tolist(), accept_states.tolist()))
        return np.full(reject_states.shape, np.nan)

    gamma = compute_k01(_with_root(inst, root), cls)
    assert len(cls.strict_reject) > 1 and len(cls.accept) > 1
    assert calls == [
        (
            [w0 for w0 in cls.strict_reject for _ in cls.accept],
            [w1 for _ in cls.strict_reject for w1 in cls.accept],
        )
    ]
    # NaN everywhere leaves every pair to the bisection, as for a model
    # with no edge roots.
    assert np.array_equal(gamma, compute_k01(_with_root(inst, None), cls))
    assert not np.array_equal(gamma, compute_k01(inst, cls))


def test_accept_vertices_orders_pures_then_blends():
    inst = threshold_instance()
    candidates = hull_candidates(inst)
    assert candidates.n_accept == 6
    v1 = candidates.rows(slice(candidates.n_accept))
    assert v1.shape == (6, 4)
    assert np.allclose(v1[:3], np.eye(4)[:3])
    assert [candidates.label(i) for i in range(3)] == ["0", "1", "2"]
    assert all(candidates.label(i).startswith("mix(3,") for i in range(3, 6))
    # Strict-reject pure states close the list, recommending action 0.
    assert np.array_equal(candidates.rows(slice(6, None)), np.eye(4)[3:])
    assert candidates.actions.tolist() == [1] * 6 + [0]


def test_solve_binary_two_state_frozen():
    inst = _binary_instance(
        [0.7, 0.3],
        _expected_binary([-1.0, 1.0]),
        labels=("innocent", "guilty"),
    )
    plan = solve_binary(inst)
    assert plan.value == pytest.approx(0.6, abs=1e-9)
    assert np.allclose(plan.t[1], [0.3, 0.3], atol=1e-9)
    assert np.allclose(plan.t[0], [0.4, 0.0], atol=1e-9)
    labels = {a.label for a in plan.atoms}
    assert labels == {"mix(innocent,guilty,0.5)", "innocent"}
    assert oracles.revelation_lp(
        inst.prior.weights,
        np.array(inst.receiver.params["u"], dtype=float),
        inst.sender.table,
    ) == pytest.approx(plan.value, abs=1e-9)


def test_solve_binary_threshold_game_full_value():
    inst = threshold_instance()
    plan = solve_binary(inst)
    assert plan.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(plan.t[1], inst.prior.weights, atol=1e-8)
    assert plan.t[0].sum() <= 1e-8
    assert len(plan.atoms) <= 4
    assert full_persuasion(inst, plan)


def test_solve_binary_matches_brute_force_oracle():
    cases = [
        ([0.2, 0.2, 0.6], [1.0, 1.0, -2.0], 0.6),
        ([0.1, 0.6, 0.3], [2.0, -1.0, -1.0], 0.3),
    ]
    for prior, du, frozen in cases:
        inst = _binary_instance(prior, _expected_binary(du))
        plan = solve_binary(inst)
        assert plan.value == pytest.approx(frozen, abs=1e-9)
        v = inst.sender.table
        oracle = oracles.split_brute_force(
            np.asarray(prior),
            lambda mu, a, du=np.asarray(du): float(mu @ du) if a else 0.0,
            v,
            k=6,
        )
        assert plan.value == pytest.approx(oracle, abs=1e-9)


def test_solve_binary_spot_check_catches_false_convexity():
    # Rejection holds on two disjoint slabs of mu_0; declaring the region
    # convex is a lie the midpoint probe should expose.
    model = make_model(
        "custom",
        evaluator=lambda mu, a: 0.2 - abs(mu[0] - 0.5) if a else 0.0,
        n_states=3,
        n_actions=2,
        convex_reject_region=True,
    )
    inst = _binary_instance([0.4, 0.3, 0.3], model)
    with pytest.raises(ValueError, match="midpoint"):
        solve_binary(inst)


def test_solve_binary_requires_declaration_and_sender_preference():
    undeclared = make_model(
        "custom",
        evaluator=lambda mu, a: mu[0] - 0.5 if a else 0.0,
        n_states=2,
        n_actions=2,
        convex_reject_region=False,
    )
    with pytest.raises(ValueError, match="convex_reject_region"):
        solve_binary(_binary_instance([0.5, 0.5], undeclared))

    inst = _binary_instance(
        [0.5, 0.5], _expected_binary([1.0, -1.0]), v1=np.array([-1.0, -1.0])
    )
    with pytest.raises(ValueError, match="prefer"):
        solve_binary(inst)

    with pytest.raises(ValueError, match="two actions"):
        solve_binary(_three_action_instance())


def _three_action_instance():
    three = threshold_instance()
    return PersuasionInstance(
        states=three.states,
        actions=ActionSpace(("a", "b", "c")),
        prior=three.prior,
        sender=SenderUtility(np.zeros((4, 3))),
        receiver=make_model("expected", u=np.zeros((4, 3))),
    )


def test_classification_refuses_a_three_action_model():
    # The two-action rule is the model's: its differential refuses the instance.
    for build in (classify_states, compute_k01, hull_candidates):
        with pytest.raises(ValueError, match="^differential utility needs exactly two actions$"):
            build(_three_action_instance())
    # A caller's classification with no (strict-reject, accept) pair leaves
    # the boundary check no blends: the model still refuses the empty block.
    pairless = StateClassification(accept=(0, 1, 2, 3), strict_reject=(), differentials=np.zeros(4))
    for build in (compute_k01, hull_candidates):
        with pytest.raises(ValueError, match="^differential utility needs exactly two actions$"):
            build(_three_action_instance(), pairless)


def test_full_persuasion_binary_frontier():
    model = _expected_binary([-1.0, 1.0])
    # Acceptance hull is {mu_1 >= 1/2}: the 0.3 prior misses, 0.6 makes it.
    out = _binary_instance([0.7, 0.3], model)
    inside = _binary_instance([0.4, 0.6], model)
    assert not full_persuasion(out, solve_binary(out))
    assert full_persuasion(inside, solve_binary(inside))
    flat = _binary_instance([0.7, 0.3], model, v1=np.zeros(2))
    assert full_persuasion(flat, solve_binary(flat)) is None


def _plan(t1, t0, prior):
    return OptimalPlan(
        t=np.vstack([t0, t1]),
        prior=np.asarray(prior, dtype=float),
        value=float(np.sum(t1)),
        atoms=(),
    )


def test_verify_threshold_cutoff_and_witness():
    prior = [0.2, 0.2, 0.2, 0.4]
    # Four accept states and no blends: the order audit passes.
    candidates = _candidates(4, [0, 1, 2, 3], [], {})
    good = _plan([0.2, 0.2, 0.1, 0.0], [0.0, 0.0, 0.1, 0.4], prior)
    report = verify_threshold(good, [0, 1, 2, 3], candidates)
    assert report == ThresholdReport(holds=True, threshold_state=2, monotone_ok=True)

    # State 1 is not fully accepted, yet the later state 2 is.
    bad = _plan([0.2, 0.1, 0.2, 0.0], [0.0, 0.1, 0.0, 0.4], prior)
    report = verify_threshold(bad, [0, 1, 2, 3], candidates)
    assert report == ThresholdReport(holds=False, threshold_state=1, monotone_ok=True)

    full = _plan(prior, [0.0] * 4, prior)
    report = verify_threshold(full, [0, 1, 2, 3], candidates)
    assert report.holds and report.threshold_state is None

    # Joint mass within PLAN_MASS_TOLERANCE of zero or of the prior is read
    # as none or as all of it; twice that is not.
    near = _plan([0.2 - 9e-10, 0.2, 9e-10, 0.0], [9e-10, 0.0, 0.2 - 9e-10, 0.4], prior)
    assert verify_threshold(near, [0, 1, 2, 3], candidates).threshold_state == 2
    off = _plan([0.2 - 2e-9, 0.2, 2e-9, 0.0], [2e-9, 0.0, 0.2 - 2e-9, 0.4], prior)
    report = verify_threshold(off, [0, 1, 2, 3], candidates)
    assert not report.holds and report.threshold_state == 0

    with pytest.raises(ValueError):
        verify_threshold(good, [0, 1, 1, 3], candidates)


def test_verify_threshold_audits_order_against_blends():
    d = 6
    prior = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    inst = _binary_instance(prior, _queue_style_model(d, 7.5, 2.5))
    t1 = prior * np.array([1, 1, 1, 0, 0, 0])
    plan = _plan(t1, prior - t1, prior)

    candidates = hull_candidates(inst)
    cls = candidates.classification
    gammas = {
        (w0, wa): candidates.gamma[i, k]
        for i, w0 in enumerate(cls.strict_reject)
        for k, wa in enumerate(cls.accept)
    }

    def audit(order):
        expected = oracles.threshold_violations(order, cls.accept, cls.strict_reject, gammas)
        report = verify_threshold(plan, order, candidates)
        assert report.monotone_ok is (not expected)
        return report, expected

    report, expected = audit(list(range(d)))
    assert report.holds and report.threshold_state == 3
    assert report.monotone_ok and expected == []

    swapped, expected = audit([0, 1, 2, 4, 3, 5])
    assert swapped.monotone_ok is False
    assert any("blend weight" in v for v in expected)

    misplaced, expected = audit([0, 1, 3, 2, 4, 5])
    assert misplaced.monotone_ok is False
    assert any("not strict-reject" in v for v in expected)


def _candidates(d, accept, strict, gammas):
    """Hull candidates over d states with the given blend weights."""
    classification = StateClassification(
        accept=tuple(accept), strict_reject=tuple(strict), differentials=np.zeros(d)
    )
    # hull_candidates' layout: pure accept states, blends, pure strict-reject.
    pairs = [(w0, wa) for w0 in strict for wa in accept]
    states = [(w, w) for w in accept] + pairs + [(w, w) for w in strict]
    weights = np.zeros((len(states), 2))
    weights[:, 0] = 1.0
    g = np.array([gammas[pair] for pair in pairs])
    weights[len(accept) : len(accept) + len(pairs)] = np.column_stack([g, 1.0 - g])
    return HullCandidates(
        classification=classification,
        states=np.array(states, dtype=np.intp).reshape(-1, 2),
        weights=weights,
        state_labels=tuple(str(w) for w in range(d)),
    )


def _audit(order, accept, strict, gammas):
    """verify_threshold's order audit and the pairwise oracle on one case."""
    d = len(order)
    candidates = _candidates(d, accept, strict, gammas)
    plan = _plan(np.zeros(d), np.full(d, 1.0 / d), np.full(d, 1.0 / d))
    report = verify_threshold(plan, list(order), candidates)
    expected = oracles.threshold_violations(order, accept, strict, gammas)
    return report, expected


@st.composite
def _threshold_audits(draw):
    d = draw(st.integers(1, 7))
    is_accept = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    accept = [w for w in range(d) if is_accept[w]]
    strict = [w for w in range(d) if not is_accept[w]]
    if draw(st.booleans()):
        order = draw(st.permutations(accept)) + draw(st.permutations(strict))
    else:
        order = draw(st.permutations(range(d)))
    rank = {w: p for p, w in enumerate(order)}
    gammas = {}
    for wa in accept:
        # Steps around the 1e-12 slack make chains that pass pairwise only
        # between neighbours; the rare NaN and jumps break the rest.
        step = draw(st.sampled_from([-0.25, -1.1e-12, -0.9e-12, 0.0, 0.9e-12]))
        for w0 in strict:
            noise = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-13, -1e-13, 0.3, math.nan]))
            gammas[(w0, wa)] = 0.5 + step * rank[w0] + noise
    return order, accept, strict, gammas


@settings(max_examples=300, deadline=None)
@given(_threshold_audits())
def test_verify_threshold_audit_matches_pairwise_oracle(case):
    report, expected = _audit(*case)
    assert report.monotone_ok is (not expected)


@pytest.mark.parametrize(
    "order, accept, strict, gammas, want",
    [
        # Each step stays inside the slack, the two-step drop does not.
        (
            [0, 1, 2, 3],
            [0],
            [1, 2, 3],
            {(1, 0): 0.0, (2, 0): 0.9e-12, (3, 0): 1.8e-12},
            ["blend weight with accept state 0 fails to drop from state 1 (0) to 3 (1.8e-12)"],
        ),
        (
            [0, 1, 2],
            [0],
            [1, 2],
            {(1, 0): math.nan, (2, 0): 0.1},
            ["blend weight with accept state 0 fails to drop from state 1 (nan) to 2 (0.1)"],
        ),
        # A stray blend keyed on the accept state must not hide it.
        (
            [1, 0, 2],
            [0],
            [1, 2],
            {(1, 0): 0.5, (2, 0): 0.25, (0, 0): 0.4},
            ["state 0 follows strict-reject state 1 but is not strict-reject"],
        ),
        (
            [0, 2, 1],
            [0],
            [1, 2],
            {(1, 0): 0.5, (2, 0): 0.25},
            ["blend weight with accept state 0 fails to drop from state 2 (0.25) to 1 (0.5)"],
        ),
    ],
    ids=["slack-chain", "nan-gamma", "accept-after-strict", "swapped-strict"],
)
def test_verify_threshold_audit_edge_cases(order, accept, strict, gammas, want):
    report, expected = _audit(order, accept, strict, gammas)
    assert expected == want
    assert report.monotone_ok is (not expected)
    assert report.monotone_ok is False
