"""Beliefs, receiver models, best responses, and the instance schema."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persuade import (
    ActionSpace,
    Belief,
    FormatError,
    GridSpec,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    StateSpace,
    best_response,
    instance_from_json,
    make_model,
    model,
)
from oracles import instance_to_json
from conftest import RECEIVER_KINDS, seeded_instance, threshold_instance, threshold_instance_dict


# --- beliefs ---------------------------------------------------------------


def test_belief_renormalizes_small_drift():
    b = Belief(np.array([0.2, 0.3, 0.5 + 3e-7]))
    assert b.weights.sum() == pytest.approx(1.0, abs=1e-15)


def test_belief_rejects_bad_sum():
    with pytest.raises(ValueError):
        Belief(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Belief(np.array([0.2, 0.2]))


def test_belief_rejects_negative_weight():
    with pytest.raises(ValueError):
        Belief(np.array([-1e-3, 0.5, 0.501]))


def test_belief_clips_roundoff_negatives():
    b = Belief(np.array([-1e-13, 0.4, 0.6]))
    assert b.weights[0] == 0.0
    assert b.weights.min() >= 0.0


def test_belief_rejects_nonfinite_and_shape():
    with pytest.raises(ValueError):
        Belief(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError):
        Belief(np.array([[0.5, 0.5]]))


def test_belief_point_and_uniform():
    p = Belief(np.eye(4)[2])
    assert p.weights.tolist() == [0.0, 0.0, 1.0, 0.0]
    u = Belief.uniform(5)
    assert np.allclose(u.weights, 0.2)


def test_belief_weights_readonly():
    b = Belief.uniform(3)
    with pytest.raises(ValueError):
        b.weights[0] = 0.9


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_belief_normalization_property(seed):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.01, 5.0, size=int(rng.integers(1, 7)))
    b = Belief(w / w.sum())
    assert abs(b.weights.sum() - 1.0) <= 1e-12
    assert b.weights.min() >= 0.0


def test_spaces_reject_duplicates_and_empty():
    # Each space names its own labels, keeps one field and equals only its own kind.
    for space, noun in ((StateSpace, "state"), (ActionSpace, "action")):
        with pytest.raises(ValueError, match=f"^{noun} space must be nonempty$"):
            space(())
        with pytest.raises(ValueError, match=f"^{noun} labels must be distinct$"):
            space(("a", "b", "a"))
        s = space(("a", "b"))
        assert [f.name for f in dataclasses.fields(s)] == ["labels"]
        assert (s.n, s, hash(s)) == (2, space(("a", "b")), hash(space(("a", "b"))))
        assert s != space(("b", "a"))
        assert repr(s) == f"{space.__name__}(labels=('a', 'b'))"
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.labels = ("c",)
    # One label set is two different spaces.
    assert StateSpace(("a",)) != ActionSpace(("a",))


# --- built-in receiver kinds ----------------------------------------------


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_expected_kind_is_affine(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    model = make_model("expected", u=rng.normal(size=(d, 3)))
    mu_a = rng.dirichlet(np.ones(d))
    mu_b = rng.dirichlet(np.ones(d))
    alpha = float(rng.uniform())
    for a in range(3):
        mixed = model.score(alpha * mu_a + (1 - alpha) * mu_b, a)
        parts = alpha * model.score(mu_a, a) + (1 - alpha) * model.score(mu_b, a)
        assert abs(mixed - parts) <= 1e-10


def test_expected_convexity_flag_binary_only():
    assert make_model("expected", u=np.zeros((3, 2))).convex_reject_region
    assert not make_model("expected", u=np.zeros((3, 3))).convex_reject_region


def test_mean_stdev_frozen_queue_score():
    # Wait-for-service shape: lengths 1..3, join pays tau - E - beta * sd.
    lengths = np.arange(1.0, 4.0)
    u = np.column_stack([np.zeros(3), 7.5 - lengths])
    g = np.column_stack([np.zeros(3), lengths])
    model = make_model("mean_stdev", u=u, g_mean=g, g_var=g, beta=2.5)
    e2 = np.eye(3)[2]
    assert model.differential(e2) == pytest.approx(0.16987298107780724, abs=1e-12)
    assert model.score(e2, 1) == pytest.approx(7.5 - 3 - 2.5 * math.sqrt(3), abs=1e-12)
    assert model.score(e2, 0) == 0.0


def test_mean_stdev_batch_matches_scalar():
    rng = np.random.default_rng(7)
    u = rng.normal(size=(4, 2))
    gm = rng.uniform(0.5, 3.0, size=(4, 2))
    gv = rng.uniform(0.1, 2.0, size=(4, 2))
    model = make_model("mean_stdev", u=u, g_mean=gm, g_var=gv, beta=1.3)
    mus = rng.dirichlet(np.ones(4), size=10)
    batch = model.score(mus, 1)
    singles = [model.score(m, 1) for m in mus]
    assert np.allclose(batch, singles, atol=1e-14)


def test_mean_stdev_convexity_flag_rules():
    u = np.zeros((3, 2))
    var0 = np.column_stack([np.full(3, 0.7), np.arange(1.0, 4.0)])
    const0 = np.column_stack([np.full(3, 0.7), np.arange(1.0, 4.0)])
    moving0 = np.column_stack([np.arange(1.0, 4.0), np.arange(1.0, 4.0)])
    assert make_model("mean_stdev", u=u, g_mean=const0, g_var=var0, beta=1.0).convex_reject_region
    assert make_model("mean_stdev", u=u, g_mean=moving0, g_var=var0, beta=0.0).convex_reject_region
    assert not make_model("mean_stdev", u=u, g_mean=moving0, g_var=var0, beta=1.0).convex_reject_region
    assert not make_model(
        "mean_stdev", u=np.zeros((3, 3)), g_mean=np.zeros((3, 3)), g_var=np.zeros((3, 3)), beta=0.0
    ).convex_reject_region


def test_mean_stdev_rejects_bad_parameters():
    u = np.zeros((3, 2))
    with pytest.raises(ValueError):
        make_model("mean_stdev", u=u, g_mean=u, g_var=u, beta=-0.5)
    with pytest.raises(ValueError):
        make_model("mean_stdev", u=u, g_mean=u, g_var=u - 1.0, beta=1.0)
    with pytest.raises(ValueError):
        make_model("mean_stdev", u=u, g_mean=np.zeros((2, 2)), g_var=u, beta=1.0)


def test_maximin_takes_worst_scenario():
    tables = np.array(
        [
            [[1.0, 0.0], [0.0, 2.0]],
            [[0.0, 0.0], [1.0, 2.0]],
        ]
    )
    model = make_model("maximin", tables=tables)
    mu = np.array([0.7, 0.3])
    # Action 0 scores mu_0 and mu_1 across scenarios; the min is 0.3.
    assert model.score(mu, 0) == pytest.approx(0.3, abs=1e-15)
    assert model.score(mu, 1) == pytest.approx(0.6, abs=1e-15)
    assert model.convex_reject_region  # action-1 columns agree


def test_maximin_flag_off_when_accept_column_varies():
    tables = np.array(
        [
            [[1.0, 0.0], [0.0, 2.0]],
            [[0.0, 1.0], [1.0, 2.0]],
        ]
    )
    assert not make_model("maximin", tables=tables).convex_reject_region


def test_cvar_frozen_tail_expectation():
    # State 0 never loses, state 1 loses 10 for sure; tail above tau=5.
    model = make_model(
        "cvar",
        loss_values=[[[0.0]], [[10.0]]],
        loss_probs=[[[1.0]], [[1.0]]],
        tau=5.0,
    )
    assert model.score(np.array([0.5, 0.5]), 0) == pytest.approx(-10.0, abs=1e-12)
    # Empty conditioning event scores the 0 sentinel.
    high = make_model(
        "cvar",
        loss_values=[[[0.0]], [[10.0]]],
        loss_probs=[[[1.0]], [[1.0]]],
        tau=20.0,
    )
    assert high.score(np.array([0.5, 0.5]), 0) == 0.0


def test_cvar_batch_and_convexity_flag():
    vals = [[[0.0], [0.0, 8.0]], [[0.0], [12.0]]]
    probs = [[[1.0], [0.5, 0.5]], [[1.0], [1.0]]]
    model = make_model("cvar", loss_values=vals, loss_probs=probs, tau=5.0)
    assert model.convex_reject_region  # identical action-0 laws
    mus = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    batch = model.score(mus, 1)
    assert np.allclose(batch, [model.score(m, 1) for m in mus], atol=1e-14)
    varied = make_model(
        "cvar",
        loss_values=[[[1.0], [0.0]], [[9.0], [0.0]]],
        loss_probs=[[[1.0], [1.0]], [[1.0], [1.0]]],
        tau=5.0,
    )
    assert not varied.convex_reject_region


def test_cvar_rejects_bad_distributions():
    with pytest.raises(ValueError):
        make_model(
            "cvar",
            loss_values=[[[0.0]], [[1.0]]],
            loss_probs=[[[0.7]], [[1.0]]],
            tau=1.0,
        )


def test_make_model_unknown_kind():
    with pytest.raises(ValueError):
        make_model("prospect")


@pytest.mark.parametrize(
    "kind, params",
    [
        ("expected", {"u": np.zeros((2, 2))}),
        ("custom", {"evaluator": lambda mu, a: 0.0, "n_states": 2, "n_actions": 2}),
    ],
)
def test_make_model_refuses_an_unknown_keyword(kind, params):
    # Every kind, custom included, binds its keywords to its builder's arguments.
    with pytest.raises(TypeError, match="convex_region"):
        make_model(kind, convex_region=True, **params)


def test_custom_model_wraps_scalars_and_batches():
    model = make_model(
        "custom",
        evaluator=lambda mu, a: float(mu[0]) if a else 0.0,
        n_states=2,
        n_actions=2,
    )
    assert model.score(np.array([0.25, 0.75]), 1) == 0.25
    batch = model.score(np.array([[0.25, 0.75], [1.0, 0.0]]), 1)
    assert np.allclose(batch, [0.25, 1.0])
    assert not model.convex_reject_region


def _binary_model(kind, rng, d):
    if kind == "expected":
        return make_model("expected", u=rng.normal(size=(d, 2)))
    if kind == "mean_stdev":
        return make_model(
            "mean_stdev",
            u=rng.normal(size=(d, 2)),
            g_mean=rng.uniform(0.0, 2.0, (d, 2)),
            g_var=rng.uniform(0.05, 1.0, (d, 2)),
            beta=float(rng.uniform(0.0, 2.0)),
        )
    if kind == "maximin":
        return make_model("maximin", tables=rng.normal(size=(int(rng.integers(1, 4)), d, 2)))
    if kind == "cvar":
        # Loss laws over [0, 2] with tau 1: some states have no tail mass.
        values = [[sorted(rng.uniform(0.0, 2.0, 3).tolist()) for _ in range(2)] for _ in range(d)]
        probs = [[rng.dirichlet(np.ones(3)).tolist() for _ in range(2)] for _ in range(d)]
        return make_model("cvar", loss_values=values, loss_probs=probs, tau=1.0)
    a, b = rng.normal(size=d), rng.uniform(0.1, 1.0, d)
    return make_model(
        "custom",
        evaluator=lambda mu, act: float(mu @ a - np.sqrt(mu @ b)) if act else 0.0,
        n_states=d,
        n_actions=2,
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["expected", "mean_stdev", "maximin", "cvar", "custom"]),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_slot_scoring_matches_dense_differential(kind, d, seed):
    rng = np.random.default_rng(seed)
    model = _binary_model(kind, rng, d)
    pure = model.differential_slots(np.arange(d)[:, None], np.ones((d, 1)))
    assert np.array_equal(pure, model.differential(np.eye(d)))

    states = rng.integers(0, d, (12, 2))
    gamma = rng.uniform(0.0, 1.0, 12)
    gamma[:3] = (0.0, 1.0, 2.0**-34)
    weights = np.column_stack([gamma, 1.0 - gamma])
    dense = np.zeros((12, d))
    for i, (s, w) in enumerate(zip(states, weights)):
        dense[i, s[0]] += w[0]
        dense[i, s[1]] += w[1]
    blends = model.differential_slots(states, weights)
    assert np.allclose(blends, model.differential(dense), rtol=0.0, atol=1e-12)


def test_custom_slot_scoring_never_builds_the_identity():
    # The identity over 20,000 states would take 3.2 GB.
    d = 20_000
    states = np.column_stack([np.arange(10), np.full(10, d - 1)])
    weights = np.column_stack([np.full(10, 0.25), np.full(10, 0.75)])
    tracemalloc.start()
    try:
        model = make_model(
            "custom",
            evaluator=lambda mu, a: float(mu[0] - mu[-1]) if a else 0.0,
            n_states=d,
            n_actions=2,
        )
        diffs = model.differential_slots(states, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert diffs.tolist() == [-0.5] + [-0.75] * 9


@pytest.mark.parametrize("kind", ["expected", "mean_stdev", "maximin", "cvar", "custom"])
def test_slot_scoring_takes_an_empty_block(kind):
    # No beliefs are one empty block, which every combine scores.
    model = _binary_model(kind, np.random.default_rng(0), 4)
    empty = model.differential_slots(np.zeros((0, 2), dtype=np.intp), np.zeros((0, 2)))
    assert empty.shape == (0,)


# --- row blocks -------------------------------------------------------------


@pytest.mark.parametrize("kind", ["expected", "mean_stdev", "maximin", "cvar"])
@pytest.mark.parametrize("d, k", [(5, 30), (6, 16)])
def test_tall_feature_map_equals_one_product(kind, d, k):
    # The grid is taller than one block for every built-in kind's features.
    pts = GridSpec(k=k, dim=d).points()
    features = seeded_instance(kind, k, d, 3).receiver.features
    blocks = model._row_blocks(pts.shape[0], d * features.shape[1])
    assert len(blocks) > 1
    assert np.array_equal(model._tall_matmul(pts, features), pts @ features)


def test_tall_products_of_dirichlet_rows_equal_one_product():
    # Below OpenBLAS's cliffs the full product stays on the calling thread,
    # whose bits the blocks reproduce for 1-d and 2-d right-hand sides alike.
    rng = np.random.default_rng(39)
    for d in range(2, 13):
        for width in range(1, 25):
            n = int(rng.uniform(1.05, 1.7) * model.ROW_BLOCK_MADDS / (d * width))
            a = rng.dirichlet(np.ones(d), size=n)
            rhs = [rng.normal(size=(d, width))] + ([rng.normal(size=d)] if width == 1 else [])
            for b in rhs:
                assert len(model._row_blocks(n, d * width)) > 1
                assert np.array_equal(model._tall_matmul(a, b), a @ b), (d, width, b.ndim)


@pytest.mark.parametrize("per_row", [1, 5, 30, 1000, model.ROW_BLOCK_MADDS // 6, model.ROW_BLOCK_MADDS * 2])
def test_row_blocks_are_equal_aligned_and_bounded(per_row):
    most = max(1, model.ROW_BLOCK_MADDS // per_row)
    unit = min(model.ROW_BLOCK_ALIGN, most)
    one_block = most // unit * unit
    assert model._row_blocks(0, per_row) == [(0, 0)]
    for n in (1, 3, unit, one_block, one_block + 1, 2 * one_block + 5, 10 * one_block - 1):
        blocks = model._row_blocks(n, per_row)
        sizes = [hi - lo for lo, hi in blocks]
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == -(-n // one_block)
        assert max(sizes) <= most
        # Whole units, one unit apart at most, and a partial unit only last.
        assert all(lo % unit == 0 for lo, _ in blocks)
        assert max(sizes[:-1], default=sizes[-1]) - min(sizes[:-1], default=sizes[-1]) <= unit
        assert max(sizes) - sizes[-1] < 2 * unit
    # One block and a row: two halves, not a full block and a short tail.
    halves = [hi - lo for lo, hi in model._row_blocks(one_block + 1, per_row)]
    assert len(halves) == 2
    assert max(halves) - min(halves) <= unit


# --- responses and helpers --------------------------------------------------


def test_rho_and_differential_on_threshold_game():
    inst = threshold_instance()
    assert inst.receiver.differential(inst.prior.weights) == pytest.approx(
        -5.0 / 12.0, abs=1e-12
    )
    corner = np.array([0.75, 0.0, 0.0, 0.25])
    assert inst.receiver.differential(corner) == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert inst.receiver.score(corner, 0) == 0.0


def test_differential_requires_two_actions():
    model = make_model("expected", u=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        model.differential(np.array([0.5, 0.5]))


def test_score_rejects_bad_action_and_dim():
    inst = threshold_instance()
    with pytest.raises(ValueError):
        inst.receiver.score(inst.prior.weights, 5)
    short = np.array([0.5, 0.5])
    for call in (
        lambda: inst.receiver.score(short, 1),
        lambda: inst.receiver.score_all(short),
        lambda: inst.receiver.differential(np.stack([short, short])),
    ):
        with pytest.raises(ValueError, match="belief has 2 entries, the model has 4 states"):
            call()


def _tie_instance(sender_table, take_payoff=1.0):
    # The receiver scores action a as mu[0] * u[0, a]; take_payoff 1.0 makes
    # it indifferent at every belief.
    return PersuasionInstance(
        states=StateSpace(("x", "y")),
        actions=ActionSpace(("a", "b")),
        prior=Belief.uniform(2),
        sender=SenderUtility(np.array(sender_table)),
        receiver=make_model("expected", u=np.array([[1.0, take_payoff], [0.0, 0.0]])),
    )


def test_best_response_breaks_ties_for_sender():
    mu = np.array([0.5, 0.5])
    assert best_response(_tie_instance([[0.0, 3.0], [0.0, 3.0]]), mu) == 1
    assert best_response(_tie_instance([[3.0, 0.0], [3.0, 0.0]]), mu) == 0
    # Equal sender payoffs: the lowest index.
    assert best_response(_tie_instance([[1.0, 1.0], [1.0, 1.0]]), mu) == 0
    # A score gap within TIE_TOLERANCE is a tie; a wider one decides.
    assert best_response(_tie_instance([[0.0, 3.0], [0.0, 3.0]], 1.0 - 1e-9), mu) == 1
    assert best_response(_tie_instance([[0.0, 3.0], [0.0, 3.0]], 1.0 - 1e-8), mu) == 0


def _block_picks(instance, block):
    """best_response on the block, checked row for row against one-belief calls."""
    picks = best_response(instance, block)
    assert picks.dtype.kind == "i" and picks.shape == (block.shape[0],)
    assert picks.tolist() == [best_response(instance, mu) for mu in block]
    return picks.tolist()


@pytest.mark.parametrize("kind", RECEIVER_KINDS)
def test_best_response_on_a_block_picks_row_for_row(kind):
    # The pure states, the prior and interior beliefs, stacked.
    for seed, (d, n_actions) in enumerate([(2, 2), (3, 3), (5, 2), (8, 4), (12, 5)]):
        instance = seeded_instance(kind, seed, d, n_actions)
        interior = np.random.default_rng(seed).dirichlet(np.ones(d), size=6)
        _block_picks(instance, np.vstack([np.eye(d), instance.prior.weights, interior]))


def test_best_response_on_a_block_breaks_ties_row_for_row():
    # Action 0 scores mu[0], action 1 mu[0] * take: at take 1 - 1e-9 every
    # row is within TIE_TOLERANCE; at 1 - 1e-8 only rows with mu[0] <= 0.1.
    assert 1e-9 <= model.TIE_TOLERANCE < 1e-8 * 0.5
    block = np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0], [0.05, 0.95]])
    assert _block_picks(_tie_instance([[0.0, 3.0], [0.0, 3.0]]), block) == [1, 1, 1, 1]
    assert _block_picks(_tie_instance([[0.0, 3.0], [0.0, 3.0]], 1.0 - 1e-9), block) == [1, 1, 1, 1]
    assert _block_picks(_tie_instance([[0.0, 3.0], [0.0, 3.0]], 1.0 - 1e-8), block) == [0, 0, 1, 1]
    assert _block_picks(_tie_instance([[3.0, 0.0], [3.0, 0.0]]), block) == [0, 0, 0, 0]
    # Equal sender columns, every action tied: the lowest index, on a block
    # of any width.
    rng = np.random.default_rng(3)
    for d, n_actions in ((2, 2), (5, 3), (9, 7), (17, 12)):
        column = rng.uniform(0.0, 1.0, (d, 1))
        instance = PersuasionInstance(
            states=StateSpace(tuple(f"s{w}" for w in range(d))),
            actions=ActionSpace(tuple(f"a{a}" for a in range(n_actions))),
            prior=Belief(rng.dirichlet(np.ones(d))),
            sender=SenderUtility(np.repeat(column, n_actions, axis=1)),
            receiver=make_model("expected", u=np.zeros((d, n_actions))),
        )
        block = np.vstack([np.eye(d), instance.prior.weights, rng.dirichlet(np.ones(d), size=9)])
        assert _block_picks(instance, block) == [0] * block.shape[0]


def test_optimal_plan_consistency_checks():
    t = np.array([[0.0, 0.5], [0.5, 0.0]])
    atom_good = (
        PlanAtom(action=0, posterior=np.array([0.0, 1.0]), weight=0.5),
        PlanAtom(action=1, posterior=np.array([1.0, 0.0]), weight=0.5),
    )
    plan = OptimalPlan(t=t, prior=np.array([0.5, 0.5]), value=1.0, atoms=atom_good)
    plan.check()
    bad = OptimalPlan(
        t=t, prior=np.array([0.5, 0.5]), value=1.0, atoms=atom_good[:1]
    )
    with pytest.raises(ValueError):
        bad.check()
    with pytest.raises(ValueError):
        OptimalPlan(
            t=t, prior=np.array([0.9, 0.1]), value=1.0, atoms=atom_good
        ).check()


def test_instance_dimension_guards():
    inst = threshold_instance()
    with pytest.raises(ValueError):
        PersuasionInstance(
            states=inst.states,
            actions=inst.actions,
            prior=Belief.uniform(3),
            sender=inst.sender,
            receiver=inst.receiver,
        )
    with pytest.raises(ValueError):
        PersuasionInstance(
            states=inst.states,
            actions=inst.actions,
            prior=inst.prior,
            sender=SenderUtility(np.zeros((4, 3))),
            receiver=inst.receiver,
        )


# --- JSON schema -------------------------------------------------------------


def test_instance_json_roundtrip_preserves_semantics(rng):
    doc = threshold_instance_dict()
    inst = instance_from_json(doc)
    again = instance_from_json(instance_to_json(inst))
    assert again.states.labels == inst.states.labels
    assert again.actions.labels == inst.actions.labels
    for _ in range(20):
        mu = rng.dirichlet(np.ones(4))
        assert again.receiver.differential(mu) == pytest.approx(
            inst.receiver.differential(mu), abs=1e-14
        )
    # The maximin encoding realizes the max-component threshold game.
    hand = threshold_instance()
    for _ in range(20):
        mu = rng.dirichlet(np.ones(4))
        assert inst.receiver.differential(mu) == pytest.approx(
            hand.receiver.differential(mu), abs=1e-12
        )


def _float_list_reference(raw, path):
    # The per-entry loop _float_list replaced: every entry through _number.
    if not isinstance(raw, list):
        raise FormatError(path, "expected a list of numbers")
    return [model._number(x, f"{path}[{i}]") for i, x in enumerate(raw)]


_SCHEMA_ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    # NaN and inf listed too: inside these lists st.floats drew no NaN.
    st.sampled_from([0.0, -0.0, 5e-324, sys.float_info.max, -sys.float_info.max,
                     math.nan, math.inf]),
    st.integers(-(2**1030), 2**1030),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_SCHEMA_ENTRIES, max_size=8), _SCHEMA_ENTRIES))
def test_float_list_matches_the_per_entry_loop(raw):
    try:
        expected = _float_list_reference(raw, "signals[0].posterior")
    except FormatError as exc:
        with pytest.raises(FormatError) as caught:
            model._float_list(raw, "signals[0].posterior")
        assert (caught.value.path, str(caught.value)) == (exc.path, str(exc))
    else:
        got = model._float_list(raw, "signals[0].posterior")
        assert [type(x) for x in got] == [float] * len(expected)
        # Bits, so -0.0 stays distinct from 0.0.
        assert np.array(got).tobytes() == np.array(expected).tobytes()


def test_instance_json_error_paths():
    base = threshold_instance_dict()

    doc = dict(base)
    del doc["prior"]
    with pytest.raises(FormatError, match="prior"):
        instance_from_json(doc)

    doc = dict(base)
    doc["prior"] = [0.5, -0.1, 0.3, 0.3]
    with pytest.raises(FormatError, match=r"prior\[1\]"):
        instance_from_json(doc)

    doc = dict(base)
    doc["sender_v"] = [[0.0, 1.0]] * 3
    with pytest.raises(FormatError, match="sender_v"):
        instance_from_json(doc)

    doc = dict(base)
    doc["receiver"] = {"kind": "mystery"}
    with pytest.raises(FormatError, match="receiver.kind"):
        instance_from_json(doc)

    doc = dict(base)
    doc["states"] = ["0", "0", "2", "3"]
    with pytest.raises(FormatError, match="states"):
        instance_from_json(doc)

    doc = dict(base)
    doc["receiver"] = {"kind": "maximin", "tables": [[[0.0]] * 4]}
    with pytest.raises(FormatError, match=r"receiver.tables\[0\]"):
        instance_from_json(doc)


def test_instance_json_rejects_custom_serialization():
    inst = threshold_instance()
    with pytest.raises(FormatError, match="custom"):
        instance_to_json(inst)


def test_instance_json_parses_every_builtin_kind():
    for kind, receiver in (
        ("expected", {"kind": "expected", "u": [[0.0, 1.0], [0.0, -1.0]]}),
        (
            "mean_stdev",
            {
                "kind": "mean_stdev",
                "u": [[0.0, 1.0], [0.0, -1.0]],
                "g_mean": [[0.0, 1.0], [0.0, 2.0]],
                "g_var": [[0.0, 1.0], [0.0, 2.0]],
                "beta": 0.5,
            },
        ),
        (
            "cvar",
            {
                "kind": "cvar",
                "loss_values": [[[0.0], [1.0]], [[0.0], [6.0]]],
                "loss_probs": [[[1.0], [1.0]], [[1.0], [1.0]]],
                "tau": 2.0,
            },
        ),
    ):
        doc = {
            "states": ["lo", "hi"],
            "actions": ["out", "in"],
            "prior": [0.5, 0.5],
            "sender_v": [[0.0, 1.0], [0.0, 1.0]],
            "receiver": receiver,
        }
        inst = instance_from_json(doc)
        assert inst.receiver.kind == kind
        assert instance_from_json(instance_to_json(inst)).receiver.kind == kind
