"""Grid relaxation, baselines, benefit certificates, concavification."""

from math import comb

import numpy as np
import pytest

import oracles
from persuade import (
    ActionSpace,
    Belief,
    GridSpec,
    InfeasibleProgramError,
    PersuasionInstance,
    SenderUtility,
    StateSpace,
    baseline_values,
    benefit_check,
    default_grid_k,
    full_persuasion,
    grid_point_sets,
    make_model,
    solve_general,
    solve_obedience,
)
from conftest import (
    RECEIVER_KINDS,
    random_eum_instance,
    random_mean_stdev_instance,
    seeded_instance,
    threshold_instance,
)
from persuade import general, model
from persuade.model import TIE_TOLERANCE


def test_default_grid_k_schedule():
    assert default_grid_k(3) == 24
    assert default_grid_k(4) == 24
    assert default_grid_k(6) == 8
    assert default_grid_k(9) == 4


def test_grid_spec_counts_and_coverage():
    grid = GridSpec(k=24, dim=4)
    pts = grid.points()
    assert grid.n_points == comb(27, 3) == 2925
    assert pts.shape == (2925, 4)
    assert np.allclose(pts.sum(axis=1), 1.0)
    assert len({tuple(np.round(p * 24).astype(int)) for p in pts}) == 2925
    # Vertices and the uniform point are grid members at k divisible by 4.
    for w in range(4):
        assert any(np.allclose(p, np.eye(4)[w]) for p in pts)
    assert any(np.allclose(p, [0.25, 0.25, 0.25, 0.25]) for p in pts)


def test_grid_spec_refuses_blowups():
    with pytest.raises(ValueError, match="cap"):
        GridSpec(k=200, dim=8)
    with pytest.raises(ValueError):
        GridSpec(k=0, dim=3)
    assert GridSpec(k=5, dim=1).points().tolist() == [[1.0]]


def test_grid_vertices_keeps_ties_and_extras():
    inst = PersuasionInstance(
        states=StateSpace(("a", "b")),
        actions=ActionSpace(("x", "y")),
        prior=Belief(np.array([0.5, 0.5])),
        sender=SenderUtility(np.zeros((2, 2))),
        receiver=make_model("expected", u=np.zeros((2, 2))),
    )
    grid = GridSpec(k=4, dim=2)
    assert [points.shape[0] for points in grid_point_sets(inst, grid)] == [grid.n_points] * 2
    with pytest.raises(ValueError):
        grid_point_sets(inst, GridSpec(k=4, dim=3))


def test_solve_general_matches_concavify(rng):
    for _ in range(6):
        inst = random_eum_instance(rng)
        grid = GridSpec(k=8, dim=inst.n_states)
        sets = grid_point_sets(inst, grid)
        plan = solve_general(inst, sets)
        assert plan.value == pytest.approx(
            oracles.concavify_oracle(inst, grid), abs=1e-7
        )
    for _ in range(6):
        inst = random_mean_stdev_instance(rng)
        grid = GridSpec(k=8, dim=inst.n_states)
        sets = grid_point_sets(inst, grid)
        plan = solve_general(inst, sets)
        assert plan.value == pytest.approx(
            oracles.concavify_oracle(inst, grid), abs=1e-7
        )


def test_solve_general_atom_count_bounded_by_states(rng):
    for _ in range(5):
        inst = random_eum_instance(rng)
        grid = GridSpec(k=8, dim=inst.n_states)
        sets = grid_point_sets(inst, grid)
        plan = solve_general(inst, sets)
        assert len(plan.atoms) <= inst.n_states
        plan.check()


def test_solve_general_exact_vertices_recover_eum_optimum(rng):
    for _ in range(5):
        inst = random_eum_instance(rng)
        grid = GridSpec(k=12, dim=inst.n_states)
        sets = [
            np.vstack([points, oracles.expected_region_vertices(inst, a)])
            for a, points in enumerate(grid_point_sets(inst, grid))
        ]
        plan = solve_general(inst, sets)
        u = np.asarray(inst.receiver.params["u"], dtype=float)
        exact = oracles.revelation_lp(inst.prior.weights, u, inst.sender.table)
        assert plan.value == pytest.approx(exact, abs=1e-7)
        assert solve_obedience(inst).value == pytest.approx(exact, abs=1e-9)
    with pytest.raises(ValueError, match="expected-utility"):
        solve_obedience(threshold_instance())


def test_solve_general_guards():
    inst = threshold_instance()
    with pytest.raises(ValueError, match="one point set"):
        solve_general(inst, [np.eye(4)])
    with pytest.raises(InfeasibleProgramError):
        solve_general(inst, [np.eye(4)[:1], np.eye(4)[:1]])
    with pytest.raises(ValueError, match="dimension"):
        solve_general(inst, [np.eye(3), np.eye(3)])
    with pytest.raises(InfeasibleProgramError, match="empty"):
        solve_general(inst, [np.zeros((0, 4)), np.zeros((0, 4))])


def test_baseline_values_threshold_game():
    base = baseline_values(threshold_instance())
    assert base.no_info == 0.0
    assert base.no_info_action == 0
    assert base.full_info == pytest.approx(0.75, abs=1e-12)


def _hex(base):
    # Bit for bit, the sign of a zero included.
    return (float(base[0]).hex(), float(base[1]).hex(), int(base[2]))


@pytest.mark.parametrize("kind", RECEIVER_KINDS)
def test_baseline_values_match_the_per_state_loop(kind):
    # One batch over the pure states gives the loop's picks and its sum's bits.
    for seed, (d, n_actions) in enumerate([(2, 2), (3, 3), (5, 2), (8, 4), (12, 3)]):
        inst = seeded_instance(kind, seed, d, n_actions)
        base = baseline_values(inst)
        assert _hex((base.no_info, base.full_info, base.no_info_action)) == _hex(
            oracles.baseline_values_reference(inst)
        )


def test_baseline_values_break_pure_state_ties_like_best_response():
    # State 0: actions 0 and 1 score within TIE_TOLERANCE, and the sender
    # prefers 1.  State 1: actions 0 and 1 tie exactly at equal sender
    # payoffs, so 0 wins; action 2 pays more but is not tied.  State 2:
    # action 2 is the one best response.
    u = np.array([[0.5, 0.5 - 0.5 * TIE_TOLERANCE, 0.0], [0.3, 0.3, -0.7], [0.0, 0.1, 0.9]])
    v = np.array([[0.2, 0.7, 1.0], [0.4, 0.4, 0.9], [0.6, 0.3, 0.1]])
    prior = np.array([0.2, 0.3, 0.5])
    inst = PersuasionInstance(
        states=StateSpace(("s0", "s1", "s2")),
        actions=ActionSpace(("a0", "a1", "a2")),
        prior=Belief(prior),
        sender=SenderUtility(v),
        receiver=make_model("expected", u=u),
    )
    base = baseline_values(inst)
    assert _hex((base.no_info, base.full_info, base.no_info_action)) == _hex(
        oracles.baseline_values_reference(inst)
    )
    assert base.full_info == 0.0 + 0.2 * 0.7 + 0.3 * 0.4 + 0.5 * 0.1


def test_benefit_check_threshold_game():
    inst = threshold_instance()
    grid = GridSpec(k=24, dim=4)
    sets = grid_point_sets(inst, grid)
    plan = solve_general(inst, sets)
    report = benefit_check(inst, plan, sets)
    assert report.strictly_beneficial
    assert report.margin == pytest.approx(1.0, abs=1e-8)
    assert report.certificate_action == 1
    assert report.certificate_gain == pytest.approx(1.0, abs=1e-12)
    # The report carries both baselines of baseline_values.
    assert report.no_info == 0.0
    assert report.full_info == pytest.approx(0.75, abs=1e-12)


def test_objective_and_gains_equal_their_unblocked_products(monkeypatch):
    # 53,130 grid candidates of action 0 over 6 states: the objective's and
    # the certificate's products each run in two row blocks.
    inst = seeded_instance("mean_stdev", 0, 6, 2)
    sets = [GridSpec(k=20, dim=6).points(), np.eye(6)]
    calls = []
    blocked = general._tall_matmul

    def recorded(a, b):
        calls.append((a, b, blocked(a, b)))
        return calls[-1][2]

    monkeypatch.setattr(general, "_tall_matmul", recorded)
    benefit_check(inst, solve_general(inst, sets), sets)
    tall = [a for a, _, _ in calls if len(model._row_blocks(*a.shape)) > 1]
    assert [a.shape for a in tall] == [(53_130, 6)] * 2
    for a, b, out in calls:
        assert np.array_equal(out, a @ b)


def test_benefit_check_when_silence_is_optimal():
    # Prior already deep in the acceptance region: disclosure gains nothing.
    inst = PersuasionInstance(
        states=StateSpace(("g", "b")),
        actions=ActionSpace(("no", "yes")),
        prior=Belief(np.array([0.9, 0.1])),
        sender=SenderUtility(np.array([[0.0, 1.0], [0.0, 1.0]])),
        receiver=make_model("expected", u=np.array([[0.0, 1.0], [0.0, -1.0]])),
    )
    grid = GridSpec(k=10, dim=2)
    sets = grid_point_sets(inst, grid)
    plan = solve_general(inst, sets)
    report = benefit_check(inst, plan, sets)
    assert plan.value == pytest.approx(1.0, abs=1e-9)
    assert not report.strictly_beneficial
    assert abs(report.margin) <= 1e-9


def test_full_persuasion_general_threshold_game():
    inst = threshold_instance()
    grid = GridSpec(k=24, dim=4)
    sets = grid_point_sets(inst, grid)
    assert full_persuasion(inst, solve_general(inst, sets))

    skewed = PersuasionInstance(
        states=inst.states,
        actions=inst.actions,
        prior=Belief(np.array([0.1, 0.1, 0.1, 0.7])),
        sender=inst.sender,
        receiver=inst.receiver,
    )
    sets = grid_point_sets(skewed, grid)
    assert not full_persuasion(skewed, solve_general(skewed, sets))


def test_full_persuasion_general_guards():
    inst = threshold_instance()
    with pytest.raises(ValueError, match="point set"):
        solve_general(inst, [np.eye(4)])
    tied = PersuasionInstance(
        states=inst.states,
        actions=inst.actions,
        prior=inst.prior,
        sender=SenderUtility(np.ones((4, 2))),
        receiver=inst.receiver,
    )
    assert full_persuasion(tied, solve_general(tied, [np.eye(4), np.eye(4)])) is None
    # An empty point set for a demanded action is a plain negative verdict.
    assert not full_persuasion(inst, solve_general(inst, [np.eye(4), np.zeros((0, 4))]))


def test_full_persuasion_single_action_degenerates_gracefully():
    inst = PersuasionInstance(
        states=StateSpace(("a", "b")),
        actions=ActionSpace(("only",)),
        prior=Belief(np.array([0.5, 0.5])),
        sender=SenderUtility(np.array([[1.0], [2.0]])),
        receiver=make_model("expected", u=np.zeros((2, 1))),
    )
    assert full_persuasion(inst, solve_general(inst, [GridSpec(k=4, dim=2).points()]))


def test_concavify_oracle_accepts_raw_points_and_guards():
    inst = threshold_instance()
    value = oracles.concavify_oracle(inst, GridSpec(k=12, dim=4))
    assert 0.75 <= value <= 1.0 + 1e-9
    with pytest.raises(ValueError, match="dimension"):
        oracles.concavify_oracle(inst, np.eye(3))
    with pytest.raises(InfeasibleProgramError):
        oracles.concavify_oracle(inst, np.eye(4)[:2])


def test_expected_region_vertices_known_polytopes():
    two = PersuasionInstance(
        states=StateSpace(("i", "g")),
        actions=ActionSpace(("acquit", "convict")),
        prior=Belief(np.array([0.7, 0.3])),
        sender=SenderUtility(np.array([[0.0, 1.0], [0.0, 1.0]])),
        receiver=make_model("expected", u=np.array([[1.0, 0.0], [0.0, 1.0]])),
    )
    verts = oracles.expected_region_vertices(two, 1)
    expect = {(0.0, 1.0), (0.5, 0.5)}
    assert {tuple(np.round(v, 9)) for v in verts} == expect

    du = np.array([1.0, 1.0, -2.0])
    three = PersuasionInstance(
        states=StateSpace(("0", "1", "2")),
        actions=ActionSpace(("no", "yes")),
        prior=Belief(np.full(3, 1 / 3)),
        sender=SenderUtility(np.column_stack([np.zeros(3), np.ones(3)])),
        receiver=make_model("expected", u=np.column_stack([np.zeros(3), du])),
    )
    verts = oracles.expected_region_vertices(three, 1)
    got = {tuple(np.round(v, 9)) for v in verts}
    third = round(1.0 / 3.0, 9)
    expect = {
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (round(2 / 3, 9), 0.0, third),
        (0.0, round(2 / 3, 9), third),
    }
    assert got == expect

    with pytest.raises(ValueError, match="expected-utility"):
        oracles.expected_region_vertices(threshold_instance(), 1)
    with pytest.raises(ValueError, match="out of range"):
        oracles.expected_region_vertices(two, 7)


def test_grid_refinement_is_monotone(rng):
    for _ in range(4):
        inst = random_eum_instance(rng)
        values = []
        for k in (6, 12, 24):
            grid = GridSpec(k=k, dim=inst.n_states)
            sets = grid_point_sets(inst, grid)
            values.append(solve_general(inst, sets).value)
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9
