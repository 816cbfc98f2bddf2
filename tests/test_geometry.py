"""LP core, hull membership, decompositions, and boundary bisection."""

import numpy as np
import pytest

from oracles import (
    BisectionError,
    ConvexCombination,
    PointOutsideHullError,
    caratheodory_decompose,
    hull_membership,
    segment_bisection,
)
from persuade import LinearProgram, solve_lp


def test_solve_lp_small_known_optimum():
    lp = LinearProgram(
        c=np.array([1.0, 2.0]), a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0])
    )
    res = solve_lp(lp)
    assert res.optimal
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.x, [0.0, 1.0])


def test_solve_lp_reports_infeasible():
    lp = LinearProgram(
        c=np.array([1.0]), a_eq=np.array([[1.0]]), b_eq=np.array([-1.0])
    )
    res = solve_lp(lp)
    assert res.status == "infeasible"
    assert res.x is None and res.value is None


def test_solve_lp_reports_unbounded():
    lp = LinearProgram(
        c=np.array([1.0, 0.0]), a_eq=np.array([[0.0, 1.0]]), b_eq=np.array([1.0])
    )
    assert solve_lp(lp).status == "unbounded"


def test_solve_lp_returns_basic_solutions():
    # A vertex solution carries at most one nonzero per constraint row.
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(8, 20))
        a = rng.uniform(0.0, 1.0, size=(rows, cols))
        feasible = rng.uniform(0.0, 1.0, size=cols)
        lp = LinearProgram(c=rng.normal(size=cols), a_eq=a, b_eq=a @ feasible)
        res = solve_lp(lp)
        assert res.optimal
        assert int((res.x > 1e-10).sum()) <= rows


def test_linear_program_shape_guard():
    with pytest.raises(ValueError):
        LinearProgram(
            c=np.ones(3), a_eq=np.ones((2, 2)), b_eq=np.ones(2)
        )


def test_hull_membership_recovers_random_mixtures():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 6))
        pts = rng.dirichlet(np.ones(d), size=int(rng.integers(d, 9)))
        w = rng.dirichlet(np.ones(pts.shape[0]))
        target = w @ pts
        combo = hull_membership(target, pts)
        assert combo is not None
        rebuilt = combo.weights @ combo.points
        assert np.max(np.abs(rebuilt - target)) <= 1e-8
        assert np.all(combo.indices < pts.shape[0])


def test_hull_membership_rejects_outside_point():
    # Acceptance vertices of the max-component threshold game: pure states
    # 0..2 and blends with a third of the mass on state 3.  Every row has
    # at most 1/3 on the last coordinate, so e_3 cannot be inside.
    third = 1.0 / 3.0
    pts = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [2 * third, 0.0, 0.0, third],
            [0.0, 2 * third, 0.0, third],
            [0.0, 0.0, 2 * third, third],
        ]
    )
    assert hull_membership(np.eye(4)[3], pts) is None
    # The uniform prior, by contrast, is a mix of the three blends.
    combo = hull_membership(np.full(4, 0.25), pts)
    assert combo is not None
    assert np.max(np.abs(combo.weights @ combo.points - 0.25)) <= 1e-8


def test_hull_membership_edge_cases():
    assert hull_membership(np.array([0.5, 0.5]), np.zeros((0, 2))) is None
    with pytest.raises(ValueError):
        hull_membership(np.array([0.5, 0.5]), np.eye(3))
    # Single point: membership is equality up to tolerance.
    assert hull_membership(np.array([0.5, 0.5]), np.array([[0.5, 0.5]])) is not None
    assert hull_membership(np.array([0.6, 0.4]), np.array([[0.5, 0.5]])) is None


def test_caratheodory_respects_dimension_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        pts = rng.dirichlet(np.ones(d), size=12)
        target = rng.dirichlet(np.ones(12)) @ pts
        combo = caratheodory_decompose(target, pts)
        assert combo.n_atoms <= d
        assert np.max(np.abs(combo.weights @ combo.points - target)) <= 1e-8
        assert combo.weights.min() >= 0.0
        assert combo.weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_caratheodory_extreme_point_is_single_atom():
    pts = np.vstack([np.eye(3), np.full((4, 3), 1.0 / 3.0)])
    combo = caratheodory_decompose(np.eye(3)[0], pts)
    assert combo.n_atoms == 1
    assert np.allclose(combo.points[0], [1.0, 0.0, 0.0])


def test_caratheodory_outside_raises():
    with pytest.raises(PointOutsideHullError):
        caratheodory_decompose(np.eye(3)[0], np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0]]))


def test_convex_combination_guards():
    pts = np.eye(2)
    with pytest.raises(ValueError):
        ConvexCombination(
            indices=np.array([0, 1]),
            weights=np.array([0.7, 0.7]),
            points=pts,
            target=np.array([0.5, 0.5]),
        )
    with pytest.raises(ValueError):
        ConvexCombination(
            indices=np.array([0]),
            weights=np.array([1.0]),
            points=pts[:1],
            target=np.array([0.0, 1.0]),
        )
    with pytest.raises(ValueError):
        ConvexCombination(
            indices=np.array([], dtype=int),
            weights=np.array([]),
            points=np.zeros((0, 2)),
            target=np.array([0.5, 0.5]),
        )


def test_segment_bisection_linear_crossing():
    diff = lambda mu: mu[0] - mu[1]
    gamma = segment_bisection(diff, np.eye(2)[1], np.eye(2)[0])
    assert gamma == pytest.approx(0.5, abs=1e-9)
    point = gamma * np.eye(2)[1] + (1 - gamma) * np.eye(2)[0]
    assert diff(point) >= 0.0


def test_segment_bisection_threshold_game():
    diff = lambda mu: float(np.max(mu[:3]) - 2.0 / 3.0)
    gamma = segment_bisection(diff, np.eye(4)[3], np.eye(4)[0])
    assert gamma == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_segment_bisection_tightens_with_tolerance():
    diff = lambda mu: mu[0] - np.sqrt(mu[1])  # nonlinear crossing
    coarse = segment_bisection(diff, np.eye(2)[1], np.eye(2)[0], tol=1e-4)
    fine = segment_bisection(diff, np.eye(2)[1], np.eye(2)[0], tol=1e-12)
    assert coarse <= fine + 1e-4
    assert abs(fine - coarse) <= 1e-4


def test_segment_bisection_endpoint_guards():
    diff = lambda mu: mu[0] - mu[1]
    with pytest.raises(ValueError):
        segment_bisection(diff, np.eye(2)[0], np.eye(2)[1])  # swapped roles
    with pytest.raises(ValueError):
        segment_bisection(lambda mu: 1.0, np.eye(2)[1], np.eye(2)[0])


def test_segment_bisection_iteration_cap():
    diff = lambda mu: mu[0] - mu[1]
    with pytest.raises(BisectionError):
        segment_bisection(diff, np.eye(2)[1], np.eye(2)[0], tol=0.0, max_iter=50)
