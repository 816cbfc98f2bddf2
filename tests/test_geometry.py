"""LP core, column generation and its certificate, hull membership,
decompositions, and boundary bisection."""

import dataclasses
import importlib.util
import math
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

import persuade.general
import persuade.geometry
from oracles import (
    BisectionError,
    ConvexCombination,
    PointOutsideHullError,
    caratheodory_decompose,
    full_plan_lp,
    hull_membership,
    segment_bisection,
)
from persuade import (
    GridSpec,
    InfeasibleProgramError,
    LinearProgram,
    LpSolverError,
    full_persuasion,
    grid_point_sets,
    instance_from_json,
    plan_from_candidates,
    scheme_from_plan,
    solve_binary,
    solve_by_columns,
    solve_lp,
    solve_obedience,
    validate_scheme,
)
from persuade.geometry import CERTIFICATE_TOLERANCE, FULL_LP_COLUMNS, LP_RESIDUAL, CscMatrix, LpResult, certify
from persuade.model import PLAN_MASS_TOLERANCE


def test_solve_lp_small_known_optimum():
    lp = LinearProgram(
        c=np.array([1.0, 2.0]), a_eq=CscMatrix.from_dense([[1.0, 1.0]]), b_eq=np.array([1.0])
    )
    res = solve_lp(lp)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(res.x, [0.0, 1.0])


def test_a_zero_optimum_is_positive_zero():
    # HiGHS minimizes -c . x; its minimum 0 negates to 0.0, not -0.0.
    lp = LinearProgram(
        c=np.array([0.0, -1.0]), a_eq=CscMatrix.from_dense([[1.0, 1.0]]), b_eq=np.array([1.0])
    )
    res = solve_lp(lp)
    assert res.value == 0.0 and math.copysign(1.0, res.value) == 1.0
    assert res.x.tolist() == [1.0, 0.0]


def test_solve_lp_reports_infeasible():
    lp = LinearProgram(
        c=np.array([1.0]), a_eq=CscMatrix.from_dense([[1.0]]), b_eq=np.array([-1.0])
    )
    with pytest.raises(InfeasibleProgramError, match="LP is infeasible"):
        solve_lp(lp)


def test_solve_lp_reports_unbounded():
    lp = LinearProgram(
        c=np.array([1.0, 0.0]), a_eq=CscMatrix.from_dense([[0.0, 1.0]]), b_eq=np.array([1.0])
    )
    with pytest.raises(InfeasibleProgramError, match="LP is unbounded"):
        solve_lp(lp)


def test_solve_lp_returns_basic_solutions():
    # A vertex solution carries at most one nonzero per constraint row, and
    # carries its certificate on the program it solved.
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(8, 20))
        a = rng.uniform(0.0, 1.0, size=(rows, cols))
        feasible = rng.uniform(0.0, 1.0, size=cols)
        lp = LinearProgram(c=rng.normal(size=cols), a_eq=CscMatrix.from_dense(a), b_eq=a @ feasible)
        res = solve_lp(lp)
        assert int((res.x > 1e-10).sum()) <= rows
        assert (res.rounds, res.columns) == (1, cols)
        assert res.reduced_cost <= _bound(lp) and res.gap <= _bound(lp)


def test_solve_lp_returns_equality_duals():
    # max x1 + 2 x2 with x1 + x2 = 1: the row's shadow price is 2.
    lp = LinearProgram(
        c=np.array([1.0, 2.0]), a_eq=CscMatrix.from_dense([[1.0, 1.0]]), b_eq=np.array([1.0])
    )
    res = solve_lp(lp)
    assert res.dual == pytest.approx([2.0], abs=1e-12)


def _fake_linprog(monkeypatch, *weights, duals=None):
    """Make HiGHS answer the i-th call with ``weights[i]`` and the equality
    dual ``duals[i]`` (3, which certifies the optimum of ``_SIMPLEX_LP``,
    by default); returns the calls' options."""
    calls = []

    def fake(c, a_eq, b_eq, options):
        calls.append(options)
        x = np.asarray(weights[len(calls) - 1], dtype=float)
        y = 3.0 if duals is None else duals[len(calls) - 1]
        return x, float(c @ x), np.full(b_eq.size, -y)

    monkeypatch.setattr(persuade.geometry, "linprog", fake)
    return calls


# max x1 + 2 x2 + 3 x3 on the simplex: x = e3, y = 3, certificate bound 4e-9.
_SIMPLEX_LP = LinearProgram(
    c=np.arange(4.0), a_eq=CscMatrix.from_dense(np.ones((1, 4))), b_eq=np.array([1.0])
)
_RETRY = {
    "primal_feasibility_tolerance": LP_RESIDUAL,
    "dual_feasibility_tolerance": CERTIFICATE_TOLERANCE,
}


def test_solve_lp_clips_and_floors_weights(monkeypatch):
    # A few ulps below zero and a trace above it both come back as 0; a
    # zero keeps its sign, so printed plans keep HiGHS's -0.0.
    _fake_linprog(monkeypatch, [-1e-13, 1e-13, -0.0, 1.0])
    res = solve_lp(_SIMPLEX_LP)
    assert res.x.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert not np.signbit(res.x[:2]).any() and np.signbit(res.x[2])
    assert res.value == pytest.approx(3.0, abs=1e-12)


def test_solve_lp_retries_once_at_the_residual_tolerance(monkeypatch):
    # Over the residual bound on both calls: raised, and only the second
    # call tightens HiGHS's feasibility tolerances.
    calls = _fake_linprog(monkeypatch, [0.0, 0.0, 0.0, 1.0 + 3e-9], [0.0, 0.0, 0.0, 1.0 - 3e-9])
    with pytest.raises(LpSolverError, match="equality residual 3.000e-09 out of tolerance"):
        solve_lp(_SIMPLEX_LP)
    assert calls == [None, _RETRY]
    # Over the bound once: the retry's solution is returned.
    calls = _fake_linprog(monkeypatch, [0.0, 0.0, 0.0, 1.0 + 3e-9], [0.0, 0.0, 0.0, 1.0])
    assert solve_lp(_SIMPLEX_LP).x.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert calls == [None, _RETRY]
    # Within it: one call, no option.
    calls = _fake_linprog(monkeypatch, [0.0, 0.0, 0.0, 1.0 + 1e-9])
    solve_lp(_SIMPLEX_LP)
    assert calls == [None]


def test_solve_lp_retries_once_on_its_own_reduced_costs(monkeypatch):
    # HiGHS calls a basis optimal while one of its columns still prices
    # up to its dual tolerance (1e-7) above zero.  Here x3 prices at 1e-8
    # with no gap: one retry with both tolerances tightened, and two such
    # answers raise.
    priced = [0.0, 0.0, 1e-8, 1.0 - 1e-8]
    calls = _fake_linprog(monkeypatch, priced, priced, duals=[3.0 - 1e-8] * 2)
    with pytest.raises(LpSolverError, match="LP optimality certificate failed: reduced cost 1.000e-08"):
        solve_lp(_SIMPLEX_LP)
    assert calls == [None, _RETRY]
    calls = _fake_linprog(monkeypatch, priced, [0.0, 0.0, 0.0, 1.0], duals=[3.0 - 1e-8, 3.0])
    res = solve_lp(_SIMPLEX_LP)
    assert calls == [None, _RETRY]
    assert res.x.tolist() == [0.0, 0.0, 0.0, 1.0] and res.dual.tolist() == [3.0]


def _highs_ds(c, a_eq, b_eq, options=None):
    """scipy's own HiGHS dual simplex call, the reference for ``geometry.linprog``."""
    return scipy.optimize.linprog(
        c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds", options=options
    )


@pytest.mark.parametrize("options", [None, _RETRY], ids=["default", "retry"])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_engine_matches_scipy_highs_ds_bit_for_bit(sparse, options):
    # The same model and options reach HiGHS, so the same bits come back.
    rng = np.random.default_rng(19)
    for _ in range(40):
        d, n = int(rng.integers(2, 10)), int(rng.integers(2, 60))
        a = rng.random((d, n)) * (rng.random((d, n)) < 0.6)
        a[-1] = 1.0
        lp = LinearProgram(rng.normal(size=n), CscMatrix.from_dense(a), a @ rng.dirichlet(np.ones(n)))
        # scipy gets the dense matrix, the engine its CSC arrays.
        reference = (-lp.c, a, lp.b_eq, options)
        args = (-lp.c, lp.a_eq, lp.b_eq, options)
        if sparse:
            # scipy's own CSC matrix is the reference input; the engine gets its arrays.
            ref = scipy.sparse.csc_array(a)
            reference = (-lp.c, ref, lp.b_eq, options)
            args = (-lp.c, CscMatrix(ref.indptr, ref.indices, ref.data, ref.shape), lp.b_eq, options)
        (x, value, dual), want = persuade.geometry.linprog(*args), _highs_ds(*reference)
        assert want.status == 0
        assert x.tobytes() == want.x.tobytes()
        assert np.float64(value).tobytes() == np.float64(want.fun).tobytes()
        assert dual.tobytes() == want.eqlin.marginals.tobytes()


@pytest.mark.parametrize(
    "c, a, b, status",
    [([1.0, 0.0], [1.0, 1.0], -1.0, 2), ([-1.0, 0.0], [1.0, -1.0], 0.0, 3)],
    ids=["infeasible", "unbounded"],
)
def test_engine_matches_scipy_highs_ds_verdicts(c, a, b, status):
    # x1 + x2 = -1 has no nonnegative point; x1 = x2 lets -x1 fall forever.
    # scipy's status 2 is infeasible, 3 unbounded; the engine raises either.
    args = (np.array(c), np.array([a]), np.array([b]))
    assert _highs_ds(*args).status == status
    verdict = {2: "infeasible", 3: "unbounded"}[status]
    with pytest.raises(InfeasibleProgramError, match=f"^LP is {verdict}$"):
        persuade.geometry.linprog(args[0], CscMatrix.from_dense(args[1]), args[2])


def test_engine_refuses_non_finite_programs_as_scipy_did():
    a, b = np.ones((1, 2)), np.ones(1)
    for c, a_eq in (([np.nan, 1.0], a), ([1.0, 1.0], np.array([[1.0, np.inf]]))):
        with pytest.raises(ValueError):
            _highs_ds(np.array(c), a_eq, b)
        with pytest.raises(ValueError, match="finite"):
            persuade.geometry.linprog(np.array(c), CscMatrix.from_dense(a_eq), b)


def test_a_model_highs_refuses_is_an_engine_failure_not_infeasible():
    # HiGHS refuses a matrix entry of 1e15 or more when the model is
    # passed; scipy reported that as infeasible, though x = (1, 0) is feasible.
    a = CscMatrix.from_dense([[1.0, 1e16], [1.0, 1.0]])
    lp = LinearProgram(np.array([1.0, 0.0]), a, np.ones(2))
    with pytest.raises(LpSolverError, match=r"LP engine failed: .*\(HiGHS Status 2: Model error\)"):
        solve_lp(lp)


def test_missing_highs_core_names_the_scipy_found(monkeypatch, tmp_path):
    # A scipy without the bundled HiGHS module: one ImportError with its version.
    spec = importlib.util.spec_from_file_location("scipy", tmp_path / "__init__.py")
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, persuade.geometry.HIGHS_CORE)
    persuade.geometry._highs.cache_clear()
    try:
        with pytest.raises(ImportError, match=rf"scipy>=1\.15, found scipy {scipy.__version__}$"):
            persuade.geometry._highs()
    finally:
        persuade.geometry._highs.cache_clear()


def test_linear_program_shape_guard():
    with pytest.raises(ValueError):
        LinearProgram(
            c=np.ones(3), a_eq=CscMatrix.from_dense(np.ones((2, 2))), b_eq=np.ones(2)
        )
    with pytest.raises(ValueError, match="constraint shapes disagree"):
        LinearProgram(np.ones(3), CscMatrix([0, 1, 1], [0], [1.0], (2, 2)), np.ones(2))


@pytest.mark.parametrize("entries", ["integer", "real"])
def test_csc_matrix_matches_scipy_and_the_dense_matrix(entries):
    # scipy's CSC is the oracle for every result.  Integer entries make
    # every sum exact, so the dense computation gives the same bits too.
    rng = np.random.default_rng(20)

    def draw(*size):
        if entries == "integer":
            return rng.integers(-4, 5, size).astype(float)
        return rng.normal(size=size)

    for _ in range(60):
        m, n = int(rng.integers(2, 12)), int(rng.integers(3, 40))
        a = np.where(rng.random((m, n)) < 0.4, draw(m, n), 0.0)
        a[:, rng.integers(n)] = 0.0
        ref = scipy.sparse.csc_array(a)
        csc = CscMatrix(ref.indptr, ref.indices, ref.data, ref.shape)
        x, y = draw(n), draw(m)
        cols = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        if rng.random() < 0.5:
            cols.sort()
        sub, ref_sub = csc.columns(cols), ref[:, cols]
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sub, field), getattr(ref_sub, field)), field
        for got, want, dense in (
            (csc @ x, ref @ x, a @ x),
            (csc.rmatvec(y), ref.T @ y, a.T @ y),
            (np.asarray(csc), ref.toarray(), a),
            (np.asarray(sub), ref_sub.toarray(), a[:, cols]),
        ):
            assert got.tobytes() == want.tobytes()
            if entries == "integer":
                assert got.tobytes() == dense.tobytes()
    assert np.count_nonzero(csc) == ref.nnz


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([0, 1], [0], "column pointers"),
        ([0, 2, 1], [0], "column pointers"),
        ([0, 1, 2], [0, 3], "row indices"),
        ([0, 2, 2], [1, 0], "row indices"),
        ([0, 2, 2], [1, 1], "row indices"),
    ],
    ids=["short", "decreasing", "row-out-of-range", "unsorted", "repeated"],
)
def test_csc_matrix_refuses_arrays_out_of_canonical_form(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        CscMatrix(indptr, indices, np.ones(len(indices)), (3, 2))


def test_from_dense_gives_scipys_csc_arrays():
    # Zero and -0.0 entries are left out, as scipy leaves them out; an
    # empty column keeps its place.
    rng = np.random.default_rng(24)
    for _ in range(40):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 30))
        a = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        a[rng.random((m, n)) < 0.1] = -0.0
        a[:, rng.integers(n)] = 0.0
        csc, ref = CscMatrix.from_dense(a), scipy.sparse.csc_array(a)
        assert csc.shape == ref.shape
        assert np.array_equal(csc.indptr, ref.indptr) and np.array_equal(csc.indices, ref.indices)
        assert csc.data.tobytes() == ref.data.tobytes()
        assert np.asarray(csc).tobytes() == (a + 0.0).tobytes()


def test_linear_program_refuses_a_dense_matrix():
    with pytest.raises(TypeError, match="CscMatrix"):
        LinearProgram(np.ones(2), np.ones((1, 2)), np.ones(1))


def test_product_over_the_nonzero_columns_is_the_full_product():
    # certify's residual reads A.columns(nz) @ x[nz]: the terms it leaves out
    # are +-0 added to sums that start at +0.0, so the bits are A @ x's,
    # with -0.0 and exact zeros in x and sums that cancel to 0.
    rng = np.random.default_rng(25)
    for _ in range(60):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 40))
        a = np.where(rng.random((m, n)) < 0.5, rng.integers(-3, 4, (m, n)).astype(float), 0.0)
        if rng.random() < 0.5:
            a *= rng.normal(size=(m, n))
        csc = CscMatrix.from_dense(a)
        x = np.where(rng.random(n) < 0.3, rng.integers(1, 4, n).astype(float), 0.0)
        x[rng.random(n) < 0.3] = -0.0
        nz = np.flatnonzero(x)
        assert (csc.columns(nz) @ x[nz]).tobytes() == (csc @ x).tobytes()


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


# ---------------------------------------------------------------------------
# Column generation and the plan-LP certificate


def _grid_instance(seed, d, kind):
    """A seeded grid-only instance: 3 actions, a non-convex reject region, or aligned."""
    rng = np.random.default_rng(seed)
    if kind == "nonconvex":
        receiver = {
            "kind": "mean_stdev",
            "u": rng.uniform(-1.0, 1.0, (d, 2)).tolist(),
            "g_mean": rng.uniform(0.0, 1.0, (d, 2)).tolist(),
            "g_var": rng.uniform(0.05, 1.0, (d, 2)).tolist(),
            "beta": float(rng.uniform(0.2, 1.0)),
        }
        sender = [[0.0, 1.0]] * d
    else:
        sender = rng.uniform(0.0, 1.0, (d, 3)).tolist()
        u = sender if kind == "aligned" else rng.uniform(-1.0, 1.0, (d, 3)).tolist()
        receiver = {"kind": "expected", "u": u}
    return instance_from_json(
        {
            "states": [f"s{i}" for i in range(d)],
            "actions": [f"a{i}" for i in range(len(sender[0]))],
            "prior": rng.dirichlet(np.ones(d)).tolist(),
            "sender_v": sender,
            "receiver": receiver,
        }
    )


def _candidates(instance, k):
    sets = grid_point_sets(instance, GridSpec(k=k, dim=instance.n_states))
    actions = np.repeat(np.arange(instance.n_actions), [s.shape[0] for s in sets])
    return np.vstack(sets), actions


def _record(monkeypatch, name, home):
    """Wrap ``home.name`` to keep each call's (program, result)."""
    calls = []
    original = getattr(home, name)

    def wrapper(lp, *args, **kwargs):
        res = original(lp, *args, **kwargs)
        calls.append((lp, res))
        return res

    monkeypatch.setattr(home, name, wrapper)
    return calls


def _corrupt_engine(monkeypatch, change, field="dual"):
    """Make HiGHS hand solve_lp ``change(v, program)`` as its duals y (or weights x), on every attempt."""
    engine = persuade.geometry.linprog

    def corrupted(c, a_eq, b_eq, options=None):
        x, value, dual = engine(c, a_eq, b_eq, options)
        lp = LinearProgram(-c, a_eq, b_eq)
        if field == "x":
            return change(x, lp), value, dual
        # The engine minimizes -c . x, so its duals are -y.
        return x, value, -change(-dual, lp)

    monkeypatch.setattr(persuade.geometry, "linprog", corrupted)


def _bound(lp):
    return CERTIFICATE_TOLERANCE * (1.0 + np.max(np.abs(lp.c)))


@pytest.mark.parametrize(
    "kind, seed, d, k",
    [("three-action", 7, 4, 6), ("nonconvex", 8, 3, 12), ("aligned", 9, 4, 6)],
)
def test_programs_at_or_below_the_column_limit_solve_once(monkeypatch, kind, seed, d, k):
    instance = _grid_instance(seed, d, kind)
    rows, actions = _candidates(instance, k)
    assert rows.shape[0] <= FULL_LP_COLUMNS * d
    lps = _record(monkeypatch, "solve_lp", persuade.geometry)
    certified = _record(monkeypatch, "certify", persuade.geometry)
    plan = plan_from_candidates(instance, rows, actions)
    assert [lp.c.size for lp, _ in lps] == [rows.shape[0]]
    # solve_lp certified the whole program, so its answer is not priced again.
    assert len(certified) == 1
    value, _ = full_plan_lp(instance, rows, actions)
    assert plan.value == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("kind, seed, d, k", [("nonconvex", 8, 3, 24), ("nonconvex", 14, 4, 36)])
def test_programs_above_the_column_limit_run_column_generation(monkeypatch, kind, seed, d, k):
    # Wider than FULL_LP_COLUMNS per row, though under the 10,000 columns
    # that once sent every program to a direct solve: column generation
    # reaches the direct optimum, and its plan compiles to a valid scheme.
    instance = _grid_instance(seed, d, kind)
    rows, actions = _candidates(instance, k)
    assert FULL_LP_COLUMNS * d < rows.shape[0] < 10_000
    solves = _record(monkeypatch, "solve_by_columns", persuade.general)
    plan = plan_from_candidates(instance, rows, actions)
    (lp, res), = solves
    assert res.rounds > 1 and res.columns < rows.shape[0]
    assert res.reduced_cost <= _bound(lp) and res.gap <= _bound(lp)
    assert plan.value == pytest.approx(full_plan_lp(instance, rows, actions)[0], abs=1e-9)
    assert validate_scheme(scheme_from_plan(plan, instance), instance).ok


def test_binary_hulls_stay_direct_solves(monkeypatch):
    # A d 40 hull of 440 columns (11 per row), as wide as the widest binary
    # program solve-fixed builds, is one solve over all of them; with no
    # columns per row allowed, the same program would run column generation
    # from its pure-state seed.
    instance = _binary_hull_instance(41, 40)
    lps = _record(monkeypatch, "solve_lp", persuade.geometry)
    solve_binary(instance)
    (lp, res), = lps
    assert lp.c.size == 440 <= FULL_LP_COLUMNS * instance.n_states
    assert (res.rounds, res.columns) == (1, 440)
    lps.clear()
    monkeypatch.setattr(persuade.geometry, "FULL_LP_COLUMNS", 0)
    solve_binary(instance)
    assert len(lps) > 1 and lps[0][0].c.size == instance.n_states


def test_column_limit_is_inclusive(monkeypatch):
    # Exactly FULL_LP_COLUMNS columns per row: one solve over all of them.
    # One more column, and the first solve is over the pure-state seed.
    rng = np.random.default_rng(3)
    d = 3
    limit = FULL_LP_COLUMNS * d
    rows = np.vstack([np.eye(d), rng.dirichlet(np.ones(d), size=limit + 1 - d)])
    c = rng.uniform(0.0, 1.0, rows.shape[0])
    lps = _record(monkeypatch, "solve_lp", persuade.geometry)
    sizes = {}
    for n in (limit, limit + 1):
        lps.clear()
        lp = LinearProgram(c=c[:n], a_eq=CscMatrix.from_dense(rows[:n].T), b_eq=np.full(d, 1.0 / d))
        solve_by_columns(lp, np.arange(d))
        sizes[n] = [sub.c.size for sub, _ in lps]
    assert sizes[limit] == [limit]
    assert sizes[limit + 1][0] == d


@pytest.mark.parametrize(
    "kind, seed, d, k", [("three-action", 11, 5, 30), ("nonconvex", 12, 6, 16), ("aligned", 13, 5, 30)]
)
def test_grid_programs_above_the_limit_match_the_full_lp(monkeypatch, kind, seed, d, k):
    instance = _grid_instance(seed, d, kind)
    rows, actions = _candidates(instance, k)
    assert rows.shape[0] > FULL_LP_COLUMNS * d
    solves = _record(monkeypatch, "solve_by_columns", persuade.general)
    plan = plan_from_candidates(instance, rows, actions)
    (lp, res), = solves
    # Full disclosure is optimal when the receiver is aligned: the seed is the optimum.
    assert res.rounds == 1 if kind == "aligned" else res.rounds > 1
    assert res.columns < rows.shape[0] // 10
    assert res.reduced_cost <= _bound(lp) and res.gap <= _bound(lp)
    value, t = full_plan_lp(instance, rows, actions)
    assert plan.value == pytest.approx(value, abs=1e-9)
    assert validate_scheme(scheme_from_plan(plan, instance), instance).ok
    off_ideal = np.arange(instance.n_actions)[:, None] != np.argmax(instance.sender.table, axis=1)
    assert full_persuasion(instance, plan) == bool(t[off_ideal].sum() <= PLAN_MASS_TOLERANCE)
    assert full_persuasion(instance, plan) or kind != "aligned"


def _binary_hull_instance(seed, d):
    """A seeded two-action expected-utility instance, which solve_binary takes."""
    rng = np.random.default_rng(seed)
    return instance_from_json(
        {
            "states": [f"s{i}" for i in range(d)],
            "actions": ["reject", "accept"],
            "prior": rng.dirichlet(np.ones(d)).tolist(),
            "sender_v": [[0.0, 1.0]] * d,
            "receiver": {"kind": "expected", "u": rng.uniform(-1.0, 1.0, (d, 2)).tolist()},
        }
    )


@pytest.mark.parametrize("program", ["binary-hull", "grid", "obedience"])
def test_plan_programs_hand_highs_scipys_csc_arrays(monkeypatch, program):
    # Each builder converts its dense matrix once, and HiGHS gets the arrays
    # of scipy's csc_array of that matrix: the input a dense program gave it.
    dense = []
    from_dense = CscMatrix.from_dense.__func__

    def recording(cls, a):
        dense.append(np.array(a))
        return from_dense(cls, a)

    monkeypatch.setattr(CscMatrix, "from_dense", classmethod(recording))
    # The obedience LP is one direct solve; the others run column generation.
    solver = "solve_lp" if program == "obedience" else "solve_by_columns"
    solves = _record(monkeypatch, solver, persuade.general)
    if program == "binary-hull":
        solve_binary(_binary_hull_instance(26, 12))
    elif program == "grid":
        instance = _grid_instance(12, 5, "nonconvex")
        rows, actions = _candidates(instance, 30)
        assert rows.shape[0] > FULL_LP_COLUMNS * instance.n_states
        plan_from_candidates(instance, rows, actions)
    else:
        solve_obedience(_grid_instance(27, 4, "three-action"))
    (lp, _), = solves
    (a,) = dense
    ref = scipy.sparse.csc_array(a)
    assert lp.a_eq.shape == ref.shape == (lp.b_eq.size, lp.c.size)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(lp.a_eq, field), getattr(ref, field)), field


def test_candidates_without_a_pure_state_use_all_columns(monkeypatch):
    instance = _grid_instance(21, 3, "three-action")
    rows, actions = _candidates(instance, 12)
    keep = rows[:, 0] < 1.0  # no candidate is state 0 alone
    rows, actions = rows[keep], actions[keep]
    monkeypatch.setattr(persuade.geometry, "FULL_LP_COLUMNS", 0)
    lps = _record(monkeypatch, "solve_lp", persuade.geometry)
    plan_from_candidates(instance, rows, actions)
    assert [lp.c.size for lp, _ in lps] == [rows.shape[0]]


def test_restricted_start_prices_in_columns_to_the_full_optimum(monkeypatch):
    instance = _grid_instance(22, 4, "three-action")
    rows, actions = _candidates(instance, 8)
    monkeypatch.setattr(persuade.geometry, "FULL_LP_COLUMNS", 0)
    lps = _record(monkeypatch, "solve_lp", persuade.geometry)
    plan = plan_from_candidates(instance, rows, actions)
    sizes = [lp.c.size for lp, _ in lps]
    assert sizes[0] == instance.n_states and sizes == sorted(sizes) and len(sizes) > 1
    assert plan.value == pytest.approx(full_plan_lp(instance, rows, actions)[0], abs=1e-9)


@pytest.mark.parametrize("limit", [FULL_LP_COLUMNS, 0], ids=["full", "restricted"])
@pytest.mark.parametrize(
    "change",
    [lambda y, lp: np.zeros_like(y), lambda y, lp: 0.5 * y],
    ids=["zeroed", "halved"],
)
def test_corrupted_duals_fail_the_certificate(monkeypatch, limit, change):
    instance = _grid_instance(23, 4, "three-action")
    rows, actions = _candidates(instance, 8)
    monkeypatch.setattr(persuade.geometry, "FULL_LP_COLUMNS", limit)
    # The direct LP and each restricted solve are certified once, inside
    # solve_lp, on the engine's duals.
    _corrupt_engine(monkeypatch, change)
    with pytest.raises(LpSolverError, match="certificate"):
        plan_from_candidates(instance, rows, actions)


def test_restricted_weights_are_checked_on_the_whole_program(monkeypatch):
    # One support weight of each restricted solve moved by 1e-6: the plan
    # LP's rows no longer add up, and solve_lp's certificate of the
    # restricted solve, whose rows are the whole program's, says so first.
    instance = _grid_instance(23, 4, "three-action")
    rows, actions = _candidates(instance, 8)
    monkeypatch.setattr(persuade.geometry, "FULL_LP_COLUMNS", 0)

    def moved(x, lp):
        x = x.copy()
        x[np.argmax(x)] += 1e-6
        return x

    _corrupt_engine(monkeypatch, moved, field="x")
    with pytest.raises(LpSolverError, match="equality residual"):
        plan_from_candidates(instance, rows, actions)


@pytest.mark.parametrize(
    "kind, seed, d, k", [("three-action", 11, 5, 30), ("nonconvex", 14, 4, 36), ("aligned", 13, 5, 30)]
)
def test_column_generation_prices_once_a_round_and_returns_what_certify_builds(
    monkeypatch, kind, seed, d, k
):
    # Each round prices every column once; the last pass doubles as the
    # whole program's certificate, so no further product over all columns
    # follows it, and the result is certify's on the whole program.
    instance = _grid_instance(seed, d, kind)
    rows, actions = _candidates(instance, k)
    widths = []
    rmatvec = CscMatrix.rmatvec

    def recording(a, y):
        widths.append(a.shape[1])
        return rmatvec(a, y)

    monkeypatch.setattr(CscMatrix, "rmatvec", recording)
    solves = _record(monkeypatch, "solve_by_columns", persuade.general)
    plan_from_candidates(instance, rows, actions)
    (lp, res), = solves
    assert res.columns < lp.c.size and widths.count(lp.c.size) == res.rounds
    ref = certify(lp, res.x, res.value, res.dual, rounds=res.rounds, columns=res.columns)
    for field in dataclasses.fields(LpResult):
        got, want = getattr(res, field.name), getattr(ref, field.name)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), field.name


@pytest.mark.parametrize("shift, fails", [(1e-10, False), (1e-8, True)])
def test_certificate_fires_at_its_tolerance(monkeypatch, shift, fails):
    # Candidate rows sum to one, so lowering every dual by delta raises
    # every reduced cost, and the gap, by delta.  The levels are literal:
    # a certificate looser than 1e-8 (scaled) fails this test.
    instance = _grid_instance(24, 4, "three-action")
    rows, actions = _candidates(instance, 8)
    assert 1e-10 < CERTIFICATE_TOLERANCE < 1e-8
    _corrupt_engine(monkeypatch, lambda y, lp: y - shift * (1.0 + np.max(np.abs(lp.c))))
    if fails:
        with pytest.raises(LpSolverError, match="certificate"):
            plan_from_candidates(instance, rows, actions)
    else:
        plan_from_candidates(instance, rows, actions)


def test_certificate_prices_the_columns_already_in_the_program(monkeypatch):
    # A dual moved along z with z . prior = 0 keeps the gap, but prices
    # some column of the solved basis positive; every column here is in
    # the one full solve, so only pricing those catches it.
    instance = _grid_instance(25, 4, "three-action")
    rows, actions = _candidates(instance, 8)
    b = instance.prior.weights
    z = np.zeros(instance.n_states)
    z[0], z[1] = b[1], -b[0]
    _corrupt_engine(monkeypatch, lambda y, lp: y + 1e-3 * z)
    with pytest.raises(LpSolverError, match="certificate"):
        plan_from_candidates(instance, rows, actions)
