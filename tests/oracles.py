"""Independent reference computations the tests check the library against.

Everything here is deliberately written from scratch against the problem
definitions (enumeration, direct LP formulations, closed-form chains),
not by calling into the package, so agreement is evidence rather than
tautology.  The exceptions are ``hull_membership``, a slack-minimizing
membership LP solved by the package's ``solve_lp``, and
``caratheodory_decompose``, a reducer built on its witness; the plan LP's
full-persuasion verdict is checked against the former.  ``segment_bisection``
bisects one edge at a time, the per-pair reference for the batched edge
bisection in ``compute_k01``; ``gamma_closed_form_scalar`` is the queue's
closed-form blend weight one pair at a time in ``math``, the reference for
the array ``gamma_closed_form``; ``full_plan_lp`` solves the plan LP over all
candidates in one direct scipy call, the reference for column generation;
``expected_region_vertices`` enumerates the corners of an expected-utility
receiver's best-response regions, which make the grid relaxation exact.
``instance_to_json`` writes an instance back to the JSON schema, and
``roundtrip`` is the parse/serialize fixpoint check on a JSON artifact.
``simulate_queue_reference`` and ``sample_scheme_batch_reference`` are the
simulator's chain one event at a time and the sampler's per-state mask
loop: the same draws as the package's, computed the plain way;
``simulate_queue_reference_events`` is the event-race loop of earlier
versions, a draw contract of its own that the simulator must match in law.
``baseline_values_reference`` calls the package's ``best_response`` once per
pure state, and ``coalesce_reference`` merges plan atoms pair by pair: the
loops that ``baseline_values`` and ``scheme_from_plan`` batch.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from persuade.binary import BISECTION_TOLERANCE
from persuade.model import FormatError, best_response, instance_from_json
from persuade.queueing import BURN_IN_FRACTION, MIN_HORIZON, SIM_BLOCK, SimulationResult
from persuade.scheme import POSTERIOR_TOLERANCE, scheme_from_json, scheme_to_json, signal_cdf
from persuade.geometry import (
    ATOM_FLOOR,
    LP_RESIDUAL,
    CscMatrix,
    InfeasibleProgramError,
    LinearProgram,
    solve_lp,
)

# A point counts as inside a hull when some convex combination reproduces
# it with total absolute residual at most this.
HULL_TOLERANCE = 1e-8
# Round-off in expected_region_vertices: a solved corner may break a
# constraint by this much, and corners this close in max norm are one.
VERTEX_TOLERANCE = 1e-9


def simplex_grid(dim: int, k: int) -> np.ndarray:
    """All probability vectors with denominator k, by direct recursion."""
    points = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            points.append(prefix + [remaining])
            return
        for take in range(remaining + 1):
            rec(prefix + [take], remaining - take, slots - 1)

    rec([], k, dim)
    return np.array(points, dtype=float) / k


def revelation_lp(prior: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Best obedient action-recommendation value for a linear receiver.

    Variables are the per-state recommendation probabilities pi(a | w);
    obedience demands each recommended action beat every alternative in
    conditional expectation.  Valid only when the receiver's score is
    linear in the belief.
    """
    d, n_actions = u.shape
    nvar = d * n_actions
    c = np.zeros(nvar)
    for w in range(d):
        for a in range(n_actions):
            c[w * n_actions + a] = prior[w] * v[w, a]
    a_eq = np.zeros((d, nvar))
    for w in range(d):
        a_eq[w, w * n_actions : (w + 1) * n_actions] = 1.0
    rows = []
    for a in range(n_actions):
        for b in range(n_actions):
            if a == b:
                continue
            row = np.zeros(nvar)
            for w in range(d):
                row[w * n_actions + a] = -prior[w] * (u[w, a] - u[w, b])
            rows.append(row)
    res = linprog(
        -c,
        A_ub=np.array(rows).reshape(len(rows), nvar),
        b_ub=np.zeros(len(rows)),
        A_eq=a_eq,
        b_eq=np.ones(d),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, f"revelation LP failed with status {res.status}"
    return float(-res.fun)


def expected_region_vertices(instance, action: int) -> np.ndarray:
    """Exact corners of an expected-utility receiver's best-response region.

    The region {mu : action weakly best} is a polytope cut out of the
    simplex by pairwise comparison hyperplanes; with a handful of states
    its vertices fall out of brute-force active-set enumeration.  Only
    defined for the ``expected`` kind.
    """
    model = instance.receiver
    if model.kind != "expected":
        raise ValueError("exact region vertices need an expected-utility receiver")
    u = np.asarray(model.params["u"], dtype=float)
    d, n_actions = u.shape
    if action < 0 or action >= n_actions:
        raise ValueError(f"action index {action} out of range")
    normals = [np.eye(d)[i] for i in range(d)]
    normals += [u[:, action] - u[:, b] for b in range(n_actions) if b != action]
    normals = np.array(normals)
    verts: list[np.ndarray] = []
    for combo in itertools.combinations(range(normals.shape[0]), d - 1):
        m = np.vstack([normals[list(combo)], np.ones(d)])
        rhs = np.zeros(d)
        rhs[-1] = 1.0
        try:
            sol = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.any(sol < -VERTEX_TOLERANCE) or np.any(normals @ sol < -VERTEX_TOLERANCE):
            continue
        sol = np.clip(sol, 0.0, None)
        sol = sol / sol.sum()
        if not any(np.max(np.abs(sol - w)) < VERTEX_TOLERANCE for w in verts):
            verts.append(sol)
    if not verts:
        return np.zeros((0, d))
    return np.array(verts)


def best_response_value(mu: np.ndarray, score, v: np.ndarray) -> float:
    """Sender value at a belief: best response, sender-preferred ties."""
    scores = np.array([score(mu, a) for a in range(v.shape[1])])
    ties = np.nonzero(scores >= scores.max() - 1e-9)[0]
    return max(float(mu @ v[:, a]) for a in ties)


def split_brute_force(
    prior: np.ndarray, score, v: np.ndarray, k: int
) -> float:
    """Best value over all splits of the prior into at most dim grid posteriors.

    Enumerates support sets of grid beliefs of size up to dim and solves
    the square system for the weights.  Exponential; for tiny instances
    only.
    """
    d = prior.size
    assert d <= 3, "brute force is for at most three states"
    grid = simplex_grid(d, k)
    values = np.array([best_response_value(p, score, v) for p in grid])
    best = -np.inf
    target = np.concatenate([prior, [1.0]])
    for size in range(1, d + 1):
        for combo in itertools.combinations(range(grid.shape[0]), size):
            pts = grid[list(combo)]
            m = np.vstack([pts.T, np.ones(size)])
            sol, residual, rank, _ = np.linalg.lstsq(m, target, rcond=None)
            if np.any(sol < -1e-9):
                continue
            if np.max(np.abs(m @ sol - target)) > 1e-9:
                continue
            best = max(best, float(sol @ values[list(combo)]))
    return best


def two_signal_cap(
    prior: np.ndarray, accept_test, k: int
) -> float:
    """Best acceptance mass from a single accept posterior on the k-grid.

    ``accept_test(mu)`` says whether the receiver accepts at mu.  The
    companion reject signal absorbs the leftover mass, so the accept
    weight is capped componentwise by prior / posterior.
    """
    best = 0.0
    for mu in simplex_grid(prior.size, k):
        if not accept_test(mu):
            continue
        live = mu > 0
        b = min(1.0, float(np.min(prior[live] / mu[live])))
        best = max(best, b)
    return best


def mm1c_occupancy(lam: float, capacity: int) -> np.ndarray:
    """Stationary law of the always-join birth-death chain on {0..capacity}."""
    weights = np.array([lam**n for n in range(capacity + 1)])
    return weights / weights.sum()


def chi_square_stat(observed: np.ndarray, expected: np.ndarray) -> float:
    """Plain chi-square statistic over cells with nonzero expectation."""
    mask = expected > 0
    return float(((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum())


def queue_flow_dense(
    d: int,
    lam: float,
    accept,
    strict_reject,
    blends,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The queue flow LP built densely, one candidate posterior per row.

    ``blends`` lists (reject_state, accept_state, gamma) in column order.
    Join rows are the pure accept states, then the blends; leave rows the
    pure strict-reject states.  Returns (c, A_eq, b_eq, join rows, leave
    rows): row w < d - 1 of A_eq balances the inflow to length w + 1,
    row d - 1 normalizes, blocked arrivals included.
    """
    # Filled in place, one candidate per row: at capacity 1600 v1 alone is 82 MB.
    n1, n0 = len(accept) + len(blends), len(strict_reject)
    v1, v0 = np.zeros((n1, d)), np.zeros((n0, d))
    v1[np.arange(len(accept)), list(accept)] = 1.0
    for k, (w0, w1, gamma) in enumerate(blends, start=len(accept)):
        v1[k, w0] += gamma
        v1[k, w1] += 1.0 - gamma
    v0[np.arange(n0), list(strict_reject)] = 1.0

    a_eq = np.zeros((d, n1 + n0))
    b_eq = np.zeros(d)
    for w in range(d - 1):
        if n1:
            a_eq[w, :n1] = v1[:, w + 1] - lam * v1[:, w]
        if n0:
            a_eq[w, n1:] = v0[:, w + 1]
    if n1:
        a_eq[d - 1, :n1] = 1.0 + lam * v1[:, d - 1]
    if n0:
        a_eq[d - 1, n1:] = 1.0
    b_eq[d - 1] = 1.0
    c = np.concatenate([np.ones(n1), np.zeros(n0)])
    return c, a_eq, b_eq, v1, v0


def gamma_closed_form_scalar(n: int, m: int, tau: float, beta: float) -> float | None:
    """Queue blend weight between lengths n > m, or None where undefined.

    Solves E + beta * sqrt(Var) = tau along gamma * e_n + (1 - gamma) * e_m,
    with E = 1 + m + (n - m) gamma and Var = E + (n - m)^2 gamma (1 - gamma),
    term for term as the library does: the root in its rationalized form
    2 (s^2 - beta^2 (1 + m)) / (S (2 s + beta^2 (S + 1) + beta sqrt(h))), with
    s = tau - 1 - m and S = n - m, and 0 where that is 0 / 0 (beta = 0 and
    s = 0).  None when n <= m, beta < 0, tau lies
    outside [m + 1 + beta sqrt(m + 1) - 1e-9, n + 1 + beta sqrt(n + 1)), or
    the radicand is below -1e-9.
    """
    if n <= m or beta < 0.0:
        return None
    bound_m = m + 1 + beta * math.sqrt(m + 1)
    bound_n = n + 1 + beta * math.sqrt(n + 1)
    if tau < bound_m - 1e-9 or tau >= bound_n:
        return None
    span = n - m
    slack = tau - 1 - m
    h = (
        beta * beta * (span + 1) ** 2
        + 4 * slack * (span + 1)
        + 4 * (1 + beta * beta) * (1 + m)
        - 4 * slack * slack
    )
    if h < -1e-9:
        return None
    h = 0.0 if h < 0.0 else h
    den = span * (2 * slack + beta * beta * (span + 1) + beta * math.sqrt(h))
    if den == 0.0:
        return 0.0
    gamma = 2 * (slack * slack - beta * beta * (1 + m)) / den
    return min(max(gamma, 0.0), 1.0)


def threshold_violations(order, accept, strict_reject, gammas) -> list[str]:
    """Every pairwise fault of a state order against the blend weights.

    A state that is not an accept state may only be followed by
    strict-reject states, and each accept state's blend weight must drop
    strictly (up to 1e-12) from every such state to every later one.
    ``gammas`` maps (reject_state, accept_state) to the blend weight.
    """
    accept_set = set(accept)
    strict_set = set(strict_reject)
    out = []
    for i, wi in enumerate(order):
        if wi in accept_set:
            continue
        for wj in order[i + 1 :]:
            if wj not in strict_set:
                out.append(
                    f"state {wj} follows strict-reject state {wi} "
                    "but is not strict-reject"
                )
                continue
            for wa in accept:
                gi, gj = gammas[(wi, wa)], gammas[(wj, wa)]
                if not gi > gj - 1e-12:
                    out.append(
                        f"blend weight with accept state {wa} fails to "
                        f"drop from state {wi} ({gi:.6g}) to {wj} ({gj:.6g})"
                    )
    return out


def weak_reject_states(instance) -> tuple[int, ...]:
    """Pure states where rejecting is weakly optimal: differential at most 1e-9."""
    eye = np.eye(instance.n_states)
    return tuple(
        w for w, row in enumerate(eye) if float(instance.receiver.differential(row)) <= 1e-9
    )


def join_supports(scheme) -> tuple[tuple[int, ...], ...]:
    """Lengths each Join (action 1) signal puts more than 1e-8 on, in scheme order."""
    return tuple(
        tuple(int(w) for w in np.flatnonzero(s.posterior > 1e-8))
        for s in scheme.signals
        if s.action == 1
    )


def concavify_oracle(instance, grid) -> float:
    """Best sender value from splitting the prior across grid posteriors.

    ``grid`` is anything with a ``points()`` method (a ``GridSpec``) or a
    raw array of beliefs, one per row.  Each candidate belief is scored by
    the sender payoff of the receiver's best response there, ties
    (within 1e-9) broken for the sender; ``linprog`` then finds the best
    mixture of candidates averaging back to the prior.  This LP carries an
    explicit sum-to-one row and goes straight to scipy, so it shares no
    code with the package's LP core.
    """
    pts = grid.points() if hasattr(grid, "points") else np.atleast_2d(
        np.asarray(grid, dtype=float)
    )
    if pts.shape[1] != instance.n_states:
        raise ValueError("grid dimension does not match the instance")
    scores = instance.receiver.score_all(pts)
    ties = scores >= scores.max(axis=1, keepdims=True) - 1e-9
    hat = np.where(ties, pts @ instance.sender.table, -np.inf).max(axis=1)
    res = linprog(
        -hat,
        A_eq=np.vstack([pts.T, np.ones(pts.shape[0])]),
        b_eq=np.concatenate([instance.prior.weights, [1.0]]),
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        raise InfeasibleProgramError("prior is outside the grid's hull")
    assert res.status == 0, f"concavification LP failed with status {res.status}"
    return float(-res.fun)


def full_plan_lp(instance, rows: np.ndarray, actions: np.ndarray) -> tuple[float, np.ndarray]:
    """The plan LP over every candidate at once, straight in scipy.

    Candidate i is the posterior ``rows[i]`` on which the receiver takes
    ``actions[i]``, paying ``rows[i] . v[:, actions[i]]``.  Returns the
    optimum and the joint mass t (actions by states) of the solution: the
    value a column-generation solve must reach, and the plan whose
    off-ideal mass gives the direct solve's full-persuasion verdict.
    """
    c = np.einsum("ij,ji->i", rows, instance.sender.table[:, actions])
    res = linprog(
        -c, A_eq=rows.T, b_eq=instance.prior.weights, bounds=(0, None), method="highs-ds"
    )
    assert res.status == 0, f"full plan LP failed with status {res.status}"
    t = np.zeros((instance.n_actions, instance.n_states))
    np.add.at(t, actions, res.x[:, None] * rows)
    return float(-res.fun), t


@dataclass(frozen=True, eq=False)
class ConvexCombination:
    """Convex weights over rows of a point set reproducing a target.

    ``indices`` refer to rows of the point set the combination was built
    from; ``points`` are those rows copied out so the object stands alone.
    """

    indices: np.ndarray
    weights: np.ndarray
    points: np.ndarray
    target: np.ndarray
    tolerance: float = HULL_TOLERANCE

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0:
            raise ValueError("a convex combination needs at least one atom")
        if w.min() < -ATOM_FLOOR or abs(w.sum() - 1.0) > LP_RESIDUAL:
            raise ValueError("weights must be nonnegative and sum to one")
        err = np.max(np.abs(w @ self.points - self.target))
        if err > self.tolerance:
            raise ValueError(f"combination misses its target by {err:.3e}")

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)


def _membership_lp(target: np.ndarray, points: np.ndarray) -> LinearProgram:
    # min sum of slacks <=> max -(s+ + s-); columns are [lambda, s+, s-].
    n, d = points.shape
    a = np.zeros((d + 1, n + 2 * d))
    a[:d, :n] = points.T
    a[:d, n : n + d] = np.eye(d)
    a[:d, n + d :] = -np.eye(d)
    a[d, :n] = 1.0
    b = np.concatenate([target, [1.0]])
    c = np.zeros(n + 2 * d)
    c[n:] = -1.0
    return LinearProgram(c=c, a_eq=CscMatrix.from_dense(a), b_eq=b)


def hull_membership(
    target: np.ndarray, points: np.ndarray, tol: float = HULL_TOLERANCE
) -> ConvexCombination | None:
    """Test whether target lies in the convex hull of the rows of points.

    Returns a witness combination when some convex mix of rows comes
    within total absolute residual ``tol`` of the target, else None.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    target = np.asarray(target, dtype=float)
    if points.shape[0] == 0:
        return None
    if points.shape[1] != target.size:
        raise ValueError("points and target dimensions disagree")
    try:
        res = solve_lp(_membership_lp(target, points))
    except InfeasibleProgramError:
        return None
    n = points.shape[0]
    slack = -res.value
    if slack > tol:
        return None
    lam = res.x[:n]
    keep = np.nonzero(lam > ATOM_FLOOR)[0]
    if keep.size == 0:
        keep = np.array([int(np.argmax(lam))])
    w = lam[keep] / lam[keep].sum()
    return ConvexCombination(
        indices=keep,
        weights=w,
        points=points[keep],
        target=target,
        tolerance=max(tol, HULL_TOLERANCE),
    )


def full_persuasion_membership(instance, point_sets) -> bool:
    """Full persuasion by hull membership, the reference for the plan-read verdict.

    Each state's sender-preferred action owns a cell of the prior; the
    sender always gets that action exactly when every cell, scaled to a
    posterior, lies in the hull of its action's points.
    """
    ideal = np.argmax(instance.sender.table, axis=1)
    prior = np.asarray(instance.prior.weights, dtype=float)
    for a, pts in enumerate(point_sets):
        cell = prior * (ideal == a)
        if cell.sum() > 0.0 and hull_membership(cell / cell.sum(), pts) is None:
            return False
    return True


class PointOutsideHullError(ValueError):
    """Asked to decompose a point that is not in the hull."""


def _null_direction(points: np.ndarray) -> np.ndarray | None:
    # Nonzero z with points.T @ z = 0 and sum(z) = 0, if one exists.
    m = np.vstack([points.T, np.ones(points.shape[0])])
    ns = scipy.linalg.null_space(m, rcond=1e-12)
    if ns.shape[1] == 0:
        return None
    return ns[:, 0]


def caratheodory_decompose(
    target: np.ndarray, points: np.ndarray, tol: float = HULL_TOLERANCE
) -> ConvexCombination:
    """Write target as a convex combination of at most dim-many rows.

    Raises ``PointOutsideHullError`` when the target is not in the hull.
    The witness from the membership LP is already basic; a null-space
    sweep then strips any residual affine dependence among its atoms, so
    the atom count never exceeds the rank bound (the state count, when
    all rows are beliefs).
    """
    combo = hull_membership(target, points, tol)
    if combo is None:
        raise PointOutsideHullError(
            f"target is outside the hull (tolerance {tol:g})"
        )
    idx = combo.indices.copy()
    w = combo.weights.copy()
    pts = combo.points.copy()
    while True:
        z = _null_direction(pts)
        if z is None:
            break
        # Push along -z until the first weight hits zero; sum(z) = 0 keeps
        # the combination convex and the reconstruction exact.
        if not np.any(z > 1e-14):
            z = -z
        pos = z > 1e-14
        step = np.min(w[pos] / z[pos])
        w = w - step * z
        w = np.where(w < ATOM_FLOOR, 0.0, w)
        keep = w > 0.0
        idx, w, pts = idx[keep], w[keep], pts[keep]
        w = w / w.sum()
    return ConvexCombination(
        indices=idx,
        weights=w,
        points=pts,
        target=target,
        tolerance=max(tol, HULL_TOLERANCE),
    )


# Iteration cap of segment_bisection; 34 steps reach BISECTION_TOLERANCE.
BISECTION_MAX_ITER = 200


class BisectionError(RuntimeError):
    """Bisection hit its iteration cap before reaching the width target."""


def segment_bisection(
    diff,
    outside: np.ndarray,
    inside: np.ndarray,
    tol: float = BISECTION_TOLERANCE,
    max_iter: int = BISECTION_MAX_ITER,
) -> float:
    """Largest mixing weight on ``outside`` keeping the differential >= 0.

    ``diff`` maps a belief vector to the accept-minus-reject score.  The
    segment runs from ``inside`` (diff >= 0) at gamma = 0 to ``outside``
    (diff < 0) at gamma = 1; when the rejection region is convex the sign
    flips exactly once, and the returned gamma sits within ``tol`` below
    the flip with diff(gamma * outside + (1 - gamma) * inside) >= 0.

    Raises ``ValueError`` on wrong endpoint signs and ``BisectionError``
    if the cap is hit before the bracket narrows to ``tol``.
    """
    outside = np.asarray(outside, dtype=float)
    inside = np.asarray(inside, dtype=float)
    if float(diff(inside)) < 0.0:
        raise ValueError("inside endpoint must have nonnegative differential")
    if float(diff(outside)) >= 0.0:
        raise ValueError("outside endpoint must have negative differential")
    lo, hi = 0.0, 1.0
    for _ in range(max_iter):
        if hi - lo <= tol:
            return lo
        mid = 0.5 * (lo + hi)
        point = mid * outside + (1.0 - mid) * inside
        if float(diff(point)) >= 0.0:
            lo = mid
        else:
            hi = mid
    raise BisectionError(
        f"no convergence to width {tol:g} within {max_iter} iterations"
    )


def instance_to_json(instance) -> dict:
    """Serialize an instance back to the JSON schema.

    Custom receivers carry an opaque callable and are rejected.
    """
    if instance.receiver.params is None:
        raise FormatError("receiver.kind", "custom models cannot be written to JSON")
    receiver = {"kind": instance.receiver.kind}
    for key, value in instance.receiver.params.items():
        receiver[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return {
        "states": list(instance.states.labels),
        "actions": list(instance.actions.labels),
        "prior": [float(x) for x in instance.prior.weights],
        "sender_v": [[float(x) for x in row] for row in instance.sender.table],
        "receiver": receiver,
    }


def roundtrip(path: str):
    """Parse a JSON artifact, re-serialize, re-parse; the fixpoint check.

    Detects instance versus scheme documents by their top-level keys.
    Returns the parsed object; raises FormatError when the document does
    not reach a serialization fixpoint after one parse (numbers survive
    via exact float repr, so this only trips on genuine schema drift).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "signals" in data:
        parse, dump = scheme_from_json, scheme_to_json
    else:
        parse, dump = instance_from_json, instance_to_json
    parsed = parse(data)
    first = json.dumps(dump(parsed), sort_keys=True)
    second = json.dumps(dump(parse(json.loads(first))), sort_keys=True)
    if first != second:
        raise FormatError("$", "document does not round-trip to a fixpoint")
    return parsed


def simulate_queue_reference(instance, scheme, events: int, seed: int) -> SimulationResult:
    """One event at a time on the blocked draws ``simulate_queue`` makes.

    Per block of SIM_BLOCK events, ``rng.random`` gives the uniforms and
    then ``rng.standard_exponential`` the exponentials.  At length n an
    event is an arrival when its uniform w is under lam / (lam + 1) (or at
    n = 0); below capacity it gets the signal ``bisect_right`` finds for w
    on the state's join-first CDF row, scaled by that same fraction for
    n > 0, and joins when that signal is a join.  Any other event is a
    departure.  Tallies are kept inline, the stays summed per block as the
    package's ``np.bincount`` sums them.  ``simulate_queue`` must return
    the same result, field for field and bit for bit.
    """
    if events < MIN_HORIZON:
        raise ValueError(f"horizon {events} below the minimum {MIN_HORIZON}")
    d = instance.capacity
    if scheme.prior.size != d:
        raise ValueError("scheme state count does not match the capacity")
    signal_cdf(scheme)  # refuses a state whose signal law is not a law
    lam = instance.arrival_rate
    arrive = lam / (lam + 1.0)
    n_signals = scheme.n_signals
    order = [i for i in range(n_signals) if scheme.signals[i].action == 1]
    n_join = len(order)
    order += [i for i in range(n_signals) if scheme.signals[i].action != 1]
    cum = np.cumsum(scheme.conditional[order], axis=0).T
    cum = cum / cum[:, -1:]
    rows = [cum[0].tolist()] + [(cum[n] * arrive).tolist() for n in range(1, d)]

    rng = np.random.default_rng(seed)
    burn = int(BURN_IN_FRACTION * events)
    n = 0
    signal_counts = [0] * n_signals
    arrival_seen = np.zeros(d + 1, dtype=np.int64)
    occupancy_time = np.zeros(d + 1)
    for start in range(0, events, SIM_BLOCK):
        size = min(SIM_BLOCK, events - start)
        uniforms = rng.random(size).tolist()
        exponentials = rng.standard_exponential(size).tolist()
        block_time = np.zeros(d + 1)
        for event, w, e in zip(range(start, start + size), uniforms, exponentials):
            if event > burn:
                block_time[n] += e / (lam + 1.0 if n > 0 else lam)
            if n > 0 and w >= arrive:
                n -= 1
                continue
            if event >= burn:
                arrival_seen[n] += 1
            if n == d:
                continue
            sig = bisect_right(rows[n], w)
            if event >= burn:
                signal_counts[sig] += 1
            if sig < n_join:
                n += 1
        occupancy_time += block_time

    total_time = float(occupancy_time.sum())
    if total_time > 0:
        occupancy_time = occupancy_time / total_time
    arrivals = int(arrival_seen.sum())
    joins = sum(signal_counts[:n_join])
    by_signal = dict(zip(order, signal_counts))
    return SimulationResult(
        events=events,
        burn_in_events=burn,
        arrivals=arrivals,
        blocked=int(arrival_seen[d]),
        joins=joins,
        leaves=sum(signal_counts[n_join:]),
        join_rate=joins / arrivals if arrivals else 0.0,
        signal_counts={s.label: by_signal[i] for i, s in enumerate(scheme.signals)},
        arrival_seen=arrival_seen,
        occupancy_time=occupancy_time,
        total_time=total_time,
    )


def simulate_queue_reference_events(instance, scheme, events: int, seed: int) -> SimulationResult:
    """The event-race loop of earlier versions, on numpy state: the law to keep.

    Each arrival and each departure has a clock, the earlier one fires,
    each signal is a ``np.searchsorted`` on the state's CDF row, each gap an
    ``rng.exponential`` call, and the tallies live in numpy arrays.  Its
    draws are not ``simulate_queue``'s, but its process is: the two must
    agree in law, not in bits.
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
                arrival_seen[n] += 1
            if n >= d:
                continue
            sig = int(np.searchsorted(cdf[n], rng.random(), side="left"))
            sig = min(sig, n_signals - 1)
            if counting:
                signal_counts[sig] += 1
            if join_action[sig]:
                n += 1
                if n == 1:
                    next_departure = t + rng.exponential(1.0)
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
    arrivals = int(arrival_seen.sum())
    joins = int(signal_counts[join_action].sum())
    return SimulationResult(
        events=events,
        burn_in_events=burn,
        arrivals=arrivals,
        blocked=int(arrival_seen[d]),
        joins=joins,
        leaves=int(signal_counts[~join_action].sum()),
        join_rate=joins / arrivals if arrivals else 0.0,
        signal_counts={
            scheme.signals[i].label: int(signal_counts[i]) for i in range(n_signals)
        },
        arrival_seen=arrival_seen,
        occupancy_time=occupancy_time,
        total_time=total_time,
    )


def sample_scheme_batch_reference(scheme, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n iid (state, signal) draws, the signals looked up one state mask at a time.

    Scans all n draws once per state; ``sample_scheme_batch`` must return
    the same two arrays.
    """
    rng = np.random.default_rng(seed)
    d = scheme.prior.size
    states = rng.choice(d, size=n, p=scheme.prior / scheme.prior.sum())
    cum = signal_cdf(scheme)
    u = rng.random(n)
    signals = np.empty(n, dtype=np.int64)
    for w in range(d):
        mask = states == w
        if mask.any():
            signals[mask] = np.searchsorted(cum[w], u[mask], side="left")
    return states, np.minimum(signals, scheme.n_signals - 1)


def baseline_values_reference(instance) -> tuple[float, float, int]:
    """(no_info, full_info, no_info_action): one best response per pure state.

    Full information adds each state's prior times the sender's payoff at
    the receiver's sender-preferred best response there, state by state.
    """
    prior = instance.prior.weights
    action = best_response(instance, prior)
    full_info = 0.0
    for w, point in enumerate(np.eye(instance.n_states)):
        full_info += prior[w] * instance.sender.table[w, best_response(instance, point)]
    return instance.sender.value(prior, action), float(full_info), action


def coalesce_reference(plan, instance) -> list[list]:
    """Plan atoms merged into ``[posterior, weight, action, label]`` signal rows.

    Each atom of positive weight is compared with the rows so far, one at a
    time, and joins the first whose posterior is within POSTERIOR_TOLERANCE
    in every entry; the row keeps its first posterior, adds the weight, and
    takes the atom's action and label when it pays the sender strictly more.
    """
    merged: list[list] = []
    for atom in plan.atoms:
        if atom.weight <= 0.0:
            continue
        for row in merged:
            if np.max(np.abs(row[0] - atom.posterior)) <= POSTERIOR_TOLERANCE:
                row[1] += atom.weight
                if atom.action != row[2] and instance.sender.value(
                    atom.posterior, atom.action
                ) > instance.sender.value(row[0], row[2]):
                    row[2], row[3] = atom.action, atom.label
                break
        else:
            merged.append([np.asarray(atom.posterior, dtype=float), atom.weight, atom.action, atom.label])
    return merged
