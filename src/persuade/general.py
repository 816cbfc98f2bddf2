"""Grid-relaxation solver for any finite action set and receiver model.

Without structure on the receiver there is no finite exact vertex set, so
the per-action belief regions are approximated by the rational grid
{x / k : x nonnegative integers summing to k}.  The sender's problem over
those candidate posteriors is an LP; refining k tightens the answer from
below.  Callers holding exact boundary points (blend vertices, polytope
corners) can union them in to recover exact optima on a coarse grid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .geometry import (
    ATOM_FLOOR,
    InfeasibleProgramError,
    LinearProgram,
    solve_lp,
)
from .model import (
    PLAN_MASS_TOLERANCE,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    _tied,
    best_response,
)

# Hard cap on grid size; beyond this the enumeration is refused.
CANDIDATE_CAP = 2_000_000
# Strict-benefit verdicts require at least this much value over no info.
BENEFIT_MARGIN = 1e-7
# Round-off in expected_region_vertices: a solved corner may break a
# constraint by this much, and corners this close in max norm are one.
VERTEX_TOLERANCE = 1e-9

__all__ = [
    "CANDIDATE_CAP",
    "BENEFIT_MARGIN",
    "GridSpec",
    "BaselineValues",
    "BenefitReport",
    "default_grid_k",
    "grid_vertices",
    "plan_from_candidates",
    "solve_general",
    "baseline_values",
    "benefit_check",
    "full_persuasion",
    "expected_region_vertices",
]


def default_grid_k(n_states: int) -> int:
    """Grid denominator giving a workable candidate count per state count."""
    if n_states <= 4:
        return 24
    if n_states <= 6:
        return 8
    return 4


@dataclass(frozen=True)
class GridSpec:
    """Rational belief grid with denominator k over dim states."""

    k: int
    dim: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid denominator must be at least 1")
        if self.dim < 1:
            raise ValueError("grid dimension must be at least 1")
        if self.n_points > CANDIDATE_CAP:
            raise ValueError(
                f"grid would hold {self.n_points} candidates, "
                f"over the cap of {CANDIDATE_CAP}"
            )

    @property
    def n_points(self) -> int:
        return comb(self.k + self.dim - 1, self.dim - 1)

    def points(self) -> np.ndarray:
        """All grid beliefs, one per row, in lexicographic order."""
        k, d = self.k, self.dim
        if d == 1:
            return np.ones((1, 1))
        bars = np.array(
            list(itertools.combinations(range(k + d - 1), d - 1)), dtype=np.int64
        )
        ext = np.hstack(
            [
                np.full((bars.shape[0], 1), -1, dtype=np.int64),
                bars,
                np.full((bars.shape[0], 1), k + d - 1, dtype=np.int64),
            ]
        )
        counts = np.diff(ext, axis=1) - 1
        return counts.astype(float) / float(k)


def grid_vertices(
    instance: PersuasionInstance,
    action: int,
    grid: GridSpec,
    extra: np.ndarray | None = None,
) -> np.ndarray:
    """Grid beliefs at which the action is a (possibly tied) best response.

    ``extra`` rows are appended untested; they are for exact boundary
    points the caller already certified.
    """
    if action < 0 or action >= instance.n_actions:
        raise ValueError(f"action index {action} out of range")
    if grid.dim != instance.n_states:
        raise ValueError("grid dimension does not match the instance")
    pts = grid.points()
    chosen = pts[_tied(instance.receiver.score_all(pts))[:, action]]
    if extra is not None and len(extra):
        extra = np.atleast_2d(np.asarray(extra, dtype=float))
        if extra.shape[1] != instance.n_states:
            raise ValueError("extra points have the wrong dimension")
        chosen = np.vstack([chosen, extra]) if chosen.size else extra
    return chosen


def plan_from_candidates(
    instance: PersuasionInstance,
    rows: np.ndarray,
    actions: np.ndarray,
    label: Callable[[int], str | None] | None = None,
) -> OptimalPlan:
    """Optimal plan over candidate posteriors: the LP every fixed-prior solver shares.

    Row i of ``rows`` is a candidate posterior on which the receiver takes
    ``actions[i]``.  The LP puts nonnegative mass x on the candidates to
    maximize sum_i x_i * rows[i] . v[:, actions[i]] subject to
    sum_i x_i * rows[i] = prior, with one column per candidate in the
    caller's order; a basic solution keeps the atom count at or below the
    state count.  Masses at or below ATOM_FLOOR are dropped, and
    ``label(i)`` names the atom of each kept candidate i.
    """
    if rows.shape[0] == 0:
        raise InfeasibleProgramError("no candidate posteriors: all point sets are empty")
    v = instance.sender.table
    c = np.empty(rows.shape[0])
    for a in np.unique(actions):
        mask = actions == a
        c[mask] = rows[mask] @ v[:, a]
    res = solve_lp(LinearProgram(c=c, a_eq=rows.T, b_eq=instance.prior.weights))
    if res.status != "optimal":
        raise InfeasibleProgramError(
            f"prior cannot be split across the candidate posteriors (LP is {res.status})"
        )
    t = np.zeros((instance.n_actions, instance.n_states))
    atoms = []
    for i in np.nonzero(res.x > ATOM_FLOOR)[0]:
        action, weight = int(actions[i]), float(res.x[i])
        t[action] += weight * rows[i]
        atoms.append(
            PlanAtom(
                action=action,
                posterior=rows[i].copy(),
                weight=weight,
                label=label(i) if label is not None else None,
            )
        )
    plan = OptimalPlan(
        t=t,
        prior=np.asarray(instance.prior.weights, dtype=float),
        value=float(res.value),
        atoms=tuple(atoms),
    )
    plan.check()
    return plan


def solve_general(
    instance: PersuasionInstance, point_sets: list[np.ndarray]
) -> OptimalPlan:
    """Optimal plan when each action's posteriors come from a fixed set.

    ``point_sets[a]`` holds the candidate posteriors (rows) on which the
    receiver takes action a; they are stacked in action order and handed
    to ``plan_from_candidates``.
    """
    if len(point_sets) != instance.n_actions:
        raise ValueError("need one point set per action")
    d = instance.n_states
    sets = []
    for a, pts in enumerate(point_sets):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.size and pts.shape[1] != d:
            raise ValueError(f"point set for action {a} has the wrong dimension")
        sets.append(pts.reshape(-1, d))
    actions = np.repeat(np.arange(instance.n_actions), [s.shape[0] for s in sets])
    return plan_from_candidates(instance, np.vstack(sets), actions)


@dataclass(frozen=True)
class BaselineValues:
    """Sender value with no disclosure and with full disclosure."""

    no_info: float
    full_info: float
    no_info_action: int


def baseline_values(instance: PersuasionInstance) -> BaselineValues:
    """Sender payoffs when the receiver best-responds to the prior (no
    information) or to each pure state (full information)."""
    prior = instance.prior.weights
    action = best_response(instance, prior)
    full_info = 0.0
    for w, point in enumerate(np.eye(instance.n_states)):
        full_info += prior[w] * instance.sender.table[w, best_response(instance, point)]
    return BaselineValues(
        no_info=instance.sender.value(prior, action),
        full_info=float(full_info),
        no_info_action=action,
    )


@dataclass(frozen=True, eq=False)
class BenefitReport:
    """Does optimal disclosure strictly beat saying nothing?

    The certificate is the belief (from the candidate sets) and action
    with the largest sender gain over the no-information action; its sign
    certifies the verdict independently of the solved value.  ``no_info``
    and ``full_info`` are the two baselines of ``baseline_values``.
    """

    strictly_beneficial: bool
    value: float
    no_info: float
    full_info: float
    margin: float
    certificate_action: int
    certificate_point: np.ndarray
    certificate_gain: float


def benefit_check(
    instance: PersuasionInstance,
    plan: OptimalPlan,
    point_sets: list[np.ndarray],
) -> BenefitReport:
    """Compare a solved plan against no disclosure.

    ``point_sets[a]`` are the candidate certificate points of action a.
    """
    base = baseline_values(instance)
    margin = plan.value - base.no_info
    v = instance.sender.table
    a_star = base.no_info_action
    best_gain = -np.inf
    best_action = a_star
    best_point = np.asarray(instance.prior.weights, dtype=float)
    for a, pts in enumerate(point_sets):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.size == 0:
            continue
        gains = pts @ (v[:, a] - v[:, a_star])
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_action = a
            best_point = pts[i]
    return BenefitReport(
        strictly_beneficial=bool(margin > BENEFIT_MARGIN),
        value=float(plan.value),
        no_info=base.no_info,
        full_info=base.full_info,
        margin=float(margin),
        certificate_action=best_action,
        certificate_point=best_point,
        certificate_gain=best_gain,
    )


def full_persuasion(instance: PersuasionInstance, plan: OptimalPlan) -> bool:
    """Whether the solved plan gets the sender its pointwise-best action everywhere.

    The sender-preferred action must be unique in every state (a tie makes
    the question ill-posed and raises).  Each unit of joint mass off that
    ideal action then costs the plan a positive amount of value, so an
    optimal plan reaches the full-information ideal exactly when it puts
    no mass off the ideal action, that is, when each ideal action's cell
    of the prior lies in the hull of that action's candidates.  Off-ideal
    mass at or below PLAN_MASS_TOLERANCE, the precision to which a plan's
    joint mass is checked against the prior, counts as none.
    """
    v = instance.sender.table
    if instance.n_actions > 1:
        top = np.sort(v, axis=1)
        if np.any(top[:, -1] - top[:, -2] <= 0.0):
            raise ValueError("sender-preferred action is not unique in some state")
    off_ideal = np.arange(instance.n_actions)[:, None] != np.argmax(v, axis=1)
    return bool(plan.t[off_ideal].sum() <= PLAN_MASS_TOLERANCE)


def expected_region_vertices(
    instance: PersuasionInstance, action: int
) -> np.ndarray:
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
