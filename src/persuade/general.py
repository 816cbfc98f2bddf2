"""Fixed-prior solvers for any finite action set.

An expected-utility receiver keeps the revelation principle, so its
optimum is the obedience LP over joint masses (``solve_obedience``),
exact for any number of actions.  Other receivers have no finite exact
vertex set, so the per-action belief regions are approximated by the
rational grid {x / k : x nonnegative integers summing to k}.  The
sender's problem over those candidate posteriors is an LP; refining k
tightens the answer from below.  Callers holding exact boundary points
can add them to the point sets ``solve_general`` takes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

from .geometry import CscMatrix, InfeasibleProgramError, LinearProgram, solve_by_columns, solve_lp
from .model import (
    PLAN_MASS_TOLERANCE,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    _tall_matmul,
    _tied,
    best_response,
)

# Hard cap on grid size; beyond this the enumeration is refused.
CANDIDATE_CAP = 2_000_000
# Strict-benefit verdicts require at least this much value over no info, a
# hundred times CERTIFICATE_TOLERANCE: a smaller margin may be the solver's.
BENEFIT_MARGIN = 1e-7
# Sender payoffs this close tie, so a state's preferred action is unique only
# past it; solve_binary takes action-1 payoffs up to it below action 0's.
# Payoffs are data, so only their round-off, ulps of order-one values, ties.
SENDER_PREFERENCE_SLACK = 1e-12

__all__ = [
    "CANDIDATE_CAP",
    "BENEFIT_MARGIN",
    "GridSpec",
    "BaselineValues",
    "BenefitReport",
    "default_grid_k",
    "grid_point_sets",
    "plan_from_candidates",
    "solve_general",
    "solve_obedience",
    "baseline_values",
    "benefit_check",
    "full_persuasion",
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
        bars = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(k + d - 1), d - 1)),
            np.int64,
            count=self.n_points * (d - 1),
        ).reshape(-1, d - 1)
        counts = np.diff(bars, axis=1, prepend=-1, append=k + d - 1) - 1
        return counts.astype(float) / float(k)


def grid_point_sets(instance: PersuasionInstance, grid: GridSpec) -> list[np.ndarray]:
    """Each action's grid beliefs at which it is a (possibly tied) best response.

    The grid is enumerated and scored once for all actions; set a keeps
    the grid's lexicographic order.
    """
    if grid.dim != instance.n_states:
        raise ValueError("grid dimension does not match the instance")
    pts = grid.points()
    tied = _tied(instance.receiver.score_all(pts))
    return [pts[tied[:, a]] for a in range(instance.n_actions)]


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
    state count.  Each candidate of positive mass is an atom (``solve_lp``
    has floored the masses), and ``label(i)`` names the atom of candidate i.

    ``solve_by_columns`` solves it: a large program starts from one pure
    state per state, the best-paying candidate there, and every program's
    optimum is certified by its duals.
    """
    if rows.shape[0] == 0:
        raise InfeasibleProgramError("no candidate posteriors: all point sets are empty")
    v = instance.sender.table
    c = np.empty(rows.shape[0])
    for a in np.unique(actions):
        mask = actions == a
        c[mask] = _tall_matmul(rows[mask], v[:, a])
    lp = LinearProgram(c=c, a_eq=CscMatrix.from_dense(rows.T), b_eq=instance.prior.weights)
    res = solve_by_columns(lp, _pure_seed(rows, c))
    t = np.zeros((instance.n_actions, instance.n_states))
    atoms = []
    for i in np.nonzero(res.x)[0]:
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


def _pure_seed(rows: np.ndarray, c: np.ndarray) -> np.ndarray | None:
    """The best-paying pure-state candidate of each state, or None if a state has none."""
    pure = np.nonzero((rows.max(axis=1) == 1.0) & (np.count_nonzero(rows, axis=1) == 1))[0]
    state = rows[pure].argmax(axis=1)
    order = np.lexsort((-c[pure], state))
    states, first = np.unique(state[order], return_index=True)
    return pure[order[first]] if states.size == rows.shape[1] else None


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


def solve_obedience(instance: PersuasionInstance) -> OptimalPlan:
    """Exact optimal plan for an expected-utility receiver: the obedience LP.

    A linear receiver keeps the revelation principle, so the optimum
    recommends actions the receiver obeys (Bergemann & Morris 2016): it
    maximizes sum t(a, w) v(w, a) over joint masses t >= 0 and slacks
    s(a, b) >= 0, a != b, with sum_a t(a, w) = prior(w) and
    sum_w t(a, w) (u(w, a) - u(w, b)) - s(a, b) = 0.  ``solve_lp`` solves
    it directly and certifies it.  The plan's t is the LP's, with
    one atom at t[a] / sum(t[a]) per action of positive mass.
    """
    if instance.receiver.kind != "expected":
        raise ValueError("the obedience LP needs an expected-utility receiver")
    u = instance.receiver.params["u"]
    d, n = u.shape
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    obey = np.zeros((len(pairs), n * d))
    for i, (a, b) in enumerate(pairs):
        obey[i, a * d : (a + 1) * d] = u[:, a] - u[:, b]
    lp = LinearProgram(
        c=np.concatenate([instance.sender.table.T.ravel(), np.zeros(len(pairs))]),
        a_eq=CscMatrix.from_dense(
            np.block([[np.tile(np.eye(d), n), np.zeros((d, len(pairs)))], [obey, -np.eye(len(pairs))]])
        ),
        b_eq=np.concatenate([instance.prior.weights, np.zeros(len(pairs))]),
    )
    res = solve_lp(lp)
    t = res.x[: n * d].reshape(n, d)
    mass = t.sum(axis=1)
    atoms = tuple(
        PlanAtom(action=a, posterior=t[a] / mass[a], weight=float(mass[a]))
        for a in np.nonzero(mass)[0].tolist()
    )
    plan = OptimalPlan(t=t, prior=instance.prior.weights, value=float(res.value), atoms=atoms)
    plan.check()
    return plan


@dataclass(frozen=True)
class BaselineValues:
    """Sender value with no disclosure and with full disclosure."""

    no_info: float
    full_info: float
    no_info_action: int


def baseline_values(instance: PersuasionInstance) -> BaselineValues:
    """Sender payoffs when the receiver best-responds to the prior (no
    information) or to each pure state (full information).  One block picks
    at the pure states, and their payoffs add up from 0.0 in state order."""
    prior, table = instance.prior.weights, instance.sender.table
    action = best_response(instance, prior)
    pure = best_response(instance, np.eye(prior.size))
    return BaselineValues(
        no_info=instance.sender.value(prior, action),
        full_info=0.0 + float(np.cumsum(prior * table[np.arange(prior.size), pure])[-1]),
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
        gains = _tall_matmul(pts, v[:, a] - v[:, a_star])
        i = int(np.argmax(gains))
        if gains[i] > best_gain:
            best_gain = float(gains[i])
            best_action = a
            best_point = pts[i]
    return BenefitReport(
        strictly_beneficial=bool(margin > BENEFIT_MARGIN),
        no_info=base.no_info,
        full_info=base.full_info,
        margin=float(margin),
        certificate_action=best_action,
        certificate_point=best_point,
        certificate_gain=best_gain,
    )


def _ideal_action_tied(instance: PersuasionInstance) -> bool:
    """Whether some state's top two sender payoffs lie within SENDER_PREFERENCE_SLACK."""
    top = np.sort(instance.sender.table, axis=1)
    return top.shape[1] > 1 and bool(np.any(top[:, -1] - top[:, -2] <= SENDER_PREFERENCE_SLACK))


def full_persuasion(instance: PersuasionInstance, plan: OptimalPlan) -> bool | None:
    """Whether the solved plan gets the sender its pointwise-best action everywhere.

    None when some state's sender-preferred action is tied (within
    SENDER_PREFERENCE_SLACK): the ideal action is then not unique and the
    question is ill-posed.  Otherwise each unit of joint mass off that
    ideal action costs the plan a positive amount of value, so an
    optimal plan reaches the full-information ideal exactly when it puts
    no mass off the ideal action, that is, when each ideal action's cell
    of the prior lies in the hull of that action's candidates.  Off-ideal
    mass at or below PLAN_MASS_TOLERANCE, the precision to which a plan's
    joint mass is checked against the prior, counts as none.
    """
    if _ideal_action_tied(instance):
        return None
    off_ideal = np.arange(instance.n_actions)[:, None] != np.argmax(instance.sender.table, axis=1)
    return bool(plan.t[off_ideal].sum() <= PLAN_MASS_TOLERANCE)
