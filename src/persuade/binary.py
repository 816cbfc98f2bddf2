"""Exact solver for binary-action disclosure with a convex rejection region.

When the receiver picks between a fallback (action 0) and the action the
sender wants (action 1), and the set of beliefs strictly preferring the
fallback is convex, the acceptance region's hull is spanned by finitely
many vertices: the pure states where acceptance is weakly optimal, plus
one boundary blend per (strict-reject state, accept state) pair.  The
sender's problem then collapses to a small LP over those vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .general import SENDER_PREFERENCE_SLACK, plan_from_candidates
from .model import PLAN_MASS_TOLERANCE, TIE_TOLERANCE, OptimalPlan, PersuasionInstance, _dense_rows

# Boundary blends, and the sandwich audit's Joins, sit on the indifference
# surface this tightly: a bisected edge's last bracket times a slope of up to
# 1e3.  The built-in kinds' edge roots land far closer: over 5,760 seeded
# mean_stdev, maximin and cvar instances (d 8-40, 741,676 edges), at most
# 6.1e-16, 3.3e-16 and 1.9e-13 off.
BOUNDARY_TOLERANCE = 1e-7
# Edge bisection, for the pairs no closed form serves (custom models, a CVaR
# edge whose reject end has no tail mass, a queue pair gamma_closed_form leaves
# NaN), halves a bracket of width one until it is at most this wide: 34 steps
# (2**-34 <= 1e-10 < 2**-33), a thousandth of BOUNDARY_TOLERANCE.
BISECTION_TOLERANCE = 1e-10
# Random midpoint pairs drawn when spot-checking a convexity declaration.
SPOT_CHECK_PAIRS = 64
# verify_threshold's slack on the strict drop of blend weights along the order;
# on 163 queues at capacity 1600 the smallest real drop was 1.2e-10.
MONOTONE_SLACK = 1e-12

__all__ = [
    "BOUNDARY_TOLERANCE",
    "BISECTION_TOLERANCE",
    "StateClassification",
    "HullCandidates",
    "ThresholdReport",
    "classify_states",
    "compute_k01",
    "hull_candidates",
    "binary_precondition_error",
    "solve_binary",
    "verify_threshold",
]


@dataclass(frozen=True, eq=False)
class StateClassification:
    """Pure states sorted by the sign of their accept-reject differential.

    ``accept`` holds states where accepting is weakly optimal (diff >=
    -TIE_TOLERANCE, the receiver's one tie rule), and ``strict_reject``
    the others, where rejecting is strictly better.
    """

    accept: tuple[int, ...]
    strict_reject: tuple[int, ...]
    differentials: np.ndarray


def classify_states(instance: PersuasionInstance) -> StateClassification:
    """Split pure states by accept or strict reject; the differential refuses non-binary models."""
    d = instance.n_states
    diffs = instance.receiver.differential_slots(np.arange(d)[:, None], np.ones((d, 1)))
    accept = tuple(int(w) for w in np.nonzero(diffs >= -TIE_TOLERANCE)[0])
    strict = tuple(int(w) for w in np.nonzero(diffs < -TIE_TOLERANCE)[0])
    return StateClassification(accept=accept, strict_reject=strict, differentials=diffs)


def _blend_pairs(classification: StateClassification) -> np.ndarray:
    """(strict-reject, accept) state pairs, one per row, reject states outer."""
    strict = np.asarray(classification.strict_reject, dtype=np.intp)
    accept = np.asarray(classification.accept, dtype=np.intp)
    return np.column_stack([np.repeat(strict, accept.size), np.tile(accept, strict.size)])


def compute_k01(
    instance: PersuasionInstance, classification: StateClassification | None = None
) -> np.ndarray:
    """Boundary blend weights for every (strict-reject, accept) state pair.

    Entry i * |accept| + j blends the i-th strict-reject state r into the
    j-th accept state a: the largest gamma keeping acceptance weakly optimal
    at gamma * e_r + (1 - gamma) * e_a, and 0 when a sits on the boundary.
    An accept state within TIE_TOLERANCE only blends at 0.  Every other
    pair goes to the model's ``edge_root`` in one call; the pairs it leaves
    NaN, and every pair of a model with no root, are bisected along their
    edges, all together.  Every blend with gamma > 0 is then checked to lie
    on the indifference surface within BOUNDARY_TOLERANCE, the first miss in
    pair order raising ValueError; at gamma 0 a blend is its accept state,
    where the differential may jump.  A non-binary model is refused
    (ValueError) by its differential, which the boundary check calls even
    with no blends, so with no pairs too.
    """
    if classification is None:
        classification = classify_states(instance)
    model = instance.receiver
    diff = model.differential_slots
    pairs = _blend_pairs(classification)
    # Tolerance-only accept states sit a hair under zero; their blends
    # collapse onto the accept vertex.
    gamma = np.where(classification.differentials[pairs[:, 1]] < 0.0, 0.0, np.nan)
    todo = np.nonzero(np.isnan(gamma))[0]
    if model.edge_root is not None:
        gamma[todo] = model.edge_root(pairs[todo, 0], pairs[todo, 1])
        todo = todo[np.isnan(gamma[todo])]
    lo, hi, width = np.zeros(todo.size), np.ones(todo.size), 1.0
    while todo.size and width > BISECTION_TOLERANCE:
        mid = 0.5 * (lo + hi)
        mid_rows = np.column_stack([mid, 1.0 - mid])
        accepts = diff(pairs[todo], mid_rows) >= 0.0
        lo, hi = np.where(accepts, mid, lo), np.where(accepts, hi, mid)
        width *= 0.5
    gamma[todo] = lo
    gamma = np.clip(gamma, 0.0, 1.0)
    blends = np.nonzero(gamma > 0.0)[0]
    weights = np.column_stack([gamma[blends], 1.0 - gamma[blends]])
    boundary = diff(pairs[blends], weights)
    missed = np.nonzero(np.abs(boundary) > BOUNDARY_TOLERANCE)[0]
    if missed.size:
        w0, w1 = pairs[blends[missed[0]]]
        raise ValueError(
            f"blend of states {w0},{w1} misses the boundary: "
            f"differential {boundary[missed[0]]:.3e}"
        )
    return gamma


@dataclass(frozen=True, eq=False)
class HullCandidates:
    """The binary acceptance hull's candidate posteriors, in LP column order.

    Pure accept states, then the k01 blends in ``compute_k01``'s pair
    order, then the pure strict-reject states; the first ``n_accept``
    recommend action 1, the rest action 0.  Candidate i is held as two
    (state, weight) slots, a pure state as (w, w) with weights (1, 0);
    ``rows`` makes dense posteriors on request.
    """

    classification: StateClassification
    states: np.ndarray
    weights: np.ndarray
    state_labels: tuple[str, ...]

    @property
    def n_accept(self) -> int:
        cls = self.classification
        return len(cls.accept) * (1 + len(cls.strict_reject))

    @property
    def gamma(self) -> np.ndarray:
        """Blend weights as a (strict-reject, accept) view of ``weights``."""
        cls = self.classification
        blends = self.weights[len(cls.accept) : self.n_accept, 0]
        return blends.reshape(len(cls.strict_reject), len(cls.accept))

    @property
    def actions(self) -> np.ndarray:
        return (np.arange(self.states.shape[0]) < self.n_accept).astype(np.intp)

    def rows(self, index=slice(None)) -> np.ndarray:
        """Dense posteriors of the selected candidates, one per row."""
        return _dense_rows(
            len(self.state_labels), self.states[index], self.weights[index]
        )

    def point_sets(self) -> list[np.ndarray]:
        """Dense candidate rows per action: [strict-reject states, accept side]."""
        return [self.rows(slice(self.n_accept, None)), self.rows(slice(self.n_accept))]

    def label(self, i: int) -> str:
        """A pure state's own label, or ``mix(reject,accept,gamma)`` for a blend."""
        s0, s1 = self.states[i]
        names = self.state_labels
        if s0 == s1:
            return names[s0]
        return f"mix({names[s0]},{names[s1]},{self.weights[i, 0]:.6g})"


def hull_candidates(
    instance: PersuasionInstance, classification: StateClassification | None = None
) -> HullCandidates:
    """List the hull candidates: classify the states (unless given), then compute the k01 blends."""
    if classification is None:
        classification = classify_states(instance)
    gamma = compute_k01(instance, classification)
    accept = np.asarray(classification.accept, dtype=np.intp)
    strict = np.asarray(classification.strict_reject, dtype=np.intp)
    states = np.concatenate(
        [np.c_[accept, accept], _blend_pairs(classification), np.c_[strict, strict]]
    )
    weights = np.zeros(states.shape)
    weights[:, 0] = 1.0
    weights[accept.size : accept.size + gamma.size] = np.column_stack([gamma, 1.0 - gamma])
    return HullCandidates(
        classification=classification,
        states=states,
        weights=weights,
        state_labels=instance.states.labels,
    )


def binary_precondition_error(instance: PersuasionInstance) -> str | None:
    """Why ``solve_binary`` refuses the instance, or None when it takes it.

    The random spot check of the convexity declaration is not part of
    this; ``solve_binary`` runs it after.
    """
    if instance.n_actions != 2:
        return "this solver handles exactly two actions"
    if not instance.receiver.convex_reject_region:
        return "solve_binary needs a receiver declaring convex_reject_region"
    v = instance.sender.table
    if np.any(v[:, 1] < v[:, 0] - SENDER_PREFERENCE_SLACK):
        return "sender must weakly prefer action 1 in every state"
    return None


def _spot_check_convexity(instance: PersuasionInstance) -> None:
    # The caller declared the strict-reject belief region convex; probe
    # random midpoints of rejecting pairs before leaning on the claim.
    rng = np.random.default_rng(0)
    d = instance.n_states
    samples = rng.dirichlet(np.ones(d), size=4 * SPOT_CHECK_PAIRS)
    diffs = np.asarray(instance.receiver.differential(samples), dtype=float)
    negative = samples[diffs < 0.0]
    if negative.shape[0] < 2:
        return
    left = negative[rng.integers(0, negative.shape[0], size=SPOT_CHECK_PAIRS)]
    right = negative[rng.integers(0, negative.shape[0], size=SPOT_CHECK_PAIRS)]
    mids = 0.5 * (left + right)
    mid_diffs = np.asarray(instance.receiver.differential(mids), dtype=float)
    worst = float(mid_diffs.max())
    if worst > BOUNDARY_TOLERANCE:
        raise ValueError(
            "receiver declares a convex rejection region, but a midpoint of "
            f"two rejecting beliefs accepts (differential {worst:.3e})"
        )


def solve_binary(
    instance: PersuasionInstance,
    candidates: HullCandidates | None = None,
) -> OptimalPlan:
    """Optimal disclosure plan via the acceptance-hull LP.

    Requires what ``binary_precondition_error`` checks, and spot-checks
    the receiver's convexity claim on random midpoints.  The LP splits the
    prior over the hull candidates (built from the instance when not given).
    """
    reason = binary_precondition_error(instance)
    if reason is not None:
        raise ValueError(reason)
    _spot_check_convexity(instance)
    if candidates is None:
        candidates = hull_candidates(instance)
    return plan_from_candidates(
        instance, candidates.rows(), candidates.actions, candidates.label
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of verify_threshold.

    ``holds`` says the accept mass uses an order-respecting cutoff:
    every state before the threshold is fully accepted, every one after
    contributes nothing.  ``threshold_state`` is the first state not
    fully accepted (None when all are).  ``monotone_ok`` is the verdict
    of the blend-weight audit of the order.
    """

    holds: bool
    threshold_state: int | None
    monotone_ok: bool


def verify_threshold(
    plan: OptimalPlan, order: list[int], candidates: HullCandidates
) -> ThresholdReport:
    """Check that a plan's accept mass is a cutoff in the given state order.

    ``order`` lists all states from most to least acceptable.  Joint mass
    within PLAN_MASS_TOLERANCE of zero, or of the state's prior, counts as
    none, or as all of it.  The order itself is audited against the hull
    candidates' blend weights ``candidates.gamma``: a state may only
    precede another if it is an accept state, or both are strict-reject
    states and every accept state blends with the earlier one at a
    strictly larger weight (up to MONOTONE_SLACK) than with the later one.
    """
    d = plan.t.shape[1]
    if sorted(order) != list(range(d)):
        raise ValueError("order must be a permutation of the state indices")
    t1 = plan.t[1]
    prior = plan.prior
    nonzero = [p for p, w in enumerate(order) if t1[w] > PLAN_MASS_TOLERANCE]
    nonfull = [p for p, w in enumerate(order) if t1[w] < prior[w] - PLAN_MASS_TOLERANCE]
    holds = (not nonzero) or (not nonfull) or max(nonzero) <= min(nonfull)
    return ThresholdReport(
        holds=bool(holds),
        threshold_state=order[min(nonfull)] if nonfull else None,
        monotone_ok=_monotone_order(order, candidates),
    )


def _monotone_order(order: list[int], candidates: HullCandidates) -> bool:
    """Whether the order passes verify_threshold's blend-weight audit.

    Each state is accept or strict-reject, as ``classify_states`` makes
    them.  The order fails when a strict-reject state comes before an
    accept state, or when a strict-reject state's blend weight with some
    accept state is not above the largest later one minus MONOTONE_SLACK:
    suffix maxima along the order, O(d * |accept|).  A NaN weight fails
    every comparison, the maxima included.
    """
    cls = candidates.classification
    order = np.asarray(order, dtype=np.intp)
    accept = np.isin(order, cls.accept)
    row = np.zeros(order.size, dtype=np.intp)
    row[list(cls.strict_reject)] = np.arange(len(cls.strict_reject))
    g = candidates.gamma[row[order[~accept]]]
    later_max = np.maximum.accumulate(g[::-1], axis=0)[::-1]
    return not np.any(~accept[:-1] & accept[1:]) and bool(
        np.all(g[:-1] > later_max[1:] - MONOTONE_SLACK)
    )
