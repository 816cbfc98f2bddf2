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

from .general import plan_from_candidates
from .geometry import hull_membership
from .model import OptimalPlan, PersuasionInstance, _dense_rows

# States classify as accept/reject when the pure-state differential clears
# zero by at least minus this.
CLASSIFY_TOLERANCE = 1e-9
# Boundary blends must sit on the indifference surface this tightly.
BOUNDARY_TOLERANCE = 1e-7
# Edge bisection halves a bracket of width one until it is at most this
# wide: 34 steps, since 2**-34 <= 1e-10 < 2**-33.
BISECTION_TOLERANCE = 1e-10
# Joint-mass threshold below which verify_threshold treats entries as zero.
THRESHOLD_TOLERANCE = 1e-8
# Random midpoint pairs drawn when spot-checking a convexity declaration.
SPOT_CHECK_PAIRS = 64
# verify_threshold's slack on the strict drop of blend weights along the order.
MONOTONE_SLACK = 1e-12
# solve_binary takes a sender table whose action-1 payoff falls short of the
# action-0 payoff by at most this in any state (weak preference up to noise).
SENDER_PREFERENCE_SLACK = 1e-12

__all__ = [
    "CLASSIFY_TOLERANCE",
    "BOUNDARY_TOLERANCE",
    "BISECTION_TOLERANCE",
    "THRESHOLD_TOLERANCE",
    "StateClassification",
    "K01Vertex",
    "HullCandidates",
    "ThresholdReport",
    "classify_states",
    "compute_k01",
    "hull_candidates",
    "binary_precondition_error",
    "solve_binary",
    "full_persuasion_binary",
    "verify_threshold",
]


@dataclass(frozen=True, eq=False)
class StateClassification:
    """Pure states sorted by the sign of their accept-reject differential.

    ``accept`` holds states where accepting is weakly optimal (diff >=
    -CLASSIFY_TOLERANCE), ``reject`` where rejecting is, and
    ``strict_reject`` the reject states that are not also accept states.
    Boundary states with a vanishing differential belong to both accept
    and reject.
    """

    accept: tuple[int, ...]
    reject: tuple[int, ...]
    strict_reject: tuple[int, ...]
    differentials: np.ndarray


@dataclass(frozen=True, eq=False, slots=True)
class K01Vertex:
    """Hull vertex blending a strict-reject state into an accept state.

    ``posterior = gamma * e_reject + (1 - gamma) * e_accept`` over
    ``n_states`` states, with gamma the largest blend weight keeping
    acceptance weakly optimal.  gamma = 0 marks an accept state that itself
    already sits on the indifference boundary.
    Only the two support states and gamma are stored; ``posterior`` builds
    the dense vector on demand.
    """

    reject_state: int
    accept_state: int
    gamma: float
    n_states: int

    @property
    def posterior(self) -> np.ndarray:
        posterior = np.zeros(self.n_states)
        posterior[self.reject_state] += self.gamma
        posterior[self.accept_state] += 1.0 - self.gamma
        return posterior


def _require_binary(instance: PersuasionInstance) -> None:
    if instance.n_actions != 2:
        raise ValueError("this solver handles exactly two actions")


def classify_states(instance: PersuasionInstance) -> StateClassification:
    """Split pure states by whether the receiver accepts, rejects, or both."""
    _require_binary(instance)
    d = instance.n_states
    diffs = instance.receiver.differential_slots(np.arange(d)[:, None], np.ones((d, 1)))
    accept = tuple(int(w) for w in np.nonzero(diffs >= -CLASSIFY_TOLERANCE)[0])
    reject = tuple(int(w) for w in np.nonzero(diffs <= CLASSIFY_TOLERANCE)[0])
    strict = tuple(int(w) for w in np.nonzero(diffs < -CLASSIFY_TOLERANCE)[0])
    return StateClassification(
        accept=accept, reject=reject, strict_reject=strict, differentials=diffs
    )


def compute_k01(
    instance: PersuasionInstance,
    classification: StateClassification | None = None,
    gamma_fn=None,
) -> tuple[K01Vertex, ...]:
    """Boundary blend vertices for every (strict-reject, accept) state pair.

    ``gamma_fn(reject_state, accept_state)`` may supply a pair's weight in
    closed form, or NaN when it has none.  The other pairs are bisected
    along their edges, all edges together.  Every vertex with gamma > 0 is
    then checked to lie on the indifference surface within
    BOUNDARY_TOLERANCE, the first miss in pair order raising ValueError; at
    gamma 0 a vertex is its accept state, where the differential may jump.
    """
    _require_binary(instance)
    if classification is None:
        classification = classify_states(instance)
    d = instance.n_states
    diff = instance.receiver.differential_slots
    pairs = np.array(
        [(w0, w1) for w0 in classification.strict_reject for w1 in classification.accept],
        dtype=np.intp,
    ).reshape(-1, 2)
    gamma = np.full(len(pairs), np.nan)
    if gamma_fn is not None:
        gamma[:] = [gamma_fn(w0, w1) for w0, w1 in pairs.tolist()]
    # Tolerance-only accept states sit a hair under zero; their blends
    # collapse onto the accept vertex.
    gamma[np.isnan(gamma) & (classification.differentials[pairs[:, 1]] < 0.0)] = 0.0
    todo = np.nonzero(np.isnan(gamma))[0]
    lo, hi, width = np.zeros(todo.size), np.ones(todo.size), 1.0
    while width > BISECTION_TOLERANCE:
        mid = 0.5 * (lo + hi)
        mid_rows = np.column_stack([mid, 1.0 - mid])
        accepts = diff(pairs[todo], mid_rows) >= 0.0
        lo, hi = np.where(accepts, mid, lo), np.where(accepts, hi, mid)
        width *= 0.5
    gamma[todo] = lo
    out = tuple(
        K01Vertex(w0, w1, min(max(float(g), 0.0), 1.0), d)
        for (w0, w1), g in zip(pairs.tolist(), gamma)
    )
    weights = np.array([(v.gamma, 1.0 - v.gamma) for v in out]).reshape(-1, 2)
    blends = np.nonzero(weights[:, 0] > 0.0)[0]
    boundary = diff(pairs[blends], weights[blends])
    missed = np.nonzero(np.abs(boundary) > BOUNDARY_TOLERANCE)[0]
    if missed.size:
        raise _boundary_miss(out[blends[missed[0]]], float(boundary[missed[0]]))
    return out


def _boundary_miss(vert: K01Vertex, boundary: float) -> ValueError:
    return ValueError(
        f"blend of states {vert.reject_state},{vert.accept_state} misses the "
        f"boundary: differential {boundary:.3e}"
    )


@dataclass(frozen=True, eq=False)
class HullCandidates:
    """The binary acceptance hull's candidate posteriors, in LP column order.

    Pure accept states, then the k01 blends, then the pure strict-reject
    states; the first ``n_accept`` recommend action 1, the rest action 0.
    Candidate i is held as two (state, weight) slots, a pure state as (w, w)
    with weights (1, 0); ``rows`` makes dense posteriors on request.
    """

    classification: StateClassification
    k01: tuple[K01Vertex, ...]
    states: np.ndarray
    weights: np.ndarray
    state_labels: tuple[str, ...]

    @property
    def n_accept(self) -> int:
        return len(self.classification.accept) + len(self.k01)

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
    instance: PersuasionInstance,
    classification: StateClassification | None = None,
    gamma_fn=None,
) -> HullCandidates:
    """List the hull candidates: classify the states, then compute the k01 blends.

    ``classification`` is used when given; ``gamma_fn`` goes to ``compute_k01``.
    """
    if classification is None:
        classification = classify_states(instance)
    k01 = compute_k01(instance, classification, gamma_fn=gamma_fn)
    accept, strict = classification.accept, classification.strict_reject
    states = np.array(
        [(w, w) for w in accept]
        + [(v.reject_state, v.accept_state) for v in k01]
        + [(w, w) for w in strict],
        dtype=np.intp,
    ).reshape(-1, 2)
    weights = np.array(
        [(1.0, 0.0)] * len(accept)
        + [(v.gamma, 1.0 - v.gamma) for v in k01]
        + [(1.0, 0.0)] * len(strict)
    ).reshape(-1, 2)
    return HullCandidates(
        classification=classification,
        k01=k01,
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


def full_persuasion_binary(
    instance: PersuasionInstance,
    candidates: HullCandidates | None = None,
) -> bool:
    """Whether the sender can get acceptance with probability one.

    Meaningful when the sender strictly prefers acceptance in every state
    (enforced); the answer is exactly whether the prior lies in the
    acceptance hull.  ``candidates`` are built from the instance when not
    given.
    """
    _require_binary(instance)
    v = instance.sender.table
    if not np.all(v[:, 1] > v[:, 0]):
        raise ValueError("full persuasion asks for strict sender preference")
    if candidates is None:
        candidates = hull_candidates(instance)
    v1 = candidates.rows(slice(candidates.n_accept))
    return hull_membership(instance.prior.weights, v1) is not None


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of verify_threshold.

    ``holds`` says the accept mass uses an order-respecting cutoff:
    every state before the threshold is fully accepted, every one after
    contributes nothing.  ``threshold_state`` is the first state not
    fully accepted (None when all are).  ``witness`` is an offending
    (earlier-not-full, later-still-positive) pair when the check fails.
    ``monotone_ok`` reports the blend-weight monotonicity audit of the
    supplied order (None when no instance was given to audit against).
    """

    holds: bool
    threshold_state: int | None
    witness: tuple[int, int] | None
    monotone_ok: bool | None
    violations: tuple[str, ...] = ()


def verify_threshold(
    plan: OptimalPlan,
    order: list[int],
    instance: PersuasionInstance | None = None,
    k01: tuple[K01Vertex, ...] | None = None,
    classification: StateClassification | None = None,
) -> ThresholdReport:
    """Check that a plan's accept mass is a cutoff in the given state order.

    ``order`` lists all states from most to least acceptable.  When an
    instance is supplied, the order itself is audited: a state may only
    precede another if it is an accept state, or both are strict-reject
    states and every accept state blends with the earlier one at a
    strictly larger weight than with the later one.  ``classification``
    and ``k01`` are computed from the instance when not given.

    The audit costs O(d * |accept|): every state after the first
    non-accept one must be strict-reject, and in each accept state's
    column of blend weights every entry must beat the largest later one.
    Only when that finds a fault, or a NaN weight, does the pairwise
    O(d^2 * |accept|) audit run, to list every offending pair.
    """
    d = plan.t.shape[1]
    if sorted(order) != list(range(d)):
        raise ValueError("order must be a permutation of the state indices")
    t1 = plan.t[1]
    prior = plan.prior
    nonzero = [p for p, w in enumerate(order) if t1[w] > THRESHOLD_TOLERANCE]
    nonfull = [p for p, w in enumerate(order) if t1[w] < prior[w] - THRESHOLD_TOLERANCE]
    holds = (not nonzero) or (not nonfull) or max(nonzero) <= min(nonfull)
    threshold_state = order[min(nonfull)] if nonfull else None
    witness = None
    if not holds:
        witness = (order[min(nonfull)], order[max(nonzero)])

    monotone_ok: bool | None = None
    violations: list[str] = []
    if instance is not None:
        if classification is None:
            classification = classify_states(instance)
        if k01 is None:
            k01 = compute_k01(instance, classification)
        gammas = {
            (vert.reject_state, vert.accept_state): vert.gamma for vert in k01
        }
        if not _order_is_monotone(order, classification, gammas):
            violations = _pairwise_violations(order, classification, gammas)
        monotone_ok = not violations
    return ThresholdReport(
        holds=bool(holds),
        threshold_state=threshold_state,
        witness=witness,
        monotone_ok=monotone_ok,
        violations=tuple(violations),
    )


def _order_is_monotone(
    order: list[int],
    classification: StateClassification,
    gammas: dict[tuple[int, int], float],
) -> bool:
    # True only when the pairwise audit would find nothing.  A missing
    # blend reads as NaN, which fails every comparison, so the pairwise
    # audit runs and reports it as it always has.
    accept = set(classification.accept)
    first = next((p for p, w in enumerate(order) if w not in accept), len(order))
    tail = order[first:]
    strict = set(classification.strict_reject)
    if not all(w in strict for w in tail[1:]):
        return False
    if len(tail) < 2:
        return True
    g = np.array(
        [[gammas.get((w, wa), np.nan) for wa in classification.accept] for w in tail]
    ).reshape(len(tail), len(classification.accept))
    later_max = np.maximum.accumulate(g[::-1], axis=0)[::-1]
    return bool(np.all(g[:-1] > later_max[1:] - MONOTONE_SLACK))


def _pairwise_violations(
    order: list[int],
    classification: StateClassification,
    gammas: dict[tuple[int, int], float],
) -> list[str]:
    accept = set(classification.accept)
    strict = set(classification.strict_reject)
    violations = []
    for i in range(len(order)):
        if order[i] in accept:
            continue
        for j in range(i + 1, len(order)):
            wi, wj = order[i], order[j]
            if wj not in strict:
                violations.append(
                    f"state {wj} follows strict-reject state {wi} "
                    "but is not strict-reject"
                )
                continue
            for wa in classification.accept:
                gi, gj = gammas[(wi, wa)], gammas[(wj, wa)]
                if not gi > gj - MONOTONE_SLACK:
                    violations.append(
                        f"blend weight with accept state {wa} fails to "
                        f"drop from state {wi} ({gi:.6g}) to {wj} ({gj:.6g})"
                    )
    return violations
