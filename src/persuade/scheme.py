"""Signaling schemes: the messaging artifact a solved plan compiles into.

A scheme is a finite signal alphabet plus the conditional law pi(s | w) of
signals given states.  Each signal carries the posterior it induces, the
action it recommends, and its unconditional probability, so downstream
consumers never have to re-derive Bayes updates.  ``conditional[i][w]`` is
the probability of emitting signal i in state w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SUM_SLACK,
    WEIGHT_FLOOR,
    Belief,
    FormatError,
    OptimalPlan,
    PersuasionInstance,
    _float_list,
    _matrix,
    _number,
    best_response,
)

# Column sums of the law may miss one, and its entries and marginals exceed it, by
# this much: a marginal is joint mass, which meets the prior to PLAN_MASS_TOLERANCE,
# and scheme_from_plan divides each column by its own sum, off one by round-off.
ROW_SUM_TOLERANCE = 1e-9
# Posteriors may miss their Bayes update by this, ten times ROW_SUM_TOLERANCE as
# an update divides by a marginal.  Entries no larger are not support, and
# posteriors no further apart are one signal: validate cannot tell them apart.
POSTERIOR_TOLERANCE = 1e-8
# Obedience margins below this get flagged: ten times binary.BOUNDARY_TOLERANCE,
# by which a boundary blend's recommended action may trail the other.
OBEDIENCE_FLOOR = -1e-6

__all__ = [
    "ROW_SUM_TOLERANCE",
    "POSTERIOR_TOLERANCE",
    "OBEDIENCE_FLOOR",
    "Signal",
    "SignalingScheme",
    "ValidationReport",
    "scheme_from_plan",
    "validate_scheme",
    "scheme_value",
    "signal_cdf",
    "sample_scheme_batch",
    "scheme_to_json",
    "scheme_from_json",
]


@dataclass(frozen=True, eq=False)
class Signal:
    """One signal: its label, induced posterior, recommendation, marginal."""

    label: str
    posterior: np.ndarray
    action: int
    marginal: float


@dataclass(frozen=True, eq=False)
class SignalingScheme:
    """Signals and their conditional law pi(s | w), which must be a law.

    Construction raises ``FormatError`` at the field's path where the
    ``prior`` is not a distribution (entries >= 0, sum within SUM_SLACK), a
    ``signals[i].label`` repeats, a ``signals[i].posterior`` is not one
    (entries >= WEIGHT_FLOOR), or a ``signals[i].marginal`` or a
    ``conditional[i]`` entry lies outside [WEIGHT_FLOOR, 1 +
    ROW_SUM_TOLERANCE] (low entries first).  NaN fails each rule.  Entries
    in [WEIGHT_FLOOR, 0) are then clipped to 0, as ``Belief`` does, and at
    ``conditional`` each state's signal law must sum to 1 within
    ROW_SUM_TOLERANCE; the message names the first state whose law does not.
    The arrays kept (law, prior, posteriors) are copies, read-only.
    """

    signals: tuple[Signal, ...]
    conditional: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        cond = np.asarray(self.conditional, dtype=float)
        prior = np.array(self.prior, dtype=float)
        if cond.shape != (len(self.signals), prior.size):
            raise ValueError("conditional law shape must be signals by states")
        if not np.all(prior >= 0.0):
            raise FormatError("prior", "weights must be nonnegative")
        if not abs(prior.sum() - 1.0) <= SUM_SLACK:
            raise FormatError("prior", "weights must sum to 1")
        signals, seen = [], set()
        for i, sig in enumerate(self.signals):
            if sig.label in seen:
                raise FormatError(f"signals[{i}].label", f"labels must be distinct: {sig.label!r}")
            seen.add(sig.label)
            post = np.asarray(sig.posterior, dtype=float)
            if not (post.shape == prior.shape and post.min() >= WEIGHT_FLOOR
                    and abs(post.sum() - 1.0) <= SUM_SLACK):
                raise FormatError(f"signals[{i}].posterior", "entries must form a distribution")
            marginal = sig.marginal
            if not WEIGHT_FLOOR <= marginal <= 1.0 + ROW_SUM_TOLERANCE:
                raise FormatError(f"signals[{i}].marginal", f"probability {marginal} out of range")
            signals.append(Signal(sig.label, np.maximum(post, 0.0), sig.action, max(marginal, 0.0)))
        # A negative entry, not the one it offsets, is the fault.
        for bad in (~(cond >= WEIGHT_FLOOR), ~(cond <= 1.0 + ROW_SUM_TOLERANCE)):
            rows = np.flatnonzero(bad.any(axis=1))
            if rows.size:
                raise FormatError(f"conditional[{rows[0]}]", "entries must be probabilities")
        cond = np.maximum(cond, 0.0)
        sums = cond.sum(axis=0)
        bad = np.flatnonzero(~(np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE))
        if bad.size:
            raise FormatError("conditional", f"law of state {bad[0]} sums to {sums[bad[0]]}, not 1")
        for held in (cond, prior, *(sig.posterior for sig in signals)):
            held.flags.writeable = False
        object.__setattr__(self, "signals", tuple(signals))
        object.__setattr__(self, "conditional", cond)
        object.__setattr__(self, "prior", prior)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.signals)


def _default_label(posterior: np.ndarray, labels: tuple[str, ...], serial: int) -> str:
    support = np.nonzero(posterior > POSTERIOR_TOLERANCE)[0]
    if support.size == 1:
        return labels[int(support[0])]
    if support.size == 2:
        # Blend convention: lead with the higher-index state and its weight.
        hi, lo = int(support[1]), int(support[0])
        return f"mix({labels[hi]},{labels[lo]},{posterior[hi]:.6g})"
    return f"sig{serial}"


def scheme_from_plan(
    plan: OptimalPlan,
    instance: PersuasionInstance,
    coalesce: bool = True,
) -> SignalingScheme:
    """Compile plan atoms into signals, one per distinct posterior.

    The conditional law follows from the atom weights: pi(s | w) is
    weight_s * posterior_s[w] over its sum across signals, the joint mass
    of w, which is prior[w] up to the LP residual.  States the prior rules
    out get the whole unit column on the first signal, an arbitrary but
    fixed convention.  With ``coalesce`` (the default), atoms whose
    posteriors agree within POSTERIOR_TOLERANCE merge first, keeping the
    first one's posterior, which their Bayes update (a mixture) stays within
    that tolerance of, and the sender-preferred recommendation among them.
    """
    if instance.n_states != plan.t.shape[1]:
        raise ValueError("plan and instance disagree on the state count")
    atoms = [a for a in plan.atoms if a.weight > 0.0]
    if not atoms:
        raise ValueError("plan has no atoms to compile")
    # posts[i] is signal i's posterior; an atom joins the first row within tolerance.
    posts = np.empty((len(atoms), plan.t.shape[1]))
    merged: list[list] = []  # [weight, action, label]
    value = instance.sender.value
    for atom in atoms:
        gaps = np.abs(posts[: len(merged)] - atom.posterior).max(axis=1) if coalesce else []
        hits = np.flatnonzero(np.less_equal(gaps, POSTERIOR_TOLERANCE))
        if not hits.size:
            posts[len(merged)] = atom.posterior
            merged.append([atom.weight, atom.action, atom.label])
            continue
        home = merged[hits[0]]
        home[0] += atom.weight
        if atom.action != home[1] and (
            value(atom.posterior, atom.action) > value(posts[hits[0]], home[1])
        ):
            home[1:] = atom.action, atom.label

    prior = np.asarray(plan.prior, dtype=float)
    labels = instance.states.labels
    signals = []
    taken: set[str] = set()
    for i, (weight, action, label) in enumerate(merged):
        name = label if label is not None else _default_label(posts[i], labels, i)
        while name in taken:
            name = f"{name}+"
        taken.add(name)
        signals.append(Signal(label=name, posterior=posts[i], action=action, marginal=float(weight)))
    # Each live column is the signals' joint mass over its own sum.  That sum
    # meets the prior only to the LP residual: over a prior of 1e-6, a gap of
    # 1e-14 would leave the column 1e-8 off one, over ROW_SUM_TOLERANCE.
    live = prior > 0.0
    joint = np.array([[w] for w, _, _ in merged]) * posts[: len(merged), live]
    total = joint.sum(axis=0)
    cond = np.zeros((len(merged), prior.size))
    cond[:, live] = np.divide(joint, total, out=np.zeros(joint.shape), where=total > 0.0)
    cond[0, ~live] = 1.0
    return SignalingScheme(signals=tuple(signals), conditional=cond, prior=prior)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Numeric audit of a scheme against an instance.

    ``bayes_residual``: worst column-sum error of the law on states the
    prior charges (``SignalingScheme`` holds it within ROW_SUM_TOLERANCE).
    ``marginal_residual``: worst gap between a signal's recorded marginal
    and the one implied by prior and law.  ``posterior_residual``: worst
    entry gap between recorded posteriors and Bayes updates.  ``margins``:
    per-signal obedience margin of the recommended action over the best
    alternative; entries below OBEDIENCE_FLOOR land in ``flagged``.
    ``ok``: the marginal residual within ROW_SUM_TOLERANCE, the posterior
    one within POSTERIOR_TOLERANCE, no flag.
    """

    bayes_residual: float
    marginal_residual: float
    posterior_residual: float
    margins: np.ndarray
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return (
            self.marginal_residual <= ROW_SUM_TOLERANCE
            and self.posterior_residual <= POSTERIOR_TOLERANCE
            and not self.flagged
        )


def _check_fit(scheme: SignalingScheme, n_states: int, n_actions: int) -> None:
    """Refuse (``FormatError``) a scheme over another state count (at ``prior``)
    or recommending an action outside [0, n_actions) (at ``signals[i].action``)."""
    if scheme.prior.size != n_states:
        raise FormatError("prior", "scheme and instance disagree on the state count")
    for i, sig in enumerate(scheme.signals):
        if not 0 <= sig.action < n_actions:
            raise FormatError(
                f"signals[{i}].action", f"action {sig.action} out of range for {n_actions} actions"
            )


def validate_scheme(
    scheme: SignalingScheme, instance: PersuasionInstance
) -> ValidationReport:
    """Audit normalization, Bayes consistency, and obedience of a scheme.

    Marginals and Bayes updates are implied by the instance's prior, the
    one prior read.  A scheme that does not fit the instance's state and
    action counts is refused by ``_check_fit``, as ``simulate_queue`` does.
    """
    _check_fit(scheme, instance.n_states, instance.n_actions)
    prior = instance.prior.weights
    cond = scheme.conditional
    live = prior > 0.0
    col_sums = cond[:, live].sum(axis=0)
    bayes_residual = float(np.max(np.abs(col_sums - 1.0), initial=0.0))

    marginal_residual = 0.0
    posterior_residual = 0.0
    margins = np.zeros(scheme.n_signals)
    for i, sig in enumerate(scheme.signals):
        implied = float(cond[i] @ prior)
        marginal_residual = max(marginal_residual, abs(implied - sig.marginal))
        if implied > 0.0:
            update = (cond[i] * prior) / implied
            posterior_residual = max(
                posterior_residual, float(np.max(np.abs(update - sig.posterior)))
            )
        scores = instance.receiver.score_all(sig.posterior)
        rest = np.delete(scores, sig.action)
        margins[i] = scores[sig.action] - rest.max() if rest.size else math.inf
    flagged = tuple(int(i) for i in np.nonzero(margins < OBEDIENCE_FLOOR)[0])
    return ValidationReport(
        bayes_residual=bayes_residual,
        marginal_residual=float(marginal_residual),
        posterior_residual=float(posterior_residual),
        margins=margins,
        flagged=flagged,
    )


def scheme_value(scheme: SignalingScheme, instance: PersuasionInstance) -> float:
    """Sender's expected payoff when the receiver best-responds per signal.

    The receiver is not assumed to follow recommendations: each signal is
    re-solved with sender-preferred tie-breaking.
    """
    total = 0.0
    for sig in scheme.signals:
        if sig.marginal <= 0.0:
            continue
        action = best_response(instance, Belief(sig.posterior).weights)
        total += sig.marginal * instance.sender.value(sig.posterior, action)
    return float(total)


def signal_cdf(scheme: SignalingScheme, order: list[int] | None = None) -> np.ndarray:
    """Per-state cumulative law of the signals, (states, signals), C order.

    Row w is normalized to end at exactly 1.0, above every uniform draw u,
    so count(cdf[w] < u), the signal that ``_GuideTable.count`` returns on
    side "left", is always a signal.  Given ``order``, a permutation of the
    signal indices, the law is accumulated over the signals in that order.
    """
    law = scheme.conditional if order is None else scheme.conditional[order]
    cdf = np.cumsum(law, axis=0).T.copy()
    return cdf / cdf[:, -1:]


class _GuideTable:
    """Exact inverse-CDF lookup by guide table (Chen & Asau 1974; Devroye 1986, III.2).

    ``rows`` is (R, L), each row nondecreasing.  ``count(row_of, u, side)``
    gives draw i the integer ``np.searchsorted(rows[row_of[i]], u[i], side)``:
    count(row < u) on side "left", count(row <= u) on side "right".  Each u
    must lie in [0, 1) and its count below L, which holds when the row ends
    above u.

    A row has m buckets, m the smallest power of two at or above L, so
    ``u * m`` and the edges b / m are exact.  Every draw in bucket b of row
    r counts at least ``guide[r, b]``, the row's entries below b / m, and
    starts there; only the draws whose entry still counts take another
    step, to the next distinct value (``jump``), so a run of equal entries
    costs one step.  Both tables hold int32 positions in the flattened
    rows, R * (m + L) of them: under 1.5 times the bytes of ``rows``.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = np.ascontiguousarray(rows, dtype=float)
        n_rows, width = self.rows.shape
        self.width = width
        self.m = m = 1 << (width - 1).bit_length()
        flat = self.rows.ravel()
        # Entry x of row r lies below the edge b / m exactly when floor(x * m)
        # < b; the cast and the clip floor x * m.  Keyed r * m + floor(x * m),
        # the entries keyed below r * m + b are the earlier rows' and row r's
        # below the edge: bucket b's start.
        key = (self.rows * m).astype(np.intp)
        np.clip(key, 0, m - 1, out=key)
        key += np.arange(0, n_rows * m, m)[:, None]
        guide = np.zeros(n_rows * m, dtype=np.intp)
        np.cumsum(np.bincount(key.ravel(), minlength=n_rows * m)[:-1], out=guide[1:])
        guide = guide.reshape(n_rows, m)
        np.minimum(guide, np.arange(width - 1, flat.size, width)[:, None], out=guide)
        self.guide = guide.astype(np.int32).ravel()
        # jump[k]: the start of the run after k's, or the end of k's row.
        starts = np.empty(flat.size, dtype=bool)
        starts[1:] = flat[1:] != flat[:-1]
        starts[::width] = True
        bounds = np.append(np.flatnonzero(starts), flat.size).astype(np.int32)
        self.jump = np.repeat(bounds[1:], np.diff(bounds))

    def count(self, row_of, u: np.ndarray, side: str) -> np.ndarray:
        """The count per draw, int64; ``row_of`` is an index array or one row."""
        k = (u * self.m).astype(np.int64)
        k += row_of * self.m
        k[...] = self.guide[k]
        flat = self.rows.ravel()
        counts = np.less if side == "left" else np.less_equal
        todo = np.flatnonzero(counts(flat[k], u))
        while todo.size:
            k[todo] = step = self.jump[k[todo]]
            todo = todo[counts(flat[step], u[todo])]
        k -= row_of * self.width
        return k


def sample_scheme_batch(
    scheme: SignalingScheme, seed: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n iid (state, signal) pairs as two int64 index arrays.

    The draws are those of ``default_rng(seed)``'s ``choice(d, n,
    p=prior / prior.sum())`` followed by ``random(n)``: the first n uniforms
    u go through the prior's CDF as ``choice`` builds it, each to the state
    count(cdf <= u), and the next n through the drawn state's row of
    ``signal_cdf``, each to the signal count(row < u).  One ``_GuideTable``
    does each lookup.  Refuses (ValueError) a negative n.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    cdf = (scheme.prior / scheme.prior.sum()).cumsum()
    cdf /= cdf[-1]
    cum = signal_cdf(scheme)
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    states = _GuideTable(cdf[None, :]).count(0, u, "right")
    signals = _GuideTable(cum).count(states, rng.random(out=u), "left")
    return states, signals


def scheme_to_json(scheme: SignalingScheme, leaf=np.ndarray.tolist) -> dict:
    """Serialize to the scheme schema, each array (posteriors, law, prior) through ``leaf``.

    By default the arrays become lists, so the result is JSON-native; the
    CLI passes ``np.asarray`` and its writer renders the arrays as those
    lists would be.
    """
    return {
        "signals": [
            {
                "label": s.label,
                "posterior": leaf(s.posterior),
                "action": int(s.action),
                "marginal": float(s.marginal),
            }
            for s in scheme.signals
        ],
        "conditional": leaf(scheme.conditional),
        "prior": leaf(scheme.prior),
    }


def scheme_from_json(data: dict) -> SignalingScheme:
    """Parse the scheme schema's types and shapes, reporting errors by field path."""
    if not isinstance(data, dict):
        raise FormatError("$", "scheme document must be a JSON object")
    for key in ("signals", "conditional", "prior"):
        if key not in data:
            raise FormatError(key, "missing field")
    raw_signals = data["signals"]
    if not isinstance(raw_signals, list) or not raw_signals:
        raise FormatError("signals", "expected a nonempty list")
    prior_raw = data["prior"]
    if not isinstance(prior_raw, list) or not prior_raw:
        raise FormatError("prior", "expected a nonempty list of numbers")
    prior = np.array(_float_list(prior_raw, "prior"))
    signals = []
    for i, raw in enumerate(raw_signals):
        if not isinstance(raw, dict):
            raise FormatError(f"signals[{i}]", "expected an object")
        for key in ("label", "posterior", "action", "marginal"):
            if key not in raw:
                raise FormatError(f"signals[{i}].{key}", "missing field")
        label = raw["label"]
        if not isinstance(label, str):
            raise FormatError(f"signals[{i}].label", "expected a string")
        posterior = np.array(_float_list(raw["posterior"], f"signals[{i}].posterior"))
        action = raw["action"]
        if not isinstance(action, int) or isinstance(action, bool) or action < 0:
            raise FormatError(f"signals[{i}].action", "expected a nonnegative integer")
        marginal = _number(raw["marginal"], f"signals[{i}].marginal")
        signals.append(Signal(label, posterior, action, marginal))
    cond = _matrix(data["conditional"], len(signals), prior.size, "conditional")
    return SignalingScheme(signals=tuple(signals), conditional=cond, prior=prior)
