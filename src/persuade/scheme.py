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
from typing import Iterator

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

# Column sums of the conditional law may stray this far from one.
ROW_SUM_TOLERANCE = 1e-9
# Recorded posteriors may differ from the Bayes update by this much.
POSTERIOR_TOLERANCE = 1e-8
# Obedience margins below this negative floor get flagged.
OBEDIENCE_FLOOR = -1e-6
# Atoms whose posteriors agree within this merge into one signal.
COALESCE_TOLERANCE = 1e-10
# Posterior entries above this count as support when a signal is named.
LABEL_SUPPORT_FLOOR = 1e-9
# Parsed marginals and conditional entries may exceed one by this much.
PROBABILITY_SLACK = 1e-9

__all__ = [
    "ROW_SUM_TOLERANCE",
    "POSTERIOR_TOLERANCE",
    "OBEDIENCE_FLOOR",
    "COALESCE_TOLERANCE",
    "Signal",
    "SignalingScheme",
    "ValidationReport",
    "scheme_from_plan",
    "validate_scheme",
    "scheme_value",
    "signal_cdf",
    "sample_scheme",
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
    signals: tuple[Signal, ...]
    conditional: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        cond = np.asarray(self.conditional, dtype=float)
        prior = np.asarray(self.prior, dtype=float)
        if cond.shape != (len(self.signals), prior.size):
            raise ValueError("conditional law shape must be signals by states")
        if len(set(self.labels)) != len(self.signals):
            raise ValueError("signal labels must be distinct")
        object.__setattr__(self, "conditional", cond)
        object.__setattr__(self, "prior", prior)

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.signals)


def _default_label(posterior: np.ndarray, labels: tuple[str, ...], serial: int) -> str:
    support = np.nonzero(posterior > LABEL_SUPPORT_FLOOR)[0]
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

    The conditional law follows from the atom weights:
    pi(s | w) = weight_s * posterior_s[w] / prior[w].  States the prior
    rules out get the whole unit column on the first signal, an arbitrary
    but fixed convention.  With ``coalesce`` (the default), atoms whose
    posteriors coincide merge first, keeping the sender-preferred
    recommendation among the merged atoms; the induced conditional law
    is unchanged by the merge.
    """
    if instance.n_states != plan.t.shape[1]:
        raise ValueError("plan and instance disagree on the state count")
    atoms = [a for a in plan.atoms if a.weight > 0.0]
    if not atoms:
        raise ValueError("plan has no atoms to compile")
    merged: list[list] = []  # [posterior, weight, action, label]
    for atom in atoms:
        home = None
        if coalesce:
            for row in merged:
                if np.max(np.abs(row[0] - atom.posterior)) <= COALESCE_TOLERANCE:
                    home = row
                    break
        if home is None:
            merged.append(
                [np.asarray(atom.posterior, dtype=float), atom.weight, atom.action, atom.label]
            )
            continue
        home[1] += atom.weight
        if atom.action != home[2]:
            gain_new = instance.sender.value(atom.posterior, atom.action)
            gain_old = instance.sender.value(home[0], home[2])
            if gain_new > gain_old:
                home[2] = atom.action
                home[3] = atom.label

    prior = np.asarray(plan.prior, dtype=float)
    labels = instance.states.labels
    signals = []
    taken: set[str] = set()
    cond = np.zeros((len(merged), prior.size))
    for i, (posterior, weight, action, label) in enumerate(merged):
        name = label if label is not None else _default_label(posterior, labels, i)
        while name in taken:
            name = f"{name}+"
        taken.add(name)
        signals.append(
            Signal(label=name, posterior=posterior, action=action, marginal=float(weight))
        )
        live = prior > 0.0
        cond[i, live] = weight * posterior[live] / prior[live]
    dead = np.nonzero(prior <= 0.0)[0]
    if dead.size:
        cond[:, dead] = 0.0
        cond[0, dead] = 1.0
    return SignalingScheme(signals=tuple(signals), conditional=cond, prior=prior)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Numeric audit of a scheme against an instance.

    ``bayes_residual``: worst column-sum error of the conditional law on
    states the prior charges.  ``marginal_residual``: worst gap between a
    signal's recorded marginal and the one implied by prior and law.
    ``posterior_residual``: worst entry gap between recorded posteriors
    and Bayes updates.  ``margins``: per-signal obedience margin of the
    recommended action over the best alternative; entries below
    OBEDIENCE_FLOOR land in ``flagged``.
    """

    bayes_residual: float
    marginal_residual: float
    posterior_residual: float
    margins: np.ndarray
    flagged: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return (
            self.bayes_residual <= ROW_SUM_TOLERANCE
            and self.posterior_residual <= POSTERIOR_TOLERANCE
            and not self.flagged
        )


def validate_scheme(
    scheme: SignalingScheme, instance: PersuasionInstance
) -> ValidationReport:
    """Audit normalization, Bayes consistency, and obedience of a scheme.

    A signal recommending an action the instance does not have is a
    schema error (``FormatError`` naming ``signals[i].action``).
    """
    if scheme.prior.size != instance.n_states:
        raise ValueError("scheme and instance disagree on the state count")
    for i, sig in enumerate(scheme.signals):
        if not 0 <= sig.action < instance.n_actions:
            raise FormatError(
                f"signals[{i}].action",
                f"action {sig.action} out of range for {instance.n_actions} actions",
            )
    prior = scheme.prior
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


def signal_cdf(scheme: SignalingScheme) -> np.ndarray:
    """Per-state cumulative law of the signals, (states, signals), C order.

    Row w is normalized to end at one; a state with no signal mass keeps
    its zero row.  A uniform draw u picks signal
    ``searchsorted(cdf[w], u, side="left")``.
    """
    cdf = np.cumsum(scheme.conditional, axis=0).T.copy()
    totals = cdf[:, -1].copy()
    totals[totals <= 0.0] = 1.0
    return cdf / totals[:, None]


def sample_scheme_batch(
    scheme: SignalingScheme, seed: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n iid (state, signal) pairs as two index arrays."""
    if n < 0:
        raise ValueError("sample count must be nonnegative")
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


def sample_scheme(scheme: SignalingScheme, seed: int) -> Iterator[tuple[int, int]]:
    """Endless stream of (state, signal) index pairs; fixed seed, fixed stream."""
    block = 0
    while True:
        states, signals = sample_scheme_batch(scheme, seed + block, 1024)
        yield from zip(states.tolist(), signals.tolist())
        block += 1


def scheme_to_json(scheme: SignalingScheme) -> dict:
    """Serialize to the scheme schema (posteriors, law, prior as lists)."""
    return {
        "signals": [
            {
                "label": s.label,
                "posterior": [float(x) for x in s.posterior],
                "action": int(s.action),
                "marginal": float(s.marginal),
            }
            for s in scheme.signals
        ],
        "conditional": [[float(x) for x in row] for row in scheme.conditional],
        "prior": [float(x) for x in scheme.prior],
    }


def scheme_from_json(data: dict) -> SignalingScheme:
    """Parse the scheme schema, reporting violations by field path."""
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
    d = prior.size
    if np.any(prior < 0):
        raise FormatError("prior", "weights must be nonnegative")

    signals = []
    seen: set[str] = set()
    for i, raw in enumerate(raw_signals):
        if not isinstance(raw, dict):
            raise FormatError(f"signals[{i}]", "expected an object")
        for key in ("label", "posterior", "action", "marginal"):
            if key not in raw:
                raise FormatError(f"signals[{i}].{key}", "missing field")
        label = raw["label"]
        if not isinstance(label, str):
            raise FormatError(f"signals[{i}].label", "expected a string")
        if label in seen:
            raise FormatError(f"signals[{i}].label", f"repeats the label {label!r}")
        seen.add(label)
        post = raw["posterior"]
        if not isinstance(post, list) or len(post) != d:
            raise FormatError(f"signals[{i}].posterior", f"expected {d} weights")
        posterior = np.array(_float_list(post, f"signals[{i}].posterior"))
        if np.any(posterior < WEIGHT_FLOOR) or abs(posterior.sum() - 1.0) > SUM_SLACK:
            raise FormatError(
                f"signals[{i}].posterior", "entries must form a distribution"
            )
        action = raw["action"]
        if not isinstance(action, int) or isinstance(action, bool) or action < 0:
            raise FormatError(f"signals[{i}].action", "expected a nonnegative integer")
        marginal = _number(raw["marginal"], f"signals[{i}].marginal")
        if marginal < WEIGHT_FLOOR or marginal > 1.0 + PROBABILITY_SLACK:
            raise FormatError(f"signals[{i}].marginal", f"probability {marginal!r} out of range")
        signals.append(
            Signal(
                label=label,
                posterior=np.clip(posterior, 0.0, None),
                action=action,
                marginal=max(marginal, 0.0),
            )
        )

    cond = _matrix(data["conditional"], len(signals), d, "conditional")
    bad = np.nonzero(np.any((cond < WEIGHT_FLOOR) | (cond > 1.0 + PROBABILITY_SLACK), axis=1))[0]
    if bad.size:
        raise FormatError(f"conditional[{bad[0]}]", "entries must be probabilities")
    return SignalingScheme(
        signals=tuple(signals), conditional=np.clip(cond, 0.0, None), prior=prior
    )
