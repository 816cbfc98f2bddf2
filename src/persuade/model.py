"""Problem data for sender-receiver disclosure games.

A sender commits to a signaling scheme about a hidden state; a receiver
updates a prior, then picks the action whose belief-based score is
largest (``best_response``).  The score may be nonlinear in the belief,
which is what separates the risk-sensitive receiver families here from
plain expected utility.

Every receiver kind scores score(mu, a) = combine(mu @ F, a) for a fixed
feature matrix F, one row per state.  The kinds, their F and combine:

``expected``
    F = u; combine takes column a, sum_w mu[w] * u[w, a].
``mean_stdev``
    F = [u, g_mean, g_var + g_mean^2]; E_mu[u(., a)] - beta * sqrt(Var_mu[g(., a)])
    for a per-state random payoff g, with Var[g] = E[g^2] - E[g]^2.
``maximin``
    F = the scenario tables side by side; the minimum over the scenarios.
``cvar``
    F = [tail mass, tail loss-sum] of the loss laws above tau;
    -E[loss | loss > tau] = -sum / mass, and 0 when the event has
    probability zero, so the map is discontinuous at that event's boundary.
``custom``
    F = the identity, never built; combine is the caller's (mu, a) -> float.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Actions tied within this margin of the best score count as best responses.
TIE_TOLERANCE = 1e-9
# Belief weights may dip this far below zero before construction fails.
WEIGHT_FLOOR = -1e-12
# Weight vectors renormalize when their sum is this close to one.
SUM_SLACK = 1e-6
# ... but sums already within float noise of one are left untouched:
# dividing by them is not bit-stable, which would break the serialization
# fixpoint (parse/serialize must be idempotent for artifact determinism).
SUM_NOISE = 1e-13
# OptimalPlan.check: joint mass against the prior, at the LP residual cap ...
PLAN_MASS_TOLERANCE = 1e-9
# ... and atoms against the joint mass, looser since a queue plan's t keeps
# the LP weights at or below ATOM_FLOOR that its atoms leave out.
PLAN_ATOM_TOLERANCE = 1e-8
# Slot scoring builds features a block of beliefs at a time, at most this many
# entries (8 MB of floats) a block, however many states and beliefs there are.
SCORE_BLOCK_ENTRIES = 1 << 20

__all__ = [
    "TIE_TOLERANCE",
    "WEIGHT_FLOOR",
    "SUM_SLACK",
    "SUM_NOISE",
    "PLAN_MASS_TOLERANCE",
    "PLAN_ATOM_TOLERANCE",
    "FormatError",
    "StateSpace",
    "ActionSpace",
    "Belief",
    "SenderUtility",
    "UtilityModel",
    "PersuasionInstance",
    "PlanAtom",
    "OptimalPlan",
    "make_model",
    "best_response",
    "mixture_moments",
    "instance_to_json",
    "instance_from_json",
]


class FormatError(ValueError):
    """Raised when a JSON document violates the instance or scheme schema.

    ``path`` locates the offending field, e.g. ``"prior[1]"``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite set of hidden states."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("state space must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("state labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ActionSpace:
    """Ordered finite set of receiver actions.

    For binary problems the convention throughout is that action 1 is the
    one the sender wants taken (accept/join) and action 0 is the fallback.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError("action space must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("action labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, eq=False)
class Belief:
    """Probability vector over states, stored normalized.

    Construction accepts weights whose sum is within ``SUM_SLACK`` of one
    and renormalizes; anything further off is rejected rather than silently
    rescaled.  Entries may sit a hair below zero (``WEIGHT_FLOOR``) to absorb
    round-off from upstream linear algebra; they are clipped to zero.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("belief weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("belief weights must be finite")
        low = w.min()
        if low < WEIGHT_FLOOR:
            raise ValueError(f"belief weight {low!r} below tolerance {WEIGHT_FLOOR}")
        total = w.sum()
        if abs(total - 1.0) > SUM_SLACK:
            raise ValueError(f"belief weights sum to {total!r}, not 1")
        w = np.clip(w, 0.0, None)
        total = w.sum()
        if abs(total - 1.0) > SUM_NOISE:
            w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    @staticmethod
    def uniform(dim: int) -> "Belief":
        return Belief(np.full(dim, 1.0 / dim))


@dataclass(frozen=True, eq=False)
class SenderUtility:
    """Sender payoff table, ``table[w, a]`` = value of action a in state w."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError("sender utility must be a states-by-actions table")
        if not np.all(np.isfinite(t)):
            raise ValueError("sender utility must be finite")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    def value(self, joint: np.ndarray, action: int) -> float:
        return float(np.dot(joint, self.table[:, action]))


@dataclass(frozen=True, eq=False)
class UtilityModel:
    """Receiver scoring rule score(mu, a) = combine(mu @ features, a).

    ``features`` is a (states, m) matrix, or None for the identity (never
    built); ``combine(f, a)`` maps a feature vector, or a batch of them
    along the leading axes, to the score of action a.

    ``convex_reject_region`` declares that the set of beliefs at which
    action 0 is strictly preferred to action 1 is convex.  Built-in kinds
    set it from structural checks; custom models self-declare and the
    binary solver spot-checks the claim rather than trusting it blindly.
    ``params`` are the builder's inputs, arrays copied, for ``instance_to_json``.
    """

    kind: str
    n_states: int
    n_actions: int
    combine: Callable[[np.ndarray, int], np.ndarray | float]
    features: np.ndarray | None = None
    convex_reject_region: bool = False
    params: dict | None = None

    def _feature_map(self, mu) -> np.ndarray:
        # The belief (or each row of a batch) must have one entry per state.
        length = np.shape(mu)[-1] if np.ndim(mu) else 0
        if length != self.n_states:
            raise ValueError(f"belief has {length} entries, the model has {self.n_states} states")
        mu = np.asarray(mu, dtype=float)
        return mu if self.features is None else mu @ self.features

    def score(self, mu: np.ndarray, action: int) -> np.ndarray | float:
        """The score at one belief vector (1-d) or a batch of them (2-d rows)."""
        if action < 0 or action >= self.n_actions:
            raise ValueError(f"action index {action} out of range")
        return self.combine(self._feature_map(mu), action)

    def score_all(self, mu: np.ndarray) -> np.ndarray:
        """The score of every action; batch input gives a (points, actions) array."""
        f = self._feature_map(mu)
        cols = [self.combine(f, a) for a in range(self.n_actions)]
        return np.stack([np.asarray(c, dtype=float) for c in cols], axis=-1)

    def differential(self, mu: np.ndarray) -> np.ndarray | float:
        """score(mu, 1) - score(mu, 0), binary models only; below zero rejects."""
        return self._difference(self._feature_map(mu))

    def differential_slots(self, states: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``differential`` at each belief ``sum_k weights[i, k] * e_{states[i, k]}``.

        The features are ``sum_k weights[i, k] * features[states[i, k]]``, so
        the cost follows the slots, not the states (the identity's rows make
        dense beliefs), SCORE_BLOCK_ENTRIES feature entries a block at most.
        """
        width = self.n_states if self.features is None else self.features.shape[1]
        step = max(1, SCORE_BLOCK_ENTRIES // width)
        out = np.empty(states.shape[0])
        for lo in range(0, states.shape[0], step):
            s, w = states[lo : lo + step], weights[lo : lo + step]
            if self.features is None:
                f = _dense_rows(self.n_states, s, w)
            else:
                f = sum(w[:, k, None] * self.features[s[:, k]] for k in range(s.shape[1]))
            out[lo : lo + step] = self._difference(f)
        return out

    def _difference(self, f: np.ndarray) -> np.ndarray | float:
        if self.n_actions != 2:
            raise ValueError("differential utility needs exactly two actions")
        return self.combine(f, 1) - self.combine(f, 0)


def _dense_rows(n_states: int, states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i is ``sum_k weights[i, k] * e_{states[i, k]}``, added into zeros slot by slot."""
    out = np.zeros((states.shape[0], n_states))
    rows = np.arange(states.shape[0])
    for k in range(states.shape[1]):
        out[rows, states[:, k]] += weights[:, k]
    return out


def mixture_moments(
    point_means: np.ndarray, point_vars: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Moments of a mixture whose components live one per state.

    Component w has the given mean and variance; mu mixes the components.
    Returns (mean, variance) of the mixture, batched when mu is 2-d:

        mean = sum_w mu[w] * m[w]
        var  = sum_w mu[w] * (v[w] + m[w]^2) - mean^2
    """
    m = np.asarray(point_means, dtype=float)
    v = np.asarray(point_vars, dtype=float)
    mean = mu @ m
    var = mu @ (v + m * m) - mean * mean
    return mean, np.maximum(var, 0.0)


def _expected_model(u: np.ndarray) -> UtilityModel:
    u = np.array(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("expected-utility table must be states-by-actions")
    return UtilityModel(
        kind="expected",
        n_states=u.shape[0],
        n_actions=u.shape[1],
        features=u,
        combine=lambda f, action: f[..., action],
        convex_reject_region=u.shape[1] == 2,
        params={"u": u},
    )


def _mean_stdev_model(
    u: np.ndarray, g_mean: np.ndarray, g_var: np.ndarray, beta: float
) -> UtilityModel:
    u = np.array(u, dtype=float)
    gm = np.array(g_mean, dtype=float)
    gv = np.array(g_var, dtype=float)
    if u.shape != gm.shape or u.shape != gv.shape or u.ndim != 2:
        raise ValueError("u, g_mean, g_var must share a states-by-actions shape")
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta!r}")
    if np.any(gv < 0):
        raise ValueError("g_var entries must be nonnegative")
    k = u.shape[1]

    def combine(f, action):
        mean = f[..., k + action]
        var = np.maximum(f[..., 2 * k + action] - mean * mean, 0.0)
        return f[..., action] - beta * np.sqrt(var)

    # score(., 1) - score(., 0) is convex when the action-0 stdev term does not
    # move with the belief, i.e. g(., 0) has state-independent moments.
    convex = k == 2 and (
        beta == 0.0
        or (np.ptp(gm[:, 0]) == 0.0 and np.ptp(gv[:, 0]) == 0.0)
    )
    return UtilityModel(
        kind="mean_stdev",
        n_states=u.shape[0],
        n_actions=k,
        features=np.hstack([u, gm, gv + gm * gm]),
        combine=combine,
        convex_reject_region=convex,
        params={"u": u, "g_mean": gm, "g_var": gv, "beta": float(beta)},
    )


def _maximin_model(tables: np.ndarray) -> UtilityModel:
    ts = np.array(tables, dtype=float)
    if ts.ndim != 3 or ts.shape[0] == 0:
        raise ValueError("maximin needs a nonempty stack of states-by-actions tables")
    n_scenarios, d, k = ts.shape
    # With identical action-1 columns, score(., 1) is affine while score(., 0) is
    # concave as a minimum of affine maps, so the differential is convex.
    convex = k == 2 and bool(np.all(ts[:, :, 1] == ts[0, :, 1]))
    return UtilityModel(
        kind="maximin",
        n_states=d,
        n_actions=k,
        # Column a * n_scenarios + j is table j's action-a column.
        features=ts.transpose(1, 2, 0).reshape(d, k * n_scenarios),
        combine=lambda f, a: np.min(f[..., a * n_scenarios : (a + 1) * n_scenarios], axis=-1),
        convex_reject_region=convex,
        params={"tables": ts},
    )


def _cvar_model(
    loss_values: Sequence, loss_probs: Sequence, tau: float
) -> UtilityModel:
    n_states = len(loss_values)
    if n_states == 0 or len(loss_probs) != n_states:
        raise ValueError("loss_values and loss_probs must align per state")
    n_actions = len(loss_values[0])
    # Tail mass and tail loss-sum per state collapse the conditional
    # expectation to a ratio of two affine functions of the belief.
    tail_mass = np.zeros((n_states, n_actions))
    tail_sum = np.zeros((n_states, n_actions))
    for w in range(n_states):
        if len(loss_values[w]) != n_actions or len(loss_probs[w]) != n_actions:
            raise ValueError(f"state {w}: ragged action axis in loss tables")
        for a in range(n_actions):
            vals = np.asarray(loss_values[w][a], dtype=float)
            probs = np.asarray(loss_probs[w][a], dtype=float)
            if vals.shape != probs.shape or vals.ndim != 1 or vals.size == 0:
                raise ValueError(f"state {w}, action {a}: bad loss distribution")
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > SUM_SLACK:
                raise ValueError(
                    f"state {w}, action {a}: loss probabilities must form a distribution"
                )
            over = vals > tau
            tail_mass[w, a] = probs[over].sum()
            tail_sum[w, a] = (probs[over] * vals[over]).sum()

    def combine(f, action):
        mass, total = f[..., action], f[..., n_actions + action]
        hit = mass > 0.0
        return np.where(hit, -total / np.where(hit, mass, 1.0), 0.0)[()]

    # Identical action-0 loss laws across states make score(., 0) constant and
    # leave a ratio of affine maps, whose strict sublevel sets are convex.
    convex = n_actions == 2 and all(
        list(loss_values[w][0]) == list(loss_values[0][0])
        and list(loss_probs[w][0]) == list(loss_probs[0][0])
        for w in range(n_states)
    )
    return UtilityModel(
        kind="cvar",
        n_states=n_states,
        n_actions=n_actions,
        features=np.hstack([tail_mass, tail_sum]),
        combine=combine,
        convex_reject_region=convex,
        params={
            "loss_values": [[list(map(float, c)) for c in row] for row in loss_values],
            "loss_probs": [[list(map(float, c)) for c in row] for row in loss_probs],
            "tau": float(tau),
        },
    )


def _custom_model(
    evaluator: Callable[[np.ndarray, int], float],
    n_states: int,
    n_actions: int,
    convex_reject_region: bool,
) -> UtilityModel:
    def combine(mu, action):
        if mu.ndim == 1:
            return float(evaluator(mu, action))
        return np.array([evaluator(row, action) for row in mu], dtype=float)

    return UtilityModel(
        kind="custom",
        n_states=n_states,
        n_actions=n_actions,
        combine=combine,
        convex_reject_region=convex_reject_region,
        params=None,
    )


def make_model(kind: str, **params) -> UtilityModel:
    """Build a receiver model of the given kind.

    Kinds and their keyword parameters:

    - ``expected``: u (states x actions)
    - ``mean_stdev``: u, g_mean, g_var (states x actions each), beta >= 0
    - ``maximin``: tables (scenarios x states x actions)
    - ``cvar``: loss_values, loss_probs (per state, per action, finite
      support), tau
    - ``custom``: evaluator, n_states, n_actions,
      convex_reject_region (default False)
    """
    builders = {
        "expected": _expected_model,
        "mean_stdev": _mean_stdev_model,
        "maximin": _maximin_model,
        "cvar": _cvar_model,
    }
    if kind == "custom":
        return _custom_model(
            params["evaluator"],
            params["n_states"],
            params["n_actions"],
            params.get("convex_reject_region", False),
        )
    if kind not in builders:
        raise ValueError(f"unknown receiver kind {kind!r}")
    return builders[kind](**params)


@dataclass(frozen=True)
class PersuasionInstance:
    """A full disclosure game: spaces, prior, both parties' preferences."""

    states: StateSpace
    actions: ActionSpace
    prior: Belief
    sender: SenderUtility
    receiver: UtilityModel

    def __post_init__(self):
        d, k = self.states.n, self.actions.n
        if self.prior.dim != d:
            raise ValueError("prior dimension does not match the state space")
        if self.sender.table.shape != (d, k):
            raise ValueError("sender table shape does not match the spaces")
        if (self.receiver.n_states, self.receiver.n_actions) != (d, k):
            raise ValueError("receiver model shape does not match the spaces")

    @property
    def n_states(self) -> int:
        return self.states.n

    @property
    def n_actions(self) -> int:
        return self.actions.n


def _tied(scores: np.ndarray) -> np.ndarray:
    """Mask of the scores within TIE_TOLERANCE of the best along the last axis."""
    return scores >= scores.max(axis=-1, keepdims=True) - TIE_TOLERANCE


def best_response(instance: PersuasionInstance, mu: np.ndarray) -> int:
    """The receiver's action at belief mu, ties broken in the sender's favor.

    Every action whose score is within TIE_TOLERANCE of the best is a tie;
    the pick is the tie with the largest sender payoff at mu, and the lowest
    index among equal payoffs, so repeated calls stay deterministic.
    """
    ties = np.nonzero(_tied(instance.receiver.score_all(mu)))[0]
    gains = [instance.sender.value(mu, a) for a in ties]
    return int(ties[int(np.argmax(gains))])


@dataclass(frozen=True, eq=False)
class PlanAtom:
    """One posterior in an optimal plan with its unconditional weight."""

    action: int
    posterior: np.ndarray
    weight: float
    label: str | None = None


@dataclass(frozen=True, eq=False)
class OptimalPlan:
    """Solver output: per-action joint mass over states plus its atoms.

    ``t[a, w]`` is the probability that state w occurs and the receiver
    ends up taking action a; summed over actions it reproduces the prior.
    ``atoms`` decompose each t[a] into posteriors with weights, so
    t[a] = sum of weight * posterior over the atoms of action a.
    """

    t: np.ndarray
    prior: np.ndarray
    value: float
    atoms: tuple[PlanAtom, ...]

    def check(self) -> None:
        """Raise unless the atoms and totals are mutually consistent."""
        if np.max(np.abs(self.t.sum(axis=0) - self.prior)) > PLAN_MASS_TOLERANCE:
            raise ValueError("plan mass does not add up to the prior")
        rebuilt = np.zeros_like(self.t)
        for atom in self.atoms:
            rebuilt[atom.action] += atom.weight * atom.posterior
        if np.max(np.abs(rebuilt - self.t)) > PLAN_ATOM_TOLERANCE:
            raise ValueError("plan atoms do not reproduce the joint mass")


# ---------------------------------------------------------------------------
# JSON instance schema


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise FormatError(f"{path}.{key}" if path else key, "missing field")
    return data[key]


def _number(raw, path: str) -> float:
    # Comparing with the largest double is exact for ints of any size and
    # false for NaN, so this admits exactly the numbers float() keeps finite.
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not (
        abs(raw) <= sys.float_info.max
    ):
        raise FormatError(path, "expected a finite number")
    return float(raw)


def _float_list(raw, path: str) -> list[float]:
    if not isinstance(raw, list):
        raise FormatError(path, "expected a list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(raw)]


def _matrix(raw, rows: int, cols: int, path: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != rows:
        raise FormatError(path, f"expected {rows} rows")
    out = np.zeros((rows, cols))
    for i, row in enumerate(raw):
        vals = _float_list(row, f"{path}[{i}]")
        if len(vals) != cols:
            raise FormatError(f"{path}[{i}]", f"expected {cols} entries")
        out[i] = vals
    return out


def _receiver_from_json(raw: dict, d: int, k: int) -> UtilityModel:
    kind = _require(raw, "kind", "receiver")
    if kind == "expected":
        return make_model("expected", u=_matrix(_require(raw, "u", "receiver"), d, k, "receiver.u"))
    if kind == "mean_stdev":
        return make_model(
            "mean_stdev",
            u=_matrix(_require(raw, "u", "receiver"), d, k, "receiver.u"),
            g_mean=_matrix(_require(raw, "g_mean", "receiver"), d, k, "receiver.g_mean"),
            g_var=_matrix(_require(raw, "g_var", "receiver"), d, k, "receiver.g_var"),
            beta=_number(_require(raw, "beta", "receiver"), "receiver.beta"),
        )
    if kind == "maximin":
        tables = _require(raw, "tables", "receiver")
        if not isinstance(tables, list) or len(tables) == 0:
            raise FormatError("receiver.tables", "expected a nonempty list of tables")
        stack = np.stack(
            [_matrix(tbl, d, k, f"receiver.tables[{i}]") for i, tbl in enumerate(tables)]
        )
        return make_model("maximin", tables=stack)
    if kind == "cvar":
        vals = _require(raw, "loss_values", "receiver")
        probs = _require(raw, "loss_probs", "receiver")
        for name, obj in (("loss_values", vals), ("loss_probs", probs)):
            if not isinstance(obj, list) or len(obj) != d:
                raise FormatError(f"receiver.{name}", f"expected {d} per-state rows")
            for i, row in enumerate(obj):
                if not isinstance(row, list) or len(row) != k:
                    raise FormatError(f"receiver.{name}[{i}]", f"expected {k} per-action cells")
                for a, cell in enumerate(row):
                    _float_list(cell, f"receiver.{name}[{i}][{a}]")
        tau = _number(_require(raw, "tau", "receiver"), "receiver.tau")
        try:
            return make_model("cvar", loss_values=vals, loss_probs=probs, tau=tau)
        except ValueError as exc:
            raise FormatError("receiver", str(exc)) from exc
    if kind == "custom":
        raise FormatError("receiver.kind", "custom models cannot be read from JSON")
    raise FormatError("receiver.kind", f"unknown receiver kind {kind!r}")


def instance_from_json(data: dict) -> PersuasionInstance:
    """Parse the instance schema, reporting schema violations by field path.

    Expected shape::

        {"states": [...], "actions": [...], "prior": [...],
         "sender_v": [[...]], "receiver": {"kind": ..., ...}}
    """
    if not isinstance(data, dict):
        raise FormatError("$", "instance document must be a JSON object")
    states_raw = _require(data, "states", "")
    actions_raw = _require(data, "actions", "")
    if not isinstance(states_raw, list) or not all(isinstance(s, str) for s in states_raw):
        raise FormatError("states", "expected a list of labels")
    if not isinstance(actions_raw, list) or not all(isinstance(s, str) for s in actions_raw):
        raise FormatError("actions", "expected a list of labels")
    try:
        states = StateSpace(tuple(states_raw))
    except ValueError as exc:
        raise FormatError("states", str(exc)) from exc
    try:
        actions = ActionSpace(tuple(actions_raw))
    except ValueError as exc:
        raise FormatError("actions", str(exc)) from exc
    d, k = states.n, actions.n

    prior_raw = _float_list(_require(data, "prior", ""), "prior")
    if len(prior_raw) != d:
        raise FormatError("prior", f"expected {d} weights")
    for i, w in enumerate(prior_raw):
        if w < WEIGHT_FLOOR:
            raise FormatError(f"prior[{i}]", f"negative weight {w!r}")
    try:
        prior = Belief(np.array(prior_raw))
    except ValueError as exc:
        raise FormatError("prior", str(exc)) from exc

    try:
        sender = SenderUtility(_matrix(_require(data, "sender_v", ""), d, k, "sender_v"))
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError("sender_v", str(exc)) from exc
    receiver_raw = _require(data, "receiver", "")
    if not isinstance(receiver_raw, dict):
        raise FormatError("receiver", "expected an object")
    receiver = _receiver_from_json(receiver_raw, d, k)
    return PersuasionInstance(
        states=states, actions=actions, prior=prior, sender=sender, receiver=receiver
    )


def instance_to_json(instance: PersuasionInstance) -> dict:
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
