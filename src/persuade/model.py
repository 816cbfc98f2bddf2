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

# Scores this close to the best tie (best responses; classify_states puts such a
# state on both sides): the LP residual, to which a plan's posteriors are exact.
TIE_TOLERANCE = 1e-9
# Belief weights may dip this far below zero before construction fails: the
# round-off of a difference like 1 - gamma, far under any checked mass.
WEIGHT_FLOOR = -1e-12
# Weight vectors renormalize when their sum is this close to one: JSON
# written with six or more significant digits, and nothing further off.
SUM_SLACK = 1e-6
# ... but sums within float noise of one (some 450 ulps) stay as they are: the
# division is not bit-stable, and parse/serialize must be a fixpoint.
SUM_NOISE = 1e-13
# OptimalPlan.check: joint mass against the prior, and atoms against it, at the
# LP residual its weights met; mass no larger is none (full_persuasion, the
# threshold and sandwich audits).
PLAN_MASS_TOLERANCE = 1e-9
# Tall products (``_tall_matmul``) and slot scoring run in row blocks of at most
# this many multiply-adds (rows x inner x width) each.  Above a size cliff
# OpenBLAS hands one product to its worker thread, which spins on after the
# call, slowing the ops that follow, and touches a buffer of its own.  On a
# 2-core Haswell host (OpenBLAS 0.3.31) gemm went threaded between 983,040 and
# 1,020,000 multiply-adds (32,768 x 5 by 5 x 6 stayed on the calling thread,
# 34,000 x 5 by 5 x 6 did not) and gemv between 450,000 and 500,000; the
# cliffs depend on the host and the BLAS build, so the bound sits well below.
ROW_BLOCK_MADDS = 1 << 18
# Row blocks start at multiples of this many rows.  OpenBLAS takes rows four
# at a time and its leftover rows by another path, so on that host a block
# edge elsewhere moved a row's last bit (gemv from 8 inner entries up, gemm
# from 16); at these edges every block equalled its rows of one unthreaded
# product, bit for bit, at every size probed.
ROW_BLOCK_ALIGN = 4

__all__ = [
    "TIE_TOLERANCE",
    "WEIGHT_FLOOR",
    "SUM_SLACK",
    "SUM_NOISE",
    "PLAN_MASS_TOLERANCE",
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
    "instance_from_json",
]


class FormatError(ValueError):
    """Raised when a JSON document violates the instance or scheme schema.

    ``path`` locates the offending field, e.g. ``"prior[1]"``; ``message`` says what is wrong.
    """

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class _LabelSpace:
    """Ordered finite set of distinct labels; ``_noun`` names them in errors."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError(f"{self._noun} space must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"{self._noun} labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)


class StateSpace(_LabelSpace):
    """Ordered finite set of hidden states."""

    _noun = "state"


class ActionSpace(_LabelSpace):
    """Ordered finite set of receiver actions.

    For binary problems the convention throughout is that action 1 is the
    one the sender wants taken (accept/join) and action 0 is the fallback.
    """

    _noun = "action"


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
    ``params`` are the builder's inputs, arrays copied; None for a custom model.

    ``edge_root(f_reject, f_accept)``, set by a built-in kind whose
    rejection region is convex, maps the feature rows of both ends of each
    (strict-reject, accept) edge to the weight gamma on the reject end at
    which the differential at gamma * f_reject + (1 - gamma) * f_accept
    crosses zero: along an edge every built-in kind's features are affine
    in gamma, so each root has a closed form.  NaN where a pair has none;
    None for custom models, whose edges are bisected.
    """

    kind: str
    n_states: int
    n_actions: int
    combine: Callable[[np.ndarray, int], np.ndarray | float]
    features: np.ndarray | None = None
    convex_reject_region: bool = False
    params: dict | None = None
    edge_root: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def _feature_map(self, mu) -> np.ndarray:
        # The belief (or each row of a batch) must have one entry per state.
        length = np.shape(mu)[-1] if np.ndim(mu) else 0
        if length != self.n_states:
            raise ValueError(f"belief has {length} entries, the model has {self.n_states} states")
        mu = np.asarray(mu, dtype=float)
        if self.features is None:
            return mu
        return _tall_matmul(mu, self.features) if mu.ndim == 2 else mu @ self.features

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
        dense beliefs), in ``_row_blocks`` of slots x width multiply-adds a
        row.  No beliefs make one empty block, so the model refuses a
        non-binary differential however few beliefs it is given.
        """
        width = self.n_states if self.features is None else self.features.shape[1]
        out = np.empty(states.shape[0])
        for lo, hi in _row_blocks(states.shape[0], width * states.shape[1]):
            s, w = states[lo:hi], weights[lo:hi]
            if self.features is None:
                f = _dense_rows(self.n_states, s, w)
            else:
                f = sum(w[:, k, None] * self.features[s[:, k]] for k in range(s.shape[1]))
            out[lo:hi] = self._difference(f)
        return out

    def _difference(self, f: np.ndarray) -> np.ndarray | float:
        if self.n_actions != 2:
            raise ValueError("differential utility needs exactly two actions")
        return self.combine(f, 1) - self.combine(f, 0)


def _row_blocks(n_rows: int, per_row: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` slices of ``range(n_rows)``: the fewest blocks of at most
    ROW_BLOCK_MADDS // per_row rows (a row at least), cut into equal parts of
    whole ROW_BLOCK_ALIGN-row units, so sizes differ by at most one unit and
    only the last block holds a partial unit.  One empty block for no rows."""
    most = max(1, ROW_BLOCK_MADDS // max(1, per_row))
    unit = min(ROW_BLOCK_ALIGN, most)
    units = -(-n_rows // unit)
    parts = max(1, -(-units // (most // unit)))
    edges = [min(n_rows, i * units // parts * unit) for i in range(parts + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _tall_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-d ``a`` and a 1-d or 2-d ``b``, in ``_row_blocks``.

    Each block is written into one preallocated output, so no product is
    large enough to go to OpenBLAS's threads (see ROW_BLOCK_MADDS).  Where
    measured (d 2-400, widths 1-24) the blocks gave the bits of one product
    on the calling thread; a product past the cliffs, threaded or on
    OpenBLAS's large-matrix path, may differ from them in the last bit
    (gemm at 16 or more inner entries, gemv at 8).
    """
    out = np.empty(a.shape[:1] + b.shape[1:], dtype=np.result_type(a, b))
    for lo, hi in _row_blocks(a.shape[0], a.shape[1] * (b.shape[1] if b.ndim == 2 else 1)):
        np.matmul(a[lo:hi], b, out=out[lo:hi])
    return out


def _dense_rows(n_states: int, states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i is ``sum_k weights[i, k] * e_{states[i, k]}``, added into zeros slot by slot."""
    out = np.zeros((states.shape[0], n_states))
    rows = np.arange(states.shape[0])
    for k in range(states.shape[1]):
        out[rows, states[:, k]] += weights[:, k]
    return out


def _expected_model(u: np.ndarray) -> UtilityModel:
    u = np.array(u, dtype=float)
    if u.ndim != 2:
        raise ValueError("expected-utility table must be states-by-actions")

    def edge_root(f_r, f_a):
        # The differential is affine along the edge.
        d_r, d_a = f_r[:, 1] - f_r[:, 0], f_a[:, 1] - f_a[:, 0]
        return d_a / (d_a - d_r)

    return UtilityModel(
        kind="expected",
        n_states=u.shape[0],
        n_actions=u.shape[1],
        features=u,
        combine=lambda f, action: f[..., action],
        convex_reject_region=u.shape[1] == 2,
        params={"u": u},
        edge_root=edge_root if u.shape[1] == 2 else None,
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

    def edge_root(f_r, f_a):
        # Then D = B - beta sqrt(V) along the edge, with B = u1 - u0 + beta sd0
        # affine and V = (1 - g) V_a + g V_r + g (1 - g) dm^2 the action-1
        # variance.  The root is the smaller one of A g^2 + 2 P g + C = 0,
        # which is B^2 = beta^2 V where B >= 0: C / (beta sqrt(H) - P), with
        # P^2 - A C = beta^2 H expanded so that no digits cancel, as in
        # gamma_closed_form.
        sd0 = np.sqrt(np.maximum(f_a[:, 4] - f_a[:, 2] ** 2, 0.0))
        v_r, v_a = (np.maximum(f[:, 5] - f[:, 3] ** 2, 0.0) for f in (f_r, f_a))
        b_a = f_a[:, 1] - f_a[:, 0] + beta * sd0
        b = f_r[:, 1] - f_r[:, 0] - (f_a[:, 1] - f_a[:, 0])
        dm2 = (f_r[:, 3] - f_a[:, 3]) ** 2
        kv = v_r - v_a + dm2
        sd_a = beta * np.sqrt(v_a)
        c = (b_a - sd_a) * (b_a + sd_a)
        p = b_a * b - 0.5 * beta * beta * kv
        h = (beta * beta * (0.25 * kv * kv + dm2 * v_a)
             + b * b * v_a - b_a * b * kv - dm2 * b_a * b_a)
        den = beta * np.sqrt(np.maximum(h, 0.0)) - p
        gamma = np.divide(c, den, out=np.full(c.shape, np.nan), where=den > 0.0)
        # C <= 0: the accept end is on the surface, and D is convex.
        return np.where(c <= 0.0, 0.0, gamma)

    return UtilityModel(
        kind="mean_stdev",
        n_states=u.shape[0],
        n_actions=k,
        features=np.hstack([u, gm, gv + gm * gm]),
        combine=combine,
        convex_reject_region=convex,
        params={"u": u, "g_mean": gm, "g_var": gv, "beta": float(beta)},
        edge_root=edge_root if convex else None,
    )


def _maximin_model(tables: np.ndarray) -> UtilityModel:
    ts = np.array(tables, dtype=float)
    if ts.ndim != 3 or ts.shape[0] == 0:
        raise ValueError("maximin needs a nonempty stack of states-by-actions tables")
    n_scenarios, d, k = ts.shape
    # With identical action-1 columns, score(., 1) is affine while score(., 0) is
    # concave as a minimum of affine maps, so the differential is convex.
    convex = k == 2 and bool(np.all(ts[:, :, 1] == ts[0, :, 1]))

    def edge_root(f_r, f_a):
        # Then D = max_j (f[n_scenarios] - f[j]), each piece affine, and every
        # piece is below 0 at the reject end: the largest root among the
        # pieces that are >= 0 at the accept end.
        p_r = f_r[:, n_scenarios, None] - f_r[:, :n_scenarios]
        p_a = f_a[:, n_scenarios, None] - f_a[:, :n_scenarios]
        roots = np.divide(p_a, p_a - p_r, out=np.zeros(p_a.shape), where=p_a >= 0.0)
        return roots.max(axis=1)

    return UtilityModel(
        kind="maximin",
        n_states=d,
        n_actions=k,
        # Column a * n_scenarios + j is table j's action-a column.
        features=ts.transpose(1, 2, 0).reshape(d, k * n_scenarios),
        combine=lambda f, a: np.min(f[..., a * n_scenarios : (a + 1) * n_scenarios], axis=-1),
        convex_reject_region=convex,
        params={"tables": ts},
        edge_root=edge_root if convex else None,
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
    features = np.hstack([tail_mass, tail_sum])
    c0 = float(combine(features[0], 0))

    def edge_root(f_r, f_a):
        # Then score 0 is a constant c0, and where the action-1 tail mass M is
        # positive D = -(T + c0 M) / M for the tail loss-sum T: the root of
        # the affine T + c0 M.  With no mass at the reject end, the
        # differential jumps there and the edge is bisected.
        g_r, g_a = (f[:, 3] + c0 * f[:, 1] for f in (f_r, f_a))
        ok = (f_r[:, 1] > 0.0) & (g_r > g_a)
        return np.divide(g_a, g_a - g_r, out=np.full(g_a.shape, np.nan), where=ok)

    return UtilityModel(
        kind="cvar",
        n_states=n_states,
        n_actions=n_actions,
        features=features,
        combine=combine,
        convex_reject_region=convex,
        params={
            "loss_values": [[list(map(float, c)) for c in row] for row in loss_values],
            "loss_probs": [[list(map(float, c)) for c in row] for row in loss_probs],
            "tau": float(tau),
        },
        edge_root=edge_root if convex else None,
    )


def _custom_model(
    evaluator: Callable[[np.ndarray, int], float],
    n_states: int,
    n_actions: int,
    convex_reject_region: bool = False,
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
        "custom": _custom_model,
    }
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


def best_response(instance: PersuasionInstance, mu: np.ndarray) -> int | np.ndarray:
    """The receiver's action at belief mu, or one per row of a block (an int array).

    Every action whose score is within TIE_TOLERANCE of the best is a tie;
    the pick is the tie with the largest sender payoff at mu, and the lowest
    index among equal payoffs, so repeated calls stay deterministic.
    """
    tied = _tied(instance.receiver.score_all(mu))
    # Each payoff adds its terms in state order, so equal sender columns pay equal bits.
    gains = (np.asarray(mu, dtype=float)[..., None] * instance.sender.table).sum(axis=-2)
    picks = np.argmax(np.where(tied, gains, -np.inf), axis=-1)
    return picks if picks.ndim else int(picks)


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
        if np.max(np.abs(rebuilt - self.t)) > PLAN_MASS_TOLERANCE:
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
    top = sys.float_info.max  # finite floats pass as they are; only the rest format a path
    return [x if type(x) is float and abs(x) <= top else _number(x, f"{path}[{i}]")
            for i, x in enumerate(raw)]


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


def _construct(path: str, build, *args):
    """Return ``build(*args)``; a ValueError it raises becomes a FormatError at ``path``."""
    try:
        return build(*args)
    except FormatError:
        raise
    except ValueError as exc:
        raise FormatError(path, str(exc)) from exc


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
        return make_model("cvar", loss_values=vals, loss_probs=probs, tau=tau)
    if kind == "custom":
        raise FormatError("receiver.kind", "custom models cannot be read from JSON")
    raise FormatError("receiver.kind", f"unknown receiver kind {kind!r}")


def instance_from_json(data: dict) -> PersuasionInstance:
    """Parse the instance schema, reporting schema errors by field path.

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
    states = _construct("states", StateSpace, tuple(states_raw))
    actions = _construct("actions", ActionSpace, tuple(actions_raw))
    d, k = states.n, actions.n

    prior_raw = _float_list(_require(data, "prior", ""), "prior")
    if len(prior_raw) != d:
        raise FormatError("prior", f"expected {d} weights")
    for i, w in enumerate(prior_raw):
        if w < WEIGHT_FLOOR:
            raise FormatError(f"prior[{i}]", f"negative weight {w!r}")
    prior = _construct("prior", Belief, np.array(prior_raw))
    sender = _construct(
        "sender_v", SenderUtility, _matrix(_require(data, "sender_v", ""), d, k, "sender_v")
    )
    receiver_raw = _require(data, "receiver", "")
    if not isinstance(receiver_raw, dict):
        raise FormatError("receiver", "expected an object")
    receiver = _construct("receiver", _receiver_from_json, receiver_raw, d, k)
    return PersuasionInstance(
        states=states, actions=actions, prior=prior, sender=sender, receiver=receiver
    )
