"""Shared instance builders for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from persuade import (
    ActionSpace,
    Belief,
    PersuasionInstance,
    QueueInstance,
    SenderUtility,
    StateSpace,
    make_model,
)


def threshold_instance() -> PersuasionInstance:
    """Four states, accept iff some single state carries mass two thirds.

    The receiver's score for accepting is the largest probability among
    the first three states minus 2/3; rejecting scores zero.  The prior
    is uniform, the sender earns 1 on accept.
    """

    def evaluator(mu: np.ndarray, action: int) -> float:
        if action == 0:
            return 0.0
        return float(np.max(mu[:3]) - 2.0 / 3.0)

    model = make_model(
        "custom",
        evaluator=evaluator,
        n_states=4,
        n_actions=2,
        convex_reject_region=True,
    )
    return PersuasionInstance(
        states=StateSpace(("0", "1", "2", "3")),
        actions=ActionSpace(("pass", "take")),
        prior=Belief(np.full(4, 0.25)),
        sender=SenderUtility(np.array([[0.0, 1.0]] * 4)),
        receiver=model,
    )


def threshold_instance_dict() -> dict:
    """JSON form of the same game, encoded through the maximin kind.

    Accepting pays zero in every scenario, so the accept score is linear
    (constant).  Rejecting pays 2/3 - 1{w == j} under scenario j, whose
    worst case over j is 2/3 - max(mu_0, mu_1, mu_2): the differential
    comes out to max(mu_0, mu_1, mu_2) - 2/3, the same game as above.
    """
    tables = []
    for j in range(3):
        reject = [(2.0 / 3.0) - (1.0 if w == j else 0.0) for w in range(4)]
        tables.append([[reject[w], 0.0] for w in range(4)])
    return {
        "states": ["0", "1", "2", "3"],
        "actions": ["pass", "take"],
        "prior": [0.25, 0.25, 0.25, 0.25],
        "sender_v": [[0.0, 1.0]] * 4,
        "receiver": {"kind": "maximin", "tables": tables},
    }


def reference_queue() -> QueueInstance:
    return QueueInstance(arrival_rate=0.95, beta=2.5, tau=7.5, capacity=100)


def random_eum_instance(rng: np.random.Generator) -> PersuasionInstance:
    d = int(rng.integers(2, 5))
    n_actions = int(rng.integers(2, 4))
    u = rng.normal(size=(d, n_actions))
    v = rng.normal(size=(d, n_actions))
    prior = rng.dirichlet(np.ones(d))
    return PersuasionInstance(
        states=StateSpace(tuple(str(w) for w in range(d))),
        actions=ActionSpace(tuple(f"a{a}" for a in range(n_actions))),
        prior=Belief(prior),
        sender=SenderUtility(v),
        receiver=make_model("expected", u=u),
    )


def random_mean_stdev_instance(rng: np.random.Generator) -> PersuasionInstance:
    d = int(rng.integers(2, 5))
    u = rng.normal(size=(d, 2))
    beta = float(rng.uniform(0.0, 2.0))
    g_mean = np.column_stack([np.zeros(d), rng.uniform(0.5, 4.0, size=d)])
    g_var = np.column_stack([np.zeros(d), rng.uniform(0.2, 3.0, size=d)])
    v = rng.normal(size=(d, 2))
    v[:, 1] = v[:, 0] + rng.uniform(0.1, 1.0, size=d)
    prior = rng.dirichlet(np.ones(d))
    return PersuasionInstance(
        states=StateSpace(tuple(str(w) for w in range(d))),
        actions=ActionSpace(("no", "yes")),
        prior=Belief(prior),
        sender=SenderUtility(v),
        receiver=make_model(
            "mean_stdev", u=u, g_mean=g_mean, g_var=g_var, beta=beta
        ),
    )


# Every receiver kind make_model builds; seeded_instance draws one of each.
RECEIVER_KINDS = ("expected", "mean_stdev", "maximin", "cvar", "custom")


def seeded_instance(kind: str, seed: int, d: int, n_actions: int) -> PersuasionInstance:
    """A seeded instance of receiver ``kind``, with no structure imposed."""
    rng = np.random.default_rng([seed, d, n_actions, RECEIVER_KINDS.index(kind)])
    shape = (d, n_actions)
    if kind == "expected":
        params = {"u": rng.normal(size=shape)}
    elif kind == "mean_stdev":
        params = {"u": rng.normal(size=shape), "g_mean": rng.uniform(0.0, 1.0, shape),
                  "g_var": rng.uniform(0.05, 1.0, shape), "beta": float(rng.uniform(0.2, 1.0))}
    elif kind == "maximin":
        params = {"tables": rng.uniform(-1.0, 1.0, (int(rng.integers(2, 5)), d, n_actions))}
    elif kind == "cvar":
        values = np.sort(rng.uniform(0.0, 2.0, (d, n_actions, 4)), axis=-1)
        probs = rng.dirichlet(np.ones(4), size=shape)
        params = {"loss_values": values.tolist(), "loss_probs": probs.tolist(),
                  "tau": float(rng.uniform(0.2, 1.0))}
    else:
        gain, risk = rng.normal(size=shape), rng.uniform(0.0, 1.0, shape)
        params = {"evaluator": lambda mu, a: float(mu @ gain[:, a] - (mu @ risk[:, a]) ** 2),
                  "n_states": d, "n_actions": n_actions}
    return PersuasionInstance(
        states=StateSpace(tuple(f"s{w}" for w in range(d))),
        actions=ActionSpace(tuple(f"a{a}" for a in range(n_actions))),
        prior=Belief(rng.dirichlet(np.ones(d))),
        sender=SenderUtility(rng.uniform(0.0, 1.0, shape)),
        receiver=make_model(kind, **params),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
