"""Scheme compilation, validation, sampling, and the scheme schema."""

import numpy as np
import pytest

import oracles
from persuade import (
    ActionSpace,
    Belief,
    FormatError,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    SenderUtility,
    Signal,
    SignalingScheme,
    StateSpace,
    make_model,
    sample_scheme,
    sample_scheme_batch,
    scheme_from_json,
    scheme_from_plan,
    scheme_to_json,
    scheme_value,
    solve_binary,
    validate_scheme,
)
from conftest import threshold_instance


def _three_signal_plan():
    # Three interior accept posteriors, one third of the mass each: the
    # textbook full-persuasion split of the threshold game's uniform prior.
    atoms = []
    for i in range(3):
        post = np.zeros(4)
        post[i], post[3] = 0.75, 0.25
        atoms.append(PlanAtom(action=1, posterior=post, weight=1.0 / 3.0))
    t1 = sum(a.weight * a.posterior for a in atoms)
    return OptimalPlan(
        t=np.vstack([np.zeros(4), t1]),
        prior=np.full(4, 0.25),
        value=1.0,
        atoms=tuple(atoms),
    )


def test_scheme_from_plan_threshold_conditional():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    assert scheme.n_signals == 3
    cond = scheme.conditional
    for i in range(3):
        assert cond[i, i] == pytest.approx(1.0, abs=1e-12)
        assert cond[i, 3] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert np.allclose(cond.sum(axis=0), 1.0)
    report = validate_scheme(scheme, inst)
    assert report.ok
    assert np.min(report.margins) == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert scheme_value(scheme, inst) == pytest.approx(1.0, abs=1e-12)


def test_default_labels_by_support():
    inst = threshold_instance()
    post2 = np.array([0.75, 0.0, 0.0, 0.25])
    post3 = np.array([0.5, 0.3, 0.2, 0.0])
    atoms = (
        PlanAtom(action=1, posterior=np.eye(4)[0], weight=0.2),
        PlanAtom(action=1, posterior=post2, weight=0.4),
        PlanAtom(action=0, posterior=post3, weight=0.4),
    )
    t = np.zeros((2, 4))
    for a in atoms:
        t[a.action] += a.weight * a.posterior
    plan = OptimalPlan(t=t, prior=t.sum(axis=0), value=0.6, atoms=atoms)
    scheme = scheme_from_plan(plan, inst)
    assert scheme.labels == ("0", "mix(3,0,0.25)", "sig2")


def test_label_collisions_get_suffixed():
    inst = threshold_instance()
    atoms = (
        PlanAtom(action=1, posterior=np.eye(4)[0], weight=0.5, label="dup"),
        PlanAtom(action=0, posterior=np.eye(4)[1], weight=0.5, label="dup"),
    )
    plan = OptimalPlan(
        t=np.vstack([0.5 * np.eye(4)[1], 0.5 * np.eye(4)[0]]),
        prior=np.array([0.5, 0.5, 0.0, 0.0]),
        value=0.5,
        atoms=atoms,
    )
    scheme = scheme_from_plan(plan, inst)
    assert scheme.labels == ("dup", "dup+")


def test_zero_prior_states_get_unit_column_on_first_signal():
    inst = threshold_instance()
    prior = np.array([0.5, 0.5, 0.0, 0.0])
    atoms = (
        PlanAtom(action=1, posterior=np.eye(4)[0], weight=0.5),
        PlanAtom(action=0, posterior=np.eye(4)[1], weight=0.5),
    )
    plan = OptimalPlan(
        t=np.vstack([0.5 * np.eye(4)[1], 0.5 * np.eye(4)[0]]),
        prior=prior,
        value=0.5,
        atoms=atoms,
    )
    scheme = scheme_from_plan(plan, inst)
    assert np.allclose(scheme.conditional[:, 2], [1.0, 0.0])
    assert np.allclose(scheme.conditional[:, 3], [1.0, 0.0])
    assert np.allclose(scheme.conditional.sum(axis=0), 1.0)


def test_coalesce_merges_identical_posteriors_sender_preferred():
    inst = threshold_instance()
    post = np.array([0.75, 0.0, 0.0, 0.25])
    rest = np.array([0.0, 0.5, 0.0, 0.5])
    atoms = (
        PlanAtom(action=0, posterior=post, weight=0.2),
        PlanAtom(action=1, posterior=post, weight=0.3),
        PlanAtom(action=0, posterior=rest, weight=0.5),
    )
    t = np.zeros((2, 4))
    for a in atoms:
        t[a.action] += a.weight * a.posterior
    plan = OptimalPlan(t=t, prior=t.sum(axis=0), value=0.3, atoms=atoms)

    merged = scheme_from_plan(plan, inst, coalesce=True)
    assert merged.n_signals == 2
    keep = merged.signals[0]
    assert keep.marginal == pytest.approx(0.5, abs=1e-12)
    assert keep.action == 1  # sender prefers the accept recommendation
    split = scheme_from_plan(plan, inst, coalesce=False)
    assert split.n_signals == 3
    assert scheme_value(merged, inst) == pytest.approx(
        scheme_value(split, inst), abs=1e-10
    )
    # The coalesced law equals the summed uncoalesced rows.
    assert np.allclose(
        merged.conditional[0], split.conditional[0] + split.conditional[1]
    )


def test_scheme_from_plan_guards():
    inst = threshold_instance()
    empty = OptimalPlan(
        t=np.zeros((2, 4)), prior=np.full(4, 0.25), value=0.0, atoms=()
    )
    with pytest.raises(ValueError, match="no atoms"):
        scheme_from_plan(empty, inst)
    plan = _three_signal_plan()
    wrong = PersuasionInstance(
        states=StateSpace(("a", "b")),
        actions=ActionSpace(("x", "y")),
        prior=Belief(np.array([0.5, 0.5])),
        sender=SenderUtility(np.zeros((2, 2))),
        receiver=make_model("expected", u=np.zeros((2, 2))),
    )
    with pytest.raises(ValueError, match="state count"):
        scheme_from_plan(plan, wrong)


def test_validate_scheme_flags_disobedient_recommendations():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    # Re-tag the first signal with the rejected action: margin -1/12.
    bad_signals = (
        Signal(
            label=scheme.signals[0].label,
            posterior=scheme.signals[0].posterior,
            action=0,
            marginal=scheme.signals[0].marginal,
        ),
    ) + scheme.signals[1:]
    tampered = SignalingScheme(
        signals=bad_signals, conditional=scheme.conditional, prior=scheme.prior
    )
    report = validate_scheme(tampered, inst)
    assert report.flagged == (0,)
    assert not report.ok
    assert report.margins[0] == pytest.approx(-1.0 / 12.0, abs=1e-9)


def test_scheme_refuses_repeated_labels():
    scheme = scheme_from_plan(_three_signal_plan(), threshold_instance())
    first = scheme.signals[0]
    twin = Signal(first.label, scheme.signals[1].posterior, first.action, first.marginal)
    with pytest.raises(ValueError, match="distinct"):
        SignalingScheme(
            signals=(first, twin) + scheme.signals[2:],
            conditional=scheme.conditional,
            prior=scheme.prior,
        )


def test_validate_scheme_catches_broken_bayes_rows():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    cond = scheme.conditional.copy()
    cond[0] *= 0.5
    broken = SignalingScheme(
        signals=scheme.signals, conditional=cond, prior=scheme.prior
    )
    report = validate_scheme(broken, inst)
    assert report.bayes_residual > 1e-3
    assert not report.ok


def test_scheme_value_rescores_the_receiver():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    relabeled = SignalingScheme(
        signals=tuple(
            Signal(s.label, s.posterior, action=0, marginal=s.marginal)
            for s in scheme.signals
        ),
        conditional=scheme.conditional,
        prior=scheme.prior,
    )
    # Recommendations say reject, but the receiver still accepts there.
    assert scheme_value(relabeled, inst) == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic_and_bayes_consistent():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    states1, signals1 = sample_scheme_batch(scheme, seed=42, n=20000)
    states2, signals2 = sample_scheme_batch(scheme, seed=42, n=20000)
    assert np.array_equal(states1, states2)
    assert np.array_equal(signals1, signals2)

    counts = np.zeros((scheme.n_signals, 4))
    np.add.at(counts, (signals1, states1), 1.0)
    expected = scheme.conditional * scheme.prior[None, :] * 20000
    stat = oracles.chi_square_stat(counts.ravel(), expected.ravel())
    # 7 occupied cells; anything under ~30 is comfortably unsuspicious.
    assert stat < 30.0

    # The stream is blocked: items 0..1023 replay batch(seed), the next
    # block replays batch(seed + 1).
    stream = sample_scheme(scheme, seed=42)
    drawn = [next(stream) for _ in range(1100)]
    s0, g0 = sample_scheme_batch(scheme, seed=42, n=1024)
    s1, g1 = sample_scheme_batch(scheme, seed=43, n=1024)
    assert drawn[:1024] == list(zip(s0.tolist(), g0.tolist()))
    assert drawn[1024:] == list(zip(s1[:76].tolist(), g1[:76].tolist()))


def test_sample_batch_guards():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    with pytest.raises(ValueError):
        sample_scheme_batch(scheme, seed=1, n=-5)
    states, signals = sample_scheme_batch(scheme, seed=1, n=0)
    assert states.size == 0 and signals.size == 0


def test_scheme_json_roundtrip():
    inst = threshold_instance()
    plan = solve_binary(inst)
    scheme = scheme_from_plan(plan, inst)
    doc = scheme_to_json(scheme)
    back = scheme_from_json(doc)
    assert back.labels == scheme.labels
    assert np.allclose(back.conditional, scheme.conditional)
    assert np.allclose(back.prior, scheme.prior)
    for a, b in zip(back.signals, scheme.signals):
        assert a.action == b.action
        assert a.marginal == pytest.approx(b.marginal, abs=0.0)
        assert np.allclose(a.posterior, b.posterior)


def test_scheme_json_error_paths():
    inst = threshold_instance()
    doc = scheme_to_json(scheme_from_plan(_three_signal_plan(), inst))

    bad = {k: v for k, v in doc.items() if k != "conditional"}
    with pytest.raises(FormatError, match="conditional"):
        scheme_from_json(bad)

    bad = dict(doc)
    bad["signals"] = [dict(doc["signals"][0], posterior=[0.5, 0.5])] + doc["signals"][1:]
    with pytest.raises(FormatError, match=r"signals\[0\].posterior"):
        scheme_from_json(bad)

    bad = dict(doc)
    bad["signals"] = [dict(doc["signals"][0], action=True)] + doc["signals"][1:]
    with pytest.raises(FormatError, match=r"signals\[0\].action"):
        scheme_from_json(bad)

    bad = dict(doc)
    bad["signals"] = [dict(doc["signals"][0], marginal=1.5)] + doc["signals"][1:]
    with pytest.raises(FormatError, match=r"signals\[0\].marginal"):
        scheme_from_json(bad)

    bad = dict(doc)
    bad["conditional"] = [[1.5] * 4] + doc["conditional"][1:]
    with pytest.raises(FormatError, match=r"conditional\[0\]"):
        scheme_from_json(bad)

    bad = dict(doc)
    bad["prior"] = [-0.2, 0.4, 0.4, 0.4]
    with pytest.raises(FormatError, match="prior"):
        scheme_from_json(bad)
