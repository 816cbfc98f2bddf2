"""Scheme compilation, validation, sampling, and the scheme schema."""

import dataclasses
import json

import numpy as np
import pytest

import oracles
from persuade import (
    ActionSpace,
    Belief,
    FormatError,
    GridSpec,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    QueueInstance,
    SenderUtility,
    Signal,
    SignalingScheme,
    StateSpace,
    grid_point_sets,
    make_model,
    sample_scheme_batch,
    scheme_from_json,
    scheme_from_plan,
    scheme_to_json,
    scheme_value,
    solve_binary,
    solve_general,
    solve_queue,
    validate_scheme,
)
from conftest import RECEIVER_KINDS, seeded_instance, threshold_instance
from persuade.scheme import POSTERIOR_TOLERANCE, _GuideTable


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


def test_joint_mass_off_a_small_prior_compiles_to_a_law():
    # State 0 has prior 1e-6, and the plan's joint mass misses it by 1e-14,
    # well inside the LP residual: divided by the prior, the law's column
    # would sum to 1 + 1e-8.  Each column is divided by its own joint mass.
    prior = np.array([1e-6, 0.6, 0.4 - 1e-6])
    inst = PersuasionInstance(
        states=StateSpace(("low", "mid", "high")),
        actions=ActionSpace(("pass", "take")),
        prior=Belief(prior),
        sender=SenderUtility(np.array([[0.0, 1.0]] * 3)),
        receiver=make_model("expected", u=np.array([[0.0, 2.0], [0.0, -1.0], [0.0, -1.0]])),
    )
    blend = 3.0 * (prior[0] + 1e-14)
    atoms = (
        PlanAtom(action=1, posterior=np.array([1.0, 2.0, 0.0]) / 3.0, weight=blend),
        PlanAtom(action=0, posterior=np.eye(3)[1], weight=prior[1] - 2.0 * blend / 3.0),
        PlanAtom(action=0, posterior=np.eye(3)[2], weight=prior[2]),
    )
    t = np.zeros((2, 3))
    for atom in atoms:
        t[atom.action] += atom.weight * atom.posterior
    assert abs(t.sum(axis=0)[0] - prior[0]) == pytest.approx(1e-14, rel=1e-3)
    plan = OptimalPlan(t=t, prior=prior, value=float(t[1].sum()), atoms=atoms)
    plan.check()
    scheme = scheme_from_plan(plan, inst)
    assert np.abs(scheme.conditional.sum(axis=0) - 1.0).max() <= 1e-15
    report = validate_scheme(scheme, inst)
    assert report.ok and not report.flagged


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


def _near(posterior, gap):
    # Move ``gap`` of mass from the largest entry to the next state's.
    out = posterior.copy()
    top = int(np.argmax(out))
    out[top] -= gap
    out[(top + 1) % out.size] += gap
    return out


@pytest.mark.parametrize("kind", RECEIVER_KINDS)
@pytest.mark.parametrize("n_actions", [2, 3])
def test_scheme_from_plan_matches_the_pairwise_merge(kind, n_actions):
    # A grid plan's atoms, each followed by copies recommending the next
    # action: one just inside POSTERIOR_TOLERANCE, which merges into the
    # atom's signal (taking its action and label when that pays the sender
    # more); one just outside, a signal of its own; and one halfway between
    # those two, within tolerance of both signals, which joins the first.
    # Every signal and law entry has the bits of the pairwise merge.  The
    # weights are scaled to a unit sum, and the prior is the one the merged
    # signals reproduce, so that the compiled law is a law.
    for seed in range(3):
        inst = seeded_instance(kind, seed, 3, n_actions)
        plan = solve_general(inst, grid_point_sets(inst, GridSpec(k=6, dim=3)))
        scale = 1.0 / (1.0 + 0.06 * len(plan.atoms))
        atoms = []
        for i, atom in enumerate(plan.atoms):
            other = (atom.action + 1) % n_actions
            atoms += [
                PlanAtom(atom.action, atom.posterior, scale * atom.weight, atom.label),
                PlanAtom(other, _near(atom.posterior, 0.999 * POSTERIOR_TOLERANCE), 0.01 * scale, f"in{i}"),
                PlanAtom(other, _near(atom.posterior, 1.001 * POSTERIOR_TOLERANCE), 0.02 * scale, f"out{i}"),
                PlanAtom(other, _near(atom.posterior, 0.5005 * POSTERIOR_TOLERANCE), 0.03 * scale, f"mid{i}"),
            ]
        signals = 2 * len(plan.atoms)
        plan = OptimalPlan(t=plan.t, prior=plan.prior, value=plan.value, atoms=tuple(atoms))
        rows = oracles.coalesce_reference(plan, inst)
        prior = sum(weight * posterior for posterior, weight, _, _ in rows)
        plan = OptimalPlan(t=plan.t, prior=prior, value=plan.value, atoms=plan.atoms)
        scheme = scheme_from_plan(plan, inst)
        assert scheme.n_signals == len(rows) == signals
        assert all(sig.label.startswith("out") == (i % 2 == 1) for i, sig in enumerate(scheme.signals))
        live = plan.prior > 0.0
        for sig, cond, (posterior, weight, action, label) in zip(scheme.signals, scheme.conditional, rows):
            assert sig.posterior.tobytes() == posterior.tobytes()
            assert float(sig.marginal).hex() == float(weight).hex()
            assert sig.action == action
            assert label is None or sig.label == label
            assert cond[live].tobytes() == (weight * posterior[live] / plan.prior[live]).tobytes()


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


def test_scheme_refuses_a_law_with_negative_entries():
    # Each column sums to 1, yet state 1 charges signal 1 -0.5 and signal 0
    # 1.5: a CDF row that is not monotone, which the sampler and the
    # simulator would draw from.
    signals = (Signal("a", np.array([0.75, 0.25]), 1, 1.0), Signal("b", np.array([0.5, 0.5]), 0, 0.0))
    with pytest.raises(FormatError, match=r"^conditional\[1\]: entries must be probabilities$"):
        SignalingScheme(signals, np.array([[1.5, 0.5], [-0.5, 0.5]]), np.array([0.5, 0.5]))


def _edit_signal(i, **change):
    def edit(signals, cond, prior):
        signals[i] = dataclasses.replace(signals[i], **change)
    return edit


def _set(field, index, value):
    def edit(signals, cond, prior):
        {"cond": cond, "prior": prior}[field][index] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("prior", 1, -0.25), r"prior: weights must be nonnegative"),
        (_set("prior", 1, np.nan), r"prior: weights must be nonnegative"),
        (_set("prior", 1, 0.2), r"prior: weights must sum to 1"),
        (_edit_signal(1, posterior=np.array([-1e-9, 0.75, 0.0, 0.25 + 1e-9])),
         r"signals\[1\]\.posterior: entries must form a distribution"),
        (_edit_signal(1, posterior=np.array([0.0, 0.75, 0.0, 0.2])),
         r"signals\[1\]\.posterior: entries must form a distribution"),
        (_edit_signal(1, posterior=np.array([0.75, 0.25])),
         r"signals\[1\]\.posterior: entries must form a distribution"),
        (_edit_signal(1, posterior=np.array([np.nan, 0.75, 0.0, 0.25])),
         r"signals\[1\]\.posterior: entries must form a distribution"),
        (_edit_signal(0, marginal=1.5), r"signals\[0\]\.marginal: probability 1\.5 out of range"),
        (_edit_signal(0, marginal=-1e-9), r"signals\[0\]\.marginal: probability -1e-09 out of range"),
        (_edit_signal(0, marginal=np.nan), r"signals\[0\]\.marginal: probability nan out of range"),
        (_set("cond", (2, 0), -1e-9), r"conditional\[2\]: entries must be probabilities"),
        (_set("cond", (2, 0), np.nan), r"conditional\[2\]: entries must be probabilities"),
        (_set("cond", (1, 3), 1.5), r"conditional\[1\]: entries must be probabilities"),
        (_set("cond", (0, 3), 0.0), r"conditional: law of state 3 sums to 0\.666.*, not 1"),
        (_set("cond", (0, 3), 1.0 / 3.0 + 2e-9), r"conditional: law of state 3 sums to 1\.000000002.*, not 1"),
    ],
    ids=["prior-negative", "prior-nan", "prior-sum", "posterior-negative", "posterior-sum",
         "posterior-shape", "posterior-nan", "marginal-high", "marginal-low", "marginal-nan",
         "entry-low", "entry-nan", "entry-high", "column-low", "column-high"],
)
def test_scheme_refuses_what_is_not_a_law(edit, message):
    # One rule a case, at the field path scheme_from_json reports.
    scheme = scheme_from_plan(_three_signal_plan(), threshold_instance())
    signals, cond, prior = list(scheme.signals), scheme.conditional.copy(), scheme.prior.copy()
    SignalingScheme(tuple(signals), cond, prior)
    edit(signals, cond, prior)
    with pytest.raises(FormatError, match=f"^{message}$"):
        SignalingScheme(tuple(signals), cond, prior)


def test_scheme_clips_entries_a_hair_below_zero_into_read_only_copies():
    # As Belief does: entries in [WEIGHT_FLOOR, 0) become 0, and the law
    # still sums to 1 within ROW_SUM_TOLERANCE.  What the scheme keeps
    # cannot be written to, so the law it was built with stays a law.
    scheme = scheme_from_plan(_three_signal_plan(), threshold_instance())
    cond = scheme.conditional.copy()
    cond[1, 0], cond[0, 0] = -5e-13, 1.0 + 5e-13
    post = np.array([0.75, -5e-13, 0.0, 0.25 + 5e-13])
    signals = (dataclasses.replace(scheme.signals[0], posterior=post),
               dataclasses.replace(scheme.signals[1], marginal=-5e-13)) + scheme.signals[2:]
    clipped = SignalingScheme(signals, cond, scheme.prior)
    assert clipped.conditional[1, 0] == 0.0 and not np.signbit(clipped.conditional).any()
    assert clipped.conditional[0, 0] == cond[0, 0]
    assert clipped.signals[0].posterior.tolist() == [0.75, 0.0, 0.0, 0.25 + 5e-13]
    assert clipped.signals[1].marginal == 0.0
    assert post[1] == -5e-13 and cond[1, 0] == -5e-13  # the inputs are not written to
    with pytest.raises(ValueError, match="read-only"):
        clipped.conditional[:, 1] = [1.5, -0.5, 0.0]
    assert not clipped.prior.flags.writeable and not clipped.signals[2].posterior.flags.writeable


def test_scheme_refuses_repeated_labels():
    scheme = scheme_from_plan(_three_signal_plan(), threshold_instance())
    first = scheme.signals[0]
    twin = Signal(first.label, scheme.signals[1].posterior, first.action, first.marginal)
    with pytest.raises(FormatError, match=r"^signals\[1\]\.label: labels must be distinct: 'mix"):
        SignalingScheme(
            signals=(first, twin) + scheme.signals[2:],
            conditional=scheme.conditional,
            prior=scheme.prior,
        )


def test_validate_scheme_catches_broken_bayes_rows():
    # Halving a row leaves no law, which SignalingScheme refuses when it is
    # built.  Moving state 3's mass from signal 0 to signal 1 keeps a law
    # whose rows no longer give the signals' marginals and posteriors.
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    cond = scheme.conditional.copy()
    cond[0] *= 0.5
    with pytest.raises(FormatError, match=r"^conditional: law of state 0 sums to 0\.5, not 1$"):
        SignalingScheme(signals=scheme.signals, conditional=cond, prior=scheme.prior)
    cond = scheme.conditional.copy()
    cond[1, 3] += cond[0, 3]
    cond[0, 3] = 0.0
    broken = SignalingScheme(signals=scheme.signals, conditional=cond, prior=scheme.prior)
    report = validate_scheme(broken, inst)
    assert report.bayes_residual <= 1e-15
    assert report.marginal_residual == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert report.posterior_residual > 1e-3
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


def test_sample_batch_guards():
    inst = threshold_instance()
    scheme = scheme_from_plan(_three_signal_plan(), inst)
    with pytest.raises(ValueError):
        sample_scheme_batch(scheme, seed=1, n=-5)
    states, signals = sample_scheme_batch(scheme, seed=1, n=0)
    assert states.size == 0 and signals.size == 0


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 9, 40])
def test_guide_table_counts_what_searchsorted_does(width):
    # Rows with long runs of equal entries, zeros first, ending at 1.0; the
    # draws sit on entries, on bucket edges, one ulp below each, and between.
    rng = np.random.default_rng(width)
    steps = rng.integers(0, 4, size=(6, width)) * (rng.random((6, width)) < 0.4)
    steps[:, -1] += 1
    rows = np.cumsum(steps, axis=1) / np.sum(steps, axis=1, keepdims=True)
    edges = np.arange(64) / 64
    points = np.concatenate([rows.ravel(), edges, rng.random(50)])
    points = np.concatenate([points, np.nextafter(points, 0.0)])
    u = rng.permutation(points[points < 1.0])
    row_of = rng.integers(0, rows.shape[0], size=u.size)
    table = _GuideTable(rows)
    assert table.guide.size < 2 * rows.size and table.jump.size == rows.size
    for side in ("left", "right"):
        want = [np.searchsorted(rows[r], x, side=side) for r, x in zip(row_of, u)]
        got = table.count(row_of, u, side)
        assert got.dtype == np.int64 and got.tolist() == want
        assert _GuideTable(rows[:1]).count(0, u, side).tolist() == np.searchsorted(
            rows[0], u, side=side
        ).tolist()


def test_guide_table_steps_over_a_run_of_equal_entries_at_once():
    # Positions are flat.  Bucket b of a row starts at its entries below b / 8;
    # a jump goes to the next run's start, or the row's end.
    table = _GuideTable([[0.0, 0.0, 0.0, 0.5, 0.5, 1.0], [0.5, 0.5, 1.0, 1.0, 1.0, 1.0]])
    assert table.jump.tolist() == [3, 3, 3, 5, 5, 6, 8, 8, 12, 12, 12, 12]
    assert table.guide.tolist() == [0, 3, 3, 3, 3, 5, 5, 5, 6, 6, 6, 6, 6, 8, 8, 8]


@pytest.mark.parametrize(
    "prior", [[0.5, -0.25, 0.5, 0.25], [0.25, np.nan, 0.5, 0.25], [0.0, 0.0, 0.0, 0.0]]
)
@pytest.mark.parametrize("n", [0, 10])
def test_sampler_refuses_a_prior_that_is_not_a_law(prior, n):
    # A negative entry, a NaN entry and a zero sum are refused when the
    # scheme is built, so the sampler never sees them, whatever it draws.
    scheme = scheme_from_plan(_three_signal_plan(), threshold_instance())
    with pytest.raises(FormatError, match=r"^prior: weights must"):
        bad = SignalingScheme(signals=scheme.signals, conditional=scheme.conditional, prior=prior)
        sample_scheme_batch(bad, seed=1, n=n)


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


def test_scheme_json_is_json_native():
    # json.dumps and oracles take the document as it is; only the CLI's
    # writer, through ``leaf``, takes the arrays themselves.
    scheme = solve_queue(QueueInstance(arrival_rate=0.6, beta=0.0, tau=5.5, capacity=40)).scheme
    doc = scheme_to_json(scheme)
    stack = [doc]
    while stack:
        node = stack.pop()
        assert type(node) in (dict, list, str, int, float), type(node)
        stack.extend(node.values() if isinstance(node, dict) else node if isinstance(node, list) else ())
    listed = {
        "signals": [
            {"label": s.label, "posterior": s.posterior.tolist(), "action": s.action,
             "marginal": s.marginal}
            for s in scheme.signals
        ],
        "conditional": scheme.conditional.tolist(),
        "prior": scheme.prior.tolist(),
    }
    assert json.dumps(doc) == json.dumps(listed)
    arrays = scheme_to_json(scheme, np.asarray)
    assert arrays["conditional"] is scheme.conditional and arrays["prior"] is scheme.prior
    assert all(a["posterior"] is s.posterior for a, s in zip(arrays["signals"], scheme.signals))


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
