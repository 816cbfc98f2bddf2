"""End-to-end acceptance gate.

One test per headline claim; each prints a single ``[criterion N]``
PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s`` to see
them) and then asserts, so a red line always says which claim broke.
"""

import dataclasses
import math
import time

import numpy as np

import oracles
from persuade import (
    ActionSpace,
    Belief,
    GridSpec,
    OptimalPlan,
    PersuasionInstance,
    PlanAtom,
    QueueInstance,
    SenderUtility,
    StateSpace,
    baseline_values,
    expected_region_vertices,
    full_persuasion,
    gamma_closed_form,
    grid_vertices,
    hull_candidates,
    make_model,
    queue_model,
    scheme_from_plan,
    scheme_value,
    simulate_queue,
    solve_binary,
    solve_general,
    solve_queue,
    validate_scheme,
    verify_sandwich,
)
from conftest import (
    reference_queue,
    random_eum_instance,
    random_mean_stdev_instance,
    threshold_instance,
)

GAMMA_TAUS = (5.0, 7.5, 10.0)
GAMMA_BETAS = (0.0, 1.0, 2.5)
GAMMA_NS = range(3, 21)
GAMMA_MS = range(3)

SIM_SEED = 1


def _report(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _three_signal_plan():
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


def test_criterion_1_example_full_persuasion():
    start = time.perf_counter()
    inst = threshold_instance()
    plan = solve_binary(inst)
    full = full_persuasion(inst, plan)
    report = validate_scheme(scheme_from_plan(_three_signal_plan(), inst), inst)
    runtime = time.perf_counter() - start

    value_ok = abs(plan.value - 1.0) <= 1e-9
    margin = float(min(report.margins))
    margin_ok = margin >= 1.0 / 12.0 - 1e-8
    ok = value_ok and bool(full) and margin_ok and runtime < 0.1
    line = _report(
        1,
        "example-1 full persuasion",
        ok,
        f"value={plan.value:.9f}, full={full}, min_margin={margin:.6f}, "
        f"{runtime * 1e3:.1f}ms",
    )
    assert ok, line


def test_criterion_2_two_signal_cap():
    start = time.perf_counter()
    inst = threshold_instance()
    diff = inst.receiver.differential
    cap = oracles.two_signal_cap(
        np.full(4, 0.25), lambda mu: diff(mu) >= 0.0, k=24
    )
    runtime = time.perf_counter() - start
    ok = abs(cap - 0.375) <= 0.005 and runtime < 5.0
    line = _report(
        2, "example-1 two-signal cap", ok, f"cap={cap:.6f}, {runtime:.2f}s"
    )
    assert ok, line


def test_criterion_3_queue_benchmark():
    start = time.perf_counter()
    solution = solve_queue(reference_queue())
    sandwich = verify_sandwich(solution)
    runtime = time.perf_counter() - start

    labels_ok = solution.scheme.labels == (
        "Join_1", "Join_2", "Join_3", "Join_4", "Leave"
    )
    threshold_ok = (
        solution.threshold.holds and solution.threshold.threshold_state == 4
    )
    # Expected join posteriors: (short leg, long leg) -> long-leg weight.
    expected = (((0, 4), 0.24), ((0, 3), 0.41), ((1, 3), 0.36), ((2, 3), 0.07))
    joins = [s for s in solution.scheme.signals if s.action == 1]
    post_dev = 0.0
    for signal, ((m, n), weight) in zip(joins, expected):
        want = np.zeros(100)
        want[n], want[m] = weight, 1.0 - weight
        post_dev = max(post_dev, float(np.max(np.abs(signal.posterior - want))))
    posteriors_ok = len(joins) == 4 and post_dev <= 0.015
    means_dev = float(
        np.max(np.abs(np.array(sandwich.join_means) - (1.97, 2.24, 2.72, 3.07)))
    )
    means_ok = means_dev <= 0.02
    ok = (
        labels_ok and threshold_ok and posteriors_ok and means_ok
        and sandwich.passed and runtime < 5.0
    )
    line = _report(
        3,
        "queue benchmark reproduction",
        ok,
        f"signals={len(joins)}+Leave, threshold={solution.threshold.threshold_state}, "
        f"post_dev={post_dev:.4f}, mean_dev={means_dev:.4f}, "
        f"sandwich={sandwich.passed}, {runtime:.2f}s",
    )
    assert ok, line


def test_criterion_4_gamma_closed_form_vs_bisection():
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for tau in GAMMA_TAUS:
        for beta in GAMMA_BETAS:
            model = queue_model(
                QueueInstance(arrival_rate=0.5, beta=beta, tau=tau, capacity=21)
            )
            eye = np.eye(21)
            for n in GAMMA_NS:
                for m in GAMMA_MS:
                    lo = m + 1 + beta * math.sqrt(m + 1)
                    hi = n + 1 + beta * math.sqrt(n + 1)
                    if not lo <= tau < hi:
                        continue
                    closed = gamma_closed_form(n, m, tau, beta)
                    bisected = oracles.segment_bisection(
                        model.differential, eye[n], eye[m]
                    )
                    worst = max(worst, abs(closed - bisected))
                    count += 1
    runtime = time.perf_counter() - start
    ok = worst <= 1e-8 and count > 100 and runtime < 2.0
    line = _report(
        4,
        "closed-form/bisection agreement",
        ok,
        f"max|dgamma|={worst:.2e} over {count} cells, {runtime:.2f}s",
    )
    assert ok, line


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(50)
    pair_dev = 0.0
    revelation_dev = 0.0
    for _ in range(25):
        inst = random_eum_instance(rng)
        grid = GridSpec(k=12, dim=inst.n_states)
        extras = [
            expected_region_vertices(inst, a) for a in range(inst.n_actions)
        ]
        sets = [
            grid_vertices(inst, a, grid, extra=extras[a])
            for a in range(inst.n_actions)
        ]
        plan = solve_general(inst, sets)
        candidates = np.vstack([grid.points()] + extras)
        cav = oracles.concavify_oracle(inst, candidates)
        u = np.asarray(inst.receiver.params["u"], dtype=float)
        exact = oracles.revelation_lp(inst.prior.weights, u, inst.sender.table)
        pair_dev = max(pair_dev, abs(plan.value - cav))
        revelation_dev = max(
            revelation_dev, abs(plan.value - exact), abs(cav - exact)
        )
    for _ in range(25):
        inst = random_mean_stdev_instance(rng)
        grid = GridSpec(k=12, dim=inst.n_states)
        sets = [grid_vertices(inst, a, grid) for a in range(inst.n_actions)]
        plan = solve_general(inst, sets)
        pair_dev = max(pair_dev, abs(plan.value - oracles.concavify_oracle(inst, grid)))
    runtime = time.perf_counter() - start
    ok = pair_dev <= 1e-7 and revelation_dev <= 1e-7 and runtime < 60.0
    line = _report(
        5,
        "oracle equivalence on 50 instances",
        ok,
        f"max|solve-cav|={pair_dev:.2e}, max|vs revelation|={revelation_dev:.2e}, "
        f"{runtime:.1f}s",
    )
    assert ok, line


def test_criterion_6_simulation_consistency():
    start = time.perf_counter()
    bench = reference_queue()
    solution = solve_queue(bench)
    sim = simulate_queue(bench, solution.scheme, events=1_000_000, seed=SIM_SEED)
    p = solution.join_probability
    se = math.sqrt(p * (1 - p) / sim.arrivals)
    join_dev = abs(sim.join_rate - p) / se
    join_ok = join_dev <= 3.0

    small = QueueInstance(arrival_rate=0.5, beta=0.0, tau=20.0, capacity=4)
    full = solve_queue(small)
    sim2 = simulate_queue(small, full.scheme, events=1_000_000, seed=SIM_SEED)
    pi = oracles.mm1c_occupancy(0.5, 4)
    seen = sim2.arrival_seen / sim2.arrival_seen.sum()
    sigma = np.sqrt(pi * (1 - pi) / sim2.arrival_seen.sum())
    occupancy_dev = float(np.max(np.abs(seen - pi) / sigma))
    occupancy_ok = occupancy_dev <= 3.0

    runtime = time.perf_counter() - start
    ok = join_ok and occupancy_ok and runtime < 30.0
    line = _report(
        6,
        "simulation consistency",
        ok,
        f"join_dev={join_dev:.2f}SE, occupancy_dev={occupancy_dev:.2f}SE "
        f"(seed={SIM_SEED}), {runtime:.1f}s",
    )
    assert ok, line


def _random_binary_expected(rng):
    d = int(rng.integers(2, 5))
    u = np.zeros((d, 2))
    u[:, 1] = rng.uniform(-1.0, 1.0, size=d)
    return PersuasionInstance(
        states=StateSpace(tuple(f"s{i}" for i in range(d))),
        actions=ActionSpace(("no", "yes")),
        prior=Belief(rng.dirichlet(np.ones(d))),
        sender=SenderUtility(np.column_stack([np.zeros(d), np.ones(d)])),
        receiver=make_model("expected", u=u),
    )


def _snap_to_grid(prior: np.ndarray, k: int) -> np.ndarray:
    scaled = prior * k
    base = np.floor(scaled).astype(int)
    order = np.argsort(scaled - base)[::-1]
    base[order[: k - base.sum()]] += 1
    return base / k


def _residual_and_baseline_checks(rng):
    bayes_worst = post_worst = 0.0
    baseline_ok = True
    coalesce_worst = 0.0
    solved = [(threshold_instance(), None)]
    solved[0] = (solved[0][0], solve_binary(solved[0][0]))
    for _ in range(8):
        inst = random_eum_instance(rng)
        # The baseline bound needs the prior itself among the candidates;
        # snapping it onto the grid keeps the check exact.
        inst = dataclasses.replace(
            inst, prior=Belief(_snap_to_grid(inst.prior.weights, 8))
        )
        grid = GridSpec(k=8, dim=inst.n_states)
        sets = [grid_vertices(inst, a, grid) for a in range(inst.n_actions)]
        solved.append((inst, solve_general(inst, sets)))
    for _ in range(8):
        inst = random_mean_stdev_instance(rng)
        solved.append((inst, solve_binary(inst)))

    for inst, plan in solved:
        report = validate_scheme(scheme_from_plan(plan, inst), inst)
        bayes_worst = max(bayes_worst, report.bayes_residual)
        post_worst = max(post_worst, report.posterior_residual)
        base = baseline_values(inst)
        baseline_ok &= plan.value >= max(base.no_info, base.full_info) - 1e-9
        halved = []
        for atom in plan.atoms:
            halved.append(
                PlanAtom(atom.action, atom.posterior, atom.weight / 2, atom.label)
            )
            halved.append(PlanAtom(atom.action, atom.posterior, atom.weight / 2))
        doubled = OptimalPlan(
            t=plan.t, prior=plan.prior, value=plan.value, atoms=tuple(halved)
        )
        merged = scheme_from_plan(doubled, inst, coalesce=True)
        split = scheme_from_plan(doubled, inst, coalesce=False)
        coalesce_worst = max(
            coalesce_worst,
            abs(scheme_value(merged, inst) - scheme_value(split, inst)),
        )

    for queue in (
        reference_queue(),
        QueueInstance(0.5, 0.0, 20.0, 4),
        QueueInstance(0.95, 2.5, 0.5, 10),
    ):
        solution = solve_queue(queue)
        report = validate_scheme(solution.scheme, solution.persuasion)
        bayes_worst = max(bayes_worst, report.bayes_residual)
        post_worst = max(post_worst, report.posterior_residual)
    return bayes_worst, post_worst, baseline_ok, coalesce_worst


def _hull_identity_checks(rng) -> bool:
    ok = True
    for trial in range(10):
        inst = (
            _random_binary_expected(rng)
            if trial % 2
            else random_mean_stdev_instance(rng)
        )
        candidates = hull_candidates(inst)
        classification = candidates.classification
        v1 = candidates.rows(slice(candidates.n_accept))
        eye = np.eye(inst.n_states)
        blends = slice(len(classification.accept), candidates.n_accept)
        v0 = np.vstack(
            [eye[list(classification.strict_reject)], candidates.rows(blends)]
        )
        diff = inst.receiver.differential
        for row in v1:
            ok &= float(diff(row)) >= -1e-6
        for _ in range(30):
            mu = rng.dirichlet(np.ones(inst.n_states))
            in_accept = v1.shape[0] > 0 and (
                oracles.hull_membership(mu, v1, tol=1e-6) is not None
            )
            if float(diff(mu)) >= 0.0:
                ok &= in_accept
            in_reject = v0.shape[0] > 0 and (
                oracles.hull_membership(mu, v0, tol=1e-6) is not None
            )
            ok &= in_accept or in_reject
    return bool(ok)


def _gamma_structure_checks() -> tuple[bool, bool]:
    mono_ok = True
    dd_ok = True
    for tau in GAMMA_TAUS:
        for beta in GAMMA_BETAS:
            gam = {}
            for n in GAMMA_NS:
                for m in GAMMA_MS:
                    lo = m + 1 + beta * math.sqrt(m + 1)
                    hi = n + 1 + beta * math.sqrt(n + 1)
                    if lo <= tau < hi:
                        gam[(n, m)] = gamma_closed_form(n, m, tau, beta)
            g = {(n, m): y * n + (1 - y) * m for (n, m), y in gam.items()}
            for (n, m), value in g.items():
                if (n, m + 1) in g:
                    mono_ok &= value <= g[(n, m + 1)] + 1e-9
                if (n + 1, m) in g:
                    mono_ok &= g[(n + 1, m)] <= value + 1e-9
            f = {key: math.log(y / (1 - y)) for key, y in gam.items()}
            ns = sorted({n for n, _ in f})
            for m in GAMMA_MS:
                for k in range(m + 1, 3):
                    for i, n in enumerate(ns):
                        for ell in ns[i + 1 :]:
                            keys = ((n, k), (n, m), (ell, k), (ell, m))
                            if not all(key in f for key in keys):
                                continue
                            lhs = f[(n, k)] - f[(n, m)]
                            rhs = f[(ell, k)] - f[(ell, m)]
                            if beta == 0.0:
                                dd_ok &= abs(lhs - rhs) <= 1e-9
                            else:
                                dd_ok &= lhs > rhs
    return bool(mono_ok), bool(dd_ok)


def _grid_refinement_checks(rng) -> bool:
    ok = True
    for trial in range(4):
        inst = (
            random_eum_instance(rng) if trial % 2 else random_mean_stdev_instance(rng)
        )
        values = []
        for k in (6, 12, 24):
            grid = GridSpec(k=k, dim=inst.n_states)
            sets = [
                grid_vertices(inst, a, grid) for a in range(inst.n_actions)
            ]
            values.append(solve_general(inst, sets).value)
        ok &= values[0] <= values[1] + 1e-9 and values[1] <= values[2] + 1e-9
    return bool(ok)


def test_criterion_7_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    bayes_worst, post_worst, baseline_ok, coalesce_worst = (
        _residual_and_baseline_checks(rng)
    )
    residuals_ok = bayes_worst <= 1e-8 and post_worst <= 1e-8
    hull_ok = _hull_identity_checks(rng)
    mono_ok, dd_ok = _gamma_structure_checks()
    refine_ok = _grid_refinement_checks(rng)
    coalesce_ok = coalesce_worst <= 1e-10
    runtime = time.perf_counter() - start
    ok = (
        residuals_ok and baseline_ok and hull_ok and mono_ok and dd_ok
        and refine_ok and coalesce_ok
    )
    line = _report(
        7,
        "property suites",
        ok,
        f"bayes<={bayes_worst:.1e}, posterior<={post_worst:.1e}, "
        f"baselines={baseline_ok}, hulls={hull_ok}, monotone={mono_ok}, "
        f"decreasing_diffs={dd_ok}, refinement={refine_ok}, "
        f"coalesce<={coalesce_worst:.1e}, {runtime:.1f}s",
    )
    assert ok, line
