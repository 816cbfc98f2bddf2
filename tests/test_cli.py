"""CLI verbs, exit codes, and artifact determinism."""

import contextlib
import copy
import functools
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import persuade
from persuade import (
    FormatError,
    GridSpec,
    PersuasionInstance,
    SignalingScheme,
    cli,
    full_persuasion,
    grid_vertices,
    hull_candidates,
    instance_from_json,
    scheme_from_json,
    solve_general,
    validate_scheme,
)
from conftest import threshold_instance_dict


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _expected_dict():
    return {
        "states": ["a", "b", "c"],
        "actions": ["no", "yes"],
        "prior": [0.1, 0.6, 0.3],
        "sender_v": [[0.0, 1.0]] * 3,
        "receiver": {
            "kind": "expected",
            "u": [[0.0, 2.0], [0.0, -1.0], [0.0, -1.0]],
        },
    }


def _queue_args(capacity=30):
    return [
        "queue",
        "--lambda", "0.95",
        "--beta", "2.5",
        "--tau", "7.5",
        "--capacity", str(capacity),
    ]


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_solve_binary_instance(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", threshold_instance_dict())
    assert cli.run(["solve", "--instance", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "binary"
    assert doc["k"] is None
    assert doc["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["full_persuasion"] is True
    assert doc["baselines"]["no_info"] == pytest.approx(0.0, abs=1e-12)
    assert doc["baselines"]["full_info"] == pytest.approx(0.75, abs=1e-12)
    assert doc["benefit"]["strictly_beneficial"] is True
    assert doc["benefit"]["margin"] == pytest.approx(1.0, abs=1e-9)
    assert doc["benefit"]["certificate_action"] == "take"
    assert doc["validation"]["flagged"] == []
    inst = instance_from_json(threshold_instance_dict())
    compiled = scheme_from_json(doc["scheme"])
    assert validate_scheme(compiled, inst).ok


def test_solve_out_writes_scheme(tmp_path, capsys):
    inst_path = _write(tmp_path, "inst.json", threshold_instance_dict())
    out = tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", inst_path, "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.endswith("\n")
    compiled = scheme_from_json(json.loads(text))
    inst = instance_from_json(threshold_instance_dict())
    assert validate_scheme(compiled, inst).ok


def test_solve_grid_method(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", _expected_dict())
    assert cli.run(
        ["solve", "--instance", path, "--method", "grid", "--grid-k", "6"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "grid"
    assert doc["k"] == 6
    assert doc["value"] == pytest.approx(0.3, abs=1e-7)


def test_solve_binary_method_needs_two_actions(tmp_path, capsys):
    doc = _expected_dict()
    doc["actions"] = ["no", "yes", "wait"]
    doc["sender_v"] = [[0.0, 1.0, 0.5]] * 3
    doc["receiver"]["u"] = [[0.0, 2.0, 1.0], [0.0, -1.0, 0.5], [0.0, -1.0, 0.5]]
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path, "--method", "binary"]) == 2
    assert "persuade:" in capsys.readouterr().err


def test_missing_flag_is_usage_error(capsys):
    assert cli.run(["solve"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_verb(capsys):
    assert cli.run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_schema_error_reports_field_path(tmp_path, capsys):
    doc = threshold_instance_dict()
    doc["prior"] = [0.5, -0.2, 0.4, 0.3]
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path]) == 1
    assert "prior[1]" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert cli.run(["solve", "--instance", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert cli.run(["solve", "--instance", str(path)]) == 1
    capsys.readouterr()


def test_queue_json_is_deterministic(capsys):
    assert cli.run(_queue_args()) == 0
    first = capsys.readouterr().out
    assert cli.run(_queue_args()) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["threshold"]["holds"] is True
    assert doc["threshold"]["state"] == 4
    assert doc["sandwich"]["passed"] is True
    assert [s["label"] for s in doc["signals"]] == [
        "Join_1", "Join_2", "Join_3", "Join_4", "Leave"
    ]
    assert len(doc["occupancy"]) == 31
    assert doc["throughput"] == pytest.approx(0.95 * doc["join_probability"])


def test_queue_csv_format(capsys):
    assert cli.run(_queue_args() + ["--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "label,action,marginal,wait_mean,wait_stdev"
    assert len(lines) == 6
    assert lines[1].startswith("Join_1,join,")
    assert lines[5].startswith("Leave,leave,")


def test_queue_simulate_requires_seed(capsys):
    assert cli.run(_queue_args() + ["--simulate", "20000"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_queue_csv_refuses_simulate_before_solving(capsys, monkeypatch):
    # The CSV table has no simulation columns, so a simulation would be lost.
    solves = _count_calls(monkeypatch, "solve_queue", home=persuade.queueing)
    args = _queue_args() + ["--format", "csv", "--simulate", "20000", "--seed", "5"]
    assert cli.run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("persuade: --simulate:")
    assert solves == []


def test_queue_simulation_block(capsys):
    args = _queue_args(capacity=20) + ["--simulate", "20000", "--seed", "5"]
    assert cli.run(args) == 0
    doc = json.loads(capsys.readouterr().out)
    sim = doc["simulation"]
    assert sim["events"] == 20000
    assert sim["joins"] > 0
    assert 0.0 < sim["join_rate"] <= 1.0
    assert set(sim["signal_counts"]) == {
        "Join_1", "Join_2", "Join_3", "Join_4", "Leave"
    }


def test_queue_emit_plot_data(tmp_path, capsys):
    out = tmp_path / "plot.json"
    assert cli.run(_queue_args() + ["--emit-plot-data", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert set(data) == {
        "states", "signals", "conditional", "posteriors", "marginals", "wait_means"
    }
    assert data["signals"] == ["Join_1", "Join_2", "Join_3", "Join_4", "Leave"]
    assert len(data["conditional"]) == 5
    assert len(data["conditional"][0]) == 30

    csv_out = tmp_path / "plot.csv"
    args = _queue_args() + ["--format", "csv", "--emit-plot-data", str(csv_out)]
    assert cli.run(args) == 0
    capsys.readouterr()
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "table,signal,state,value"
    # conditional and posterior blocks plus one wait_mean row per signal
    assert len(lines) == 1 + 2 * 5 * 30 + 5


def test_queue_capacity_guard(capsys):
    assert cli.run(_queue_args(capacity=1)) == 2
    assert "capacity" in capsys.readouterr().err


def test_check_full_binary(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", threshold_instance_dict())
    assert cli.run(["check-full", "--instance", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"full_persuasion": True, "method": "binary"}

    skewed = threshold_instance_dict()
    skewed["prior"] = [0.1, 0.1, 0.1, 0.7]
    path = _write(tmp_path, "skewed.json", skewed)
    assert cli.run(["check-full", "--instance", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"full_persuasion": False, "method": "binary"}


def test_check_full_grid_on_tied_sender(tmp_path, capsys):
    doc = _expected_dict()
    doc["sender_v"] = [[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["check-full", "--instance", path, "--grid-k", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    # Tied sender rows make the verdict ill-posed; the CLI reports null.
    assert out == {"full_persuasion": None, "method": "grid"}


def test_validate_ok_then_tampered(tmp_path, capsys):
    inst_path = _write(tmp_path, "inst.json", threshold_instance_dict())
    scheme_path = tmp_path / "scheme.json"
    assert cli.run(
        ["solve", "--instance", inst_path, "--out", str(scheme_path)]
    ) == 0
    capsys.readouterr()

    args = ["validate", "--instance", inst_path, "--scheme", str(scheme_path)]
    assert cli.run(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["flagged"] == []

    tampered = json.loads(scheme_path.read_text())
    joins = [i for i, s in enumerate(tampered["signals"]) if s["action"] == 1]
    tampered["signals"][joins[0]]["action"] = 0
    bad_path = _write(tmp_path, "bad.json", tampered)
    assert cli.run(["validate", "--instance", inst_path, "--scheme", bad_path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["flagged"] == [joins[0]]


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_validate_one_action_prints_valid_json(tmp_path, capsys):
    # With no alternative action a margin is unbounded; it is written as null.
    doc = {
        "states": ["a", "b"],
        "actions": ["only"],
        "prior": [0.4, 0.6],
        "sender_v": [[1.0], [0.5]],
        "receiver": {"kind": "expected", "u": [[1.0], [0.0]]},
    }
    inst_path = _write(tmp_path, "inst.json", doc)
    scheme_path = tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", inst_path, "--out", str(scheme_path)]) == 0
    _strict_json(capsys.readouterr().out)
    assert cli.run(["validate", "--instance", inst_path, "--scheme", str(scheme_path)]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["margins"] == [None, None]


def test_emitters_refuse_non_finite_numbers(tmp_path, capsys):
    with pytest.raises(ValueError):
        cli._emit({"x": float("nan")})
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"x": [1.0, float("inf")]})
    assert capsys.readouterr().out == ""
    assert not path.exists()


def test_simulate_verb(tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    queue_args = [
        "queue", "--lambda", "0.5", "--beta", "0.0", "--tau", "20.0",
        "--capacity", "4", "--out", str(scheme_path),
    ]
    assert cli.run(queue_args) == 0
    capsys.readouterr()

    sim_args = [
        "simulate", "--scheme", str(scheme_path), "--lambda", "0.5",
        "--capacity", "4", "--events", "20000", "--seed", "3",
    ]
    assert cli.run(sim_args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["events"] == 20000
    assert doc["arrivals"] == doc["joins"] + doc["leaves"] + doc["blocked"]
    assert set(doc["signal_counts"]) == {"Join_1", "Join_2", "Join_3", "Join_4"}
    assert doc["join_rate"] == pytest.approx(0.9677, abs=0.02)

    bad = sim_args.copy()
    bad[bad.index("4")] = "5"
    assert cli.run(bad) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "labels, path",
    [(["same"] * 4, "signals[1].label"), ([7, "b", "c", "d"], "signals[0].label")],
)
def test_simulate_rejects_repeated_or_non_string_labels(labels, path, tmp_path, capsys):
    # Signal counts are keyed by label: a repeated label would merge counts.
    scheme_path = tmp_path / "scheme.json"
    queue_args = [
        "queue", "--lambda", "0.5", "--beta", "0.0", "--tau", "20.0",
        "--capacity", "4", "--out", str(scheme_path),
    ]
    assert cli.run(queue_args) == 0
    capsys.readouterr()
    scheme = json.loads(scheme_path.read_text())
    assert len(scheme["signals"]) == len(labels)
    for signal, label in zip(scheme["signals"], labels):
        signal["label"] = label
    sim_args = [
        "simulate", "--scheme", _write(tmp_path, "bad.json", scheme), "--lambda", "0.5",
        "--capacity", "4", "--events", "20000", "--seed", "3",
    ]
    assert cli.run(sim_args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"persuade: {path}:")


def test_roundtrip_fixpoint(tmp_path):
    inst_doc = threshold_instance_dict()
    inst_doc["prior"] = [1 / 3, 1 / 3, 1 / 6, 1 / 6]
    inst_path = _write(tmp_path, "inst.json", inst_doc)
    parsed = cli.roundtrip(inst_path)
    assert isinstance(parsed, PersuasionInstance)

    scheme_path = tmp_path / "scheme.json"
    assert cli.run(
        ["solve", "--instance", inst_path, "--out", str(scheme_path)]
    ) == 0
    parsed = cli.roundtrip(str(scheme_path))
    assert isinstance(parsed, SignalingScheme)

    broken = {k: v for k, v in inst_doc.items() if k != "prior"}
    broken_path = _write(tmp_path, "broken.json", broken)
    with pytest.raises(FormatError):
        cli.roundtrip(broken_path)


# ---------------------------------------------------------------------------
# Golden bytes: sha256 of stdout and of the --out file on fixed cases.  A
# refactor of the solvers must leave every byte of these artifacts, and every
# exit code, as it is.


def _accept_signs(rng, d):
    signs = -np.ones(d)
    signs[rng.choice(d, d // 2, replace=False)] = 1.0
    return signs * rng.uniform(0.05, 1.0, d)


def _mean_stdev_receiver(rng, d):
    # Action 0's payoff moments do not move with the state: convex reject region.
    g_mean = np.zeros((d, 2))
    g_var = np.zeros((d, 2))
    g_mean[:, 0], g_var[:, 0] = 0.5, 0.25
    g_mean[:, 1] = rng.uniform(0.0, 1.0, d)
    g_var[:, 1] = rng.uniform(0.05, 1.0, d)
    beta = float(rng.uniform(0.2, 1.0))
    u = np.zeros((d, 2))
    u[:, 1] = beta * (np.sqrt(g_var[:, 1]) - 0.5) + _accept_signs(rng, d)
    return {"kind": "mean_stdev", "u": u.tolist(), "g_mean": g_mean.tolist(),
            "g_var": g_var.tolist(), "beta": beta}


def _maximin_receiver(rng, d):
    # Identical action-1 columns across scenarios: convex reject region.
    tables = np.zeros((int(rng.integers(2, 5)), d, 2))
    tables[:, :, 0] = rng.uniform(-1.0, 1.0, tables.shape[:2])
    tables[:, :, 1] = tables[:, :, 0].min(axis=0) + _accept_signs(rng, d)
    return {"kind": "maximin", "tables": tables.tolist()}


def _cvar_receiver(rng, d):
    # One action-0 loss law for every state: convex reject region.
    def law():
        return sorted(rng.uniform(0.0, 2.0, 4).tolist()), rng.dirichlet(np.ones(4)).tolist()

    reject_values, reject_probs = law()
    values, probs = [], []
    for _ in range(d):
        v, p = law()
        values.append([reject_values, v])
        probs.append([reject_probs, p])
    return {"kind": "cvar", "loss_values": values, "loss_probs": probs,
            "tau": float(rng.uniform(0.2, 1.0))}


def _seeded_binary(receiver, seed, d):
    rng = np.random.default_rng(seed)
    return {
        "states": [f"s{i}" for i in range(d)],
        "actions": ["no", "yes"],
        "prior": rng.dirichlet(np.ones(d)).tolist(),
        "sender_v": [[0.0, 1.0]] * d,
        "receiver": receiver(rng, d),
    }


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


GOLDEN_QUEUE = ["queue", "--lambda", "0.95", "--beta", "2.5", "--tau", "7.5",
                "--capacity", "100"]
# case: (instance document or None, argv, stdout sha256, --out sha256 or None)
GOLDEN_CASES = {
    "readme-solve": (
        _expected_dict(), ["solve"],
        "85badbf9b037fca1a6029664057ad36f26ba65e9a6b620645d89f2168093e6af",
        "278d1f2255954e0d5b7ce91c582e76c75c6cf04dc113f4cb145dd5333f426bd7",
    ),
    "readme-check-full": (
        _expected_dict(), ["check-full"],
        "6da31fd0dede9debf1e0fea9f1e1a566e3f9db3f905ababc133ff62a890f0eda",
        None,
    ),
    "queue-json": (
        None, GOLDEN_QUEUE,
        "06dcfc7eacadd3903bb10aa96d4aab3dd874affb4c0978296cf3736dd1ca04a6",
        "b0e714c67c43188f736270dc17e20449f9f1575847e2bb4782c607d3cd61ed20",
    ),
    "queue-csv": (
        None, GOLDEN_QUEUE + ["--format", "csv"],
        "501a304278e0024b901871596e841426121fbbdea1b2cd9fa003f075015dde36",
        "b0e714c67c43188f736270dc17e20449f9f1575847e2bb4782c607d3cd61ed20",
    ),
    "mean-stdev-binary": (
        _seeded_binary(_mean_stdev_receiver, 11, 16), ["solve"],
        "5ca9cd021d4b476aecf388b04f8112bdb146fc8899e6f45628c843a4cee8d75e",
        "dc05bb1031b68ac13a5ce06f7dae5592b4f2173a65c9a88e2991e465498bd9da",
    ),
    "maximin-binary": (
        _seeded_binary(_maximin_receiver, 12, 14), ["solve"],
        "c89c1e876c3e57841522e945d8d758fcee28dc6042620e9cfc3d45416654ddca",
        "00b0cdeb0e799b90dffa2fafb4c56166613548901b382ef717e9d6c7878fe0f7",
    ),
    "grid": (
        _expected_dict(), ["solve", "--method", "grid", "--grid-k", "12"],
        "213f0c4cefd56254131ccb674b617c91cdee5f2393d3152e8cd1c4f668483fed",
        "2892c8b704b71db911b71657c67d628f06460bd4fbbfd89a650ceccbf092365f",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_bytes(case, tmp_path, capsys):
    doc, argv, stdout_sha, out_sha = GOLDEN_CASES[case]
    argv = list(argv)
    if doc is not None:
        argv += ["--instance", _write(tmp_path, "inst.json", doc)]
    out = tmp_path / "scheme.json"
    if out_sha is not None:
        argv += ["--out", str(out)]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == stdout_sha
    if out_sha is not None:
        assert _sha(out.read_bytes()) == out_sha


# format: (extra argv, --emit-plot-data sha256); stdout is the queue case's.
GOLDEN_PLOT_DATA = {
    "json": ([], "d1444f687e5c4ae527fe2b6756cb5bb56946f52457d9a3089e8b9dd33b5595b8"),
    "csv": (
        ["--format", "csv"],
        "89811e672e4ef1e0b7daefc94a744cbd36a7fce37d2422a3d15fb01bfbc11fd0",
    ),
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_PLOT_DATA))
def test_golden_plot_data_bytes(fmt, tmp_path, capsys):
    extra, plot_sha = GOLDEN_PLOT_DATA[fmt]
    plot = tmp_path / "plot"
    assert cli.run(GOLDEN_QUEUE + extra + ["--emit-plot-data", str(plot)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == GOLDEN_CASES[f"queue-{fmt}"][2]
    assert _sha(plot.read_bytes()) == plot_sha


def test_golden_cvar_zero_tail_accept_state_solves(tmp_path, capsys):
    # Accept state 5's action-1 loss law lies wholly at or below tau, so it
    # has no tail mass and scores 0; every blend toward it is gamma 0, the
    # accept vertex itself, and the instance solves.
    doc = _seeded_binary(_cvar_receiver, 17, 6)
    path = _write(tmp_path, "inst.json", doc)
    out = tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", path, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    value = json.loads(captured.out)["value"]
    instance = instance_from_json(doc)
    candidates = hull_candidates(instance)
    blends = slice(len(candidates.classification.accept), candidates.n_accept)
    assert candidates.states[blends].tolist() == [[w, 5] for w in range(5)]
    assert candidates.gamma.tolist() == [[0.0]] * 5
    assert validate_scheme(scheme_from_json(json.loads(out.read_text())), instance).ok
    for k in (16, 40):
        grid = GridSpec(k=k, dim=instance.n_states)
        sets = [grid_vertices(instance, a, grid) for a in range(instance.n_actions)]
        assert value >= solve_general(instance, sets).value - 1e-12
    assert value == pytest.approx(
        oracles.concavify_oracle(instance, candidates.rows()), abs=1e-12
    )


def _count_calls(monkeypatch, name, home=persuade.binary):
    # Wrap the function of module ``home`` at every binding the package holds.
    original = getattr(home, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    modules = (persuade, persuade.geometry, persuade.binary, persuade.general,
               persuade.queueing, cli)
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_binary_solve_classifies_and_blends_once(tmp_path, capsys, monkeypatch):
    classify = _count_calls(monkeypatch, "classify_states")
    k01 = _count_calls(monkeypatch, "compute_k01")
    doc = _seeded_binary(_mean_stdev_receiver, 11, 16)
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "binary"
    assert out["full_persuasion"] is not None
    assert len(classify) == 1
    assert len(k01) == 1


@pytest.mark.parametrize("method", ["binary", "grid"])
def test_solve_scores_the_baselines_once(tmp_path, capsys, monkeypatch, method):
    baselines = _count_calls(monkeypatch, "baseline_values", home=persuade.general)
    path = _write(tmp_path, "inst.json", _seeded_binary(_mean_stdev_receiver, 11, 6))
    assert cli.run(["solve", "--instance", path, "--method", method]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == method
    assert len(baselines) == 1


def _three_action_dict():
    # Each state has one sender-preferred action, so check-full takes the
    # grid path.  The receiver agrees with the sender in states a and b but
    # not in c: the hull-membership verdict needed an LP for each cell.
    return {
        "states": ["a", "b", "c"],
        "actions": ["x", "y", "z"],
        "prior": [0.3, 0.3, 0.4],
        "sender_v": [[1.0, 0.0, 0.2], [0.0, 1.0, 0.3], [0.4, 0.1, 1.0]],
        "receiver": {
            "kind": "expected",
            "u": [[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.3, 0.6, 0.0]],
        },
    }


@pytest.mark.parametrize(
    "verb, doc, expected_method",
    [
        (["solve", "--method", "binary"], _seeded_binary(_mean_stdev_receiver, 11, 6), "binary"),
        (["solve", "--method", "grid"], _seeded_binary(_mean_stdev_receiver, 11, 6), "grid"),
        (["solve"], _three_action_dict(), "grid"),
        (["check-full"], _seeded_binary(_mean_stdev_receiver, 11, 6), "binary"),
        (["check-full"], _three_action_dict(), "grid"),
    ],
)
def test_one_lp_per_solve_and_check_full(tmp_path, capsys, monkeypatch, verb, doc, expected_method):
    lps = _count_calls(monkeypatch, "solve_lp", home=persuade.geometry)
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(verb + ["--instance", path, "--grid-k", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == expected_method
    assert out["full_persuasion"] in (True, False)
    assert len(lps) == 1


def _aligned(instance):
    # The receiver's expected utility is the sender's table: full disclosure
    # gives the sender its ideal action in every state.
    return instance_from_json(
        {**persuade.instance_to_json(instance),
         "receiver": {"kind": "expected", "u": instance.sender.table.tolist()}}
    )


def _with_prior(instance, prior):
    return instance_from_json({**persuade.instance_to_json(instance), "prior": list(prior)})


def test_full_persuasion_agrees_with_hull_membership():
    verdicts = []

    def check(instance, plan, point_sets):
        verdict = full_persuasion(instance, plan)
        assert verdict == oracles.full_persuasion_membership(instance, point_sets)
        verdicts.append(verdict)

    # Seeded binary instances, at their own prior and at the mean of the
    # accept candidates, which the acceptance hull holds.
    for receiver in (_mean_stdev_receiver, _maximin_receiver, _cvar_receiver):
        for seed, d in ((17, 6), (21, 5), (33, 8)):
            instance = instance_from_json(_seeded_binary(receiver, seed, d))
            inside = hull_candidates(instance).point_sets()[1].mean(axis=0)
            for inst in (instance, _with_prior(instance, inside)):
                candidates = hull_candidates(inst)
                check(inst, persuade.solve_binary(inst, candidates), candidates.point_sets())
    # Grid instances with two and three actions, random and aligned.
    rng = np.random.default_rng(5)
    for n_actions in (2, 3):
        for trial in range(4):
            d = int(rng.integers(2, 5))
            doc = {
                "states": [f"s{w}" for w in range(d)],
                "actions": [f"a{a}" for a in range(n_actions)],
                "prior": rng.dirichlet(np.ones(d)).tolist(),
                "sender_v": rng.normal(size=(d, n_actions)).tolist(),
                "receiver": {"kind": "expected", "u": rng.normal(size=(d, n_actions)).tolist()},
            }
            instance = instance_from_json(doc)
            for inst in (instance, _aligned(instance)):
                grid = GridSpec(k=12, dim=d)
                sets = [grid_vertices(inst, a, grid) for a in range(n_actions)]
                check(inst, solve_general(inst, sets), sets)
    # Frontier cases: the 0.3 and 0.6 priors of the half-plane hull, one
    # 2e-4 short of it (4e-4 of mass off the ideal action), an empty action
    # set, and a single action.
    half = {"states": ["a", "b"], "actions": ["no", "yes"], "sender_v": [[0.0, 1.0]] * 2,
            "receiver": {"kind": "expected", "u": [[0.0, -1.0], [0.0, 1.0]]}}
    for prior in ([0.7, 0.3], [0.4, 0.6], [0.5002, 0.4998]):
        inst = instance_from_json({**half, "prior": prior})
        candidates = hull_candidates(inst)
        check(inst, persuade.solve_binary(inst, candidates), candidates.point_sets())
    inst = instance_from_json(threshold_instance_dict())
    sets = [np.eye(4), np.zeros((0, 4))]
    check(inst, solve_general(inst, sets), sets)
    single = instance_from_json(
        {"states": ["a", "b"], "actions": ["only"], "prior": [0.5, 0.5],
         "sender_v": [[1.0], [2.0]], "receiver": {"kind": "expected", "u": [[0.0], [0.0]]}}
    )
    sets = [GridSpec(k=4, dim=2).points()]
    check(single, solve_general(single, sets), sets)
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# Schema checks on scheme and instance documents: exit 1, no traceback.


def _solved_scheme(tmp_path, capsys) -> tuple[str, dict]:
    inst_path = _write(tmp_path, "inst.json", _expected_dict())
    scheme_path = tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", inst_path, "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    return inst_path, json.loads(scheme_path.read_text())


def _validate_exit(tmp_path, capsys, inst_path, scheme) -> tuple[int, str, str]:
    scheme_path = _write(tmp_path, "bad.json", scheme)
    code = cli.run(["validate", "--instance", inst_path, "--scheme", scheme_path])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_rejects_out_of_range_action(tmp_path, capsys):
    inst_path, scheme = _solved_scheme(tmp_path, capsys)
    scheme["signals"][0]["action"] = 7
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    assert code == 1
    assert out == ""
    assert err.startswith("persuade: signals[0].action: action 7 out of range")
    assert "Traceback" not in err


def test_validate_rejects_nan_posterior(tmp_path, capsys):
    inst_path, scheme = _solved_scheme(tmp_path, capsys)
    d = len(scheme["prior"])
    scheme["signals"][0]["posterior"] = [float("nan")] * d
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    assert code == 1
    assert out == ""
    assert err.startswith("persuade: signals[0].posterior[0]: expected a finite number")


@pytest.mark.parametrize("marginal", ["0.3", "high", float("inf")])
def test_validate_rejects_non_numeric_marginal(marginal, tmp_path, capsys):
    inst_path, scheme = _solved_scheme(tmp_path, capsys)
    scheme["signals"][0]["marginal"] = marginal
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    assert code == 1
    assert err.startswith("persuade: signals[0].marginal:")


@pytest.mark.parametrize("beta", ["0.5", "high", float("nan"), 10**400])
def test_solve_rejects_non_numeric_beta(beta, tmp_path, capsys):
    doc = _seeded_binary(_mean_stdev_receiver, 11, 4)
    doc["receiver"]["beta"] = beta
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("persuade: receiver.beta:")


def test_solve_rejects_nan_receiver_table(tmp_path, capsys):
    doc = _expected_dict()
    doc["receiver"]["u"][1][1] = float("nan")
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path]) == 1
    assert capsys.readouterr().err.startswith("persuade: receiver.u[1][1]: expected a finite")


# ---------------------------------------------------------------------------
# Schema fuzz: mutated instance and scheme documents through every verb end in
# exit 0, 1 or 2, never an exception.


@functools.lru_cache(maxsize=1)
def _fuzz_bases() -> tuple[tuple[dict, dict], ...]:
    """(instance, scheme) pairs: binary kinds, a three-action grid, a queue."""
    instances = [
        _expected_dict(),
        threshold_instance_dict(),
        _seeded_binary(_mean_stdev_receiver, 5, 4),
        _seeded_binary(_cvar_receiver, 6, 3),
        {**_expected_dict(), "actions": ["a", "b", "c"], "sender_v": [[0.0, 0.5, 1.0]] * 3,
         "receiver": {"kind": "expected", "u": [[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}},
    ]
    bases = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "scheme.json"
        for doc in instances:
            inst = Path(tmp) / "inst.json"
            inst.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(["solve", "--instance", str(inst), "--out", str(out)]) == 0
            bases.append((doc, json.loads(out.read_text())))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(_queue_args(4) + ["--out", str(out)]) == 0
        solution = persuade.solve_queue(persuade.QueueInstance(0.95, 2.5, 7.5, 4))
        bases.append((persuade.instance_to_json(solution.persuasion), json.loads(out.read_text())))
    return tuple(bases)


def _nodes(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _mutate(doc, path, how, rng):
    """A copy of doc with the node at path dropped, retyped, made NaN or resized."""
    doc = copy.deepcopy(doc)
    if not path:
        return [doc] if how == "resize" else "not a document"
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if how == "drop":
        del parent[key]
    elif how == "retype":
        parent[key] = [None, True, "text", [], {}, 3, [1.0, "x"], {"a": 1}][rng.integers(8)]
    elif how == "nan":
        parent[key] = [math.nan, math.inf, -math.inf, "nan", "0.5", "abc"][rng.integers(6)]
    elif isinstance(node, list) and node and rng.integers(2):
        del node[-1]
    elif isinstance(node, list):
        node.append(copy.deepcopy(node[-1]) if node else 0.0)
    else:
        parent[key] = [node, node]
    return doc


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 5),
    st.sampled_from(["instance", "scheme"]),
    st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["drop", "retype", "nan", "resize"])),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 2**32 - 1),
)
def test_mutated_documents_exit_cleanly(base, role, mutations, seed):
    docs = dict(zip(("instance", "scheme"), _fuzz_bases()[base]))
    rng = np.random.default_rng(seed)
    for pick, how in mutations:
        paths = list(_nodes(docs[role]))
        docs[role] = _mutate(docs[role], paths[pick % len(paths)], how, rng)
    with tempfile.TemporaryDirectory() as tmp:
        inst, scheme = Path(tmp) / "inst.json", Path(tmp) / "scheme.json"
        inst.write_text(json.dumps(docs["instance"]))
        scheme.write_text(json.dumps(docs["scheme"]))
        runs = [
            ["solve", "--instance", str(inst)],
            ["check-full", "--instance", str(inst)],
            ["validate", "--instance", str(inst), "--scheme", str(scheme)],
            ["simulate", "--scheme", str(scheme), "--lambda", "0.95", "--capacity", "4",
             "--events", "10000", "--seed", "1"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            assert code in (0, 1, 2), (argv[0], code)
