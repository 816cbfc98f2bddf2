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
from hypothesis.extra import numpy as hnp

import oracles
import persuade
from persuade import (
    ActionSpace,
    Belief,
    FormatError,
    GridSpec,
    PersuasionInstance,
    QueueInstance,
    SenderUtility,
    SignalingScheme,
    StateSpace,
    cli,
    full_persuasion,
    grid_point_sets,
    hull_candidates,
    instance_from_json,
    queue_model,
    scheme_from_json,
    scheme_value,
    solve_general,
    validate_scheme,
)
from persuade.queueing import MIN_HORIZON
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


def test_one_parser_serves_every_run_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    # The process builds its parser once; a run after a solve, a usage error,
    # a queue or --help prints and exits as a run on a parser of its own does.
    path = _write(tmp_path, "inst.json", _expected_dict())
    runs = [["solve", "--instance", path], ["solve", "--grid-k"], _queue_args(), ["--help"],
            ["solve", "--instance", path]]
    assert cli._build_parser() is cli._build_parser()

    def outcomes():
        out = []
        for argv in runs:
            rc = cli.run(argv)
            captured = capsys.readouterr()
            out.append((rc, captured.out, captured.err))
        return out

    shared = outcomes()
    assert [rc for rc, _, _ in shared] == [0, 1, 0, 0, 0]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert outcomes() == shared


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


def test_a_zero_optimum_prints_positive_zero(tmp_path, capsys):
    # The only accept state has prior 0, so nothing can be sold: the value
    # and the margin print as 0.0, not -0.0.
    doc = _expected_dict()
    doc["prior"] = [0.0, 0.6, 0.4]
    assert cli.run(["solve", "--instance", _write(tmp_path, "inst.json", doc)]) == 0
    out = capsys.readouterr().out
    assert '"value": 0.0' in out and '"margin": 0.0' in out
    result = json.loads(out)
    assert result["value"] == result["benefit"]["margin"] == 0.0


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve"], "--out"),
        (_queue_args(), "--out"),
        (_queue_args(), "--emit-plot-data"),
        (_queue_args() + ["--format", "csv"], "--emit-plot-data"),
    ],
    ids=["solve-out", "queue-out", "queue-plot-data", "queue-csv-plot-data"],
)
def test_a_file_that_cannot_be_written_prints_no_document(tmp_path, capsys, argv, flag):
    # The path is a directory: exit 1 with the I/O error, and nothing on stdout.
    if argv == ["solve"]:
        argv = argv + ["--instance", _write(tmp_path, "inst.json", threshold_instance_dict())]
    assert cli.run(argv + [flag, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Is a directory" in captured.err


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


def test_full_persuasion_queue_prints_no_sandwich_verdict(capsys):
    # Nobody is told to leave, so the sandwich audit does not apply, and its
    # verdict is null: neither a pass nor a failure.
    argv = ["queue", "--lambda", "0.6", "--beta", "0", "--tau", "5.5", "--capacity", "200"]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 1.0 and all(s["action"] == "join" for s in doc["signals"])
    assert doc["sandwich"]["applicable"] is False
    assert doc["sandwich"]["passed"] is None


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


def test_queue_simulate_refuses_a_negative_seed_before_solving(capsys, monkeypatch):
    # numpy refuses a negative seed, but only after the whole solve, and
    # its message does not name the flag.
    solves = _count_calls(monkeypatch, "solve_queue", home=persuade.queueing)
    args = _queue_args(capacity=1600) + ["--simulate", "20000", "--seed", "-3"]
    assert cli.run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "persuade: --seed: must be a non-negative integer, not -3\n"
    assert solves == []


def test_simulate_refuses_a_negative_seed_before_reading_the_scheme(tmp_path, capsys):
    argv = ["simulate", "--scheme", str(tmp_path / "absent.json"), "--lambda", "0.5",
            "--capacity", "4", "--events", "20000", "--seed", "-1"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "persuade: --seed: must be a non-negative integer, not -1\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "3"], "--seed: seeds a simulation, and no --simulate is given"),
        (["--seed", "-3"], "--seed: seeds a simulation, and no --simulate is given"),
        (["--simulate", str(MIN_HORIZON - 1), "--seed", "5"],
         f"--simulate: horizon {MIN_HORIZON - 1} below the minimum {MIN_HORIZON}"),
        (["--simulate", "0", "--seed", "5"],
         f"--simulate: horizon 0 below the minimum {MIN_HORIZON}"),
    ],
    ids=["seed", "negative-seed", "one-short", "zero"],
)
def test_queue_refuses_bad_simulation_flags_before_solving(capsys, monkeypatch, flags, message):
    # A seed without --simulate would be ignored, and a short horizon was
    # refused only after the whole solve.
    solves = _count_calls(monkeypatch, "solve_queue", home=persuade.queueing)
    assert cli.run(_queue_args(capacity=1600) + flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"persuade: {message}\n"
    assert solves == []


@pytest.mark.parametrize("events", [MIN_HORIZON - 1, 0, -5])
def test_simulate_refuses_a_short_horizon_before_reading_the_scheme(
    tmp_path, capsys, monkeypatch, events
):
    runs = _count_calls(monkeypatch, "simulate_queue", home=persuade.queueing)
    argv = ["simulate", "--scheme", str(tmp_path / "absent.json"), "--lambda", "0.5",
            "--capacity", "4", "--events", str(events), "--seed", "1"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"persuade: --events: horizon {events} below the minimum {MIN_HORIZON}\n"
    )
    assert runs == []


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
    assert cli.run(_queue_args(capacity=1)) == 1
    assert capsys.readouterr().err == "persuade: --capacity: must be at least 2, not 1\n"


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
    # Tied sender rows make the verdict ill-posed; the CLI reports null and
    # the method solve picks, binary since action 1 is weakly preferred.
    assert out == {"full_persuasion": None, "method": "binary"}


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
    # The exact plan of a one-action instance is one signal.
    assert report["margins"] == [None]


def test_emitters_refuse_non_finite_numbers(tmp_path, capsys):
    with pytest.raises(ValueError):
        cli._emit({"x": float("nan")})
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        cli._write_json(str(path), {"x": [1.0, float("inf")]})
    assert capsys.readouterr().out == ""
    assert not path.exists()


_JSON_NUMBERS = st.one_of(
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1.7976931348623157e308, 1e16, 0.1]),
)
_JSON_LEAVES = st.one_of(
    _JSON_NUMBERS, st.booleans(), st.none(), st.text(alphabet="aé☃\"\\\n\x00 ", max_size=4)
)
# Mostly +0.0, as in a queue document, with floats written otherwise:
# -0.0, the least subnormal, 1e16 (a repr in e-notation), 0.1, and the
# non-finite ones the writer must refuse.
_SPARSE_FLOATS = st.one_of(
    st.sampled_from([0.0] * 8 + [-0.0, 5e-324, 1e16, 0.1, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_JSON_NUMBERS, max_size=6),
        st.lists(_SPARSE_FLOATS, max_size=40),
        st.lists(st.integers(-(10**20), 10**20), max_size=6),
        st.lists(st.one_of(st.integers(-(10**20), 10**20), _SPARSE_FLOATS), max_size=40),
        st.dictionaries(st.text(alphabet="abé☃_", max_size=3), inner, max_size=4),
    ),
    max_leaves=25,
)


def _listed(doc):
    # The document json.dumps takes: arrays as their lists.
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _listed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_listed(x) for x in doc]
    return doc


def _assert_dumps_like_the_stdlib(doc):
    # ``doc`` renders as json.dumps renders it with lists for arrays, or raises its error.
    try:
        expected = json.dumps(_listed(doc), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            cli._dumps(doc)
        assert str(caught.value) == str(exc)
    else:
        assert cli._dumps(doc) == expected


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_the_stdlib_byte_for_byte(doc):
    _assert_dumps_like_the_stdlib(doc)


# Float64 vectors and matrices drawn from _SPARSE_FLOATS, and int arrays,
# empty ones included: the CLI hands the writer arrays, not their lists.
_ARRAY_SHAPES = st.one_of(
    st.tuples(st.integers(0, 40)), st.tuples(st.integers(0, 4), st.integers(0, 12))
)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _ARRAY_SHAPES, elements=_SPARSE_FLOATS),
    hnp.arrays(np.int64, _ARRAY_SHAPES),
)
_ARRAY_DOCS = st.recursive(
    st.one_of(_JSON_LEAVES, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(alphabet="abé☃_", max_size=3), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_ARRAY_DOCS, st.sampled_from(["conditional", "prior", "signals"]))
def test_json_writer_renders_arrays_as_their_lists(doc, key):
    _assert_dumps_like_the_stdlib(doc)
    _assert_dumps_like_the_stdlib({"a": 1, key: {key: doc}})


@pytest.mark.parametrize(
    "array",
    [np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(0, int), np.zeros((2, 0), int)],
    ids=repr,
)
def test_json_writer_renders_empty_arrays_as_their_lists(array):
    _assert_dumps_like_the_stdlib(array)
    _assert_dumps_like_the_stdlib({"x": [array, {"y": array}], "z": np.array([0.0, -0.0, 1.5])})


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

    # A scheme over another state count than --capacity is a schema error.
    bad = sim_args.copy()
    bad[bad.index("4")] = "5"
    assert cli.run(bad) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "persuade: prior: scheme and instance disagree on the state count\n"


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


@pytest.mark.parametrize("action", [7, 2])
def test_simulate_rejects_an_action_the_queue_lacks(action, tmp_path, capsys):
    # The queue has two actions, leave (0) and join (1); another one used to
    # be simulated as leave.
    scheme_path = tmp_path / "scheme.json"
    queue_args = [
        "queue", "--lambda", "0.5", "--beta", "0.0", "--tau", "20.0",
        "--capacity", "4", "--out", str(scheme_path),
    ]
    assert cli.run(queue_args) == 0
    capsys.readouterr()
    scheme = json.loads(scheme_path.read_text())
    scheme["signals"][0]["action"] = action
    sim_args = [
        "simulate", "--scheme", _write(tmp_path, "bad.json", scheme), "--lambda", "0.5",
        "--capacity", "4", "--events", "20000", "--seed", "3",
    ]
    assert cli.run(sim_args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"persuade: signals[0].action: action {action} out of range for 2 actions\n"
    )


@pytest.mark.parametrize("capacity", [100, 400, 1600])
def test_full_persuasion_queue_prints_no_leave_signal(capacity, capsys):
    # Every arrival can be told to join.  The flow LP's first rungs put
    # 1.9e-9 on a Leave column, the tail of joiners past their prefix, and
    # the document used to print that Leave signal beside a value of
    # 0.9999999981.
    argv = ["queue", "--lambda", "0.44389059492858984", "--beta", "0.6225674878326488",
            "--tau", "5.143517505325058", "--capacity", str(capacity)]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["action"] for s in doc["signals"]] == ["join"] * len(doc["signals"])
    assert [s["action"] for s in doc["scheme"]["signals"]] == [1] * len(doc["signals"])
    assert abs(1.0 - doc["value"]) <= 1e-12
    assert doc["threshold"]["state"] is None and doc["threshold"]["holds"]
    assert doc["sandwich"]["applicable"] is False


def test_roundtrip_fixpoint(tmp_path):
    inst_doc = threshold_instance_dict()
    inst_doc["prior"] = [1 / 3, 1 / 3, 1 / 6, 1 / 6]
    inst_path = _write(tmp_path, "inst.json", inst_doc)
    parsed = oracles.roundtrip(inst_path)
    assert isinstance(parsed, PersuasionInstance)

    scheme_path = tmp_path / "scheme.json"
    assert cli.run(
        ["solve", "--instance", inst_path, "--out", str(scheme_path)]
    ) == 0
    parsed = oracles.roundtrip(str(scheme_path))
    assert isinstance(parsed, SignalingScheme)

    broken = {k: v for k, v in inst_doc.items() if k != "prior"}
    broken_path = _write(tmp_path, "broken.json", broken)
    with pytest.raises(FormatError):
        oracles.roundtrip(broken_path)


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
        "b2954afab057e9fa78ed9426b6975be03a01c433b1fe3b2db8a9e130dac1a2bd",
        "34bce489b19a21a79369dabefc00bb664c558e83ba9df09c61c561ae5d9c19f9",
    ),
    "readme-check-full": (
        _expected_dict(), ["check-full"],
        "6da31fd0dede9debf1e0fea9f1e1a566e3f9db3f905ababc133ff62a890f0eda",
        None,
    ),
    "queue-json": (
        None, GOLDEN_QUEUE,
        "d255821b9289f19f2654580117c2ba88482e252651d5866ae7a0f234ad5da818",
        "eda3d10c2f4e8a878607c09a593ed57b11ccb196f8d3559a67b526951a777f1e",
    ),
    "queue-csv": (
        None, GOLDEN_QUEUE + ["--format", "csv"],
        "c8c9bb8a3dd404226c52ed71d8959b37406d9d35785566f5c367d33764a12dc2",
        "eda3d10c2f4e8a878607c09a593ed57b11ccb196f8d3559a67b526951a777f1e",
    ),
    # Full persuasion: every length gets a signal, and nearly every float is 0.0.
    "queue-persuasion-json": (
        None, ["queue", "--lambda", "0.6", "--beta", "0", "--tau", "5.5", "--capacity", "200"],
        "596658a9fbbe9fc4dd2243dda68b51bbc5f3d570807f4630872d63bc872baaab",
        "df0e508d1373ec76a462b4e35139b9ea1c3b97f61b34951fcaf90538e8a7365b",
    ),
    # queue-scale's largest op: 70 signals over 1,600 lengths, 4.66 MB of stdout.
    "queue-persuasion-1600": (
        None, ["queue", "--lambda", "0.65", "--beta", "0", "--tau", "5.5", "--capacity", "1600"],
        "52cefc4ed834837def5617bb3638e6d8f701f3b1ecc59acfe44db00fb6efdc58",
        "b8cb7bbeac38fd1cbcc2ea6307935487f68a2f09817cb7ec53dc90718871f7de",
    ),
    "mean-stdev-binary": (
        _seeded_binary(_mean_stdev_receiver, 11, 16), ["solve"],
        "c08dd3db7dc942a393adb8d59059cc82d63fea91e3f75c25d2aa2288dba71f3b",
        "bcb5f5693842d730827f155e24c86c8ae6f8167585e14b618e782c1b67b79905",
    ),
    "maximin-binary": (
        _seeded_binary(_maximin_receiver, 12, 14), ["solve"],
        "58a3088fe6041eaf5922e25c23a9f697d2ca49ad9827cf4befa9f6538d947ee3",
        "78f7501930ad8fe014f99026d446542980962bbdad88e73992a9929957a0ebef",
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
    "json": ([], "a6f5120e37debb9c313a2d1cd43a44e47e943ec59df921448b44fc8a46a8152d"),
    "csv": (
        ["--format", "csv"],
        "69f61e762745fdeb6f751fad2697d2a2b2a0116a2f8196f800d0217faf9fea7f",
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


# validate on the README `solve --out` scheme, as written and with its pure
# `b` signal recommending yes (margin -1, flagged): (tamper, exit code,
# stdout sha256).
GOLDEN_VALIDATE = {
    "readme": (None, 0, "6266f733df8a1ca4edba16bf20c868b7ef906cfd9c0b959235e7a1ea4f6076f7"),
    "tampered": (
        lambda doc: doc["signals"][1].update(action=1), 2,
        "aa2c35a82f4c83f8d2fa76f081a2d0f3359b6ba584bf6de84b8b3ab341b44f69",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_VALIDATE))
def test_golden_validate_bytes(case, tmp_path, capsys):
    tamper, code, stdout_sha = GOLDEN_VALIDATE[case]
    inst = _write(tmp_path, "inst.json", _expected_dict())
    scheme = tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", inst, "--out", str(scheme)]) == 0
    capsys.readouterr()
    if tamper is not None:
        doc = json.loads(scheme.read_text())
        tamper(doc)
        scheme.write_text(json.dumps(doc))
    assert cli.run(["validate", "--instance", inst, "--scheme", str(scheme)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == stdout_sha


# Simulation bytes: a seed fixes every draw, so these hold as long as the
# draw contract in ``simulate_queue``'s docstring does.
GOLDEN_SIMULATE_SHA = "6ca9a931cf18a004efba877f0e1ed3bf6dd901b4d91e40a8123b528f0e67f68a"
GOLDEN_QUEUE_SIMULATE_SHA = "8ccbe1503a15486a8d5fa5315c8801238cfcd4c0723e8082a034cece8dfccd2e"


def test_golden_simulate_bytes(tmp_path, capsys):
    scheme = tmp_path / "scheme.json"
    assert cli.run(GOLDEN_QUEUE + ["--out", str(scheme)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--scheme", str(scheme), "--lambda", "0.95", "--beta", "2.5",
            "--tau", "7.5", "--capacity", "100", "--events", "20000", "--seed", "3"]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == GOLDEN_SIMULATE_SHA


def test_golden_queue_simulate_bytes(capsys):
    argv = ["queue", "--lambda", "0.5", "--beta", "0", "--tau", "20", "--capacity", "4",
            "--simulate", "20000", "--seed", "7"]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == GOLDEN_QUEUE_SIMULATE_SHA


def _queue_scheme_validates(path, lam, beta, tau, capacity) -> bool:
    compiled = scheme_from_json(json.loads(Path(path).read_text()))
    instance = PersuasionInstance(
        states=StateSpace(tuple(str(n) for n in range(capacity))),
        actions=ActionSpace(("leave", "join")),
        prior=Belief(compiled.prior),
        sender=SenderUtility(np.column_stack([np.zeros(capacity), np.ones(capacity)])),
        receiver=queue_model(QueueInstance(lam, beta, tau, capacity)),
    )
    return validate_scheme(compiled, instance).ok


@pytest.mark.parametrize("lam, capacity", [(0.55, 1600), (0.65, 1600), (0.55, 1200)])
def test_queue_full_persuasion_at_scale_exits_zero(lam, capacity, tmp_path, capsys):
    # HiGHS's dual simplex gave up on the whole flow LP of these three
    # (exit 2); the prefix solve closes on 40 or 80 lengths.
    out = tmp_path / "scheme.json"
    argv = ["queue", "--lambda", str(lam), "--beta", "0", "--tau", "5.5",
            "--capacity", str(capacity), "--out", str(out)]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 1.0 and doc["threshold"]["holds"]
    assert _queue_scheme_validates(out, lam, 0.0, 5.5, capacity)


@pytest.mark.parametrize(
    "lam, beta, tau, capacity",
    [
        (0.49891308564886205, 0.0, 2.472333823976656, 30),
        (0.6943298699647857, 2.445107607623497, 10.70457655987117, 400),
    ],
)
def test_queue_over_the_residual_bound_retries_and_exits_zero(
    lam, beta, tau, capacity, tmp_path, capsys
):
    # HiGHS's default primal feasibility tolerance (1e-7) left every rung's
    # equality residual at 3.5e-9 and 2.3e-8, over the 2e-9 bound (exit 2);
    # the retry at LP_RESIDUAL closes both.
    out = tmp_path / "scheme.json"
    argv = ["queue", "--lambda", repr(lam), "--beta", repr(beta), "--tau", repr(tau),
            "--capacity", str(capacity), "--out", str(out)]
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and json.loads(captured.out)["value"] == 1.0
    assert _queue_scheme_validates(out, lam, beta, tau, capacity)


@pytest.mark.parametrize(
    "lam, beta, tau, capacity",
    [
        (2.8927817964701577, 0.13811660321337194, 11.949541895523291, 30),
        (2.372653907359783, 0.000918358899591798, 9.762526328232399, 100),
    ],
)
def test_queue_over_the_dual_tolerance_retries_and_exits_zero(
    lam, beta, tau, capacity, tmp_path, capsys
):
    # HiGHS's default dual feasibility tolerance (1e-7) left a column of
    # the whole chain pricing at 8.9e-8, over the 2e-9 bound (exit 2); the
    # retry at CERTIFICATE_TOLERANCE closes both.
    out, inst = tmp_path / "scheme.json", tmp_path / "instance.json"
    argv = ["queue", "--lambda", repr(lam), "--beta", repr(beta), "--tau", repr(tau),
            "--capacity", str(capacity), "--out", str(out)]
    assert cli.run(argv) == 0
    assert capsys.readouterr().err == ""
    solution = persuade.solve_queue(persuade.QueueInstance(lam, beta, tau, capacity))
    inst.write_text(json.dumps(oracles.instance_to_json(solution.persuasion)))
    assert cli.run(["validate", "--instance", str(inst), "--scheme", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_queue_capacity_fifty_thousand_exits_zero(tmp_path, capsys):
    # Lengths 0 and 1 are joinable: 99,996 blends, under MAX_QUEUE_BLENDS.
    # The textbook blend weight put the blend of 41999 and 1 off the
    # boundary by 1.0e-7, and the solve exited 2.
    out = tmp_path / "scheme.json"
    argv = ["queue", "--lambda", "0.95", "--beta", "2.5", "--tau", "6",
            "--capacity", "50000", "--out", str(out)]
    assert cli.run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"]["holds"] and doc["sandwich"]["passed"]
    assert _queue_scheme_validates(out, 0.95, 2.5, 6.0, 50_000)


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
        sets = grid_point_sets(instance, grid)
        assert value >= solve_general(instance, sets).value - 1e-12
    assert value == pytest.approx(
        oracles.concavify_oracle(instance, candidates.rows()), abs=1e-12
    )


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name",
    [
        # The plan's joint mass misses state 9's prior of 1.7e-3 by 8.1e-12, so
        # a law divided by the prior sums 4.7e-9 off one (it exited 1).
        "small_prior_mean_stdev.json",
        # A blend on an edge of steep CVaR differential: bisection's last
        # bracket left it 1.08e-7 off the surface (it exited 2).
        "steep_cvar_boundary.json",
    ],
)
def test_pinned_instance_solves_and_validates(name, tmp_path, capsys):
    path, out = str(DATA / name), tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", path, "--out", str(out)]) == 0
    assert cli.run(["validate", "--instance", path, "--scheme", str(out)]) == 0
    assert capsys.readouterr().err == ""
    instance = instance_from_json(json.loads((DATA / name).read_text()))
    candidates = hull_candidates(instance)
    blends = candidates.gamma.ravel() > 0.0
    slots = slice(len(candidates.classification.accept), candidates.n_accept)
    boundary = instance.receiver.differential_slots(
        candidates.states[slots][blends], candidates.weights[slots][blends]
    )
    assert np.abs(boundary).max() <= 1e-12


def test_tall_grid_instance_solves_and_validates(tmp_path, capsys):
    # A non-convex d 5 mean_stdev receiver at k 30: 46,376 grid beliefs,
    # scored in row blocks (CI also checks that no BLAS worker thread runs).
    path, out = str(DATA / "nonconvex_mean_stdev_d5.json"), tmp_path / "scheme.json"
    assert cli.run(["solve", "--instance", path, "--grid-k", "30", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "grid"
    assert cli.run(["validate", "--instance", path, "--scheme", str(out)]) == 0
    assert capsys.readouterr().err == ""


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
    # Each state has one sender-preferred action, so check-full solves, by
    # the obedience LP.  The receiver agrees with the sender in states a and
    # b but not in c: the hull-membership verdict needed an LP for each cell.
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
        (["solve"], _three_action_dict(), "obedience"),
        (["check-full"], _seeded_binary(_mean_stdev_receiver, 11, 6), "binary"),
        (["check-full"], _three_action_dict(), "obedience"),
    ],
)
def test_one_lp_per_solve_and_check_full(tmp_path, capsys, monkeypatch, verb, doc, expected_method):
    lps = _count_calls(monkeypatch, "solve_lp", home=persuade.geometry)
    # One HiGHS call too: a retry on a solve that passes would show here.
    engine = _count_calls(monkeypatch, "linprog", home=persuade.geometry)
    path = _write(tmp_path, "inst.json", doc)
    # A d 6, k 4 grid is 126 candidates, 21 per row: a direct solve.
    assert cli.run(verb + ["--instance", path, "--grid-k", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == expected_method
    assert out["full_persuasion"] in (True, False)
    assert len(lps) == len(engine) == 1


def test_one_program_per_grid_solve_above_the_column_limit(tmp_path, capsys, monkeypatch):
    # At k 6 the same grid is 462 candidates, 77 per row: one program, solved
    # by column generation, with one HiGHS call per round and no retry.
    programs = _count_calls(monkeypatch, "solve_by_columns", home=persuade.geometry)
    lps = _count_calls(monkeypatch, "solve_lp", home=persuade.geometry)
    engine = _count_calls(monkeypatch, "linprog", home=persuade.geometry)
    path = _write(tmp_path, "inst.json", _seeded_binary(_mean_stdev_receiver, 11, 6))
    assert cli.run(["solve", "--method", "grid", "--instance", path, "--grid-k", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "grid"
    assert len(programs) == 1 and len(lps) == len(engine) > 1


def _tied(doc, row):
    # The sender's first two actions tie in state ``row``.
    sender_v = [list(r) for r in doc["sender_v"]]
    sender_v[row][1] = sender_v[row][0]
    return {**doc, "sender_v": sender_v}


@pytest.mark.parametrize(
    "doc, method",
    [(_tied(_expected_dict(), 2), "binary"), (_tied(_three_action_dict(), 0), "obedience")],
    ids=["two-actions", "three-actions"],
)
def test_check_full_answers_a_tie_without_solving(tmp_path, capsys, monkeypatch, doc, method):
    lps = _count_calls(monkeypatch, "solve_lp", home=persuade.geometry)
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["check-full", "--instance", path, "--grid-k", "6"]) == 0
    assert json.loads(capsys.readouterr().out) == {"full_persuasion": None, "method": method}
    # No grid runs, so the grid flag is not read.
    assert cli.run(["check-full", "--instance", path, "--grid-k", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"full_persuasion": None, "method": method}
    assert lps == []


def _verdict_pool():
    # Seeded 2- and 3-action instances (d 2-5): expected receivers, and
    # convex mean_stdev ones with the sender weakly or not preferring action
    # 1, so every route runs.  Every other instance gets one sender row tied
    # within SENDER_PREFERENCE_SLACK, whose verdict must be null.
    rng = np.random.default_rng(41)
    docs = []
    for i in range(36):
        d, n_actions = int(rng.integers(2, 6)), 3 if i % 3 == 2 else 2
        doc = _seeded_binary(_mean_stdev_receiver, int(rng.integers(10**6)), d)
        if i % 3 != 1:
            u = rng.uniform(-1.0, 1.0, (d, n_actions))
            doc["receiver"] = {"kind": "expected", "u": u.tolist()}
        v = rng.uniform(0.0, 1.0, (d, n_actions))
        if i % 6 < 2:
            v[:, 1] = v[:, 0] + rng.uniform(0.1, 1.0, d)
        if i % 2:
            row = int(rng.integers(d))
            v[row, :2] = [1.0, 1.0 - 5e-13] if i % 4 == 1 else [1.0 - 5e-13, 1.0]
            v[row, 2:] = 0.0
        docs.append({**doc, "actions": [f"a{a}" for a in range(n_actions)],
                     "sender_v": v.tolist()})
    return docs


def test_check_full_gives_the_verdict_and_method_of_solve(tmp_path, capsys):
    methods, verdicts = set(), []
    for i, doc in enumerate(_verdict_pool()):
        path = _write(tmp_path, f"inst-{i}.json", doc)
        assert cli.run(["solve", "--instance", path]) == 0
        solved = json.loads(capsys.readouterr().out)
        assert cli.run(["check-full", "--instance", path]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict == {"full_persuasion": solved["full_persuasion"],
                           "method": solved["method"]}, i
        assert (verdict["full_persuasion"] is None) == (i % 2 == 1), i
        methods.add(verdict["method"])
        verdicts.append(verdict["full_persuasion"])
    assert methods == {"binary", "obedience", "grid"}
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--lambda", "--beta", "--tau"])
@pytest.mark.parametrize("verb", ["queue", "simulate"])
def test_queue_rate_flags_must_be_finite(tmp_path, capsys, verb, flag, value):
    # "--flag=-inf": argparse reads a separate "-inf" as an option name.
    rates = {"--lambda": "0.95", "--beta": "2.5", "--tau": "7.5", flag: value}
    argv = [verb] + [f"{k}={x}" for k, x in rates.items()] + ["--capacity", "4"]
    if verb == "simulate":
        scheme_path = tmp_path / "scheme.json"
        assert cli.run(_queue_args(capacity=4) + ["--out", str(scheme_path)]) == 0
        capsys.readouterr()
        argv += ["--scheme", str(scheme_path), "--events", "10000", "--seed", "1"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"persuade: {flag}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--lambda", "0", "must be a finite positive number, not 0.0"),
        ("--lambda", "-0.5", "must be a finite positive number, not -0.5"),
        ("--beta", "-1", "must be a finite nonnegative number, not -1.0"),
        ("--tau", "0", "must be a finite positive number, not 0.0"),
        ("--capacity", "1", "must be at least 2, not 1"),
    ],
    ids=["lambda-zero", "lambda-negative", "beta", "tau", "capacity"],
)
@pytest.mark.parametrize("verb", ["queue", "simulate"])
def test_queue_flags_out_of_range_exit_one_before_solving(
    tmp_path, capsys, monkeypatch, verb, flag, value, message
):
    # QueueInstance refuses these at the field's name; the CLI names the
    # flag with the same message, before anything runs.
    solves = _count_calls(monkeypatch, "solve_queue", home=persuade.queueing)
    runs = _count_calls(monkeypatch, "simulate_queue", home=persuade.queueing)
    flags = {"--lambda": "0.95", "--beta": "2.5", "--tau": "7.5", "--capacity": "4", flag: value}
    argv = [verb] + [f"{k}={x}" for k, x in flags.items()]
    if verb == "simulate":
        argv += ["--scheme", str(tmp_path / "absent.json"), "--events", "10000", "--seed", "1"]
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"persuade: {flag}: {message}\n"
    assert solves == runs == []


def test_grid_k_below_one_exits_one_when_a_grid_runs(tmp_path, capsys, monkeypatch):
    # The sender prefers "no" in state s0, so this mean_stdev instance
    # takes the grid.  A binary solve does not read the flag.
    doc = _seeded_binary(_mean_stdev_receiver, 11, 3)
    doc["sender_v"] = [[1.0, 0.0]] + doc["sender_v"][1:]
    path = _write(tmp_path, "inst.json", doc)
    assert cli.run(["solve", "--instance", path, "--grid-k", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "grid"
    lps = _count_calls(monkeypatch, "solve_lp", home=persuade.geometry)
    for verb in (["solve"], ["solve", "--method", "grid"], ["check-full"]):
        assert cli.run(verb + ["--instance", path, "--grid-k", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "persuade: --grid-k: must be at least 1, not 0\n"
    assert lps == []
    binary = _write(tmp_path, "binary.json", _expected_dict())
    assert cli.run(["solve", "--instance", binary, "--method", "binary", "--grid-k", "0"]) == 0


def _off_grid_dict():
    # The sender prefers "no" in state L, so the binary precondition fails.
    # Telling L apart from R1 and R2 pools those two at 0.49 : 0.51, where
    # the receiver still takes "yes" (margin 0.005); a default grid (k 24)
    # has no such belief and loses value.
    return {
        "states": ["L", "R1", "R2"],
        "actions": ["no", "yes"],
        "prior": [0.5, 0.245, 0.255],
        "sender_v": [[1, 0], [0, 1], [0, 1]],
        "receiver": {"kind": "expected", "u": [[0, -1], [0, 0.515], [0, -0.485]]},
    }


def test_expected_receiver_off_the_grid_is_solved_exactly(tmp_path, capsys):
    path = _write(tmp_path, "inst.json", _off_grid_dict())
    assert cli.run(["solve", "--instance", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["method"], doc["k"]) == ("obedience", None)
    assert doc["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["full_persuasion"] is True
    assert cli.run(["check-full", "--instance", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"full_persuasion": True, "method": "obedience"}


def _expected_pool():
    # Seeded expected-utility instances over d 2-7 and 1-5 actions, each
    # drawn once at random and once aligned (u = v).  The sender prefers
    # action 0 in state 0, so no two-action instance passes the binary
    # precondition.
    rng = np.random.default_rng(23)
    docs = []
    for d in range(2, 8):
        for n_actions in range(1, 6):
            v = rng.uniform(0.0, 1.0, (d, n_actions))
            v[0, 0] = v[0].max() + 0.5
            for u in (rng.uniform(-1.0, 1.0, (d, n_actions)), v):
                docs.append({
                    "states": [f"s{w}" for w in range(d)],
                    "actions": [f"a{a}" for a in range(n_actions)],
                    "prior": rng.dirichlet(np.ones(d)).tolist(),
                    "sender_v": v.tolist(),
                    "receiver": {"kind": "expected", "u": u.tolist()},
                })
    return docs


def test_auto_solves_expected_receivers_exactly(tmp_path, capsys):
    verdicts = []
    for i, doc in enumerate(_expected_pool()):
        inst = instance_from_json(doc)
        path = _write(tmp_path, f"inst-{i}.json", doc)
        out = tmp_path / f"scheme-{i}.json"
        assert cli.run(["solve", "--instance", path, "--out", str(out)]) == 0
        solved = json.loads(capsys.readouterr().out)
        u = np.asarray(doc["receiver"]["u"])
        exact = oracles.revelation_lp(inst.prior.weights, u, inst.sender.table)
        assert solved["method"] == "obedience"
        assert solved["value"] == pytest.approx(exact, abs=1e-9)
        # The atom posteriors' weighted gains sum to the margin.
        assert solved["benefit"]["certificate_gain"] >= solved["benefit"]["margin"] - 1e-9
        scheme = scheme_from_json(json.loads(out.read_text()))
        assert validate_scheme(scheme, inst).ok
        assert scheme_value(scheme, inst) == pytest.approx(solved["value"], abs=1e-9)
        ideal = float(inst.prior.weights @ inst.sender.table.max(axis=1))
        assert cli.run(["check-full", "--instance", path]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict == {"full_persuasion": abs(exact - ideal) <= 1e-9, "method": "obedience"}
        assert solved["full_persuasion"] is verdict["full_persuasion"]
        verdicts.append(verdict["full_persuasion"])
    assert True in verdicts and False in verdicts


def _aligned(instance):
    # The receiver's expected utility is the sender's table: full disclosure
    # gives the sender its ideal action in every state.
    return instance_from_json(
        {**oracles.instance_to_json(instance),
         "receiver": {"kind": "expected", "u": instance.sender.table.tolist()}}
    )


def _with_prior(instance, prior):
    return instance_from_json({**oracles.instance_to_json(instance), "prior": list(prior)})


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
                sets = grid_point_sets(inst, grid)
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


@pytest.mark.parametrize("factor", [0.0, 2.0], ids=["zeroed", "doubled"])
def test_validate_refuses_a_prior_that_is_not_a_distribution(factor, tmp_path, capsys):
    inst_path, scheme = _solved_scheme(tmp_path, capsys)
    scheme["prior"] = [factor * p for p in scheme["prior"]]
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    assert code == 1
    assert out == ""
    assert err == "persuade: prior: weights must sum to 1\n"


def test_validate_fails_a_scheme_with_one_marginal_edited(tmp_path, capsys):
    # The law, the posteriors and obedience still check out: only the
    # recorded marginal disagrees with the one prior and law imply.
    inst_path, scheme = _solved_scheme(tmp_path, capsys)
    scheme["signals"][0]["marginal"] += 0.1
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    doc = json.loads(out)
    assert code == 2 and err == ""
    assert doc["ok"] is False and doc["flagged"] == []
    assert doc["marginal_residual"] == pytest.approx(0.1, abs=1e-12)
    assert doc["bayes_residual"] <= 1e-9 and doc["posterior_residual"] <= 1e-8


def test_validate_fails_a_scheme_made_for_another_prior(tmp_path, capsys):
    # The scheme is Bayes-plausible for the prior [0.1, 0.6, 0.3] it was
    # solved at; validate reads the instance's prior, so at [0.5, 0.25, 0.25]
    # the marginals and posteriors that prior and the law imply miss.
    _, scheme = _solved_scheme(tmp_path, capsys)
    inst_path = _write(tmp_path, "other.json", dict(_expected_dict(), prior=[0.5, 0.25, 0.25]))
    code, out, err = _validate_exit(tmp_path, capsys, inst_path, scheme)
    doc = json.loads(out)
    assert code == 2 and err == ""
    assert doc["ok"] is False and doc["flagged"] == []
    assert doc["bayes_residual"] <= 1e-9
    assert doc["marginal_residual"] == pytest.approx(17 / 60, abs=1e-9)
    assert doc["posterior_residual"] == pytest.approx(11 / 21, abs=1e-9)


def _queue_scheme_files(tmp_path, capsys, edit):
    """A capacity-4 queue's --out scheme with ``edit`` applied, its instance, and its flags."""
    scheme_path = tmp_path / "scheme.json"
    queue = ["--lambda", "0.9", "--beta", "0", "--tau", "3", "--capacity", "4"]
    assert cli.run(["queue", *queue, "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    scheme = json.loads(scheme_path.read_text())
    edit(scheme)
    solution = persuade.solve_queue(QueueInstance(0.9, 0.0, 3.0, 4))
    inst_path = _write(tmp_path, "inst.json", oracles.instance_to_json(solution.persuasion))
    return _write(tmp_path, "bad.json", scheme), inst_path, queue


def _zero_state_1(scheme):
    for row in scheme["conditional"]:
        row[1] = 0.0


def test_simulate_refuses_a_state_whose_signal_law_is_not_a_law(tmp_path, capsys):
    # With state 1's column zeroed every arrival at length 1 drew the last
    # signal: Join_2 fell from 2,209 to 0 and Join_4 rose from 2,529 to 4,738.
    # SignalingScheme refuses such a law when the file is read, so validate
    # and simulate both exit 1 at the field.
    bad_path, inst_path, queue = _queue_scheme_files(tmp_path, capsys, _zero_state_1)
    sim = ["simulate", "--scheme", bad_path, *queue, "--events", "20000", "--seed", "1"]
    for argv in (sim, ["validate", "--instance", inst_path, "--scheme", bad_path]):
        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "persuade: conditional: law of state 1 sums to 0.0, not 1\n"


def _set_at(*keys, value):
    """An edit that sets the entry of a document at ``keys`` to ``value``."""
    def edit(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_at("prior", 1, value=-0.25), "prior: weights must be nonnegative"),
        (_set_at("signals", 0, "marginal", value=1.5),
         "signals[0].marginal: probability 1.5 out of range"),
        (_set_at("signals", 2, "label", value="Join_1"),
         "signals[2].label: labels must be distinct: 'Join_1'"),
        (_set_at("signals", 1, "posterior", 1, value=0.9),
         "signals[1].posterior: entries must form a distribution"),
        (_set_at("conditional", 1, 0, value=-0.5), "conditional[1]: entries must be probabilities"),
        (_zero_state_1, "conditional: law of state 1 sums to 0.0, not 1"),
    ],
    ids=["prior", "marginal", "label", "posterior", "entry", "column"],
)
@pytest.mark.parametrize("verb", ["validate", "simulate"])
def test_a_scheme_file_that_is_not_a_law_exits_one_at_the_field(tmp_path, capsys, verb, edit, message):
    # SignalingScheme holds each rule; both verbs that read a scheme file
    # reach it, before anything is validated or simulated.
    bad_path, inst_path, queue = _queue_scheme_files(tmp_path, capsys, edit)
    argv = (["validate", "--instance", inst_path, "--scheme", bad_path] if verb == "validate"
            else ["simulate", "--scheme", bad_path, *queue, "--events", "20000", "--seed", "1"])
    assert cli.run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"persuade: {message}\n"


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


@pytest.mark.parametrize(
    "receiver, edit, message",
    [
        (_mean_stdev_receiver, lambda r: r.update(beta=-0.5), "beta must be nonnegative, got -0.5"),
        (_mean_stdev_receiver, lambda r: r["g_var"][2].__setitem__(1, -1.0),
         "g_var entries must be nonnegative"),
        (_cvar_receiver, lambda r: r["loss_probs"][1].__setitem__(0, [0.5, 0.2, 0.2, 0.2]),
         "state 1, action 0: loss probabilities must form a distribution"),
    ],
    ids=["mean_stdev-beta", "mean_stdev-g_var", "cvar-loss_probs"],
)
def test_a_receiver_the_model_refuses_exits_one_at_the_receiver(
    receiver, edit, message, tmp_path, capsys
):
    # The document is at fault (exit 1), and the model's message is kept.
    doc = _seeded_binary(receiver, 11, 4)
    edit(doc["receiver"])
    path = _write(tmp_path, "inst.json", doc)
    for verb in ("solve", "check-full"):
        assert cli.run([verb, "--instance", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"persuade: receiver: {message}\n"


def test_validate_refuses_a_scheme_over_another_state_count(tmp_path, capsys):
    # A queue scheme over 400 lengths against a 3-state instance: a schema
    # error at the prior (exit 1), not a failed validation.  simulate holds
    # it against --capacity 100 by the same rule, with the same message.
    scheme_path = tmp_path / "q.json"
    queue = ["queue", "--lambda", "0.6", "--beta", "0", "--tau", "5.5", "--capacity", "400"]
    assert cli.run([*queue, "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    code, out, err = _validate_exit(
        tmp_path, capsys, _write(tmp_path, "inst.json", _expected_dict()),
        json.loads(scheme_path.read_text()),
    )
    assert (code, out) == (1, "")
    assert err == "persuade: prior: scheme and instance disagree on the state count\n"
    simulate = ["simulate", "--scheme", str(scheme_path), "--lambda", "0.95", "--capacity", "100",
                "--events", "10000", "--seed", "1"]
    assert cli.run(simulate) == 1
    assert capsys.readouterr() == ("", err)


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
        bases.append((oracles.instance_to_json(solution.persuasion), json.loads(out.read_text())))
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
