"""Command-line front end.

Verbs:

- ``solve``: optimal scheme for a JSON instance (binary fast path when
  the model qualifies, the exact obedience LP for any other
  expected-utility receiver, grid relaxation otherwise).
- ``queue``: the queue application from rate/patience parameters, with
  optional simulation and plot-data emission.
- ``check-full``: just the can-the-sender-always-win verdict.
- ``validate``: audit a scheme file against an instance file.
- ``simulate``: run a scheme file through the queue dynamics.

Exit codes: 0 success, 1 for I/O or schema problems (including bad
flags), 2 for infeasible or ill-posed models and failed validations.
All artifacts are deterministic: same inputs and seed, same bytes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from .binary import binary_precondition_error, hull_candidates, solve_binary
from .general import (
    GridSpec,
    _ideal_action_tied,
    benefit_check,
    default_grid_k,
    full_persuasion,
    grid_point_sets,
    solve_general,
    solve_obedience,
)
from .geometry import InfeasibleProgramError, LpSolverError
from .model import FormatError, instance_from_json
from .queueing import (
    QueueInstance,
    _check_horizon,
    posterior_wait_moments,
    simulate_queue,
    solve_queue,
    verify_sandwich,
)
from .scheme import (
    scheme_from_json,
    scheme_from_plan,
    scheme_to_json,
    validate_scheme,
)

__all__ = ["run", "main"]


class _Parser(argparse.ArgumentParser):
    # Usage problems are I/O-class failures: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once a process (a build takes about 0.7 ms on a 2-core host);
    # parsing leaves the parser as it was.
    parser = _Parser(prog="persuade", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON instance")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    p_solve.add_argument(
        "--method",
        choices=["auto", "binary", "grid"],
        default="auto",
        help="binary hull LP, grid relaxation, or pick (binary, obedience LP or grid)",
    )
    p_solve.add_argument(
        "--grid-k", type=int, default=None, help="grid denominator (when the grid runs)"
    )
    p_solve.add_argument("--out", default=None, help="also write the scheme JSON here")

    p_queue = sub.add_parser("queue", help="solve the queue application")
    p_queue.add_argument("--lambda", dest="lam", type=float, required=True)
    p_queue.add_argument("--beta", type=float, required=True)
    p_queue.add_argument("--tau", type=float, required=True)
    p_queue.add_argument("--capacity", type=int, required=True)
    p_queue.add_argument("--simulate", type=int, default=None, metavar="EVENTS")
    p_queue.add_argument("--seed", type=int, default=None)
    p_queue.add_argument("--emit-plot-data", default=None, metavar="PATH")
    p_queue.add_argument("--format", choices=["json", "csv"], default="json")
    p_queue.add_argument("--out", default=None, help="also write the scheme JSON here")

    p_full = sub.add_parser("check-full", help="full-persuasion verdict only")
    p_full.add_argument("--instance", required=True)
    p_full.add_argument("--grid-k", type=int, default=None)

    p_val = sub.add_parser("validate", help="audit a scheme against an instance")
    p_val.add_argument("--instance", required=True)
    p_val.add_argument("--scheme", required=True)

    p_sim = sub.add_parser("simulate", help="run a scheme through the queue")
    p_sim.add_argument("--scheme", required=True)
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--capacity", type=int, required=True)
    p_sim.add_argument("--tau", type=float, default=1.0)
    p_sim.add_argument("--beta", type=float, default=0.0)
    p_sim.add_argument("--events", type=int, default=1_000_000)
    p_sim.add_argument("--seed", type=int, required=True)
    return parser


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# Without indent, so encode() runs the stdlib's C encoder.
_FLAT = json.JSONEncoder(allow_nan=False)


class _RenderOnce(dict):
    """A dict ``_dumps`` renders once, then re-indents: JSON text holds no raw newline."""

    text: str | None = None


def _dumps(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)``, byte for byte,
    where each ndarray in ``doc`` stands for its ``tolist()``.

    ``indent`` sends the stdlib to its pure-Python encoder; here the text
    is gathered in pieces and joined once.  Dicts and lists recurse in
    sorted-key order, a matrix is the list of its rows, the C encoder
    writes each scalar, and ``_float_block`` writes each float64 vector
    and each list of floats.
    allow_nan=False: a non-finite number raises ``ValueError`` (exit 2)
    instead of writing bare NaN or Infinity, which is not JSON; the error
    is re-raised by the stdlib call, which takes each array as its list, for
    its exact message.
    """
    pieces = []
    try:
        _put(doc, "\n", pieces)
    except ValueError:
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist)
    return "".join(pieces)


def _put(doc, newline: str, out: list) -> None:
    """Append the text of ``doc``, indented one step past ``newline``, to ``out``."""
    inner = newline + "  "
    if type(doc) is _RenderOnce:
        if doc.text is None:
            doc.text = _dumps(dict(doc))
        out.append(doc.text if newline == "\n" else doc.text.replace("\n", newline))
    elif type(doc) is np.ndarray and doc.ndim == 1 and doc.dtype == np.float64 and doc.size:
        _float_block(doc, newline, out)
    elif type(doc) is np.ndarray:
        _put(list(doc) if doc.ndim > 1 else doc.tolist(), newline, out)
    elif isinstance(doc, list) and doc and set(map(type, doc)) == {float}:
        _float_block(np.array(doc), newline, out)
    elif isinstance(doc, list) and doc:
        sep = "[" + inner
        for x in doc:
            out.append(sep)
            _put(x, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(doc, dict) and doc and all(type(k) is str for k in doc):
        sep = "{" + inner
        for k, v in sorted(doc.items()):
            out += (sep, _FLAT.encode(k), ": ")
            _put(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif type(doc) in (str, int, float, bool, type(None)):
        out.append(_FLAT.encode(doc))
    else:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=np.ndarray.tolist)
        out.append(text.replace("\n", newline))


def _float_block(values: np.ndarray, newline: str, out: list) -> None:
    """Append the indented text of a nonempty float64 vector to ``out``.

    The text with every entry +0.0 (all 64 bits zero) is built by string
    repetition; the other entries are written by one C-encoder call and
    spliced in at their fixed offsets.
    """
    inner = newline + "  "
    text = "[" + inner + ("0.0," + inner) * (values.size - 1) + "0.0" + newline + "]"
    live = values.view(np.uint64) != 0
    entries = _FLAT.encode(values[live].tolist())[1:-1].split(", ")
    head, stride, end = 1 + len(inner), 4 + len(inner), 0
    for i, entry in zip(live.nonzero()[0].tolist(), entries):
        at = head + i * stride
        out += (text[end:at], entry)
        end = at + 3
    out.append(text[end:])


def _emit(doc: dict) -> None:
    print(_dumps(doc))


def _write_json(path: str, doc: dict) -> None:
    text = _dumps(doc)
    with open(path, "w", encoding="utf-8") as fh:
        print(text, file=fh)


def _auto_method(instance) -> str:
    """The solver ``auto`` picks, for ``solve`` and ``check-full`` alike.

    Binary when the binary precondition holds; otherwise the exact
    obedience LP for an expected-utility receiver, and the grid
    relaxation for any other.
    """
    if binary_precondition_error(instance) is None:
        return "binary"
    return "obedience" if instance.receiver.kind == "expected" else "grid"


def _solve_instance(instance, method: str, grid_k: int | None):
    """Dispatch to a solver; returns (plan, point sets, method, k).

    The binary path builds its hull candidates once (one classification,
    one k01 pass) and hands them to the LP and to the benefit check.  The
    obedience plan's atom posteriors are its point sets: their weighted
    gains sum to the margin, so they certify it.  ``grid_k`` is read only
    when the grid runs; None means the default for the state count.
    """
    if method == "auto":
        method = _auto_method(instance)
    if method == "binary":
        candidates = hull_candidates(instance)
        return solve_binary(instance, candidates), candidates.point_sets(), "binary", None
    if method == "obedience":
        plan = solve_obedience(instance)
        sets = [np.array([x.posterior for x in plan.atoms if x.action == a])
                for a in range(instance.n_actions)]
        return plan, sets, "obedience", None
    if grid_k is not None and grid_k < 1:
        raise FormatError("--grid-k", f"must be at least 1, not {grid_k}")
    k = grid_k if grid_k is not None else default_grid_k(instance.n_states)
    sets = grid_point_sets(instance, GridSpec(k=k, dim=instance.n_states))
    return solve_general(instance, sets), sets, "grid", k


def _cmd_solve(args) -> int:
    instance = instance_from_json(_load_json(args.instance))
    plan, sets, method, k = _solve_instance(instance, args.method, args.grid_k)
    compiled = scheme_from_plan(plan, instance)
    report = validate_scheme(compiled, instance)
    benefit = benefit_check(instance, plan, sets)
    doc = {
        "value": plan.value,
        "method": method,
        "k": k,
        "baselines": {"no_info": benefit.no_info, "full_info": benefit.full_info},
        "benefit": {
            "strictly_beneficial": benefit.strictly_beneficial,
            "margin": benefit.margin,
            "certificate_action": instance.actions.labels[benefit.certificate_action],
            "certificate_point": benefit.certificate_point,
            "certificate_gain": benefit.certificate_gain,
        },
        "full_persuasion": full_persuasion(instance, plan),
        "plan": {
            "t": plan.t,
            "atoms": [
                {
                    "action": instance.actions.labels[a.action],
                    "posterior": a.posterior,
                    "weight": a.weight,
                    "label": a.label,
                }
                for a in plan.atoms
            ],
        },
        "validation": {
            "bayes_residual": report.bayes_residual,
            "posterior_residual": report.posterior_residual,
            "flagged": list(report.flagged),
        },
        "scheme": _RenderOnce(scheme_to_json(compiled, np.asarray)),
    }
    # The file first: a run that cannot write it prints no document.
    text = _dumps(doc)
    if args.out:
        _write_json(args.out, doc["scheme"])
    print(text)
    return 0


def _signal_rows(solution) -> list[dict]:
    rows = []
    for sig in solution.scheme.signals:
        mean, var = posterior_wait_moments(sig.posterior)
        rows.append(
            {
                "label": sig.label,
                "action": solution.persuasion.actions.labels[sig.action],
                "marginal": sig.marginal,
                "wait_mean": mean,
                "wait_stdev": float(np.sqrt(var)),
                "posterior": sig.posterior,
            }
        )
    return rows


def _plot_data(solution, rows: list[dict]) -> dict:
    """Plot tables: the conditional law, then ``_signal_rows``' per-signal values."""
    return {
        "states": list(solution.persuasion.states.labels),
        "signals": [row["label"] for row in rows],
        "conditional": solution.scheme.conditional,
        "posteriors": [row["posterior"] for row in rows],
        "marginals": [row["marginal"] for row in rows],
        "wait_means": [row["wait_mean"] for row in rows],
    }


def _plot_data_csv(plot: dict) -> str:
    """The plot tables as long-form CSV: one (table, signal, state, value) per row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["table", "signal", "state", "value"])
    for table, key in (("conditional", "conditional"), ("posterior", "posteriors")):
        for label, values in zip(plot["signals"], plot[key]):
            cells = zip(plot["states"], values.tolist())
            writer.writerows([table, label, w, repr(x)] for w, x in cells)
    for label, mean in zip(plot["signals"], plot["wait_means"]):
        writer.writerow(["wait_mean", label, "", repr(mean)])
    return buf.getvalue()


# The flag that sets each field the library names in a FormatError.
_FLAGS = {"arrival_rate": "--lambda", "beta": "--beta", "tau": "--tau", "capacity": "--capacity"}


def _queue_instance(args) -> QueueInstance:
    """The queue instance of the flags; a value ``QueueInstance`` refuses is a bad flag (exit 1)."""
    try:
        return QueueInstance(
            arrival_rate=args.lam, beta=args.beta, tau=args.tau, capacity=args.capacity
        )
    except FormatError as exc:
        raise FormatError(_FLAGS[exc.path], exc.message) from None


def _check_simulation(flag: str, events: int | None, seed: int | None) -> None:
    """Refuse bad simulation flags (exit 1) before anything is read or solved.

    ``events`` is the horizon that ``flag`` gives, or None when no
    simulation runs, and then a ``seed`` would be ignored.  A simulation
    needs a horizon ``_check_horizon`` takes and a seed numpy takes: given,
    and non-negative.
    """
    if events is None:
        if seed is not None:
            raise FormatError("--seed", "seeds a simulation, and no --simulate is given")
        return
    _check_horizon(events, flag)
    if seed is None:
        raise FormatError("--seed", "simulation requires an explicit seed")
    if seed < 0:
        raise FormatError("--seed", f"must be a non-negative integer, not {seed}")


def _cmd_queue(args) -> int:
    _check_simulation("--simulate", args.simulate, args.seed)
    if args.simulate is not None and args.format == "csv":
        raise FormatError("--simulate", "the CSV table has no simulation columns")
    instance = _queue_instance(args)
    solution = solve_queue(instance)
    sandwich = verify_sandwich(solution)
    doc = {
        "arrival_rate": instance.arrival_rate,
        "beta": instance.beta,
        "tau": instance.tau,
        "capacity": instance.capacity,
        "join_probability": solution.join_probability,
        "throughput": solution.throughput,
        "value": solution.plan.value,
        "threshold": {
            "holds": solution.threshold.holds,
            "state": solution.threshold.threshold_state,
            "monotone_ok": solution.threshold.monotone_ok,
        },
        "sandwich": {
            "applicable": sandwich.applicable,
            "passed": sandwich.passed if sandwich.applicable else None,
            "utility_ok": sandwich.utility_ok,
            "support_ok": sandwich.support_ok,
            "ordering_ok": sandwich.ordering_ok,
            "moments_ok": sandwich.moments_ok,
        },
        "signals": _signal_rows(solution),
        "occupancy": solution.occupancy,
        "scheme": _RenderOnce(scheme_to_json(solution.scheme, np.asarray)),
    }
    if args.simulate is not None:
        sim = simulate_queue(instance, solution.scheme, args.simulate, args.seed)
        doc["simulation"] = {
            "events": sim.events,
            "arrivals": sim.arrivals,
            "blocked": sim.blocked,
            "joins": sim.joins,
            "join_rate": sim.join_rate,
            "signal_counts": sim.signal_counts,
            "occupancy_time": sim.occupancy_time,
        }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = ("marginal", "wait_mean", "wait_stdev")
        writer.writerow(["label", "action", *columns])
        for row in doc["signals"]:
            writer.writerow([row["label"], row["action"]] + [repr(row[c]) for c in columns])
        text = buf.getvalue()
    else:
        text = _dumps(doc) + "\n"
    # The files first: a run that cannot write them prints no document.
    if args.out:
        _write_json(args.out, doc["scheme"])
    if args.emit_plot_data:
        plot = _plot_data(solution, doc["signals"])
        if args.format == "csv":
            with open(args.emit_plot_data, "w", encoding="utf-8") as fh:
                fh.write(_plot_data_csv(plot))
        else:
            _write_json(args.emit_plot_data, plot)
    sys.stdout.write(text)
    return 0


def _cmd_check_full(args) -> int:
    """Print the full-persuasion verdict and the method, as ``solve`` gives them.

    A tied sender table makes the verdict null, so nothing is solved and
    ``--grid-k`` is not read: the method printed is the one ``solve``
    would pick.
    """
    instance = instance_from_json(_load_json(args.instance))
    if _ideal_action_tied(instance):
        _emit({"full_persuasion": None, "method": _auto_method(instance)})
        return 0
    plan, _, method, _ = _solve_instance(instance, "auto", args.grid_k)
    _emit({"full_persuasion": full_persuasion(instance, plan), "method": method})
    return 0


def _cmd_validate(args) -> int:
    instance = instance_from_json(_load_json(args.instance))
    compiled = scheme_from_json(_load_json(args.scheme))
    report = validate_scheme(compiled, instance)
    _emit(
        {
            "ok": report.ok,
            "bayes_residual": report.bayes_residual,
            "marginal_residual": report.marginal_residual,
            "posterior_residual": report.posterior_residual,
            # A signal whose action has no alternative has margin inf.
            "margins": [None if m == math.inf else float(m) for m in report.margins],
            "flagged": list(report.flagged),
        }
    )
    return 0 if report.ok else 2


def _cmd_simulate(args) -> int:
    _check_simulation("--events", args.events, args.seed)
    instance = _queue_instance(args)
    compiled = scheme_from_json(_load_json(args.scheme))
    sim = simulate_queue(instance, compiled, args.events, args.seed)
    _emit(
        {
            "events": sim.events,
            "burn_in_events": sim.burn_in_events,
            "arrivals": sim.arrivals,
            "blocked": sim.blocked,
            "joins": sim.joins,
            "leaves": sim.leaves,
            "join_rate": sim.join_rate,
            "signal_counts": sim.signal_counts,
            "arrival_seen": sim.arrival_seen,
            "occupancy_time": sim.occupancy_time,
            "total_time": sim.total_time,
        }
    )
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "queue": _cmd_queue,
    "check-full": _cmd_check_full,
    "validate": _cmd_validate,
    "simulate": _cmd_simulate,
}


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except (FormatError, OSError, json.JSONDecodeError) as exc:
        print(f"persuade: {exc}", file=sys.stderr)
        return 1
    except (InfeasibleProgramError, LpSolverError, ValueError) as exc:
        print(f"persuade: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
