"""Command-line front end.

Verbs:

- ``solve``: optimal scheme for a JSON instance (binary fast path when
  the model qualifies, grid relaxation otherwise).
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
import io
import json
import math
import sys

import numpy as np

from .binary import binary_precondition_error, hull_candidates, solve_binary
from .general import (
    GridSpec,
    benefit_check,
    default_grid_k,
    full_persuasion,
    grid_vertices,
    solve_general,
)
from .geometry import InfeasibleProgramError, LpSolverError
from .model import (
    FormatError,
    instance_from_json,
    instance_to_json,
)
from .queueing import (
    QueueInstance,
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

__all__ = ["run", "roundtrip", "main"]


class _Parser(argparse.ArgumentParser):
    # Usage problems are I/O-class failures: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="persuade", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_solve = sub.add_parser("solve", help="solve a JSON instance")
    p_solve.add_argument("--instance", required=True, help="instance JSON path")
    p_solve.add_argument(
        "--method",
        choices=["auto", "binary", "grid"],
        default="auto",
        help="binary hull LP, grid relaxation, or pick automatically",
    )
    p_solve.add_argument(
        "--grid-k", type=int, default=None, help="grid denominator (grid method)"
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


# allow_nan=False: a non-finite number raises (exit 2) instead of writing
# bare NaN or Infinity, which is not JSON; nothing is written then.
def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _solve_instance(instance, method: str, grid_k: int | None):
    """Dispatch to a solver; returns (plan, point sets, method, k).

    The binary path builds its hull candidates once (one classification,
    one k01 pass) and hands them to the LP and to the benefit check.
    """
    if method == "auto":
        method = "grid" if binary_precondition_error(instance) else "binary"
    if method == "binary":
        candidates = hull_candidates(instance)
        return solve_binary(instance, candidates), candidates.point_sets(), "binary", None
    sets, k = _grid_sets(instance, grid_k)
    return solve_general(instance, sets), sets, "grid", k


def _grid_sets(instance, grid_k: int | None):
    """Each action's grid candidates at denominator grid_k (or the default); (sets, k)."""
    k = grid_k if grid_k is not None else default_grid_k(instance.n_states)
    grid = GridSpec(k=k, dim=instance.n_states)
    return [grid_vertices(instance, a, grid) for a in range(instance.n_actions)], k


def _full_persuasion(instance, plan) -> bool | None:
    try:
        return full_persuasion(instance, plan)
    except ValueError:
        # Ill-posed for this sender table: a state's preferred action is tied.
        return None


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
            "certificate_point": [float(x) for x in benefit.certificate_point],
            "certificate_gain": benefit.certificate_gain,
        },
        "full_persuasion": _full_persuasion(instance, plan),
        "plan": {
            "t": [[float(x) for x in row] for row in plan.t],
            "atoms": [
                {
                    "action": instance.actions.labels[a.action],
                    "posterior": [float(x) for x in a.posterior],
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
        "scheme": scheme_to_json(compiled),
    }
    _emit(doc)
    if args.out:
        _write_json(args.out, doc["scheme"])
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
                "posterior": [float(x) for x in sig.posterior],
            }
        )
    return rows


def _plot_data(solution, rows: list[dict]) -> dict:
    """Plot tables: the conditional law, then ``_signal_rows``' per-signal values."""
    return {
        "states": list(solution.persuasion.states.labels),
        "signals": [row["label"] for row in rows],
        "conditional": [[float(x) for x in row] for row in solution.scheme.conditional],
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
            writer.writerows([table, label, w, repr(x)] for w, x in zip(plot["states"], values))
    for label, mean in zip(plot["signals"], plot["wait_means"]):
        writer.writerow(["wait_mean", label, "", repr(mean)])
    return buf.getvalue()


def _cmd_queue(args) -> int:
    if args.simulate is not None:
        if args.seed is None:
            raise FormatError("--seed", "simulation requires an explicit seed")
        if args.format == "csv":
            raise FormatError("--simulate", "the CSV table has no simulation columns")
    instance = QueueInstance(
        arrival_rate=args.lam,
        beta=args.beta,
        tau=args.tau,
        capacity=args.capacity,
    )
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
            "passed": sandwich.passed,
            "utility_ok": sandwich.utility_ok,
            "support_ok": sandwich.support_ok,
            "ordering_ok": sandwich.ordering_ok,
            "moments_ok": sandwich.moments_ok,
        },
        "signals": _signal_rows(solution),
        "occupancy": [float(x) for x in solution.occupancy],
        "scheme": scheme_to_json(solution.scheme),
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
            "occupancy_time": [float(x) for x in sim.occupancy_time],
        }
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        columns = ("marginal", "wait_mean", "wait_stdev")
        writer.writerow(["label", "action", *columns])
        for row in doc["signals"]:
            writer.writerow([row["label"], row["action"]] + [repr(row[c]) for c in columns])
        sys.stdout.write(buf.getvalue())
    else:
        _emit(doc)
    if args.out:
        _write_json(args.out, doc["scheme"])
    if args.emit_plot_data:
        plot = _plot_data(solution, doc["signals"])
        if args.format == "csv":
            with open(args.emit_plot_data, "w", encoding="utf-8") as fh:
                fh.write(_plot_data_csv(plot))
        else:
            _write_json(args.emit_plot_data, plot)
    return 0


def _cmd_check_full(args) -> int:
    instance = instance_from_json(_load_json(args.instance))
    v = instance.sender.table
    strict = binary_precondition_error(instance) is None and bool(np.all(v[:, 1] > v[:, 0]))
    plan, _, method, _ = _solve_instance(instance, "binary" if strict else "grid", args.grid_k)
    _emit({"full_persuasion": _full_persuasion(instance, plan), "method": method})
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
    instance = QueueInstance(
        arrival_rate=args.lam,
        beta=args.beta,
        tau=args.tau,
        capacity=args.capacity,
    )
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
            "arrival_seen": [int(x) for x in sim.arrival_seen],
            "occupancy_time": [float(x) for x in sim.occupancy_time],
            "total_time": sim.total_time,
        }
    )
    return 0


def roundtrip(path: str):
    """Parse a JSON artifact, re-serialize, re-parse; the fixpoint check.

    Detects instance versus scheme documents by their top-level keys.
    Returns the parsed object; raises FormatError when the document does
    not reach a serialization fixpoint after one parse (numbers survive
    via exact float repr, so this only trips on genuine schema drift).
    """
    data = _load_json(path)
    if isinstance(data, dict) and "signals" in data:
        parsed = scheme_from_json(data)
        first = json.dumps(scheme_to_json(parsed), sort_keys=True)
        second = json.dumps(scheme_to_json(scheme_from_json(json.loads(first))), sort_keys=True)
    else:
        parsed = instance_from_json(data)
        first = json.dumps(instance_to_json(parsed), sort_keys=True)
        second = json.dumps(
            instance_to_json(instance_from_json(json.loads(first))), sort_keys=True
        )
    if first != second:
        raise FormatError("$", "document does not round-trip to a fixpoint")
    return parsed


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
