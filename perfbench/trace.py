"""Span recorder for the traced run, and the per-layer metrics built on it.

The recorder works from outside the program: while one op runs, it swaps
every public function of every ``persuade`` module, at each binding other
modules import it under (``persuade.binary.solve_lp`` is the same function
as ``persuade.geometry.solve_lp``), for a wrapper that records a span.  It
also wraps ``UtilityModel.score``, ``score_all`` and ``differential`` and
``GridSpec.points``.  A span is ``[name, start, end, parent, op, attrs]``;
spans stay in memory until the run writes them out.  Nothing under
``src/`` changes, and the originals are restored after every op, so the
benchmark's own checks never run traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import re
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("model", "geometry", "binary", "general", "queueing", "scheme", "cli")
METHODS = (
    ("model", "UtilityModel", ("score", "score_all", "differential")),
    ("general", "GridSpec", ("points",)),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
METRIC_UNITS = {
    "import.persuade_s": "s",
    "import.scipy_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "B",
    "model.calls": "count",
    "model.rows_scored": "count",
    "model.self_s": "s",
    "geometry.lp_calls": "count",
    "geometry.lp_s": "s",
    "geometry.lp_rows": "count",
    "geometry.lp_cols": "count",
    "geometry.lp_nnz": "count",
    "geometry.bisect_calls": "count",
    "geometry.bisect_s": "s",
    "geometry.hull_calls": "count",
    "geometry.hull_s": "s",
    "binary.classify_calls": "count",
    "binary.k01_calls": "count",
    "binary.k01_vertices": "count",
    "binary.k01_self_s": "s",
    "binary.threshold_s": "s",
    "binary.threshold_pairs": "count",
    "binary.solve_self_s": "s",
    "binary.full_s": "s",
    "general.grid_points": "count",
    "general.grid_kept_frac": "1",
    "general.grid_s": "s",
    "general.solve_self_s": "s",
    "general.baseline_s": "s",
    "general.benefit_s": "s",
    "queueing.solve_self_s": "s",
    "queueing.gamma_calls": "count",
    "queueing.gamma_closed_frac": "1",
    "queueing.sandwich_s": "s",
    "queueing.sim_s": "s",
    "queueing.sim_events": "count",
    "queueing.ns_per_event": "ns",
    "scheme.compile_s": "s",
    "scheme.validate_s": "s",
    "scheme.value_s": "s",
    "scheme.json_s": "s",
    "scheme.sample_s": "s",
    "trace.overhead_frac": "1",
}


def _rows(mu) -> int:
    return 1 if np.ndim(mu) == 1 else int(np.shape(mu)[0])


def _lp_size(bound, result):
    a = bound.arguments["lp"].a_eq
    return {"rows": a.shape[0], "cols": a.shape[1], "nnz": int(np.count_nonzero(a))}


def _threshold_pairs(bound, result):
    # The monotone audit visits (non-accept state, later state) pairs and,
    # for each, every accept state; the k01 blends name both sets.
    order = list(bound.arguments["order"])
    k01 = bound.arguments.get("k01")
    if bound.arguments.get("instance") is None or not k01:
        return {"pairs": 0}
    accept = {v.accept_state for v in k01}
    later = sum(len(order) - 1 - i for i, w in enumerate(order) if w not in accept)
    return {"pairs": later * len(accept)}


def _grid_kept(bound, result):
    extra = bound.arguments.get("extra")
    n_extra = len(extra) if extra is not None and len(extra) else 0
    return {"scored": bound.arguments["grid"].n_points, "kept": result.shape[0] - n_extra}


# Sizes recorded on a span, from the call's arguments and result.
SIZERS = {
    "geometry.solve_lp": _lp_size,
    "binary.compute_k01": lambda b, r: {"vertices": len(r)},
    "binary.verify_threshold": _threshold_pairs,
    "general.grid_vertices": _grid_kept,
    "queueing.simulate_queue": lambda b, r: {"events": b.arguments["events"]},
    "scheme.sample_scheme_batch": lambda b, r: {"samples": b.arguments["n"]},
    "general.GridSpec.points": lambda b, r: {"rows": r.shape[0]},
}


class Tracer:
    """Spans of every traced op of a run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        # Scoring calls are the hottest spans; they skip signature binding.
        scoring = name.startswith("model.UtilityModel.")
        sizer = SIZERS.get(name)
        signature = inspect.signature(fn) if sizer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer._op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf_counter()
                span[5] = {"error": 1}
                raise
            finally:
                tracer._stack.pop()
            span[2] = perf_counter()
            if scoring:
                span[5] = {"rows": _rows(args[1])}
            elif sizer:
                span[5] = sizer(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _install(self) -> None:
        import persuade

        modules = [persuade] + [importlib.import_module(f"persuade.{m}") for m in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        for layer, cls_name, names in METHODS:
            cls = getattr(importlib.import_module(f"persuade.{layer}"), cls_name)
            for attr in names:
                fn = vars(cls)[attr]
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", fn))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def recording(self, op_id: int):
        """Trace the body as op ``op_id``; the program is untouched outside it."""
        self._install()
        self._op = op_id
        try:
            yield
        finally:
            self._uninstall()
            self._op = None
            self._stack.clear()

    def absorb(self, spans: list[list], op_id: int) -> None:
        """Append spans recorded in a child process, renumbered for this run."""
        base = len(self.spans)
        for name, start, end, parent, _, attrs in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + base, op_id, attrs]
            )


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def importtime(root) -> dict[str, float]:
    """Cumulative import time of ``persuade`` and of the scipy modules it pulls in.

    Runs ``python -X importtime`` in a fresh process.  scipy's share is the
    cumulative time of every scipy module not imported from inside another
    scipy module.
    """
    code = "import sys; sys.path.insert(0, 'src'); import persuade"
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    lines = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            lines.append((len(m.group(3)), m.group(4), int(m.group(2)) * 1e-6))
    persuade_s = scipy_s = 0.0
    ancestors: list[tuple[int, str]] = []
    # importtime prints a module after everything it imports; reversed, each
    # module comes right after its importer.
    for depth, name, cumulative in reversed(lines):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "persuade":
            persuade_s = cumulative
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for _, a in ancestors
        ):
            scipy_s += cumulative
        ancestors.append((depth, name))
    return {"import.persuade_s": persuade_s, "import.scipy_s": scipy_s}


def layer_metrics(spans: list[list], per: float) -> dict[str, float]:
    """Per-layer totals from the spans, divided by ``per`` (the cycle count)."""
    own = self_times(spans)
    count: dict[str, float] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for span, s in zip(spans, own):
        name, start, end, _, _, extra = span
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + s
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s
        for key, value in (extra or {}).items():
            attrs[f"{name}:{key}"] = attrs.get(f"{name}:{key}", 0) + value

    def n(name):
        return count.get(name, 0)

    def t(*names):
        return sum(total.get(x, 0.0) for x in names)

    def a(key):
        return attrs.get(key, 0)

    model_calls = [f"model.UtilityModel.{m}" for m in ("score", "score_all", "differential")]
    gamma = n("queueing.gamma_closed_form")
    events = a("queueing.simulate_queue:events")
    scored = a("general.grid_vertices:scored")
    out = {
        "cli.self_s": self_s.get("cli.run", 0.0),
        "model.calls": sum(n(x) for x in model_calls),
        "model.rows_scored": sum(a(f"{x}:rows") for x in model_calls),
        "model.self_s": layer_self.get("model", 0.0),
        "geometry.lp_calls": n("geometry.solve_lp"),
        "geometry.lp_s": t("geometry.solve_lp"),
        "geometry.lp_rows": a("geometry.solve_lp:rows"),
        "geometry.lp_cols": a("geometry.solve_lp:cols"),
        "geometry.lp_nnz": a("geometry.solve_lp:nnz"),
        "geometry.bisect_calls": n("geometry.segment_bisection"),
        "geometry.bisect_s": t("geometry.segment_bisection"),
        "geometry.hull_calls": n("geometry.hull_membership"),
        "geometry.hull_s": t("geometry.hull_membership"),
        "binary.classify_calls": n("binary.classify_states"),
        "binary.k01_calls": n("binary.compute_k01"),
        "binary.k01_vertices": a("binary.compute_k01:vertices"),
        "binary.k01_self_s": self_s.get("binary.compute_k01", 0.0),
        "binary.threshold_s": t("binary.verify_threshold"),
        "binary.threshold_pairs": a("binary.verify_threshold:pairs"),
        "binary.solve_self_s": self_s.get("binary.solve_binary", 0.0),
        "binary.full_s": t("binary.full_persuasion_binary"),
        "general.grid_points": a("general.GridSpec.points:rows"),
        "general.grid_kept_frac": a("general.grid_vertices:kept") / scored if scored else 0.0,
        "general.grid_s": t("general.grid_vertices"),
        "general.solve_self_s": self_s.get("general.solve_general", 0.0),
        "general.baseline_s": t("general.baseline_values"),
        "general.benefit_s": t("general.benefit_check"),
        "queueing.solve_self_s": self_s.get("queueing.solve_queue", 0.0),
        "queueing.gamma_calls": gamma,
        "queueing.gamma_closed_frac": (
            (gamma - a("queueing.gamma_closed_form:error")) / gamma if gamma else 0.0
        ),
        "queueing.sandwich_s": t("queueing.verify_sandwich"),
        "queueing.sim_s": t("queueing.simulate_queue"),
        "queueing.sim_events": events,
        "queueing.ns_per_event": t("queueing.simulate_queue") / events * 1e9 if events else 0.0,
        "scheme.compile_s": t("scheme.scheme_from_plan"),
        "scheme.validate_s": t("scheme.validate_scheme"),
        "scheme.value_s": t("scheme.scheme_value"),
        "scheme.json_s": t("scheme.scheme_to_json", "scheme.scheme_from_json"),
        "scheme.sample_s": t("scheme.sample_scheme_batch"),
    }
    fractions = {"general.grid_kept_frac", "queueing.gamma_closed_frac", "queueing.ns_per_event"}
    return {k: (v if k in fractions else v / per) for k, v in out.items()}
