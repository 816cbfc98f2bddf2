"""The public surface: every export resolves, and removed names stay gone."""

import dataclasses
import importlib
import inspect

import pytest

import persuade

MODULES = ("model", "geometry", "binary", "general", "queueing", "scheme", "cli")
REMOVED_FUNCTIONS = (
    "BestResponse",
    "receiver_best_response",
    "rho",
    "differential_utility",
    "waiting_moments",
    "segment_bisection",
    "BisectionError",
    "BISECTION_MAX_ITER",
    "K01Vertex",
    "full_persuasion_binary",
    "full_persuasion_general",
    "hull_membership",
    "ConvexCombination",
    "HULL_TOLERANCE",
)
REMOVED_MEMBERS = (
    ("Belief", "point"),
    ("OptimalPlan", "action_probability"),
    ("OptimalPlan", "mean_posterior"),
    ("UtilityModel", "evaluate"),
    ("SimulationResult", "seen_signal_counts"),
)


def _module(name):
    return importlib.import_module(f"persuade.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = _module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_module_exports():
    exported = {
        attr: getattr(_module(name), attr)
        for name in MODULES
        for attr in _module(name).__all__
    }
    for attr, value in vars(persuade).items():
        if attr.startswith("_") or inspect.ismodule(value):
            continue
        assert attr in exported, attr
        assert exported[attr] is value, attr


def test_removed_names_are_not_exported():
    for attr in REMOVED_FUNCTIONS:
        assert not hasattr(persuade, attr), attr
        for name in MODULES:
            assert not hasattr(_module(name), attr), (name, attr)
    for cls_name, member in REMOVED_MEMBERS:
        cls = getattr(persuade, cls_name)
        assert not hasattr(cls, member), (cls_name, member)
        assert member not in {f.name for f in dataclasses.fields(cls)}, (cls_name, member)
