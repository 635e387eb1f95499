"""Every public function of ``heatchern`` is reached by ``verify``, or waits
for a named reason.

The test runs ``verify`` on each scenario file at seed 0 under a profiler
and collects the code objects it enters.  The public functions are the
module-level functions and the methods, classmethods, staticmethods and
property getters whose names do not start with ``_`` (so dunders are out)
of public classes, and of the private ``heatchern`` bases those classes
inherit from, keyed by the base (``multivector._SparseElement.coefficient``).
What is not reached must equal ``WAITING`` exactly:
a new function no check reaches fails here, and so does one that a check
starts to reach while it is still listed.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import heatchern
from heatchern import cli

from conftest import profiled

SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))

ITEM_1 = "ROADMAP item 1 (Greiner's parametrix as a route)"
ITEM_2 = "ROADMAP item 2 (the equivariant Ray-Singer metric)"
ITEM_4 = "ROADMAP item 4 (the Lichnerowicz record composes D o D)"
BENCHMARK = "the benchmark (perfbench/checks.py)"

WAITING = {
    "equivariant.mehler_kernel": ITEM_1,
    "equivariant.mehler_heat_residual": ITEM_1,
    "equivariant.mehler_body": ITEM_1,
    "multivector.exp_even": ITEM_1,
    "multivector._SparseElement.scale": ITEM_1,
    "multivector.Multivector.scalar": ITEM_1,
    "getzler.VolterraSymbol.tau": ITEM_1,
    "getzler.VolterraSymbol.parabolic_order": ITEM_1,
    "getzler.VolterraSymbol.dilate": ITEM_1,
    "equivariant.transgression": ITEM_2,
    "equivariant.theta_form": ITEM_2,
    "equivariant.hodge_variation_operator": ITEM_2,
    "getzler.compose": ITEM_4,
    "getzler.GradedDiffOp.d_x": ITEM_4,
    "getzler.GradedDiffOp.word": ITEM_4,
    "getzler.GradedDiffOp.x_coord": ITEM_4,
    "equivariant.equivariant_supertrace": BENCHMARK,
    "duhamel.remainder_operator": BENCHMARK,
    "duhamel.iterated_commutator": BENCHMARK,
    "spectral.IsometryAction.translation": BENCHMARK,
    "spectral.IsometryAction.rotation": BENCHMARK,
}


def _methods(cls) -> dict:
    """Public attribute name -> code object of each method ``cls`` defines."""
    out = {}
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        elif isinstance(member, property):
            member = member.fget
        if inspect.isfunction(member):
            out[attr] = member.__code__
    return out


def public_functions() -> dict:
    """``module.qualname`` -> code object of each public function."""
    out = {}
    for info in pkgutil.iter_modules(heatchern.__path__):
        mod = importlib.import_module(f"heatchern.{info.name}")
        for name, obj in vars(mod).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            if inspect.isfunction(obj):
                out[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, code in _methods(obj).items():
                    out[f"{info.name}.{name}.{attr}"] = code
                for base in obj.__mro__[1:]:
                    if (base.__name__.startswith("_")
                            and base.__module__.startswith("heatchern.")):
                        owner = base.__module__.rsplit(".", 1)[1]
                        for attr, code in _methods(base).items():
                            out[f"{owner}.{base.__qualname__}.{attr}"] = code
    return out


def _reached_codes(tmp_path) -> set:
    reached = set()
    for scenario in SCENARIOS:
        with profiled() as codes:
            cli.main(["verify", "--config", str(scenario), "--seed", "0",
                      "--out", str(tmp_path / f"{scenario.stem}.txt")])
        reached |= codes
    return reached


def test_every_public_function_is_reached_or_waits(tmp_path):
    assert SCENARIOS
    reached = _reached_codes(tmp_path)
    unreached = {name for name, code in public_functions().items()
                 if code not in reached}
    assert sorted(unreached - WAITING.keys()) == [], "reached by nothing"
    assert sorted(WAITING.keys() - unreached) == [], "reached, still listed"
