"""Checks as data: every record comes from one declared ``Check``, and the two
routes of a ``two-route`` check share no code.

The independence audit runs each two-route check of every scenario file at
seed 0, one route at a time under a profiler, and collects the ``heatchern``
functions each route enters.  Outside the declared core (the sparse algebra
containers, the word-product kernel and the scalars) the two routes must
share nothing but what ``SHARED`` lists, each entry with its reason, and
each route must reach something beyond that core.  ``SHARED`` must equal
what the audit finds: a check that starts to share a function fails here,
and so does an entry that no longer holds.
"""

import importlib
from pathlib import Path

import pytest

from heatchern import _kernels, equivariant, scenario, suites
from heatchern.multivector import _SparseElement
from heatchern.scenario import ScenarioConfig, parse_scenario

from conftest import profiled

SCENARIOS = sorted(
    (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn"))
PACKAGE = Path(suites.__file__).resolve().parent

# the algebra both routes are written in: the scalars, the word-product
# kernel, and the sparse containers (``_SparseElement`` and the private
# hooks through which each subclass specializes it)
CORE_MODULES = ("scalars",)
CORE_FUNCTIONS = ("multivector._product", "multivector._popcount",
                  "multivector._suffix_parity")

DISPATCH = ("a method-string dispatcher, each method its own body, kept "
            "because perfbench/checks.py calls it that way")
PHI = ("builds phi_tilde, which both paths pair with A; "
       "fixed-point/pushforward-oracle checks it against minors")
READOUT = ("the read-out both sides apply to their own matrix: its size, "
           "the grading check and Str = sum g_i M_ii")

SHARED = {
    ("fixed-point/supertrace-paths", "equivariant.equivariant_supertrace"):
        DISPATCH,
    ("fixed-point/supertrace-paths", "equivariant.phi_tilde"): PHI,
    ("fixed-point/supertrace-paths", "equivariant._trig_pairs"): PHI,
    ("fixed-point/supertrace-paths", "clifford.clifford_multiply"): PHI,
    ("fixed-point/supertrace-paths", "clifford.CliffordElement.one"): PHI,
    ("duhamel/series-vs-direct", "duhamel.FiniteOperator.dim"): READOUT,
    ("duhamel/series-vs-direct", "duhamel._check_grading"): READOUT,
    ("duhamel/series-vs-direct", "duhamel._supertrace"): READOUT,
    ("getzler/model-operator", "getzler._is_opaque"):
        "GradedDiffOp._clean's test for opaque keys, which both operators "
        "are built through",
}


def _name(code) -> str:
    """``module.qualname`` of a code object, nested code under its owner."""
    qualname = code.co_qualname.split(".<locals>", 1)[0]
    return f"{Path(code.co_filename).stem}.{qualname}"


def _in_core(name: str) -> bool:
    module, qualname = name.split(".", 1)
    if module in CORE_MODULES or name in CORE_FUNCTIONS:
        return True
    owner, _, method = qualname.partition(".")
    cls = getattr(importlib.import_module(f"heatchern.{module}"), owner, None)
    return (isinstance(cls, type) and issubclass(cls, _SparseElement)
            and (cls is _SparseElement or method.startswith("_")))


def _scenario(path) -> ScenarioConfig:
    cfg = parse_scenario(str(path))
    cfg.seed = 0
    cfg.validate()
    return cfg


def _audit():
    """({(check, function)} shared outside the core, [(check, route) that
    reach nothing outside it])."""
    shared, idle = set(), []
    for path in SCENARIOS:
        for check in suites._checks(_scenario(path)):
            if check.kind != "two-route":
                continue
            reached = []
            for index, route in enumerate(check.routes):
                with profiled() as codes:
                    route()
                # compare code objects: the routes' lambdas share qualnames
                codes = {c for c in codes
                         if Path(c.co_filename).resolve().parent == PACKAGE
                         and not _in_core(_name(c))}
                if all(c.co_filename == suites.__file__ for c in codes):
                    idle.append((check.name, index))
                reached.append(codes)
            shared |= {(check.name, _name(c)) for c in reached[0] & reached[1]}
    return shared, idle


def test_two_route_checks_share_only_what_is_listed():
    assert SCENARIOS
    shared, idle = _audit()
    assert idle == [], "a route reaches nothing"
    assert sorted(shared - SHARED.keys()) == [], "shared, not listed"
    assert sorted(SHARED.keys() - shared) == [], "listed, not shared"


def test_suite_names_have_one_list():
    assert scenario.SUITES == (*suites.SUITE_RUNNERS, "all")


def test_every_record_comes_from_a_declared_check():
    cfg = _scenario(SCENARIOS[0])
    assert cfg.suite == "all"
    checks = list(suites._checks(cfg))
    assert ([c.name for c in checks]
            == [r.name for r in suites.run_suite(cfg).records])
    for check in checks:
        assert check.kind in suites.KINDS
        assert len(check.routes) == (2 if check.kind == "two-route" else 1)


def test_check_declares_its_route_count():
    with pytest.raises(ValueError, match="route count"):
        suites.Check("x", "", "two-route", (lambda: 0,), suites._exact)
    with pytest.raises(ValueError, match="route count"):
        suites.Check("x", "", "bound", (lambda: 0, lambda: 0), suites._exact)
    with pytest.raises(ValueError, match="kind"):
        suites.Check("x", "", "oracle", (lambda: 0,), suites._exact)


def test_an_exception_becomes_a_failing_record():
    record = suites._run(suites.Check(
        "x", "in", "bound", (lambda: 1 / 0,), suites._small(1.0)))
    assert (record.expected, record.observed, record.tolerance,
            record.passed) == ("", "error: division by zero", "", False)


@pytest.mark.parametrize("geometry,kind,params,kernel", [
    ("torus", "minus-id", (), "torus_supertrace"),
    ("sphere", "rotation", (0.7,), "sphere_supertrace"),
])
def test_spectral_suite_sums_each_t_once(monkeypatch, geometry, kind, params,
                                         kernel):
    """One mode sum per t-grid entry, read again by t-constancy, plus the
    Lefschetz sum."""
    calls = []
    original = getattr(_kernels, kernel)
    monkeypatch.setattr(_kernels, kernel,
                        lambda *a: calls.append(a) or original(*a))
    cfg = ScenarioConfig(suite="spectral", geometry=geometry,
                         action_kind=kind, action_params=params, cutoff=5,
                         t_grid=(0.1, 0.5, 1.0))
    suites.run_suite(cfg)
    assert len(calls) == len(cfg.t_grid) + 1


def test_fixed_point_suite_builds_one_mehler_body(monkeypatch):
    calls = []
    original = equivariant.mehler_body
    monkeypatch.setattr(equivariant, "mehler_body",
                        lambda *a: calls.append(a) or original(*a))
    cfg = ScenarioConfig(suite="fixed-point", n=6, a=2)
    assert cfg.isometry().b > 0
    assert suites.run_suite(cfg).passed
    assert len(calls) == 1
