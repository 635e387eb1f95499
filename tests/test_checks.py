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

The report's summary counts the kinds the checks declare, and the
fiber-integral record passes on every input that ``validate()`` accepts.
"""

import importlib
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatchern import (_kernels, equivariant, getzler, multivector, scenario,
                       suites)
from heatchern.multivector import _SparseElement
from heatchern.report import emit
from heatchern.scenario import ScenarioConfig, ScenarioError, parse_scenario

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

PHI = ("builds phi_tilde, which both paths pair with A; "
       "fixed-point/pushforward-oracle checks it against minors")
READOUT = ("the read-out both sides apply to their own matrix: its size, "
           "the grading check and Str = sum g_i M_ii")

SHARED = {
    ("fixed-point/supertrace-paths", "equivariant.phi_tilde"): PHI,
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


def test_profile_sees_through_caches():
    """Each profile starts with the functools caches empty, so a function
    that a cache hit would skip, and that two routes might share, is still
    reported by both."""
    a, b = getzler.VolterraSymbol.xi(2, 1), getzler.VolterraSymbol.x(2, 1)
    for _ in range(2):
        with profiled() as codes:
            getzler.volterra_compose(a, b)
        assert "getzler._leibniz" in {_name(c) for c in codes}


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


def test_fixed_point_suite_never_calls_exp_even(monkeypatch):
    """The fiber integral compares two numbers; no Mehler body is built,
    not even at dense n = 10, a = 6."""
    calls, original = [], multivector.exp_even

    def counted(x):
        calls.append(x)
        return original(x)
    for module in (multivector, equivariant):
        monkeypatch.setattr(module, "exp_even", counted)
    for n, a in ((6, 2), (10, 6)):
        cfg = ScenarioConfig(suite="fixed-point", n=n, a=a)
        assert suites.run_suite(cfg).passed
    assert calls == []


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_summary_counts_the_declared_kinds(path):
    cfg = _scenario(path)
    kinds = [check.kind for check in suites._checks(cfg)]
    summary = emit(suites.run_suite(cfg), "text").splitlines()[-1]
    counts = summary.partition(": ")[2].partition(": ")[2].rstrip(")")
    assert counts == ", ".join(f"{kinds.count(k)} {k}" for k in suites.KINDS)
    assert summary.startswith(f"summary: PASS ({len(kinds)} passed, 0 failed")


def _fiber_integral(cfg: ScenarioConfig):
    return next(check for check in suites._checks(cfg)
                if check.name == "fixed-point/fiber-integral")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(2, 0), (4, 2), (4, 0), (8, 6), (10, 6), (6, 2),
                        (6, 6)]),
       st.lists(st.floats(math.log(3e-15), math.log(math.pi)),
                min_size=2, max_size=2),
       st.lists(st.sampled_from([1, -1, 2]), min_size=2, max_size=2),
       st.floats(-705, 705))
def test_fiber_integral_passes_where_accepted(na, log_angles, signs, log_t):
    """``validate()`` refuses an input exactly when the Gaussian integral,
    the fiber integral or (4 pi t)^{-n/2} is past e^{+-MAX_LOG_FLOAT}, its
    message names those of the three that are, and every input it accepts
    passes the fiber-integral record: angles from 3e-15 to 2 pi, either
    sign, t from e^-705 to e^705."""
    n, a = na
    angles = tuple(s * math.exp(x) for s, x in
                   zip(signs, log_angles))[:(n - a) // 2]
    t = math.exp(log_t)
    try:
        iso = equivariant.IsometryNormalForm(n, a, angles)
    except ValueError:
        assume(False)   # a multiple of 2 pi, refused as a degenerate rotation
    log_4pit = math.log(4 * math.pi * t)
    log_det = math.log(iso.det_one_minus_normal())
    logs = {"Gaussian integral": (n - a) / 2 * log_4pit - log_det,
            "fiber integral": a / 2 * log_4pit + log_det,
            "(4 pi t)^(-n/2)": n / 2 * log_4pit}
    past = {name for name, log in logs.items()
            if abs(log) > scenario.MAX_LOG_FLOAT}
    cfg = ScenarioConfig(suite="fixed-point", n=n, a=a, angles=angles,
                         t_grid=(t,))
    try:
        cfg.validate()
    except ScenarioError as exc:
        # the message names exactly the quantities past the bound
        assert past and "float range" in str(exc)
        assert {name for name in logs if name in str(exc)} == past
        return
    assert not past
    record = suites._run(_fiber_integral(cfg))
    assert record.passed, record


def test_fiber_integral_inputs_name_t():
    # of the fixed-point records only the fiber integral reads t
    def inputs(t):
        cfg = ScenarioConfig(suite="fixed-point", n=4, a=2, angles=(0.8,),
                             t_grid=(t, 1.0))
        return {check.name: check.inputs for check in suites._checks(cfg)}
    low, high = inputs(0.1), inputs(0.5)
    assert low.pop("fixed-point/fiber-integral") == "n=4 a=2 angles=[0.8] t=0.1"
    assert high.pop("fixed-point/fiber-integral") == "n=4 a=2 angles=[0.8] t=0.5"
    assert low == high


@pytest.mark.parametrize("body", [
    # 1e-6 absolute missed on a value near 8e8
    dict(n=8, a=6, angles=(0.8,), t_grid=(1e-4,)),
    # 2 - 2 cos theta lost digits at a small angle
    dict(n=4, a=2, angles=(1e-3,), t_grid=(0.1,)),
    # an absolute 1e-8 stop did not converge on these Gaussian integrals,
    # 2.04e8 and 1.26e8
    dict(n=4, a=0, angles=(0.8, 1.2), t_grid=(1000.0,)),
    dict(n=4, a=2, angles=(1e-4,), t_grid=(0.1,)),
])
def test_fiber_integral_cases(body):
    cfg = ScenarioConfig(suite="fixed-point", **body)
    cfg.validate()
    assert suites._run(_fiber_integral(cfg)).passed
