"""Named verification suites for the batch driver.

Each suite yields its checks as data, in report order: a ``two-route``
check computes one quantity along two independent routes, a
``closed-form`` one compares one route with a literal, and a ``bound``
one holds one route to a limit.  Each check is a claim about the
geometry; a rule of the algebra alone is a pytest unit test, not a
record.  Every ``closed-form`` check names the source of its literal, or
the ROADMAP item that turns it into two routes.  ``_run`` turns each
check into a record that carries the check's kind, an exception into a
failing one.  A suite draws a check's inputs only after the previous
check has run; all randomness flows from the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import duhamel, equivariant, getzler, spectral
from .clifford import (CliffordElement, berezin_supertrace, clifford_multiply,
                       represent, supertrace)
from .report import KINDS, CheckRecord, Report
from .scalars import I
from .scenario import ScenarioConfig

__all__ = ["Check", "KINDS", "run_suite", "SUITE_RUNNERS", "random_curvature"]


@dataclass(frozen=True)
class Check:
    """One verification: ``compare(*values)`` of the routes' values gives the
    record's (expected, observed, tolerance, passed)."""

    name: str
    inputs: str
    kind: str
    routes: tuple
    compare: Callable

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown check kind {self.kind!r}")
        if len(self.routes) != (2 if self.kind == "two-route" else 1):
            raise ValueError(f"a {self.kind} check has the wrong route count")


def _run(check: Check) -> CheckRecord:
    try:
        expected, observed, tol, passed = check.compare(
            *(route() for route in check.routes))
    except Exception as exc:   # noqa: BLE001 - panics become failing records
        expected, observed, tol, passed = "", f"error: {exc}", "", False
    return CheckRecord(check.name, check.inputs, check.kind, expected,
                       observed, tol, bool(passed))


# -- comparators ----------------------------------------------------------

def _exact(expected, observed):
    return expected, observed, 0, expected == observed


def _near(tol):
    """observed within tol of expected"""
    def compare(expected, observed):
        return expected, observed, tol, abs(observed - expected) < tol
    return compare


def _gap(first, second) -> float:
    """Largest absolute difference of two numbers or arrays."""
    if isinstance(first, np.ndarray):
        return float(np.max(np.abs(first - second)))
    return abs(first - second)


def _small(tol):
    """the one route's value, or the gap between two routes, below tol"""
    def compare(*values):
        err = values[0] if len(values) == 1 else _gap(*values)
        return 0.0, err, tol, err < tol
    return compare


def _relative(tol):
    """the gap between two routes, relative to the first, below tol"""
    def compare(first, second):
        err = abs(second - first) / abs(first)
        return 0.0, err, tol, err < tol
    return compare


def random_curvature(n: int, rng: random.Random):
    """Curvature tensor with integer components in [-5, 5] drawn from rng,
    one per pair (i, j) <= (k, l) in lexicographic order; the suites and
    the tests share it as their one seeded generator."""
    comps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    if (i, j) <= (k, l):
                        comps[(i, j, k, l)] = Fraction(rng.randint(-5, 5))
    return equivariant.CurvatureTensor(n, comps)


# -- algebra --------------------------------------------------------------

def _suite_algebra(cfg: ScenarioConfig, rng: random.Random):
    for n in (2, 4):
        words = [CliffordElement(n, {(cm, hm): 1})
                 for cm in range(1 << n) for hm in range(1 << n)]
        # the one nonzero supertrace, of the top word, is (-1)^{n/2} 2^n
        want = [0] * (len(words) - 1) + [(-1) ** (n // 2) * (1 << n)]
        yield Check(f"algebra/supertrace-table-n{n}", f"n={n}", "two-route",
                    (lambda words=words: [supertrace(w) for w in words],
                     lambda words=words: [berezin_supertrace(w) for w in words]),
                    lambda *tables, want=want: _exact(0, sum(
                        got != w for table in tables
                        for got, w in zip(table, want))))

    R = random_curvature(4, rng)
    iso = equivariant.IsometryNormalForm(4, 4, ())
    yield Check("algebra/index-density-identity", "n=4 a=4 seeded R",
                "two-route", (lambda: equivariant.euler_form(R, 4),
                              lambda: equivariant.local_index_density(R, iso)),
                _exact)


# -- fixed-point ----------------------------------------------------------

def _suite_fixed_point(cfg: ScenarioConfig, rng: random.Random):
    iso = cfg.isometry()   # cfg.validate() has checked that it builds
    R = (equivariant.CurvatureTensor(cfg.n, dict(cfg.curvature))
         if cfg.curvature else random_curvature(iso.n, rng))
    inputs = f"n={iso.n} a={iso.a} angles={list(iso.angles)}"

    A = CliffordElement(iso.n, {
        ((1 << iso.n) - 1, (1 << iso.n) - 1): 1.0, (0, 0): 0.5})
    yield Check("fixed-point/supertrace-paths", inputs, "two-route", (
        lambda: supertrace(clifford_multiply(equivariant.phi_tilde(iso), A)),
        lambda: sum(equivariant.supertrace_decomposition(iso, A))),
        _small(cfg.tolerance))
    yield Check("fixed-point/pushforward-oracle", inputs, "two-route", (
        lambda: represent(equivariant.phi_tilde(iso)).astype(float),
        lambda: equivariant.lambda_pushforward_oracle(iso)), _small(1e-12))
    yield Check("fixed-point/index-density", inputs, "two-route", (
        lambda: equivariant.euler_form(R, iso.a),
        lambda: equivariant.local_index_density(R, iso)), _exact)

    # cfg.validate() has refused a t that puts a route past the float range
    t = cfg.t_grid[0]
    yield Check("fixed-point/fiber-integral", f"{inputs} t={t!r}", "two-route", (
        lambda: equivariant.fiber_integral(iso, t),
        lambda: equivariant.fiber_integral_quadrature(iso, t)), _relative(1e-6))


# -- getzler --------------------------------------------------------------

def _suite_getzler(cfg: ScenarioConfig, rng: random.Random):
    n = 4
    R = random_curvature(n, rng)

    def model_by_hand():
        z = (0,) * n
        terms = {(z, 0, 0, z, 1): 1}
        for j in range(n):
            d = tuple(2 if i == j else 0 for i in range(n))
            terms[(z, 0, 0, d, 0)] = -1
        for (s, t), v in equivariant.curvature_bivector(R).terms.items():
            terms[(z, s, t, z, 0)] = Fraction(-v, 2)
        return getzler.ExteriorDiffOp(n, terms)
    yield Check("getzler/model-operator", "n=4 seeded R", "two-route",
                (model_by_hand,
                 lambda: getzler.model_operator(getzler.GradedDiffOp.d_t(n)
                                                + getzler.weitzenbock(R))),
                _exact)

    # ROADMAP item 1 rewrites the Volterra pair; until then it keeps
    # volterra_compose reached, which the perfbench/tests counter reads
    yield Check("getzler/volterra-example", "xi_1 o x_1", "closed-form",
                (lambda: getzler.volterra_compose(getzler.VolterraSymbol.xi(2, 1),
                                                  getzler.VolterraSymbol.x(2, 1)),),
                partial(_exact, getzler.VolterraSymbol(2, {
                    ((1, 0), (1, 0), 0): 1, ((0, 0), (0, 0), 0): -I})))

    def rand_sym():
        terms = {}
        for _ in range(4):
            x = tuple(rng.randint(0, 1) for _ in range(2))
            xi = tuple(rng.randint(0, 2) for _ in range(2))
            terms[(x, xi, rng.randint(0, 1))] = rng.randint(-3, 3)
        return getzler.VolterraSymbol(2, terms)
    triples = [(rand_sym(), rand_sym(), rand_sym()) for _ in range(10)]

    def non_associative():
        compose = getzler.volterra_compose
        return sum(compose(compose(a, b), c) != compose(a, compose(b, c))
                   for a, b, c in triples)
    yield Check("getzler/volterra-associativity", "seeded degree<=4",
                "closed-form", (non_associative,), partial(_exact, 0))

    # ROADMAP item 4 rewrites this record as D o D by composition
    R_split = random_curvature(n, rng)

    def rmat():   # a seeded 2 x 2 End(F) matrix
        return [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                for _ in range(2)]
    data = equivariant.BundleVariationData(
        n=n, omega=[rmat() for _ in range(n)],
        nabla_omega={(i, j): rmat() for i in range(1, n + 1)
                     for j in range(1, n + 1)})
    yield Check("getzler/lichnerowicz-identities", "n=4 seeded data",
                "closed-form",
                (lambda: getzler.lichnerowicz_split(R_split, data).identities,),
                lambda ids: ("all identities", str(ids), 0,
                             all(ids.values())))


# -- duhamel --------------------------------------------------------------

def _suite_duhamel(cfg: ScenarioConfig, rng: random.Random):
    nprng = np.random.default_rng(cfg.seed + 1)
    # the Duhamel lemma: the N-term expansion of exp(-sH) B leaves O(s^N)
    N = 2
    m6, b6 = nprng.standard_normal((6, 6)), nprng.standard_normal((6, 6))

    def slope():
        H = duhamel.FiniteOperator((m6 + m6.T) / 2, hermitian=True)
        B = duhamel.FiniteOperator(b6)
        ss = [2.0 ** (-e) for e in range(3, 11)]
        errs = [duhamel.commutator_expansion(H, B, s, N)[1] for s in ss]
        return float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
    yield Check("duhamel/expansion-slope", "N=2 seeded 6x6", "closed-form",
                (slope,), partial(_near(0.1), float(N)))

    d, t, K = 4, 0.1, 3
    m4 = nprng.standard_normal((d, d))
    H = duhamel.FiniteOperator((m4 + m4.T) / 2 + 2 * np.eye(d), hermitian=True)
    L = duhamel.FiniteOperator(0.5 * nprng.standard_normal((d, d)))
    C = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
    Phi = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
    g4 = np.array([1.0, 1.0, -1.0, -1.0])
    yield Check("duhamel/series-vs-direct", "K=3 t=0.1 seeded 4x4", "two-route",
                (lambda: duhamel.duhamel_series(H, L, C, Phi, t, K, g4),
                 lambda: duhamel.direct_supertrace(H, L, C, Phi, t, g4)),
                _small(1e-4 * L.norm() ** (K + 1)))


# -- spectral -------------------------------------------------------------

def _suite_spectral(cfg: ScenarioConfig, rng: random.Random):
    # cfg.validate() has checked that both build
    model = spectral.SpectralModel(cfg.geometry, cfg.cutoff)
    action = spectral.IsometryAction(cfg.action_kind, cfg.action_params)
    inputs = f"{cfg.geometry} {action.kind}{list(action.params)} cutoff={cfg.cutoff}"
    near_want = partial(_near(cfg.tolerance),
                        spectral.fixed_point_prediction(cfg.geometry, action))

    values = []   # one mode sum per t, read again by t-constancy

    def heat(t):
        values.append(spectral.heat_supertrace(model, action, t))
        return values[-1]
    # ROADMAP item 3 turns fixed_point_prediction into a fixed-point route
    for t in cfg.t_grid:
        yield Check(f"spectral/supertrace/t={t:.6g}", inputs, "closed-form",
                    (partial(heat, t),), near_want)
        yield Check(f"spectral/tail-bound/t={t:.6g}", inputs, "bound",
                    (partial(spectral.tail_bound, model, t),), _small(1e-12))

    yield Check("spectral/lefschetz", inputs, "closed-form",
                (partial(spectral.lefschetz_number, model, action),), near_want)
    yield Check("spectral/t-constancy", inputs, "bound",
                (lambda: max(values) - min(values) if values else float("nan"),),
                _small(1e-9))


# -- torsion --------------------------------------------------------------

def _suite_torsion(cfg: ScenarioConfig, rng: random.Random):
    nprng = np.random.default_rng(cfg.seed + 2)
    # the torsion of the one-step complex R --a--> R is 1/|a|
    yield Check("torsion/closed-form", "d=diag(2)", "closed-form",
                (lambda: spectral.finite_torsion(spectral.FiniteComplex(
                    (1, 1), [np.array([[2.0]])])),),
                partial(_near(1e-14), 0.5))

    dims = (2, 4, 2)
    d0 = nprng.standard_normal((4, 2))
    q, _ = np.linalg.qr(np.hstack([d0, nprng.standard_normal((4, 2))]))
    proj = np.eye(4) - q[:, :2] @ q[:, :2].T
    d1 = (q[:, 2:].T + 0.3 * nprng.standard_normal((2, 4))) @ proj
    Us = [[np.linalg.qr(nprng.standard_normal((dim, dim)))[0] for dim in dims]
          for _ in range(4)]
    # log torsion sums logs of Laplacian eigenvalues, whose rounding error
    # grows with the Laplacians' condition number: the square of the
    # differentials' singular-value ratio
    sv = np.concatenate([np.linalg.svd(d, compute_uv=False) for d in (d0, d1)])
    sv = sv[sv > sv.max() * len(sv) * np.finfo(float).eps]
    tol = max(1e-12, 64 * np.finfo(float).eps * (sv.max() / sv.min()) ** 2)

    def worst_change():
        base = spectral.log_finite_torsion(spectral.FiniteComplex(dims, [d0, d1]))
        return max(0.0, *(abs(spectral.log_finite_torsion(spectral.FiniteComplex(
            dims, [U[1] @ d0 @ U[0].T, U[2] @ d1 @ U[1].T])) - base) for U in Us))
    yield Check("torsion/unitary-invariance", "seeded (2,4,2) complex", "bound",
                (worst_change,), _small(tol))

    def variation():
        cx = spectral.FiniteComplex((1, 1), [np.array([[2.0]])])
        return spectral.torsion_variation(
            cx, lambda e: [np.array([[math.exp(2 * e)]]), np.eye(1)], 0.3)
    # both sides come from the one torsion_variation call
    yield Check("torsion/variation-residual", "exp metric path", "bound",
                (variation,),
                lambda tv: _near(1e-7)(tv.trace_formula, tv.finite_difference))


SUITE_RUNNERS = {
    "algebra": _suite_algebra,
    "fixed-point": _suite_fixed_point,
    "getzler": _suite_getzler,
    "duhamel": _suite_duhamel,
    "spectral": _suite_spectral,
    "torsion": _suite_torsion,
}


def _checks(cfg: ScenarioConfig):
    """The checks of a validated config, in report order."""
    rng = random.Random(cfg.seed)
    for name in SUITE_RUNNERS if cfg.suite == "all" else (cfg.suite,):
        yield from SUITE_RUNNERS[name](cfg, rng)


def run_suite(cfg: ScenarioConfig) -> Report:
    cfg.validate()
    report = Report(cfg.suite, cfg.seed)
    for check in _checks(cfg):
        report.add(_run(check))
    return report
