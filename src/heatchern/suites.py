"""Named verification suites for the batch driver.

Each check returns (expected, observed, tolerance, passed) and is
wrapped so that an exception becomes a failing record instead of a
crash.  All randomness flows from the config seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import duhamel, equivariant, getzler, spectral
from .clifford import CliffordElement, represent, supertrace
from .multivector import Multivector, wedge
from .report import CheckRecord, Report
from .scalars import I
from .scenario import ScenarioConfig

__all__ = ["run_suite", "SUITE_RUNNERS"]


def _record(report: Report, name: str, inputs: str, fn):
    try:
        expected, observed, tol, passed = fn()
    except Exception as exc:   # noqa: BLE001 - panics become failing records
        expected, observed, tol, passed = "", f"error: {exc}", "", False
    report.add(CheckRecord(name, inputs, expected, observed, tol, bool(passed)))


def _random_curvature(n: int, rng: random.Random, lo=-5, hi=5):
    comps = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    if (i, j) <= (k, l):
                        comps[(i, j, k, l)] = Fraction(rng.randint(lo, hi))
    return equivariant.CurvatureTensor(n, comps)


def _config_curvature(cfg: ScenarioConfig, rng: random.Random, n: int):
    if cfg.curvature:
        return equivariant.CurvatureTensor(cfg.n, dict(cfg.curvature))
    return _random_curvature(n, rng)


# -- algebra --------------------------------------------------------------

def _suite_algebra(cfg: ScenarioConfig, rng: random.Random, report: Report):
    def table(n):
        def fn():
            expect_val = ((-1) ** (n // 2)) * (1 << n)
            full = (1 << n) - 1
            bad = 0
            for cm in range(1 << n):
                for hm in range(1 << n):
                    word = CliffordElement(n, {(cm, hm): 1})
                    want = expect_val if (cm == full and hm == full) else 0
                    if supertrace(word, "matrix") != want:
                        bad += 1
                    if supertrace(word, "berezin") != want:
                        bad += 1
            return 0, bad, 0, bad == 0
        return fn

    _record(report, "algebra/supertrace-table-n2", "n=2", table(2))
    _record(report, "algebra/supertrace-table-n4", "n=4", table(4))

    def word_sign():
        n = 4
        ok = True
        for _ in range(25):
            i, j = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            x = Multivector(n, {(1 << (i - 1), 0): 1})
            y = Multivector(n, {(1 << (j - 1), 0): 1})
            if not (wedge(x, y) + wedge(y, x)).is_zero():
                ok = False
        return "0", "0" if ok else "nonzero", 0, ok
    _record(report, "algebra/wedge-anticommutativity", "n=4 seeded pairs",
            word_sign)

    def density():
        R = _random_curvature(4, rng)
        iso = equivariant.IsometryNormalForm(4, 4, ())
        lhs = equivariant.local_index_density(R, iso)
        rhs = equivariant.euler_form(R, 4)
        return str(rhs), str(lhs), 0, lhs == rhs
    _record(report, "algebra/index-density-identity", "n=4 a=4 seeded R",
            density)


# -- fixed-point ----------------------------------------------------------

def _suite_fixed_point(cfg: ScenarioConfig, rng: random.Random, report: Report):
    iso = cfg.isometry()   # cfg.validate() has checked that it builds
    R = _config_curvature(cfg, rng, iso.n)
    Rf = equivariant.CurvatureTensor(
        R.n, {k: float(v) for k, v in R.components.items()})
    inputs = f"n={iso.n} a={iso.a} angles={list(iso.angles)}"

    def paths():
        A = CliffordElement(iso.n, {
            ((1 << iso.n) - 1, (1 << iso.n) - 1): 1.0, (0, 0): 0.5})
        s1 = equivariant.equivariant_supertrace(iso, A, "matrix")
        s2 = equivariant.equivariant_supertrace(iso, A, "decomposition")
        err = abs(s1 - s2)
        return 0.0, err, cfg.tolerance, err < cfg.tolerance
    _record(report, "fixed-point/supertrace-paths", inputs, paths)

    def oracle():
        mat = represent(equivariant.phi_tilde(iso)).astype(float)
        want = equivariant.lambda_pushforward_oracle(iso)
        err = float(np.max(np.abs(mat - want)))
        return 0.0, err, 1e-12, err < 1e-12
    _record(report, "fixed-point/pushforward-oracle", inputs, oracle)

    def density():
        lhs = equivariant.local_index_density(R, iso)
        rhs = equivariant.euler_form(R.tangent_block(iso.a), iso.a)
        return str(rhs), str(lhs), 0, lhs == rhs
    _record(report, "fixed-point/index-density", inputs, density)

    def fiber():
        if iso.b == 0:
            return 0.0, 0.0, 1e-6, True
        t = cfg.t_grid[0]
        body = equivariant.mehler_body(Rf, t)
        cf = body.scale(equivariant.fiber_integral(iso, t, "closed-form"))
        qd = body.scale(equivariant.fiber_integral(iso, t, "quadrature"))
        keys = set(cf.terms) | set(qd.terms)
        err = max((abs(cf.coefficient(*k) - qd.coefficient(*k))
                   for k in keys), default=0.0)
        return 0.0, err, 1e-6, err < 1e-6
    _record(report, "fixed-point/fiber-integral", inputs, fiber)


# -- getzler --------------------------------------------------------------

def _suite_getzler(cfg: ScenarioConfig, rng: random.Random, report: Report):
    def model():
        n = 4
        R = _random_curvature(n, rng)
        mo = getzler.model_operator(getzler.GradedDiffOp.d_t(n)
                                    + getzler.weitzenbock(R))
        z = (0,) * n
        terms = {(z, 0, 0, z, 1): 1}
        for j in range(n):
            d = tuple(2 if i == j else 0 for i in range(n))
            terms[(z, 0, 0, d, 0)] = -1
        for (s, t), v in equivariant.curvature_bivector(R).terms.items():
            terms[(z, s, t, z, 0)] = Fraction(-v, 2)
        want = getzler.GradedDiffOp(n, terms, kind="exterior")
        return want.to_text(), mo.to_text(), 0, mo == want
    _record(report, "getzler/model-operator", "n=4 seeded R", model)

    def orders():
        n = 4
        checks = [
            (getzler.getzler_order(getzler.GradedDiffOp.d_x(n, 1)), 1),
            (getzler.getzler_order(getzler.GradedDiffOp.word(n, 3, 12)), 2),
            (getzler.getzler_order(getzler.GradedDiffOp.x_coord(n, 1)
                                   * getzler.GradedDiffOp.d_t(n)), 1),
        ]
        ok = all(got == want for got, want in checks)
        return "[1, 2, 1]", "[" + ", ".join(str(g) for g, _ in checks) + "]", 0, ok
    _record(report, "getzler/order-examples", "n=4", orders)

    def volterra():
        q1 = getzler.VolterraSymbol.xi(2, 1)
        q2 = getzler.VolterraSymbol.x(2, 1)
        got = getzler.volterra_compose(q1, q2)
        want = getzler.VolterraSymbol(2, {
            ((1, 0), (1, 0), 0): 1,
            ((0, 0), (0, 0), 0): -I})
        return want.to_text(), got.to_text(), 0, got == want
    _record(report, "getzler/volterra-example", "xi_1 o x_1", volterra)

    def assoc():
        def rand_sym():
            terms = {}
            for _ in range(4):
                x = tuple(rng.randint(0, 1) for _ in range(2))
                xi = tuple(rng.randint(0, 2) for _ in range(2))
                terms[(x, xi, rng.randint(0, 1))] = rng.randint(-3, 3)
            return getzler.VolterraSymbol(2, terms)
        bad = 0
        for _ in range(10):
            a, b, c = rand_sym(), rand_sym(), rand_sym()
            lhs = getzler.volterra_compose(getzler.volterra_compose(a, b), c)
            rhs = getzler.volterra_compose(a, getzler.volterra_compose(b, c))
            if lhs != rhs:
                bad += 1
        return 0, bad, 0, bad == 0
    _record(report, "getzler/volterra-associativity", "seeded degree<=4", assoc)

    def lichnerowicz():
        n, r = 4, 2
        R = _random_curvature(n, rng)
        def rmat():
            return [[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                    for _ in range(r)]
        data = equivariant.BundleVariationData(
            n=n, omega=[rmat() for _ in range(n)],
            nabla_omega={(i, j): rmat() for i in range(1, n + 1)
                         for j in range(1, n + 1)})
        split = getzler.lichnerowicz_split(R, data)
        ok = all(split.identities.values())
        return "all identities", str(split.identities), 0, ok
    _record(report, "getzler/lichnerowicz-identities", "n=4 seeded data",
            lichnerowicz)


# -- duhamel --------------------------------------------------------------

def _suite_duhamel(cfg: ScenarioConfig, rng: random.Random, report: Report):
    nprng = np.random.default_rng(cfg.seed + 1)

    def brackets():
        H = duhamel.FiniteOperator(np.diag([0.0, 1.0]))
        B = duhamel.FiniteOperator([[0.0, 1.0], [1.0, 0.0]])
        b1 = duhamel.iterated_commutator(H, B, 1)
        b2 = duhamel.iterated_commutator(H, B, 2)
        ok = (np.allclose(b1.mat, [[0, -1], [1, 0]])
              and np.allclose(b2.mat, [[0, 1], [1, 0]]))
        return "2x2 table", "match" if ok else "mismatch", 0, ok
    _record(report, "duhamel/iterated-commutator", "2x2", brackets)

    def slope():
        N = 2
        m = nprng.standard_normal((6, 6))
        H = duhamel.FiniteOperator((m + m.T) / 2, hermitian=True)
        B = duhamel.FiniteOperator(nprng.standard_normal((6, 6)))
        ss = [2.0 ** (-e) for e in range(3, 11)]
        errs = [duhamel.commutator_expansion(H, B, s, N)[1] for s in ss]
        fit = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
        return float(N), fit, 0.1, abs(fit - N) < 0.1
    _record(report, "duhamel/expansion-slope", "N=2 seeded 6x6", slope)

    def series():
        d = 4
        m = nprng.standard_normal((d, d))
        H = duhamel.FiniteOperator((m + m.T) / 2 + 2 * np.eye(d),
                                   hermitian=True)
        L = duhamel.FiniteOperator(0.5 * nprng.standard_normal((d, d)))
        C = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
        Phi = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
        grading = np.array([1.0, 1.0, -1.0, -1.0])
        t, K = 0.1, 3
        approx = duhamel.duhamel_series(H, L, C, Phi, t, K, grading)
        direct = duhamel.direct_supertrace(H, L, C, Phi, t, grading)
        bound = 1e-4 * L.norm() ** (K + 1)
        err = abs(approx - direct)
        return 0.0, err, bound, err < bound
    _record(report, "duhamel/series-vs-direct", "K=3 t=0.1 seeded 4x4", series)

    def sigma():
        d = 3
        grading = np.array([1.0, -1.0, 1.0])
        A = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
        B = duhamel.FiniteOperator(nprng.standard_normal((d, d)))
        z = duhamel.FiniteOperator.zero(d)
        v0 = duhamel.sigma_supertrace(getzler.SigmaExtendedOp(A, z), grading)
        vb = duhamel.sigma_supertrace(getzler.SigmaExtendedOp(z, B), grading)
        want = float(np.real(np.sum(grading * np.diag(B.mat))))
        prod = getzler.SigmaExtendedOp(z, B) * getzler.SigmaExtendedOp(z, A)
        vp = duhamel.sigma_supertrace(prod, grading)
        ok = v0 == 0.0 and abs(vb - want) < 1e-12 and vp == 0.0
        return "(0, Str[B], 0)", f"({v0}, {vb}, {vp})", 1e-12, ok
    _record(report, "duhamel/sigma-supertrace", "seeded 3x3", sigma)


# -- spectral -------------------------------------------------------------

def _suite_spectral(cfg: ScenarioConfig, rng: random.Random, report: Report):
    # cfg.validate() has checked that both build
    model = spectral.SpectralModel(cfg.geometry, cfg.cutoff)
    action = spectral.IsometryAction(cfg.action_kind, cfg.action_params)
    inputs = f"{cfg.geometry} {action.kind}{list(action.params)} cutoff={cfg.cutoff}"
    want = spectral.fixed_point_prediction(cfg.geometry, action)

    values = []
    for t in cfg.t_grid:
        def one(t=t):
            val = spectral.heat_supertrace(model, action, t)
            values.append(val)
            err = abs(val - want)
            return want, val, cfg.tolerance, err < cfg.tolerance
        _record(report, f"spectral/supertrace/t={t:.6g}", inputs, one)

        def tail(t=t):
            bound = spectral.tail_bound(model, t)
            return 0.0, bound, 1e-12, bound < 1e-12
        _record(report, f"spectral/tail-bound/t={t:.6g}", inputs, tail)

    def lefschetz():
        val = spectral.lefschetz_number(model, action)
        return want, val, cfg.tolerance, abs(val - want) < cfg.tolerance
    _record(report, "spectral/lefschetz", inputs, lefschetz)

    def constancy():
        if not values:
            return 0.0, float("nan"), 1e-9, False
        spread = max(values) - min(values)
        return 0.0, spread, 1e-9, spread < 1e-9
    _record(report, "spectral/t-constancy", inputs, constancy)


# -- torsion --------------------------------------------------------------

def _suite_torsion(cfg: ScenarioConfig, rng: random.Random, report: Report):
    nprng = np.random.default_rng(cfg.seed + 2)

    def closed_form():
        cx = spectral.FiniteComplex((1, 1), [np.array([[2.0]])])
        tau = spectral.finite_torsion(cx)
        return 0.5, tau, 1e-14, abs(tau - 0.5) < 1e-14
    _record(report, "torsion/closed-form", "d=diag(2)", closed_form)

    def invariance():
        d0 = nprng.standard_normal((4, 2))
        q, _ = np.linalg.qr(np.hstack([d0, nprng.standard_normal((4, 2))]))
        proj = np.eye(4) - q[:, :2] @ q[:, :2].T
        d1 = (q[:, 2:].T + 0.3 * nprng.standard_normal((2, 4))) @ proj
        cx = spectral.FiniteComplex((2, 4, 2), [d0, d1])
        # log torsion sums logs of Laplacian eigenvalues, whose rounding
        # error grows with the Laplacians' condition number: the square of
        # the differentials' singular-value ratio
        sv = np.concatenate([np.linalg.svd(d, compute_uv=False) for d in cx.d])
        sv = sv[sv > sv.max() * len(sv) * np.finfo(float).eps]
        tol = max(1e-12, 64 * np.finfo(float).eps * (sv.max() / sv.min()) ** 2)
        base = spectral.log_finite_torsion(cx)
        worst = 0.0
        for _ in range(4):
            Us = [np.linalg.qr(nprng.standard_normal((dim, dim)))[0]
                  for dim in cx.dims]
            cx2 = spectral.FiniteComplex(
                cx.dims, [Us[i + 1] @ cx.d[i] @ Us[i].T for i in range(2)])
            worst = max(worst, abs(spectral.log_finite_torsion(cx2) - base))
        return 0.0, worst, tol, worst < tol
    _record(report, "torsion/unitary-invariance", "seeded (2,4,2) complex",
            invariance)

    def variation():
        cx = spectral.FiniteComplex((1, 1), [np.array([[2.0]])])
        def path(e):
            return [np.array([[math.exp(2 * e)]]), np.eye(1)]
        tv = spectral.torsion_variation(cx, path, 0.3)
        return tv.trace_formula, tv.finite_difference, 1e-7, tv.residual < 1e-7
    _record(report, "torsion/variation-residual", "exp metric path", variation)


SUITE_RUNNERS = {
    "algebra": _suite_algebra,
    "fixed-point": _suite_fixed_point,
    "getzler": _suite_getzler,
    "duhamel": _suite_duhamel,
    "spectral": _suite_spectral,
    "torsion": _suite_torsion,
}


def run_suite(cfg: ScenarioConfig) -> Report:
    cfg.validate()
    report = Report(cfg.suite, cfg.seed)
    rng = random.Random(cfg.seed)
    if cfg.suite == "all":
        for name in ("algebra", "fixed-point", "getzler", "duhamel",
                     "spectral", "torsion"):
            SUITE_RUNNERS[name](cfg, rng, report)
    else:
        SUITE_RUNNERS[cfg.suite](cfg, rng, report)
    return report
