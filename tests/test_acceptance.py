"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them) and asserts the stated tolerance.  Each criterion draws from its own
seeded generator (the ``rng`` and ``nprng`` fixtures), so its data does not
depend on which criteria ran before it.
"""

import math
import time
from fractions import Fraction

import numpy as np

from heatchern.clifford import (CliffordElement, berezin_supertrace,
                                represent, supertrace)
from heatchern.duhamel import (FiniteOperator, commutator_expansion,
                               direct_supertrace, duhamel_series)
from heatchern.equivariant import (CurvatureTensor, IsometryNormalForm,
                                   curvature_bivector, euler_form,
                                   fiber_integral, fiber_integral_quadrature,
                                   lambda_pushforward_oracle,
                                   local_index_density, mehler_body,
                                   phi_tilde)
from heatchern.getzler import (BundleVariationData, ExteriorDiffOp,
                               GradedDiffOp,
                               VolterraSymbol, lichnerowicz_split,
                               model_operator, volterra_compose, weitzenbock)
from heatchern.scalars import CFrac
from heatchern.spectral import (FiniteComplex, IsometryAction, SpectralModel,
                                fixed_point_prediction, heat_supertrace,
                                lefschetz_number, log_finite_torsion,
                                tail_bound, torsion_variation)

from conftest import random_curvature


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_supertrace_word_table():
    t0 = time.time()
    bad = 0
    for n in (2, 4):
        top = (1 << n) - 1
        sign = (-1) ** (n // 2)
        for cm in range(1 << n):
            for hm in range(1 << n):
                word = CliffordElement(n, {(cm, hm): Fraction(1)})
                want = sign * (1 << n) if (cm == top and hm == top) else 0
                if supertrace(word) != want:
                    bad += 1
                if berezin_supertrace(word) != want:
                    bad += 1
    elapsed = time.time() - t0
    _line(1, bad == 0 and elapsed < 60,
          f"exhaustive word table n=2,4 exact, {elapsed:.1f}s")


def test_criterion_02_index_density_polynomial_identity(rng):
    t0 = time.time()
    combos = [(4, 2, 20), (4, 4, 20), (6, 2, 20), (6, 4, 20), (6, 6, 20),
              (8, 2, 5), (8, 4, 5), (8, 6, 5), (8, 8, 3),
              (10, 2, 3), (10, 4, 3), (10, 6, 3)]
    checked = 0
    ok = True
    for n, a, count in combos:
        angles = tuple(0.4 + 0.5 * i for i in range((n - a) // 2))
        iso = IsometryNormalForm(n, a, angles)
        for _ in range(count):
            R = random_curvature(n, rng)
            if local_index_density(R, iso) != euler_form(R, a):
                ok = False
            checked += 1
    # one n = a = 10 identity
    R = random_curvature(10, rng)
    if local_index_density(R, IsometryNormalForm(10, 10)) != euler_form(R, 10):
        ok = False
    checked += 1
    # and one on sparse curvature with denominators 2 and 3
    R = CurvatureTensor(10, {
        k: v / rng.choice([2, 3])
        for k, v in random_curvature(10, rng).components.items()
        if rng.random() < 0.3})
    if local_index_density(R, IsometryNormalForm(10, 10)) != euler_form(R, 10):
        ok = False
    checked += 1
    elapsed = time.time() - t0
    _line(2, ok and checked >= 100 and elapsed < 300,
          f"{checked} exact rational identities, {elapsed:.1f}s")


def test_criterion_03_pushforward_oracle_grid():
    worst = 0.0
    grid = np.linspace(0.05, 2 * math.pi - 0.05, 50)
    for n, a in [(2, 0), (4, 2)]:
        for theta in grid:
            iso = IsometryNormalForm(n, a, (float(theta),))
            mat = represent(phi_tilde(iso)).astype(float)
            worst = max(worst, float(np.max(np.abs(
                mat - lambda_pushforward_oracle(iso)))))
    _line(3, worst < 1e-12, f"50-angle grid, max entry error {worst:.2e}")


def test_criterion_04_fiber_integral_consistency(rng):
    worst = 0.0
    for n, a in [(4, 2), (4, 0)]:
        b = n - a
        angles = tuple(rng.uniform(0.1, math.pi - 0.1) for _ in range(b // 2))
        iso = IsometryNormalForm(n, a, angles)
        R = random_curvature(n, rng)
        R = CurvatureTensor(n, {k: float(v) for k, v in R.components.items()})
        for t in (0.1, 1.0):
            body = mehler_body(R, t)
            cf = body.scale(fiber_integral(iso, t))
            qd = body.scale(fiber_integral_quadrature(iso, t))
            keys = set(cf.terms) | set(qd.terms)
            err = max(abs(cf.coefficient(*k) - qd.coefficient(*k))
                      for k in keys)
            worst = max(worst, err)
    _line(4, worst < 1e-6, f"closed form vs quadrature, max error {worst:.2e}")


def test_criterion_05_model_operator_extraction(rng):
    n = 4
    ok = True
    for _ in range(10):
        R = random_curvature(n, rng)
        got = model_operator(GradedDiffOp.d_t(n) + weitzenbock(R))
        terms = {((0,) * n, 0, 0, (0,) * n, 1): 1}
        for j in range(n):
            d = tuple(2 if i == j else 0 for i in range(n))
            terms[((0,) * n, 0, 0, d, 0)] = -1
        for (s, t), v in curvature_bivector(R).terms.items():
            terms[((0,) * n, s, t, (0,) * n, 0)] = Fraction(-v, 2)
        if got != ExteriorDiffOp(n, terms):
            ok = False
    _line(5, ok, "model operator equals free Laplacian + curvature potential")


def test_criterion_06_lichnerowicz_identities(rng):
    n, r = 4, 2
    ok = True
    for _ in range(5):
        data = BundleVariationData(
            n=n,
            omega=[[[Fraction(rng.randint(-3, 3)) for _ in range(r)]
                    for _ in range(r)] for _ in range(n)],
            nabla_omega={(i, j): [[Fraction(rng.randint(-3, 3))
                                   for _ in range(r)] for _ in range(r)]
                         for i in range(1, n + 1) for j in range(1, n + 1)})
        split = lichnerowicz_split(random_curvature(n, rng), data)
        if not all(split.identities.values()):
            ok = False
    _line(6, ok, "both operator identities hold term-by-term, n=4")


def test_criterion_07_remainder_order(nprng):
    t0 = time.time()
    ss = [2.0 ** (-e) for e in range(3, 11)]
    worst = 0.0
    for _ in range(20):
        m = nprng.standard_normal((8, 8))
        h = FiniteOperator((m + m.T) / 2, hermitian=True)
        b = FiniteOperator(nprng.standard_normal((8, 8)))
        for N in (1, 2, 3):
            errs = [commutator_expansion(h, b, s, N)[1] for s in ss]
            slope = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
            worst = max(worst, abs(slope - N))
    elapsed = time.time() - t0
    _line(7, worst < 0.1 and elapsed < 120,
          f"20 pairs, max slope deviation {worst:.3f}, {elapsed:.1f}s")


def test_criterion_08_duhamel_truncation(nprng):
    d = 4
    m = nprng.standard_normal((d, d))
    h = FiniteOperator((m + m.T) / 2 + 2.0 * np.eye(d), hermitian=True)
    L = FiniteOperator(0.5 * nprng.standard_normal((d, d)))
    c = FiniteOperator(nprng.standard_normal((d, d)))
    phi = FiniteOperator(nprng.standard_normal((d, d)))
    g = np.array([1.0, 1.0, -1.0, -1.0])
    ts = [0.2, 0.1, 0.05, 0.025]
    ok = True
    for K in (2, 3):
        errs = [abs(duhamel_series(h, L, c, phi, t, K, g)
                    - direct_supertrace(h, L, c, phi, t, g)) for t in ts]
        slope = float(np.polyfit(np.log(ts), np.log(errs), 1)[0])
        if abs(slope - (K + 1)) > 0.3:
            ok = False
    direct = direct_supertrace(h, L, c, phi, 0.05, g)
    rel = abs(duhamel_series(h, L, c, phi, 0.05, 3, g) - direct) / abs(direct)
    _line(8, ok and rel < 1e-5,
          f"slopes K+1 for K=2,3; relative error {rel:.2e} at t=0.05")


CASES_9 = [
    ("sphere", IsometryAction.rotation(0.0), 2.0),
    ("sphere", IsometryAction.rotation(0.7), 2.0),
    ("sphere", IsometryAction.rotation(math.pi / 2), 2.0),
    ("sphere", IsometryAction.rotation(math.pi), 2.0),
    ("torus", IsometryAction.translation(math.pi, math.pi), 0.0),
    ("torus", IsometryAction("minus-id"), 4.0),
    ("torus", IsometryAction("translation", (0.0, 0.0)), 0.0),
]


def test_criterion_09_equivariant_index_desk_scale():
    t0 = time.time()
    cutoff = 40
    tgrid = np.linspace(0.05, 2.0, 9)
    worst, spread = 0.0, 0.0
    tails_ok = True
    for geometry, action, want in CASES_9:
        model = SpectralModel(geometry, cutoff)
        if any(tail_bound(model, float(t)) >= 1e-12 for t in tgrid):
            tails_ok = False
        vals = [heat_supertrace(model, action, float(t)) for t in tgrid]
        worst = max(worst, max(abs(v - want) for v in vals),
                    abs(lefschetz_number(model, action) - want),
                    abs(fixed_point_prediction(geometry, action) - want))
        spread = max(spread, max(vals) - min(vals))
    elapsed = time.time() - t0
    _line(9, worst < 1e-8 and spread < 1e-9 and tails_ok and elapsed < 60,
          f"7 model pairs: max error {worst:.2e}, t-spread {spread:.2e}, "
          f"{elapsed:.1f}s")


def _rand_volterra(rng, n, max_deg=4):
    terms = {}
    for _ in range(4):
        while True:
            xe = tuple(rng.randint(0, 2) for _ in range(n))
            xie = tuple(rng.randint(0, 2) for _ in range(n))
            if sum(xe) + sum(xie) <= max_deg:
                break
        terms[(xe, xie, rng.randint(0, 1))] = CFrac(rng.randint(-3, 3),
                                                    rng.randint(-2, 2))
    return VolterraSymbol(n, terms)


def _apply_symbol(sym, poly):
    """Left-quantized action on tau-graded polynomials, exact arithmetic."""
    neg_i = CFrac(0, -1)
    out = {}
    for (xe, xie, tp), coef in sym.terms.items():
        for (pe, ptp), pc in poly.items():
            c = CFrac(1) * coef * pc
            new = list(pe)
            dead = False
            for j, b in enumerate(xie):
                for _ in range(b):
                    if new[j] == 0:
                        dead = True
                        break
                    c = c * CFrac(new[j]) * neg_i
                    new[j] -= 1
                if dead:
                    break
            if dead:
                continue
            key = (tuple(e + x for e, x in zip(new, xe)), ptp + tp)
            out[key] = out.get(key, CFrac(0)) + c
    return {k: v for k, v in out.items() if v != CFrac(0)}


def test_criterion_11_volterra_composition_exact(rng):
    ok = True
    for n in (1, 2, 3):
        for _ in range(8):
            a, b, c = (_rand_volterra(rng, n) for _ in range(3))
            if volterra_compose(volterra_compose(a, b), c) \
                    != volterra_compose(a, volterra_compose(b, c)):
                ok = False
            poly = {(tuple(rng.randint(0, 2) for _ in range(n)), 0): CFrac(1),
                    (tuple(rng.randint(0, 3) for _ in range(n)), 1):
                    CFrac(rng.randint(-2, 2), 1)}
            via_symbol = _apply_symbol(volterra_compose(a, b), poly)
            via_ops = _apply_symbol(a, _apply_symbol(b, poly))
            if via_symbol != via_ops:
                ok = False
    _line(11, ok, "composition exact and associative on rational symbols")


def test_criterion_12_finite_torsion(nprng):
    # 1-dim closed form
    exact = all(abs(log_finite_torsion(
        FiniteComplex(dims=(1, 1), d=[[[a]]])) + math.log(abs(a))) < 1e-13
        for a in (2.0, 3.0, 0.5, -7.0))
    # unitary invariance
    dmat = np.array([[1.0, 2.0], [0.0, 3.0]])
    base = log_finite_torsion(FiniteComplex(dims=(2, 2), d=[dmat]))
    inv_err = 0.0
    for _ in range(5):
        q0, _ = np.linalg.qr(nprng.standard_normal((2, 2)))
        q1, _ = np.linalg.qr(nprng.standard_normal((2, 2)))
        rot = log_finite_torsion(FiniteComplex(dims=(2, 2), d=[q1 @ dmat @ q0.T]))
        inv_err = max(inv_err, abs(rot - base))
    # second-order finite differences
    cx = FiniteComplex(dims=(2, 2), d=[dmat])
    M = np.array([[1.0, 0.5], [0.5, 2.0]])

    def path(e):
        return [np.eye(2),
                np.eye(2) + 0.3 * math.sin(e) * M + 0.2 * e * e * np.eye(2)]

    def residual(step):
        tv = torsion_variation(cx, path, eps=0.4, step=step)
        return abs(tv.finite_difference - tv.trace_formula)

    r1, r2 = residual(1e-2), residual(5e-3)
    second_order = abs(r1 / r2 - 4.0) < 0.8
    _line(12, exact and inv_err < 1e-12 and second_order,
          f"closed form exact, invariance {inv_err:.2e}, "
          f"FD ratio {r1 / r2:.2f}")
