import math
from fractions import Fraction

import numpy as np
import pytest

from heatchern.duhamel import (FiniteOperator, SimplexQuadrature,
                               adaptive_simplex_integral, commutator_expansion,
                               direct_supertrace, duhamel_series,
                               iterated_commutator, remainder_operator)

NPRNG = np.random.default_rng(424242)


def rand_hermitian(d, shift=0.0):
    m = NPRNG.standard_normal((d, d))
    return FiniteOperator((m + m.T) / 2 + shift * np.eye(d), hermitian=True)


def rand_op(d, scale=1.0):
    return FiniteOperator(scale * NPRNG.standard_normal((d, d)))


def test_finite_operator_validation():
    with pytest.raises(ValueError):
        FiniteOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FiniteOperator([[0, 1], [0, 0]], hermitian=True)
    with pytest.raises(ValueError):
        FiniteOperator(np.eye(2)) + FiniteOperator(np.eye(3))


def test_iterated_commutator_table():
    h = FiniteOperator(np.diag([0.0, 1.0]))
    b = FiniteOperator([[0.0, 1.0], [1.0, 0.0]])
    assert iterated_commutator(h, b, 0) == b
    assert np.allclose(iterated_commutator(h, b, 1).mat, [[0, -1], [1, 0]])
    assert np.allclose(iterated_commutator(h, b, 2).mat, [[0, 1], [1, 0]])


def test_commuting_pair_collapses():
    h = FiniteOperator(np.diag([1.0, 2.0]))
    b = FiniteOperator(np.diag([3.0, -1.0]))
    assert iterated_commutator(h, b, 3).norm() == 0.0
    _, rem = commutator_expansion(h, b, 0.5, 1)
    assert rem < 1e-14


def test_expansion_first_term():
    h, b = rand_hermitian(4), rand_op(4)
    approx, _ = commutator_expansion(h, b, 0.7, 1)
    heat = h.scale(-0.7).expm()
    assert np.allclose(approx.mat, (b * heat).mat)


def test_gm_quadrature_exactness():
    for k in (1, 2, 3):
        for s in (1, 2, 3):
            q = SimplexQuadrature(k, s)
            assert sum(q.weights) == Fraction(1, math.factorial(k))
        q = SimplexQuadrature(k, 3)
        assert abs(q.integrate(lambda t: t[0]) - 1 / math.factorial(k + 1)) \
            < 1e-13
        assert abs(q.integrate(lambda t: t[0] ** 2 * t[1])
                   - 2 / math.factorial(k + 3)) < 1e-13


def test_adaptive_integral():
    val = adaptive_simplex_integral(2, lambda t: math.exp(t[0]))
    assert abs(val - (math.e - 2.0)) < 1e-9


def test_quadrature_permutation_invariance():
    # the simplex measure is symmetric in the barycentric coordinates
    q = SimplexQuadrature(2, 4)
    f01 = q.integrate(lambda t: t[0] ** 3 * t[1])
    f10 = q.integrate(lambda t: t[1] ** 3 * t[0])
    f21 = q.integrate(lambda t: t[2] ** 3 * t[1])
    assert abs(f01 - f10) < 1e-14
    assert abs(f01 - f21) < 1e-14


def test_remainder_slopes():
    for N in (1, 2, 3):
        h, b = rand_hermitian(8), rand_op(8)
        ss = [2.0 ** (-e) for e in range(3, 11)]
        errs = [commutator_expansion(h, b, s, N)[1] for s in ss]
        slope = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
        assert abs(slope - N) < 0.1


def test_exact_remainder_identity():
    for N in (1, 2, 3):
        h, b = rand_hermitian(6), rand_op(6)
        s = 0.3
        approx, _ = commutator_expansion(h, b, s, N)
        rem = remainder_operator(h, b, s, N)
        full = h.scale(-s).expm() * b
        assert (full - approx - rem).norm() < 1e-10


def _series_data(d=4):
    h = rand_hermitian(d, shift=2.0)
    L = rand_op(d, 0.5)
    c = rand_op(d)
    phi = rand_op(d)
    grading = np.array([1.0] * (d // 2) + [-1.0] * (d - d // 2))
    return h, L, c, phi, grading


def test_series_zero_perturbation():
    h, _, c, phi, g = _series_data()
    zero = FiniteOperator.zero(4)
    assert abs(duhamel_series(h, zero, c, phi, 0.4, 3, g)
               - direct_supertrace(h, zero, c, phi, 0.4, g)) < 1e-12


def test_series_accuracy():
    h, L, c, phi, g = _series_data()
    t, K = 0.1, 3
    err = abs(duhamel_series(h, L, c, phi, t, K, g)
              - direct_supertrace(h, L, c, phi, t, g))
    assert err < 1e-4 * L.norm() ** (K + 1)


def test_series_halving_t():
    h, L, c, phi, g = _series_data()
    K = 2
    e1 = abs(duhamel_series(h, L, c, phi, 0.2, K, g)
             - direct_supertrace(h, L, c, phi, 0.2, g))
    e2 = abs(duhamel_series(h, L, c, phi, 0.1, K, g)
             - direct_supertrace(h, L, c, phi, 0.1, g))
    assert e1 / e2 == pytest.approx(2.0 ** (K + 1), rel=0.35)


def test_term_bound_pattern():
    # with spectrum >= 0 the k-th term is bounded by ||C|| ||L||^k / k!
    d = 4
    h = rand_hermitian(d, shift=3.0)
    L, c = rand_op(d, 0.5), rand_op(d)
    phi = FiniteOperator(np.eye(d))
    g = np.array([1.0, 1.0, -1.0, -1.0])
    t = 1.0
    prev = duhamel_series(h, L, c, phi, t, 0, g)
    for k in (1, 2, 3):
        cur = duhamel_series(h, L, c, phi, t, k, g)
        term = abs(cur - prev)
        assert term <= d * c.norm() * (t * L.norm()) ** k / math.factorial(k) \
            + 1e-9
        prev = cur


def test_sigma_extraction_first_order():
    # Str-sigma of the sigma-extended heat operator starts at the
    # first-order odd insertion of the series; the odd part is odd in the
    # insertion B, so what the first order misses is O(B^3), and halving B
    # divides it by 8 (a wrong first-order term would leave O(B))
    d = 4
    h = rand_hermitian(d, shift=2.0)
    b_odd = rand_op(d, 0.1)
    c, phi = rand_op(d), FiniteOperator(np.eye(d))
    g = np.array([1.0, 1.0, -1.0, -1.0])
    t = 0.1
    from scipy.linalg import expm

    def first_order_error(b):
        # direct sigma-extended exponential exp(-t(A + sigma B)) by the
        # 2x2 block trick [[A, B], [B, A]]
        big = np.block([[h.mat, b], [b, h.mat]])
        odd_part = expm(-t * big)[:d, d:]
        direct = float(np.real(np.sum(g * np.diag(phi.mat @ c.mat @ odd_part))))
        # series route: the k=1 term with a single odd insertion
        approx = -t * adaptive_simplex_integral(
            1, lambda node: float(np.real(np.sum(g * np.diag(
                phi.mat @ c.mat @ expm(-node[0] * t * h.mat) @ b
                @ expm(-node[1] * t * h.mat))))))
        return abs(direct - approx)
    ratio = first_order_error(b_odd.mat) / first_order_error(b_odd.mat / 2)
    assert 7 < ratio < 9
