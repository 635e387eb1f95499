import itertools
import math
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from heatchern import duhamel
from heatchern.duhamel import (FiniteOperator, SimplexQuadrature,
                               adaptive_simplex_integral, commutator,
                               commutator_expansion, direct_supertrace,
                               duhamel_series, iterated_commutator,
                               remainder_operator)

from conftest import cyclic_garbage

def rand_hermitian(nprng, d, shift=0.0):
    m = nprng.standard_normal((d, d))
    return FiniteOperator((m + m.T) / 2 + shift * np.eye(d), hermitian=True)


def rand_op(nprng, d, scale=1.0):
    return FiniteOperator(scale * nprng.standard_normal((d, d)))


def test_finite_operator_validation():
    with pytest.raises(ValueError):
        FiniteOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FiniteOperator([[0, 1], [0, 0]], hermitian=True)
    # asymmetry well above rounding, next to the matrix's own size
    for mat in ([[1, 1 + 5e-6], [1, 2]], 1e-13 * np.array([[1, 5], [-5, 2]])):
        with pytest.raises(ValueError, match="asserted Hermitian"):
            FiniteOperator(mat, hermitian=True)
    # Q D Q^T is symmetric only up to rounding, and that passes
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((6, 6)))
    h = q @ np.diag(np.arange(1.0, 7.0)) @ q.T
    assert not np.array_equal(h, h.T)
    FiniteOperator(h, hermitian=True)
    with pytest.raises(ValueError, match="dimension mismatch"):
        commutator(FiniteOperator(np.eye(2)), FiniteOperator(np.eye(3)))


def test_iterated_commutator_table():
    h = FiniteOperator(np.diag([0.0, 1.0]))
    b = FiniteOperator([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(iterated_commutator(h, b, 0).mat, b.mat)
    assert np.allclose(iterated_commutator(h, b, 1).mat, [[0, -1], [1, 0]])
    assert np.allclose(iterated_commutator(h, b, 2).mat, [[0, 1], [1, 0]])


def test_commuting_pair_collapses():
    h = FiniteOperator(np.diag([1.0, 2.0]))
    b = FiniteOperator(np.diag([3.0, -1.0]))
    assert iterated_commutator(h, b, 3).norm() == 0.0
    _, rem = commutator_expansion(h, b, 0.5, 1)
    assert rem < 1e-14


def test_expansion_first_term(nprng):
    h, b = rand_hermitian(nprng, 4), rand_op(nprng, 4)
    approx, _ = commutator_expansion(h, b, 0.7, 1)
    heat = scipy.linalg.expm(-0.7 * h.mat)
    assert np.allclose(approx.mat, b.mat @ heat)


def _at_nodes(f):
    """A group integrand from a node integrand f(t_0, ..., t_k)."""
    return lambda group: np.array([f(x) for x in group.coords[group.index]])


def test_gm_quadrature_exactness():
    for k in (1, 2, 3):
        for s in (1, 2, 3):
            q = SimplexQuadrature(k, s)
            assert sum(q.weights) == Fraction(1, math.factorial(k))
        q = SimplexQuadrature(k, 3)
        for f, want in ((lambda t: t[0], 1 / math.factorial(k + 1)),
                        (lambda t: t[0] ** 2 * t[1], 2 / math.factorial(k + 3))):
            values = [_at_nodes(f)(group) for group in q.groups]
            assert abs(q.integrate(values) - want) < 1e-13


def test_adaptive_integral():
    val = adaptive_simplex_integral(2, lambda g: np.exp(g.coords[g.index[:, 0]]))
    assert abs(val - (math.e - 2.0)) < 1e-9


def test_quadrature_permutation_invariance():
    # the simplex measure is symmetric in the barycentric coordinates
    q = SimplexQuadrature(2, 4)

    def integral(a, b):
        return q.integrate([g.coords[g.index[:, a]] ** 3 * g.coords[g.index[:, b]]
                            for g in q.groups])
    f01 = integral(0, 1)
    assert abs(f01 - integral(1, 0)) < 1e-14
    assert abs(f01 - integral(2, 1)) < 1e-14


def test_rules_are_nested():
    # rule s is group s followed by rule s - 1, node for node; only the
    # weights change, one per group
    for k in range(1, 6):
        for s in range(1, 9):
            q, prev = SimplexQuadrature(k, s), SimplexQuadrature(k, s - 1)
            assert q.nodes[-len(prev.nodes):] == prev.nodes
            assert len(q.nodes) == len(q.groups[0].index) + len(prev.nodes)
            for g, p in zip(q.groups[1:], prev.groups, strict=True):
                assert np.array_equal(g.coords, p.coords)
                assert np.array_equal(g.index, p.index)
            start = 0
            for i, g in enumerate(q.groups):
                # group j = s - i: its weight and its exact coordinates
                end = start + len(g.index)
                assert q.weights[start:end] == [g.weight] * len(g.index)
                denom = 2 * (s - i) + 1 + k
                assert q.nodes[start:end] == [
                    tuple(Fraction(2 * b + 1, denom) for b in row)
                    for row in g.index.tolist()]
                assert g.coords.tolist() == [
                    float(Fraction(2 * b + 1, denom)) for b in range(s - i + 1)]
                start = end
            # built on rule s - 1, the rule is the same and shares its arrays
            finer = SimplexQuadrature(k, s, prev)
            assert finer.nodes == q.nodes and finer.weights == q.weights
            assert [g.weight for g in finer.groups] \
                == [g.weight for g in q.groups]
            for g, p in zip(finer.groups[1:], prev.groups):
                assert g.coords is p.coords and g.index is p.index


def test_coarser_rule_must_be_the_previous_index():
    for k, s, coarser in ((2, 3, SimplexQuadrature(2, 1)),
                          (2, 3, SimplexQuadrature(3, 2)),
                          (2, 0, SimplexQuadrature(2, 0))):
        with pytest.raises(ValueError, match="coarser must be the rule"):
            SimplexQuadrature(k, s, coarser)


def test_remainder_slopes(nprng):
    for N in (1, 2, 3):
        h, b = rand_hermitian(nprng, 8), rand_op(nprng, 8)
        ss = [2.0 ** (-e) for e in range(3, 11)]
        errs = [commutator_expansion(h, b, s, N)[1] for s in ss]
        slope = float(np.polyfit(np.log(ss), np.log(errs), 1)[0])
        assert abs(slope - N) < 0.1


def test_exact_remainder_identity(nprng):
    for N in (1, 2, 3):
        h, b = rand_hermitian(nprng, 6), rand_op(nprng, 6)
        s = 0.3
        approx, _ = commutator_expansion(h, b, s, N)
        rem = remainder_operator(h, b, s, N)
        full = scipy.linalg.expm(-s * h.mat) @ b.mat
        assert np.linalg.norm(full - approx.mat - rem.mat, 2) < 1e-10


def _series_data(nprng, d=4):
    h = rand_hermitian(nprng, d, shift=2.0)
    L = rand_op(nprng, d, 0.5)
    c = rand_op(nprng, d)
    phi = rand_op(nprng, d)
    grading = np.array([1.0] * (d // 2) + [-1.0] * (d - d // 2))
    return h, L, c, phi, grading


def test_series_zero_perturbation(nprng):
    h, _, c, phi, g = _series_data(nprng)
    zero = FiniteOperator(np.zeros((4, 4)))
    assert abs(duhamel_series(h, zero, c, phi, 0.4, 3, g)
               - direct_supertrace(h, zero, c, phi, 0.4, g)) < 1e-12


def test_series_accuracy(nprng):
    h, L, c, phi, g = _series_data(nprng)
    t, K = 0.1, 3
    err = abs(duhamel_series(h, L, c, phi, t, K, g)
              - direct_supertrace(h, L, c, phi, t, g))
    assert err < 1e-4 * L.norm() ** (K + 1)


def test_series_halving_t(nprng):
    h, L, c, phi, g = _series_data(nprng)
    K = 2
    e1 = abs(duhamel_series(h, L, c, phi, 0.2, K, g)
             - direct_supertrace(h, L, c, phi, 0.2, g))
    e2 = abs(duhamel_series(h, L, c, phi, 0.1, K, g)
             - direct_supertrace(h, L, c, phi, 0.1, g))
    assert e1 / e2 == pytest.approx(2.0 ** (K + 1), rel=0.35)


def test_term_bound_pattern(nprng):
    # with spectrum >= 0 the k-th term is bounded by ||C|| ||L||^k / k!
    d = 4
    h = rand_hermitian(nprng, d, shift=3.0)
    L, c = rand_op(nprng, d, 0.5), rand_op(nprng, d)
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


def test_sigma_extraction_first_order(nprng):
    # Str-sigma of the sigma-extended heat operator starts at the
    # first-order odd insertion of the series; the odd part is odd in the
    # insertion B, so what the first order misses is O(B^3), and halving B
    # divides it by 8 (a wrong first-order term would leave O(B))
    d = 4
    h = rand_hermitian(nprng, d, shift=2.0)
    b_odd = rand_op(nprng, d, 0.1)
    c, phi = rand_op(nprng, d), FiniteOperator(np.eye(d))
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
            1, _at_nodes(lambda node: float(np.real(np.sum(g * np.diag(
                phi.mat @ c.mat @ expm(-node[0] * t * h.mat) @ b
                @ expm(-node[1] * t * h.mat)))))))
        return abs(direct - approx)
    ratio = first_order_error(b_odd.mat) / first_order_error(b_odd.mat / 2)
    assert 7 < ratio < 9


# -- oracles: the node-by-node code, every node of every rule evaluated anew


def _reference_rule(k, s):
    nodes, weights = [], []
    deg = 2 * s + 1
    for i in range(s + 1):
        denom = deg + k - 2 * i
        w = ((-1) ** i) * Fraction(denom ** deg, 2 ** (2 * s)) \
            / (Fraction(math.factorial(i)) * math.factorial(deg + k - i))
        for beta in itertools.product(range(s - i + 1), repeat=k + 1):
            if sum(beta) == s - i:
                nodes.append(tuple(Fraction(2 * bj + 1, denom) for bj in beta))
                weights.append(w)
    return nodes, weights


def _reference_adaptive(k, f, tol=1e-9, max_index=12):
    prev = None
    for s in range(1, max_index + 1):
        nodes, weights = _reference_rule(k, s)
        val = 0.0
        for node, w in zip(nodes, weights):
            val = val + float(w) * f(node)
        if prev is not None and np.max(np.abs(val - prev)) < tol:
            return val
        prev = val
    raise RuntimeError("simplex quadrature did not converge to tolerance")


def _reference_remainder(h, b, s, N):
    bN = iterated_commutator(h, b, N)

    def integrand(node):
        u1 = float(node[0])
        return (scipy.linalg.expm(-u1 * s * h.mat) @ bN.mat
                @ scipy.linalg.expm(-(1.0 - u1) * s * h.mat))

    total = _reference_adaptive(N, integrand, tol=1e-11, max_index=13)
    return ((-1) ** N) * (s ** N) * total


def _reference_series(h, L, c, phi, t, K, g):
    @lru_cache(maxsize=None)
    def heat(tau):
        return scipy.linalg.expm(-tau * t * h.mat)

    def supertrace(mat):
        return float(np.real(np.sum(g * np.diag(mat))))

    head = phi.mat @ c.mat
    total = supertrace(head @ heat(1.0))
    for k in range(1, K + 1):
        def integrand(node, _k=k):
            mat = head @ heat(round(float(node[0]), 15))
            for i in range(1, _k + 1):
                mat = mat @ L.mat @ heat(round(float(node[i]), 15))
            return supertrace(mat)

        total += ((-t) ** k) * _reference_adaptive(k, integrand)
    return total


def test_rule_matches_node_by_node_construction():
    for k in range(1, 5):
        for s in range(0, 9):
            q = SimplexQuadrature(k, s)
            nodes, weights = _reference_rule(k, s)
            assert q.nodes == nodes
            assert q.weights == weights


@pytest.mark.parametrize("d", [4, 8])
def test_series_bit_identical_to_node_by_node(nprng, d):
    # at t = 0.5 the higher terms are not lost in the rounding of the total
    h, L, c, phi, g = _series_data(nprng, d)
    for t in (0.1, 0.5):
        for K in range(0, 6):
            assert duhamel_series(h, L, c, phi, t, K, g) \
                == _reference_series(h, L, c, phi, t, K, g)


def test_series_keeps_no_matrix_after_the_call(nprng):
    # no cache, and no matrix in a reference cycle, outlives the call, also
    # when the quadrature raises
    h, L, c, phi, g = _series_data(nprng, 8)

    def kept(garbage):
        return [o for o in garbage
                if isinstance(o, np.ndarray) or hasattr(o, "cache_info")]

    assert kept(cyclic_garbage(
        lambda: duhamel_series(h, L, c, phi, 0.1, 3, g))) == []

    def fails_at_k2(k, f, *args, **kwargs):
        value = adaptive_simplex_integral(k, f, *args, **kwargs)
        if k == 2:
            raise RuntimeError("simplex quadrature did not converge")
        return value

    with mock.patch.object(duhamel, "adaptive_simplex_integral", fails_at_k2):
        assert kept(cyclic_garbage(
            lambda: duhamel_series(h, L, c, phi, 0.1, 3, g))) == []


def _recording_rules(built):
    """A SimplexQuadrature that appends each rule it builds to ``built``."""
    class Recording(SimplexQuadrature):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    return Recording


def test_series_evaluates_each_node_once(nprng):
    h, L, c, phi, g = _series_data(nprng, 4)
    built, rows, finals = [], [], []

    def counting(k, f, *args, **kwargs):
        def rows_of(group):
            rows.append(len(group.index))
            return f(group)

        start = len(built)
        value = adaptive_simplex_integral(k, rows_of, *args, **kwargs)
        finals.append(built[-1])
        assert len(built) - start >= 2
        return value

    with mock.patch.object(duhamel, "SimplexQuadrature",
                           _recording_rules(built)), \
            mock.patch.object(duhamel, "adaptive_simplex_integral", counting), \
            mock.patch("scipy.linalg.expm", wraps=scipy.linalg.expm) as expm:
        duhamel_series(h, L, c, phi, 0.1, 3, g)
    assert len(finals) == 3
    assert sum(rows) == sum(len(q.nodes) for q in finals)
    taus = {round(float(v), 15) for q in built for node in q.nodes
            for v in node}
    assert expm.call_count == len(taus) + 1


@pytest.mark.parametrize("d", [4, 8])
def test_remainder_bit_identical_to_node_by_node(nprng, d):
    for N in (1, 2, 3):
        h, b = rand_hermitian(nprng, d), rand_op(nprng, d)
        assert np.array_equal(remainder_operator(h, b, 0.3, N).mat,
                              _reference_remainder(h, b, 0.3, N))


def test_remainder_takes_two_exponentials_per_distinct_t0(nprng):
    built = []
    h, b = rand_hermitian(nprng, 8), rand_op(nprng, 8)
    with mock.patch.object(duhamel, "SimplexQuadrature",
                           _recording_rules(built)), \
            mock.patch("scipy.linalg.expm", wraps=scipy.linalg.expm) as expm:
        remainder_operator(h, b, 0.3, 3)
    nodes = sum(len(q.nodes) for q in built)
    t0 = {float(node[0]) for q in built for node in q.nodes}
    assert len(built) >= 2
    assert expm.call_count == 2 * len(t0) < 2 * nodes


@pytest.mark.parametrize("N, s", [(0, 0.3), (-1, 0.3), (1, 0.0), (1, -0.5),
                                  (0, -0.5)])
def test_remainder_refuses_what_the_expansion_refuses(N, s):
    h = FiniteOperator(np.diag([1.0, 2.0]))
    b = FiniteOperator([[0.0, 1.0], [1.0, 0.0]])
    match = r"need N >= 1" if N < 1 else "s must be positive and finite"
    for f in (commutator_expansion, remainder_operator):
        with pytest.raises(ValueError, match=match):
            f(h, b, s, N)


# -- oracle: the expansion in the operator arithmetic FiniteOperator had


class _OperatorAlgebra(FiniteOperator):
    """FiniteOperator with its former ``+ - *``, ``scale``, ``zero`` and
    ``expm``, so the expansion below runs the former code as it was."""

    __slots__ = ()

    @classmethod
    def zero(cls, d):
        return cls(np.zeros((d, d)))

    def __add__(self, other):
        self._check(other)
        return _OperatorAlgebra(self.mat + other.mat)

    def __sub__(self, other):
        self._check(other)
        return _OperatorAlgebra(self.mat - other.mat)

    def __mul__(self, other):
        self._check(other)
        return _OperatorAlgebra(self.mat @ other.mat)

    def scale(self, factor):
        return _OperatorAlgebra(factor * self.mat)

    def expm(self):
        return _OperatorAlgebra(scipy.linalg.expm(self.mat))


def _reference_commutator(h, b):
    return h * b - b * h


def _reference_expansion(h, b, s, N):
    heat = h.scale(-s).expm()
    acc = _OperatorAlgebra.zero(h.dim)
    bl = b
    for l in range(N):
        coef = ((-1) ** l) * (s ** l) / math.factorial(l)
        acc = acc + (bl * heat).scale(coef)
        bl = _reference_commutator(h, bl)
    remainder = heat * b - acc
    return acc, remainder.norm()


@pytest.mark.parametrize("d", [4, 6])
def test_expansion_bit_identical_to_operator_algebra(nprng, d):
    for N in (1, 2, 3):
        h, b = rand_hermitian(nprng, d), rand_op(nprng, d)
        h_ref, b_ref = _OperatorAlgebra(h.mat), _OperatorAlgebra(b.mat)
        assert np.array_equal(commutator(h, b).mat,
                              _reference_commutator(h_ref, b_ref).mat)
        # the report's dyadic s, and one whose powers are not exact in binary
        for s in (0.5, 0.125, 0.3):
            approx, norm = commutator_expansion(h, b, s, N)
            want, want_norm = _reference_expansion(h_ref, b_ref, s, N)
            assert np.array_equal(approx.mat, want.mat)
            assert norm == want_norm
