"""Finite-dimensional heat-expansion checks.

Matrix surrogates for the operator identities used in the variation
argument: iterated commutators, the finite commutator expansion of
exp(-sH) B with its integral remainder, and the perturbative series for
Str[Phi C exp(-t(H+L))] as iterated simplex integrals of heat factors
interleaved with L.

Matrix exponentials are scipy's scaling-and-squaring Pade implementation
(accurate to ~1e-12 for the conditioning used here, far below the
remainder magnitudes these tests measure).  ``scipy.linalg`` is imported
at the first exponential, inside each function that takes one, so that
importing the package (and every suite but ``duhamel``) never loads it.
Simplex integrals use the Grundmann-Moller family with the rule index
raised until two successive rules agree: to 1e-9 by index 12 in
``duhamel_series`` (the default of ``adaptive_simplex_integral``), to 1e-11
by index 13 in ``remainder_operator``.  Each rule makes one ``Fraction`` per
coordinate value.  Within one call, ``remainder_operator`` evaluates its
integrand once per distinct t_0, and ``duhamel_series`` takes one heat
factor per distinct coordinate and builds each leading product
Phi C e(t_0) L ... L e(t_j) of fewer than k coordinates once; nothing is
kept between calls: each call empties its caches before it returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

from .scalars import _negligible

__all__ = [
    "FiniteOperator", "SimplexQuadrature",
    "commutator", "iterated_commutator", "commutator_expansion",
    "adaptive_simplex_integral", "remainder_operator",
    "duhamel_series", "direct_supertrace",
]


class FiniteOperator:
    """Dense square matrix, checked once; the functions below compute on
    ``mat`` with numpy."""

    __slots__ = ("mat",)

    def __init__(self, mat, hermitian: bool | None = None):
        m = np.asarray(mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("need a square matrix of dimension >= 1")
        if hermitian and not _negligible(m - m.conj().T, np.linalg.norm(m)):
            raise ValueError("matrix asserted Hermitian is not")
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def _check(self, other: "FiniteOperator"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def norm(self) -> float:
        """Spectral norm."""
        return float(np.linalg.norm(self.mat, 2))

    def __repr__(self):
        return f"FiniteOperator(dim={self.dim})"


def commutator(h: FiniteOperator, b: FiniteOperator) -> FiniteOperator:
    h._check(b)
    return FiniteOperator(h.mat @ b.mat - b.mat @ h.mat)


def iterated_commutator(h: FiniteOperator, b: FiniteOperator,
                        l: int) -> FiniteOperator:
    """l-fold bracket with h: B^[0] = B, B^[l] = [H, B^[l-1]]."""
    if l < 0:
        raise ValueError("l must be non-negative")
    out = b
    for _ in range(l):
        out = commutator(h, out)
    return out


# -- simplex quadrature ---------------------------------------------------

class SimplexQuadrature:
    """Grundmann-Moller rule on the simplex t_0+...+t_k = 1, t_i >= 0.

    ``nodes`` holds barycentric coordinates (k+1 per node); weights sum
    to the simplex volume 1/k!.  The rule of index s integrates
    polynomials of degree <= 2s+1 exactly.
    """

    __slots__ = ("k", "nodes", "weights")

    def __init__(self, k: int, s: int):
        if k < 1 or s < 0:
            raise ValueError("need simplex dimension >= 1 and rule index >= 0")
        self.k = k
        nodes = []
        weights = []
        d = k
        deg = 2 * s + 1
        for i in range(s + 1):
            denom = deg + d - 2 * i
            w = ((-1) ** i) * Fraction(denom ** deg, 2 ** (2 * s)) \
                / (Fraction(factorial(i)) * factorial(deg + d - i))
            coords = [Fraction(2 * b + 1, denom) for b in range(s - i + 1)]
            for beta in _compositions(s - i, d + 1):
                nodes.append(tuple(coords[bj] for bj in beta))
                weights.append(w)
        self.nodes = nodes
        self.weights = weights

    def integrate(self, f) -> complex:
        """Integral of f(t_0, ..., t_k) over the simplex."""
        total = 0.0
        for node, w in zip(self.nodes, self.weights):
            total = total + float(w) * f(node)
        return total


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def adaptive_simplex_integral(k: int, f, tol: float = 1e-9,
                              max_index: int = 12):
    """Raise the rule index until two successive results agree to tol.

    f may return a scalar or an array; arrays must agree entrywise.
    """
    prev = None
    for s in range(1, max_index + 1):
        val = SimplexQuadrature(k, s).integrate(f)
        if prev is not None and np.max(np.abs(val - prev)) < tol:
            return val
        prev = val
    raise RuntimeError("simplex quadrature did not converge to tolerance")


# -- commutator expansion (finite heat-factor rearrangement) -------------

def commutator_expansion(h: FiniteOperator, b: FiniteOperator, s: float,
                         N: int):
    """Expansion of exp(-sH) B through N terms plus the remainder norm.

    approximation = sum_{l<N} ((-1)^l / l!) s^l B^[l] exp(-sH);
    remainder_norm = ||exp(-sH) B - approximation||, which decays like
    s^N as s -> 0.
    """
    if N < 1 or s <= 0:
        raise ValueError("need N >= 1 and s > 0")
    h._check(b)
    from scipy.linalg import expm
    heat = expm(-s * h.mat)
    acc = np.zeros_like(heat)
    bl = b
    for l in range(N):
        coef = ((-1) ** l) * (s ** l) / factorial(l)
        acc = acc + coef * (bl.mat @ heat)
        bl = commutator(h, bl)
    return FiniteOperator(acc), float(np.linalg.norm(heat @ b.mat - acc, 2))


def remainder_operator(h: FiniteOperator, b: FiniteOperator, s: float,
                       N: int) -> FiniteOperator:
    """The exact N-th remainder (-1)^N s^N B^[N](s) by simplex quadrature.

    B^[N](s) integrates exp(-u_1 s H) B^[N] exp(-(1-u_1) s H) over the
    N-simplex in (u_1, ..., u_N); the integrand depends on u_1 only.
    Adding this to the truncated expansion recovers exp(-sH) B exactly.
    The integrand is evaluated once per distinct u_1 over all the rules.
    """
    if N < 1 or s <= 0:
        raise ValueError("need N >= 1 and s > 0")
    h._check(b)
    from scipy.linalg import expm
    bN = iterated_commutator(h, b, N)

    @lru_cache(maxsize=None)
    def at(u1: float) -> np.ndarray:
        return expm(-u1 * s * h.mat) @ bN.mat @ expm(-(1.0 - u1) * s * h.mat)

    # simplex coordinates (t_0,...,t_N) with u_1 = t_0
    total = adaptive_simplex_integral(N, lambda node: at(float(node[0])),
                                      tol=1e-11, max_index=13)
    return FiniteOperator(((-1) ** N) * (s ** N) * total)


# -- perturbative heat series --------------------------------------------

def _supertrace(mat: np.ndarray, grading: np.ndarray) -> float:
    return float(np.real(np.sum(grading * np.diag(mat))))


def _check_grading(grading, d: int) -> np.ndarray:
    g = np.asarray(grading, dtype=float)
    if g.shape != (d,) or not np.all(np.abs(g) == 1.0):
        raise ValueError("grading must be a length-d vector of +-1")
    return g


def direct_supertrace(h: FiniteOperator, L: FiniteOperator,
                      c: FiniteOperator, phi: FiniteOperator,
                      t: float, grading) -> float:
    """Str[Phi C exp(-t(H+L))] by a single matrix exponential."""
    from scipy.linalg import expm
    g = _check_grading(grading, h.dim)
    mat = phi.mat @ c.mat @ expm(-t * (h.mat + L.mat))
    return _supertrace(mat, g)


def duhamel_series(h: FiniteOperator, L: FiniteOperator, c: FiniteOperator,
                   phi: FiniteOperator, t: float, K: int, grading) -> float:
    """Truncated interleaved-heat-factor series for the supertrace.

    sum_{k<=K} (-t)^k int over the k-simplex of
    Str[Phi C exp(-t_0 t H) L ... L exp(-t_k t H)], evaluated by
    adaptive simplex quadrature; the truncation error decays like
    t^{K+1} ||L||^{K+1}.
    """
    from scipy.linalg import expm
    for op in (L, c, phi):
        h._check(op)
    if t <= 0 or K < 0:
        raise ValueError("need t > 0 and K >= 0")
    g = _check_grading(grading, h.dim)

    @lru_cache(maxsize=None)
    def heat(tau: float) -> np.ndarray:
        return expm(-tau * t * h.mat)

    head = phi.mat @ c.mat

    @lru_cache(maxsize=None)
    def prefix(x: tuple) -> np.ndarray:
        # head e(x_0) L e(x_1) ... L e(x_j), associated from the left
        if len(x) == 1:
            return head @ heat(x[0])
        return prefix(x[:-1]) @ L.mat @ heat(x[-1])

    try:
        total = _supertrace(head @ heat(1.0), g)
        for k in range(1, K + 1):
            def integrand(node, _k=k):
                x = tuple(round(float(v), 15) for v in node)
                # k coordinates fix the node, so only shorter prefixes are
                # shared
                j = max(_k - 1, 1)
                mat = prefix(x[:j]) if _k > 1 else head @ heat(x[0])
                for xi in x[j:]:
                    mat = mat @ L.mat @ heat(xi)
                return _supertrace(mat, g)

            term = adaptive_simplex_integral(k, integrand)
            total += ((-t) ** k) * term
    finally:
        # prefix calls itself, so it is in a reference cycle: without this
        # both caches' matrices would live until a full garbage collection
        prefix.cache_clear()
        heat.cache_clear()
    return total
