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
by index 13 in ``remainder_operator``.  The rules are nested: rule s is
group s followed by rule s-1, node for node, where group j holds the nodes
with coordinates (2b+1)/(2j+1+k) for the compositions b of j into k+1
parts, and only the weights, one per group, change with s.  So raising the
index evaluates the integrand on the new group alone, as one batch; the
rule's sum reuses the lower groups' values and adds them all left to right
in node order.  ``duhamel_series`` evaluates a group by one chain of stacked
products Phi C e(t_0) L e(t_1) ... L e(t_k), e stacking the heat factors
by coordinate index, with one heat factor per distinct coordinate value;
``remainder_operator`` takes two exponentials per distinct t_0.  Nothing
is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations
from math import factorial
from typing import NamedTuple

import numpy as np

from .scalars import _count, _negligible, _positive_finite

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
    _count(l, "l", 0)
    out = b
    for _ in range(l):
        out = commutator(h, out)
    return out


# -- simplex quadrature ---------------------------------------------------

class _Group(NamedTuple):
    """The nodes of one rule that share a weight.

    Node r has coordinates ``coords[index[r]]``: ``coords`` holds the
    float values (2b+1)/(2j+1+k), b = 0..j, and the rows of ``index`` are
    the compositions of j into k+1 parts, in lexicographic order.
    """

    coords: np.ndarray
    index: np.ndarray
    weight: Fraction


class SimplexQuadrature:
    """Grundmann-Moller rule on the simplex t_0+...+t_k = 1, t_i >= 0.

    ``nodes`` holds barycentric coordinates (k+1 per node); weights sum
    to the simplex volume 1/k!.  The rule of index s integrates
    polynomials of degree <= 2s+1 exactly.  Its nodes come in ``groups``
    j = s, s-1, ..., 0, one weight each.  Group j is the same in every
    rule of index >= j, so the nodes of rule s are those of group s
    followed by those of rule s-1: given that rule as ``coarser``, the
    rule builds group s alone and shares the others' arrays.
    """

    __slots__ = ("k", "groups", "nodes", "weights")

    def __init__(self, k: int, s: int,
                 coarser: "SimplexQuadrature | None" = None):
        _count(k, "k", 1)
        _count(s, "s", 0)
        known = [] if coarser is None else coarser.groups
        if coarser is not None and (coarser.k != k or len(known) != s):
            raise ValueError("coarser must be the rule of index s-1 on the "
                             "same simplex")
        self.k = k
        layout, nodes = [], []
        for j in range(s, len(known) - 1, -1):
            denom = 2 * j + 1 + k
            odd = np.arange(1, 2 * j + 2, 2)
            index = _compositions(j, k + 1)
            layout.append((odd / denom, index))
            exact = np.array([Fraction(int(a), denom) for a in odd],
                             dtype=object)
            nodes.extend(zip(*exact[index.T]))
        layout += [(g.coords, g.index) for g in known]
        if coarser is not None:
            nodes += coarser.nodes
        self.nodes = nodes
        self.groups = []
        self.weights = []
        deg = 2 * s + 1
        for i, (coords, index) in enumerate(layout):
            w = Fraction((-1) ** i * (2 * (s - i) + 1 + k) ** deg,
                         2 ** (2 * s) * factorial(i) * factorial(deg + k - i))
            self.groups.append(_Group(coords, index, w))
            self.weights.extend([w] * len(index))

    def integrate(self, values):
        """Sum of weight times value over the nodes, added in node order.

        ``values[i]`` holds the integrand at the nodes of ``groups[i]``,
        stacked along its first axis; the sum starts from +0.0.
        """
        terms = np.concatenate([float(g.weight) * v
                                for g, v in zip(self.groups, values)])
        seeded = np.concatenate((np.zeros_like(terms[:1]), terms))
        return np.add.accumulate(seeded)[-1]


def _compositions(total: int, parts: int) -> np.ndarray:
    """All rows of ``parts`` non-negative ints summing to ``total``, in
    lexicographic order: the gaps between ``parts - 1`` bars placed among
    ``total + parts - 1`` slots, taken in the order of the bar positions."""
    slots = total + parts - 1
    cuts = np.fromiter(chain.from_iterable(combinations(range(slots),
                                                        parts - 1)),
                       dtype=np.intp).reshape(-1, parts - 1)
    bounds = np.empty((len(cuts), parts + 1), dtype=np.intp)
    bounds[:, 0] = -1
    bounds[:, 1:-1] = cuts
    bounds[:, -1] = slots
    return bounds[:, 1:] - bounds[:, :-1] - 1


def adaptive_simplex_integral(k: int, f, tol: float = 1e-9,
                              max_index: int = 12):
    """Raise the rule index until two successive results agree to tol.

    f takes a group of nodes (``SimplexQuadrature.groups``) and returns
    the integrand at each of them, stacked along the first axis; a value
    may be a scalar or an array, and arrays must agree entrywise.  f is
    called once per group: raising the index to s adds group s alone.
    """
    values = []    # f on group j, for j = 0, 1, ...
    prev = rule = None
    for s in range(1, max_index + 1):
        rule = SimplexQuadrature(k, s, rule)
        while len(values) <= s:
            values.append(f(rule.groups[s - len(values)]))
        val = rule.integrate(values[::-1])
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
    _count(N, "N", 1)
    _positive_finite(s, "s")
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
    _count(N, "N", 1)
    _positive_finite(s, "s")
    h._check(b)
    from scipy.linalg import expm
    bN = iterated_commutator(h, b, N)
    at = {}    # u_1 -> the integrand there, for this call only

    def integrand(group):
        # simplex coordinates (t_0,...,t_N) with u_1 = t_0
        u = group.coords.tolist()
        for u1 in u:
            if u1 not in at:
                at[u1] = (expm(-u1 * s * h.mat) @ bN.mat
                          @ expm(-(1.0 - u1) * s * h.mat))
        return np.stack([at[u1] for u1 in u])[group.index[:, 0]]

    total = adaptive_simplex_integral(N, integrand, tol=1e-11, max_index=13)
    return FiniteOperator(((-1) ** N) * (s ** N) * total)


# -- perturbative heat series --------------------------------------------

def _supertrace(mat: np.ndarray, grading: np.ndarray):
    """Str = sum_i g_i M_ii of a matrix, or of each matrix of a stack."""
    return np.real(np.sum(grading * np.diagonal(mat, axis1=-2, axis2=-1),
                          axis=-1))


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
    return float(_supertrace(mat, g))


def duhamel_series(h: FiniteOperator, L: FiniteOperator, c: FiniteOperator,
                   phi: FiniteOperator, t: float, K: int, grading) -> float:
    """Truncated interleaved-heat-factor series for the supertrace.

    sum_{k<=K} (-t)^k int over the k-simplex of
    Str[Phi C exp(-t_0 t H) L ... L exp(-t_k t H)], evaluated by
    adaptive simplex quadrature; the truncation error decays like
    t^{K+1} ||L||^{K+1}.
    """
    for op in (L, c, phi):
        h._check(op)
    _count(K, "K", 0)
    _positive_finite(t, "t")
    from scipy.linalg import expm
    g = _check_grading(grading, h.dim)
    head = phi.mat @ c.mat
    heat = {}  # round(tau, 15) -> exp(-tau t H), for this call only

    def heat_factor(tau: float) -> np.ndarray:
        if tau not in heat:
            heat[tau] = expm(-tau * t * h.mat)
        return heat[tau]

    def integrand(group):
        # head e(t_0) L e(t_1) ... L e(t_k) at every node, associated from
        # the left, one stacked product per factor (head e(t_0) once per
        # coordinate value)
        e = np.stack([heat_factor(round(tau, 15))
                      for tau in group.coords.tolist()])
        index = group.index
        mat = (head @ e)[index[:, 0]]
        for i in range(1, index.shape[1]):
            mat = mat @ L.mat @ e[index[:, i]]
        return _supertrace(mat, g)

    total = float(_supertrace(head @ heat_factor(1.0), g))
    for k in range(1, K + 1):
        term = float(adaptive_simplex_integral(k, integrand))
        total += ((-t) ** k) * term
    return total
