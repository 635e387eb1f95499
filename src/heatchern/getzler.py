"""Rescaling-order bookkeeping and operator assembly.

A :class:`GradedDiffOp` is a finite sum of terms

    coefficient * x^beta * (Clifford or exterior word) * d_x^alpha * d_t^p

with the grading that assigns 1 to each spatial derivative, 2 to d_t,
1/2 to each Clifford generator and -1 to each coordinate factor.  The
top-graded part of the de Rham square is a flat Laplacian plus a
curvature 4-form potential; that extraction drives the index density.

Connection terms, and the rough Laplacian of a twisted bundle, are not
expanded from a metric: they are carried as opaque named summands with a
declared grading bound, since only the top-order part is ever consumed.

Truncated symbol composition for the parabolic calculus uses the
Fourier convention D_x = -i d/dx (fixed once here; the composition
example x^j o xi_j depends on it) with Gaussian-rational coefficients.

Both products rest on one multi-index Leibniz rule, ``_leibniz``: d^a
moved past x^b in ``compose``, and xi^a composed with x^b (weighted by
(-i)^|alpha|) in ``volterra_compose``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .clifford import CliffordElement
from .equivariant import BundleVariationData, CurvatureTensor
from .multivector import _popcount, _product
from .scalars import CFrac

__all__ = [
    "GradedDiffOp", "SigmaExtendedOp", "VolterraSymbol",
    "getzler_order", "model_operator", "top_order_part", "weitzenbock",
    "compose", "lichnerowicz_split", "LichnerowiczSplit",
    "volterra_compose", "commutator_order_bound",
]


# -- coefficient helpers --------------------------------------------------
#
# Coefficients are scalars (int, Fraction, float) or square matrices
# stored as tuples of tuples (endomorphism-valued terms).  Scalars act
# on matrices as multiples of the identity.

def _is_mat(c) -> bool:
    return isinstance(c, tuple)


def mat(rows) -> tuple:
    """Freeze a nested-sequence matrix into the tuple form used here."""
    out = tuple(tuple(v for v in row) for row in rows)
    r = len(out)
    if any(len(row) != r for row in out):
        raise ValueError("matrix coefficient must be square")
    return out


def _mat_scalar(value, r: int) -> tuple:
    return tuple(tuple(value if i == j else 0 for j in range(r)) for i in range(r))


def _coef_add(a, b):
    if _is_mat(a) or _is_mat(b):
        if not _is_mat(a):
            a = _mat_scalar(a, len(b))
        if not _is_mat(b):
            b = _mat_scalar(b, len(a))
        if len(a) != len(b):
            raise ValueError("matrix coefficient size mismatch")
        return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))
    return a + b


def _coef_mul(a, b):
    if _is_mat(a) and _is_mat(b):
        if len(a) != len(b):
            raise ValueError("matrix coefficient size mismatch")
        r = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r))
                           for j in range(r)) for i in range(r))
    if _is_mat(a):
        return tuple(tuple(v * b for v in row) for row in a)
    if _is_mat(b):
        return tuple(tuple(a * v for v in row) for row in b)
    return a * b


def _coef_is_zero(c) -> bool:
    if _is_mat(c):
        return all(v == 0 for row in c for v in row)
    return c == 0


def _coef_neg(c):
    return _coef_mul(-1, c)


# -- graded differential operators ---------------------------------------

def _word_order(cmask: int, hmask: int) -> Fraction:
    return Fraction(_popcount(cmask) + _popcount(hmask), 2)


def _term_order(key) -> Fraction:
    xexp, cmask, hmask, dexp, tpow = key
    return sum(dexp) + 2 * tpow + _word_order(cmask, hmask) - sum(xexp)


class GradedDiffOp:
    """Sparse canonical sum of graded differential-operator terms.

    Term keys are (x-exponents, c-mask, chat-mask, d-exponents, d_t
    power); for kind="exterior" the two masks index wedge words instead
    of Clifford words.  ``opaque`` maps (name-tuple, order-bound) to a
    scalar coefficient for summands that are tracked only through their
    grading bound.
    """

    __slots__ = ("n", "kind", "terms", "opaque")

    def __init__(self, n: int, terms=None, opaque=None, kind: str = "clifford"):
        if kind not in ("clifford", "exterior"):
            raise ValueError(f"unknown kind {kind!r}")
        self.n = n
        self.kind = kind
        clean = {}
        for (xexp, cmask, hmask, dexp, tpow), c in (terms or {}).items():
            xexp, dexp = tuple(xexp), tuple(dexp)
            if len(xexp) != n or len(dexp) != n:
                raise ValueError("exponent tuples must have length n")
            if any(e < 0 for e in xexp + dexp) or tpow < 0:
                raise ValueError("exponents must be non-negative")
            if cmask >> n or hmask >> n:
                raise ValueError("word mask out of range")
            if not _coef_is_zero(c):
                clean[(xexp, cmask, hmask, dexp, tpow)] = c
        self.terms = clean
        clean_op = {}
        for (names, order), c in (opaque or {}).items():
            if not _coef_is_zero(c):
                clean_op[(tuple(names), Fraction(order))] = c
        self.opaque = clean_op

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n: int, kind: str = "clifford") -> "GradedDiffOp":
        return cls(n, kind=kind)

    @classmethod
    def scalar(cls, n: int, value, kind: str = "clifford") -> "GradedDiffOp":
        z = (0,) * n
        return cls(n, {(z, 0, 0, z, 0): value}, kind=kind)

    @classmethod
    def d_x(cls, n: int, j: int, kind: str = "clifford") -> "GradedDiffOp":
        z = (0,) * n
        d = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, {(z, 0, 0, d, 0): 1}, kind=kind)

    @classmethod
    def d_t(cls, n: int, kind: str = "clifford") -> "GradedDiffOp":
        z = (0,) * n
        return cls(n, {(z, 0, 0, z, 1): 1}, kind=kind)

    @classmethod
    def x_coord(cls, n: int, j: int, kind: str = "clifford") -> "GradedDiffOp":
        z = (0,) * n
        x = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, {(x, 0, 0, z, 0): 1}, kind=kind)

    @classmethod
    def word(cls, n: int, cmask: int, hmask: int, coef=1,
             kind: str = "clifford") -> "GradedDiffOp":
        z = (0,) * n
        return cls(n, {(z, cmask, hmask, z, 0): coef}, kind=kind)

    @classmethod
    def opaque_term(cls, n: int, name: str, order, coef=1,
                    kind: str = "clifford") -> "GradedDiffOp":
        return cls(n, opaque={((name,), Fraction(order)): coef}, kind=kind)

    # -- linear structure ----------------------------------------------

    def _check(self, other: "GradedDiffOp"):
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if self.kind != other.kind:
            raise ValueError("cannot mix clifford and exterior operators")

    def __add__(self, other: "GradedDiffOp") -> "GradedDiffOp":
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = _coef_add(terms[k], c) if k in terms else c
        opaque = dict(self.opaque)
        for k, c in other.opaque.items():
            opaque[k] = _coef_add(opaque[k], c) if k in opaque else c
        return GradedDiffOp(self.n, terms, opaque, self.kind)

    def __neg__(self) -> "GradedDiffOp":
        return GradedDiffOp(self.n, {k: _coef_neg(c) for k, c in self.terms.items()},
                            {k: _coef_neg(c) for k, c in self.opaque.items()},
                            self.kind)

    def __sub__(self, other: "GradedDiffOp") -> "GradedDiffOp":
        return self + (-other)

    def scale(self, factor) -> "GradedDiffOp":
        return GradedDiffOp(self.n,
                            {k: _coef_mul(factor, c) for k, c in self.terms.items()},
                            {k: _coef_mul(factor, c) for k, c in self.opaque.items()},
                            self.kind)

    def __mul__(self, other: "GradedDiffOp") -> "GradedDiffOp":
        return compose(self, other)

    def __eq__(self, other):
        if isinstance(other, GradedDiffOp):
            return (self.n == other.n and self.kind == other.kind
                    and self.terms == other.terms and self.opaque == other.opaque)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.kind, frozenset(self.terms.items()),
                     frozenset(self.opaque.items())))

    def is_zero(self) -> bool:
        return not self.terms and not self.opaque

    # -- serialization --------------------------------------------------

    def to_text(self) -> str:
        """Canonical text dump for golden tests; terms sorted by key."""
        if self.is_zero():
            return "0"
        gen = ("c", "ch") if self.kind == "clifford" else ("e", "eh")
        parts = []
        for key in sorted(self.terms):
            xexp, cmask, hmask, dexp, tpow = key
            c = self.terms[key]
            factors = []
            for i, e in enumerate(xexp):
                if e:
                    factors.append(f"x{i+1}" + (f"^{e}" if e > 1 else ""))
            for i in range(self.n):
                if cmask >> i & 1:
                    factors.append(f"{gen[0]}{i+1}")
            for i in range(self.n):
                if hmask >> i & 1:
                    factors.append(f"{gen[1]}{i+1}")
            for i, e in enumerate(dexp):
                if e:
                    factors.append(f"d{i+1}" + (f"^{e}" if e > 1 else ""))
            if tpow:
                factors.append("dt" + (f"^{tpow}" if tpow > 1 else ""))
            word = " ".join(factors) if factors else "1"
            parts.append(f"{c} * {word}")
        for (names, order) in sorted(self.opaque):
            c = self.opaque[(names, order)]
            parts.append(f"{c} * [{' '.join(names)} | order<={order}]")
        return " + ".join(parts)

    def __repr__(self):
        return f"GradedDiffOp(n={self.n}, kind={self.kind!r}, {self.to_text()})"


def getzler_order(op) -> Fraction | None:
    """Maximal grading over the terms of op; None for the zero operator.

    Accepts a GradedDiffOp or a SigmaExtendedOp (maximum of both parts).
    """
    if isinstance(op, SigmaExtendedOp):
        orders = [getzler_order(p) for p in (op.even, op.odd)]
        orders = [o for o in orders if o is not None]
        return max(orders) if orders else None
    candidates = [_term_order(k) for k in op.terms]
    candidates += [order for (_, order) in op.opaque]
    return max(candidates) if candidates else None


def top_order_part(op: GradedDiffOp) -> GradedDiffOp:
    """The terms of op at its maximal grading, in the same word algebra."""
    top = getzler_order(op)
    if top is None:
        return GradedDiffOp.zero(op.n, op.kind)
    terms = {k: c for k, c in op.terms.items() if _term_order(k) == top}
    opaque = {k: c for k, c in op.opaque.items() if k[1] == top}
    return GradedDiffOp(op.n, terms, opaque, op.kind)


def model_operator(op: GradedDiffOp) -> GradedDiffOp:
    """Top-graded part with Clifford words re-read as exterior words.

    Opaque summands whose bound reaches the top order cannot be
    extracted and raise.
    """
    top = top_order_part(op)
    if top.opaque:
        raise ValueError("opaque summand reaches the top grading; model unknown")
    return GradedDiffOp(op.n, top.terms, kind="exterior")


def _cw(i, j, kind_pair):
    """Two-generator word c/ch(e_i) c/ch(e_j), as a Clifford word dict."""
    masks = {"c": lambda x: (1 << (x - 1), 0), "ch": lambda x: (0, 1 << (x - 1))}
    return _product({masks[kind_pair[0]](i): 1}, {masks[kind_pair[1]](j): 1},
                    -1, +1)


def _curvature_quartic(R: CurvatureTensor) -> CliffordElement:
    """-(1/8) sum_ijkl R_ijkl c_i c_j ch_k ch_l, for both operator assemblies."""
    terms = {}
    for i, j, k, l in itertools.product(range(1, R.n + 1), repeat=4):
        v = R.get(i, j, k, l)
        if v:
            w = _product(_cw(i, j, ("c", "c")), _cw(k, l, ("ch", "ch")), -1, +1)
            for key, s in w.items():
                terms[key] = terms.get(key, 0) + Fraction(-v, 8) * s
    return CliffordElement(R.n, terms)


def weitzenbock(R: CurvatureTensor) -> GradedDiffOp:
    """Square of the de Rham-Dirac operator on forms, flat-frame terms.

    -sum d_j^2 + r/4 - (1/8) sum R_ijkl c_i c_j ch_k ch_l, plus an
    opaque order-1 summand for the connection terms of the rough
    Laplacian (absent in the flat case R = 0).
    """
    n = R.n
    z = (0,) * n
    terms = {}
    for j in range(n):
        d = tuple(2 if i == j else 0 for i in range(n))
        terms[(z, 0, 0, d, 0)] = -1
    r = R.scalar_curvature()
    if r:
        terms[(z, 0, 0, z, 0)] = Fraction(r, 4)
    for (cm, hm), c in _curvature_quartic(R).terms.items():
        key = (z, cm, hm, z, 0)
        terms[key] = _coef_add(terms.get(key, 0), c)
    opaque = {}
    if R.components:
        opaque[(("connection",), Fraction(1))] = 1
    return GradedDiffOp(n, terms, opaque)


# -- composition ---------------------------------------------------------

def _leibniz(d, x):
    """Normal order of d^d x^x for exponent tuples d and x.

    d^d x^x = sum over alpha <= min(d, x) of coef x^(x - alpha) d^(d - alpha).
    Yields (coef, x - alpha, d - alpha, |alpha|) with coef = prod_j
    C(d_j, alpha_j) x_j!/(x_j - alpha_j)!.  With xi^d in place of d^d and
    the 1/alpha! of the symbol calculus folded into C(d_j, alpha_j), the
    same rule is the Volterra composition of two monomials.
    """
    ranges = [range(min(a, b) + 1) for a, b in zip(d, x)]
    for alpha in itertools.product(*ranges):
        coef = 1
        for a, b, k in zip(d, x, alpha):
            coef *= comb(a, k) * factorial(b) // factorial(b - k)
        yield (coef, tuple(b - k for b, k in zip(x, alpha)),
               tuple(a - k for a, k in zip(d, alpha)), sum(alpha))


# generator squares (q_c, q_h) of the word algebra of each operator kind
_SQUARES = {"clifford": (-1, +1), "exterior": (0, 0)}


def compose(p: GradedDiffOp, q: GradedDiffOp) -> GradedDiffOp:
    """Operator product; derivatives of p act on the x-factors of q.

    Opaque summands compose by concatenating names and adding grading
    bounds (the bound of a concrete factor being its term order).
    """
    p._check(q)
    n = p.n
    q_c, q_h = _SQUARES[p.kind]
    terms = {}
    opaque = {}

    def add_term(key, c):
        if key in terms:
            terms[key] = _coef_add(terms[key], c)
        else:
            terms[key] = c

    def add_opaque(key, c):
        if key in opaque:
            opaque[key] = _coef_add(opaque[key], c)
        else:
            opaque[key] = c

    for (x1, c1, h1, d1, t1), a in p.terms.items():
        for (x2, c2, h2, d2, t2), b in q.terms.items():
            words = _product({(c1, h1): 1}, {(c2, h2): 1}, q_c, q_h)
            if not words:
                continue
            coef = _coef_mul(a, b)
            for lc, xmid, dmid, _ in _leibniz(d1, x2):
                xexp = tuple(e1 + e2 for e1, e2 in zip(x1, xmid))
                dexp = tuple(e1 + e2 for e1, e2 in zip(dmid, d2))
                for (cm, hm), s in words.items():
                    add_term((xexp, cm, hm, dexp, t1 + t2),
                             _coef_mul(lc * s, coef))
    for (names1, o1), a in p.opaque.items():
        for (names2, o2), b in q.opaque.items():
            add_opaque((names1 + names2, o1 + o2), _coef_mul(a, b))
        for k2, b in q.terms.items():
            add_opaque((names1 + ("term",), o1 + _term_order(k2)),
                       _coef_mul(a, b))
    for k1, a in p.terms.items():
        for (names2, o2), b in q.opaque.items():
            add_opaque((("term",) + names2, _term_order(k1) + o2),
                       _coef_mul(a, b))
    return GradedDiffOp(n, terms, opaque, p.kind)


def commutator_order_bound(k: int, lambdas) -> Fraction:
    """Grading bound of C L^{[l1]} ... L^[lk]] with O(C)=O(L)=1, O(H)=2.

    Each bracket with H raises the bound by 2; the product of k+1
    order-ish factors gives k + 1 + 2 sum(lambdas).  Computed through
    opaque composition rather than asserted.
    """
    lambdas = list(lambdas)
    if len(lambdas) != k:
        raise ValueError("need one bracket count per factor")
    n = 1
    acc = GradedDiffOp.opaque_term(n, "C", 1)
    for i, lam in enumerate(lambdas):
        factor = GradedDiffOp.opaque_term(n, f"L{i+1}", 1 + 2 * lam)
        acc = compose(acc, factor)
    return getzler_order(acc)


# -- Lichnerowicz-type assembly ------------------------------------------

@dataclass(frozen=True)
class LichnerowiczSplit:
    """Assembled operator pieces and the certified structural identities."""

    E: GradedDiffOp
    triangle_F: GradedDiffOp
    D0_squared: GradedDiffOp
    L_omega: GradedDiffOp
    D2_odd: GradedDiffOp
    D2_even: GradedDiffOp
    L_omega_sigma: "SigmaExtendedOp"
    identities: dict


def _clifford_to_op(n: int, words: dict, coef) -> GradedDiffOp:
    z = (0,) * n
    terms = {}
    for (cm, hm), s in words.items():
        key = (z, cm, hm, z, 0)
        c = _coef_mul(s, coef)
        terms[key] = _coef_add(terms[key], c) if key in terms else c
    return GradedDiffOp(n, terms)


def lichnerowicz_split(R: CurvatureTensor, data: BundleVariationData) -> LichnerowiczSplit:
    """Assemble the twisted-Laplacian pieces and certify their identities.

    All endomorphism data is taken pointwise from ``data``: omega[j-1]
    is the matrix of the connection 1-form in direction e_j and
    nabla_omega[(i,j)] its covariant derivative sample.  The rough
    Laplacian is carried opaquely, so the identities below are exact
    cancellations of the concrete terms:

      triangle_F = -laplacian + E
      triangle_F = D0_squared + L_omega
      (D2_even, D2_odd) = D0_squared + L_omega_sigma   (sigma-pair sense)
    """
    n = R.n
    if n != data.n:
        raise ValueError("dimension mismatch between curvature and bundle data")
    if len(data.omega) != n:
        raise ValueError("need one omega matrix per frame direction")
    omega = [mat(m) for m in data.omega]
    r_fib = len(omega[0])
    if any(len(m) != r_fib for m in omega):
        raise ValueError("omega matrices must share one fiber dimension")
    nabla = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if (i, j) not in data.nabla_omega:
                raise ValueError(f"missing nabla_omega sample at {(i, j)}")
            m = mat(data.nabla_omega[(i, j)])
            if len(m) != r_fib:
                raise ValueError("nabla_omega fiber dimension mismatch")
            nabla[(i, j)] = m

    def w2(i, j):
        return _coef_add(_coef_mul(omega[i - 1], omega[j - 1]),
                         _coef_neg(_coef_mul(omega[j - 1], omega[i - 1])))

    lap = GradedDiffOp.opaque_term(n, "rough_laplacian", 2,
                                   coef=_mat_scalar(-1, r_fib))
    zero = GradedDiffOp.zero(n)

    z = (0,) * n
    curv_quartic = GradedDiffOp(n, {
        (z, cm, hm, z, 0): _mat_scalar(c, r_fib)
        for (cm, hm), c in _curvature_quartic(R).terms.items()})

    cc_w2 = zero
    hh_w2 = zero
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            wij = w2(i, j)
            if not _coef_is_zero(wij):
                cc_w2 = cc_w2 + _clifford_to_op(
                    n, _cw(i, j, ("c", "c")), _coef_mul(Fraction(-1, 8), wij))
                hh_w2 = hh_w2 + _clifford_to_op(
                    n, _cw(i, j, ("ch", "ch")), _coef_mul(Fraction(1, 8), wij))

    mixed = zero
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            bracket = _coef_add(nabla[(i, j)], _coef_mul(Fraction(1, 2), w2(i, j)))
            if not _coef_is_zero(bracket):
                mixed = mixed + _clifford_to_op(
                    n, _cw(i, j, ("c", "ch")), _coef_mul(Fraction(-1, 2), bracket))

    omega_sq = _mat_scalar(0, r_fib)
    for j in range(1, n + 1):
        omega_sq = _coef_add(omega_sq, _coef_mul(omega[j - 1], omega[j - 1]))
    omega_sq_op = GradedDiffOp.scalar(n, _coef_mul(Fraction(1, 4), omega_sq)) \
        if not _coef_is_zero(omega_sq) else zero

    r_term = GradedDiffOp.scalar(
        n, _mat_scalar(Fraction(R.scalar_curvature(), 4), r_fib)) \
        if R.scalar_curvature() else zero

    E = curv_quartic + cc_w2 + hh_w2 + mixed + omega_sq_op + r_term
    triangle_F = lap + E
    D0_squared = lap + curv_quartic + cc_w2 + r_term
    L_omega = hh_w2 + mixed + omega_sq_op
    D2_odd = mixed
    D2_even = triangle_F - D2_odd
    L_omega_sigma = SigmaExtendedOp(hh_w2 + omega_sq_op, mixed)

    identities = {
        "triangle_is_laplacian_plus_E": triangle_F == lap + E,
        "triangle_is_D0sq_plus_L": triangle_F == D0_squared + L_omega,
        "sigma_split": SigmaExtendedOp(D2_even, D2_odd)
                       == SigmaExtendedOp(D0_squared + L_omega_sigma.even,
                                          L_omega_sigma.odd),
    }
    return LichnerowiczSplit(E, triangle_F, D0_squared, L_omega,
                             D2_odd, D2_even, L_omega_sigma, identities)


# -- sigma-extended pairs -------------------------------------------------

@dataclass(frozen=True)
class SigmaExtendedOp:
    """Formal pair (A, B) standing for A + sigma B with sigma^2 = 1.

    Works over any value type supporting +, * and ==, so it serves both
    the operator assembly here and matrix surrogates elsewhere.
    """

    even: object
    odd: object

    def __add__(self, other: "SigmaExtendedOp") -> "SigmaExtendedOp":
        return SigmaExtendedOp(self.even + other.even, self.odd + other.odd)

    def __mul__(self, other: "SigmaExtendedOp") -> "SigmaExtendedOp":
        return SigmaExtendedOp(self.even * other.even + self.odd * other.odd,
                               self.even * other.odd + self.odd * other.even)


# -- truncated parabolic symbol composition ------------------------------

class VolterraSymbol:
    """Polynomial symbol in (x, xi, tau) with degrees deg xi = 1, deg tau = 2.

    Term keys are (x-exponents, xi-exponents, tau power); coefficients
    are Gaussian rationals so the D_x = -i d/dx convention stays exact.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for (xexp, xiexp, taupow), c in (terms or {}).items():
            xexp, xiexp = tuple(xexp), tuple(xiexp)
            if len(xexp) != n or len(xiexp) != n:
                raise ValueError("exponent tuples must have length n")
            if any(e < 0 for e in xexp + xiexp) or taupow < 0:
                raise ValueError("exponents must be non-negative")
            if not isinstance(c, CFrac):
                c = CFrac(c)
            if c:
                clean[(xexp, xiexp, taupow)] = c
        self.terms = clean

    @classmethod
    def zero(cls, n: int) -> "VolterraSymbol":
        return cls(n)

    @classmethod
    def monomial(cls, n: int, xexp, xiexp, taupow=0, coef=1) -> "VolterraSymbol":
        return cls(n, {(tuple(xexp), tuple(xiexp), taupow): CFrac(coef)
                       if not isinstance(coef, CFrac) else coef})

    @classmethod
    def xi(cls, n: int, j: int) -> "VolterraSymbol":
        e = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls.monomial(n, (0,) * n, e)

    @classmethod
    def x(cls, n: int, j: int) -> "VolterraSymbol":
        e = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls.monomial(n, e, (0,) * n)

    @classmethod
    def tau(cls, n: int) -> "VolterraSymbol":
        return cls.monomial(n, (0,) * n, (0,) * n, 1)

    def __add__(self, other: "VolterraSymbol") -> "VolterraSymbol":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, CFrac(0)) + c
        return VolterraSymbol(self.n, terms)

    def __neg__(self) -> "VolterraSymbol":
        return VolterraSymbol(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "VolterraSymbol":
        return VolterraSymbol(self.n, {k: factor * c for k, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, VolterraSymbol):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def parabolic_order(self) -> Fraction | None:
        """Max of |xi-degree| + 2 tau-power over terms; None if zero."""
        if not self.terms:
            return None
        return max(sum(xi) + 2 * tp for (_, xi, tp) in self.terms)

    def x_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(x) for (x, _, _) in self.terms)

    def dilate(self, lam) -> "VolterraSymbol":
        """Parabolic rescaling x -> x/lam, xi -> lam xi, tau -> lam^2 tau.

        Composition commutes with this rescaling; on symbols that are
        parabolically homogeneous of degree m (counting x as degree -1)
        it multiplies by lam^m.
        """
        lam = Fraction(lam)
        return VolterraSymbol(self.n, {
            k: (lam ** (sum(k[1]) + 2 * k[2] - sum(k[0]))) * c
            for k, c in self.terms.items()})

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (x, xi, tp) in sorted(self.terms):
            c = self.terms[(x, xi, tp)]
            factors = []
            for i, e in enumerate(x):
                if e:
                    factors.append(f"x{i+1}" + (f"^{e}" if e > 1 else ""))
            for i, e in enumerate(xi):
                if e:
                    factors.append(f"xi{i+1}" + (f"^{e}" if e > 1 else ""))
            if tp:
                factors.append("tau" + (f"^{tp}" if tp > 1 else ""))
            word = " ".join(factors) if factors else "1"
            parts.append(f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i) * {word}")
        return " + ".join(parts)

    def __repr__(self):
        return f"VolterraSymbol(n={self.n}, {self.to_text()})"


# (-i)^k for k mod 4: the phase of D_x^alpha = (-i)^|alpha| d_x^alpha
_PHASE = (CFrac(1), CFrac(0, -1), CFrac(-1), CFrac(0, 1))


def volterra_compose(q1: VolterraSymbol, q2: VolterraSymbol,
                     N: int | None = None) -> VolterraSymbol:
    """Truncated composition sum over multi-indices alpha with |alpha| <= N.

    q1 o q2 = sum_alpha (1/alpha!) d_xi^alpha q1 * D_x^alpha q2 with
    D_x = -i d/dx.  For polynomial symbols the sum terminates once
    |alpha| exceeds min(xi-degree of q1, x-degree of q2); passing a
    smaller N truncates below the exactness threshold and warns.
    """
    if q1.n != q2.n:
        raise ValueError("dimension mismatch")
    threshold = min(
        max((sum(xi) for (_, xi, _) in q1.terms), default=0),
        q2.x_degree())
    if N is None:
        N = threshold
    if N < threshold:
        warnings.warn("composition truncated below the polynomial exactness "
                      "threshold; result is approximate", RuntimeWarning)
    terms = {}
    for (x1, xi1, t1), c1 in q1.terms.items():
        for (x2, xi2, t2), c2 in q2.terms.items():
            c12 = c1 * c2
            for coef, xrest, xirest, k in _leibniz(xi1, x2):
                if k > N:
                    continue
                key = (tuple(a + b for a, b in zip(x1, xrest)),
                       tuple(a + b for a, b in zip(xirest, xi2)), t1 + t2)
                c = c12 * _PHASE[k % 4] * coef
                terms[key] = terms[key] + c if key in terms else c
    return VolterraSymbol(q1.n, terms)
