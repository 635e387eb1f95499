"""Rescaling-order bookkeeping and operator assembly.

A :class:`GradedDiffOp` is a finite sum of terms

    coefficient * x^beta * (Clifford word) * d_x^alpha * d_t^p

with the grading that assigns 1 to each spatial derivative, 2 to d_t,
1/2 to each Clifford generator and -1 to each coordinate factor.  The
top-graded part of the de Rham square is a flat Laplacian plus a
curvature 4-form potential; that extraction drives the index density.
Its result, the model operator, is an :class:`ExteriorDiffOp`: the same
terms with exterior words in place of Clifford words.

Connection terms, and the rough Laplacian of a twisted bundle, are not
expanded from a metric: they are carried as opaque named summands with a
declared grading bound, since only the top-order part is ever consumed.
An opaque summand is an ordinary term of the shared sparse element,
keyed (name-tuple, order-bound).  Endomorphism-valued (End(F))
coefficients are ``scalars.Mat``s; an operator's coefficients are all
scalars or all Mats of one size, since a Mat adds only to a Mat.  The
Lichnerowicz split reads its End(F) data as Mats validated by
``BundleVariationData``, writes its generator products in closed form,
keeps each summand as a term dict and builds each piece by one
constructor call over the dicts it sums.

Symbol composition for the parabolic calculus uses the
Fourier convention D_x = -i d/dx (fixed once here; the composition
example x^j o xi_j depends on it) with Gaussian-rational coefficients.

Both products rest on one multi-index Leibniz rule, ``_leibniz``: d^a
moved past x^b in ``compose``, and xi^a composed with x^b (weighted by
(-i)^|alpha|) in ``volterra_compose``.  Its table is memoized per pair
of exponent tuples; the entries are bounded by the degrees of the
symbols and operators composed: about 120 pairs in one ``suite all`` run,
145 over 19 seeds.  ``volterra_compose`` also takes each exponent sum of
its output keys from one memo per pair of summands, ``_exponent_sum``
(about 290 pairs in one run, 369 over 19 seeds).  Like every result
computed from checked elements, each product is built without a second
run of ``_clean`` (see ``multivector._SparseElement``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import add

from .clifford import CliffordElement
from .equivariant import BundleVariationData, CurvatureTensor
from .multivector import _SparseElement, _mask_indices, _popcount, _product
from .scalars import BackendMismatch, CFrac, Mat, _is_exact

__all__ = [
    "GradedDiffOp", "ExteriorDiffOp", "VolterraSymbol",
    "getzler_order", "model_operator", "top_order_part",
    "weitzenbock", "compose", "lichnerowicz_split", "LichnerowiczSplit",
    "volterra_compose",
]


# -- graded differential operators ---------------------------------------

def _is_opaque(key) -> bool:
    """Opaque summands are keyed (name-tuple, order-bound)."""
    return len(key) == 2


def _term_order(key) -> Fraction:
    if _is_opaque(key):
        return key[1]
    xexp, cmask, hmask, dexp, tpow = key
    return (sum(dexp) + 2 * tpow - sum(xexp)
            + Fraction(_popcount(cmask) + _popcount(hmask), 2))


def _powers(name: str, exps) -> list:
    """Factors ``name1^2 name3`` of an exponent tuple."""
    return [f"{name}{i+1}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(exps) if e]


class GradedDiffOp(_SparseElement):
    """Sparse canonical sum of graded differential-operator terms.

    Concrete term keys are (x-exponents, c-mask, chat-mask, d-exponents,
    d_t power), the masks indexing Clifford words.  A summand tracked
    only through its grading bound is opaque, keyed (name-tuple,
    order-bound).  Coefficients are scalars or :class:`Mat`
    endomorphisms.
    """

    __slots__ = ()

    # generator squares (q_c, q_h) of the word algebra, and its letters
    _squares = (-1, +1)
    _letters = ("c", "ch")

    @staticmethod
    def _clean(n: int, key, c):
        if type(c) is tuple:
            c = Mat(c)
        if _is_opaque(key):
            names, order = key
            return (tuple(names), Fraction(order)), c
        xexp, cmask, hmask, dexp, tpow = key
        xexp, dexp = tuple(xexp), tuple(dexp)
        if len(xexp) != n or len(dexp) != n:
            raise ValueError("exponent tuples must have length n")
        if (n and min(xexp + dexp) < 0) or tpow < 0:
            raise ValueError("exponents must be non-negative")
        if cmask >> n or hmask >> n:
            raise ValueError("word mask out of range")
        return (xexp, cmask, hmask, dexp, tpow), c

    # -- constructors --------------------------------------------------

    @classmethod
    def d_x(cls, n: int, j: int) -> "GradedDiffOp":
        z = (0,) * n
        d = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, {(z, 0, 0, d, 0): 1})

    @classmethod
    def d_t(cls, n: int) -> "GradedDiffOp":
        z = (0,) * n
        return cls(n, {(z, 0, 0, z, 1): 1})

    @classmethod
    def x_coord(cls, n: int, j: int) -> "GradedDiffOp":
        z = (0,) * n
        x = tuple(1 if i == j - 1 else 0 for i in range(n))
        return cls(n, {(x, 0, 0, z, 0): 1})

    @classmethod
    def word(cls, n: int, cmask: int, hmask: int, coef=1) -> "GradedDiffOp":
        z = (0,) * n
        return cls(n, {(z, cmask, hmask, z, 0): coef})

    @classmethod
    def opaque_term(cls, n: int, name: str, order, coef=1) -> "GradedDiffOp":
        return cls(n, {((name,), order): coef})

    # -- structure -------------------------------------------------------

    def __mul__(self, other: "GradedDiffOp") -> "GradedDiffOp":
        return compose(self, other)

    # -- serialization --------------------------------------------------

    @staticmethod
    def _sort_key(key):
        """Concrete terms print before opaque summands."""
        return _is_opaque(key), key

    def _word(self, *key) -> str:
        """``x1 c1 ch2 d2 dt`` (``1`` if empty), or ``[names | order<=b]``."""
        if _is_opaque(key):
            names, order = key
            return f"[{' '.join(names)} | order<={order}]"
        xexp, cmask, hmask, dexp, tpow = key
        c, h = self._letters
        factors = _powers("x", xexp)
        factors += [f"{c}{i}" for i in _mask_indices(cmask)]
        factors += [f"{h}{i}" for i in _mask_indices(hmask)]
        factors += _powers("d", dexp)
        if tpow:
            factors.append("dt" + (f"^{tpow}" if tpow > 1 else ""))
        return " ".join(factors) if factors else "1"


class ExteriorDiffOp(GradedDiffOp):
    """A :class:`GradedDiffOp` whose two masks index exterior words e, ehat:
    every generator squares to zero."""

    __slots__ = ()

    _squares = (0, 0)
    _letters = ("e", "eh")


def getzler_order(op: GradedDiffOp) -> Fraction | None:
    """Maximal grading over the terms of op; None for the zero operator."""
    return max(map(_term_order, op.terms), default=None)


def top_order_part(op: GradedDiffOp) -> GradedDiffOp:
    """The terms of op at its maximal grading, in the same word algebra."""
    top = getzler_order(op)
    return op._like({k: c for k, c in op.terms.items() if _term_order(k) == top})


def model_operator(op: GradedDiffOp) -> ExteriorDiffOp:
    """Top-graded part with Clifford words re-read as exterior words.

    Opaque summands whose bound reaches the top order cannot be
    extracted and raise.
    """
    top = top_order_part(op)
    if any(map(_is_opaque, top.terms)):
        raise ValueError("opaque summand reaches the top grading; model unknown")
    return ExteriorDiffOp._built(op.n, top.terms)


def _curvature_quartic(R: CurvatureTensor) -> CliffordElement:
    """-(1/8) sum_ijkl R_ijkl c_i c_j ch_k ch_l, for both operator assemblies.

    R and both generator products are antisymmetric in (i, j) and in
    (k, l), so the sum is -(1/2) sum over i < j, k < l, where c_i c_j
    ch_k ch_l is the word (c-mask {i, j}, ch-mask {k, l}) with sign +1.
    """
    pairs = [(i, j, (1 << (i - 1)) | (1 << (j - 1)))
             for i, j in itertools.combinations(range(1, R.n + 1), 2)]
    terms = {}
    for i, j, cmask in pairs:
        for k, l, hmask in pairs:
            v = R.get(i, j, k, l)
            if v:
                terms[cmask, hmask] = Fraction(-v, 2)
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
        terms[key] = terms.get(key, 0) + c
    if R.components:
        terms[(("connection",), 1)] = 1
    return GradedDiffOp(n, terms)


# -- composition ---------------------------------------------------------

@functools.cache
def _leibniz(d, x):
    """Normal order of d^d x^x for exponent tuples d and x.

    d^d x^x = sum over alpha <= min(d, x) of coef x^(x - alpha) d^(d - alpha).
    Returns the tuple of (coef, x - alpha, d - alpha, |alpha|), with coef =
    prod_j C(d_j, alpha_j) x_j!/(x_j - alpha_j)!, alpha in lexicographic
    order.  With xi^d in place of d^d and the 1/alpha! of the symbol
    calculus folded into C(d_j, alpha_j), the same rule is the Volterra
    composition of two monomials.
    """
    table = []
    for alpha in itertools.product(*(range(min(a, b) + 1)
                                     for a, b in zip(d, x))):
        coef = 1
        for a, b, k in zip(d, x, alpha):
            coef *= comb(a, k) * factorial(b) // factorial(b - k)
        table.append((coef, tuple(b - k for b, k in zip(x, alpha)),
                      tuple(a - k for a, k in zip(d, alpha)), sum(alpha)))
    return tuple(table)


@functools.cache
def _exponent_sum(a, b):
    """Entrywise sum of exponent tuples a and b, one shared tuple per pair."""
    return tuple(map(add, a, b))


def _bound(key):
    """(names, order bound) of a term; a concrete one is named "term"."""
    return key if _is_opaque(key) else (("term",), _term_order(key))


def compose(p: GradedDiffOp, q: GradedDiffOp) -> GradedDiffOp:
    """Operator product; derivatives of p act on the x-factors of q.

    Opaque summands compose by concatenating names and adding grading
    bounds (the bound of a concrete factor being its term order).
    """
    p._check(q)
    q_c, q_h = p._squares
    terms = {}

    def put(key, c):
        terms[key] = terms[key] + c if key in terms else c

    for k1, a in p.terms.items():
        for k2, b in q.terms.items():
            if _is_opaque(k1) or _is_opaque(k2):
                (names1, o1), (names2, o2) = _bound(k1), _bound(k2)
                put((names1 + names2, o1 + o2), a * b)
                continue
            x1, c1, h1, d1, t1 = k1
            x2, c2, h2, d2, t2 = k2
            words = _product({(c1, h1): 1}, {(c2, h2): 1}, q_c, q_h)
            if not words:
                continue
            coef = a * b
            for lc, xmid, dmid, _ in _leibniz(d1, x2):
                xexp = tuple(map(add, x1, xmid))
                dexp = tuple(map(add, dmid, d2))
                for (cm, hm), s in words.items():
                    put((xexp, cm, hm, dexp, t1 + t2), lc * s * coef)
    return p._like(terms)


# -- Lichnerowicz-type assembly ------------------------------------------

@dataclass(frozen=True)
class LichnerowiczSplit:
    """Assembled operator pieces and the certified structural identities."""

    E: GradedDiffOp
    triangle_F: GradedDiffOp
    D0_squared: GradedDiffOp
    L_omega: GradedDiffOp
    identities: dict


def _merged(n: int, *summands) -> GradedDiffOp:
    """The operator sum of term dicts, added in the order given.

    One constructor call checks each term once; a ``+`` per summand would
    walk both operands' coefficients again, in ``_check``'s ``backend_of``.
    """
    terms = {}
    for summand in summands:
        for key, c in summand.items():
            terms[key] = terms[key] + c if key in terms else c
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
      triangle_F - mixed = D0_squared + hh + omega^2/4   (the sigma-even parts)

    where mixed, the c ch terms of L_omega, is its sigma-odd part.

    For i < j, c_i c_j and ch_i ch_j are the words {i, j} with sign +1, and
    c_i ch_j is the word ({i}, {j}) with sign +1.  As w2[i, j] =
    [omega(e_i), omega(e_j)] is antisymmetric, cc = -(1/4) and hh = +(1/4)
    sum_{i<j} w2[i, j] times the word {i, j}.
    """
    n = R.n
    if n != data.n:
        raise ValueError("dimension mismatch between curvature and bundle data")
    omega, nabla = data.omega, data.nabla_omega
    if len(omega) != n:
        raise ValueError("need one omega matrix per frame direction")
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    for p in pairs:
        if p not in nabla:
            raise ValueError(f"missing nabla_omega sample at {p}")
    r_fib = len(omega[0])
    # the commutators [omega(e_i), omega(e_j)], i < j
    w2 = {(i, j): omega[i - 1] * omega[j - 1] + -(omega[j - 1] * omega[i - 1])
          for i, j in itertools.combinations(range(1, n + 1), 2)}

    lap = GradedDiffOp.opaque_term(n, "rough_laplacian", 2,
                                   coef=Mat.scalar(-1, r_fib))
    z = (0,) * n
    one = (z, 0, 0, z, 0)
    curv_quartic = {(z, cm, hm, z, 0): Mat.scalar(c, r_fib)
                    for (cm, hm), c in _curvature_quartic(R).terms.items()}
    # brackets[i, j] = nabla_omega[i, j] + w2[i, j] / 2, w2 antisymmetric
    cc_w2, hh_w2, brackets = {}, {}, {p: nabla[p] for p in pairs}
    for (i, j), w in w2.items():
        if w:
            ij = (1 << (i - 1)) | (1 << (j - 1))
            cc_w2[z, ij, 0, z, 0] = Fraction(-1, 4) * w
            hh_w2[z, 0, ij, z, 0] = Fraction(1, 4) * w
            brackets[i, j] += Fraction(1, 2) * w
            brackets[j, i] += Fraction(-1, 2) * w
    mixed = {(z, 1 << (i - 1), 1 << (j - 1), z, 0): Fraction(-1, 2) * b
             for (i, j), b in brackets.items() if b}
    # omega^2/4 and r/4 share the constant term: a zero one is no term, so
    # the other keeps its own entries
    w_sq = Fraction(1, 4) * sum((w * w for w in omega), Mat.scalar(0, r_fib))
    omega_sq = {one: w_sq} if w_sq else {}
    r = R.scalar_curvature()
    r_term = {one: Mat.scalar(Fraction(r, 4), r_fib)} if r else {}

    E = _merged(n, curv_quartic, cc_w2, hh_w2, mixed, omega_sq, r_term)
    triangle_F = _merged(n, lap.terms, curv_quartic, cc_w2, hh_w2, mixed,
                         omega_sq, r_term)
    D0_squared = _merged(n, lap.terms, curv_quartic, cc_w2, r_term)
    L_omega = _merged(n, hh_w2, mixed, omega_sq)

    identities = {
        "triangle_is_laplacian_plus_E": triangle_F == lap + E,
        "triangle_is_D0sq_plus_L": triangle_F == D0_squared + L_omega,
        "sigma_split": triangle_F - _merged(n, mixed)
                       == D0_squared + _merged(n, hh_w2, omega_sq),
    }
    return LichnerowiczSplit(E, triangle_F, D0_squared, L_omega, identities)


# -- parabolic symbol composition ----------------------------------------

class VolterraSymbol(_SparseElement):
    """Polynomial symbol in (x, xi, tau) with degrees deg xi = 1, deg tau = 2.

    Term keys are (x-exponents, xi-exponents, tau power); coefficients
    are Gaussian rationals so the D_x = -i d/dx convention stays exact.
    """

    __slots__ = ()

    @staticmethod
    def _clean(n: int, key, c):
        xexp, xiexp, taupow = key
        xexp, xiexp = tuple(xexp), tuple(xiexp)
        if len(xexp) != n or len(xiexp) != n:
            raise ValueError("exponent tuples must have length n")
        if (n and min(xexp + xiexp) < 0) or taupow < 0:
            raise ValueError("exponents must be non-negative")
        return (xexp, xiexp, taupow), c if isinstance(c, CFrac) else CFrac(c)

    @staticmethod
    def _word(x, xi, tp) -> str:
        """``x1^2 xi2 tau`` separated by spaces, or ``1`` for the empty word."""
        factors = _powers("x", x) + _powers("xi", xi)
        if tp:
            factors.append("tau" + (f"^{tp}" if tp > 1 else ""))
        return " ".join(factors) if factors else "1"

    @classmethod
    def monomial(cls, n: int, xexp, xiexp, taupow=0, coef=1) -> "VolterraSymbol":
        return cls(n, {(xexp, xiexp, taupow): coef})

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

    def parabolic_order(self) -> Fraction | None:
        """Max of |xi-degree| + 2 tau-power over terms; None if zero."""
        if not self.terms:
            return None
        return max(sum(xi) + 2 * tp for (_, xi, tp) in self.terms)

    def dilate(self, lam) -> "VolterraSymbol":
        """Parabolic rescaling x -> x/lam, xi -> lam xi, tau -> lam^2 tau.

        Composition commutes with this rescaling; on symbols that are
        parabolically homogeneous of degree m (counting x as degree -1)
        it multiplies by lam^m.  A lam that is not an int or a Fraction
        (a float, say) raises :class:`BackendMismatch`.
        """
        if not _is_exact(lam):
            raise BackendMismatch(f"dilation {lam!r} is not an int or a Fraction")
        lam = Fraction(lam)
        return self._like({
            k: (lam ** (sum(k[1]) + 2 * k[2] - sum(k[0]))) * c
            for k, c in self.terms.items()})


def volterra_compose(q1: VolterraSymbol, q2: VolterraSymbol) -> VolterraSymbol:
    """Composition q1 o q2 = sum_alpha (1/alpha!) d_xi^alpha q1 * D_x^alpha q2.

    D_x = -i d/dx.  For polynomial symbols the sum is finite: for each
    pair of terms, ``_leibniz`` lists every alpha up to the xi-exponents
    of the first and the x-exponents of the second, past which each
    summand vanishes.  The sum runs on exact (re, im) parts, each key's
    exponent tuples come from ``_exponent_sum``, and each CFrac is built
    once.
    """
    for q in (q1, q2):
        VolterraSymbol._require(q, "volterra_compose")
    if q1.n != q2.n:
        raise ValueError(f"dimension mismatch: {q1.n} != {q2.n}")
    parts2 = [(key, c.re, c.im) for key, c in q2.terms.items()]
    sums = {}
    get = sums.get
    for (x1, xi1, t1), c1 in q1.terms.items():
        re1, im1 = c1.re, c1.im
        for (x2, xi2, t2), re2, im2 in parts2:
            re, im = re1 * re2 - im1 * im2, re1 * im2 + im1 * re2
            # c1*c2*(-i)^k for k mod 4
            turns = ((re, im), (im, -re), (-re, -im), (-im, re))
            t = t1 + t2
            for coef, xrest, xirest, k in _leibniz(xi1, x2):
                key = (_exponent_sum(x1, xrest), _exponent_sum(xirest, xi2), t)
                r, i = turns[k & 3]
                acc = get(key)
                if acc is None:
                    sums[key] = [coef * r, coef * i]
                else:
                    acc[0] += coef * r
                    acc[1] += coef * i
    return VolterraSymbol._built(q1.n, {key: CFrac(re, im)
                                        for key, (re, im) in sums.items()})
