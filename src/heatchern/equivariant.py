"""Fixed-point data, the Mehler model kernel, and the local index density.

Conventions fixed here once:

* Indices 1..a are tangent to the fixed-point set, a+1..n normal; the
  normal rotation acts blockwise by angle theta_j on (e_{2j-1}, e_{2j}).
* The curvature bivector is Rdot = sum_{i<j,k<l} R_{ijkl} e^i^e^j (x)
  ehat^k^ehat^l, matching -(1/2)Rdot against the four-index Clifford
  curvature term of the Weitzenboeck formula.
* Quantities carrying a factor pi^{-a/2} (Euler form, transgression,
  index density) are returned in "pi units": the exact coefficient of
  pi^{-a/2}.  Multiply by pi**(-a/2) for the numeric value.
* The Mehler prefactor is (4 pi t)^{-n/2}; the printed positive exponent
  would violate both the model heat equation and the Gaussian
  normalization, and the residual test pins the negative choice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .clifford import CliffordElement, clifford_multiply, supertrace, symbol_map
from .multivector import (
    Multivector, _popcount, _product, _suffix_parity, berezin, exp_even,
    grade_component, wedge,
)
from .scalars import BackendMismatch

__all__ = [
    "IsometryNormalForm", "CurvatureTensor", "BundleVariationData",
    "phi_tilde", "exterior_pushforward",
    "lambda_pushforward_oracle", "equivariant_supertrace",
    "supertrace_decomposition", "curvature_bivector", "mehler_body",
    "mehler_kernel", "mehler_heat_residual", "fiber_integral",
    "fiber_integral_quadrature",
    "curvature_form_matrix", "pfaffian", "euler_form",
    "local_index_density", "transgression", "hodge_variation_operator",
    "theta_form",
]


@dataclass(frozen=True)
class IsometryNormalForm:
    """Block normal form of an orientation-preserving isometry germ."""

    n: int
    a: int
    angles: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(t) for t in self.angles))
        if self.n % 2 or self.a % 2 or self.a < 0:
            raise ValueError("n and a must be even and nonnegative")
        if self.a + 2 * len(self.angles) != self.n:
            raise ValueError("a + 2 * len(angles) must equal n")
        for t in self.angles:
            if math.isclose(math.sin(t / 2), 0.0, abs_tol=1e-15):
                raise ValueError(f"degenerate rotation angle {t}")

    @property
    def b(self) -> int:
        return self.n - self.a

    def normal_rotation(self) -> np.ndarray:
        """The b x b block rotation phi^N."""
        blocks = []
        for t in self.angles:
            c, s = math.cos(t), math.sin(t)
            blocks.append(np.array([[c, s], [-s, c]]))
        if not blocks:
            return np.zeros((0, 0))
        out = np.zeros((self.b, self.b))
        for j, blk in enumerate(blocks):
            out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = blk
        return out

    def full_matrix(self) -> np.ndarray:
        out = np.eye(self.n)
        out[self.a:, self.a:] = self.normal_rotation()
        return out

    def det_one_minus_normal(self, trig=None):
        """det(1 - phi^N) = prod (2 - 2 cos theta_j); always positive.

        Each float factor is 4 sin^2(theta_j / 2), which keeps its digits
        at small angles.  Exact when exact (cos, sin) pairs are passed as
        ``trig``.
        """
        if trig is None:
            return math.prod((4 * math.sin(t / 2) ** 2 for t in self.angles),
                             start=1.0)
        out = 1
        for c, _ in _trig_pairs(self, trig):
            out *= 2 - 2 * c
        return out


class CurvatureTensor:
    """Components R_{ijkl} with the full algebraic symmetries.

    Stored on the canonical index set i<j, k<l, (i,j) <= (k,l); lookups
    resolve signs.  Input components that contradict the symmetries raise.
    """

    def __init__(self, n: int, components: dict):
        self.n = n
        canon: dict = {}
        for (i, j, k, l), v in components.items():
            for idx in (i, j, k, l):
                if not 1 <= idx <= n:
                    raise ValueError(f"index {idx} out of range")
            key, sign = self._canonical(i, j, k, l)
            if key is None:
                if v != 0:
                    raise ValueError(f"R[{i}{j}{k}{l}] must vanish by antisymmetry")
                continue
            sv = sign * v
            if key in canon and canon[key] != sv:
                raise ValueError(f"inconsistent components at {key}")
            canon[key] = sv
        self.components = {k: v for k, v in canon.items() if v != 0}

    @staticmethod
    def _canonical(i, j, k, l):
        sign = 1
        if i == j or k == l:
            return None, 0
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        if (i, j) > (k, l):
            i, j, k, l = k, l, i, j
        return (i, j, k, l), sign

    def get(self, i, j, k, l):
        key, sign = self._canonical(i, j, k, l)
        if key is None:
            return 0
        return sign * self.components.get(key, 0)

    def scalar_curvature(self):
        return sum(self.get(i, j, i, j) for i in range(1, self.n + 1)
                   for j in range(1, self.n + 1))

    def tangent_block(self, a: int) -> "CurvatureTensor":
        comp = {k: v for k, v in self.components.items() if max(k) <= a}
        return CurvatureTensor(a, comp)


@dataclass
class BundleVariationData:
    """Pointwise samples of the bundle/metric variation data.

    omega[j-1] is the End(F) matrix omega(F,h^F)(e_j); nabla_omega[(i,j)]
    the derivative of omega(e_j) in direction e_i; gdot the symmetric
    matrix (g^TM)^{-1} gdot^TM.
    """

    n: int
    omega: list = field(default_factory=list)
    nabla_omega: dict = field(default_factory=dict)
    phiF: np.ndarray | None = None
    gdot: np.ndarray | None = None

    def __post_init__(self):
        if self.gdot is not None:
            g = np.asarray(self.gdot, dtype=object)
            if g.shape != (self.n, self.n) or not (g == g.T).all():
                raise ValueError("gdot must be a symmetric n x n matrix")
            self.gdot = g


# -- phi-tilde and the equivariant supertrace --------------------------


def _trig_pairs(iso: IsometryNormalForm, trig=None):
    """(cos, sin) per rotation block; exact pairs may be supplied for
    rational-backend cross-checks (e.g. Pythagorean angles)."""
    if trig is not None:
        if len(trig) != len(iso.angles):
            raise ValueError("trig override length mismatch")
        return list(trig)
    return [(math.cos(t), math.sin(t)) for t in iso.angles]


def phi_tilde(iso: IsometryNormalForm, trig=None) -> CliffordElement:
    """Clifford expansion of the lifted isometry (product over rotation blocks)."""
    n = iso.n
    out = CliffordElement.one(n)
    for jblk, (c, s) in enumerate(_trig_pairs(iso, trig)):
        p = iso.a + 2 * jblk + 1   # block indices (p, p+1)
        cp, cq = 1 << (p - 1), 1 << p
        half = Fraction(1, 2) if isinstance(c, (int, Fraction)) else 0.5
        factor = CliffordElement(n, {
            (0, 0): half * (1 + c),
            (cp | cq, cp | cq): -half * (1 - c),
            (cp | cq, 0): half * s,
            (0, cp | cq): -half * s,
        })
        out = clifford_multiply(out, factor)
    return out


def exterior_pushforward(mat: np.ndarray) -> np.ndarray:
    """Induced matrix on the full exterior algebra, basis indexed by subsets.

    Entry [S, T] is the minor det(mat[S, T]); the degree-1 block is mat
    itself.  This is the independent oracle for represent(phi_tilde).
    The minors of each degree k come from one stacked determinant call.
    """
    n = mat.shape[0]
    dim = 1 << n
    out = np.zeros((dim, dim))
    out[0, 0] = 1.0
    for k in range(1, n + 1):
        subsets = np.array(list(itertools.combinations(range(n), k)))
        masks = (1 << subsets).sum(axis=1)
        # blocks[r, c] is the k x k block on rows subsets[r], columns subsets[c]
        blocks = mat[subsets[:, None, :, None], subsets[None, :, None, :]]
        out[np.ix_(masks, masks)] = np.linalg.det(blocks)
    return out


def lambda_pushforward_oracle(iso: IsometryNormalForm) -> np.ndarray:
    """Matrix of the lifted isometry on the exterior algebra, by minors.

    The lift acts by pullback, i.e. by the exterior powers of the inverse
    block rotation; for the orthogonal normal form that inverse is the
    transpose.
    """
    return exterior_pushforward(iso.full_matrix().T)


def equivariant_supertrace(iso: IsometryNormalForm, A: CliffordElement,
                           method: str = "matrix", trig=None):
    """Str[phi_tilde * A], by matrix representation or by the bigraded
    decomposition (leading det-term plus lower-normal-grade corrections)."""
    if method == "matrix":
        return supertrace(clifford_multiply(phi_tilde(iso, trig), A))
    if method == "decomposition":
        lead, corr = supertrace_decomposition(iso, A, trig)
        return lead + corr
    raise ValueError(f"unknown method {method!r}")


def supertrace_decomposition(iso: IsometryNormalForm, A: CliffordElement,
                             trig=None):
    """(leading term, correction sum) of the bigraded supertrace formula.

    leading = (-1)^{n/2} 2^n (-1/4)^{b/2} det(1-phi^N) |sigma(A)|^{((a,0),(a,0))};
    the correction sums the pairings with lower normal grades of
    sigma(phi_tilde).
    """
    n, a, b = iso.n, iso.a, iso.b
    tan = (1 << a) - 1
    pref = ((-1) ** (n // 2)) * (1 << n)
    sig_phi = symbol_map(phi_tilde(iso, trig))
    sig_a = symbol_map(A)
    quarter = Fraction(-1, 4) if trig is not None else -0.25
    lead = (pref * (quarter ** (b // 2)) * iso.det_one_minus_normal(trig)
            * sig_a.coefficient(tan, tan))
    corr = 0
    for l1 in range(b + 1):
        for l2 in range(b + 1):
            if l1 == b and l2 == b:
                continue
            p = grade_component(sig_phi, a, ((0, l1), (0, l2)))
            q = grade_component(sig_a, a, ((a, b - l1), (a, b - l2)))
            if p.is_zero() or q.is_zero():
                continue
            corr += pref * berezin(wedge(p, q))
    return lead, corr


# -- curvature, Mehler kernel, fiber integral ---------------------------


def curvature_bivector(R: CurvatureTensor) -> Multivector:
    """Rdot = (1/4) sum_{ijkl} R_{ijkl} e^i^e^j (x) ehat^k^ehat^l."""
    terms = {}
    for (i, j, k, l), v in R.components.items():
        s = (1 << (i - 1)) | (1 << (j - 1))
        t = (1 << (k - 1)) | (1 << (l - 1))
        terms[(s, t)] = terms.get((s, t), 0) + v
        if (s, t) != (t, s):
            terms[(t, s)] = terms.get((t, s), 0) + v
    # pair-symmetric canonical storage counts (i,j)<=(k,l) once; the loop
    # above restores both orderings, diagonal pairs once.
    return Multivector(R.n, terms)


def mehler_body(R: CurvatureTensor, t: float) -> Multivector:
    """exp(t Rdot / 2), the form part of the Mehler kernel."""
    return exp_even(curvature_bivector(R).scale(0.5 * t))


def mehler_kernel(R: CurvatureTensor, t: float, x, y) -> Multivector:
    """Model heat kernel (4 pi t)^{-n/2} exp(-|x-y|^2/4t) exp(t Rdot / 2)."""
    if t <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pref = (4.0 * math.pi * t) ** (-R.n / 2.0)
    pref *= math.exp(-float(np.dot(x - y, x - y)) / (4.0 * t))
    return mehler_body(R, t).scale(pref)


def mehler_heat_residual(R: CurvatureTensor, t: float, x, y, dt=1e-5):
    """Max coefficient of (d/dt - Laplacian_y - Rdot/2) applied to the kernel.

    Time derivative by central difference; the spatial Laplacian of the
    Gaussian factor is evaluated in closed form.
    """
    n = R.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    kp = mehler_kernel(R, t + dt, x, y)
    km = mehler_kernel(R, t - dt, x, y)
    ddt = (kp - km).scale(1.0 / (2.0 * dt))
    # Laplacian_y of exp(-|x-y|^2/4t) = (|x-y|^2/4t^2 - n/2t) * gaussian
    r2 = float(np.dot(x - y, x - y))
    lap_factor = r2 / (4.0 * t * t) - n / (2.0 * t)
    k0 = mehler_kernel(R, t, x, y)
    lap = k0.scale(lap_factor)
    half_rdot = curvature_bivector(R).scale(0.5)
    half_rdot = Multivector(n, {k: float(v) for k, v in half_rdot.terms.items()})
    resid = ddt - lap - wedge(half_rdot, k0)
    return max((abs(c) for c in resid.terms.values()), default=0.0)


def fiber_integral(iso: IsometryNormalForm, t: float) -> float:
    """Integral of the Mehler kernel's Gaussian factor over the normal fiber.

    The kernel at (y, phi y) is (4 pi t)^{-n/2} exp(-|(1 - phi^N) y|^2/4t)
    times ``mehler_body(R, t)``, which does not depend on y; so the fiber
    integral of the kernel is that body scaled by the number returned here.
    This is the closed form (4 pi t)^{-a/2} det^{-1}(1 - phi^N); the
    independent route is :func:`fiber_integral_quadrature`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    det = iso.det_one_minus_normal()
    return (4.0 * math.pi * t) ** (-iso.a / 2.0) / det


def fiber_integral_quadrature(iso: IsometryNormalForm, t: float) -> float:
    """The number of :func:`fiber_integral`, by quadrature.

    A tensor Gauss-Hermite evaluation of the Gaussian factor over the
    normal fiber, refined until successive orders differ by < 1e-8.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    from ._kernels import gauss_hermite_gaussian_integral
    one_minus = np.eye(iso.b) - iso.normal_rotation()
    M = one_minus.T @ one_minus
    integral = gauss_hermite_gaussian_integral(M, 4.0 * t)
    return (4.0 * math.pi * t) ** (-iso.n / 2.0) * integral


# -- Pfaffians, Euler form, index density ------------------------------


def curvature_form_matrix(R: CurvatureTensor, a: int):
    """Antisymmetric a x a matrix of tangent curvature 2-forms.

    Entry (i,j) is sum_{k<l<=a} R_{ijkl} e^k ^ e^l, an element of the
    exterior algebra on the tangent indices.
    """
    out = {}
    for i in range(1, a + 1):
        for j in range(i + 1, a + 1):
            terms = {}
            for k in range(1, a + 1):
                for l in range(k + 1, a + 1):
                    v = R.get(i, j, k, l)
                    if v != 0:
                        terms[((1 << (k - 1)) | (1 << (l - 1)), 0)] = v
            out[(i, j)] = Multivector(a, terms)
    return out


def _pfaffian_expansion(base: dict, marked: dict | None, a: int) -> Multivector:
    """Expansion of a Pfaffian of commuting even forms along its first row.

    With marked None this is Pf(base).  Otherwise it is the multilinear
    sum in which exactly one entry comes from marked and all others from
    base: the derivative of Pf(base + b marked) at b = 0.  Both dicts map
    (i,j), i<j, to entries; antisymmetry below the diagonal is implied.
    A minor (remaining indices, marked entry used or not) is reached along
    several paths of the expansion and is computed once.

    It runs on integer numerators: every entry is scaled by D, the lcm of
    the denominators of all coefficients of base and marked, to an int
    word dict.  Each term of the expansion is a product of exactly a/2
    entries, so the integer result is D^(a/2) times the Pfaffian, and one
    division by D^(a/2) at the end is exact.  Coefficients must be ints or
    Fractions; a float raises ``BackendMismatch``.
    """
    matrices = (base, marked or {})
    for matrix in matrices:
        for key, e in matrix.items():
            if e.n != a:
                raise ValueError(f"entry {key} has n={e.n}, not {a}")
            for c in e.terms.values():
                if not isinstance(c, (int, Fraction)):
                    raise BackendMismatch(f"Pfaffian entry coefficient {c!r} "
                                          "is not an int or a Fraction")
    D = math.lcm(*(c.denominator for matrix in matrices
                   for e in matrix.values() for c in e.terms.values()))
    base_nums, marked_nums = (
        {key: {w: c.numerator * (D // c.denominator) for w, c in e.terms.items()}
         for key, e in matrix.items() if e.terms}
        for matrix in matrices)

    @functools.cache
    def rec(indices, used_marked):
        if not indices:
            return {(0, 0): 1} if used_marked else {}
        i0 = indices[0]
        rest = indices[1:]
        # (entries, whether the minor has used the marked entry)
        sources = (((base_nums, True),) if used_marked
                   else ((marked_nums, True), (base_nums, False)))
        total = {}
        for pos, j in enumerate(rest):
            sub_rest = tuple(x for x in rest if x != j)
            sign = -1 if pos & 1 else 1
            for nums, used in sources:
                e = nums.get((i0, j))
                if e:
                    for w, c in _product(e, rec(sub_rest, used), 0, 0).items():
                        total[w] = total.get(w, 0) + sign * c
        return {w: c for w, c in total.items() if c}

    top = rec(tuple(range(1, a + 1)), marked is None)
    scale = D ** (a // 2)
    return Multivector(a, {w: Fraction(c, scale) for w, c in top.items()})


def pfaffian(matrix: dict, a: int) -> Multivector:
    """Pfaffian of an antisymmetric matrix of commuting even forms.

    matrix maps (i,j) with i<j to Multivector entries on a tangent
    indices, with int or Fraction coefficients; implied antisymmetry
    below the diagonal.  The expansion runs on the entries times D, the
    lcm of their denominators; the Pfaffian is homogeneous of degree a/2
    in the entries, so it comes out D^(a/2) times too large, and one exact
    division by D^(a/2) gives it back.
    """
    if a % 2:
        raise ValueError("Pfaffian needs even dimension")
    return _pfaffian_expansion(matrix, None, a)


def euler_form(R: CurvatureTensor, a: int):
    """Pf[-R / 2 pi] of the tangent block, in pi units.

    Returns the coefficient of the tangent volume form e^1..e^a, as the
    exact coefficient of pi^{-a/2}.  The Pfaffian of the curvature forms
    runs on integer numerators: the components are scaled by D, the lcm of
    their denominators, each term is a product of a/2 entries, and one
    division by D^(a/2) is exact.  R must be exact; a float component
    raises ``BackendMismatch``.
    """
    if a % 2:
        raise ValueError("Euler form needs even dimension")
    if a == 0:
        return Fraction(1)
    mat = curvature_form_matrix(R, a)
    pf = pfaffian(mat, a)
    top = (1 << a) - 1
    scale = Fraction(-1, 2) ** (a // 2)
    return scale * pf.coefficient(top, 0)


def local_index_density(R: CurvatureTensor, iso: IsometryNormalForm):
    """Left side of the index density identity, in pi units.

    (-1)^{n/2} 2^n (-1/4)^{b/2} (4 pi)^{-a/2} |exp(Rdot/2)|^{((a,0),(a,0))},
    returned as the exact coefficient of pi^{-a/2}.

    Only the word (tan, tan) of the exponential is read, and only what
    reaches it is computed.  The wedge product never removes a generator,
    so a word of Rdot with a normal index cannot contribute: those words
    are dropped.  Every remaining word has bidegree (2, 2), so only the
    power m = a/2 reaches (tan, tan), with weight 1/m!.  Words of even
    degree commute, so the m! orderings of m words give one product and
    the m! cancels: the top coefficient is the sum, over the sets of m
    words whose e-parts split {e^1..e^a} and whose ehat-parts split
    {ehat^1..ehat^a}, of the product of their coefficients and the sign
    of their product.  ``top(S, T)`` sums those sets on the remaining
    masks S, T.  It always places the word holding the lowest index of S,
    so each set is counted once, and a placed word (s, t) moves in front
    of the rest (S ^ s, T ^ t) with the sign of its two merges (|t| = 2,
    so no cross-family sign).  It runs on integer numerators
    (denominators cleared by their lcm D) and divides by (2D)^m once.
    """
    n, a, b = iso.n, iso.a, iso.b
    tan = (1 << a) - 1
    rdot = {(s, t): Fraction(c)
            for (s, t), c in curvature_bivector(R).terms.items()
            if not (s | t) & ~tan}
    D = math.lcm(*(c.denominator for c in rdot.values()))
    # words by their lowest e-index, with the suffix parities of their
    # two parts, which give the merge signs
    by_low = {}
    for (s, t), c in rdot.items():
        by_low.setdefault(s & -s, []).append(
            (s, t, int(c * D), _suffix_parity(s), _suffix_parity(t)))

    @functools.cache
    def top(S, T):
        if not S:
            return 1
        total = 0
        for s, t, c, ps, pt in by_low.get(S & -S, ()):
            if s & S != s or t & T != t:
                continue
            rest_s, rest_t = S ^ s, T ^ t
            sub = top(rest_s, rest_t)
            if (_popcount(ps & rest_s) + _popcount(pt & rest_t)) & 1:
                sub = -sub
            total += c * sub
        return total

    coeff = Fraction(top(tan, tan), (2 * D) ** (a // 2))
    pref = Fraction((-1) ** (n // 2) * (1 << n))
    pref *= Fraction(-1, 4) ** (b // 2)
    pref *= Fraction(1, 4) ** (a // 2)
    return pref * coeff


def transgression(R: CurvatureTensor, sdot: dict, a: int) -> Multivector:
    """Directional derivative of Pf[-(R + b Sdot)/2 pi] at b = 0, in pi units.

    sdot maps (i,j), i<j, to form-valued entries (antisymmetric implied);
    computed by multilinear expansion, one marked entry per term, on the
    integer numerators of R and Sdot together (see ``_pfaffian_expansion``).
    """
    if a % 2:
        raise ValueError("transgression needs even tangent dimension")
    if any(i >= j for i, j in sdot):
        raise ValueError("sdot keys must have i < j")
    dpf = _pfaffian_expansion(curvature_form_matrix(R, a), sdot, a)
    return dpf.scale(Fraction(-1, 2) ** (a // 2))


# -- variation operators -----------------------------------------------


def hodge_variation_operator(data: BundleVariationData):
    """The metric-variation endomorphism in Clifford variables and its symbol.

    C = -(1/2) sum_{ij} gdot_{ij} c(e_i) chat(e_j); sigma(C) matches with
    e^i ^ ehat^j in place of the Clifford word.
    """
    n = data.n
    g = data.gdot
    if g is None:
        raise ValueError("gdot required")
    cl_terms = {}
    mv_terms = {}
    for i in range(n):
        for j in range(n):
            v = g[i, j]
            if v == 0:
                continue
            key = (1 << i, 1 << j)
            coeff = Fraction(-1, 2) * v if isinstance(v, (int, Fraction)) else -0.5 * v
            cl_terms[key] = cl_terms.get(key, 0) + coeff
            mv_terms[key] = mv_terms.get(key, 0) + coeff
    return CliffordElement(n, cl_terms), Multivector(n, mv_terms)


def theta_form(data: BundleVariationData):
    """Frame components Tr[phi^F omega(e_j)] of the theta 1-form."""
    phi = data.phiF
    out = []
    for om in data.omega:
        om = np.asarray(om, dtype=object)
        if phi is not None:
            phi_m = np.asarray(phi, dtype=object)
            if phi_m.shape != om.shape:
                raise ValueError("phi^F and omega dimension mismatch")
            prod = np.dot(phi_m, om)
        else:
            prod = om
        out.append(sum(prod[k, k] for k in range(prod.shape[0])))
    return out
