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
* Exact inputs (rotation pairs, Pfaffian entries) are ints that are not
  bools, or Fractions: the one rule of ``scalars``.
* The End(F) data of the variation formula, :class:`BundleVariationData`,
  is checked once, when built: its matrices become ``scalars.Mat``s of
  one fiber size, and its readers use them as they are.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .clifford import CliffordElement, clifford_multiply, supertrace, symbol_map
from .multivector import (
    Multivector, _popcount, _suffix_parity, berezin, exp_even, grade_component,
    wedge,
)
from ._pfaffian import _pfaffian_expansion
from .scalars import Mat, _count, _is_exact, _positive_finite, _require_exact

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
    """Block normal form of an orientation-preserving isometry germ.

    Each normal block's rotation is an angle in ``angles`` and a (cos, sin)
    pair in ``rotations``, which the routes read: floats when built from
    the angles, or exact pairs given as ``rotations=[(Fraction(3, 5),
    Fraction(4, 5)), ...]`` (ints or Fractions, c^2 + s^2 = 1), whose
    angles are their atan2 and whose routes stay exact.
    """

    n: int
    a: int
    angles: tuple = ()
    rotations: tuple = ()

    def __post_init__(self):
        _count(self.n, "n", 0)
        _count(self.a, "a", 0)
        if self.n % 2 or self.a % 2:
            raise ValueError("n and a must be even")
        if self.rotations:
            if self.angles:
                raise ValueError("give angles or rotations, not both")
            rotations = tuple((c, s) for c, s in self.rotations)
            for c, s in rotations:
                if not (_is_exact(c) and _is_exact(s) and c * c + s * s == 1):
                    raise ValueError(f"rotation ({c!r}, {s!r}) is not ints or "
                                     "Fractions with c^2 + s^2 = 1")
            angles = tuple(math.atan2(s, c) for c, s in rotations)
        else:
            angles = tuple(float(t) for t in self.angles)
            for t in angles:
                if not math.isfinite(t):
                    raise ValueError(f"rotation angle {t} is not finite")
            rotations = tuple((math.cos(t), math.sin(t)) for t in angles)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "rotations", rotations)
        if self.a + 2 * len(angles) != self.n:
            raise ValueError("a + 2 * len(angles) must equal n")
        for t in angles:
            if math.isclose(math.sin(t / 2), 0.0, abs_tol=1e-15):
                raise ValueError(f"degenerate rotation angle {t}")

    @property
    def b(self) -> int:
        return self.n - self.a

    def normal_rotation(self) -> np.ndarray:
        """The b x b block rotation phi^N, in floats."""
        out = np.zeros((self.b, self.b))
        for j, (c, s) in enumerate(self.rotations):
            out[2 * j:2 * j + 2, 2 * j:2 * j + 2] = [[c, s], [-s, c]]
        return out

    def full_matrix(self) -> np.ndarray:
        out = np.eye(self.n)
        out[self.a:, self.a:] = self.normal_rotation()
        return out

    def det_one_minus_normal(self):
        """det(1 - phi^N) = prod (2 - 2 cos theta_j); always positive.

        Exact pairs, or none, give the exact product of 2 - 2c.  Float
        pairs give each factor as 4 sin^2(theta_j / 2), which keeps its
        digits at small angles.
        """
        if all(_is_exact(c) for c, _ in self.rotations):
            return math.prod(2 - 2 * c for c, _ in self.rotations)
        return math.prod((4 * math.sin(t / 2) ** 2 for t in self.angles),
                         start=1.0)


class CurvatureTensor:
    """Components R_{ijkl} with the full algebraic symmetries.

    Stored on the canonical index set i<j, k<l, (i,j) <= (k,l); lookups
    resolve signs.  Input components that contradict the symmetries raise,
    and so does a bool component, which the stored sign * value would
    turn into an int.
    """

    def __init__(self, n: int, components: dict):
        _count(n, "n", 0)
        self.n = n
        canon: dict = {}
        for (i, j, k, l), v in components.items():
            if isinstance(v, (bool, np.bool_)):
                raise TypeError(f"curvature component {v!r} is a bool, "
                                "not a number")
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


@dataclass(frozen=True)
class BundleVariationData:
    """Pointwise samples of the bundle/metric variation data.

    omega[j-1] is the End(F) matrix omega(F,h^F)(e_j); nabla_omega[(i,j)]
    the derivative of omega(e_j) in direction e_i; gdot the symmetric
    matrix (g^TM)^{-1} gdot^TM.  Construction turns omega, nabla_omega
    and phiF into :class:`Mat` s of one fiber size (nabla_omega a
    read-only mapping) and gdot into a symmetric n x n Mat, or raises
    ``ValueError``.
    """

    n: int
    omega: tuple = ()
    nabla_omega: dict = field(default_factory=dict)
    phiF: Mat | None = None
    gdot: Mat | None = None

    def __post_init__(self):
        omega = tuple(map(Mat, self.omega))
        nabla = MappingProxyType({p: Mat(m)
                                  for p, m in self.nabla_omega.items()})
        phi = None if self.phiF is None else Mat(self.phiF)
        sizes = {len(m) for m in (*omega, *nabla.values(), phi) if m is not None}
        if len(sizes) > 1:
            raise ValueError(f"End(F) matrices of sizes {sorted(sizes)} "
                             "in one bundle")
        g = None if self.gdot is None else Mat(self.gdot)
        if g is not None and (len(g) != self.n or any(
                g[i][j] != g[j][i] for i in range(self.n) for j in range(i))):
            raise ValueError("gdot must be a symmetric n x n matrix")
        for name, value in (("omega", omega), ("nabla_omega", nabla),
                            ("phiF", phi), ("gdot", g)):
            object.__setattr__(self, name, value)


# -- phi-tilde and the equivariant supertrace --------------------------


def phi_tilde(iso: IsometryNormalForm) -> CliffordElement:
    """Clifford expansion of the lifted isometry, exact when its rotations are."""
    n = iso.n
    out = CliffordElement.one(n)
    half = Fraction(1, 2)
    for jblk, (c, s) in enumerate(iso.rotations):
        p = iso.a + 2 * jblk + 1   # block indices (p, p+1)
        cp, cq = 1 << (p - 1), 1 << p
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
    The nonzero entries of mat split its rows and columns into connected
    blocks, and a minor whose rows and columns meet some block unequally
    often is zero by structure: only the other minors are computed, each
    degree's in one stacked determinant call, and the rest stay 0.0.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"exterior_pushforward needs a square matrix, "
                         f"not shape {mat.shape}")
    n = mat.shape[0]
    pattern = tuple(sum(1 << j for j in np.flatnonzero(row).tolist())
                    for row in mat)
    out = np.zeros((1 << n, 1 << n))
    out[0, 0] = 1.0
    for rows, cols, row_masks, col_masks in _minor_tables(n, pattern):
        out[row_masks, col_masks] = np.linalg.det(
            mat[rows[:, :, None], cols[:, None, :]])
    return out


@functools.lru_cache(maxsize=32)
def _minor_tables(n: int, pattern: tuple) -> tuple:
    """The minors of an n x n matrix that its nonzero pattern allows.

    pattern[i] is the mask of the nonzero columns of row i.  Rows and
    columns joined by a nonzero entry fall in one block; a k x k minor
    can be nonzero only if its row subset and its column subset have the
    same signature, the count of their members in each block.  For each
    degree k with such minors: their row and column index arrays (one
    row per minor) and the subset masks they fill.
    """
    blocks = []   # (row mask, column mask) of each connected block
    for rows, cols in ([(1 << i, m) for i, m in enumerate(pattern)]
                       + [(0, 1 << j) for j in range(n)]):
        for r, c in [b for b in blocks if b[1] & cols]:
            blocks.remove((r, c))
            rows, cols = rows | r, cols | c
        blocks.append((rows, cols))
    tables = []
    for k in range(1, n + 1):
        subsets = list(itertools.combinations(range(n), k))
        masks = [sum(1 << i for i in sub) for sub in subsets]
        by_rows, by_cols = {}, {}
        for index, m in enumerate(masks):
            by_rows.setdefault(tuple((m & r).bit_count() for r, _ in blocks),
                               []).append(index)
            by_cols.setdefault(tuple((m & c).bit_count() for _, c in blocks),
                               []).append(index)
        pairs = [(r, c) for signature, row_ids in by_rows.items()
                 for r in row_ids for c in by_cols.get(signature, ())]
        if pairs:
            r, c = np.array(pairs).T
            subsets = np.array(subsets, dtype=np.int8)
            masks = np.array(masks, dtype=np.int32)
            tables.append((subsets[r], subsets[c], masks[r], masks[c]))
    return tuple(tables)


def lambda_pushforward_oracle(iso: IsometryNormalForm) -> np.ndarray:
    """Matrix of the lifted isometry on the exterior algebra, by minors.

    The lift acts by pullback, i.e. by the exterior powers of the inverse
    block rotation; for the orthogonal normal form that inverse is the
    transpose.  Its blocks are the a tangent indices, one each, and the
    normal 2 x 2 rotations (two 1 x 1 blocks where an exact cos or sin is
    0), so ``exterior_pushforward`` computes 2^a 6^(b/2) - 1 of the
    C(2n, n) - 1 minors: 383 of 12,869 at n = 8, a = 6.
    """
    return exterior_pushforward(iso.full_matrix().T)


def equivariant_supertrace(iso: IsometryNormalForm, A: CliffordElement,
                           method: str = "matrix"):
    """Str[phi_tilde * A], by matrix representation or by the bigraded
    decomposition (leading det-term plus lower-normal-grade corrections)."""
    if method == "matrix":
        return supertrace(clifford_multiply(phi_tilde(iso), A))
    if method == "decomposition":
        lead, corr = supertrace_decomposition(iso, A)
        return lead + corr
    raise ValueError(f"unknown method {method!r}")


def supertrace_decomposition(iso: IsometryNormalForm, A: CliffordElement):
    """(leading term, correction sum) of the bigraded supertrace formula.

    leading = (-1)^{n/2} 2^n (-1/4)^{b/2} det(1-phi^N) |sigma(A)|^{((a,0),(a,0))};
    the correction sums the pairings with lower normal grades of
    sigma(phi_tilde).
    """
    n, a, b = iso.n, iso.a, iso.b
    tan = (1 << a) - 1
    pref = ((-1) ** (n // 2)) * (1 << n)
    sig_phi = symbol_map(phi_tilde(iso))
    sig_a = symbol_map(A)
    lead = (pref * Fraction(-1, 4) ** (b // 2) * iso.det_one_minus_normal()
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
    _positive_finite(t, "t")
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
    _positive_finite(t, "t")
    det = iso.det_one_minus_normal()
    return (4.0 * math.pi * t) ** (-iso.a / 2.0) / det


def fiber_integral_quadrature(iso: IsometryNormalForm, t: float) -> float:
    """The number of :func:`fiber_integral`, by quadrature.

    A tensor Gauss-Hermite evaluation of the Gaussian factor over the
    normal fiber, refined until successive orders differ by < 1e-8 of the
    value.
    """
    _positive_finite(t, "t")
    from ._kernels import gauss_hermite_gaussian_integral
    one_minus = np.eye(iso.b) - iso.normal_rotation()
    M = one_minus.T @ one_minus
    integral = gauss_hermite_gaussian_integral(M, 4.0 * t)
    return (4.0 * math.pi * t) ** (-iso.n / 2.0) * integral


# -- Pfaffians, Euler form, index density ------------------------------


def curvature_form_matrix(R: CurvatureTensor, a: int):
    """Antisymmetric a x a matrix of tangent curvature 2-forms.

    Entry (i,j) is sum_{k<l<=a} R_{ijkl} e^k ^ e^l, an element of the
    exterior algebra on the tangent indices.  One pass over the stored
    components with every index <= a fills it: the component at (i, j, k,
    l) gives the word e^k ^ e^l of entry (i, j) and, by pair symmetry, the
    word e^i ^ e^j of entry (k, l).
    """
    terms = {(i, j): {} for i in range(1, a + 1) for j in range(i + 1, a + 1)}
    for (i, j, k, l), v in R.components.items():
        if j <= a and l <= a:
            terms[i, j][(1 << (k - 1)) | (1 << (l - 1)), 0] = v
            terms[k, l][(1 << (i - 1)) | (1 << (j - 1)), 0] = v
    return {key: Multivector(a, words) for key, words in terms.items()}


def pfaffian(matrix: dict, a: int) -> Multivector:
    """Pfaffian of an antisymmetric matrix of commuting even forms.

    matrix maps (i,j) with i<j to forms on the tangent e-indices 1..a:
    Multivector entries on a indices whose words have no ehat index (one
    that has raises ``ValueError``), with int or Fraction coefficients;
    implied antisymmetry below the diagonal.  The expansion runs on the
    entries times D, the lcm of their denominators; the Pfaffian is
    homogeneous of degree a/2 in the entries, so it comes out D^(a/2)
    times too large, and one exact division by D^(a/2) gives it back.
    """
    _count(a, "a", 0)
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
    raises ``BackendMismatch``.  a must be an int (``scalars._count``).
    """
    _count(a, "a", None)
    if a % 2 or not 0 <= a <= R.n:
        raise ValueError(f"Euler form needs an even a in [0, {R.n}], not {a}")
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
    so a word of Rdot with a normal index cannot contribute: only the
    stored components with every index <= a are read, each as the word
    e^i e^j ehat^k ehat^l and, by pair symmetry, e^k e^l ehat^i ehat^j
    (the words of ``curvature_bivector``, which is not built).  Every
    such word has bidegree (2, 2), so only the power m = a/2 reaches
    (tan, tan), with weight 1/m!.  Words of even degree commute, so the
    m! orderings of m words give one product and the m! cancels: the top
    coefficient is the sum, over the sets of m words whose e-parts split
    {e^1..e^a} and whose ehat-parts split {ehat^1..ehat^a}, of the
    product of their coefficients and the sign of their product.

    That sum is built level by level.  Level j holds M_j(S, T), the sum
    over the sets of j words that split the masks S and T, for |S| = |T|
    = 2j: M_j(S, T) is the sum over the pairs s of S holding its lowest
    index and the pairs t of T of c(s, t) M_{j-1}(S ^ s, T ^ t), signed
    by the merges of s and t in front of the rest (|t| = 2, so no
    cross-family sign).  Placing the lowest index first counts each set
    once, and leaves at level j only the S above the m - j lowest
    indices; T ranges over all 2j-subsets.  The index tables of the levels
    depend on a alone (``_density_tables``).  The sum runs on integer
    numerators (denominators cleared by their lcm D) and divides by
    (2D)^m once: in int64 when |M_j| <= (2j-1) C(2j, 2) cmax |M_{j-1}|
    bounds every partial sum below 2^63, where cmax is the largest
    numerator, and in Python ints (``dtype=object``) otherwise.
    A float coefficient raises ``BackendMismatch``, as in ``euler_form``.
    """
    if R.n != iso.n:
        raise ValueError(f"curvature has n={R.n}, isometry n={iso.n}")
    n, a, b = iso.n, iso.a, iso.b
    m = a // 2
    rdot = {}
    for (i, j, k, l), c in R.components.items():
        if j <= a and l <= a:
            _require_exact(c, "curvature")
            s = (1 << (i - 1)) | (1 << (j - 1))
            t = (1 << (k - 1)) | (1 << (l - 1))
            rdot[s, t] = rdot[t, s] = c
    D = math.lcm(*(c.denominator for c in rdot.values()))
    nums = {w: c.numerator * (D // c.denominator) for w, c in rdot.items()}
    cmax = max(map(abs, nums.values()), default=0)
    bound = math.prod((2 * j - 1) * math.comb(2 * j, 2) * cmax
                      for j in range(1, m + 1))
    dtype = np.int64 if bound < 2 ** 63 else object
    pair_index, levels = _density_tables(a)
    # c(s, t) by the indices of the pairs s and t
    words = np.zeros((len(pair_index), len(pair_index)), dtype=dtype)
    if nums:
        rows, cols = zip(*((pair_index[s], pair_index[t]) for s, t in nums))
        words[rows, cols] = np.array(list(nums.values()), dtype=dtype)
    M = np.ones((1, 1), dtype=dtype)
    for s_pair, s_prev, s_sign, t_pair, t_prev, t_sign in levels:
        signed = words[:, t_pair] * t_sign   # +-c(s, t) for each pair s
        nxt = np.empty((len(s_pair), len(t_pair)), dtype=dtype)
        # a chunk of S at a time, each term array under _CHUNK entries
        step = max(1, _CHUNK // (signed[0].size * s_pair.shape[1]))
        for lo in range(0, len(s_pair), step):
            rest = M[s_prev[lo:lo + step]] * s_sign[lo:lo + step, :, None]
            terms = signed[s_pair[lo:lo + step]] * rest[..., t_prev]
            nxt[lo:lo + step] = terms.sum(axis=(1, 3))
        M = nxt
    coeff = Fraction(int(M[0, 0]), (2 * D) ** m)
    pref = Fraction((-1) ** (n // 2) * (1 << n))
    pref *= Fraction(-1, 4) ** (b // 2)
    pref *= Fraction(1, 4) ** (a // 2)
    return pref * coeff


_CHUNK = 1 << 16


@functools.cache
def _density_tables(a: int):
    """Index tables of ``local_index_density``'s levels, for a tangent
    indices.

    Returns the index of each 2-subset (pair) mask of the a indices and,
    for each level j = 1 .. a/2, the arrays
    ``s_pair, s_prev, s_sign`` (one row per S, one column per partner of
    its lowest index: the pair s, the row of S ^ s one level down, the
    sign of s's merge in front of S ^ s) and ``t_pair, t_prev, t_sign``
    (one row per T, one column per pair t of T, likewise).
    """
    pairs = [sum(1 << i for i in p) for p in itertools.combinations(range(a), 2)]
    pair_index = {p: i for i, p in enumerate(pairs)}

    def merge_sign(w, rest):
        return -1 if _popcount(_suffix_parity(w) & rest) & 1 else 1

    s_rows, t_rows = {0: 0}, {0: 0}   # mask -> row, one level down
    levels = []
    for j in range(1, a // 2 + 1):
        low = a // 2 - j   # the levels above j place the low lowest indices
        s_masks = [sum(1 << i for i in sub)
                   for sub in itertools.combinations(range(low, a), 2 * j)]
        t_masks = [sum(1 << i for i in sub)
                   for sub in itertools.combinations(range(a), 2 * j)]
        s_cols = [[(S & -S) | 1 << i for i in range(a) if (S & S - 1) >> i & 1]
                  for S in s_masks]
        t_cols = [[t for t in pairs if t & T == t] for T in t_masks]
        levels.append(tuple(np.array(table) for table in (
            [[pair_index[s] for s in row] for row in s_cols],
            [[s_rows[S ^ s] for s in row] for S, row in zip(s_masks, s_cols)],
            [[merge_sign(s, S ^ s) for s in row]
             for S, row in zip(s_masks, s_cols)],
            [[pair_index[t] for t in row] for row in t_cols],
            [[t_rows[T ^ t] for t in row] for T, row in zip(t_masks, t_cols)],
            [[merge_sign(t, T ^ t) for t in row]
             for T, row in zip(t_masks, t_cols)])))
        s_rows = {S: i for i, S in enumerate(s_masks)}
        t_rows = {T: i for i, T in enumerate(t_masks)}
    return pair_index, tuple(levels)


def transgression(R: CurvatureTensor, sdot: dict, a: int) -> Multivector:
    """Directional derivative of Pf[-(R + b Sdot)/2 pi] at b = 0, in pi units.

    sdot maps (i,j), i<j, to forms on the tangent e-indices 1..a
    (antisymmetric implied; an ehat index raises ``ValueError``, as in
    ``pfaffian``); computed by multilinear expansion, one marked entry per
    term, on the integer numerators of R and Sdot together (see
    ``_pfaffian_expansion``).
    """
    _count(a, "a", 0)
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
    if data.gdot is None:
        raise ValueError("gdot required")
    terms = {(1 << i, 1 << j): Fraction(-1, 2) * v
             for i, row in enumerate(data.gdot) for j, v in enumerate(row) if v}
    return CliffordElement(data.n, terms), Multivector(data.n, terms)


def theta_form(data: BundleVariationData):
    """Frame components Tr[phi^F omega(e_j)] of the theta 1-form."""
    phi = data.phiF
    out = []
    for om in data.omega:
        prod = om if phi is None else phi * om
        out.append(sum(prod[k][k] for k in range(len(prod))))
    return out
