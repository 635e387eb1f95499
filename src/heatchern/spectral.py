"""Exactly solvable heat supertraces and a finite torsion analog.

Two geometries with closed-form Hodge spectra are supported: the flat
square torus (lattice modes k in Z^2, eigenvalue |k|^2, form degrees
with multiplicities 1,2,1) and the round 2-sphere (degree-0 and
degree-2 towers at l(l+1) with multiplicity 2l+1 for l >= 0, and
degree-1 exact+coexact towers for l >= 1, each carrying the rotation
character chi_l(theta) = sin((l+1/2)theta)/sin(theta/2)).  Isometries:
torus translations, the -id involution, and sphere axis rotations.

The finite complex part computes an equivariant torsion for chain
complexes with metrics: log tau = (1/2) sum_q (-1)^q q sum_{lam>0}
tr(phi P_lam) log lam over the positive spectrum of the combinatorial
Laplacians.  With this exponent convention a two-term complex with
differential (a) has tau = 1/|a|.  Its variation along a metric path is
compared against the candidate supertrace (1/2) sum_q (-1)^q tr[phi V_q]
with V_q = h_q^{-1} hdot_q; the agreement is reported, not assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

__all__ = [
    "SpectralModel", "IsometryAction", "FiniteComplex", "TailBoundExceeded",
    "build_model", "heat_supertrace", "tail_bound", "lefschetz_number",
    "fixed_point_prediction", "variation_supertrace",
    "finite_torsion", "torsion_variation",
]


class TailBoundExceeded(RuntimeError):
    """Mode cutoff too small for the requested accuracy."""


@dataclass(frozen=True)
class SpectralModel:
    """Closed-form Hodge spectrum of one model geometry up to a cutoff.

    torus: lattice modes with |k_i| <= cutoff; sphere: towers l <= cutoff.
    """

    geometry: str
    cutoff: int

    def __post_init__(self):
        if self.geometry not in ("torus", "sphere"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    def mode_count(self, degree: int) -> int:
        """Number of modes carrying the given form degree."""
        if self.geometry == "torus":
            lattice = (2 * self.cutoff + 1) ** 2
            return {0: lattice, 1: 2 * lattice, 2: lattice}.get(degree, 0)
        towers = {0: self.cutoff + 1, 2: self.cutoff + 1, 1: 2 * self.cutoff}
        if degree not in towers:
            return 0
        if degree == 1:
            return sum(2 * l + 1 for l in range(1, self.cutoff + 1)) * 2
        return sum(2 * l + 1 for l in range(self.cutoff + 1))


@dataclass(frozen=True)
class IsometryAction:
    """Supported isometries of the model geometries.

    torus: kind "translation" with vector (vx, vy) (identity is the zero
    translation) or kind "minus-id"; sphere: kind "rotation" with an
    angle about the fixed axis.
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind == "translation":
            if len(self.params) != 2:
                raise ValueError("translation needs a 2-vector")
            if not all(0 <= p < 2 * math.pi for p in self.params):
                raise ValueError("translation components must lie in [0, 2 pi)")
        elif self.kind == "rotation":
            if len(self.params) != 1:
                raise ValueError("rotation needs one angle")
            if not 0 <= self.params[0] < 2 * math.pi:
                raise ValueError("rotation angle must lie in [0, 2 pi)")
        elif self.kind == "minus-id":
            if self.params:
                raise ValueError("minus-id takes no parameters")
        else:
            raise ValueError(f"unknown action kind {self.kind!r}")

    @classmethod
    def translation(cls, vx: float, vy: float) -> "IsometryAction":
        return cls("translation", (vx, vy))

    @classmethod
    def identity_torus(cls) -> "IsometryAction":
        return cls("translation", (0.0, 0.0))

    @classmethod
    def minus_id(cls) -> "IsometryAction":
        return cls("minus-id")

    @classmethod
    def rotation(cls, theta: float) -> "IsometryAction":
        return cls("rotation", (theta,))


def build_model(geometry: str, cutoff: int) -> SpectralModel:
    return SpectralModel(geometry, cutoff)


def _check_pair(model: SpectralModel, action: IsometryAction):
    if model.geometry == "torus" and action.kind == "rotation":
        raise ValueError("rotation is a sphere action")
    if model.geometry == "sphere" and action.kind != "rotation":
        raise ValueError("sphere supports axis rotations only")


def tail_bound(model: SpectralModel, t: float) -> float:
    """Upper bound on the modes dropped by the cutoff.

    The form weights of a torus mode are bounded by 4 in total and those
    of sphere tower l by 4(2l+1); the 1-d tails are summed until a term
    falls below 1e-22 of the running sum.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if model.geometry == "torus":
        kmax = model.cutoff
        # the dropped set {|kx| > kmax or |ky| > kmax} has Gaussian mass
        # (inner + 2 T)^2 - inner^2 = 4 T (inner + T), with the kept 1-d sum
        # inner = sum_{|k| <= kmax} e^{-t k^2} and T = sum_{k > kmax} e^{-t k^2}
        inner = sum(math.exp(-t * k * k) for k in range(-kmax, kmax + 1))
        tail1d = 0.0
        k = kmax + 1
        while True:
            term = math.exp(-t * k * k)
            tail1d += term
            if term < 1e-22 * (tail1d + 1e-300):
                break
            k += 1
        return 16.0 * tail1d * (inner + tail1d)
    lmax = model.cutoff
    total = 0.0
    l = lmax + 1
    while True:
        term = 4.0 * (2 * l + 1) * math.exp(-t * l * (l + 1))
        total += term
        if term < 1e-22 * (total + 1e-300):
            break
        l += 1
    return total


def heat_supertrace(model: SpectralModel, action: IsometryAction, t: float,
                    tol: float | None = None) -> float:
    """Alternating-degree heat trace weighted by the isometry action.

    Raises TailBoundExceeded when tol is given and the cutoff cannot
    certify that accuracy at this t.
    """
    _check_pair(model, action)
    if t <= 0:
        raise ValueError("t must be positive")
    if tol is not None and tail_bound(model, t) > tol:
        raise TailBoundExceeded(
            f"tail bound {tail_bound(model, t):.3e} exceeds {tol:.3e}")
    if model.geometry == "torus":
        if action.kind == "minus-id":
            return float(_kernels.torus_supertrace(model.cutoff, 0.0, 0.0,
                                                   True, t))
        vx, vy = action.params
        return float(_kernels.torus_supertrace(model.cutoff, vx, vy,
                                               False, t))
    return float(_kernels.sphere_supertrace(model.cutoff, action.params[0], t))


def lefschetz_number(model: SpectralModel, action: IsometryAction) -> float:
    """Alternating trace of the action on the harmonic (eigenvalue-0) modes."""
    _check_pair(model, action)
    if model.geometry == "sphere":
        # constants and the volume form, both preserved by rotations
        return 2.0
    if action.kind == "minus-id":
        # H^0, H^2 fixed; dx, dy both flipped
        return 1.0 - (-2.0) + 1.0
    # translations act trivially on all four harmonic forms
    return 1.0 - 2.0 + 1.0


def fixed_point_prediction(geometry: str, action: IsometryAction) -> float:
    """Closed-form fixed-point-set contribution for the model pairs."""
    if geometry == "sphere":
        if action.kind != "rotation":
            raise ValueError("sphere supports axis rotations only")
        theta = action.params[0]
        if theta == 0.0:
            return 2.0          # identity: Euler characteristic
        return 2.0              # two isolated fixed points, density 1 each
    if geometry == "torus":
        if action.kind == "minus-id":
            return 4.0          # four fixed points of v -> -v
        if action.kind == "translation":
            if action.params == (0.0, 0.0):
                return 0.0      # identity: flat Euler form integrates to 0
            return 0.0          # free translation: empty fixed set
        raise ValueError("torus supports translations and minus-id")
    raise ValueError(f"unknown geometry {geometry!r}")


def variation_supertrace(model: SpectralModel, action: IsometryAction,
                         v, t: float, tol: float | None = None) -> float:
    """Heat supertrace with a constant multiple of the identity inserted.

    Only V = v * Id is supported at desk scale; the insertion factors
    out of every mode.
    """
    if not isinstance(v, (int, float)):
        raise ValueError("unsupported insertion class; need a scalar multiple "
                         "of the identity")
    if v == 0:
        return 0.0
    return float(v) * heat_supertrace(model, action, t, tol)


# -- finite chain complexes and torsion ----------------------------------

@dataclass
class FiniteComplex:
    """Chain complex C^0 -> ... -> C^m of real vector spaces.

    ``d[q]`` maps C^q to C^{q+1} (one entry per q < m, possibly zero
    rows/cols for trivial spaces); ``phi[q]`` is an endomorphism of C^q
    commuting with d.  Metrics are supplied separately to the torsion
    functions as one SPD matrix per level.
    """

    dims: tuple
    d: list
    phi: list | None = None

    def __post_init__(self):
        self.dims = tuple(int(x) for x in self.dims)
        m = len(self.dims) - 1
        if len(self.d) != m:
            raise ValueError("need one differential per adjacent pair")
        self.d = [np.asarray(dq, dtype=float) for dq in self.d]
        for q, dq in enumerate(self.d):
            if dq.shape != (self.dims[q + 1], self.dims[q]):
                raise ValueError(f"differential {q} has wrong shape")
        for q in range(m - 1):
            if self.d[q + 1].shape[1] and not np.allclose(
                    self.d[q + 1] @ self.d[q], 0.0, atol=1e-12):
                raise ValueError("d squared must vanish")
        if self.phi is not None:
            self.phi = [np.asarray(p, dtype=float) for p in self.phi]
            if len(self.phi) != len(self.dims):
                raise ValueError("need one action matrix per level")
            for q, p in enumerate(self.phi):
                if p.shape != (self.dims[q], self.dims[q]):
                    raise ValueError(f"action at level {q} has wrong shape")
            for q, dq in enumerate(self.d):
                if not np.allclose(dq @ self.phi[q],
                                   self.phi[q + 1] @ dq, atol=1e-12):
                    raise ValueError("action must commute with d")

    @property
    def levels(self) -> int:
        return len(self.dims)

    def action(self, q: int) -> np.ndarray:
        if self.phi is None:
            return np.eye(self.dims[q])
        return self.phi[q]


def _check_metrics(cx: FiniteComplex, h) -> list:
    if h is None:
        return [np.eye(dim) for dim in cx.dims]
    mats = [np.asarray(hq, dtype=float) for hq in h]
    if len(mats) != cx.levels:
        raise ValueError("need one metric per level")
    for q, hq in enumerate(mats):
        if hq.shape != (cx.dims[q], cx.dims[q]):
            raise ValueError(f"metric at level {q} has wrong shape")
        if not np.allclose(hq, hq.T, atol=1e-12):
            raise ValueError("metrics must be symmetric")
        if hq.size and np.linalg.eigvalsh(hq).min() <= 0:
            raise ValueError("metrics must be positive definite")
    return mats


def _laplacians(cx: FiniteComplex, h) -> list:
    """Combinatorial Laplacians d* d + d d* with adjoints taken in h."""
    m = cx.levels - 1
    laps = []
    for q in range(cx.levels):
        lap = np.zeros((cx.dims[q], cx.dims[q]))
        if q < m and cx.dims[q] and cx.dims[q + 1]:
            dq = cx.d[q]
            adj = np.linalg.solve(h[q], dq.T @ h[q + 1])
            lap = lap + adj @ dq
        if q > 0 and cx.dims[q] and cx.dims[q - 1]:
            dqm = cx.d[q - 1]
            adj = np.linalg.solve(h[q - 1], dqm.T @ h[q])
            lap = lap + dqm @ adj
        laps.append(lap)
    return laps


def log_finite_torsion(cx: FiniteComplex, h=None, zero_tol: float = 1e-10,
                       require_acyclic: bool = True) -> float:
    """log tau = (1/2) sum_q (-1)^q q sum_{lam > 0} tr(phi P_lam) log lam.

    The Laplacians are symmetrized through the Cholesky factor of each
    metric so the spectral projectors are orthogonal.
    """
    h = _check_metrics(cx, h)
    laps = _laplacians(cx, h)
    total = 0.0
    for q, lap in enumerate(laps):
        if not cx.dims[q]:
            continue
        chol = np.linalg.cholesky(h[q])
        # C^T Lap C^{-T} is symmetric because Lap is h-self-adjoint
        sym = chol.T @ lap @ np.linalg.inv(chol.T)
        sym = (sym + sym.T) / 2.0
        evals, evecs = np.linalg.eigh(sym)
        phi_sym = chol.T @ cx.action(q) @ np.linalg.inv(chol.T)
        zero_modes = int(np.sum(evals <= zero_tol))
        if require_acyclic and zero_modes:
            raise ValueError(f"complex is not acyclic at level {q}; "
                             "fix cohomology data or pass require_acyclic=False")
        for lam, vec in zip(evals, evecs.T):
            if lam > zero_tol:
                total += 0.5 * ((-1) ** q) * q * float(vec @ phi_sym @ vec) \
                    * math.log(lam)
    return total


def finite_torsion(cx: FiniteComplex, h=None, **kw) -> float:
    return math.exp(log_finite_torsion(cx, h, **kw))


@dataclass(frozen=True)
class TorsionVariation:
    finite_difference: float
    trace_formula: float

    @property
    def residual(self) -> float:
        return abs(self.finite_difference - self.trace_formula)


def torsion_variation(cx: FiniteComplex, h_path, eps: float,
                      step: float = 1e-4) -> TorsionVariation:
    """Compare d/d_eps log tau with the candidate trace expression.

    ``h_path(eps)`` returns the list of metrics; the candidate value is
    (1/2) sum_q (-1)^q tr[phi_q V_q] with V_q = h_q^{-1} hdot_q (hdot by
    the same centered difference).  Both numbers are returned; their
    agreement is an observed identity of the model, reported through the
    residual rather than asserted here.
    """
    if step <= 0 or step < 1e-12:
        raise ValueError("step size underflow")
    lo = log_finite_torsion(cx, h_path(eps - step))
    hi = log_finite_torsion(cx, h_path(eps + step))
    fd = (hi - lo) / (2.0 * step)
    h0 = _check_metrics(cx, h_path(eps))
    hlo = _check_metrics(cx, h_path(eps - step))
    hhi = _check_metrics(cx, h_path(eps + step))
    trace_val = 0.0
    for q in range(cx.levels):
        if not cx.dims[q]:
            continue
        hdot = (hhi[q] - hlo[q]) / (2.0 * step)
        vq = np.linalg.solve(h0[q], hdot)
        trace_val += 0.5 * ((-1) ** q) * float(np.trace(cx.action(q) @ vq))
    return TorsionVariation(fd, trace_val)
