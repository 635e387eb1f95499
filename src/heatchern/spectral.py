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

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .scalars import _count, _negligible, _positive_finite

__all__ = [
    "SpectralModel", "IsometryAction", "FiniteComplex", "TorsionVariation",
    "check_pair", "heat_supertrace",
    "tail_bound", "lefschetz_number", "fixed_point_prediction",
    "log_finite_torsion", "finite_torsion", "torsion_variation",
]


# the action kinds each model geometry takes
_ACTION_KINDS = {"torus": ("translation", "minus-id"), "sphere": ("rotation",)}


def check_pair(geometry: str, kind: str):
    """Raise ValueError unless the geometry is a model and takes this action
    kind: the torus takes translations and minus-id, the sphere rotations."""
    if geometry not in _ACTION_KINDS:
        raise ValueError(f"unknown geometry {geometry!r}")
    if kind not in _ACTION_KINDS[geometry]:
        raise ValueError(f"the {geometry} takes action "
                         f"{' or '.join(_ACTION_KINDS[geometry])}, not {kind}")


@dataclass(frozen=True)
class SpectralModel:
    """Closed-form Hodge spectrum of one model geometry up to a cutoff.

    torus: lattice modes with |k_i| <= cutoff; sphere: towers l <= cutoff.
    """

    geometry: str
    cutoff: int

    def __post_init__(self):
        if self.geometry not in _ACTION_KINDS:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        _count(self.cutoff, "cutoff", 1)


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
    def rotation(cls, theta: float) -> "IsometryAction":
        return cls("rotation", (theta,))


# the tail sum gives up after this many terms, which settle the sum for
# every t above about 5e-11 (measured at cutoff 40)
_TAIL_TERMS = 10 ** 6
# log of the factor by which a tail term has fallen below the first when the
# sum stops: the 1e-22 stop rule times the sphere's weight growth
# (2l + 1)/(2s + 1), which stays below 2 _TAIL_TERMS + 1
_TAIL_DECAY = math.log(1e22 * (2 * _TAIL_TERMS + 1))


def _tail_terms(cutoff: int, t: float) -> int:
    """Tail-sum terms past the cutoff that the mode budget counts at t.

    A tail from s = cutoff + 1 stops once t (k^2 - s^2) exceeds
    ``_TAIL_DECAY``, so by k = sqrt(s^2 + _TAIL_DECAY / t).  The count is
    of the indices above the cutoff up to sqrt(_TAIL_DECAY / t), capped at
    ``_TAIL_TERMS``; the sum takes at most cutoff + 2 terms more, about
    the modes counted at t.
    """
    reach = math.sqrt(_TAIL_DECAY / t)   # inf for the smallest floats
    return max(0, math.ceil(min(reach - cutoff, _TAIL_TERMS)))


def _tail_sum(term, start: int) -> float:
    """Sum of term(k) for k = start, start + 1, ... until a term falls
    below 1e-22 of the running sum."""
    total = 0.0
    for k in range(start, start + _TAIL_TERMS):
        value = term(k)
        total += value
        if value < 1e-22 * (total + 1e-300):
            return total
    raise RuntimeError(f"tail sum not settled after {_TAIL_TERMS} terms")


def tail_bound(model: SpectralModel, t: float) -> float:
    """Upper bound on the modes dropped by the cutoff.

    The form weights of a torus mode are bounded by 4 in total and those
    of sphere tower l by 4(2l+1); the 1-d tails are summed by ``_tail_sum``.
    """
    _positive_finite(t, "t")
    if model.geometry == "torus":
        kmax = model.cutoff
        # the dropped set {|kx| > kmax or |ky| > kmax} has Gaussian mass
        # (inner + 2 T)^2 - inner^2 = 4 T (inner + T), with the kept 1-d sum
        # inner = sum_{|k| <= kmax} e^{-t k^2} and T = sum_{k > kmax} e^{-t k^2}
        inner = sum(math.exp(-t * k * k) for k in range(-kmax, kmax + 1))
        tail1d = _tail_sum(lambda k: math.exp(-t * k * k), kmax + 1)
        return 16.0 * tail1d * (inner + tail1d)
    return _tail_sum(lambda l: 4.0 * (2 * l + 1) * math.exp(-t * l * (l + 1)),
                     model.cutoff + 1)


def _mode_sum(cutoff: int, action: IsometryAction, t: float) -> float:
    """Alternating-degree trace of the action times e^{-t Laplacian} over
    the modes up to the cutoff; the pair is checked by the caller."""
    if action.kind == "rotation":
        return float(_kernels.sphere_supertrace(cutoff, action.params[0], t))
    if action.kind == "minus-id":
        return float(_kernels.torus_supertrace(cutoff, 0.0, 0.0, True, t))
    vx, vy = action.params
    return float(_kernels.torus_supertrace(cutoff, vx, vy, False, t))


def heat_supertrace(model: SpectralModel, action: IsometryAction,
                    t: float) -> float:
    """Alternating-degree heat trace weighted by the isometry action, over
    the modes up to the cutoff; ``tail_bound`` bounds what it drops."""
    check_pair(model.geometry, action.kind)
    _positive_finite(t, "t")
    return _mode_sum(model.cutoff, action, t)


def lefschetz_number(model: SpectralModel, action: IsometryAction) -> float:
    """Alternating trace of the action on the harmonic (eigenvalue-0) modes.

    These are the modes the sum keeps at cutoff 0, where every heat factor
    is exp(-t * 0) = 1 whatever t is.
    """
    check_pair(model.geometry, action.kind)
    return _mode_sum(0, action, 1.0)


def fixed_point_prediction(geometry: str, action: IsometryAction) -> float:
    """Closed-form fixed-point-set contribution for the model pairs.

    Sphere: 2 for every rotation (the Euler characteristic at the identity,
    two isolated fixed points of density 1 otherwise).  Torus: 4 for the
    four fixed points of minus-id, 0 for a translation (the flat Euler form
    integrates to 0, and a nonzero translation has no fixed point).
    """
    check_pair(geometry, action.kind)
    if geometry == "sphere":
        return 2.0
    return 4.0 if action.kind == "minus-id" else 0.0


# -- finite chain complexes and torsion ----------------------------------

@dataclass
class FiniteComplex:
    """Chain complex C^0 -> ... -> C^m of real vector spaces.

    ``d[q]`` maps C^q to C^{q+1} (one entry per q < m, possibly zero
    rows/cols for trivial spaces); ``phi[q]`` is an endomorphism of C^q
    commuting with d, the identity if none is given; metrics go to the
    torsion functions, one SPD matrix per level.
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
            if not _negligible(self.d[q + 1] @ self.d[q], np.linalg.norm(
                    self.d[q + 1]) * np.linalg.norm(self.d[q])):
                raise ValueError("d squared must vanish")
        self.phi = [np.asarray(p, dtype=float) for p in (
            map(np.eye, self.dims) if self.phi is None else self.phi)]
        if len(self.phi) != len(self.dims):
            raise ValueError("need one action matrix per level")
        for q, p in enumerate(self.phi):
            if p.shape != (self.dims[q], self.dims[q]):
                raise ValueError(f"action at level {q} has wrong shape")
        for q, dq in enumerate(self.d):
            if not _negligible(dq @ self.phi[q] - self.phi[q + 1] @ dq,
                               np.linalg.norm(dq) * sum(map(
                                   np.linalg.norm, self.phi[q:q + 2]))):
                raise ValueError("action must commute with d")


def _check_metrics(cx: FiniteComplex, h) -> list:
    mats = [np.asarray(hq, dtype=float) for hq in (
        map(np.eye, cx.dims) if h is None else h)]
    if len(mats) != len(cx.dims):
        raise ValueError("need one metric per level")
    for q, hq in enumerate(mats):
        if hq.shape != (cx.dims[q], cx.dims[q]):
            raise ValueError(f"metric at level {q} has wrong shape")
        if not _negligible(hq - hq.T, np.linalg.norm(hq)):
            raise ValueError("metrics must be symmetric")
        if hq.size and np.linalg.eigvalsh(hq).min() <= 0:
            raise ValueError("metrics must be positive definite")
    return mats


def _laplacians(cx: FiniteComplex, h) -> list:
    """Combinatorial Laplacians d* d + d d* with adjoints taken in h."""
    m = len(cx.dims) - 1
    laps = []
    for q in range(m + 1):
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


def log_finite_torsion(cx: FiniteComplex, h=None) -> float:
    """log tau = (1/2) sum_q (-1)^q q sum_{lam > 0} tr(phi P_lam) log lam.

    The Laplacians are symmetrized through the Cholesky factor of each
    metric so the spectral projectors are orthogonal.
    """
    return _log_torsion(cx, _check_metrics(cx, h))


def _log_torsion(cx: FiniteComplex, h: list) -> float:
    """log_finite_torsion on metrics that ``_check_metrics`` returned."""
    laps = _laplacians(cx, h)
    total = 0.0
    for q, lap in enumerate(laps):
        if not cx.dims[q]:
            continue
        chol = np.linalg.cholesky(h[q])
        inv_t = np.linalg.inv(chol.T)
        # C^T Lap C^{-T} is symmetric because Lap is h-self-adjoint
        sym = chol.T @ lap @ inv_t
        sym = (sym + sym.T) / 2.0
        evals, evecs = np.linalg.eigh(sym)
        phi_sym = chol.T @ cx.phi[q] @ inv_t
        # eigh and the similarity round by dim * max |lam| * cond(C)
        if _negligible(evals[0], cx.dims[q] * np.abs(evals).max()
                       * np.linalg.cond(chol)):
            raise ValueError(f"complex is not acyclic at level {q}")
        for lam, vec in zip(evals, evecs.T):
            total += 0.5 * ((-1) ** q) * q * float(vec @ phi_sym @ vec) \
                * math.log(lam)
    return total


def finite_torsion(cx: FiniteComplex, h=None) -> float:
    return math.exp(log_finite_torsion(cx, h))


@dataclass(frozen=True)
class TorsionVariation:
    finite_difference: float
    trace_formula: float


def torsion_variation(cx: FiniteComplex, h_path, eps: float,
                      step: float = 1e-4) -> TorsionVariation:
    """Compare d/d_eps log tau with the candidate trace expression.

    ``h_path(eps)`` returns the list of metrics; the candidate value is
    (1/2) sum_q (-1)^q tr[phi_q V_q] with V_q = h_q^{-1} hdot_q (hdot by
    the same centered difference).  Both numbers are returned; their
    agreement is an observed identity of the model, which the caller
    checks rather than this function.
    """
    if step < 1e-12:
        raise ValueError("step size underflow")
    _positive_finite(step, "step")
    hlo, h0, hhi = (_check_metrics(cx, h_path(e))
                    for e in (eps - step, eps, eps + step))
    fd = (_log_torsion(cx, hhi) - _log_torsion(cx, hlo)) / (2.0 * step)
    trace_val = 0.0
    for q, dim in enumerate(cx.dims):
        if not dim:
            continue
        hdot = (hhi[q] - hlo[q]) / (2.0 * step)
        vq = np.linalg.solve(h0[q], hdot)
        trace_val += 0.5 * ((-1) ** q) * float(np.trace(cx.phi[q] @ vq))
    return TorsionVariation(fd, trace_val)
