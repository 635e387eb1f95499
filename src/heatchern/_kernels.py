"""Numeric inner loops: Gauss-Hermite fiber quadrature and spectral sums.

Each kernel has a numba @njit implementation and a pure-numpy fallback.
Set HEATCHERN_PURE_NUMPY=1 to force the fallback.  The kernels are
timed, as two-route checks, by the numeric-kernels workload of
``python3 perfbench/run.py``.
"""

from __future__ import annotations

import math
import os

import numpy as np

USE_NUMBA = os.environ.get("HEATCHERN_PURE_NUMPY", "0") not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:   # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False

__all__ = [
    "USE_NUMBA", "gauss_hermite_gaussian_integral",
    "torus_supertrace", "sphere_supertrace",
]


# -- Gauss-Hermite tensor quadrature ------------------------------------

def _gh_sum_numpy(nodes, weights, scales, A):
    """Sum over the tensor grid of prod(w) * exp(|u|^2 - (Su)^T A (Su))."""
    b = len(scales)
    m = len(nodes)
    total = 0.0
    for flat in range(m ** b):
        idx = []
        f = flat
        for _ in range(b):
            idx.append(f % m)
            f //= m
        u = nodes[np.array(idx)]
        v = u * scales
        q = float(v @ A @ v)
        w = float(np.prod(weights[np.array(idx)]))
        total += w * math.exp(float(u @ u) - q)
    return total


def _gh_sum_impl(nodes, weights, scales, A):
    b = scales.shape[0]
    m = nodes.shape[0]
    total = 0.0
    for flat in range(m ** b):
        f = flat
        w = 1.0
        usq = 0.0
        q = 0.0
        v = np.empty(b)
        for k in range(b):
            i = f % m
            f //= m
            w *= weights[i]
            usq += nodes[i] * nodes[i]
            v[k] = nodes[i] * scales[k]
        for r in range(b):
            for c in range(b):
                q += v[r] * A[r, c] * v[c]
        total += w * math.exp(usq - q)
    return total


if USE_NUMBA:
    _gh_sum_numba = njit(cache=True)(_gh_sum_impl)

    def _gh_sum(nodes, weights, scales, A):
        return _gh_sum_numba(nodes, weights, scales, A)
else:
    def _gh_sum(nodes, weights, scales, A):
        return _gh_sum_numpy(nodes, weights, scales, A)


def gauss_hermite_gaussian_integral(M, four_t, tol=1e-8, max_order=48):
    """integral over R^b of exp(-v^T M v / four_t) dv by tensor Gauss-Hermite.

    Axes are rescaled by sqrt(four_t / M_jj) so the weight matches the
    Gaussian; the order is refined until two successive results differ by
    less than tol.
    """
    M = np.asarray(M, dtype=float)
    b = M.shape[0]
    if b == 0:
        return 1.0
    scales = np.sqrt(four_t / np.diag(M))
    A = M / four_t
    prev = None
    order = 8
    while order <= max_order:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        val = _gh_sum(nodes, weights, scales, A) * float(np.prod(scales))
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        order += 8
    raise RuntimeError(f"Gauss-Hermite refinement did not converge to {tol} "
                       f"by order {max_order}")


# -- spectral mode sums ---------------------------------------------------

def _torus_sum_impl(kmax, vx, vy, minus_id, t):
    """Supertrace over the torus lattice |k_i| <= kmax.

    Translation by v: every mode carries weight cos(k.v) and the form
    degrees contribute (1 - 2 + 1) = 0.  With the -id involution only
    self-paired modes (k = -k, i.e. k = 0) are diagonal and the form
    trace pattern is (1, +2, 1).
    """
    total = 0.0
    for kx in range(-kmax, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            lam = float(kx * kx + ky * ky)
            heat = math.exp(-t * lam)
            if minus_id:
                if kx == 0 and ky == 0:
                    total += (1.0 + 2.0 + 1.0) * heat
            else:
                w = math.cos(kx * vx + ky * vy)
                total += w * (1.0 - 2.0 + 1.0) * heat
    return total


def _sphere_sum_impl(lmax, theta, t):
    """Supertrace over the sphere towers l <= lmax under rotation theta."""
    total = 0.0
    for l in range(lmax + 1):
        lam = float(l * (l + 1))
        if abs(math.sin(theta / 2.0)) < 1e-14:
            chi = 2.0 * l + 1.0
        else:
            chi = math.sin((l + 0.5) * theta) / math.sin(theta / 2.0)
        heat = math.exp(-t * lam)
        total += chi * heat            # degree 0
        total += chi * heat            # degree 2
        if l >= 1:
            total -= 2.0 * chi * heat  # degree 1, exact + coexact
    return total


if USE_NUMBA:
    torus_supertrace = njit(cache=True)(_torus_sum_impl)
    sphere_supertrace = njit(cache=True)(_sphere_sum_impl)
else:
    torus_supertrace = _torus_sum_impl
    sphere_supertrace = _sphere_sum_impl
