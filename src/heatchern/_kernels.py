"""Numeric inner loops: Gauss-Hermite fiber quadrature and spectral sums.

Each kernel runs as numpy work over chunks of ``_CHUNK`` points, so its
memory stays bounded, and returns the bits a per-point Python loop
returns.  The reports print these kernels' rounding digits, so every
point sees the same float operations in the same order:

* the quadratic form and ``|u|^2`` go through ``np.vecmat`` and
  ``np.vecdot``, which reach the same BLAS gemv and dot as ``v @ A @ v``
  and ``u @ u`` on one point (a hand-written sum, ``einsum`` or ``V @ A``
  rounds differently);
* ``exp``, ``sin`` and ``cos`` are the ``math`` functions mapped over the
  argument arrays (``np.exp`` differs from ``math.exp`` in a few percent
  of inputs);
* sums run left to right through ``np.add.accumulate``, seeded with the
  running total (``np.sum`` adds pairwise).

The mode sums skip every mode whose heat argument -t * lambda is at or
below -746, where ``math.exp`` returns exactly 0.0.  Such a term is
(finite) * 0.0 = +-0.0, and it cannot move a bit of the total: the total
starts at +0.0, a round-to-nearest sum is -0.0 only when both addends
are, so the total is never -0.0, and x + (+-0.0) == x for every other x.

The kernels are timed, as two-route checks, by the numeric-kernels
workload of ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import math

import numpy as np

# No compiled backend exists; the flag stays for callers that report the
# kernel backend in their environment line (the benchmark worker does).
USE_NUMBA = False

__all__ = [
    "USE_NUMBA", "gauss_hermite_gaussian_integral",
    "torus_supertrace", "sphere_supertrace",
]

# points per numpy chunk: larger chunks save little time and cost memory
_CHUNK = 4096
# math.exp(x) is exactly 0.0 for x <= -746 (it is from x = -745.1332...)
_UNDERFLOW = -746.0
# the Gauss-Hermite refinement stops when two successive orders (8, 16, ...)
# differ by less than this share of the value, and gives up past the order
_GH_TOL = 1e-8
_GH_MAX_ORDER = 48


def _mapped(f, x):
    """The math function f applied to each entry of x."""
    return np.fromiter(map(f, x.tolist()), float, count=len(x))


def _running_sum(total, terms):
    """total + terms[0] + terms[1] + ..., added left to right."""
    return float(np.add.accumulate(np.concatenate(([total], terms)))[-1])


# -- Gauss-Hermite tensor quadrature ------------------------------------

def _gh_sum(nodes, weights, scales, A):
    """Sum over the tensor grid of prod(w) * exp(|u|^2 - (Su)^T A (Su)).

    Point ``flat`` takes node ``(flat // m^j) % m`` on axis j, so the
    first axis varies fastest.
    """
    m = len(nodes)
    size = m ** len(scales)
    radix = m ** np.arange(len(scales))
    total = 0.0
    for start in range(0, size, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, size))
        idx = flat[:, None] // radix % m
        u = nodes[idx]
        v = u * scales
        q = np.vecdot(np.vecmat(v, A), v)
        w = np.prod(weights[idx], axis=1)
        total = _running_sum(total, w * _mapped(math.exp, np.vecdot(u, u) - q))
    return total


def gauss_hermite_gaussian_integral(M, four_t):
    """integral over R^b of exp(-v^T M v / four_t) dv by tensor Gauss-Hermite.

    Axes are rescaled by sqrt(four_t / M_jj) so the weight matches the
    Gaussian; the order is refined until two successive results differ by
    less than ``_GH_TOL`` of the value.
    """
    M = np.asarray(M, dtype=float)
    b = M.shape[0]
    if b == 0:
        return 1.0
    scales = np.sqrt(four_t / np.diag(M))
    A = M / four_t
    prev = None
    order = 8
    while order <= _GH_MAX_ORDER:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        val = _gh_sum(nodes, weights, scales, A) * float(np.prod(scales))
        if prev is not None and abs(val - prev) < _GH_TOL * abs(val):
            return val
        prev = val
        order += 8
    raise RuntimeError(f"Gauss-Hermite refinement did not converge to "
                       f"{_GH_TOL} of the value by order {_GH_MAX_ORDER}")


# -- spectral mode sums ---------------------------------------------------

def _reach(top, t, lam):
    """The largest k in 0..top whose heat factor exp(-t * lam(k)) can be
    nonzero, for a float lam(k) that grows with k.

    Past the reach every heat argument is at or below ``_UNDERFLOW``.  A
    bisection, so no t > 0 overflows an estimate like sqrt(746 / t).
    """
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if -t * lam(mid) <= _UNDERFLOW:
            hi = mid - 1
        else:
            lo = mid
    return lo


def torus_supertrace(kmax, vx, vy, minus_id, t):
    """Supertrace over the torus lattice |k_i| <= kmax, for t > 0.

    Translation by v: every mode carries weight cos(k.v) and the form
    degrees contribute (1 - 2 + 1) = 0.  The modes are summed with kx
    outer and ky inner.  With the -id involution only self-paired modes
    (k = -k, i.e. k = 0) are diagonal and the form trace pattern is
    (1, +2, 1); no other mode adds to the sum.
    """
    if minus_id:
        return (1.0 + 2.0 + 1.0) * math.exp(-t * 0.0)
    side = 2 * kmax + 1
    # the loop's math.cos raises on an angle k.v that overflows, also on
    # a mode past the reach; the corner mode has the largest |k.v|
    math.cos(kmax * abs(vx) + kmax * abs(vy))
    # rows with |kx| past the reach hold only zero heat factors; in the
    # other rows the modes past the underflow are masked out
    reach = _reach(kmax, t, lambda k: float(k * k))
    stop = (kmax + reach + 1) * side
    total = 0.0
    for start in range((kmax - reach) * side, stop, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, stop))
        kx = flat // side - kmax
        ky = flat % side - kmax
        arg = -t * (kx * kx + ky * ky).astype(float)
        live = ~(arg <= _UNDERFLOW)     # a NaN argument stays, as in the loop
        heat = _mapped(math.exp, arg[live])
        w = _mapped(math.cos, kx[live] * vx + ky[live] * vy)
        total = _running_sum(total, w * (1.0 - 2.0 + 1.0) * heat)
    return total


def sphere_supertrace(lmax, theta, t):
    """Supertrace over the sphere towers l <= lmax under rotation theta.

    Tower l adds its degree-0, degree-2 and (for l >= 1) degree-1 terms,
    in that order.  The towers stop at the reach: past it every heat
    factor is 0.0.
    """
    half = math.sin(theta / 2.0)
    if abs(half) >= 1e-14:
        # the loop's math.sin raises on an angle that overflows, also on a
        # tower past the reach; tower lmax has the largest
        math.sin((lmax + 0.5) * theta)
    top = _reach(lmax, t, lambda l: float(l * (l + 1)))
    total = 0.0
    for start in range(0, top + 1, _CHUNK):
        l = np.arange(start, min(start + _CHUNK, top + 1))
        if abs(half) < 1e-14:
            chi = 2.0 * l + 1.0
        else:
            chi = _mapped(math.sin, (l + 0.5) * theta) / half
        heat = _mapped(math.exp, -t * (l * (l + 1)).astype(float))
        # degree 0, degree 2, then degree 1 (exact + coexact) with sign -
        terms = np.stack([chi * heat, chi * heat, -(2.0 * chi * heat)],
                         axis=1).ravel()
        if start == 0:
            terms = np.delete(terms, 2)   # l = 0 has no degree-1 term
        total = _running_sum(total, terms)
    return total
