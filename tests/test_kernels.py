"""The chunked numpy kernels return the bits of the per-point loops.

The loops below are the kernels as they were written before they were
vectorised: one point at a time, ``math`` functions, a running float
total.  The reports print the kernels' rounding digits, so the results
are compared by ``repr``, not with a tolerance.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatchern import _kernels
from heatchern._kernels import (gauss_hermite_gaussian_integral,
                                sphere_supertrace, torus_supertrace)
from heatchern.equivariant import IsometryNormalForm, fiber_integral_quadrature

CHUNK = _kernels._CHUNK


# -- the per-point loops (oracle) -----------------------------------------

def gh_sum_loop(nodes, weights, scales, A):
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


def gh_integral_loop(M, four_t, tol=1e-8, max_order=48):
    M = np.asarray(M, dtype=float)
    scales = np.sqrt(four_t / np.diag(M))
    A = M / four_t
    prev = None
    order = 8
    while order <= max_order:
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        val = gh_sum_loop(nodes, weights, scales, A) * float(np.prod(scales))
        if prev is not None and abs(val - prev) < tol * abs(val):
            return val
        prev = val
        order += 8
    raise RuntimeError(f"Gauss-Hermite refinement did not converge to {tol} "
                       f"of the value by order {max_order}")


def torus_loop(kmax, vx, vy, minus_id, t):
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


def sphere_loop(lmax, theta, t):
    total = 0.0
    for l in range(lmax + 1):
        lam = float(l * (l + 1))
        if abs(math.sin(theta / 2.0)) < 1e-14:
            chi = 2.0 * l + 1.0
        else:
            chi = math.sin((l + 0.5) * theta) / math.sin(theta / 2.0)
        heat = math.exp(-t * lam)
        total += chi * heat
        total += chi * heat
        if l >= 1:
            total -= 2.0 * chi * heat
    return total


# -- strategies -------------------------------------------------------------

@st.composite
def spd_matrices(draw, b):
    """A general symmetric positive definite b x b matrix B B^T + c I."""
    entry = st.floats(-1.5, 1.5, allow_nan=False, allow_subnormal=False)
    B = np.array(draw(st.lists(entry, min_size=b * b, max_size=b * b)),
                 dtype=float).reshape(b, b)
    return B @ B.T + draw(st.floats(0.05, 2.0)) * np.eye(b)


# order^b grid points per example, so the loop oracle stays fast
GRID_POINTS = 20000
DENSE_B = np.array([[1.35, -0.75, 0.92, 0.53], [0.65, 0.39, 1.41, -0.5],
                    [-0.31, -0.89, -1.35, -0.86], [1.25, 1.02, -1.16, 0.31]])
positive_t = st.floats(1e-3, 4.0, allow_nan=False)
angles = st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi,
                                           exclude_max=True))


# -- Gauss-Hermite ----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gh_sum_matches_loop(data):
    b = data.draw(st.integers(1, 4))
    order = data.draw(st.integers(8, 24).filter(
        lambda m: m ** b <= GRID_POINTS))
    M = data.draw(spd_matrices(b))
    four_t = data.draw(st.floats(0.1, 4.0))
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    scales = np.sqrt(four_t / np.diag(M))
    A = M / four_t
    assert repr(_kernels._gh_sum(nodes, weights, scales, A)) == \
        repr(gh_sum_loop(nodes, weights, scales, A))


def test_gh_sum_dense_b4_matches_loop():
    # a dense b = 4 form, where a stacked V @ A (gemm) would round the
    # quadratic form differently from the per-point v @ A (gemv)
    M = DENSE_B @ DENSE_B.T + 0.98 * np.eye(4)
    nodes, weights = np.polynomial.hermite.hermgauss(8)
    scales = np.sqrt(2.42 / np.diag(M))
    A = M / 2.42
    assert repr(_kernels._gh_sum(nodes, weights, scales, A)) == \
        repr(gh_sum_loop(nodes, weights, scales, A))


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_gh_integral_matches_loop(data):
    b = data.draw(st.integers(1, 3))
    M = data.draw(spd_matrices(b))
    four_t = data.draw(st.floats(0.1, 4.0))
    tol = data.draw(st.sampled_from([1e-8, 1e-3]))
    try:
        expected = repr(gh_integral_loop(M, four_t, tol, 24))
    except RuntimeError as exc:
        expected = str(exc)
    with mock.patch.multiple(_kernels, _GH_TOL=tol, _GH_MAX_ORDER=24):
        try:
            got = repr(gauss_hermite_gaussian_integral(M, four_t))
        except RuntimeError as exc:
            got = str(exc)
    assert got == expected


def test_gh_refinement_error_text():
    M = np.array([[1.0, 0.3], [0.3, 1.2]])
    with pytest.raises(RuntimeError) as expected:
        gh_integral_loop(M, 0.4, tol=0.0, max_order=16)
    with mock.patch.multiple(_kernels, _GH_TOL=0.0, _GH_MAX_ORDER=16), \
            pytest.raises(RuntimeError) as got:
        gauss_hermite_gaussian_integral(M, 0.4)
    assert str(got.value) == str(expected.value) == (
        "Gauss-Hermite refinement did not converge to 0.0 of the value "
        "by order 16")


@pytest.mark.parametrize("order", [8, 16, 24, 32, 40, 48, 9, 17, 91])
def test_hermgauss_is_exactly_mirrored(order):
    # _gh_sum evaluates half the grid on this premise
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    assert np.array_equal(nodes[::-1], -nodes)
    assert np.array_equal(weights[::-1], weights)


@pytest.mark.parametrize("order,b", [(9, 1), (9, 2), (9, 3), (9, 4),
                                     (90, 2), (91, 2)])
def test_gh_sum_mirror_matches_loop(order, b):
    # an odd order has a middle point, which is summed once; at b = 2 the
    # stored half of 90^2 points fits one chunk and that of 91^2 does not
    assert (90 ** 2 + 1) // 2 <= CHUNK < (91 ** 2 + 1) // 2
    B = DENSE_B[:b, :b]
    M = B @ B.T + 0.98 * np.eye(b)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    scales = np.sqrt(2.42 / np.diag(M))
    A = M / 2.42
    assert repr(_kernels._gh_sum(nodes, weights, scales, A)) == \
        repr(gh_sum_loop(nodes, weights, scales, A))


@pytest.mark.parametrize("b", [1, 2, 3])
def test_gh_maps_exp_once_per_mirrored_pair(b):
    # (m^b + 1) // 2 exp calls at order m, the middle point of an odd m^b
    # included, in chunks of the evaluated half
    M = np.eye(b) + 0.25
    _, count = mapped_count(_kernels._gh_sum,
                            *np.polynomial.hermite.hermgauss(9), np.ones(b), M)
    assert count == (9 ** b + 1) // 2
    # the refinement runs orders 8, 16 and 24 before it gives up
    with mock.patch.object(_kernels, "_mapped", wraps=_kernels._mapped) \
            as mapped, mock.patch.multiple(_kernels, _GH_TOL=0.0,
                                           _GH_MAX_ORDER=24), \
            pytest.raises(RuntimeError):
        gauss_hermite_gaussian_integral(M, 1.3)
    expected = []
    for m in (8, 16, 24):
        half = (m ** b + 1) // 2
        expected += [min(CHUNK, half - start) for start in range(0, half, CHUNK)]
    assert [len(c.args[1]) for c in mapped.call_args_list] == expected


# -- spectral mode sums -----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(lmax=st.one_of(st.integers(0, 40),
                      st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1])),
       theta=angles, t=positive_t)
# inputs where np.exp or np.sin in place of math.exp and math.sin would
# change the result's bits
@example(lmax=29, theta=0.0, t=0.1049272554254689)
@example(lmax=15, theta=4.285608821129756, t=0.09492306503791115)
def test_sphere_matches_loop(lmax, theta, t):
    assert repr(sphere_supertrace(lmax, theta, t)) == \
        repr(sphere_loop(lmax, theta, t))


@pytest.mark.parametrize("lmax", [CHUNK - 1, CHUNK, CHUNK + 1])
def test_sphere_trivial_rotation_matches_loop(lmax):
    # theta = 0 takes the chi = 2l + 1 branch
    for t in (1e-7, 1e-3, 0.37):
        assert repr(sphere_supertrace(lmax, 0.0, t)) == \
            repr(sphere_loop(lmax, 0.0, t))


@settings(max_examples=30, deadline=None)
@given(kmax=st.integers(0, 50), vx=angles, vy=angles,
       minus_id=st.booleans(), t=positive_t)
def test_torus_matches_loop(kmax, vx, vy, minus_id, t):
    # (2 kmax + 1)^2 modes are odd in number, so no chunk boundary
    # falls on a row of the lattice
    assert repr(torus_supertrace(kmax, vx, vy, minus_id, t)) == \
        repr(torus_loop(kmax, vx, vy, minus_id, t))


# -- the cut at the underflow of math.exp -----------------------------------

# math.exp is nonzero at -745.1332191019411 and 0.0 from the next float on;
# the kernels skip a mode from a heat argument of -746 on
EXP_LAST_NONZERO = 745.1332191019411
EXP_FIRST_ZERO = 745.1332191019412


def test_exp_underflow_boundary():
    assert math.exp(-EXP_LAST_NONZERO) == 5e-324
    assert math.exp(-EXP_FIRST_ZERO) == 0.0
    assert math.exp(-746.0) == 0.0


def mapped_count(call, *args):
    """The result of call(*args) and how many entries it maps math over."""
    with mock.patch.object(_kernels, "_mapped",
                           wraps=_kernels._mapped) as mapped:
        result = call(*args)
    return result, sum(len(c.args[1]) for c in mapped.call_args_list)


@pytest.mark.parametrize("t_lam", [EXP_LAST_NONZERO, EXP_FIRST_ZERO,
                                   np.nextafter(746.0, 0.0), 746.0])
def test_cut_either_side_of_underflow(t_lam):
    # one mode, lambda = 2 on the sphere (l = 1) and lambda = 1 on the
    # torus (k = (+-1, 0) and (0, +-1)), at t * lambda = t_lam
    for theta in (0.0, 0.7):
        assert repr(sphere_supertrace(1, theta, t_lam / 2.0)) == \
            repr(sphere_loop(1, theta, t_lam / 2.0))
    assert repr(torus_supertrace(1, 0.3, 2.9, False, t_lam)) == \
        repr(torus_loop(1, 0.3, 2.9, False, t_lam))
    # sin and exp on each tower the sphere evaluates: l = 1 goes at -746
    _, count = mapped_count(sphere_supertrace, 1, 0.7, t_lam / 2.0)
    assert count == (2 if t_lam >= 746.0 else 4)
    # cos on each live torus mode, exp on each distinct live |k|^2: (0, 0)
    # alone from -746 on, below it also the four modes with |k|^2 = 1
    _, count = mapped_count(torus_supertrace, 1, 0.3, 2.9, False, t_lam)
    assert count == (2 if t_lam >= 746.0 else 5 + 2)


@pytest.mark.parametrize("lmax", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("reach", [40, CHUNK - 1, CHUNK])
def test_sphere_cut_at_chunk_edges_matches_loop(lmax, reach):
    # t puts the last nonzero heat factor at l = reach: inside the first
    # chunk, at its last tower, or on the first tower of the second
    t = float(np.nextafter(746.0 / ((reach + 1) * (reach + 2)), 1.0))
    assert -t * float(reach * (reach + 1)) > -746.0
    assert -t * float((reach + 1) * (reach + 2)) <= -746.0
    for theta in (0.0, 0.7):
        assert repr(sphere_supertrace(lmax, theta, t)) == \
            repr(sphere_loop(lmax, theta, t))


@pytest.mark.parametrize("reach", [0, 1, 7, 49, 50])
def test_torus_cut_rows_matches_loop(reach):
    # rows |kx| > reach are skipped, and the chunks start inside a row
    t = float(np.nextafter(746.0 / (reach + 1) ** 2, 1.0))
    assert -t * float(reach * reach) > -746.0
    for v in ((0.0, 0.0), (0.3, 2.9)):
        assert repr(torus_supertrace(50, *v, False, t)) == \
            repr(torus_loop(50, *v, False, t))


@pytest.mark.parametrize("t", [5e-324, 1e-300])
@pytest.mark.parametrize("cutoff", [0, 1, 3])
def test_tiny_t_matches_loop(t, cutoff):
    # nothing is cut, and finding the reach overflows nothing
    assert repr(sphere_supertrace(cutoff, 0.7, t)) == \
        repr(sphere_loop(cutoff, 0.7, t))
    assert repr(torus_supertrace(cutoff, 0.3, 2.9, False, t)) == \
        repr(torus_loop(cutoff, 0.3, 2.9, False, t))


def test_mode_sums_map_only_the_modes_inside_the_reach():
    # cos once per live mode and exp once per distinct live |k|^2 (torus),
    # sin and exp once per live tower (sphere)
    k = np.arange(-300, 301)
    lam = (k[:, None] ** 2 + k[None, :] ** 2).astype(float)
    live = lam[-1.0 * lam > -746.0]
    distinct = len(np.unique(live))
    value, count = mapped_count(torus_supertrace, 300, 0.3, 2.9, False, 1.0)
    assert count == len(live) + distinct < 601 ** 2 // 100
    assert distinct < len(live) // 4
    assert repr(value) == repr(torus_loop(30, 0.3, 2.9, False, 1.0))
    # 0.5 l (l + 1) < 746 holds up to l = 38
    value, count = mapped_count(sphere_supertrace, 100000, 0.7, 0.5)
    assert count == 2 * 39
    assert repr(value) == repr(sphere_loop(40, 0.7, 0.5))


@pytest.mark.parametrize("t", [1.0, 1000.0])
def test_overflowing_angle_raises_as_in_loop(t):
    # at t = 1000 only k = 0 lies inside the reach, and the angles that
    # overflow lie past it: the loop still raises there, and so must the cut
    cases = [(torus_supertrace, torus_loop, (3, 1e308, 0.0, False, t)),
             (torus_supertrace, torus_loop, (3, 0.5, -1e308, False, t)),
             (sphere_supertrace, sphere_loop, (3, 1e308, t))]
    for kernel, loop, args in cases:
        with pytest.raises(ValueError, match="math domain error"):
            loop(*args)
        with pytest.raises(ValueError, match="math domain error"):
            kernel(*args)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_infinite_angle_on_the_zero_mode_alone_is_nan():
    # 0 * inf is nan, which math.cos takes without an error
    assert repr(torus_supertrace(0, math.inf, 0.0, False, 1.0)) == \
        repr(torus_loop(0, math.inf, 0.0, False, 1.0)) == "nan"


def test_kernel_memory_stays_bounded():
    # what outlives a chunk, the evaluated half of the b = 4 Gauss-Hermite
    # terms (16^4 / 2 at the last order) and the torus heat factor per
    # |k|^2 <= 2 * 300^2, fits in 2 MB; the whole grid would not
    iso = IsometryNormalForm(4, 0, (0.9, 2.1))
    for call, args in ((torus_supertrace, (300, 0.3, 2.9, False, 0.005)),
                       (fiber_integral_quadrature, (iso, 0.7))):
        call(*args)
        tracemalloc.start()
        try:
            call(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10 ** 6
