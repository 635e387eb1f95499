import math

import numpy as np
import pytest

from heatchern.spectral import (FiniteComplex, IsometryAction, SpectralModel,
                                finite_torsion,
                                fixed_point_prediction, heat_supertrace,
                                lefschetz_number, log_finite_torsion,
                                tail_bound, torsion_variation)

CUTOFF = 40


def test_model_validation():
    with pytest.raises(ValueError):
        SpectralModel("klein-bottle", 10)
    with pytest.raises(ValueError):
        SpectralModel("torus", 0)
    with pytest.raises(ValueError):
        IsometryAction.translation(-0.1, 0.0)
    with pytest.raises(ValueError):
        IsometryAction.rotation(7.0)
    with pytest.raises(ValueError):
        IsometryAction("minus-id", (1.0,))
    with pytest.raises(ValueError):
        IsometryAction("shear", ())


def test_geometry_action_pairing():
    with pytest.raises(ValueError):
        heat_supertrace(SpectralModel("torus", 5), IsometryAction.rotation(0.5),
                        1.0)
    with pytest.raises(ValueError):
        heat_supertrace(SpectralModel("sphere", 5),
                        IsometryAction("translation", (0.0, 0.0)), 1.0)
    with pytest.raises(ValueError):
        heat_supertrace(SpectralModel("torus", 5),
                        IsometryAction("translation", (0.0, 0.0)), -1.0)


def test_reference_supertrace_values():
    sphere = SpectralModel("sphere", CUTOFF)
    torus = SpectralModel("torus", CUTOFF)
    for t in (0.1, 0.5, 1.0):
        assert heat_supertrace(sphere, IsometryAction.rotation(0.7), t) \
            == pytest.approx(2.0, abs=1e-8)
        identity = IsometryAction("translation", (0.0, 0.0))
        assert heat_supertrace(torus, identity, t) \
            == pytest.approx(0.0, abs=1e-8)
        assert heat_supertrace(torus, IsometryAction.translation(0.3, 0.4), t) \
            == pytest.approx(0.0, abs=1e-8)
        assert heat_supertrace(torus, IsometryAction("minus-id"), t) \
            == pytest.approx(4.0, abs=1e-8)


def test_supertrace_t_constancy():
    sphere = SpectralModel("sphere", CUTOFF)
    vals = [heat_supertrace(sphere, IsometryAction.rotation(1.3), t)
            for t in np.linspace(0.05, 2.0, 9)]
    assert max(vals) - min(vals) < 1e-9


def test_cutoff_doubling_stable():
    for geometry, action in [("sphere", IsometryAction.rotation(0.4)),
                             ("torus", IsometryAction("minus-id"))]:
        v1 = heat_supertrace(SpectralModel(geometry, 25), action, 0.3)
        v2 = heat_supertrace(SpectralModel(geometry, 50), action, 0.3)
        assert abs(v1 - v2) < 1e-10


def test_tail_bound_certification():
    big = SpectralModel("torus", CUTOFF)
    assert tail_bound(big, 0.05) < 1e-12
    # a starved cutoff cannot certify the same accuracy
    assert tail_bound(SpectralModel("torus", 2), 0.05) > 1e-12
    assert tail_bound(SpectralModel("sphere", CUTOFF), 0.05) < 1e-12
    with pytest.raises(ValueError):
        tail_bound(big, 0.0)


def _dropped_mass(model, t):
    """Brute force: the form-weight bound summed over every dropped mode."""
    K = model.cutoff
    far = K + int(math.ceil(math.sqrt(80.0 / t)))   # e^{-t far^2} < e^{-80}
    if model.geometry == "torus":
        k = np.arange(-far, far + 1)
        kx, ky = np.meshgrid(k, k)
        dropped = (np.abs(kx) > K) | (np.abs(ky) > K)
        return math.fsum((4.0 * np.exp(-t * (kx * kx + ky * ky)[dropped])).tolist())
    return math.fsum(4.0 * (2 * l + 1) * math.exp(-t * l * (l + 1))
                     for l in range(K + 1, far + 1))


@pytest.mark.parametrize("geometry", ["torus", "sphere"])
@pytest.mark.parametrize("K,t", [(3, 0.2), (5, 0.05), (10, 0.01), (40, 0.001),
                                 (1, 1.0), (2, 0.5)])
def test_tail_bound_dominates_brute_force(geometry, K, t):
    model = SpectralModel(geometry, K)
    true = _dropped_mass(model, t)
    assert true > 0
    bound = tail_bound(model, t)
    assert bound >= true * (1 - 1e-12)
    # and it is the dropped mass itself, not a loose majorant
    assert bound <= true * (1 + 1e-9)


@pytest.mark.parametrize("geometry", ["torus", "sphere"])
def test_tail_bound_gives_up_after_a_million_terms(geometry):
    with pytest.raises(RuntimeError, match="1000000 terms"):
        tail_bound(SpectralModel(geometry, 40), 1e-300)


def test_supertrace_matches_harmonic_count():
    # the heat supertrace is t-independent and equals the alternating
    # trace on the zero-eigenvalue modes
    pairs = [("sphere", IsometryAction.rotation(0.7)),
             ("torus", IsometryAction("translation", (0.0, 0.0))),
             ("torus", IsometryAction.translation(1.1, 0.2)),
             ("torus", IsometryAction("minus-id"))]
    for geometry, action in pairs:
        model = SpectralModel(geometry, CUTOFF)
        want = lefschetz_number(model, action)
        assert heat_supertrace(model, action, 0.8) \
            == pytest.approx(want, abs=1e-8)
        assert fixed_point_prediction(geometry, action) \
            == pytest.approx(want, abs=1e-12)


def test_fixed_point_prediction_validation():
    with pytest.raises(ValueError):
        fixed_point_prediction("sphere", IsometryAction("minus-id"))
    with pytest.raises(ValueError):
        fixed_point_prediction("torus", IsometryAction.rotation(0.1))
    with pytest.raises(ValueError):
        fixed_point_prediction("cylinder", IsometryAction.rotation(0.1))


def test_lefschetz_number_from_harmonic_modes():
    # the cutoff-0 mode sum gives the fixed-point values exactly, at any
    # cutoff of the model it is handed
    pairs = [("sphere", IsometryAction.rotation(theta))
             for theta in (0.0, 1e-15, 0.3, 0.7, math.pi / 2, math.pi, 2.8)]
    pairs += [("torus", IsometryAction.translation(vx, vy))
              for vx, vy in ((0.0, 0.0), (1.1, 0.2), (math.pi, 0.5))]
    pairs += [("torus", IsometryAction("minus-id"))]
    for geometry, action in pairs:
        want = fixed_point_prediction(geometry, action)
        for cutoff in (1, CUTOFF):
            assert lefschetz_number(SpectralModel(geometry, cutoff), action) \
                == want
    with pytest.raises(ValueError):
        lefschetz_number(SpectralModel("torus", 1), IsometryAction.rotation(0.1))


# -- finite complexes ----------------------------------------------------

def two_term(a=2.0, phi=None):
    return FiniteComplex(dims=(1, 1), d=[[[a]]], phi=phi)


def test_finite_complex_validation():
    with pytest.raises(ValueError):
        FiniteComplex(dims=(1, 1), d=[])
    with pytest.raises(ValueError):
        FiniteComplex(dims=(2, 1), d=[[[1.0]]])
    # d^2 != 0, also when it is small next to 1 but not next to |d| |d|
    for a in (1.0, 1e-7):
        with pytest.raises(ValueError, match="d squared"):
            FiniteComplex(dims=(1, 1, 1), d=[[[a]], [[a]]])
    with pytest.raises(ValueError):
        FiniteComplex(dims=(2, 2), d=[[[1.0, 0.0], [0.0, 2.0]]],
                      phi=[[[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
    with pytest.raises(ValueError):
        log_finite_torsion(two_term(), h=[[[1.0]], [[-1.0]]])
    with pytest.raises(ValueError):
        log_finite_torsion(two_term(), h=[[[1.0]]])


def test_action_is_the_identity_when_none_is_given():
    cx = FiniteComplex(dims=(1, 3, 2), d=[np.zeros((3, 1)), np.zeros((2, 3))])
    assert [p.tolist() for p in cx.phi] \
        == [np.eye(dim).tolist() for dim in (1, 3, 2)]


def test_float_checks_refuse_more_than_rounding():
    # each residual is far above rounding next to its operands, though
    # within 1e-5 of them or within 1e-12 of zero
    with pytest.raises(ValueError, match="commute"):
        FiniteComplex(dims=(2, 2), d=[np.diag([1.0, 2.0])],
                      phi=[np.eye(2), (1 + 5e-6) * np.eye(2)])
    cx = FiniteComplex(dims=(2, 2), d=[np.diag([1.0, 2.0])])
    for metric in (1e-13 * np.array([[2.0, 1.0], [-1.0, 2.0]]),
                   [[1.0, 0.5 + 1e-6], [0.5, 1.0]]):
        with pytest.raises(ValueError, match="symmetric"):
            log_finite_torsion(cx, h=[np.eye(2), metric])
    # a metric Q D Q^T is symmetric only up to rounding, and that passes
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((2, 2)))
    metric = q @ np.diag([1.0, 3.0]) @ q.T
    assert not np.array_equal(metric, metric.T)
    assert math.isfinite(log_finite_torsion(cx, h=[np.eye(2), metric]))


def test_torsion_closed_form():
    # d = (a): tau = 1/|a|, exactly
    for a in (2.0, 3.0, 0.5, -4.0, 1e-6):
        assert finite_torsion(two_term(a)) == pytest.approx(1.0 / abs(a),
                                                            rel=1e-14)
    assert log_finite_torsion(two_term(2.0)) == pytest.approx(-math.log(2.0),
                                                              rel=1e-14)


def test_torsion_inverts_each_cholesky_factor_once(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(np.shape(a))
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    # levels 1 and 2 are non-empty, level 0 is empty
    cx = FiniteComplex(dims=(0, 2, 2), d=[np.zeros((2, 0)), np.diag([1.0, 2.0])])
    h = [np.eye(0), np.diag([2.0, 3.0]), np.array([[2.0, 1.0], [1.0, 2.0]])]
    assert math.isfinite(log_finite_torsion(cx, h))
    assert calls == [(2, 2), (2, 2)]


def test_torsion_metric_scaling_closed_form():
    # rescaling the top metric by s^2 rescales d* by s^2 in the Laplacian
    cx = two_term(2.0)
    for s2 in (9.0, 1e-12):
        val = log_finite_torsion(cx, h=[[[1.0]], [[s2]]])
        assert val == pytest.approx(-0.5 * math.log(4.0 * s2), rel=1e-12)


def test_torsion_equivariant_sign():
    cx = two_term(2.0, phi=[[[-1.0]], [[-1.0]]])
    assert log_finite_torsion(cx) == pytest.approx(math.log(2.0), rel=1e-14)


def test_torsion_unitary_invariance(rng):
    dmat = np.array([[1.0, 2.0], [0.0, 3.0]])
    base = log_finite_torsion(FiniteComplex(dims=(2, 2), d=[dmat]))
    for _ in range(5):
        q0, _ = np.linalg.qr(np.array(
            [[rng.gauss(0, 1) for _ in range(2)] for _ in range(2)]))
        q1, _ = np.linalg.qr(np.array(
            [[rng.gauss(0, 1) for _ in range(2)] for _ in range(2)]))
        rotated = FiniteComplex(dims=(2, 2), d=[q1 @ dmat @ q0.T])
        assert abs(log_finite_torsion(rotated) - base) < 1e-12


def test_torsion_direct_sum_multiplicative():
    a, b = 2.0, 5.0
    joint = FiniteComplex(dims=(2, 2), d=[np.diag([a, b])])
    assert finite_torsion(joint) \
        == pytest.approx(finite_torsion(two_term(a)) * finite_torsion(two_term(b)),
                         rel=1e-12)


def test_torsion_requires_acyclic():
    cx = FiniteComplex(dims=(1, 1), d=[[[0.0]]])
    with pytest.raises(ValueError):
        log_finite_torsion(cx)
    # R -> R^2 has cohomology at level 1, however small d is
    cx = FiniteComplex(dims=(1, 2), d=[[[1e-6], [0.0]]])
    with pytest.raises(ValueError, match="not acyclic at level 1"):
        log_finite_torsion(cx)


def test_wide_spectrum_is_acyclic():
    # Laplacian eigenvalues 1e-6 and 4e6 at both levels: far apart, but the
    # smaller is far above the rounding of the larger
    cx = FiniteComplex(dims=(2, 2), d=[np.diag([1e-3, 2e3])])
    assert log_finite_torsion(cx) == pytest.approx(-math.log(2.0), rel=1e-12)


def test_swap_action_at_large_scale():
    # d = 1e7 (1 + 0.3 S) on the +1 and -1 eigenlines of the swap S
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    cx = FiniteComplex(dims=(2, 2), d=[1e7 * np.array([[1.0, 0.3], [0.3, 1.0]])],
                       phi=[swap, swap])
    assert log_finite_torsion(cx) == -0.6190392084062228
    assert log_finite_torsion(cx) == pytest.approx(-math.log(13 / 7), rel=1e-14)


def _z3_shift(s, top=1.0):
    """R^3 -> R^3 with d = s (2 - P) for the cyclic shift P, and phi = P on
    the bottom level, top P on the top one."""
    shift = np.roll(np.eye(3), 1, axis=0)
    return FiniteComplex(dims=(3, 3), d=[s * (2 * np.eye(3) - shift)],
                         phi=[shift, top * shift])


@pytest.mark.parametrize("s", [10.0 ** e for e in range(-8, 9)])
def test_z3_shift_torsion_is_scale_free(s):
    # Laplacian eigenvalues s^2 on the invariant line, where tr P = 1, and
    # 7 s^2 on its complement, where tr P = -1: the s^2 cancels
    assert log_finite_torsion(_z3_shift(s)) \
        == pytest.approx(0.5 * math.log(7.0), rel=0, abs=1e-14)
    with pytest.raises(ValueError, match="commute"):
        _z3_shift(s, top=1 + 1e-6)


def _orthonormal_complex(scale):
    """R -> R^3 -> R^2 from the columns of a random orthogonal matrix, times
    scale: d_1 d_0 vanishes up to rounding, and log tau = log scale."""
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
    return FiniteComplex(dims=(1, 3, 2),
                         d=[scale * q[:, :1], scale * q[:, 1:].T])


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e-6])
def test_rescaled_complex_is_accepted(scale):
    assert log_finite_torsion(_orthonormal_complex(scale)) \
        == pytest.approx(math.log(scale), abs=1e-9)


def test_variation_linear_path_exact():
    cx = two_term(2.0)

    def path(e):
        return [[[math.exp(2.0 * e)]], [[1.0]]]

    var = torsion_variation(cx, path, eps=0.3)
    assert var.finite_difference == pytest.approx(1.0, abs=1e-8)
    assert var.trace_formula == pytest.approx(1.0, abs=1e-8)
    assert abs(var.finite_difference - var.trace_formula) < 1e-8


def test_variation_second_order_convergence():
    cx = FiniteComplex(dims=(2, 2), d=[np.array([[1.0, 2.0], [0.0, 3.0]])])
    M = np.array([[1.0, 0.5], [0.5, 2.0]])

    def path(e):
        h1 = np.eye(2) + 0.3 * math.sin(e) * M + 0.2 * e * e * np.eye(2)
        return [np.eye(2), h1]

    def residual(step):
        tv = torsion_variation(cx, path, eps=0.4, step=step)
        return abs(tv.finite_difference - tv.trace_formula)

    assert residual(1e-2) / residual(5e-3) == pytest.approx(4.0, rel=0.2)
    assert residual(1e-4) < 1e-7
    with pytest.raises(ValueError):
        torsion_variation(cx, path, eps=0.4, step=0.0)
