import math

import numpy as np
import pytest

from heatchern.spectral import (FiniteComplex, IsometryAction, SpectralModel,
                                TailBoundExceeded, build_model, finite_torsion,
                                fixed_point_prediction, heat_supertrace,
                                lefschetz_number, log_finite_torsion,
                                tail_bound, torsion_variation,
                                variation_supertrace)

CUTOFF = 40


def test_model_validation():
    with pytest.raises(ValueError):
        build_model("klein-bottle", 10)
    with pytest.raises(ValueError):
        build_model("torus", 0)
    with pytest.raises(ValueError):
        IsometryAction.translation(-0.1, 0.0)
    with pytest.raises(ValueError):
        IsometryAction.rotation(7.0)
    with pytest.raises(ValueError):
        IsometryAction("minus-id", (1.0,))
    with pytest.raises(ValueError):
        IsometryAction("shear", ())


def test_mode_counts():
    torus = build_model("torus", 1)
    assert torus.mode_count(0) == 9
    assert torus.mode_count(1) == 18
    assert torus.mode_count(2) == 9
    assert torus.mode_count(3) == 0
    sphere = build_model("sphere", 3)
    assert sphere.mode_count(0) == 1 + 3 + 5 + 7
    assert sphere.mode_count(2) == sphere.mode_count(0)
    assert sphere.mode_count(1) == 2 * (3 + 5 + 7)


def test_geometry_action_pairing():
    with pytest.raises(ValueError):
        heat_supertrace(build_model("torus", 5), IsometryAction.rotation(0.5),
                        1.0)
    with pytest.raises(ValueError):
        heat_supertrace(build_model("sphere", 5),
                        IsometryAction.identity_torus(), 1.0)
    with pytest.raises(ValueError):
        heat_supertrace(build_model("torus", 5),
                        IsometryAction.identity_torus(), -1.0)


def test_reference_supertrace_values():
    sphere = build_model("sphere", CUTOFF)
    torus = build_model("torus", CUTOFF)
    for t in (0.1, 0.5, 1.0):
        assert heat_supertrace(sphere, IsometryAction.rotation(0.7), t) \
            == pytest.approx(2.0, abs=1e-8)
        assert heat_supertrace(torus, IsometryAction.identity_torus(), t) \
            == pytest.approx(0.0, abs=1e-8)
        assert heat_supertrace(torus, IsometryAction.translation(0.3, 0.4), t) \
            == pytest.approx(0.0, abs=1e-8)
        assert heat_supertrace(torus, IsometryAction.minus_id(), t) \
            == pytest.approx(4.0, abs=1e-8)


def test_supertrace_t_constancy():
    sphere = build_model("sphere", CUTOFF)
    vals = [heat_supertrace(sphere, IsometryAction.rotation(1.3), t)
            for t in np.linspace(0.05, 2.0, 9)]
    assert max(vals) - min(vals) < 1e-9


def test_cutoff_doubling_stable():
    for geometry, action in [("sphere", IsometryAction.rotation(0.4)),
                             ("torus", IsometryAction.minus_id())]:
        v1 = heat_supertrace(build_model(geometry, 25), action, 0.3)
        v2 = heat_supertrace(build_model(geometry, 50), action, 0.3)
        assert abs(v1 - v2) < 1e-10


def test_tail_bound_certification():
    big = build_model("torus", CUTOFF)
    assert tail_bound(big, 0.05) < 1e-12
    # certified call succeeds, starved cutoff raises
    heat_supertrace(big, IsometryAction.minus_id(), 0.05, tol=1e-12)
    small = build_model("torus", 2)
    with pytest.raises(TailBoundExceeded):
        heat_supertrace(small, IsometryAction.minus_id(), 0.05, tol=1e-12)
    assert tail_bound(build_model("sphere", CUTOFF), 0.05) < 1e-12
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
    model = build_model(geometry, K)
    true = _dropped_mass(model, t)
    assert true > 0
    bound = tail_bound(model, t)
    assert bound >= true * (1 - 1e-12)
    # and it is the dropped mass itself, not a loose majorant
    assert bound <= true * (1 + 1e-9)


def test_supertrace_matches_harmonic_count():
    # the heat supertrace is t-independent and equals the alternating
    # trace on the zero-eigenvalue modes
    pairs = [("sphere", IsometryAction.rotation(0.7)),
             ("torus", IsometryAction.identity_torus()),
             ("torus", IsometryAction.translation(1.1, 0.2)),
             ("torus", IsometryAction.minus_id())]
    for geometry, action in pairs:
        model = build_model(geometry, CUTOFF)
        want = lefschetz_number(model, action)
        assert heat_supertrace(model, action, 0.8) \
            == pytest.approx(want, abs=1e-8)
        assert fixed_point_prediction(geometry, action) \
            == pytest.approx(want, abs=1e-12)


def test_fixed_point_prediction_validation():
    with pytest.raises(ValueError):
        fixed_point_prediction("sphere", IsometryAction.minus_id())
    with pytest.raises(ValueError):
        fixed_point_prediction("torus", IsometryAction.rotation(0.1))
    with pytest.raises(ValueError):
        fixed_point_prediction("cylinder", IsometryAction.rotation(0.1))


def test_variation_supertrace_scalar_insertion():
    model = build_model("torus", CUTOFF)
    action = IsometryAction.minus_id()
    base = heat_supertrace(model, action, 0.4)
    assert variation_supertrace(model, action, 2.0, 0.4) \
        == pytest.approx(2.0 * base, abs=1e-12)
    assert variation_supertrace(model, action, 0, 0.4) == 0.0
    with pytest.raises(ValueError):
        variation_supertrace(model, action, np.eye(2), 0.4)


# -- finite complexes ----------------------------------------------------

def two_term(a=2.0, phi=None):
    return FiniteComplex(dims=(1, 1), d=[[[a]]], phi=phi)


def test_finite_complex_validation():
    with pytest.raises(ValueError):
        FiniteComplex(dims=(1, 1), d=[])
    with pytest.raises(ValueError):
        FiniteComplex(dims=(2, 1), d=[[[1.0]]])
    with pytest.raises(ValueError):
        FiniteComplex(dims=(1, 1, 1), d=[[[1.0]], [[1.0]]])  # d^2 != 0
    with pytest.raises(ValueError):
        FiniteComplex(dims=(2, 2), d=[[[1.0, 0.0], [0.0, 2.0]]],
                      phi=[[[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
    with pytest.raises(ValueError):
        log_finite_torsion(two_term(), h=[[[1.0]], [[-1.0]]])
    with pytest.raises(ValueError):
        log_finite_torsion(two_term(), h=[[[1.0]]])


def test_torsion_closed_form():
    # d = (a): tau = 1/|a|, exactly
    for a in (2.0, 3.0, 0.5, -4.0):
        assert finite_torsion(two_term(a)) == pytest.approx(1.0 / abs(a),
                                                            rel=1e-14)
    assert log_finite_torsion(two_term(2.0)) == pytest.approx(-math.log(2.0),
                                                              rel=1e-14)


def test_torsion_metric_scaling_closed_form():
    # rescaling the top metric by s^2 rescales d* by s^2 in the Laplacian
    cx = two_term(2.0)
    s2 = 9.0
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
    assert log_finite_torsion(cx, require_acyclic=False) == 0.0


def test_variation_linear_path_exact():
    cx = two_term(2.0)

    def path(e):
        return [[[math.exp(2.0 * e)]], [[1.0]]]

    var = torsion_variation(cx, path, eps=0.3)
    assert var.finite_difference == pytest.approx(1.0, abs=1e-8)
    assert var.trace_formula == pytest.approx(1.0, abs=1e-8)
    assert var.residual < 1e-8


def test_variation_second_order_convergence():
    cx = FiniteComplex(dims=(2, 2), d=[np.array([[1.0, 2.0], [0.0, 3.0]])])
    M = np.array([[1.0, 0.5], [0.5, 2.0]])

    def path(e):
        h1 = np.eye(2) + 0.3 * math.sin(e) * M + 0.2 * e * e * np.eye(2)
        return [np.eye(2), h1]

    r1 = torsion_variation(cx, path, eps=0.4, step=1e-2).residual
    r2 = torsion_variation(cx, path, eps=0.4, step=5e-3).residual
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)
    assert torsion_variation(cx, path, eps=0.4, step=1e-4).residual < 1e-7
    with pytest.raises(ValueError):
        torsion_variation(cx, path, eps=0.4, step=0.0)
