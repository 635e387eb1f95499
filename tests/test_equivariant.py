import functools
import gc
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from heatchern import _kernels, equivariant
from heatchern._kernels import gauss_hermite_gaussian_integral
from heatchern.clifford import CliffordElement, represent, symbol_map
from heatchern.equivariant import (BundleVariationData, CurvatureTensor,
                                   IsometryNormalForm, curvature_bivector,
                                   curvature_form_matrix,
                                   equivariant_supertrace, euler_form,
                                   exterior_pushforward,
                                   fiber_integral, fiber_integral_quadrature,
                                   hodge_variation_operator,
                                   lambda_pushforward_oracle,
                                   local_index_density, mehler_body,
                                   mehler_heat_residual, mehler_kernel,
                                   pfaffian, phi_tilde,
                                   supertrace_decomposition, theta_form,
                                   transgression)
from heatchern.multivector import (Multivector, _product, exp_even,
                                   grade_component, wedge)
from heatchern.scalars import BackendMismatch, Mat

from conftest import cached_after, cyclic_garbage, random_curvature

# exact Pythagorean (cos, sin) pairs for rational-backend checks
PYTH = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
        (Fraction(8, 17), Fraction(15, 17))]


def test_isometry_validation():
    with pytest.raises(ValueError):
        IsometryNormalForm(3, 1, (0.5,))
    with pytest.raises(ValueError):
        IsometryNormalForm(4, 2, ())      # angle count mismatch
    with pytest.raises(ValueError):
        IsometryNormalForm(4, 2, (0.0,))  # degenerate angle
    iso = IsometryNormalForm(4, 2, (math.pi,))
    assert iso.b == 2
    assert iso.det_one_minus_normal() == pytest.approx(4.0)


NOT_EXACT = r"is not ints or Fractions with c\^2"


@pytest.mark.parametrize("n, a, kwargs, match", [
    (4, 2, {"rotations": [(0.6, 0.8)]}, NOT_EXACT),
    (4, 2, {"rotations": [(Fraction(3, 5), 0.8)]}, NOT_EXACT),
    (4, 2, {"rotations": [("3/5", "4/5")]}, NOT_EXACT),
    (2, 0, {"rotations": [(False, True)]}, NOT_EXACT),
    (4, 2, {"rotations": [(Fraction(1, 2), Fraction(1, 2))]}, NOT_EXACT),
    (4, 2, {"rotations": [(1, 0)]}, "degenerate rotation"),
    (4, 2, {"rotations": PYTH[:2]}, "must equal n"),
    (6, 2, {"rotations": PYTH[:1]}, "must equal n"),
    (4, 2, {"rotations": [(Fraction(3, 5),)]}, "values to unpack"),
    (4, 2, {"angles": (0.9,), "rotations": PYTH[:1]}, "not both"),
], ids=["floats", "one-float", "strings", "bools", "off-circle", "identity",
        "too-many", "too-few", "not-a-pair", "both"])
def test_exact_rotations_refused(n, a, kwargs, match):
    with pytest.raises(ValueError, match=match):
        IsometryNormalForm(n, a, **kwargs)


def test_exact_isometry_keeps_its_pairs():
    iso = IsometryNormalForm(8, 2, rotations=PYTH)
    assert iso.rotations == tuple(PYTH)
    assert iso.angles == tuple(math.atan2(s, c) for c, s in PYTH)
    det = iso.det_one_minus_normal()
    assert type(det) is Fraction
    assert det == math.prod(2 - 2 * c for c, _ in PYTH)
    assert det == pytest.approx(math.prod(4 * math.sin(t / 2) ** 2
                                          for t in iso.angles))
    assert np.allclose(iso.normal_rotation(), IsometryNormalForm(
        8, 2, iso.angles).normal_rotation(), rtol=0, atol=1e-15)


def test_curvature_symmetries():
    R = CurvatureTensor(3, {(1, 2, 1, 3): Fraction(5)})
    assert R.get(2, 1, 1, 3) == -5
    assert R.get(1, 3, 1, 2) == 5
    assert R.get(1, 1, 2, 3) == 0
    with pytest.raises(ValueError):
        CurvatureTensor(3, {(1, 1, 2, 3): Fraction(1)})
    with pytest.raises(ValueError):
        CurvatureTensor(3, {(1, 2, 1, 3): Fraction(1),
                            (1, 3, 1, 2): Fraction(2)})


def test_scalar_curvature_and_tangent_block(rng):
    R = CurvatureTensor(4, {(1, 2, 1, 2): Fraction(3), (3, 4, 3, 4): Fraction(1)})
    assert R.scalar_curvature() == 2 * 3 + 2 * 1
    # euler_form(R, a) reads only the tangent block, the components on
    # indices <= a: adding normal components to R leaves it unchanged
    for n, a in [(4, 2), (6, 4)]:
        full = random_curvature(n, rng)
        block = {k: v for k, v in full.components.items() if max(k) <= a}
        assert block != full.components
        assert (euler_form(full, a) == euler_form(CurvatureTensor(n, block), a)
                == euler_form(CurvatureTensor(a, block), a))


def test_phi_tilde_exact_structure():
    c, s = PYTH[0]
    p = phi_tilde(IsometryNormalForm(2, 0, rotations=[(c, s)]))
    half = Fraction(1, 2)
    assert p.coefficient(0, 0) == half * (1 + c)
    assert p.coefficient(0b11, 0b11) == -half * (1 - c)
    assert p.coefficient(0b11, 0) == half * s
    assert p.coefficient(0, 0b11) == -half * s


def test_pushforward_oracle_matches_representation():
    for iso in (IsometryNormalForm(2, 0, (0.4,)),
                IsometryNormalForm(4, 2, (2.2,)),
                IsometryNormalForm(4, 0, (0.7, 2.9)),
                IsometryNormalForm(4, 2, rotations=PYTH[:1]),
                IsometryNormalForm(6, 0, rotations=PYTH)):
        mat = represent(phi_tilde(iso)).astype(float)
        want = lambda_pushforward_oracle(iso)
        assert np.max(np.abs(mat - want)) < 1e-12


def test_sigma_phi_top_leading_term():
    iso = IsometryNormalForm(4, 2, rotations=[PYTH[1]])
    c, _ = PYTH[1]
    sig = symbol_map(phi_tilde(iso))
    comp = grade_component(sig, 2, ((0, 2), (0, 2)))
    # (-1/4)^{b/2} det(1 - phi^N) on the top normal word
    mask = 0b1100
    assert comp == Multivector(4, {(mask, mask): Fraction(-1, 4) * (2 - 2 * c)})


def test_supertrace_paths_exact():
    iso = IsometryNormalForm(4, 2, rotations=[PYTH[0]])
    full = (1 << 4) - 1
    A = CliffordElement(4, {(full, full): Fraction(1), (0b11, 0b11): Fraction(2),
                            (0, 0): Fraction(3)})
    s1 = equivariant_supertrace(iso, A, "matrix")
    s2 = equivariant_supertrace(iso, A, "decomposition")
    assert type(s1) is Fraction and s1 == s2
    lead, corr = supertrace_decomposition(iso, A)
    assert lead + corr == s1


@pytest.mark.parametrize("n, a, want", [
    (4, 2, Fraction(64, 5)), (6, 2, Fraction(-2304, 65)),
    (8, 2, Fraction(23040, 221)), (6, 0, Fraction(-28224, 1105))])
def test_supertrace_paths_exact_rotations(n, a, want):
    """The fixed-point suite's A = top word + 1/2 on Pythagorean rotations:
    both routes give the same Fraction."""
    iso = IsometryNormalForm(n, a, rotations=PYTH[:(n - a) // 2])
    full = (1 << n) - 1
    A = CliffordElement(n, {(full, full): Fraction(1), (0, 0): Fraction(1, 2)})
    for method in ("matrix", "decomposition"):
        got = equivariant_supertrace(iso, A, method)
        assert type(got) is Fraction and got == want


def test_supertrace_float_paths_agree(rng):
    iso = IsometryNormalForm(4, 2, (0.9,))
    A = CliffordElement(4, {(rng.randrange(16), rng.randrange(16)):
                            rng.uniform(-2, 2) for _ in range(6)})
    s1 = equivariant_supertrace(iso, A, "matrix")
    s2 = equivariant_supertrace(iso, A, "decomposition")
    assert abs(s1 - s2) < 1e-10


def test_curvature_bivector_n2():
    R = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(7)})
    rdot = curvature_bivector(R)
    assert rdot == Multivector(2, {(0b11, 0b11): Fraction(7)})


def test_mehler_gaussian_normalization():
    # integral over y of the scalar part is 1 (flat case)
    R = CurvatureTensor(2, {})
    t = 0.3
    grid = np.linspace(-8, 8, 401)
    dy = grid[1] - grid[0]
    total = 0.0
    for y1 in grid:
        for y2 in grid:
            total += mehler_kernel(R, t, (0.0, 0.0), (y1, y2)).coefficient(0, 0)
    assert abs(total * dy * dy - 1.0) < 1e-6


def test_mehler_heat_residual(rng):
    R = random_curvature(4, rng)
    res = mehler_heat_residual(R, 0.7, np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4]))
    assert res < 1e-8


def test_fiber_integral_routes_agree(rng):
    R = random_curvature(4, rng)
    R = CurvatureTensor(4, {k: float(v) for k, v in R.components.items()})
    iso = IsometryNormalForm(4, 2, (0.8,))
    for t in (0.1, 1.0):
        body = mehler_body(R, t)
        cf = body.scale(fiber_integral(iso, t))
        qd = body.scale(fiber_integral_quadrature(iso, t))
        keys = set(cf.terms) | set(qd.terms)
        err = max(abs(cf.coefficient(*k) - qd.coefficient(*k)) for k in keys)
        assert err < 1e-6


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_fiber_integrals_take_positive_finite_t(t):
    # NaN passes a t <= 0 test, and the quadrature then ran every order
    iso = IsometryNormalForm(4, 2, (0.8,))
    for route in (fiber_integral, fiber_integral_quadrature):
        with mock.patch.object(_kernels, "gauss_hermite_gaussian_integral") \
                as quadrature, pytest.raises(
                    ValueError, match="t must be positive and finite"):
            route(iso, t)
        quadrature.assert_not_called()
    with pytest.raises(ValueError, match="t must be positive and finite"):
        mehler_kernel(CurvatureTensor(2, {}), t, (0.0, 0.0), (0.1, 0.2))


def test_gauss_hermite_reports_tolerance_and_order():
    with mock.patch.multiple(_kernels, _GH_TOL=1e-9, _GH_MAX_ORDER=8), \
            pytest.raises(RuntimeError,
                          match="converge to 1e-09 of the value by order 8"):
        gauss_hermite_gaussian_integral(np.eye(1), 1.0)


def test_pfaffian_textbook_4x4():
    a, b, c, d, e, f = (Fraction(v) for v in (2, -3, 5, 7, -1, 4))
    ab = Multivector(4, {(0, 0): a})
    mat = {(1, 2): Multivector(4, {(0, 0): a}),
           (1, 3): Multivector(4, {(0, 0): b}),
           (1, 4): Multivector(4, {(0, 0): c}),
           (2, 3): Multivector(4, {(0, 0): d}),
           (2, 4): Multivector(4, {(0, 0): e}),
           (3, 4): Multivector(4, {(0, 0): f})}
    pf = pfaffian(mat, 4)
    assert pf.coefficient(0, 0) == a * f - b * e + c * d


def test_index_density_identity_exact(rng):
    for n, a in [(4, 2), (4, 4), (6, 4)]:
        angles = tuple(0.5 + 0.3 * i for i in range((n - a) // 2))
        iso = IsometryNormalForm(n, a, angles)
        for _ in range(3):
            R = random_curvature(n, rng)
            assert local_index_density(R, iso) \
                == euler_form(R, a)


def _density_by_full_exp(R, iso):
    """The index density by its definition: the whole exp(Rdot/2), then
    its tangent Berezin coefficient, then the prefactor."""
    rdot = curvature_bivector(R)
    body = exp_even(rdot.scale(Fraction(1, 2))) if not rdot.is_zero() \
        else Multivector.scalar(iso.n, Fraction(1))
    tan = (1 << iso.a) - 1
    coeff = body.coefficient(tan, tan)
    pref = Fraction((-1) ** (iso.n // 2) * (1 << iso.n))
    pref *= Fraction(-1, 4) ** (iso.b // 2) * Fraction(1, 4) ** (iso.a // 2)
    return pref * coeff


def _sparse_curvature(n, rng):
    """About a third of the seeded components, over denominators 1, 2, 3."""
    dense = random_curvature(n, rng).components
    return CurvatureTensor(n, {k: v / rng.choice([1, 2, 3])
                               for k, v in dense.items() if rng.random() < 0.3})


@pytest.mark.parametrize("n", [2, 4, 6])
def test_index_density_matches_full_exponential(n, rng):
    for a in range(0, n + 1, 2):
        angles = tuple(0.4 + 0.5 * i for i in range((n - a) // 2))
        iso = IsometryNormalForm(n, a, angles)
        normal_only = CurvatureTensor(n, {(n - 1, n, n - 1, n): Fraction(7)})
        for R in (random_curvature(n, rng), _sparse_curvature(n, rng),
                  normal_only, CurvatureTensor(n, {})):
            got = local_index_density(R, iso)
            assert type(got) is Fraction
            assert got == _density_by_full_exp(R, iso)


def _reorder_sign(a, b):
    """Sign of sorting the concatenation of increasing words a, b."""
    swaps = 0
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _density_by_pairing(R, iso):
    """The index density as computed before the subset recursion: the
    power m = a/2 of the tangent words of Rdot on integer numerators,
    its top coefficient read by pairing x^ceil(m/2) with x^floor(m/2) on
    complementary words, divided by m! (2D)^m."""
    tan = (1 << iso.a) - 1
    rdot = {(s, t): Fraction(c)
            for (s, t), c in curvature_bivector(R).terms.items()
            if not (s | t) & ~tan}
    m = iso.a // 2
    coeff = Fraction(1) if m == 0 else Fraction(0)
    if m and rdot:
        D = math.lcm(*(c.denominator for c in rdot.values()))
        nums = {w: int(c * D) for w, c in rdot.items()}
        low = {(0, 0): 1}
        for _ in range(m // 2):
            low = _product(low, nums, 0, 0)
        high = _product(low, nums, 0, 0) if m % 2 else low
        top = 0
        for (s, t), c in high.items():
            c2 = low.get((tan ^ s, tan ^ t))
            if c2:
                sign = _reorder_sign(s, tan ^ s) * _reorder_sign(t, tan ^ t)
                top += sign * c * c2
        coeff = Fraction(top, math.factorial(m) * (2 * D) ** m)
    pref = Fraction((-1) ** (iso.n // 2) * (1 << iso.n))
    pref *= Fraction(-1, 4) ** (iso.b // 2) * Fraction(1, 4) ** (iso.a // 2)
    return pref * coeff


@pytest.mark.parametrize("n,a", [(4, 4), (6, 6), (6, 4), (8, 8), (8, 6)])
def test_index_density_recursion_matches_pairing(n, a, rng):
    iso = IsometryNormalForm(n, a, tuple(0.4 + 0.5 * i
                                         for i in range((n - a) // 2)))
    for R in (random_curvature(n, rng), _sparse_curvature(n, rng)):
        got = local_index_density(R, iso)
        assert type(got) is Fraction
        assert got == _density_by_pairing(R, iso)


def _raising_on_third_call(real, calls):
    def wrapped(*args):
        calls.append(args)
        if len(calls) == 3:
            raise RuntimeError("third call")
        return real(*args)
    return wrapped


@pytest.mark.parametrize("name,kernel", [("euler_form", "_product")])
def test_recursion_keeps_no_cache_after_the_call(name, kernel, rng):
    # the Pfaffian's rec calls itself, so only the cyclic collector would
    # free its cache if the call kept it
    R = random_curvature(8, rng)
    call = functools.partial(getattr(equivariant, name), R, 8)
    want = call()
    assert not any(cached_after(call))
    calls = []
    with mock.patch.object(equivariant, kernel, _raising_on_third_call(
            getattr(equivariant, kernel), calls)):
        assert not any(cached_after(call))
    assert len(calls) == 3
    assert call() == want


def test_index_density_keeps_no_curvature_data_after_the_call(rng):
    # the level tables depend on a alone; nothing built from R outlives
    # the call, neither in reference cycles nor anywhere else
    iso = IsometryNormalForm(8, 8, ())
    first, *others = (random_curvature(8, rng) for _ in range(4))
    local_index_density(first, iso)
    tables = equivariant._density_tables(8)
    for R in others:
        assert cyclic_garbage(
            functools.partial(local_index_density, R, iso)) == []
    # what the module allocates and keeps, after one traced call has set
    # up numpy's own lazily built state
    here = [tracemalloc.Filter(True, equivariant.__file__)]
    tracemalloc.start()
    try:
        local_index_density(first, iso)
        gc.collect()
        before = tracemalloc.take_snapshot().filter_traces(here)
        for R in others:
            local_index_density(R, iso)
        gc.collect()
        after = tracemalloc.take_snapshot().filter_traces(here)
    finally:
        tracemalloc.stop()
    assert [d for d in after.compare_to(before, "lineno") if d.size_diff] == []
    assert equivariant._density_tables(8) is tables


def test_index_density_peak_memory_at_n10():
    # the level sums run a chunk of S at a time: about 3.4 MB here, cold,
    # where a whole level of terms at once peaks near 10 MB
    R = random_curvature(10, random.Random(10))
    iso = IsometryNormalForm(10, 10, ())
    equivariant._density_tables.cache_clear()
    tracemalloc.start()
    try:
        local_index_density(R, iso)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("n,a,scale", [(6, 6, 1), (6, 4, 1), (6, 6, 10 ** 7),
                                       (6, 4, 10 ** 10), (8, 8, 10 ** 6)])
def test_index_density_int64_and_object_paths(n, a, scale, rng):
    # scale 1 keeps every level sum in int64; the large numerators put the
    # top sum past 2^63, so only the Python-int path can get it right (the
    # full exponential at n = 8 is left to the pairing oracle, for time)
    iso = IsometryNormalForm(n, a, tuple(0.4 + 0.5 * i
                                         for i in range((n - a) // 2)))
    R = CurvatureTensor(n, {k: v * rng.randint(scale, 2 * scale)
                            for k, v in random_curvature(n, rng)
                            .components.items()})
    with mock.patch.object(np, "ones", wraps=np.ones) as ones:
        got = local_index_density(R, iso)
    assert type(got) is Fraction
    assert got == _density_by_pairing(R, iso)
    if n <= 6:
        assert got == _density_by_full_exp(R, iso)
    dtype = ones.call_args.kwargs["dtype"]
    if scale == 1:
        assert dtype is np.int64
    else:
        # the prefactor is +-1 and D = 1, so the top sum is got * 2^(a/2)
        assert dtype is object and abs(got) * 2 ** (a // 2) > 2 ** 63


def _pushforward_by_minors(mat):
    n = mat.shape[0]
    out = np.zeros((1 << n, 1 << n))
    members = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    for s_mask, rows in enumerate(members):
        for t_mask, cols in enumerate(members):
            if len(rows) == len(cols):
                out[s_mask, t_mask] = float(np.linalg.det(
                    mat[np.ix_(rows, cols)])) if rows else 1.0
    return out


def _same_bits(x, y):
    """Equal bit for bit, the sign of zero included."""
    return np.array_equal(x.view(np.int64), y.view(np.int64))


@pytest.mark.parametrize("n", [4, 6])
def test_exterior_pushforward_matches_minor_loop(n):
    mat = np.random.default_rng(n).normal(size=(n, n))
    assert _same_bits(exterior_pushforward(mat), _pushforward_by_minors(mat))


def _normal_forms(max_n, rng):
    for n in range(2, max_n + 1, 2):
        for a in range(0, n + 1, 2):
            yield IsometryNormalForm(n, a, tuple(
                rng.uniform(0.3, 2.8) for _ in range((n - a) // 2)))


def test_exterior_pushforward_matches_minor_loop_on_normal_forms(rng):
    for iso in _normal_forms(8, rng):
        mat = iso.full_matrix().T
        assert _same_bits(exterior_pushforward(mat),
                          _pushforward_by_minors(mat)), (iso.n, iso.a)


# exact rotations with a zero cos or sin split their 2 x 2 block in two
SPLIT = [(0, 1), (0, -1), (-1, 0)]


@pytest.mark.parametrize("rotations", [SPLIT[:1], SPLIT[1:2], SPLIT[2:],
                                       [SPLIT[0], PYTH[0]],
                                       [PYTH[1], SPLIT[2]],
                                       [SPLIT[2], SPLIT[1], PYTH[2]]])
@pytest.mark.parametrize("a", [0, 2])
def test_exterior_pushforward_where_the_block_pattern_changes(rotations, a):
    iso = IsometryNormalForm(a + 2 * len(rotations), a, rotations=rotations)
    mat = iso.full_matrix().T
    assert _same_bits(exterior_pushforward(mat), _pushforward_by_minors(mat))
    assert _same_bits(lambda_pushforward_oracle(iso), _pushforward_by_minors(mat))


@pytest.mark.parametrize("n,a,rotations", [
    (8, 6, None), (8, 0, None), (6, 2, None), (4, 2, SPLIT[:1]),
    (6, 0, [SPLIT[2], PYTH[0], SPLIT[1]])])
def test_exterior_pushforward_computes_only_the_allowed_minors(n, a, rotations):
    # a k x k minor is computed when its rows and columns meet each block
    # equally often; summed over those signatures, the counts of subsets
    # squared give prod C(2 size, size) over the blocks, less the empty minor
    if rotations is None:
        iso = IsometryNormalForm(n, a, tuple(0.5 + 0.4 * i
                                             for i in range((n - a) // 2)))
    else:
        iso = IsometryNormalForm(n, a, rotations=rotations)
    whole = sum(c != 0 and s != 0 for c, s in iso.rotations)
    singletons = a + 2 * (len(iso.rotations) - whole)
    with mock.patch.object(np.linalg, "det", wraps=np.linalg.det) as det:
        lambda_pushforward_oracle(iso)
    passed = sum(call.args[0].shape[0] for call in det.call_args_list)
    assert passed == math.comb(2, 1) ** singletons * math.comb(4, 2) ** whole - 1


def test_exterior_pushforward_needs_a_square_matrix():
    with pytest.raises(ValueError, match=r"square matrix, not shape \(2, 3\)"):
        exterior_pushforward(np.ones((2, 3)))


def test_index_density_needs_one_dimension():
    R = random_curvature(4, random.Random(4))
    with pytest.raises(ValueError, match="curvature has n=4, isometry n=6"):
        local_index_density(R, IsometryNormalForm(6, 4, (0.5,)))


@pytest.mark.parametrize("a", [6, -2])
def test_euler_form_needs_a_tangent_dimension_in_range(a):
    R = random_curvature(4, random.Random(4))
    with pytest.raises(ValueError, match=rf"an even a in \[0, 4\], not {a}$"):
        euler_form(R, a)


def test_euler_form_surface():
    # R_1212 = kappa: pi-units value is -kappa/2, i.e. -kappa/(2 pi)
    R = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(3)})
    assert euler_form(R, 2) == Fraction(-3, 2)
    # stored unit-sphere convention: R_1212 = -1 integrates to chi = 2
    # against area 4 pi: (1/2) * (1/pi) * 4 pi = 2
    Rs = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(-1)})
    assert euler_form(Rs, 2) * 4 == 2


def test_transgression_properties(rng):
    a = 4
    R = random_curvature(a, rng)
    base = curvature_form_matrix(R, a)
    # Sdot = R recovers (a/2) times the Euler form at top degree
    tg = transgression(R, base, a)
    top = (1 << a) - 1
    assert tg.coefficient(top, 0) == Fraction(a, 2) * euler_form(R, a)
    # linearity in Sdot
    s1 = {(1, 2): Multivector(a, {(0b1100, 0): Fraction(2)})}
    s2 = {(1, 2): Multivector(a, {(0b1010, 0): Fraction(-1)})}
    s12 = {(1, 2): s1[(1, 2)] + s2[(1, 2)]}
    assert transgression(R, s12, a) \
        == transgression(R, s1, a) + transgression(R, s2, a)


def test_transgression_surface_example():
    # a = 2: the only term is -(1/2) Sdot_12 in pi units
    R = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(9)})
    s = {(1, 2): Multivector(2, {(1, 0): Fraction(4)})}
    assert transgression(R, s, 2) == Multivector(2, {(1, 0): Fraction(-2)})


def _pfaffian_by_rows(base, marked, a):
    """The first-row Pfaffian expansion as computed before integer
    numerators: whole ``Multivector`` minors with ``Fraction``
    coefficients, summed by ``+``.  With marked None it is Pf(base),
    otherwise the sum with exactly one entry taken from marked."""
    zero = Multivector(a)

    @functools.cache
    def rec(indices, used_marked):
        if not indices:
            return Multivector.scalar(a, Fraction(1)) if used_marked else zero
        i0, rest = indices[0], indices[1:]
        total = zero
        for pos, j in enumerate(rest):
            sub_rest = tuple(x for x in rest if x != j)
            sign = -1 if pos & 1 else 1
            if not used_marked and (i0, j) in marked:
                total += wedge(marked[i0, j], rec(sub_rest, True)).scale(sign)
            if (i0, j) in base:
                total += wedge(base[i0, j], rec(sub_rest, used_marked)).scale(sign)
        return total

    return rec(tuple(range(1, a + 1)), marked is None)


def _marked_entries(a, rng):
    """Entry (1, 2) and about half of the others, on denominators 5 and 7."""
    return {(i, j): Multivector(a, {(rng.randrange(1, 1 << a), 0):
                                    Fraction(rng.randint(-9, 9),
                                             rng.choice([5, 7]))})
            for i in range(1, a + 1) for j in range(i + 1, a + 1)
            if (i, j) == (1, 2) or rng.random() < 0.5}


@pytest.mark.parametrize("a", [2, 4, 6, 8])
def test_pfaffian_routes_match_row_oracle(a, rng):
    top = (1 << a) - 1
    for R in (random_curvature(a, rng), _sparse_curvature(a, rng)):
        base = curvature_form_matrix(R, a)
        pf = _pfaffian_by_rows(base, None, a)
        assert pfaffian(base, a) == pf
        assert euler_form(R, a) == Fraction(-1, 2) ** (a // 2) * pf.coefficient(top, 0)
        sdot = _marked_entries(a, rng)
        got = transgression(R, sdot, a)
        assert got == _pfaffian_by_rows(base, sdot, a).scale(Fraction(-1, 2) ** (a // 2))
        assert all(type(c) is Fraction for c in (*pf.terms.values(), *got.terms.values()))


def test_pfaffian_refuses_bool_coefficients():
    with pytest.raises(BackendMismatch, match="True"):
        pfaffian({(1, 2): Multivector(2, {(0, 0): True})}, 2)


def test_pfaffian_routes_refuse_float_coefficients():
    R = CurvatureTensor(2, {(1, 2, 1, 2): 0.5})
    with pytest.raises(BackendMismatch, match="0.5"):
        euler_form(R, 2)
    with pytest.raises(BackendMismatch, match="0.25"):
        pfaffian({(1, 2): Multivector(2, {(0, 0): 0.25})}, 2)
    exact = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(1, 2)})
    with pytest.raises(BackendMismatch, match="0.1") as exc:
        transgression(exact, {(1, 2): Multivector(2, {(3, 0): 0.1})}, 2)
    assert "\n" not in str(exc.value)


def test_index_density_routes_refuse_the_same_float():
    # both routes of fixed-point/index-density refuse a float component,
    # where the density once turned 0.1 into a binary Fraction
    R = CurvatureTensor(2, {(1, 2, 1, 2): 0.1})
    iso = IsometryNormalForm(2, 2, ())
    with pytest.raises(BackendMismatch, match="0.1"):
        euler_form(R, 2)
    with pytest.raises(BackendMismatch, match="0.1"):
        local_index_density(R, iso)
    exact = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(1, 10)})
    assert local_index_density(exact, iso) == euler_form(exact, 2) \
        == Fraction(-1, 20)


def test_hodge_variation_operator():
    g = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(0)]]
    data = BundleVariationData(n=2, gdot=g)
    C, sig = hodge_variation_operator(data)
    assert C.coefficient(0b01, 0b01) == Fraction(-1)
    assert C.coefficient(0b01, 0b10) == Fraction(-1, 2)
    assert symbol_map(C) == sig


def test_theta_form():
    om = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]]]
    phi = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    data = BundleVariationData(n=1, omega=om, phiF=phi)
    assert theta_form(data) == [0]
    data2 = BundleVariationData(n=1, omega=om)
    assert theta_form(data2) == [3]


@pytest.mark.parametrize("kwargs, match", [
    ({"omega": [[[1, 0], [0, 1]]], "nabla_omega": {(1, 1): [[1]]}},
     r"sizes \[1, 2\]"),
    ({"omega": [[[1, 0], [0, 1]]], "phiF": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
     r"sizes \[2, 3\]"),
    ({"omega": [[[1, 0]]]}, "must be square"),
    ({"gdot": [[1, 2], [3, 1]]}, "symmetric n x n"),
    ({"gdot": [[1]]}, "symmetric n x n"),
], ids=["nabla-size", "phi-size", "non-square", "gdot-asymmetric",
        "gdot-size"])
def test_bundle_data_refuses_malformed(kwargs, match):
    with pytest.raises(ValueError, match=match) as exc:
        BundleVariationData(n=2 if "gdot" in kwargs else 1, **kwargs)
    assert "\n" not in str(exc.value)


def test_bundle_data_is_frozen_and_exact():
    data = BundleVariationData(n=1, omega=[[[1, 2], [3, 4]]],
                               nabla_omega={(1, 1): ((0, 1), (1, 0))})
    assert data.omega == (Mat([[1, 2], [3, 4]]),)
    assert all(type(m) is Mat for m in (*data.omega, *data.nabla_omega.values()))
    with pytest.raises(AttributeError):
        data.omega = ()
    with pytest.raises(TypeError):
        data.nabla_omega[1, 1] = [[1, 2, 3]]
