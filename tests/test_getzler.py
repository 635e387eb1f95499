import dataclasses
import itertools
from fractions import Fraction
from functools import partial
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern.clifford import CliffordElement
from heatchern.equivariant import (BundleVariationData, CurvatureTensor,
                                   curvature_bivector)
from heatchern.getzler import (ExteriorDiffOp, GradedDiffOp, VolterraSymbol, _curvature_quartic, compose,
                               getzler_order, lichnerowicz_split,
                               model_operator, top_order_part,
                               volterra_compose, weitzenbock)
from heatchern.multivector import Multivector, _SparseElement, _popcount
from heatchern.scalars import EXACT, BackendMismatch, CFrac, I, Mat, backend_of

from conftest import gen_c, gen_chat, random_curvature


def z(n):
    return (0,) * n


def test_order_examples():
    n = 4
    assert getzler_order(GradedDiffOp.d_x(n, 2)) == 1
    assert getzler_order(GradedDiffOp.word(n, 0b11, 0b1100)) == 2
    assert getzler_order(GradedDiffOp.x_coord(n, 1) * GradedDiffOp.d_t(n)) == 1
    assert getzler_order(GradedDiffOp(n)) is None
    assert getzler_order(GradedDiffOp.word(n, 0b1, 0)) == Fraction(1, 2)


def test_model_operator_weitzenbock(rng):
    n = 4
    R = random_curvature(n, rng)
    mo = model_operator(GradedDiffOp.d_t(n) + weitzenbock(R))
    terms = {(z(n), 0, 0, z(n), 1): 1}
    for j in range(n):
        d = tuple(2 if i == j else 0 for i in range(n))
        terms[(z(n), 0, 0, d, 0)] = -1
    for (s, t), v in curvature_bivector(R).terms.items():
        terms[(z(n), s, t, z(n), 0)] = Fraction(-v, 2)
    assert mo == ExteriorDiffOp(n, terms)


def test_model_operator_homogeneous_fixed_point():
    n = 2
    op = GradedDiffOp.d_t(n)
    assert model_operator(op) == ExteriorDiffOp.d_t(n)
    mixed = GradedDiffOp.x_coord(n, 1) * GradedDiffOp.d_x(n, 1) \
        + GradedDiffOp.d_t(n)
    assert model_operator(mixed) == ExteriorDiffOp.d_t(n)


def test_weitzenbock_flat_case():
    n = 4
    flat = weitzenbock(CurvatureTensor(n, {}))
    want = GradedDiffOp(n, {
        (z(n), 0, 0, tuple(2 if i == j else 0 for i in range(n)), 0): -1
        for j in range(n)})
    assert flat == want


def _sparse_rational_curvature(n, rng):
    """A third of the canonical components, each a non-integer rational."""
    canonical = [(i, j, k, l)
                 for i, j in itertools.combinations(range(1, n + 1), 2)
                 for k, l in itertools.combinations(range(1, n + 1), 2)
                 if (i, j) <= (k, l)]
    return CurvatureTensor(n, {
        key: Fraction(rng.choice([-7, -2, 1, 5]), rng.choice([3, 4, 9]))
        for key in rng.sample(canonical, max(1, len(canonical) // 3))})


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_curvature_quartic_matches_full_sum(rng, n, kind):
    """The sum over i < j, k < l equals -(1/8) sum_ijkl R_ijkl c_i c_j ch_k
    ch_l taken over all n^4 index tuples, one Clifford product each."""
    R = (random_curvature(n, rng) if kind == "dense"
         else _sparse_rational_curvature(n, rng))
    terms = {}
    for i, j, k, l in itertools.product(range(1, n + 1), repeat=4):
        v = R.get(i, j, k, l)
        if v:
            word = gen_c(n, i) * gen_c(n, j) * gen_chat(n, k) * gen_chat(n, l)
            for key, c in word.terms.items():
                terms[key] = terms.get(key, 0) + Fraction(-v, 8) * c
    want = CliffordElement(n, terms)
    assert want.terms
    assert _curvature_quartic(R).terms == want.terms


def test_weitzenbock_order_and_residual(rng):
    R = random_curvature(4, rng)
    W = weitzenbock(R)
    assert getzler_order(W) == 2
    resid = W - top_order_part(W)
    assert getzler_order(resid) <= 1


def test_compose_leibniz():
    n = 2
    lhs = GradedDiffOp.d_x(n, 1) * GradedDiffOp.x_coord(n, 1)
    rhs = GradedDiffOp.x_coord(n, 1) * GradedDiffOp.d_x(n, 1) \
        + GradedDiffOp.word(n, 0, 0)
    assert lhs == rhs
    # d1^a d2^c o x1^b x2^e against the closed form, coordinate by coordinate
    for a, b, c, e in itertools.product(range(4), repeat=4):
        lhs = compose(GradedDiffOp(n, {(z(n), 0, 0, (a, c), 0): 1}),
                      GradedDiffOp(n, {((b, e), 0, 0, z(n), 0): 1}))
        want = {}
        for k in range(min(a, b) + 1):
            for m in range(min(c, e) + 1):
                coef = (comb(a, k) * factorial(b) // factorial(b - k)
                        * comb(c, m) * factorial(e) // factorial(e - m))
                want[((b - k, e - m), 0, 0, (a - k, c - m), 0)] = coef
        assert lhs == GradedDiffOp(n, want)


def test_compose_subadditive(rng):
    n = 3

    def rand_op():
        terms = {}
        for _ in range(5):
            xexp = tuple(rng.randint(0, 1) for _ in range(n))
            dexp = tuple(rng.randint(0, 1) for _ in range(n))
            terms[(xexp, rng.randrange(1 << n), rng.randrange(1 << n),
                   dexp, rng.randint(0, 1))] = Fraction(rng.randint(-3, 3))
        return GradedDiffOp(n, terms)

    for _ in range(25):
        p, q = rand_op(), rand_op()
        pq = compose(p, q)
        if pq.is_zero() or p.is_zero() or q.is_zero():
            continue
        assert getzler_order(pq) <= getzler_order(p) + getzler_order(q)


def test_commutator_order_arithmetic():
    # C L^[l1] ... L^[lk] with O(C) = O(L) = 1, each bracket with H adding 2
    for lams in [(0,), (2,), (1, 0), (1, 2, 0)]:
        acc = GradedDiffOp.opaque_term(1, "C", 1)
        for i, lam in enumerate(lams):
            acc = compose(acc, GradedDiffOp.opaque_term(1, f"L{i+1}", 1 + 2 * lam))
        assert getzler_order(acc) == len(lams) + 1 + 2 * sum(lams)


def test_kind_mixing_rejected():
    with pytest.raises(TypeError, match="GradedDiffOp with ExteriorDiffOp"):
        GradedDiffOp.d_t(2) + ExteriorDiffOp.d_t(2)
    with pytest.raises(TypeError, match="ExteriorDiffOp with GradedDiffOp"):
        compose(ExteriorDiffOp.d_t(2), GradedDiffOp.d_t(2))


def test_model_operator_rejects_top_opaque():
    op = GradedDiffOp.opaque_term(2, "mystery", 2)
    with pytest.raises(ValueError):
        model_operator(op)


def _rand_mat(rng, r):
    return [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]


def _rand_data(rng, n, r):
    return BundleVariationData(
        n=n, omega=[_rand_mat(rng, r) for _ in range(n)],
        nabla_omega={(i, j): _rand_mat(rng, r) for i in range(1, n + 1)
                     for j in range(1, n + 1)})


def test_lichnerowicz_identities(rng):
    n = 4
    R = random_curvature(n, rng)
    split = lichnerowicz_split(R, _rand_data(rng, n, 2))
    assert all(split.identities.values())
    assert getzler_order(split.D0_squared) == 2
    # the sigma-odd part of L_omega is its c ch terms, the even part the rest
    odd = split.L_omega._like({key: c for key, c in split.L_omega.terms.items()
                               if _popcount(key[1]) == 1})
    even = split.L_omega - odd
    assert getzler_order(even) == getzler_order(odd) == 1
    assert split.triangle_F - odd == split.D0_squared + even


def test_lichnerowicz_degenerate_cases(rng):
    n, r = 4, 2
    zero = [[Fraction(0)] * r for _ in range(r)]
    data0 = BundleVariationData(
        n=n, omega=[zero for _ in range(n)],
        nabla_omega={(i, j): zero for i in range(1, n + 1)
                     for j in range(1, n + 1)})
    R = random_curvature(n, rng)
    s = lichnerowicz_split(R, data0)
    assert s.L_omega.is_zero()
    assert s.triangle_F == s.D0_squared
    flat = lichnerowicz_split(CurvatureTensor(n, {}), data0)
    assert flat.E.is_zero()


def _split_by_operator_sums(R, data):
    """E, triangle_F, D0_squared and L_omega as sums of operators, one
    operator per word, from generator products of Clifford elements."""
    n = R.n
    omega = data.omega
    r = len(omega[0])
    one = Mat.scalar(1, r)
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    w2 = {(i, j): omega[i - 1] * omega[j - 1] + -(omega[j - 1] * omega[i - 1])
          for i, j in pairs}

    def total(words_and_coefs):
        out = GradedDiffOp(n)
        for word, coef in words_and_coefs:
            for (cm, hm), s in word.terms.items():
                out = out + GradedDiffOp.word(n, cm, hm, s * coef)
        return out

    c, h = partial(gen_c, n), partial(gen_chat, n)
    lap = GradedDiffOp.opaque_term(n, "rough_laplacian", 2, coef=-one)
    quartic = total([(_curvature_quartic(R), one)])
    cc = total((c(i) * c(j), Fraction(-1, 8) * w2[i, j]) for i, j in pairs)
    hh = total((h(i) * h(j), Fraction(1, 8) * w2[i, j]) for i, j in pairs)
    mixed = total((c(i) * h(j), Fraction(-1, 2) * (
        data.nabla_omega[i, j] + Fraction(1, 2) * w2[i, j]))
        for i, j in pairs)
    constant = CliffordElement.one(n)
    omega_sq = total([(constant, Fraction(1, 4) * sum(
        (w * w for w in omega), Mat.scalar(0, r)))])
    r_term = total([(constant, Fraction(R.scalar_curvature(), 4) * one)])
    E = quartic + cc + hh + mixed + omega_sq + r_term
    return (E, lap + E, lap + quartic + cc + r_term, hh + mixed + omega_sq)


@pytest.mark.parametrize("case", ["seeded", "zero omega", "flat"])
def test_lichnerowicz_pieces_match_operator_sums(rng, case):
    n, r = 4, 2
    R = CurvatureTensor(n, {}) if case == "flat" else random_curvature(n, rng)
    data = _rand_data(rng, n, r)
    if case == "zero omega":
        data = dataclasses.replace(data, omega=[Mat.scalar(0, r)] * n)
    split = lichnerowicz_split(R, data)
    want = _split_by_operator_sums(R, data)
    assert (split.E, split.triangle_F, split.D0_squared, split.L_omega) == want
    assert not want[3].is_zero()
    assert list(split.identities) == ["triangle_is_laplacian_plus_E",
                                      "triangle_is_D0sq_plus_L", "sigma_split"]
    assert all(split.identities.values())


def test_lichnerowicz_rejects_malformed(rng):
    n = 4
    data = _rand_data(rng, n, 2)
    data = dataclasses.replace(data, omega=data.omega[:-1])
    with pytest.raises(ValueError, match="one omega matrix per frame"):
        lichnerowicz_split(random_curvature(n, rng), data)


def test_volterra_composition_example():
    got = volterra_compose(VolterraSymbol.xi(2, 1), VolterraSymbol.x(2, 1))
    want = VolterraSymbol(2, {((1, 0), (1, 0), 0): 1, ((0, 0), (0, 0), 0): -I})
    assert got == want


def test_volterra_to_text_golden():
    q = VolterraSymbol(2, {((2, 0), (0, 1), 1): CFrac(Fraction(1, 2), -3),
                           ((0, 0), (0, 0), 0): CFrac(-1, 2),
                           ((0, 1), (3, 0), 2): I})
    assert q.to_text() == ("(-1+2i) * 1 + (0+1i) * x2 xi1^3 tau^2"
                           " + (1/2-3i) * x1^2 xi2 tau")
    assert repr(q) == f"VolterraSymbol(n=2, {q.to_text()})"
    assert VolterraSymbol(2).to_text() == "0"


def test_volterra_symbol_on_sparse_element():
    # everything but the key check, the word printer, the constructors
    # and the parabolic grading comes from the shared sparse element
    assert issubclass(VolterraSymbol, _SparseElement)
    for name in ("__init__", "__add__", "__sub__", "__neg__", "scale",
                 "__eq__", "__hash__", "is_zero", "to_text", "__repr__"):
        assert name not in vars(VolterraSymbol), name
    q = VolterraSymbol.xi(2, 1) + VolterraSymbol.tau(2).scale(3)
    assert backend_of(q.terms.values()) == EXACT
    assert q - q == VolterraSymbol(2) and (q - q).is_zero()
    assert -(-q) == q and hash(q.scale(1)) == hash(q)
    assert q.coefficient((0, 0), (0, 0), 1) == CFrac(3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        q + VolterraSymbol.x(3, 1)
    with pytest.raises(ValueError, match="length n"):
        VolterraSymbol(2, {((1,), (0, 0), 0): 1})
    with pytest.raises(ValueError, match="non-negative"):
        VolterraSymbol(2, {((0, 0), (0, -1), 0): 1})
    with pytest.raises(BackendMismatch):
        VolterraSymbol(2, {((0, 0), (1, 0), 0): 0.5})


def test_volterra_identity_symbol():
    one = VolterraSymbol.monomial(3, (0, 0, 0), (0, 0, 0))
    q = VolterraSymbol(3, {((1, 0, 0), (0, 2, 0), 1): CFrac(2, -1)})
    assert volterra_compose(q, one) == q
    assert volterra_compose(one, q) == q


def _rand_symbol(rng, n=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        x = tuple(rng.randint(0, 1) for _ in range(n))
        xi = tuple(rng.randint(0, 2) for _ in range(n))
        terms[(x, xi, rng.randint(0, 1))] = CFrac(rng.randint(-3, 3),
                                                  rng.randint(-2, 2))
    return VolterraSymbol(n, terms)


def test_volterra_associativity(rng):
    for _ in range(20):
        a, b, c = (_rand_symbol(rng) for _ in range(3))
        assert volterra_compose(volterra_compose(a, b), c) \
            == volterra_compose(a, volterra_compose(b, c))


def test_volterra_order_bound(rng):
    for _ in range(10):
        a, b = _rand_symbol(rng), _rand_symbol(rng)
        c = volterra_compose(a, b)
        if c.is_zero():
            continue
        assert c.parabolic_order() <= a.parabolic_order() + b.parabolic_order()


def test_volterra_dilation(rng):
    lam = Fraction(5, 2)
    for _ in range(10):
        a, b = _rand_symbol(rng), _rand_symbol(rng)
        assert volterra_compose(a.dilate(lam), b.dilate(lam)) \
            == volterra_compose(a, b).dilate(lam)
    # homogeneous symbol rescales by lam^m
    h = VolterraSymbol(2, {((1, 0), (2, 1), 0): CFrac(2),
                           ((0, 0), (0, 0), 1): CFrac(1)})
    assert h.dilate(lam) == h.scale(lam ** 2)


def test_volterra_dilation_refuses_float():
    # Fraction(0.1) would dilate by 3602879701896397/36028797018963968
    sym = VolterraSymbol.xi(2, 1)
    with pytest.raises(BackendMismatch, match="0.1"):
        sym.dilate(0.1)
    assert sym.dilate(2) == sym.dilate(Fraction(2))


def test_volterra_dilation_refuses_bool():
    with pytest.raises(BackendMismatch, match="True"):
        VolterraSymbol.xi(2, 1).dilate(True)


def _oracle_compose(q1, q2):
    """sum_alpha (1/alpha!) d_xi^alpha q1 * (-i d_x)^alpha q2, one derivative
    step at a time on whole term dicts, up to the |alpha| = N past which
    d_xi^alpha q1 vanishes."""
    n = q1.n
    N = max(sum(xi) for (_, xi, _) in q1.terms)

    def d_step(terms, slot, j):
        out = {}
        for key, c in terms.items():
            e = key[slot][j]
            if e:
                exps = list(key[slot])
                exps[j] -= 1
                new = list(key)
                new[slot] = tuple(exps)
                out[tuple(new)] = out.get(tuple(new), CFrac(0)) + e * c
        return out

    result = VolterraSymbol(n)
    for alpha in itertools.product(range(N + 1), repeat=n):
        if sum(alpha) > N:
            continue
        left, right = dict(q1.terms), dict(q2.terms)
        weight = CFrac(1)
        for j, a in enumerate(alpha):
            for _ in range(a):
                left, right = d_step(left, 1, j), d_step(right, 0, j)
                weight = weight * (-I)
            weight = weight * Fraction(1, factorial(a))
        terms = {}
        for (x1, xi1, t1), c1 in left.items():
            for (x2, xi2, t2), c2 in right.items():
                key = (tuple(p + q for p, q in zip(x1, x2)),
                       tuple(p + q for p, q in zip(xi1, xi2)), t1 + t2)
                terms[key] = terms.get(key, CFrac(0)) + weight * c1 * c2
        result = result + VolterraSymbol(n, terms)
    return result


@pytest.mark.parametrize("n", [1, 2, 3])
def test_volterra_compose_matches_full_oracle(rng, n):
    def rand_coef():
        kind = rng.choice(["gaussian", "integer", "imaginary"])
        if kind == "integer":
            return rng.choice([-3, -2, -1, 1, 2, 4])
        if kind == "imaginary":
            return CFrac(0, rng.choice([-3, -1, 1, 2]))
        return CFrac(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                     Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))

    def rand_symbol():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (tuple(rng.randint(0, 3) for _ in range(n)),
                   tuple(rng.randint(0, 3) for _ in range(n)), rng.randint(0, 1))
            terms[key] = rand_coef()
        return VolterraSymbol(n, terms)

    # (xi_1 + i) o (x_1 + 1): the constant terms -i and i cancel exactly
    e1 = (1,) + z(n - 1)
    cancel = (VolterraSymbol(n, {(z(n), e1, 0): 1, (z(n), z(n), 0): I}),
              VolterraSymbol(n, {(e1, z(n), 0): 1, (z(n), z(n), 0): 1}))
    composed = volterra_compose(*cancel)
    assert (z(n), z(n), 0) not in composed.terms and len(composed.terms) == 3

    for q1, q2 in [cancel] + [(rand_symbol(), rand_symbol()) for _ in range(6)]:
        got, want = volterra_compose(q1, q2), _oracle_compose(q1, q2)
        assert got == want
        assert got.to_text() == want.to_text()
        # canonical as the constructor would leave it
        assert VolterraSymbol(n, dict(got.terms)) == got
        assert all(got.terms.values())
        for x, xi, tp in got.terms:
            assert type(x) is tuple and type(xi) is tuple and type(tp) is int
            assert len(x) == len(xi) == n


def test_volterra_compose_refuses_other_elements():
    sym = VolterraSymbol.xi(2, 1)
    for other in (Multivector.scalar(2, 1), CliffordElement(2, {(1, 0): 1}),
                  GradedDiffOp.d_x(2, 1)):
        name = type(other).__name__
        for args in ((sym, other), (other, sym)):
            with pytest.raises(TypeError, match=f"not {name}"):
                volterra_compose(*args)
    with pytest.raises(ValueError, match="dimension mismatch"):
        volterra_compose(sym, VolterraSymbol.xi(3, 1))


def test_graded_op_text_golden():
    n = 2
    op = GradedDiffOp(n, {((1, 0), 0b01, 0b10, (0, 1), 1): Fraction(3, 2)})
    assert op.to_text() == "3/2 * x1 c1 ch2 d2 dt"


def test_graded_op_refuses_negative_exponents():
    for key in (((0, -1), 0, 0, (0, 0), 0), ((0, 0), 0, 0, (-1, 0), 0),
                ((0, 0), 0, 0, (0, 0), -1)):
        with pytest.raises(ValueError, match="non-negative"):
            GradedDiffOp(2, {key: 1})
    # with n = 0 there are no exponents to scan, only the t power
    assert GradedDiffOp(0, {((), 0, 0, (), 1): 1}).coefficient(
        (), 0, 0, (), 1) == 1
    with pytest.raises(ValueError, match="non-negative"):
        GradedDiffOp(0, {((), 0, 0, (), -1): 1})


def test_graded_op_on_sparse_element():
    # the linear structure, the zero test and the coefficient lookup come
    # from the shared sparse element; opaque summands are ordinary terms
    assert issubclass(GradedDiffOp, _SparseElement)
    for name in ("__init__", "__add__", "__sub__", "__neg__", "__eq__",
                 "__hash__", "_check", "_like", "scale", "is_zero",
                 "coefficient"):
        assert name not in vars(GradedDiffOp), name
    assert not hasattr(GradedDiffOp.d_t(2), "kind")
    p = ExteriorDiffOp.d_t(2) \
        + ExteriorDiffOp.opaque_term(2, "A", 1, coef=Mat([[1, 0], [2, 3]]))
    assert not hasattr(p, "opaque")
    assert p.coefficient(("A",), 1) == ((1, 0), (2, 3))
    for q in (p + p, p - p, -p, p.scale(2), top_order_part(p)):
        assert type(q) is ExteriorDiffOp
    assert p.to_text() == "1 * dt + ((1, 0), (2, 3)) * [A | order<=1]"


def test_lichnerowicz_to_text_golden():
    # captured before End(F) coefficients became Mat: the scalar-identity
    # matrices keep integer zeros off the diagonal
    R = CurvatureTensor(2, {(1, 2, 1, 2): Fraction(2)})
    data = BundleVariationData(
        n=2, omega=[[[0, 1], [-1, 0]], [[Fraction(1, 2), 0], [0, 1]]],
        nabla_omega={(1, 1): [[1, 0], [0, 0]], (1, 2): [[0, 2], [0, 0]],
                     (2, 1): [[0, 0], [Fraction(1, 3), 0]],
                     (2, 2): [[0, 0], [0, -1]]})
    F = "Fraction"
    assert lichnerowicz_split(R, data).triangle_F.to_text() == (
        f"(({F}(13, 16), {F}(0, 1)), ({F}(0, 1), {F}(1, 1))) * 1"
        f" + (({F}(0, 1), {F}(1, 8)), ({F}(1, 8), {F}(0, 1))) * ch1 ch2"
        f" + (({F}(-1, 2), {F}(0, 1)), ({F}(0, 1), {F}(0, 1))) * c1 ch1"
        f" + (({F}(0, 1), {F}(-9, 8)), ({F}(-1, 8), {F}(0, 1))) * c1 ch2"
        f" + (({F}(0, 1), {F}(1, 8)), ({F}(-1, 24), {F}(0, 1))) * c2 ch1"
        f" + (({F}(0, 1), {F}(0, 1)), ({F}(0, 1), {F}(1, 2))) * c2 ch2"
        f" + (({F}(0, 1), {F}(-1, 8)), ({F}(-1, 8), {F}(0, 1))) * c1 c2"
        f" + (({F}(-1, 1), 0), (0, {F}(-1, 1))) * c1 c2 ch1 ch2"
        " + ((-1, 0), (0, -1)) * [rough_laplacian | order<=2]")


@st.composite
def op_triples(draw):
    """Three operators of one word algebra; the coefficients of a triple
    are all scalars or all 2x2 matrices (a Mat adds only to a Mat)."""
    cls = draw(st.sampled_from([GradedDiffOp, ExteriorDiffOp]))
    small = st.fractions(-3, 3, max_denominator=3)
    row = st.tuples(small, small)
    coef = draw(st.sampled_from([small, st.tuples(row, row).map(Mat)]))
    exps = st.tuples(st.integers(0, 1), st.integers(0, 1))
    concrete = st.tuples(exps, st.integers(0, 3), st.integers(0, 3), exps,
                         st.integers(0, 1))
    opaque = st.tuples(st.sampled_from([("A",), ("rough_laplacian",)]),
                       st.integers(0, 4).map(lambda k: Fraction(k, 2)))
    # one key pool, so the three operators share terms
    keys = draw(st.lists(st.one_of(concrete, opaque), min_size=1, max_size=5))
    terms = st.dictionaries(st.sampled_from(keys), coef, max_size=4)
    return tuple(cls(2, draw(terms)) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(op_triples())
def test_graded_op_linearity(ops):
    p, q1, q2 = ops
    assert p + q1 == q1 + p
    assert (p + q1) - q1 == p
    assert compose(p, q1 + q2) == compose(p, q1) + compose(p, q2)


def test_scalar_and_matrix_coefficients_do_not_add():
    p = GradedDiffOp.word(2, 0, 0, 3)
    q = GradedDiffOp.word(2, 0, 0, Mat([[1, 0], [0, 2]]))
    with pytest.raises(TypeError, match="adds only to a Mat"):
        p + q
    three = GradedDiffOp.word(2, 0, 0, Mat.scalar(3, 2))
    assert (three + q) - q == three and hash((three + q) - q) == hash(three)
    assert Mat([[Fraction(3), 0], [0, 3]]) != 3
    assert Mat([[1, 0], [2, 3]]) == ((1, 0), (2, 3))


def test_backend_looks_inside_matrices():
    exact = Mat([[Fraction(1), 0], [0, 1]])
    def backend(op):
        return backend_of(op.terms.values())

    assert backend(GradedDiffOp.word(2, 0, 0, exact)) == "exact"
    assert backend(GradedDiffOp.word(2, 0, 0, Mat([[1.0, 0], [0, 1]]))) == "float"
    assert backend(GradedDiffOp.word(2, 0, 0, Mat([[1, 0], [0, 1]]))) is None
    with pytest.raises(BackendMismatch):
        backend(GradedDiffOp(2, {((0, 0), 0, 0, (0, 0), 0): exact,
                                 ((1, 0), 0, 0, (0, 0), 0): 0.5}))
