import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern.clifford import CliffordElement, clifford_multiply
from heatchern.getzler import ExteriorDiffOp, GradedDiffOp, VolterraSymbol
from heatchern.multivector import (Multivector, _SparseElement, berezin,
                                   exp_even, grade_component, wedge)
from heatchern.scalars import BackendMismatch

from conftest import basis_e

N = 4


def mv_strategy(n=N):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    coefs = st.fractions(min_value=-5, max_value=5,
                         max_denominator=4)
    return st.dictionaries(keys, coefs, max_size=6).map(
        lambda d: Multivector(n, d))


def test_zero_terms_dropped():
    x = Multivector(2, {(1, 0): Fraction(0), (2, 1): Fraction(3)})
    assert (1, 0) not in x.terms
    assert x.coefficient(2, 1) == 3


def test_mask_range_checked():
    with pytest.raises(ValueError):
        Multivector(2, {(4, 0): 1})


def test_wedge_sign_example():
    # e2 ^ e1 = -e1 ^ e2
    assert wedge(basis_e(2, 2), basis_e(2, 1)) == basis_e(2, 1, 2).scale(-1)
    # every pair of generators anticommutes, so each squares to zero
    for i in range(1, 5):
        for j in range(1, 5):
            assert (wedge(basis_e(4, i), basis_e(4, j))
                    + wedge(basis_e(4, j), basis_e(4, i))).is_zero()


def test_graded_tensor_sign():
    # ehat factors anticommute with e factors across the product
    x = Multivector(2, {(0, 0b1): 1})   # ehat^1
    y = basis_e(2, 1)
    assert wedge(x, y) == wedge(y, x).scale(-1)


@settings(max_examples=60, deadline=None)
@given(mv_strategy(), mv_strategy(), mv_strategy())
def test_wedge_associative_distributive(x, y, z):
    assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))
    assert wedge(x, y + z) == wedge(x, y) + wedge(x, z)


@settings(max_examples=60, deadline=None)
@given(mv_strategy())
def test_grade_components_reconstruct(x):
    a = 2
    total = Multivector.zero(N)
    for k1, l1, k2, l2 in itertools.product(range(a + 1), range(N - a + 1),
                                            repeat=2):
        total = total + grade_component(x, a, ((k1, l1), (k2, l2)))
    assert total == x


def test_berezin_reads_the_volume_coefficient():
    # the volume word plus 7 e{1,2} ^ ehat{1,2}
    x = Multivector(4, {(15, 15): 1, (3, 3): Fraction(7)})
    assert berezin(x) == 1
    assert berezin(Multivector(4, {(3, 3): Fraction(7)})) == 0


# one element of each algebra type, all at n = 2
ELEMENTS = {
    Multivector: Multivector(2, {(1, 0): 1}),
    CliffordElement: CliffordElement(2, {(1, 0): 1}),
    VolterraSymbol: VolterraSymbol.x(2, 1),
    GradedDiffOp: GradedDiffOp.d_t(2),
    ExteriorDiffOp: ExteriorDiffOp.d_t(2),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_element_type_has_a_sample():
    assert set(_subclasses(_SparseElement)) == set(ELEMENTS)


@pytest.mark.parametrize("left,right", [
    (x, y) for x in ELEMENTS for y in ELEMENTS if x is not y],
    ids=lambda cls: cls.__name__)
def test_elements_of_different_types_do_not_mix(left, right):
    x, y = ELEMENTS[left], ELEMENTS[right]
    message = f"cannot combine {left.__name__} with {right.__name__}"
    with pytest.raises(TypeError, match=message):
        x + y
    with pytest.raises(TypeError, match=message):
        x - y


def test_each_product_takes_its_own_algebra():
    m, c = ELEMENTS[Multivector], ELEMENTS[CliffordElement]
    with pytest.raises(TypeError, match="wedge takes Multivectors"):
        wedge(c, c)
    with pytest.raises(TypeError, match="Multivector with CliffordElement"):
        wedge(m, c)
    with pytest.raises(TypeError, match="clifford_multiply takes"):
        clifford_multiply(m, m)
    with pytest.raises(TypeError, match="CliffordElement with Multivector"):
        clifford_multiply(c, m)


def test_exp_even_inverse():
    x = Multivector(4, {(0b11, 0): Fraction(2), (0, 0b1100): Fraction(-3)})
    e_pos = exp_even(x)
    e_neg = exp_even(-x)
    assert wedge(e_pos, e_neg) == Multivector.scalar(4, 1)


def test_exp_even_rejects_odd_degree():
    with pytest.raises(ValueError):
        exp_even(basis_e(4, 1))
    with pytest.raises(ValueError):
        exp_even(Multivector.scalar(4, Fraction(1)))


def test_backend_discipline():
    exact = Multivector(2, {(1, 0): Fraction(1)})
    floaty = Multivector(2, {(2, 0): 0.5})
    with pytest.raises(BackendMismatch):
        exact + floaty
    neutral = Multivector(2, {(2, 0): 2})
    assert (exact + neutral).backend() == "exact"


def test_to_text_golden():
    x = Multivector(2, {(0, 0): Fraction(1, 2), (3, 1): Fraction(-2)})
    assert x.to_text() == "1/2 * 1 + -2 * e{1,2} ^ ehat{1}"
