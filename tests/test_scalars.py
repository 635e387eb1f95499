import operator
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatchern.getzler import GradedDiffOp
from heatchern.scalars import (EXACT, FLOAT, BackendMismatch, CFrac, I, Mat,
                               _is_exact, backend_of)


def test_backend_of_neutral_ints():
    assert backend_of([1, -2, 0]) is None
    assert backend_of([]) is None


def test_backend_of_pins():
    assert backend_of([Fraction(1, 2), 3]) == EXACT
    assert backend_of([CFrac(1, 2), Fraction(1, 3), 1]) == EXACT
    assert backend_of([0.5, 2]) == FLOAT


def test_backend_mix_raises():
    with pytest.raises(BackendMismatch):
        backend_of([Fraction(1, 2), 0.5])
    with pytest.raises(BackendMismatch):
        backend_of([CFrac(1, 2), 0.5])


def test_backend_mix_inside_one_matrix_raises():
    # a Mat coefficient with one exact and one floating entry
    mixed = Mat(((Fraction(1, 2), 0), (0, 0.5)))
    with pytest.raises(BackendMismatch):
        backend_of([mixed])
    assert backend_of([Mat(((Fraction(1, 2), 0), (0, 1)))]) == EXACT
    assert backend_of([Mat(((1, 0), (0, 1))), 0.5]) == FLOAT
    with pytest.raises(BackendMismatch):
        GradedDiffOp.word(2, 0, 0, mixed) + GradedDiffOp.word(2, 0, 0)
    with pytest.raises(BackendMismatch):
        GradedDiffOp.word(2, 0, 0) + GradedDiffOp.word(2, 0, 0, mixed)


def test_cfrac_arithmetic():
    a = CFrac(Fraction(1, 2), 3)
    b = CFrac(2, Fraction(-1, 3))
    assert a + b == CFrac(Fraction(5, 2), Fraction(8, 3))
    assert a - b == CFrac(Fraction(-3, 2), Fraction(10, 3))
    assert I * I == CFrac(-1)
    assert (a * b).re == Fraction(1, 2) * 2 - 3 * Fraction(-1, 3)
    assert 2 * a == a * 2 == CFrac(1, 6)
    assert 1 - I == CFrac(1, -1)


def test_cfrac_complex_bridge():
    assert complex(CFrac(Fraction(1, 2), -2)) == 0.5 - 2j
    assert bool(CFrac(0, 0)) is False
    assert bool(CFrac(0, 1)) is True


def test_cfrac_str():
    assert str(CFrac(Fraction(1, 2), -3)) == "(1/2-3i)"
    assert str(CFrac(-1)) == "(-1+0i)"
    assert str(I) == "(0+1i)"


def test_cfrac_parts():
    z = CFrac(3, -2)
    assert (z.re, z.im) == (3, -2) and type(z.re) is type(z.im) is int
    assert type(CFrac(Fraction(1, 2), 4).im) is int
    w = z * CFrac(1, 1) + 2
    assert (w.re, w.im) == (7, 1) and type(w.re) is type(w.im) is int
    assert CFrac(Fraction(4, 2)) == CFrac(2) and hash(CFrac(Fraction(4, 2))) == hash(2)


def test_equal_values_hash_alike():
    values = [0, 3, -2, Fraction(0), Fraction(3), Fraction(1, 2),
              Fraction(-2), CFrac(0), CFrac(3), CFrac(Fraction(1, 2)),
              CFrac(-2, 0), CFrac(3, 1), CFrac(0, 1), I]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({CFrac(3), 3, Fraction(3)}) == 1


def test_cfrac_equality_with_any_type_never_raises():
    cfracs = [CFrac(0), CFrac(1), CFrac(Fraction(1, 2)), CFrac(1, 1)]
    others = [0, 1, Fraction(1), Fraction(1, 2), True, False, 1.0, 0.5,
              0.0, "1", "CFrac(1, 0)"]
    for a in cfracs:
        for b in cfracs + others:
            eq = a == b
            assert eq is (b == a) and eq is not (a != b), (a, b)
            if eq:
                assert hash(a) == hash(b), (a, b)
    # equal to exact values only: a bool, a float or a str never equals
    assert [b for b in others if CFrac(1) == b] == [1, Fraction(1)]
    assert CFrac(0) in [False, 0] and CFrac(1) not in [True, 1.0, "1"]


def test_cfrac_refuses_non_rational_parts():
    for bad in (0.1, 1.0, 1j, Decimal("0.5"), "1/2", True, False):
        with pytest.raises(BackendMismatch):
            CFrac(bad)
        with pytest.raises(BackendMismatch):
            CFrac(1, bad)


def test_cfrac_arithmetic_with_an_inexact_value_is_unsupported():
    # a bool or a float is no operand at all, as for any other type: the
    # operator raises TypeError, not BackendMismatch from a CFrac it built
    ops = (operator.add, operator.sub, operator.mul)
    for bad in (True, False, 1.0, 0.5):
        for op in ops:
            for args in ((CFrac(1), bad), (bad, CFrac(1))):
                with pytest.raises(TypeError, match="unsupported operand") \
                        as info:
                    op(*args)
                assert type(info.value) is TypeError, (op, args)
    # exact operands still mix in, from either side
    assert CFrac(1) + 2 == 2 + CFrac(1) == 3
    assert 2 - CFrac(1) == 1 and CFrac(1) - 2 == -1
    assert Fraction(1, 2) * CFrac(2, 4) == CFrac(1, 2)


def test_exact_means_int_or_fraction_not_bool():
    class Int(int):
        pass

    class Frac(Fraction):
        pass

    assert all(map(_is_exact, (0, -3, Fraction(1, 2), Fraction(2), Int(3),
                               Frac(1, 3))))
    assert not any(map(_is_exact, (True, False, 0.5, 1.0, CFrac(1), "1",
                                   np.int64(1), np.bool_(True))))
    assert backend_of([True, False]) is None


# entries from a small range, and multiples of the identity drawn often,
# so that a matrix equal to a scalar or a plain tuple comes up
entry = st.integers(-1, 1) | st.fractions(-1, 1, max_denominator=2)
rows = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))
rows = rows | entry.map(lambda c: ((c, 0), (0, c)))
coefficients = rows.map(Mat) | rows | entry


@given(coefficients, coefficients)
def test_mat_equality_agrees_with_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


@given(rows, entry)
def test_mat_adds_only_to_a_mat_of_its_size(m, c):
    m = Mat(m)
    for bad in (c, tuple(m), Mat([[c]])):
        with pytest.raises(TypeError, match="adds only to a Mat"):
            m + bad
        with pytest.raises(TypeError):
            bad + m
    assert m + Mat.scalar(c, 2) == Mat(((m[0][0] + c, m[0][1]),
                                        (m[1][0], m[1][1] + c)))
