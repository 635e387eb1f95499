"""The shared word-product kernel against a brute-force word oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern.multivector import _product, _suffix_parity

N = 4
# the widest masks the program uses: n <= 10
WIDE = 10
SQUARES = list(itertools.product((0, -1, +1), repeat=2))


def _letters(s, t):
    """The word (s, t) as generators (family, index), family 0 first."""
    return ([(0, i) for i in range(s.bit_length()) if s >> i & 1]
            + [(1, i) for i in range(t.bit_length()) if t >> i & 1])


def oracle_word_product(w1, w2, squares):
    """Concatenate, bubble-sort counting swaps, contract equal neighbours.

    Returns (word, coefficient); the coefficient is 0 when a generator
    squaring to 0 is contracted.
    """
    letters = _letters(*w1) + _letters(*w2)
    coef = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(letters) - 1):
            a, b = letters[k], letters[k + 1]
            if a == b:
                coef *= squares[a[0]]
                del letters[k:k + 2]
                changed = True
                break
            if a > b:
                letters[k], letters[k + 1] = b, a
                coef = -coef
                changed = True
    s = sum(1 << i for f, i in letters if f == 0)
    t = sum(1 << i for f, i in letters if f == 1)
    return (s, t), coef


def words(n=N):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    return st.dictionaries(keys, st.integers(-4, 4), max_size=5)


def test_oracle_relations():
    assert oracle_word_product((0b10, 0), (0b01, 0), (0, 0)) == ((0b11, 0), -1)
    assert oracle_word_product((0b1, 0), (0b1, 0), (-1, 1)) == ((0, 0), -1)
    assert oracle_word_product((0, 0b1), (0, 0b1), (-1, 1)) == ((0, 0), 1)
    assert oracle_word_product((0, 0b1), (0b1, 0), (1, 1)) == ((0b1, 0b1), -1)


def _check_against_oracle(x, y, squares):
    want = {}
    for (w1, c1), (w2, c2) in itertools.product(x.items(), y.items()):
        key, sign = oracle_word_product(w1, w2, squares)
        if sign:
            want[key] = want.get(key, 0) + sign * c1 * c2
    got = _product(x, y, *squares)
    assert {k: c for k, c in got.items() if c} \
        == {k: c for k, c in want.items() if c}


@pytest.mark.parametrize("squares", SQUARES,
                         ids=[f"q_c={qc},q_h={qh}" for qc, qh in SQUARES])
@settings(max_examples=40, deadline=None)
@given(x=words(), y=words())
def test_product_matches_oracle(squares, x, y):
    _check_against_oracle(x, y, squares)


@pytest.mark.parametrize("squares", SQUARES,
                         ids=[f"q_c={qc},q_h={qh}" for qc, qh in SQUARES])
@settings(max_examples=60, deadline=None)
@given(x=words(WIDE), y=words(WIDE))
def test_product_matches_oracle_wide(squares, x, y):
    _check_against_oracle(x, y, squares)


def test_suffix_parity_every_mask():
    for m in range(1 << WIDE):
        want = sum(1 << j for j in range(WIDE)
                   if (m >> (j + 1)).bit_count() & 1)
        assert _suffix_parity(m) == want
