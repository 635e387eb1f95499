import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern import clifford
from heatchern.clifford import (CliffordElement, _word_action,
                                berezin_supertrace, represent, supertrace,
                                symbol_map)
from heatchern.multivector import Multivector, _mask_indices, _popcount

from conftest import gen_c, gen_chat

N = 4


def ce_strategy(n=N):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.dictionaries(keys, coefs, max_size=5).map(
        lambda d: CliffordElement(n, d))


def test_defining_relations():
    n = 3
    one = CliffordElement.one(n)
    for i in range(1, n + 1):
        assert gen_c(n, i) * gen_c(n, i) == -one
        assert gen_chat(n, i) * gen_chat(n, i) == one
    for i, j in itertools.combinations(range(1, n + 1), 2):
        assert gen_c(n, i) * gen_c(n, j) + gen_c(n, j) * gen_c(n, i) \
            == CliffordElement(n)
        assert gen_chat(n, i) * gen_chat(n, j) \
            + gen_chat(n, j) * gen_chat(n, i) == CliffordElement(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert gen_c(n, i) * gen_chat(n, j) \
                + gen_chat(n, j) * gen_c(n, i) == CliffordElement(n)


@settings(max_examples=40, deadline=None)
@given(ce_strategy(3), ce_strategy(3))
def test_represent_is_homomorphism(x, y):
    assert np.array_equal(represent(x * y), represent(x) @ represent(y))


def test_generator_action_single_monomial():
    # every generator sends a basis monomial to one signed monomial
    n = 3
    for i in range(1, n + 1):
        for g in (gen_c(n, i), gen_chat(n, i)):
            for column in represent(g).T:
                assert sorted(map(abs, column)) == [0] * 7 + [1]


def test_symbol_map_identity_on_words():
    x = CliffordElement(3, {(0b101, 0b010): Fraction(2), (0, 0): Fraction(-1)})
    assert symbol_map(x) == Multivector(3, {(0b101, 0b010): Fraction(2),
                                            (0, 0): Fraction(-1)})


def test_supertrace_word_table_n2():
    n = 2
    for cm in range(4):
        for hm in range(4):
            word = CliffordElement(n, {(cm, hm): 1})
            want = -4 if (cm == 3 and hm == 3) else 0
            assert supertrace(word) == want
            assert berezin_supertrace(word) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
       st.integers(0, 15))
def test_supertrace_kills_supercommutators(c1, h1, c2, h2):
    # Str[uv] = (-1)^{|u||v|} Str[vu] on parity-homogeneous words
    n = 4
    u = CliffordElement(n, {(c1, h1): 1})
    v = CliffordElement(n, {(c2, h2): 1})
    p1 = (bin(c1).count("1") + bin(h1).count("1")) & 1
    p2 = (bin(c2).count("1") + bin(h2).count("1")) & 1
    sign = -1 if p1 and p2 else 1
    assert supertrace(u * v) == sign * supertrace(v * u)


@settings(max_examples=40, deadline=None)
@given(ce_strategy())
def test_supertrace_paths_agree(x):
    assert supertrace(x) == berezin_supertrace(x)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_matrix_supertrace_is_diagonal_of_represent(n, exact):
    rng = random.Random(n)
    for _ in range(10):
        terms = {}
        for i in range(8):
            # even i: an off-diagonal word (cm != hm); odd i: a diagonal one
            cm = rng.randrange(1 << n)
            hm = cm if i % 2 else cm ^ rng.randrange(1, 1 << n)
            terms[(cm, hm)] = (Fraction(rng.choice([-7, -2, 1, 3, 5]),
                                        rng.randint(1, 4))
                               if exact else rng.uniform(-1.0, 1.0))
        x = CliffordElement(n, terms)
        assert any(cm != hm for cm, hm in x.terms)
        mat = represent(x)
        want = sum(-mat[S, S] if bin(S).count("1") & 1 else mat[S, S]
                   for S in range(1 << n))
        assert supertrace(x) == want


def _loop_apply_word(cm, hm, subset):
    """The word (cm, hm) on e^subset one generator at a time, rightmost
    first: each flips its bit j with the sign of the bits below j, and
    c(e_j) adds a minus when it clears bit j."""
    sign = 1
    for kind, mask in (("chat", hm), ("c", cm)):
        for j in reversed(list(_mask_indices(mask))):
            bit = 1 << (j - 1)
            if _popcount(subset & (bit - 1)) & 1:
                sign = -sign
            if subset & bit and kind == "c":
                sign = -sign
            subset ^= bit
    return subset, sign


def _closed_form(cm, hm, subset):
    flip, mask, v = _word_action(cm, hm, 1)
    return subset ^ flip, -v if _popcount(subset & mask) & 1 else v


def test_word_action_matches_generator_loop():
    for n in range(1, 6):
        for cm, hm, subset in itertools.product(range(1 << n), repeat=3):
            assert _closed_form(cm, hm, subset) \
                == _loop_apply_word(cm, hm, subset), (n, cm, hm, subset)
    rng = random.Random(29)
    for n in (6, 7, 8):
        for _ in range(20000):
            cm, hm, subset = (rng.randrange(1 << n) for _ in range(3))
            assert _closed_form(cm, hm, subset) \
                == _loop_apply_word(cm, hm, subset), (n, cm, hm, subset)


def _loop_supertrace(x):
    """The matrix supertrace with every word applied by the generator loop,
    summed per subset over the words, then over the subsets."""
    words = [(cm, c) for (cm, hm), c in x.terms.items() if cm == hm]
    total = 0
    for subset in range(1 << x.n):
        diag = 0
        for cm, c in words:
            diag += _loop_apply_word(cm, cm, subset)[1] * c
        if diag:
            total += -diag if _popcount(subset) & 1 else diag
    return total


def _seeded_element(n, exact, seed=0):
    """min(40, 2^n) words of n generators, the first the top word, every
    other one with cm == hm."""
    rng = random.Random(1000 * n + seed)
    top = (1 << n) - 1
    words = {(top, top): Fraction(1, 3) if exact else 1 / 3}
    while len(words) < min(40, 1 << n):
        cm = rng.randrange(1 << n)
        hm = cm if len(words) % 2 else rng.randrange(1 << n)
        words[(cm, hm)] = (Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           if exact else rng.uniform(-1.0, 1.0))
    return CliffordElement(n, words)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("exact", [True, False])
def test_supertrace_bit_identical_to_generator_loop(n, exact):
    for seed in range(3):
        x = _seeded_element(n, exact, seed=seed)
        got, want = supertrace(x), _loop_supertrace(x)
        assert type(got) is type(want) and got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("route,n", [(supertrace, 8), (represent, 6)])
def test_sign_masks_built_once_per_word(route, n):
    x = _seeded_element(n, exact=False)
    with mock.patch.object(clifford, "_suffix_parity",
                           wraps=clifford._suffix_parity) as sp:
        route(x)
    assert 0 < sp.call_count <= 2 * len(x.terms)


@pytest.mark.parametrize("route", [supertrace, berezin_supertrace,
                                   represent, symbol_map])
def test_reads_take_only_clifford_elements(route):
    # an exterior word is no Clifford word: the matrix supertrace once read
    # this one, e^1 e^2 in both factors, as c1 c2 ch1 ch2 and returned -4,
    # and symbol_map returned it unchanged
    x = Multivector(2, {(3, 3): 1})
    with pytest.raises(TypeError,
                       match=f"{route.__name__} takes a CliffordElement, "
                             "not Multivector"):
        route(x)
    assert route(CliffordElement(2, {(3, 3): 1})) is not None


def test_berezin_path_needs_even_dimension():
    with pytest.raises(ValueError):
        berezin_supertrace(CliffordElement.one(3))


def test_to_text_golden():
    x = CliffordElement(2, {(1, 2): Fraction(3), (0, 0): Fraction(-1, 2)})
    assert x.to_text() == "-1/2 * 1 + 3 * c1 ch2"
