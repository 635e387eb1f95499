"""The algebra C(V,q) (x) C(V,-q) in normal order, with its matrix oracle.

Words are pairs of n-bit masks (c-mask, chat-mask): all c-generators
precede all chat-generators, indices increasing.  This is the word
format of :mod:`heatchern.multivector`, and the product is its kernel
with generator squares (-1, +1): c(e_i)^2 = -1, chat(e_i)^2 = +1, and
all distinct generators (including across the two factors) anticommute.
The representation on Lambda(V) uses c = eps - iota, chat = eps + iota.

A word acts in closed form.  Rightmost first, each generator flips its
bit j of e^S with the sign of the bits below j, and c(e_j) adds a minus
when it clears bit j.  The chat-generators act from the top index down,
so each sees the bits of S below it unchanged: their signs multiply to
(-1)^{|S & sp(hm)|}, sp the suffix parity.  The c-generators act on
S ^ hm alike and add |(S ^ hm) & (sp(cm) ^ cm)| to the exponent.  So the
word (cm, hm) sends e^S to (-1)^p e^{S ^ cm ^ hm} with p that sum, and
as |(S ^ hm) & m| = |S & m| + |hm & m| mod 2, the part of p that depends
on S is |S & (sp(hm) ^ sp(cm) ^ cm)|: one popcount per monomial.
"""

from __future__ import annotations

import numpy as np

from .multivector import (Multivector, _SparseElement, _mask_indices,
                          _popcount, _product, _suffix_parity, berezin)

__all__ = [
    "CliffordElement", "clifford_multiply",
    "represent", "symbol_map", "supertrace",
    "berezin_supertrace",
]


class CliffordElement(_SparseElement):
    """Sparse normal-ordered element of C(V,q) (x) C(V,-q)."""

    __slots__ = ()

    @classmethod
    def one(cls, n: int) -> "CliffordElement":
        return cls(n, {(0, 0): 1})

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        return clifford_multiply(self, other)

    @staticmethod
    def _word(cm: int, hm: int) -> str:
        """``c{i} .. ch{j} ..`` separated by spaces, or ``1`` for the empty word."""
        factors = [f"c{i}" for i in _mask_indices(cm)]
        factors += [f"ch{i}" for i in _mask_indices(hm)]
        return " ".join(factors) if factors else "1"


def clifford_multiply(x: CliffordElement, y: CliffordElement) -> CliffordElement:
    CliffordElement._require(x, "clifford_multiply")
    x._check(y)
    return CliffordElement._built(x.n, _product(x.terms, y.terms, -1, +1))


def _word_action(cm: int, hm: int, c):
    """(flip, mask, v): c times the word (cm, hm) sends e^S to
    (-1)^{|S & mask|} v e^{S ^ flip} (the closed form in the module
    docstring)."""
    b = _suffix_parity(cm) ^ cm
    return cm ^ hm, _suffix_parity(hm) ^ b, -c if _popcount(hm & b) & 1 else c


def represent(x: CliffordElement) -> np.ndarray:
    """Dense 2^n x 2^n matrix of x on Lambda(V), basis indexed by subsets."""
    CliffordElement._require(x, "represent")
    dim = 1 << x.n
    mat = np.zeros((dim, dim), dtype=object)
    actions = [_word_action(cm, hm, c) for (cm, hm), c in x.terms.items()]
    for col in range(dim):
        for flip, mask, v in actions:
            mat[col ^ flip, col] += -v if _popcount(col & mask) & 1 else v
    return mat


def symbol_map(x: CliffordElement) -> Multivector:
    """sigma: normal-ordered words to the matching exterior words."""
    CliffordElement._require(x, "symbol_map")
    return Multivector._built(x.n, x.terms)


def supertrace(x: CliffordElement):
    """Supertrace on C(V,q) (x) C(V,-q), by the matrix route.

    The sum over subsets S of (-1)^{|S|} <S| x |S> in the Lambda(V)
    representation.  The word (cm, hm) maps e^S to +-e^{S xor cm xor hm},
    with the sign of the closed form in the module docstring.  Only the
    words with cm == hm reach the diagonal; each gets its sign mask once,
    and then every one of them is applied to every S.  The independent
    route is :func:`berezin_supertrace`.
    """
    CliffordElement._require(x, "supertrace")
    words = [_word_action(cm, hm, c)[1:]
             for (cm, hm), c in x.terms.items() if cm == hm]
    total = 0
    for subset in range(1 << x.n):
        diag = 0
        for mask, v in words:
            diag += -v if _popcount(subset & mask) & 1 else v
        if diag:
            total += -diag if _popcount(subset) & 1 else diag
    return total


def berezin_supertrace(x: CliffordElement):
    """Supertrace by the Berezin route: (-1)^{n/2} 2^n T(sigma(x)), even n only.

    The independent route is the matrix trace :func:`supertrace`.
    """
    CliffordElement._require(x, "berezin_supertrace")
    if x.n % 2:
        raise ValueError("berezin supertrace path requires even n")
    sign = -1 if (x.n // 2) & 1 else 1
    return sign * (1 << x.n) * berezin(symbol_map(x))
