"""The algebra C(V,q) (x) C(V,-q) in normal order, with its matrix oracle.

Words are pairs of n-bit masks (c-mask, chat-mask): all c-generators
precede all chat-generators, indices increasing.  This is the word
format of :mod:`heatchern.multivector`, and the product is its kernel
with generator squares (-1, +1): c(e_i)^2 = -1, chat(e_i)^2 = +1, and
all distinct generators (including across the two factors) anticommute.
The representation on Lambda(V) uses c = eps - iota, chat = eps + iota.
"""

from __future__ import annotations

import numpy as np

from .multivector import (Multivector, _SparseElement, _mask_indices,
                          _popcount, _product, berezin)

__all__ = [
    "CliffordElement", "clifford_multiply",
    "represent", "apply_to_basis", "symbol_map", "supertrace",
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
    if type(x) is not CliffordElement:
        raise TypeError(
            f"clifford_multiply takes CliffordElements, not {type(x).__name__}")
    x._check(y)
    return CliffordElement(x.n, _product(x.terms, y.terms, -1, +1))


def _apply_generator(j: int, subset: int, kind: str):
    """Apply c(e_j) or chat(e_j) to a basis monomial of Lambda(V).

    Returns (subset', sign); every generator maps a monomial to a single
    signed monomial.
    """
    bit = 1 << (j - 1)
    below = _popcount(subset & (bit - 1))
    sign = -1 if below & 1 else 1
    if subset & bit:
        # interior multiplication; c carries the extra minus
        if kind == "c":
            sign = -sign
        return subset ^ bit, sign
    return subset | bit, sign


def _apply_word(cm: int, hm: int, subset: int):
    """Apply the normal-ordered word to a basis monomial, rightmost first."""
    sign = 1
    for j in reversed(list(_mask_indices(hm))):
        subset, s = _apply_generator(j, subset, "chat")
        sign *= s
    for j in reversed(list(_mask_indices(cm))):
        subset, s = _apply_generator(j, subset, "c")
        sign *= s
    return subset, sign


def apply_to_basis(x: CliffordElement, subset: int):
    """Image of the basis monomial e^subset under the representation.

    Returns a dict subset' -> coefficient.
    """
    out = {}
    for (cm, hm), c in x.terms.items():
        tgt, sign = _apply_word(cm, hm, subset)
        out[tgt] = out.get(tgt, 0) + sign * c
        if out[tgt] == 0:
            del out[tgt]
    return out


def represent(x: CliffordElement) -> np.ndarray:
    """Dense 2^n x 2^n matrix of x on Lambda(V), basis indexed by subsets."""
    dim = 1 << x.n
    mat = np.zeros((dim, dim), dtype=object)
    for col in range(dim):
        for row, c in apply_to_basis(x, col).items():
            mat[row, col] += c
    return mat


def symbol_map(x: CliffordElement) -> Multivector:
    """sigma: normal-ordered words to the matching exterior words."""
    return Multivector(x.n, dict(x.terms))


def supertrace(x: CliffordElement):
    """Supertrace on C(V,q) (x) C(V,-q), by the matrix route.

    The sum over subsets S of (-1)^{|S|} <S| x |S> in the Lambda(V)
    representation.  c(e_j) and chat(e_j) each flip bit j of S, so the
    word (cm, hm) maps e^S to +-e^{S xor cm xor hm}: only the words with
    cm == hm reach the diagonal, and only they are applied.  The
    independent route is :func:`berezin_supertrace`.
    """
    words = [(cm, c) for (cm, hm), c in x.terms.items() if cm == hm]
    total = 0
    for subset in range(1 << x.n):
        diag = 0
        for cm, c in words:
            diag += _apply_word(cm, cm, subset)[1] * c
        if diag:
            total += -diag if _popcount(subset) & 1 else diag
    return total


def berezin_supertrace(x: CliffordElement):
    """Supertrace by the Berezin route: (-1)^{n/2} 2^n T(sigma(x)), even n only.

    The independent route is the matrix trace :func:`supertrace`.
    """
    if x.n % 2:
        raise ValueError("berezin supertrace path requires even n")
    sign = -1 if (x.n // 2) & 1 else 1
    return sign * (1 << x.n) * berezin(symbol_map(x))
