"""Bigraded exterior algebra Lambda(n) (x) Lambda(n), on the word core it
shares with the Clifford algebra C(V,q) (x) C(V,-q).

Basis words are pairs of n-bit masks: bit i-1 of the first mask means the
first-family generator number i, bit i-1 of the second mask the
second-family one, always written with strictly increasing indices.
Distinct generators anticommute, also across the two families.  One
product kernel, ``_product``, serves both algebras; only the squares of
the generators differ:

* (0, 0) for Lambda(n) (x) Lambda(n): the families are e^i and ehat^i,
  and the product is :func:`wedge`;
* (-1, +1) for C(V,q) (x) C(V,-q): the families are c_i and chat_i, and
  the product is ``clifford.clifford_multiply``.

The symbol map sigma is therefore the identity on words.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

from .scalars import backend_of

__all__ = [
    "Multivector", "wedge", "grade_component", "berezin", "exp_even",
]


_popcount = int.bit_count


def _suffix_parity(m: int) -> int:
    """Mask whose bit j is the parity of the bits of m above bit j.

    A prefix-xor scan from the top: after the shifts 1, 2, 4, ... bit j
    holds the xor of the bits j+1 .. j+2^k of m, and the scan stops once
    2^k reaches the width of m.
    """
    m >>= 1
    shift = 1
    while shift < m.bit_length():
        m ^= m >> shift
        shift <<= 1
    return m


def _product(x_terms: dict, y_terms: dict, q_c: int, q_h: int) -> dict:
    """Product of two word dicts, as a word dict (zero sums kept).

    Generators of the first family square to q_c, those of the second to
    q_h, each in {0, -1, +1}; distinct generators anticommute, also
    across the two families.

    The sign of a pair of words is the parity of the swaps that sort
    (s1, t1, s2, t2) and of the contractions to -1.  Each generator j of
    s2 passes the generators of s1 above j and all of t1; each one of t2
    passes the generators of t1 above j.  So with ms the suffix parity
    of s1, complemented when |t1| is odd and xor-ed with s1 when q_c is
    -1 (a shared generator contracts to -1 once), and mt the same for t1
    without the complement, the sign is the parity of
    popcount(ms & s2) + popcount(mt & t2): two masks per left word, two
    popcounts per pair.
    """
    terms = {}
    for (s1, t1), c1 in x_terms.items():
        # generators whose square is 0 kill a pair that shares them
        zero_s = 0 if q_c else s1
        zero_t = 0 if q_h else t1
        ms = _suffix_parity(s1)
        if _popcount(t1) & 1:
            ms = ~ms
        if q_c < 0:
            ms ^= s1
        mt = _suffix_parity(t1)
        if q_h < 0:
            mt ^= t1
        for (s2, t2), c2 in y_terms.items():
            if s2 & zero_s or t2 & zero_t:
                continue
            sign = -1 if (_popcount(ms & s2) + _popcount(mt & t2)) & 1 else 1
            key = (s1 ^ s2, t1 ^ t2)
            terms[key] = terms.get(key, 0) + sign * c1 * c2
    return terms


def _mask_indices(m: int):
    i = 1
    while m:
        if m & 1:
            yield i
        m >>= 1
        i += 1


class _SparseElement:
    """Sparse sum of words key -> coefficient, zero coefficients dropped.

    Shared by the exterior and the Clifford elements, whose keys are
    (first mask, second mask), and by ``getzler.VolterraSymbol`` and
    ``getzler.GradedDiffOp``.  A subclass supplies its product,
    ``_word(*key)`` for printing, and, unless its keys are mask pairs,
    ``_clean``.  Elements combine only with elements of their own type.

    The constructor checks each term from outside (user or parsed terms,
    curvature and isometry data) with ``_clean``; a result computed from
    checked elements is built by ``_built``, which only drops zero
    coefficients.  A function that takes one type only calls ``_require``.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        cleaned = (self._clean(n, key, c) for key, c in (terms or {}).items())
        self.terms = {key: c for key, c in cleaned if c}

    @staticmethod
    def _clean(n: int, key, c):
        """Canonical (key, coefficient) of one input term, or raise."""
        s, t = key
        if (s | t) >> n:
            raise ValueError(f"index mask out of range for n={n}")
        return key, c

    # -- basic queries -------------------------------------------------

    def coefficient(self, *key):
        return self.terms.get(key, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(self) is type(other):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- linear structure ----------------------------------------------

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")
        backend_of(chain(self.terms.values(), other.terms.values()))

    @classmethod
    def _built(cls, n: int, terms: dict):
        """An element of cls with terms computed from checked elements:
        zero coefficients are dropped, nothing is checked again."""
        out = cls.__new__(cls)
        out.n, out.terms = n, {key: c for key, c in terms.items() if c}
        return out

    def _like(self, terms: dict):
        """An element of the type of self with computed terms."""
        return self._built(self.n, terms)

    @classmethod
    def _require(cls, x, caller: str):
        """Raise TypeError unless x is an element of exactly cls."""
        if type(x) is not cls:
            raise TypeError(f"{caller} takes a {cls.__name__}, "
                            f"not {type(x).__name__}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms[k] + c if k in terms else c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        return self._like({k: factor * c for k, c in self.terms.items()})

    # -- serialization ----------------------------------------------------

    # sort key of the printed terms; None sorts by the key itself
    _sort_key = None

    def to_text(self) -> str:
        """Canonical text form ``coef * word + ...``, words sorted, for golden tests."""
        if not self.terms:
            return "0"
        return " + ".join(f"{self.terms[key]} * {self._word(*key)}"
                          for key in sorted(self.terms, key=self._sort_key))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {self.to_text()})"


class Multivector(_SparseElement):
    """Element of Lambda(n) (x) Lambda(n) with sparse canonical terms."""

    __slots__ = ()

    @classmethod
    def scalar(cls, n: int, value) -> "Multivector":
        return cls(n, {(0, 0): value})

    @staticmethod
    def _word(s: int, t: int) -> str:
        """``e{i,..} ^ ehat{j,..}``, or ``1`` for the empty word."""
        factors = []
        if s:
            factors.append("e{%s}" % ",".join(str(i) for i in _mask_indices(s)))
        if t:
            factors.append("ehat{%s}" % ",".join(str(i) for i in _mask_indices(t)))
        return " ^ ".join(factors) if factors else "1"


def wedge(x: Multivector, y: Multivector) -> Multivector:
    Multivector._require(x, "wedge")
    x._check(y)
    return Multivector._built(x.n, _product(x.terms, y.terms, 0, 0))


def grade_component(x: Multivector, a: int, selector) -> Multivector:
    """Projection onto Lambda^{k1,l1} (x) Lambda^{k2,l2}.

    Indices 1..a are tangent, a+1..n normal; k counts tangent and l
    normal generators, of the first family (k1, l1) and the second.
    """
    Multivector._require(x, "grade_component")
    (k1, l1), (k2, l2) = selector
    b = x.n - a
    if not (0 <= k1 <= a and 0 <= k2 <= a
            and 0 <= l1 <= b and 0 <= l2 <= b):
        raise ValueError(f"invalid selector {selector} for a={a}, n={x.n}")
    tan = (1 << a) - 1
    nor = ((1 << x.n) - 1) ^ tan
    terms = {}
    for (s, t), c in x.terms.items():
        if (_popcount(s & tan) == k1 and _popcount(s & nor) == l1
                and _popcount(t & tan) == k2 and _popcount(t & nor) == l2):
            terms[(s, t)] = c
    return Multivector._built(x.n, terms)


def berezin(x: Multivector):
    """Berezin integral T: the coefficient of the volume element omega."""
    Multivector._require(x, "berezin")
    full = (1 << x.n) - 1
    return x.coefficient(full, full)


def exp_even(x: Multivector) -> Multivector:
    """exp of a nilpotent element with only positive even total degree."""
    for s, t in x.terms:
        deg = _popcount(s) + _popcount(t)
        if deg == 0 or deg % 2:
            raise ValueError("exp_even input must have positive even degree only")
    result = Multivector.scalar(x.n, 1)
    power = result
    k = 0
    while True:
        power = wedge(power, x)
        if power.is_zero():
            return result
        k += 1
        result = result + power.scale(Fraction(1, factorial(k)))
