"""Coefficient backends.

Every algebraic identity in this package is checked in exact rational
arithmetic (``fractions.Fraction``); spectral and Gaussian numerics use
IEEE doubles.  The two backends are never mixed silently: a binary
operation on algebra elements reads :func:`backend_of` over the
coefficients of both operands, which raises :class:`BackendMismatch`
when one is exact and another floating.

Where a value must be exact, :func:`_is_exact` is the one rule: an int
that is not a bool, or a ``Fraction``.  End(F) coefficients are
:class:`Mat`, a square tuple of row tuples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

import numpy as np

__all__ = ["EXACT", "FLOAT", "BackendMismatch", "backend_of", "CFrac", "I",
           "Mat"]

EXACT = "exact"
FLOAT = "float"


def _is_exact(x) -> bool:
    """An int that is not a bool, or a Fraction.

    The two exact types themselves are told by identity first: on an int,
    ``isinstance(x, Fraction)`` is an ABC check, as ``Fraction`` derives
    from ``numbers.Rational``.  Subclasses and every other type go through
    the full rule.
    """
    t = type(x)
    if t is int or t is Fraction:
        return True
    return isinstance(x, Fraction) or (isinstance(x, int)
                                       and not isinstance(x, bool))


def _negligible(value, scale) -> bool:
    """No entry of value exceeds 64 eps times the operands' scale; a product
    of inner size k <= 128 rounds by k eps / 2 times its factors' norms."""
    return bool(np.all(np.abs(value) <= 64 * 2.0 ** -52 * scale))


class BackendMismatch(TypeError):
    """Raised when exact and floating coefficients meet in one operation."""


def backend_of(values) -> str | None:
    """Backend of an iterable of coefficients.

    Fractions and Gaussian rationals (:class:`CFrac`) are exact, plain
    ints are neutral (valid in either backend); a matrix coefficient
    (a tuple of row tuples) has the backend of its entries.  Returns None
    when nothing pins the backend down.
    """
    seen = None
    for v in values:
        # a matrix's entries in one flat pass, a scalar as itself
        for x in chain.from_iterable(v) if isinstance(v, tuple) else (v,):
            if isinstance(x, bool) or type(x) is int:
                continue
            b = EXACT if isinstance(x, (Fraction, CFrac)) else FLOAT
            if seen is None:
                seen = b
            elif b != seen:
                raise BackendMismatch("mixed exact and floating coefficients in one element")
    return seen


class CFrac:
    """Gaussian rational a + b*i with int or Fraction parts.

    Used by the Volterra symbol calculus, where the D_x = -i d/dx
    convention puts factors of i into otherwise rational coefficients.
    The parts are kept as given; one that is not an int or a Fraction
    (a float or a bool, say) raises :class:`BackendMismatch`.  A CFrac
    with zero imaginary part equals and hashes like its real part; ``==``
    with a value that is not exact (a bool, a float) is False and never
    raises, and ``+``, ``-`` or ``*`` with one raises ``TypeError``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for v in (re, im):
            if not _is_exact(v):
                raise BackendMismatch(f"CFrac part {v!r} is not an int or a Fraction")
        self.re = re
        self.im = im

    @staticmethod
    def _coerce(other) -> "CFrac":
        """other as a CFrac, or NotImplemented where ``_is_exact`` refuses
        it (a bool, a float), so the operator raises TypeError."""
        if isinstance(other, CFrac):
            return other
        if _is_exact(other):
            return CFrac(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CFrac(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return CFrac(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CFrac(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CFrac(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CFrac):
            return self.re == other.re and self.im == other.im
        if _is_exact(other):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"CFrac({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)


I = CFrac(0, 1)


class Mat(tuple):
    """Square matrix coefficient (an endomorphism-valued term), as row tuples.

    Equality and hash are the tuple's.  A Mat adds only to a Mat of its
    size; anything else raises ``TypeError``.  In ``*`` a Mat multiplies
    a Mat of its size as a matrix, and a scalar entrywise.
    """

    __slots__ = ()

    def __new__(cls, rows):
        self = super().__new__(cls, (tuple(row) for row in rows))
        if any(len(row) != len(self) for row in self):
            raise ValueError("matrix coefficient must be square")
        return self

    @classmethod
    def scalar(cls, value, r: int) -> "Mat":
        return _square(tuple(value if i == j else 0 for j in range(r))
                       for i in range(r))

    def __add__(self, other):
        if not (isinstance(other, Mat) and len(other) == len(self)):
            raise TypeError(f"a {len(self)}x{len(self)} Mat adds only to a "
                            f"Mat of its size, not {other!r}")
        return _square(tuple(x + y for x, y in zip(ra, rb))
                       for ra, rb in zip(self, other))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Mat):
            if len(other) != len(self):
                raise ValueError("matrix coefficient size mismatch")
            cols = tuple(zip(*other))
            return _square(tuple(sum(x * y for x, y in zip(row, col))
                                 for col in cols) for row in self)
        return _square(tuple(v * other for v in row) for row in self)

    def __rmul__(self, other):
        return _square(tuple(other * v for v in row) for row in self)

    def __neg__(self):
        return _square(tuple(-v for v in row) for row in self)

    def __bool__(self):
        return any(v for row in self for v in row)


def _square(rows) -> Mat:
    """A Mat from row tuples already known to form a square."""
    return tuple.__new__(Mat, rows)
