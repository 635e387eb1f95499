"""Coefficient backends.

Every algebraic identity in this package is checked in exact rational
arithmetic (``fractions.Fraction``); spectral and Gaussian numerics use
IEEE doubles.  The two backends are never mixed silently: a binary
operation on algebra elements reads :func:`backend_of` over the
coefficients of both operands, which raises :class:`BackendMismatch`
when one is exact and another floating.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

EXACT = "exact"
FLOAT = "float"

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
    with zero imaginary part equals and hashes like its real part.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        for v in (re, im):
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise BackendMismatch(f"CFrac part {v!r} is not an int or a Fraction")
        self.re = re
        self.im = im

    @staticmethod
    def _coerce(other) -> "CFrac":
        if isinstance(other, CFrac):
            return other
        if isinstance(other, (int, Fraction)):
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
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.re == o.re and self.im == o.im

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
