"""One construction rule for the sparse algebra elements.

Terms from outside (user or parsed terms, curvature and isometry data) go
through the constructor, which checks each one with the type's ``_clean``.
A result computed from checked elements is built by
``_SparseElement._built``, which only drops zero coefficients: no
operation runs ``_clean`` again, every result is what the constructor
would make of its own terms, and no code outside ``_SparseElement``
attaches terms to an element.
"""

import ast
import random
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatchern.clifford import CliffordElement, clifford_multiply, symbol_map
from heatchern.getzler import (ExteriorDiffOp, GradedDiffOp, VolterraSymbol,
                               compose, model_operator, top_order_part,
                               volterra_compose)
from heatchern.multivector import Multivector, grade_component, wedge
from heatchern.scalars import Mat

SRC = Path(__file__).resolve().parent.parent / "src" / "heatchern"

TYPES = (Multivector, CliffordElement, VolterraSymbol, GradedDiffOp,
         ExteriorDiffOp)


@contextmanager
def _clean_calls():
    """Every element type's ``_clean``, wrapped: the mocks count its calls."""
    # read them all first: ExteriorDiffOp inherits GradedDiffOp's
    originals = [cls._clean for cls in TYPES]
    with ExitStack() as stack:
        yield [stack.enter_context(
                   mock.patch.object(cls, "_clean", wraps=clean))
               for cls, clean in zip(TYPES, originals)]


# -- seeded operands ------------------------------------------------------

def _scalar(rng):
    return Fraction(rng.randint(-2, 2), rng.randint(1, 3))


def _mat(rng):
    return Mat([[_scalar(rng), _scalar(rng)], [_scalar(rng), _scalar(rng)]])


def _operands(rng, cls, coef):
    """Two elements of cls at n = 2 or 3 on one small key pool, so their sums
    and products cancel; coef draws each coefficient (zeros included)."""
    n = 2 if cls in (VolterraSymbol, GradedDiffOp, ExteriorDiffOp) else 3
    if cls in (Multivector, CliffordElement):
        def key():
            return rng.randrange(1 << n), rng.randrange(1 << n)
    elif cls is VolterraSymbol:
        def key():
            return (tuple(rng.randint(0, 1) for _ in range(n)),
                    tuple(rng.randint(0, 2) for _ in range(n)),
                    rng.randint(0, 1))
    else:
        def key():
            if rng.random() < 0.2:
                return (rng.choice([("A",), ("B", "C")]),
                        Fraction(rng.randint(0, 3), 2))
            return (tuple(rng.randint(0, 1) for _ in range(n)),
                    rng.randrange(1 << n), rng.randrange(1 << n),
                    tuple(rng.randint(0, 1) for _ in range(n)),
                    rng.randint(0, 1))
    pool = [key() for _ in range(4)]
    return tuple(cls(n, {rng.choice(pool): coef(rng)
                         for _ in range(rng.randint(0, 5))})
                 for _ in range(2))


def _results(rng, cls, x, y):
    """Every operation on x and y that builds an element of the algebra."""
    yield from (x + y, x - y, -x, x - x,
                x.scale(rng.choice([0, 2, Fraction(-1, 3)])))
    if cls is Multivector:
        yield wedge(x, y)
        a = rng.randint(0, x.n)
        b = x.n - a
        yield grade_component(x, a, ((rng.randint(0, a), rng.randint(0, b)),
                                     (rng.randint(0, a), rng.randint(0, b))))
    elif cls is CliffordElement:
        yield clifford_multiply(x, y)
        yield symbol_map(x)
    elif cls is VolterraSymbol:
        yield volterra_compose(x, y)
        yield x.dilate(rng.choice([2, -1, Fraction(1, 3)]))
    else:
        yield compose(x, y)
        yield top_order_part(x)
        try:
            yield model_operator(x)
        except ValueError:   # an opaque summand at the top grading
            pass


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       cls=st.sampled_from(TYPES), matrices=st.booleans())
def test_every_result_is_canonical(seed, cls, matrices):
    rng = random.Random(seed)
    # End(F) coefficients belong to the operators
    coef = _mat if matrices and issubclass(cls, GradedDiffOp) else _scalar
    x, y = _operands(rng, cls, coef)
    for r in _results(rng, cls, x, y):
        assert type(r)(r.n, r.terms) == r
        assert all(r.terms.values()), r


# -- _clean runs on outside input only ------------------------------------

WORDS = {(0b001, 0): 2, (0b010, 0b100): Fraction(1, 3)}
WORDS2 = {(0b100, 0b001): -1, (0, 0): 5}
M, M2 = Multivector(3, WORDS), Multivector(3, WORDS2)
C, C2 = CliffordElement(3, WORDS), CliffordElement(3, WORDS2)
V = VolterraSymbol(2, {((1, 0), (0, 1), 0): 2, ((0, 0), (1, 0), 1): 3})
V2 = VolterraSymbol(2, {((0, 1), (1, 0), 0): -1,
                        ((1, 1), (0, 0), 0): Fraction(1, 2)})
G = GradedDiffOp(2, {((1, 0), 0b01, 0, (0, 1), 0): Mat([[1, 2], [3, 4]]),
                     (("A",), 1): Mat.scalar(2, 2)})
G2 = GradedDiffOp(2, {((0, 1), 0, 0b10, (1, 0), 1): Mat([[0, 1], [1, 0]]),
                      ((0, 0), 0b11, 0, (0, 0), 0): Mat.scalar(-1, 2)})
MODEL = GradedDiffOp.d_t(2) + GradedDiffOp.word(2, 0b11, 0b11, 3) \
    + GradedDiffOp.opaque_term(2, "connection", 1)

OPERATIONS = {
    "+": lambda: (M + M2, C + C2, V + V2, G + G2),
    "-": lambda: (M - M2, C - C2, V - V2, G - G2, -M, -V, -G),
    "scale": lambda: (M.scale(3), C.scale(3), V.scale(3), G.scale(3)),
    "wedge": lambda: wedge(M, M2),
    "clifford_multiply": lambda: clifford_multiply(C, C2),
    "grade_component": lambda: grade_component(M, 1, ((1, 0), (0, 0))),
    "symbol_map": lambda: symbol_map(C),
    "compose": lambda: compose(G, G2),
    "top_order_part": lambda: top_order_part(G),
    "model_operator": lambda: model_operator(MODEL),
    "volterra_compose": lambda: volterra_compose(V, V2),
    "dilate": lambda: V.dilate(Fraction(2, 3)),
}


@pytest.mark.parametrize("operation", OPERATIONS)
def test_operations_do_not_check_their_results_again(operation):
    with _clean_calls() as cleans:
        results = OPERATIONS[operation]()
    assert [c.call_count for c in cleans] == [0] * len(TYPES)
    results = results if isinstance(results, tuple) else (results,)
    assert not any(r.is_zero() for r in results)


@pytest.mark.parametrize("x", [M, C, V, G, ExteriorDiffOp(2, G.terms)],
                         ids=lambda x: type(x).__name__)
def test_constructor_checks_each_input_term_once(x):
    cls = type(x)
    # a term whose coefficient is zero is checked too, then dropped
    terms = {**x.terms, next(iter(x.terms)): 0}
    with _clean_calls() as cleans:
        y = cls(x.n, terms)
    assert sum(c.call_count for c in cleans) == len(terms)
    assert cleans[TYPES.index(cls)].call_count == len(terms)
    assert len(y.terms) == len(terms) - 1


# -- no second way to attach terms ----------------------------------------

def _terms_stores(tree):
    """(owner, line) of each assignment to an attribute ``terms``; the owner
    is the class or function at the top of the module that holds it."""
    return [(getattr(top, "name", None), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "terms"
            and isinstance(node.ctx, ast.Store)]


def test_only_the_sparse_element_attaches_terms():
    stores = {path.name: _terms_stores(ast.parse(path.read_text(
                  encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    own = [line for owner, line in stores["multivector.py"]
           if owner == "_SparseElement"]
    assert len(own) == 2, "the constructor and _built"
    stray = [f"{module}:{line} in {owner}"
             for module, found in stores.items() for owner, line in found
             if (module, owner) != ("multivector.py", "_SparseElement")]
    assert stray == []
