"""Every argument rule of the public entry points, as one table.

``scalars`` holds each rule once: a time is positive and finite
(``_positive_finite``), a count is an int at or above its bound
(``_count``), and an exact input is an int that is not a bool, or a
Fraction (``_require_exact``).  Each row is refused with a one-line error
before any numeric work: no ``RuntimeWarning`` is raised, no Python code
of numpy or scipy runs, and no function of ``_kernels`` but the entry point
itself is entered.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from heatchern import _kernels
from heatchern.duhamel import (FiniteOperator, SimplexQuadrature,
                               commutator_expansion, duhamel_series,
                               iterated_commutator, remainder_operator)
from heatchern.equivariant import (CurvatureTensor, IsometryNormalForm,
                                   euler_form, fiber_integral,
                                   fiber_integral_quadrature,
                                   local_index_density, mehler_kernel,
                                   pfaffian, transgression)
from heatchern.getzler import VolterraSymbol
from heatchern.multivector import Multivector
from heatchern.scalars import BackendMismatch
from heatchern.spectral import (FiniteComplex, IsometryAction, SpectralModel,
                                heat_supertrace, tail_bound,
                                torsion_variation)

from conftest import profiled

# numpy's and scipy's Python code, which the numeric work would enter
LIBRARIES = tuple(str(Path(m.__file__).resolve().parent) for m in (np, scipy))

ISO = IsometryNormalForm(4, 2, (0.8,))
H = FiniteOperator(np.diag([1.0, 2.0]), hermitian=True)
B = FiniteOperator([[0.0, 1.0], [1.0, 0.0]])
GRADING = np.array([1.0, -1.0])
EYE = np.eye(2)
COMPLEX = FiniteComplex((1, 1), [[[2.0]]])
MODELS = {"torus": IsometryAction.translation(0.3, 0.2),
          "sphere": IsometryAction.rotation(0.7)}
CUTOFF = 40


def _series(t=0.1, K=2):
    return duhamel_series(H, B, B, B, t, K, GRADING)


# (entry point, call with the time in place, the argument's name)
TIMES = (
    ("mehler_kernel", lambda t: mehler_kernel(
        CurvatureTensor(2, {}), t, (0.0, 0.0), (0.1, 0.2)), "t"),
    ("fiber_integral", lambda t: fiber_integral(ISO, t), "t"),
    ("fiber_integral_quadrature",
     lambda t: fiber_integral_quadrature(ISO, t), "t"),
    ("gauss_hermite_gaussian_integral",
     lambda t: _kernels.gauss_hermite_gaussian_integral(EYE, t), "four_t"),
    *((f"heat_supertrace-{g}", lambda t, g=g: heat_supertrace(
        SpectralModel(g, CUTOFF), MODELS[g], t), "t") for g in MODELS),
    *((f"tail_bound-{g}", lambda t, g=g: tail_bound(
        SpectralModel(g, CUTOFF), t), "t") for g in MODELS),
    ("commutator_expansion", lambda s: commutator_expansion(H, B, s, 2), "s"),
    ("remainder_operator", lambda s: remainder_operator(H, B, s, 2), "s"),
    ("duhamel_series", lambda t: _series(t=t), "t"),
    ("torsion_variation", lambda step: torsion_variation(
        COMPLEX, lambda e: None, 0.3, step), "step"),
)

# (entry point, call with the count in place, its name, its least value)
COUNTS = (
    ("iterated_commutator", lambda l: iterated_commutator(H, B, l), "l", 0),
    ("SimplexQuadrature", lambda k: SimplexQuadrature(k, 2), "k", 1),
    ("SimplexQuadrature", lambda s: SimplexQuadrature(2, s), "s", 0),
    ("commutator_expansion",
     lambda N: commutator_expansion(H, B, 0.3, N), "N", 1),
    ("remainder_operator", lambda N: remainder_operator(H, B, 0.3, N), "N", 1),
    ("duhamel_series", lambda K: _series(K=K), "K", 0),
    # only built: a sum over a cutoff of 2.5 never returned
    *((f"SpectralModel-{g}", lambda c, g=g: SpectralModel(g, c), "cutoff", 1)
      for g in MODELS),
    # the dimensions: a float once built and failed deep in the bitmasks
    ("IsometryNormalForm", lambda n: IsometryNormalForm(n, 2, (0.8,)), "n", 0),
    ("IsometryNormalForm", lambda a: IsometryNormalForm(4, a, (0.8,)), "a", 0),
    ("CurvatureTensor", lambda n: CurvatureTensor(n, {}), "n", 0),
    ("pfaffian", lambda a: pfaffian({}, a), "a", 0),
    ("transgression", lambda a: transgression(CurvatureTensor(2, {}), {}, a),
     "a", 0),
)

# (entry point, call with the count in place, its name, the message of its
# own range, which it states for -1): the type rule of the counts
RANGES = (
    ("euler_form", lambda a: euler_form(CurvatureTensor(4, {}), a), "a",
     "Euler form needs an even a in [0, 4], not -1"),
)

# (entry point, call with the value in place, the message's subject, values)
EXACT = (
    ("pfaffian", lambda c: pfaffian({(1, 2): Multivector(2, {(3, 0): c})}, 2),
     "Pfaffian entry coefficient", (0.5, True)),
    ("VolterraSymbol.dilate", lambda lam: VolterraSymbol.x(1, 1).dilate(lam),
     "dilation", (0.5, True)),
    ("local_index_density", lambda c: local_index_density(
        CurvatureTensor(4, {(1, 2, 1, 2): c}), ISO), "curvature", (0.5,)),
)


def _rows():
    for entry, call, name in TIMES:
        for t in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            message = (f"{name} must be positive and finite"
                       if entry != "torsion_variation" or not t <= 0
                       else "step size underflow")
            yield pytest.param(call, t, ValueError, message,
                               id=f"{entry}-{name}={t!r}")
    ranges = [(e, c, n, f"need {n} >= {least}") for e, c, n, least in COUNTS]
    for entry, call, name, below in ranges + list(RANGES):
        for value, error, message in (
                (-1, ValueError, below),
                (2.5, TypeError, f"{name} must be an int, not float"),
                (True, TypeError, f"{name} must be an int, not bool")):
            yield pytest.param(call, value, error, message,
                               id=f"{entry}-{name}={value!r}")
    for entry, call, what, values in EXACT:
        for value in values:
            yield pytest.param(
                call, value, BackendMismatch,
                f"{what} {value!r} is not an int or a Fraction",
                id=f"{entry}-{value!r}")
    # CurvatureTensor stored sign * value, which turned True into the int 1
    yield pytest.param(
        lambda c: local_index_density(CurvatureTensor(4, {(1, 2, 1, 2): c}),
                                      ISO),
        True, TypeError, "curvature component True is a bool, not a number",
        id="local_index_density-True")


@pytest.mark.parametrize("call, value, error, message", _rows())
def test_argument_rule(call, value, error, message):
    raised = None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with profiled() as reached:
            try:
                call(value)
            except Exception as exc:   # checked below, outside the profile
                raised = exc
    assert type(raised) is error, raised
    assert str(raised) == message
    library = {f"{code.co_filename}:{code.co_qualname}" for code in reached
               if code.co_filename.startswith(LIBRARIES)}
    assert library == set()
    kernels = {code.co_name for code in reached
               if Path(code.co_filename).name == "_kernels.py"}
    assert kernels <= {"gauss_hermite_gaussian_integral"}


def test_numpy_integer_counts_are_taken():
    # the count rule refuses bools and non-integers, not numpy's integers
    assert SimplexQuadrature(np.int64(2), np.int64(0)).k == 2
    assert SpectralModel("sphere", np.int32(3)).cutoff == 3
