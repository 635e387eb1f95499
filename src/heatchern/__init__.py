"""Verification engine for heat-kernel index and torsion identities.

Exact bigraded exterior/Clifford algebra, equivariant supertraces and
local index densities, rescaling-order operator bookkeeping, matrix
surrogates for heat-expansion lemmas, and exactly solvable spectral
models, driven by a batch CLI.
"""

from .scalars import EXACT, FLOAT, BackendMismatch, CFrac, I
from .multivector import (Multivector, wedge, grade_component, berezin,
                          exp_even)
from .clifford import (CliffordElement, clifford_multiply, represent,
                       apply_to_basis, symbol_map, supertrace,
                       berezin_supertrace)
from .equivariant import (IsometryNormalForm, CurvatureTensor,
                          BundleVariationData, phi_tilde,
                          exterior_pushforward, lambda_pushforward_oracle,
                          equivariant_supertrace, supertrace_decomposition,
                          curvature_bivector, mehler_body, mehler_kernel,
                          mehler_heat_residual, fiber_integral,
                          fiber_integral_quadrature,
                          euler_form, local_index_density, transgression,
                          pfaffian, curvature_form_matrix,
                          hodge_variation_operator, theta_form)
from .getzler import (GradedDiffOp, ExteriorDiffOp, SigmaExtendedOp,
                      VolterraSymbol, getzler_order, model_operator, top_order_part,
                      weitzenbock, compose, lichnerowicz_split,
                      volterra_compose)
from .duhamel import (FiniteOperator, SimplexQuadrature, iterated_commutator,
                      commutator_expansion, remainder_operator,
                      duhamel_series, direct_supertrace)
from .spectral import (SpectralModel, IsometryAction, FiniteComplex,
                       heat_supertrace, tail_bound, lefschetz_number,
                       fixed_point_prediction, finite_torsion,
                       torsion_variation)
from .scenario import ScenarioConfig, ScenarioError, parse_scenario
from .report import CheckRecord, Report, emit
from .suites import run_suite

__version__ = "0.1.0"
