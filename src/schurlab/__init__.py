"""schurlab: a numerical laboratory for bilinear Schur multipliers of
second-order divided differences on finite matrices and sampled symbols."""

__version__ = "0.1.0"

from .functions import FUNCTIONS, SMOOTH_TEST_SET, ScalarFunction, get_function
from .divdiff import (divided_difference, divdiff_partial, divdiff_two_var,
                      node_insertion_split)
from .matrixnum import (decreasing_rearrangement, holder_split,
                        marcinkiewicz_norm, read_matrix, schatten_norm,
                        singular_values, write_matrix)
from .schur import (Budget, DiscreteSymbol, PointSet, apply_bilinear,
                    apply_linear, m_plus, norm_lower_search,
                    triangular_truncation)
from .decomp import (SectorPartition, a_symbol, decomposition_residual, psi,
                     schur_decomposition_residual, theta)
from .hms import GridSpec, hms_norm, hms_theorem_bound, lemma43_check
from .symcalc import (HomogeneousSymbol, circle_fourier_coeffs,
                      corollary52_constants, kernel_eval, s1_factorize,
                      size_smoothness_check)
from .lowerlab import (GeometricDiscretization, limit_convergence_report,
                       limit_symbol, phi_symbol, theorem_b1_experiment,
                       theorem_b2_experiment, truncation_norm_sweep,
                       volterra_matrix)
from .dyadic import (Cube, DyadicSystem, ShiftSpec, StepFunction,
                     bk_bound_check, haar, martingale_difference,
                     paraproduct_apply, shift_apply, trilinear_form)
from .constants import (C_BMO, C_constant, Cprime_constant, D_constant,
                        ExponentTriple, asymptotics_table, beta, conj, kappa)
