"""Numerical study of -Laplace(u) + u = u^p on the half space with
measure boundary data: minimal solutions, existence threshold, fold
continuation, and verification of the underlying kernel inequalities."""

__version__ = "0.1.0"

from .continuation import (Branch, BranchPoint, detect_fold,
                           solutions_at_kappa, trace_branch)
from .discretization import Field, Grid, build_grid, weight_h, weighted_norm
from .exponents import (AdmissiblePair, CriticalExponents, DSetParams,
                        check_admissible, check_besov_region,
                        critical_exponents, d_membership,
                        energy_exponent_window_ok, green_norm_pair_ok,
                        stabilization_index)
from .kernels import (bessel_k0, bessel_k1, fundamental_E, fundamental_dE,
                      green_G, poisson_P)
from .operators import (DegenerateLinearizationError, EigenResult,
                        HalfLineGreen, IterationLimitError, KernelMatrix,
                        apply_green, assemble_green, jacobian,
                        linearized_spectrum, poisson_trace,
                        smallest_singular_value)
from .solver import (BracketError, KappaStarEstimate, NearFoldError,
                     SolveResult, estimate_kappa_star, monotone_iterate,
                     newton_refine, psi_map)
from .verify import (CheckReport, verify_gintest_scaling, verify_glaa,
                     verify_kernel_identities, verify_solution_structure)
