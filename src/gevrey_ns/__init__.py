"""Pseudo-spectral 2D periodic Navier-Stokes engine with Gevrey-weighted
derivative functionals and an inequality-auditing harness."""

from .config import RunConfig, config_from_dict, load_config
from .derivatives import (DerivativeStack, FdConvergence, fd_convergence_check,
                          time_derivative_stack)
from .errors import (ConfigurationError, FieldInvariantError, GridMismatchError,
                     IntegrationError)
from .functionals import (Ccc0Audit, ConvolutionAudit, DecayFit, FunctionalSample,
                          FunctionalSeries, ShiftedSample, SmallnessResult,
                          Theorem3Rhs, TheoremLhs, c_alpha, fit_decay,
                          lemma_audit_ccc0, lemma_audit_convolution,
                          raw_functionals, renormalize, sample_at_time_zero,
                          shifted_functionals, smallness_check, theorem2_log_rhs,
                          theorem2_rhs, theorem3_rhs, theorem4_rhs, theorem4_t0,
                          theorem_lhs)
from .solver import (EnergyLedger, Trajectory, cfl_limit, energy_ledger,
                     integrate, run, step)
from .spectral import (Grid, SpectralVelocity, divergence_defect, from_physical,
                       hermitian_defect, inner_l2, laplacian, leray,
                       leray_project, make_grid, make_initial_data,
                       mode_energies, nonlinear_symmetric, nonlinear_term,
                       norm_grad_l2, norm_l2, norm_l4, physical_grid,
                       random_spectrum_field, shear_flow, taylor_green,
                       to_physical, transform_roundtrip, validate_field)
from .stokes import (StokesIdentityReport, dissipation_integral_exact,
                     heat_evolve, stokes_derivative_stack,
                     stokes_gevrey_identity, weighted_h_integral)
from .verify import C0Estimate, TheoremReport, check_theorem, estimate_c0

__all__ = [name for name in dir() if not name.startswith("_")]
