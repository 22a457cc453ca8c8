"""Pseudo-spectral 2D periodic Navier-Stokes engine with Gevrey-weighted
derivative functionals and an inequality-auditing harness."""

from .config import RunConfig, config_from_dict, load_config
from .derivatives import (DerivativeStack, FdConvergence, fd_convergence_check,
                          stokes_derivative_stack, time_derivative_stack)
from .errors import (ConfigurationError, FieldInvariantError, GridMismatchError,
                     IntegrationError)
from .functionals import (Ccc0Audit, ConvolutionAudit, DecayFit, FunctionalSeries,
                          Theorem3Rhs, TheoremLhs, c_alpha,
                          fit_decay, lemma_audit_ccc0, lemma_audit_convolution,
                          raw_functionals, smallness_check, theorem2_log_rhs,
                          theorem2_rhs, theorem3_rhs, theorem4_rhs, theorem4_t0,
                          theorem_lhs)
from .solver import (EnergyLedger, Trajectory, cfl_limit, energy_ledger,
                     integrate, run, step)
from .spectral import (Grid, SpectralVelocity, from_lattice, hermitian_defect,
                       leray_project, make_grid, make_initial_data, mode_energies,
                       nonlinear_symmetric, nonlinear_term, norm_l2, norm_l4, parseval,
                       random_spectrum_field, shear_flow, taylor_green, to_physical,
                       validate_field)
from .stokes import (HeatModes, StokesIdentityReport, heat_evolve, heat_modes,
                     stokes_gevrey_identity, weighted_h_integral)
from .verify import C0Estimate, TheoremReport, check_theorem, estimate_c0

__all__ = [name for name in dir() if not name.startswith("_")]
