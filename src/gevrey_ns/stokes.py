"""Exact diffusion semigroup on the torus and its Gevrey-sum identity.

Without boundaries the pressure in the linearized system vanishes, so the
linear flow is the plain heat semigroup acting modewise,

    lhat(xi, t) = exp(-|xi|^2 t) u0hat(xi),

and every time derivative is available in closed form.  That makes this
module a machine-precision oracle: the weighted sums of time-derivative
norms that the nonlinear harness estimates numerically can be summed here
analytically, mode by mode, with incomplete-gamma closed forms for the
time integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

from .derivatives import DerivativeStack
from .errors import ConfigurationError
from .spectral import SpectralVelocity, mode_energies, norm_l2

LN2 = np.log(2.0)


def heat_evolve(u0: SpectralVelocity, t: float) -> SpectralVelocity:
    """Multiply each mode by exp(-|xi|^2 t); requires t >= 0."""
    if t < 0:
        raise ConfigurationError(f"heat_evolve needs t >= 0, got {t}")
    mult = np.exp(-u0.grid.k_sq * t)
    return SpectralVelocity(u0.grid, u0.u1 * mult, u0.u2 * mult)


def stokes_derivative_stack(u0: SpectralVelocity, t: float, K: int) -> DerivativeStack:
    """Exact scaled stack v_k = t^k l^(k) / (2^k k!) of the heat flow l at time t > 0.

    Entry k has coefficients (-|xi|^2 t / 2)^k / k! exp(-|xi|^2 t) u0hat(xi),
    built as v_k = v_{k-1} (-|xi|^2 t / 2k).
    """
    if t <= 0:
        raise ConfigurationError(f"stokes_derivative_stack needs t > 0, got {t}")
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    entries = [heat_evolve(u0, t)]
    for k in range(1, K + 1):
        entries.append(entries[-1] * (u0.grid.k_sq * (-t / (2.0 * k))))
    return DerivativeStack(t=t, entries=entries)


@dataclass(frozen=True)
class StokesIdentityReport:
    """Result of the weighted-sum identity check for the heat flow.

    state_term is sum_{m<=M} L_m^2(t)/m!, evaluated per mode in closed form.
    integral_term carries the dissipation family H_m in the integrand (this
    variant sums exactly to the initial energy); integral_term_state_family
    carries L_m instead, as an alternative reading, with its own residual.
    tail_bound is energy * P(X > M) for X ~ Poisson(lambda_max * t).
    """

    time: float
    truncation: int
    energy: float
    state_term: float
    integral_term: float
    total: float
    residual: float
    integral_term_state_family: float
    total_state_family: float
    residual_state_family: float
    tail_bound: float


def _poisson_log_terms(lam_t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log of (lam*t)^m / m! for a column of eigenvalue-times against a row of orders."""
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lt = np.where(lam_t > 0, np.log(lam_t), -np.inf)
        out = m[None, :] * log_lt[:, None] - gammaln(m + 1.0)[None, :]
    # m = 0 must give log 1 even when lam*t = 0 (0 * -inf is NaN otherwise).
    out[:, 0] = np.where(lam_t > 0, out[:, 0], 0.0)
    return out


def stokes_gevrey_identity(u0: SpectralVelocity, t: float, M: int = 40) -> StokesIdentityReport:
    """Evaluate the truncated weighted-sum identity for the heat flow of u0.

    Both the state sum and the time-integral term are closed forms per mode:
    for eigenvalue lam = |xi|^2 the state contribution of order m is
    (lam t)^m exp(-2 lam t) / m! times the mode energy, and the integral of
    the H_m^2/m! family is 2^-(m+1) P(m+1, 2 lam t) (regularized lower
    incomplete gamma).  Requires t >= 0 and even M >= 2.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if M < 2 or M % 2 != 0:
        raise ConfigurationError(f"truncation order must be even and >= 2, got {M}")
    energy = norm_l2(u0) ** 2
    lams, E = mode_energies(u0)
    if lams.size == 0:
        return StokesIdentityReport(time=t, truncation=M, energy=0.0, state_term=0.0,
                                    integral_term=0.0, total=0.0, residual=0.0,
                                    integral_term_state_family=0.0, total_state_family=0.0,
                                    residual_state_family=0.0, tail_bound=0.0)
    m = np.arange(M + 1, dtype=float)
    lam_t = lams * t
    log_state = _poisson_log_terms(lam_t, m) - 2.0 * lam_t[:, None]
    state = float(np.sum(E * np.sum(np.exp(log_state), axis=1)))

    # integral of H-family: per mode sum_m 2^-(m+1) P(m+1, 2 lam t)
    reg = gammainc(m[None, :] + 1.0, 2.0 * lam_t[:, None])
    weights = np.exp(-(m + 1.0) * LN2)
    per_mode = np.sum(weights[None, :] * reg, axis=1)
    integral_h = float(np.sum(E * per_mode))
    integral_l = float(np.sum((E / lams) * per_mode))

    total = state + integral_h
    total_l = state + integral_l
    lam_max_t = float(np.max(lam_t))
    tail = energy * float(gammainc(M + 1.0, lam_max_t)) if lam_max_t > 0 else 0.0
    return StokesIdentityReport(
        time=t, truncation=M, energy=energy, state_term=state,
        integral_term=integral_h, total=total, residual=total - energy,
        integral_term_state_family=integral_l, total_state_family=total_l,
        residual_state_family=total_l - energy, tail_bound=tail)


def dissipation_integral_exact(u0: SpectralVelocity, t: float) -> float:
    """Closed form of int_0^t |grad l|^2 dtau for the heat flow of u0."""
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    lams, E = mode_energies(u0)
    if lams.size == 0:
        return 0.0
    return float(np.sum(0.5 * E * (1.0 - np.exp(-2.0 * lams * t))))


def weighted_h_integral(u0: SpectralVelocity, alpha: float, T: float,
                        k_pairs: int = 60) -> float:
    """Closed form of int_0^T sum_m H_m^2 dtau for the heat flow of u0.

    H_m here are the fully normalized dissipation functionals (factorial and
    (j!)^alpha renormalizations applied).  Per eigenvalue lam the even and
    odd orders integrate to incomplete-gamma expressions; the k-sum decays
    like 4^-k / (k!)^(2 alpha), so k_pairs = 60 leaves a negligible tail.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    if T < 0:
        raise ConfigurationError(f"T must be >= 0, got {T}")
    lams, E = mode_energies(u0)
    if lams.size == 0 or T == 0.0:
        return 0.0
    x = 2.0 * lams * T  # gamma arguments per mode

    k_even = np.arange(0, k_pairs + 1, dtype=float)
    log_even = (gammaln(2 * k_even + 1.0) - (4 * k_even + 1.0) * LN2
                - (2.0 + 2.0 * alpha) * gammaln(k_even + 1.0))
    even = np.exp(log_even)[None, :] * gammainc(2 * k_even[None, :] + 1.0, x[:, None])

    k_odd = np.arange(1, k_pairs + 1, dtype=float)
    log_odd = (LN2 + gammaln(2 * k_odd) - 4 * k_odd * LN2
               - gammaln(k_odd) - (1.0 + 2.0 * alpha) * gammaln(k_odd + 1.0))
    odd = np.exp(log_odd)[None, :] * gammainc(2 * k_odd[None, :], x[:, None])

    per_mode = np.sum(even, axis=1) + np.sum(odd, axis=1)
    return float(np.sum(E * per_mode))
