"""Exact diffusion semigroup on the torus and its Gevrey-sum identity.

Without boundaries the pressure in the linearized system vanishes, so the
linear flow is the plain heat semigroup acting modewise,

    lhat(xi, t) = exp(-|xi|^2 t) u0hat(xi),

and every time derivative is available in closed form (the stack is built
by derivatives.stokes_derivative_stack).  This module holds the closed forms:
heat_evolve, and the weighted sums of time-derivative norms that the
nonlinear harness estimates numerically, summed here analytically, mode by
mode, with incomplete-gamma closed forms for the time integrals.  Those come
only at integer orders a, where the regularized lower incomplete gamma
P(a, x) is the Poisson tail Pr[Poisson(x) >= a], summed in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .spectral import SpectralVelocity, mode_energies, norm_l2

LN2 = np.log(2.0)


def log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max, each from math.lgamma (exact to rounding at any k)."""
    return np.array([math.lgamma(k + 1.0) for k in range(k_max + 1)])


def _poisson_pmf(x: np.ndarray, J: int, start: int = 0) -> np.ndarray:
    """pmf_j = e^-x x^j / j! for j = 0..J along a new last axis, elementwise in x >= 0.

    The product recurrence from e^-x is accurate to about sqrt(j) ulps;
    where e^-x leaves the normal range (x > 700) the terms are taken in log
    space instead.  Orders past start + x_max + 10 sqrt(x_max) + 20, with
    x_max the largest x, are left 0 without being computed: in a sum that
    reads orders from start on, their terms are below 1e-20 of the sum, and
    the zeros keep the summation order, so the sum rounds as the full one
    does.  A non-finite x_max keeps every order.
    """
    x = np.asarray(x, dtype=float)[..., None]
    x_max = float(np.max(x, initial=0.0))
    cut = start + math.ceil(x_max + 10.0 * math.sqrt(x_max)) + 20 if math.isfinite(x_max) else J
    J_cut = min(J, cut)
    pmf = np.zeros(x.shape[:-1] + (J + 1,))
    np.cumprod(np.concatenate([np.exp(-x), x / np.arange(1, J_cut + 1)], axis=-1), axis=-1,
               out=pmf[..., : J_cut + 1])
    far = x[..., 0] > 700.0
    if np.any(far):
        xf = x[far]
        pmf[far] = np.exp(np.arange(J + 1) * np.log(xf) - xf - log_factorials(J))
    return pmf


def poisson_tail_sum(x, c) -> np.ndarray:
    """sum_{a=1..A} c_a P(a, x) for weights c_a >= 0 (c[a-1] is order a), elementwise in x >= 0.

    With pmf_j = e^-x x^j / j! and C_j = c_1 + ... + c_j, the sum is
    sum_j pmf_j C_min(j, A), taken from positive terms only: directly over
    j <= A + 10 sqrt(A) + 20 (the rest is below 1e-20 of the sum) when x < A,
    and as C_A - sum_{j<A} pmf_j (C_A - C_j) when x >= A, where the result
    is at least C_A / 2.  When every x is below A, the pmf is cut past the
    lowest order of nonzero weight (see _poisson_pmf), and the upper sum,
    which nothing reads then, is skipped.
    """
    x = np.asarray(x, dtype=float)
    C = np.cumsum(c)
    A = len(C)
    J = A + math.ceil(10.0 * math.sqrt(A)) + 20
    j = np.arange(1, J + 1)
    pmf = _poisson_pmf(x, J, start=int(np.argmax(C > 0)) + 1)
    direct = np.sum(pmf[..., 1:] * C[np.minimum(j, A) - 1], axis=-1)
    if np.all(x < A):
        return direct
    upper = C[-1] - np.sum(pmf[..., :A] * (C[-1] - np.concatenate([[0.0], C[:-1]])), axis=-1)
    return np.where(x < A, direct, upper)


def heat_evolve(u0: SpectralVelocity, t: float) -> SpectralVelocity:
    """Multiply each mode by exp(-|xi|^2 t); requires t >= 0."""
    if t < 0:
        raise ConfigurationError(f"heat_evolve needs t >= 0, got {t}")
    return u0 * np.exp(-u0.grid.k_sq * t)


@dataclass(frozen=True)
class StokesIdentityReport:
    """Result of the weighted-sum identity check for the heat flow.

    state_term is sum_{m<=M} L_m^2(t)/m!, evaluated per mode in closed form.
    integral_term carries the dissipation family H_m in the integrand (this
    variant sums exactly to the initial energy); residual_state_family is
    the residual of the alternative reading that carries L_m instead.
    tail_bound is energy * P(X > M) for X ~ Poisson(lambda_max * t).
    """

    time: float
    truncation: int
    energy: float
    state_term: float
    integral_term: float
    total: float
    residual: float
    residual_state_family: float
    tail_bound: float


def stokes_gevrey_identity(u0: SpectralVelocity, t: float, M: int) -> StokesIdentityReport:
    """Evaluate the truncated weighted-sum identity for the heat flow of u0.

    Both the state sum and the time-integral term are closed forms per mode:
    for eigenvalue lam = |xi|^2 the state contribution of order m is
    (lam t)^m exp(-2 lam t) / m! = exp(-lam t) pmf_m(lam t) times the mode
    energy, and the integral of the H_m^2/m! family is 2^-(m+1) P(m+1, 2 lam t)
    (regularized lower incomplete gamma).  Requires t >= 0 and even M >= 2.
    """
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    if M < 2 or M % 2 != 0:
        raise ConfigurationError(f"truncation order must be even and >= 2, got {M}")
    energy = norm_l2(u0) ** 2
    lams, E = mode_energies(u0)  # empty for zero data, which makes every sum 0
    m = np.arange(M + 1, dtype=float)
    lam_t = lams * t
    state = float(np.sum(E * np.exp(-lam_t) * np.sum(_poisson_pmf(lam_t, M), axis=1)))

    # integral of H-family: per mode sum_m 2^-(m+1) P(m+1, 2 lam t)
    per_mode = poisson_tail_sum(2.0 * lam_t, np.exp(-(m + 1.0) * LN2))
    integral_h = float(np.sum(E * per_mode))
    integral_l = float(np.sum((E / lams) * per_mode))

    total = state + integral_h
    tail = energy * float(poisson_tail_sum(np.max(lam_t, initial=0.0), (m == M).astype(float)))
    return StokesIdentityReport(
        time=t, truncation=M, energy=energy, state_term=state,
        integral_term=integral_h, total=total, residual=total - energy,
        residual_state_family=state + integral_l - energy, tail_bound=tail)


_K_PAIRS = 60
_LOG_FACT = log_factorials(2 * _K_PAIRS + 1)


def _h_weights(alpha: float) -> np.ndarray:
    """Weights c_a of P(a, x) in weighted_h_integral, orders a = 1..2 k_pairs + 1."""
    lf = _LOG_FACT
    c = np.empty(2 * _K_PAIRS + 1)
    k = np.arange(_K_PAIRS + 1)  # even order 2k enters as P(2k + 1, x)
    c[0::2] = np.exp(lf[2 * k] - (4 * k + 1.0) * LN2 - (2.0 + 2.0 * alpha) * lf[k])
    k = k[1:]  # odd order 2k - 1 enters as P(2k, x)
    c[1::2] = np.exp(LN2 + lf[2 * k - 1] - 4 * k * LN2 - lf[k - 1]
                     - (1.0 + 2.0 * alpha) * lf[k])
    return c


@dataclass(frozen=True)
class HeatModes:
    """What I(T) and I'(T) read of (u0, alpha): the mode energies and the weights c_a."""

    lams: np.ndarray
    energies: np.ndarray
    alpha: float
    weights: np.ndarray


def heat_modes(u0: SpectralVelocity, alpha: float) -> HeatModes:
    """The HeatModes of u0 for one alpha > 0: mode_energies(u0) and _h_weights(alpha).

    A bound-3 check builds them once and hands them to every I(T) and I'(T)
    evaluation of its three T0 solves and to its right-hand side.
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    lams, E = mode_energies(u0)
    return HeatModes(lams=lams, energies=E, alpha=alpha, weights=_h_weights(alpha))


def weighted_h_integral(modes: HeatModes, T):
    """Closed form of int_0^T sum_m H_m^2 dtau for the heat flow behind modes.

    H_m here are the fully normalized dissipation functionals (factorial and
    (j!)^alpha renormalizations applied, alpha that of the modes).  Per
    eigenvalue lam the orders integrate to sum_a c_a P(a, 2 lam T) with
    a = 2k + 1 for the even family and a = 2k for the odd one; the k-sum
    decays like 4^-k / (k!)^(2 alpha), so k_pairs = 60 leaves a negligible
    tail.  T is a time or a 1-D array of times, each entry bit-identical to
    its scalar call.
    """
    times = np.asarray(T, dtype=float)
    if np.any(times < 0):
        raise ConfigurationError(f"T must be >= 0, got {T}")
    total = np.sum(modes.energies * poisson_tail_sum(2.0 * modes.lams * times[..., None],
                                                     modes.weights), axis=-1)
    return float(total) if times.ndim == 0 else total


def weighted_h_rate(modes: HeatModes, T: float) -> float:
    """The rate I'(T) = sum_m H_m(T)^2 of weighted_h_integral I(T), in closed form.

    d/dx P(a, x) = pmf_{a-1}(x), so I'(T) = sum_lam E_lam 2 lam sum_a c_a
    pmf_{a-1}(2 lam T) with the same weights c_a; every term is positive,
    and at T = 0 it is sum_lam 2 lam E_lam c_1.
    """
    if T < 0:
        raise ConfigurationError(f"T must be >= 0, got {T}")
    pmf = _poisson_pmf(2.0 * modes.lams * T, len(modes.weights) - 1)
    return float(np.sum(2.0 * modes.lams * modes.energies * (pmf @ modes.weights)))
