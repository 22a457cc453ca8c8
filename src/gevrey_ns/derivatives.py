"""Time-derivative stacks computed from the velocity alone.

Differentiating the momentum equation k-1 times and projecting out the
pressure gives the recursion

    u^(k) = Lap u^(k-1) - P sum_{j=0}^{k-1} C(k-1, j) div(u^(j) (x) u^(k-1-j)),

so the whole tuple (u, u_t, u_tt, ...) at a fixed time is a function of the
velocity at that time.  Raw entries grow roughly like k! * scale^k, which
caps the usable depth in double precision near K = 12; beyond that the
rescaled entries

    v_k = t^k u^(k) / (2^k k!)

obey the binomial-free recursion
    v_k = (t / 2k) (Lap v_{k-1} + sum_j div-free products of v_j, v_{k-1-j})
and stay bounded whenever the weighted sums converge.

Cost per stack of depth K: each entry u^(0..K-1) is dealiased and taken to
physical space once (one inverse transform per entry), and each level sums
all its products there before one forward transform (one per level), so a
K = 12 stack makes 12 inverse and 12 forward transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .solver import Trajectory
# nonlinear_symmetric/nonlinear_term stay bound: bench/run.py --trace 1 wraps them here.
from .spectral import (SpectralVelocity, dealiased_physical, laplacian,  # noqa: F401
                       nonlinear_level, nonlinear_symmetric, nonlinear_term,
                       norm_l2)

K_MAX_RAW = 12
AMPLITUDE_LIMIT = 1e140


def binomial(k: int, j: int) -> float:
    """Binomial coefficient, exact while it fits in the double integer range.

    Log-gamma sizes the value first; below 2^53 the exact integer is used,
    above it the log-gamma evaluation stands (no overflow for any k).
    """
    if j < 0 or j > k:
        return 0.0
    log_value = math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
    if log_value <= 53.0 * math.log(2.0):
        return float(math.comb(k, j))
    return math.exp(log_value)


@dataclass(frozen=True)
class DerivativeStack:
    """Velocity time derivatives u^(0..K) at a fixed time t > 0.

    failed_at is the first order whose amplitude overflowed; entries then
    stop at failed_at - 1.
    """

    t: float
    entries: list[SpectralVelocity] = field(default_factory=list)
    failed_at: int | None = None

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def __post_init__(self):
        if self.t <= 0:
            raise ConfigurationError(f"derivative stacks require t > 0, got {self.t}")

    def __sub__(self, other: "DerivativeStack") -> "DerivativeStack":
        if self.t != other.t:
            raise ConfigurationError("stacks evaluated at different times")
        m = min(len(self.entries), len(other.entries))
        return DerivativeStack(t=self.t,
                               entries=[a - b for a, b in zip(self.entries[:m], other.entries[:m])],
                               failed_at=self.failed_at or other.failed_at)


@dataclass(frozen=True)
class ScaledDerivativeStack:
    """Entries v_k = t^k u^(k) / (2^k k!), overflow-safe for any depth."""

    t: float
    entries: list[SpectralVelocity]

    @property
    def depth(self) -> int:
        return len(self.entries) - 1


def time_derivative_stack(u: SpectralVelocity, K: int, t: float,
                          include_nonlinear: bool = True) -> DerivativeStack:
    """Build u^(0..K) at time t from the velocity u alone.

    Binomial coefficients use log-gamma; the quadratic terms are dealiased
    and Leray-projected, each level's products summed in physical space.
    If an entry's amplitude exceeds the double-range guard the stack is
    returned truncated, with failed_at set to the first uncomputable order.
    For K > 12 use scaled_time_derivative_stack.
    """
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    if K > K_MAX_RAW:
        raise ConfigurationError(
            f"raw stacks are limited to K <= {K_MAX_RAW}; use scaled_time_derivative_stack")
    if t <= 0:
        raise ConfigurationError(f"stack time must be positive, got {t}")
    entries = [u]
    phys = []
    for k in range(1, K + 1):
        rhs = laplacian(entries[k - 1])
        if include_nonlinear:
            phys.append(dealiased_physical(entries[k - 1]))
            rhs = rhs + nonlinear_level(u.grid, phys, [binomial(k - 1, j) for j in range(k)])
        amp = rhs.max_amplitude()
        if not np.isfinite(amp) or amp > AMPLITUDE_LIMIT:
            return DerivativeStack(t=t, entries=entries, failed_at=k)
        entries.append(rhs)
    return DerivativeStack(t=t, entries=entries)


def scaled_time_derivative_stack(u: SpectralVelocity, K: int, t: float) -> ScaledDerivativeStack:
    """Rescaled stack v_k = t^k u^(k) / (2^k k!), no depth limit.

    Substituting the rescaling into the derivative recursion cancels the
    binomial coefficients:  v_k = (t / 2k) (Lap v_{k-1} + sum_j N(v_j, v_{k-1-j})).
    """
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    if t <= 0:
        raise ConfigurationError(f"stack time must be positive, got {t}")
    entries = [u]
    phys = []
    for k in range(1, K + 1):
        phys.append(dealiased_physical(entries[k - 1]))
        rhs = laplacian(entries[k - 1]) + nonlinear_level(u.grid, phys, [1.0] * k)
        entries.append((t / (2.0 * k)) * rhs)
    return ScaledDerivativeStack(t=t, entries=entries)


@dataclass(frozen=True)
class FdConvergence:
    """Finite-difference cross-check of one stack entry."""

    order: int
    spacings: np.ndarray
    errors: np.ndarray
    observed_order: float


def fd_convergence_check(traj: Trajectory, t: float, k: int,
                         dt_list) -> FdConvergence:
    """Compare stack entry k at time t against centered differences of traj.

    Needs snapshots at t and t +/- h for every h in dt_list; the observed
    order is the least-squares slope of log error against log h (second
    order differences give slope 2 when the stack entry is exact).
    """
    if k not in (1, 2):
        raise ConfigurationError("finite-difference check supports k in {1, 2}")
    index = {round(s, 12): i for i, s in enumerate(traj.times)}

    def snapshot(s: float) -> SpectralVelocity:
        key = round(s, 12)
        if key not in index:
            raise ConfigurationError(
                f"trajectory lacks a snapshot at t={s!r}; add it to snapshot_times")
        return traj.fields[index[key]]

    center = snapshot(t)
    stack = time_derivative_stack(center, K=k, t=t)
    target = stack.entries[k]
    hs = np.asarray(sorted(dt_list, reverse=True), dtype=float)
    errs = []
    for h in hs:
        up, dn = snapshot(t + h), snapshot(t - h)
        if k == 1:
            fd = (up - dn) * (0.5 / h)
        else:
            fd = (up - 2.0 * center + dn) * (1.0 / (h * h))
        errs.append(norm_l2(fd - target))
    errs = np.asarray(errs)
    slope = np.polyfit(np.log(hs), np.log(np.maximum(errs, 1e-300)), 1)[0]
    return FdConvergence(order=k, spacings=hs, errors=errs, observed_order=float(slope))
