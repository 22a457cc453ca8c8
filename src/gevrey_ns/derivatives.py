"""Time-derivative stacks computed from the velocity alone.

Differentiating the momentum equation k-1 times and projecting out the
pressure expresses u^(k) through u^(0..k-1), so the whole tuple
(u, u_t, u_tt, ...) at a fixed time t is a function of the velocity at
that time.  Stacks are built and stored in the scaled variables

    v_k = t^k u^(k) / (2^k k!),

in which the Leibniz coefficients C(k-1, j) cancel:

    v_0 = u,   v_k = (t / 2k) (Lap v_{k-1} - P sum_{j=0}^{k-1} div(v_j (x) v_{k-1-j})).

The v_k stay bounded whenever the Gevrey-weighted sums converge, so there
is no depth cap; DerivativeStack.raw(k) rescales back to u^(k).

Cost per stack of depth K: each entry v_0..v_{K-1} is dealiased and taken to
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


@dataclass(frozen=True)
class DerivativeStack:
    """Scaled time derivatives v_k = t^k u^(k) / (2^k k!), k = 0..K, at a time t > 0."""

    t: float
    entries: list[SpectralVelocity] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.entries) - 1

    def __post_init__(self):
        if self.t <= 0:
            raise ConfigurationError(f"derivative stacks require t > 0, got {self.t}")

    def raw(self, k: int) -> SpectralVelocity:
        """The unscaled derivative u^(k) = (2^k k! / t^k) v_k."""
        return (2 ** k * math.factorial(k) / self.t ** k) * self.entries[k]

    def __sub__(self, other: "DerivativeStack") -> "DerivativeStack":
        if self.t != other.t:
            raise ConfigurationError("stacks evaluated at different times")
        m = min(len(self.entries), len(other.entries))
        return DerivativeStack(t=self.t,
                               entries=[a - b for a, b in zip(self.entries[:m], other.entries[:m])])


def time_derivative_stack(u: SpectralVelocity, K: int, t: float) -> DerivativeStack:
    """Build the scaled stack v_0..v_K at time t from the velocity u alone.

    The quadratic terms are dealiased and Leray-projected, each level's
    products summed in physical space.
    """
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    if t <= 0:
        raise ConfigurationError(f"stack time must be positive, got {t}")
    entries = [u]
    phys = []
    for k in range(1, K + 1):
        phys.append(dealiased_physical(entries[k - 1]))
        rhs = laplacian(entries[k - 1]) + nonlinear_level(u.grid, phys)
        entries.append((t / (2.0 * k)) * rhs)
    return DerivativeStack(t=t, entries=entries)


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
    target = stack.raw(k)
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
