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

A stack is stored as one table of vorticity planes, row k the plane of
v_k, so the recursion runs on one (n, n/2+1) plane per entry and the
projection is the curl of the contraction.  Cost per stack of depth K: each
entry v_0..v_{K-1} is lifted, dealiased and taken to physical space once
(one inverse transform of 2 velocity planes per entry), and each level sums
all its products there into the two traceless planes (T12, T22 - T11)
before one forward transform of 2 planes, so a K = 12 stack makes 12
inverse and 12 forward transforms.  A stack allocates its table once, and
one Workspace holds the physical entries and the kernel's planes; each
level is written into its row in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FieldInvariantError
from .solver import Trajectory
# nonlinear_symmetric/nonlinear_term stay bound: bench/run.py --trace 1 wraps them here.
from .spectral import (Grid, SpectralVelocity, Workspace, nonlinear_symmetric,  # noqa: F401
                       nonlinear_term, norm_l2)


@dataclass(frozen=True)
class DerivativeStack:
    """Scaled time derivatives v_k = t^k u^(k) / (2^k k!), k = 0..K, at a time t > 0.

    w is the read-only (K+1, n, n/2+1) table of their vorticity planes, row k
    the plane of v_k.  Construction checks t and the plane shape
    (FieldInvariantError otherwise).
    """

    grid: Grid
    t: float
    w: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.w) - 1

    def __post_init__(self):
        if self.t <= 0:
            raise ConfigurationError(f"derivative stacks require t > 0, got {self.t}")
        if np.ndim(self.w) != 3 or np.shape(self.w)[1:] != self.grid.k_sq.shape:
            raise FieldInvariantError(f"stack table has shape {np.shape(self.w)}, expected "
                                      f"(K+1,) + {self.grid.k_sq.shape}")
        self.w.setflags(write=False)

    def raw(self, k: int) -> SpectralVelocity:
        """The unscaled derivative u^(k) = (2^k k! / t^k) v_k."""
        return SpectralVelocity(self.grid, (2 ** k * math.factorial(k) / self.t ** k) * self.w[k])

    def __sub__(self, other: "DerivativeStack") -> "DerivativeStack":
        if self.t != other.t or self.depth != other.depth:
            raise ConfigurationError("stacks evaluated at different times or depths")
        return DerivativeStack(self.grid, self.t, self.w - other.w)


def time_derivative_stack(u: SpectralVelocity, K: int, t: float) -> DerivativeStack:
    """Build the scaled stack v_0..v_K at time t from the velocity u alone.

    The quadratic terms are dealiased and Leray-projected, each level's
    products summed in physical space:
    v_k = (t / 2k) (-P div sum_j v_j (x) v_{k-1-j} - |xi|^2 v_{k-1}).
    """
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    if t <= 0:
        raise ConfigurationError(f"stack time must be positive, got {t}")
    g = u.grid
    ws = Workspace(g, K)
    k_sq = g.k_sq.astype(complex)  # complex: no cast per product
    w = np.empty((K + 1,) + g.k_sq.shape, dtype=complex)
    w[0] = u.w
    for k in range(1, K + 1):
        ws.load(k - 1, w[k - 1])
        v = ws.level(k, out=w[k])
        v -= k_sq * w[k - 1]
        v *= t / (2.0 * k)
    return DerivativeStack(g, t, w)


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
