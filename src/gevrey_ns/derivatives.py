"""Time-derivative stacks of the Navier-Stokes flow and of the heat flow.

Differentiating the momentum equation k-1 times and projecting out the
pressure expresses u^(k) through u^(0..k-1), so the whole tuple
(u, u_t, u_tt, ...) at a fixed time t is a function of the velocity at
that time.  Stacks are built and stored in the scaled variables

    v_k = t^k u^(k) / (2^k k!),

in which the Leibniz coefficients C(k-1, j) cancel:

    v_0 = u,   v_k = (t / 2k) (Lap v_{k-1} - P sum_{j=0}^{k-1} div(v_j (x) v_{k-1-j})).

The v_k stay bounded whenever the Gevrey-weighted sums converge, so there
is no depth cap; DerivativeStack.raw(k) rescales back to u^(k).

This module builds both stacks: time_derivative_stack from a velocity, and
stokes_derivative_stack, the exact stack of the heat flow exp(t Lap) u0
(the oracle, and bound 3's base flow); _heat_rows runs the heat recursion
v_k = -(t / 2k) |xi|^2 v_{k-1} for both.  A stack is one
table of vorticity planes, row k the plane of v_k, and the projection is the
curl of the contraction.  The recursion runs on the packed dealiased band of
each entry (spectral.pack), where the products live, and each level is
unpacked into its row of the table; modes of u outside the band follow the
heat recursion.  Cost per stack of depth K: each entry v_0..v_{K-1} is
lifted, dealiased and taken to physical space once (one band synthesis of 2
velocity planes per entry), and each level sums all its products there into
the two traceless planes (T12, T22 - T11) before one band analysis of 2
planes, so a K = 12 stack makes 12 syntheses and 12 analyses.  Level k is
one Workspace.level call, which loads v_{k-1} and contracts the level, and
one product with the Workspace's band |xi|^2.  A stack allocates its table
and three band planes once, and one Workspace holds the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FieldInvariantError
from .solver import Trajectory
# nonlinear_symmetric/nonlinear_term stay bound: bench/run.py --trace 1 wraps them here.
from .spectral import (Grid, SpectralVelocity, Workspace, nonlinear_symmetric,  # noqa: F401
                       nonlinear_term, norm_l2, pack, unpack)
from .stokes import heat_evolve


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


def _heat_rows(g: Grid, w: np.ndarray, t: float) -> None:
    """Rows 1..K of the table w from row 0 by the heat recursion v_k = -(t / 2k) |xi|^2 v_{k-1}."""
    for k in range(1, len(w)):
        np.multiply(w[k - 1], g.k_sq * (-t / (2.0 * k)), out=w[k])


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
    w = np.zeros((K + 1,) + g.k_sq.shape, dtype=complex)
    w[0] = u.w
    if np.any(u.w[~g.dealias]):  # outside the band only the heat recursion acts
        _heat_rows(g, w, t)
    ws = Workspace(g, K)
    prev, v, r = pack(g, u.w), np.empty_like(ws.k_sq), np.empty_like(ws.k_sq)
    for k in range(1, K + 1):
        ws.level(k, prev, v)
        np.multiply(ws.k_sq, prev, out=r)
        v -= r
        v *= t / (2.0 * k)
        unpack(g, v, w[k])
        prev, v = v, prev
    return DerivativeStack(g, t, w)


def stokes_derivative_stack(u0: SpectralVelocity, t: float, K: int) -> DerivativeStack:
    """Exact scaled stack v_k = t^k l^(k) / (2^k k!) of the heat flow l at time t > 0.

    Entry k has coefficients (-|xi|^2 t / 2)^k / k! exp(-|xi|^2 t) u0hat(xi),
    built from v_0 = heat_evolve(u0, t) by the heat recursion.
    """
    if t <= 0:
        raise ConfigurationError(f"stokes_derivative_stack needs t > 0, got {t}")
    if K < 0:
        raise ConfigurationError("K must be >= 0")
    w = np.empty((K + 1,) + u0.grid.k_sq.shape, dtype=complex)
    w[0] = heat_evolve(u0, t).w
    _heat_rows(u0.grid, w, t)
    return DerivativeStack(u0.grid, t, w)


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
