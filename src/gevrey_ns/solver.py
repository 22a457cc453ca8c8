"""Time integration of the incompressible flow on the torus.

The scheme is integrating-factor RK4: the viscous multiplier exp(-|xi|^2 dt)
is applied exactly, so only the dealiased, Leray-projected advection term is
integrated explicitly and the step size is limited by advection alone.
Advection lives on the dealiased band, so a run steps the field's packed
band plane (spectral.pack) in place: each stage is one Workspace.level call,
a one-entry level that lifts it to the two dealiased velocity planes and
contracts the two forward planes on the band, so a step makes 4 band
syntheses and 4 band analyses of 2 planes each, 16 planes in all; the stage
multipliers exponentiate the Workspace's band |xi|^2.  Modes of u0 outside
the band only decay, by the same heat factor per step.  After each step
every real and imaginary part of the band below _FLOOR = 2^-969 is set to
0: band modes that the advection no longer feeds decay as heat modes into
the subnormal range, where every operation on them is slow (a step at
n = 32 up to 55% slower), and parts that small move no reported number
(see _FLOOR for the depths this covers).  The floor costs three passes
over the band per step.  A run allocates its stage planes and the floor's
scratch once; after each step the band is unpacked into the state's full
plane, which one Parseval call per step reads for |u|^2 and
|grad u|^2, and a snapshot is a copy of that plane.  Alongside the
snapshots the run accumulates the dissipation integral int_0^t |grad u|^2
by composite trapezoid on the step grid, keeping both sums at every
snapshot, so every trajectory carries its own energy ledger; energy_ledger
reads the trapezoid's own error off the snapshots, so what is left is the
solver's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import step_count
from .errors import ConfigurationError, IntegrationError
from .spectral import (SpectralVelocity, Workspace, make_grid, make_initial_data, pack,
                       parseval, to_physical, unpack)


@dataclass(frozen=True)
class Trajectory:
    """Snapshots (t_i, u(t_i)) plus the running dissipation accumulator.

    grad_sq and l2_sq hold |grad u(t_i)|^2 and |u(t_i)|^2, the Parseval sums
    the run takes of every state anyway.

    max_step_defect is the largest one-step energy creation,
    max over steps of 0.5|u_new|^2 + trapezoid increment - 0.5|u_old|^2,
    clipped at zero; it bounds how far any single step strays from the
    discrete dissipation inequality.
    """

    times: list[float]
    fields: list[SpectralVelocity]
    dissipation: list[float]
    grad_sq: list[float]
    l2_sq: list[float]
    dt: float
    max_step_defect: float = 0.0

    @property
    def u0(self) -> SpectralVelocity:
        return self.fields[0]


@dataclass(frozen=True)
class EnergyLedger:
    """Residuals r(t_i) = 0.5|u(t_i)|^2 + D(t_i) - 0.5|u0|^2 at traj.times (max_abs = max |r|),
    the trapezoid's own error q(t_i) (quadrature), the defect max |r - q| left unexplained
    and its tolerance 1e-2 max |q| + n_steps eps |u0|^2 (a share of q plus rounding)."""

    residuals: np.ndarray
    max_abs: float
    quadrature: np.ndarray
    defect: float
    tolerance: float


def cfl_limit(u: SpectralVelocity) -> float:
    """Advective step bound 0.5 / (k_cut * max |u|)."""
    U1, U2 = to_physical(u)
    umax = float(np.max(np.sqrt(U1 * U1 + U2 * U2)))
    return 0.5 / (u.grid.k_cut * max(umax, 1e-14))


def _stage_coefficients(ws: Workspace, dt: float):
    """IF-RK4 multipliers on the packed band, computed once per run from ws.k_sq:
    e^(-|xi|^2 dt/2), e^(-|xi|^2 dt) and the stage weights."""
    e_half = np.exp(-0.5 * dt * ws.k_sq.real).astype(complex)  # complex: no cast per product
    e_full = np.exp(-dt * ws.k_sq.real).astype(complex)
    return e_half, e_full, dt * e_half, (dt / 3.0) * e_half, 0.5 * dt, dt / 6.0


# 2^53 times the smallest normal double.  No reported number sees a part this small:
# admissible data has a largest coefficient of about 1e-156 or more (make_initial_data
# refuses |u|^2 below the smallest normal), a K-level stack raises a mode by at most
# (2 k_cut^2)^K (2.6e18 at n = 32, K = 8), and the square of any such part underflows to 0
# in every Parseval sum.  The floor is about 1e-136 of that coefficient, so the argument
# holds while (2 k_cut^2)^K stays below about 1e128: K <= 55 at n = 32, 43 at n = 64 and 36
# at n = 128.  The depth budget (256) allows deeper stacks, which it does not cover.
_FLOOR = np.finfo(float).tiny * 2.0 ** 53


def _flush(x: np.ndarray, mag: np.ndarray, small: np.ndarray) -> None:
    """Zero every real and imaginary part of the complex plane x below _FLOOR in magnitude,
    in place; mag and small are a float and a bool plane of x.view(float)'s shape."""
    f = x.view(float)
    np.abs(f, out=mag)
    np.less(mag, _FLOOR, out=small)
    np.copyto(f, 0.0, where=small)


def _flush_scratch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float and bool planes that _flush needs for x."""
    shape = x.view(float).shape
    return np.empty(shape), np.empty(shape, dtype=bool)


def _advance(ws: Workspace, w: np.ndarray, coef, planes: np.ndarray) -> None:
    """One IF-RK4 step of the packed band plane w, in place.

    Each stage is one ws.level call, a one-entry level; planes holds the four
    stage values and two more, so the step allocates no plane.
    """
    e_half, e_full, dt_half, w_bc, h, sixth = coef
    a, b, c, d, s, r = planes
    ws.level(1, w, a)
    np.multiply(a, h, out=s)
    s += w
    s *= e_half
    ws.level(1, s, b)
    np.multiply(w, e_half, out=s)
    np.multiply(b, h, out=r)
    s += r
    ws.level(1, s, c)
    np.multiply(w, e_full, out=s)
    np.multiply(c, dt_half, out=r)
    s += r
    ws.level(1, s, d)
    # w <- e_full (w + dt/6 a) + (dt/3) e_half (b + c) + dt/6 d
    np.multiply(a, sixth, out=s)
    w += s
    w *= e_full
    np.add(b, c, out=s)
    s *= w_bc
    w += s
    np.multiply(d, sixth, out=s)
    w += s


def step(u: SpectralVelocity, dt: float) -> SpectralVelocity:
    """Advance one step of size dt > 0: the last snapshot of a one-step integrate.

    Raises IntegrationError if the result is not finite.  The caller is
    responsible for the CFL bound (see cfl_limit); run() enforces it.
    """
    return integrate(u, dt, dt, enforce_cfl=False).fields[-1]


def _snapshot_steps(dt: float, t_end: float, snapshot_times, n_steps: int) -> dict[int, float]:
    if snapshot_times is None:
        snapshot_times = [0.0, t_end] if t_end > 0 else [0.0]
    out: dict[int, float] = {}
    for s in snapshot_times:
        idx = step_count(s, dt, f"snapshot time {s!r}")
        if idx < 0 or idx > n_steps:
            raise ConfigurationError(f"snapshot time {s!r} outside [0, {t_end}]")
        out[idx] = idx * dt
    out.setdefault(0, 0.0)
    return out


def integrate(u0: SpectralVelocity, dt: float, t_end: float,
              snapshot_times=None, enforce_cfl: bool = True) -> Trajectory:
    """Integrate from u0 to t_end, recording snapshots and the dissipation ledger.

    Snapshot times must be integer multiples of dt (no interpolation, so the
    derivative recursion always sees exact solver states).  The CFL bound is
    checked at t = 0 and re-checked at every snapshot unless enforce_cfl is
    False.  Deterministic for fixed inputs.  Each snapshot after t = 0 holds
    its own copy of the stepped plane.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ConfigurationError(f"t_end must be >= 0, got {t_end}")
    n_steps = step_count(t_end, dt, f"t_end={t_end!r}")
    snaps = _snapshot_steps(dt, t_end, snapshot_times, n_steps)

    g = u0.grid
    ws = Workspace(g)
    coef, planes = _stage_coefficients(ws, dt), np.empty((6,) + ws.k_sq.shape, dtype=complex)

    def check_cfl(u: SpectralVelocity, t: float) -> None:
        if not enforce_cfl:
            return
        bound = cfl_limit(u)
        if dt > bound:
            raise IntegrationError(
                f"dt={dt!r} exceeds advective stability bound {bound:.3e} at t={t!r}")

    check_cfl(u0, 0.0)
    w = u0.w.copy()  # the state's full plane
    band = pack(g, w)  # the stepped band
    band_floor = _flush_scratch(band)
    # modes outside the band only decay: the heat factor per step, as no stage writes there
    heat = np.exp(-dt * g.k_sq) if np.any(w[~g.dealias]) else None

    def norms() -> tuple[float, float]:
        """|u|^2 and |grad u|^2 of the state."""
        es, gs = parseval(g, w)
        return float(es), float(gs)

    D = 0.0
    es_prev, g_prev = norms()
    step_defect = 0.0
    # _snapshot_steps always holds step 0
    times, fields, diss, grads, l2s = [0.0], [u0], [0.0], [g_prev], [es_prev]
    for i in range(1, n_steps + 1):
        _advance(ws, band, coef, planes)
        _flush(band, *band_floor)
        if heat is not None:
            w *= heat
        unpack(g, band, w)
        es_new, g_new = norms()
        if not np.isfinite(g_new):
            raise IntegrationError(f"non-finite state at t={i * dt!r} with dt={dt!r}")
        inc = 0.5 * dt * (g_prev + g_new)
        D += inc
        step_defect = max(step_defect, 0.5 * es_new + inc - 0.5 * es_prev)
        es_prev = es_new
        g_prev = g_new
        if i in snaps:
            u_snap = SpectralVelocity(g, w.copy())
            check_cfl(u_snap, i * dt)
            times.append(i * dt)
            fields.append(u_snap)
            diss.append(D)
            grads.append(g_new)
            l2s.append(es_new)
    return Trajectory(times=times, fields=fields, dissipation=diss, grad_sq=grads,
                      l2_sq=l2s, dt=dt, max_step_defect=step_defect)


def run(config) -> Trajectory:
    """Run a trajectory described by a RunConfig (see gevrey_ns.config)."""
    grid = make_grid(config.n)
    u0 = make_initial_data(grid, config.initial_data)
    return integrate(u0, dt=config.dt, t_end=config.t_end,
                     snapshot_times=config.resolved_snapshots())


def energy_ledger(traj: Trajectory) -> EnergyLedger:
    """Residual series of the discrete energy balance, with the trapezoid's own error.

    r(t_i) = 0.5 |u(t_i)|^2 + D(t_i) - 0.5 |u0|^2, D the trapezoid accumulator.  At step h
    the trapezoid overstates a heat mode's dissipation by lam h coth(lam h), so
    q(t_i) = 0.5 sum_xi (lam h coth(lam h) - 1)(e_xi(0) - e_xi(t_i)) over the snapshots'
    Parseval energies e_xi: exact for heat modes at any h, (h^2/12)(f'(t) - f'(0)) with
    f = |grad u|^2 as h -> 0; its cancellation at small lam h costs about eps |u0|^2.
    """
    if not traj.times:
        raise ConfigurationError("empty trajectory")
    res = 0.5 * np.asarray(traj.l2_sq) + np.asarray(traj.dissipation) - 0.5 * traj.l2_sq[0]
    g = traj.u0.grid
    x = np.stack([u.w for u in traj.fields]).view(float).reshape(len(traj.fields), -1)
    lam_h = np.maximum(traj.dt * g.shells, 1e-300)  # the mean mode (lam = 0) carries no energy
    quad = 0.5 * (g.parseval_w[0] * (x[0] ** 2 - x ** 2)) @ (lam_h / np.tanh(lam_h) - 1.0)
    n_steps = step_count(traj.times[-1], traj.dt, "the last snapshot time")
    tol = 1e-2 * np.max(np.abs(quad)) + n_steps * np.finfo(float).eps * traj.l2_sq[0]
    return EnergyLedger(residuals=res, max_abs=float(np.max(np.abs(res))),
                        quadrature=quad, defect=float(np.max(np.abs(res - quad))),
                        tolerance=float(tol))
