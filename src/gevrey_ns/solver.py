"""Time integration of the incompressible flow on the torus.

The scheme is integrating-factor RK4: the viscous multiplier exp(-|xi|^2 dt)
is applied exactly, so only the dealiased, Leray-projected advection term is
integrated explicitly and the step size is limited by advection alone.
Advection lives on the dealiased band, so a run steps the field's packed
band plane (spectral.pack): each stage is one Workspace.level call, a
one-entry level that lifts it to the two dealiased velocity planes and
contracts the two forward planes on the band, so a step makes 4 band
syntheses and 4 band analyses of 2 planes each, 16 planes in all; the stage
multipliers exponentiate the Workspace's band |xi|^2.  A run steps in chunks
of at most _CHUNK steps (and _CHUNK_BYTES of band planes) that never cross a
snapshot step, each step writing its band into the next row of one buffer
allocated once per run, and then reads the chunk's ledger in one pass: one
Parseval sum over the packed rows (Workspace.parseval), one finiteness test,
then the trapezoid increments and step defects in step order.  Modes of u0
outside the band only decay, by the same heat factor per step, which a
chunk applies to them in one accumulate; their sums join the chunk's.  Only
a snapshot step builds a full plane: the band unpacked over those modes,
with its own Parseval sums.  Every real and imaginary part of the stepped
band below _FLOOR = 2^-969 is set to 0 every _flush_stride steps and at
every snapshot step, and of the modes outside the band once per chunk: band
modes that the advection no longer feeds decay as heat modes into the
subnormal range, where every operation on them is slow (a step at n = 32 up
to 55% slower), a part at or above the floor takes no fewer steps than that
stride to get there, and parts that small move no reported number (see
_FLOOR for the depths this covers), so no snapshot holds a subnormal part.
Alongside the snapshots the run accumulates the dissipation integral
int_0^t |grad u|^2 by composite trapezoid on the step grid, keeping both
sums at every snapshot, so every trajectory carries its own energy ledger;
energy_ledger reads the trapezoid's own error off the snapshots, so what is
left is the solver's.
"""

from __future__ import annotations

import math
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
# at n = 128.  The depth budget (256) allows deeper stacks, which it does not cover.  A part
# at or above the floor goes subnormal only by decaying 2^53-fold, which a heat mode of the
# band (|xi|^2 <= 2 k_cut^2) does in no fewer than _flush_stride steps, so the stepped band is
# floored on that stride and at every snapshot step.
_FLOOR = np.finfo(float).tiny * 2.0 ** 53

# The most steps one ledger pass reads, and the most bytes of band planes their buffer holds
# (16 rows at n = 32, 4 at n = 64, 1 at n = 128): longer chunks gain no speed, and a buffer of
# 5 rows at n = 128, allocated per run, raised the peak RSS of repeated runs by 0.2-0.3 MiB.
_CHUNK, _CHUNK_BYTES = 16, 64 * 1024


def _flush_stride(dt: float, k_cut: int) -> int:
    """floor(53 ln 2 / (dt 2 k_cut^2)), at least 1: the most steps in which no heat mode of the
    band decays by more than 2^53."""
    return max(1, int(53.0 * math.log(2.0) / (dt * 2 * k_cut ** 2)))


def _flush(x: np.ndarray, mag: np.ndarray, small: np.ndarray) -> None:
    """Zero every real and imaginary part of the complex array x (every float of a float one)
    below _FLOOR in magnitude, in place; mag and small are a float and a bool array of
    x.view(float)'s shape."""
    f = x.view(float)
    np.abs(f, out=mag)
    np.less(mag, _FLOOR, out=small)
    np.copyto(f, 0.0, where=small)


def _flush_scratch(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The float and bool planes that _flush needs for x."""
    shape = x.view(float).shape
    return np.empty(shape), np.empty(shape, dtype=bool)


class _Outside:
    """The nonzero floats of a plane outside the band, stepped by the heat factor alone.

    No stage writes outside the band, so each step multiplies them by
    exp(-|xi|^2 dt).  advance(r) takes r steps as one accumulate over a
    chunk's rows, which gives the bits of one product per step, floors the
    last row and returns the r steps' Parseval sums (r, 2) of these floats;
    put writes the floats reached into a plane.
    """

    def __init__(self, g, w0: np.ndarray, dt: float, rows: int):
        x0 = w0.view(float).ravel()
        self.index = np.flatnonzero(np.repeat(~g.dealias.ravel(), 2) & (x0 != 0))
        self.weights = g.parseval_w[:, self.index]
        self.factors = np.empty((rows + 1, self.index.size))  # the floats reached, then the factor
        self.factors[0] = x0[self.index]
        self.factors[1:] = np.repeat(np.exp(-dt * g.k_sq).ravel(), 2)[self.index]
        self.steps = np.empty_like(self.factors)  # row j: the floats after j steps
        self.floor = _flush_scratch(self.factors[0])

    def advance(self, r: int) -> np.ndarray:
        x = self.steps[: r + 1]
        np.multiply.accumulate(self.factors[: r + 1], axis=0, out=x)
        _flush(x[r], *self.floor)
        self.factors[0] = x[r]
        return np.einsum("ri,ri,ji->rj", x[1:], x[1:], self.weights)

    def put(self, w: np.ndarray) -> None:
        np.put(w.view(float), self.index, self.factors[0])


def _advance(ws: Workspace, w: np.ndarray, coef, planes: np.ndarray, out: np.ndarray) -> None:
    """One IF-RK4 step of the packed band plane w into out, which may be w itself.

    Each stage is one ws.level call, a one-entry level; planes holds the four
    stage values and two more, so the step allocates no plane.  w is only read
    until the final combination starts writing out.
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
    # out <- e_full (w + dt/6 a) + (dt/3) e_half (b + c) + dt/6 d
    np.multiply(a, sixth, out=s)
    np.add(w, s, out=out)
    out *= e_full
    np.add(b, c, out=s)
    s *= w_bc
    out += s
    np.multiply(d, sixth, out=s)
    out += s


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
    its own plane.
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
    # chunks of at most rows steps end at every snapshot step and at the last step
    stops = sorted(set(snaps) | {n_steps})
    rows = min(_CHUNK, max(1, _CHUNK_BYTES // ws.k_sq.nbytes),
               max((b - a for a, b in zip(stops, stops[1:])), default=1))
    ends = [e for a, b in zip(stops, stops[1:]) for e in (*range(a + rows, b, rows), b)]
    bands = np.empty((rows,) + ws.k_sq.shape, dtype=complex)  # a chunk's states, step by step
    band_rows = list(bands)
    band = pack(g, u0.w, out=bands[-1])  # the stepped band; the first step reads it from here
    band_floor = _flush_scratch(band)
    stride = _flush_stride(dt, g.k_cut)
    outside = _Outside(g, u0.w, dt, rows) if np.any(u0.w[~g.dealias]) else None

    es_prev, g_prev = map(float, parseval(g, u0.w))
    D = 0.0
    step_defect = 0.0
    # _snapshot_steps always holds step 0
    times, fields, diss, grads, l2s = [0.0], [u0], [0.0], [g_prev], [es_prev]
    i = 0
    # a chunk steps on past a non-finite state, which its ledger pass reports: no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for end in ends:
            first, r = i + 1, end - i
            for out in band_rows[:r]:
                i += 1
                _advance(ws, band, coef, planes, out)
                band = out
                if i % stride == 0:
                    _flush(band, *band_floor)
            sums = ws.parseval(bands[:r])  # each step's |u|^2 and |grad u|^2
            if outside is not None:
                sums += outside.advance(r)
            snap = end in snaps
            if snap:  # a snapshot's plane is floored, and its sums are its own
                if i % stride:
                    _flush(band, *band_floor)
                w = np.zeros(g.k_sq.shape, dtype=complex)
                if outside is not None:
                    outside.put(w)
                sums[-1] = parseval(g, unpack(g, band, w))
            finite = np.isfinite(sums[:, 1])
            if not finite.all():
                bad = first + int(np.argmin(finite))
                raise IntegrationError(f"non-finite state at t={bad * dt!r} with dt={dt!r}")
            for es_new, g_new in sums.tolist():
                inc = 0.5 * dt * (g_prev + g_new)
                D += inc
                step_defect = max(step_defect, 0.5 * es_new + inc - 0.5 * es_prev)
                es_prev = es_new
                g_prev = g_new
            if snap:
                u_snap = SpectralVelocity(g, w)
                check_cfl(u_snap, i * dt)
                times.append(i * dt)
                fields.append(u_snap)
                diss.append(D)
                grads.append(g_prev)
                l2s.append(es_prev)
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
