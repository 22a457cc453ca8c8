"""Experiment orchestration: constant estimation and the four bound checks.

check_theorem runs the pipeline solver -> derivative stacks -> functionals
-> LHS/RHS and renders a TheoremReport whose verdict tolerates exactly the
quadrature-plus-truncation error budget it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .config import RunConfig
from .derivatives import DerivativeStack, stokes_derivative_stack, time_derivative_stack
from .errors import ConfigurationError, IntegrationError
from .functionals import (FunctionalSeries, TheoremLhs, fit_decay, raw_functionals,
                          smallness_check, theorem2_log_rhs, theorem2_rhs, theorem3_rhs,
                          theorem4_rhs, theorem4_t0, theorem_lhs)
from .solver import Trajectory, integrate
from .spectral import (Grid, SpectralVelocity, make_grid, make_initial_data,
                       mode_energies, norm_l2, shear_flow, taylor_green)
from .stokes import heat_modes

_RELAX = 1.5  # relaxation of the preconditioned C0 ascent step
_RISE = 1e-4  # a C0 ascent row stops at its first trial that beats its best by less, relative
_K_CAP = 8  # the C0 ascent's band |xi|_inf <= k_cap, on its own grid of 2 k_cap + 2 modes


# ---------------------------------------------------------------------------
# Empirical interpolation constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C0Estimate:
    """Gradient-ascent estimate of the L4 interpolation constant.

    value = max over samples of |z|_{L4}^2 / (|z|_{L2} |grad z|_{L2}) after
    ascent refinement; spectrum_signature is the shell energy profile of the
    maximizing field; trials holds each sample's ascent trials.
    """

    value: float
    sample_values: list[float]
    spectrum_signature: np.ndarray
    n_samples: int
    ascent_steps: int
    seed: int
    trials: list[int]


def _rayleigh_batch(g: Grid, band: spectral.BandDFT,
                    Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rayleigh ratios |z|_{L4}^2 / (|z|_{L2} |grad z|_{L2}) of a stack Z of
    S vorticity planes on grid g, shape (S,), and the vorticity of the
    projected spectral gradients of their logs.

    band is g's BandDFT on the 2n x 2n grid, where spectral.l4_quadrature
    forms |z|^2 and the cubic |z|^2 z; for fields on a cap grid both the
    quartic integral and the cubic's retained modes are exact there.  The
    projected gradient is the curl of the analysed cubic plus the planes'
    own terms.  Every reduction is per row, so no row affects another.
    """
    U, q, l4sq = spectral.l4_quadrature(band, g, Z)
    l2sq, g2sq = spectral.parseval(g, Z).T
    cub = band.analyze(U * q[:, None])
    curl = spectral.xi_cross(g, cub) * (2j / l4sq ** 2)[:, None, None]
    grad = curl - Z / l2sq[:, None, None] - g.k_sq * Z / g2sq[:, None, None]
    return l4sq / np.sqrt(l2sq * g2sq), grad


def _unit_rows(g: Grid, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of S vorticity planes scaled to unit L2 rows, and the scaled rows'
    |grad z|^2, shape (S, 1, 1)."""
    l2sq, g2sq = spectral.parseval(g, Z).T[..., None, None]
    return Z * (1.0 / np.sqrt(l2sq)), g2sq / l2sq


def _capped_sample(grid: Grid, k_cap: int, seed_pair) -> SpectralVelocity:
    """Random field drawn mode-by-mode over the cap box in a grid-independent order.

    The modes (p, q) of the half box p > 0, or p = 0 < q, are taken with p
    outer and q inner, each drawing four normals (re u1, im u1, re u2, im u2)
    scaled by 1/|(p, q)|; the mirror modes get the conjugates.
    """
    rng = np.random.default_rng(seed_pair)
    n = grid.n
    p, q = np.divmod(np.arange(k_cap + 1, (k_cap + 1) * (2 * k_cap + 1)), 2 * k_cap + 1)
    q -= k_cap
    # sqrt of the exact integer p^2 + q^2 is the correctly rounded |(p, q)|
    draw = rng.standard_normal((len(p), 4)) / np.sqrt(p * p + q * q)[:, None]
    c = (draw[:, 0::2] + 1j * draw[:, 1::2]).T
    u = np.zeros((2, n, n), dtype=complex)
    u[:, p % n, q % n] = c
    u[:, -p % n, -q % n] = np.conj(c)
    return spectral.from_lattice(grid, u)


def estimate_c0(n_samples: int = 6, ascent_steps: int = 120, seed: int = 0) -> C0Estimate:
    """Estimate the optimal constant in |z|_{L4}^2 <= C0 |z|_{L2} |grad z|_{L2}.

    Starting fields are the shear mode, the cellular vortex (perturbed by a
    1e-3 random draw, so its ascent leaves the vortex's symmetric subspace
    by design rather than by rounding), and random band-limited draws.  Each
    is refined on the Rayleigh ratio, constrained to |xi|_inf <= _K_CAP, by
    Petviashvili's preconditioned iteration: z + 1.5 D^-1 grad, normalized,
    with D = 1/|z|^2 + |xi|^2/|grad z|^2 the ratio's quadratic part.  A row
    stops at its first trial that does not beat its best by 1e-4 relative (a
    zero gradient included), or after ascent_steps trials; trials counts
    them.  The live rows step together as one stack of vorticity planes, so
    each trial is one band synthesis and one band analysis (spectral.BandDFT,
    built once per call).  The ascent runs on its own cap grid of 2 _K_CAP + 2
    modes, whose retained band is exactly the cap box: C0 belongs to the
    continuum, so no run's grid enters the estimate.  Every rule is per row:
    the estimate is deterministic per seed, and the first k sample values and
    trials do not depend on n_samples >= k, so the estimate is nondecreasing
    in n_samples.  Raises ConfigurationError if n_samples < 1.
    """
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")
    cg = make_grid(2 * _K_CAP + 2)
    starts = [shear_flow(cg, 1.0)]
    if n_samples >= 2:
        # the vortex is a critical point of the ratio on its symmetric
        # subspace; a small draw 1 (no random start uses index 1) moves it off
        starts.append(taylor_green(cg, 1.0) + 1e-3 * _capped_sample(cg, _K_CAP, [seed, 1]))
    starts += [_capped_sample(cg, _K_CAP, [seed, i]) for i in range(2, n_samples)]
    Z, g2sq = _unit_rows(cg, np.stack([z.w for z in starts]))
    band = spectral.band_dft(cg, 2 * cg.n)
    best, grad = _rayleigh_batch(cg, band, Z)
    best_Z = Z.copy()
    trials = np.zeros(n_samples, dtype=int)
    rows = np.arange(n_samples)  # the live rows, which Z, grad and g2sq hold
    for _ in range(ascent_steps):
        # on unit rows D = 1 + |xi|^2/|grad z|^2
        Z, g2sq = _unit_rows(cg, Z + _RELAX * grad / (1.0 + cg.k_sq / g2sq))
        r, grad = _rayleigh_batch(cg, band, Z)
        trials[rows] += 1
        last = best[rows]
        up = r > last
        best[rows[up]] = r[up]
        best_Z[rows[up]] = Z[up]
        go = r > (1.0 + _RISE) * last  # False for a zero (or NaN) gradient as well
        if not go.any():
            break
        rows, Z, grad, g2sq = rows[go], Z[go], grad[go], g2sq[go]
    i = int(np.argmax(best))
    lams, E = mode_energies(SpectralVelocity(cg, best_Z[i]))
    shells = np.bincount(np.rint(np.sqrt(lams)).astype(int), weights=E)
    return C0Estimate(value=float(best[i]), sample_values=best.tolist(),
                      spectrum_signature=shells, n_samples=n_samples,
                      ascent_steps=ascent_steps, seed=seed, trials=trials.tolist())


def estimate_c0_from_config(config: RunConfig) -> C0Estimate:
    """estimate_c0 on the config's estimate block; absent keys take its defaults."""
    opts = dict(config.c0)
    if opts.pop("mode") != "estimate":
        raise ConfigurationError(f"estimating C0 needs c0 mode 'estimate', got {config.c0!r}")
    return estimate_c0(seed=config.seed, **opts)


def resolve_c0(config: RunConfig) -> tuple[float, dict]:
    """Fixed value or fresh estimate per the config's c0 block."""
    c0cfg = config.c0
    if c0cfg["mode"] == "fixed":
        return float(c0cfg["value"]), {"mode": "fixed", "value": float(c0cfg["value"])}
    est = estimate_c0_from_config(config)
    return est.value, {"mode": "estimate", "value": est.value,
                       "n_samples": est.n_samples, "ascent_steps": est.ascent_steps,
                       "trials": est.trials}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class TheoremReport:
    """Per-time LHS/RHS margins for one bound, with the error budget embedded.

    A row passes when margin >= -err_budget; the verdict requires every row
    to pass, and status "n/a" (precondition unmet) or "error" keeps it False.
    series and trajectory, the run behind the rows, are attached only with
    rows and are not serialized.
    """

    theorem_id: int
    params: dict
    rows: list[dict] = field(default_factory=list)
    verdict: bool = False
    status: str = "ok"
    message: str = ""
    extras: dict = field(default_factory=dict)
    series: FunctionalSeries | None = None
    trajectory: Trajectory | None = None

    def to_dict(self) -> dict:
        return {"theorem": self.theorem_id, "params": self.params,
                "rows": self.rows, "verdict": self.verdict,
                "status": self.status, "message": self.message,
                "extras": self.extras}


def _add_rows(report: TheoremReport, res: TheoremLhs, k: int, rhs, sel=slice(None),
              **cols) -> None:
    """Append a row per selected time of res truncated at order k (column k):
    margin = rhs - lhs (inf where rhs is +inf), err_budget = quad_err +
    tail_err, ok = margin >= -err_budget; cols are constants written into
    every row."""
    lhs, quad, tail = res.lhs[:, k], res.quad_err[:, k], res.trunc_tail[:, k]
    budget = quad + tail
    rhs = np.broadcast_to(np.asarray(rhs, dtype=float), np.shape(lhs))
    for i in np.arange(len(res.times))[sel]:
        margin = math.inf if rhs[i] == math.inf else float(rhs[i] - lhs[i])
        report.rows.append({"t": float(res.times[i]), "lhs": float(lhs[i]),
                            "rhs": float(rhs[i]), "margin": margin,
                            "err_budget": float(budget[i]), "ok": margin >= -float(budget[i]),
                            **cols, "quad_err": quad[i], "tail_err": tail[i]})


def stack_series(traj: Trajectory, K: int, fluctuation: bool = False) -> FunctionalSeries:
    """Functional tables along a trajectory, whose first sample is t = 0.

    Row 0 is the t -> 0+ limit, where only L~_0 = |u0| and H~_0 = |grad u0|
    survive; both are read off the trajectory's own Parseval sums.  With
    fluctuation=True the rows are of f = u - l, with the heat-flow stack's
    table subtracted exactly, and row 0 is zero.  Each stack is reduced to
    its row as soon as it is built: a row holds one table, or three for a
    fluctuation row (the two stacks and their difference).
    """
    u0 = traj.u0
    times = np.asarray(traj.times, dtype=float)
    M = max(0, 2 * K - 1)
    L, H = np.zeros((len(times), M + 1)), np.zeros((len(times), M + 1))
    if not fluctuation:
        L[0, 0], H[0, 0] = np.sqrt(traj.l2_sq[0]), np.sqrt(traj.grad_sq[0])
    for i, (t, u) in enumerate(zip(traj.times[1:], traj.fields[1:]), start=1):
        st = time_derivative_stack(u, K, t)
        if fluctuation:
            st = DerivativeStack(u.grid, t, st.w - stokes_derivative_stack(u0, t, K).w)
        L[i], H[i] = raw_functionals(st)
    return FunctionalSeries(times=times, L_tilde=L, H_tilde=H)


def check_theorem(theorem_id: int, config: RunConfig) -> TheoremReport:
    """Run the full pipeline for one bound and render its report.

    Every bound needs stack_depth >= 1 (ConfigurationError before any work
    otherwise).  Bound 1 requires the smallness condition (N/A before the run otherwise);
    bound 2 is evaluated for every doubling depth n <= theorem2_n_max, and
    since the row at depth n reads orders <= n, it stacks only to depth
    min(stack_depth, theorem2_n_max + 1), recorded as params["K_used"]; bound 3
    rescopes the run to the analytic existence time T0, stepped in 8 equal
    snapshot intervals with config.dt as the largest step (the count is
    params["window_steps"]); bound 4 fits the
    decay envelope on the configured window (only when gamma is None) and
    checks from the admissible origin.
    """
    if theorem_id not in (1, 2, 3, 4):
        raise ConfigurationError(f"theorem id must be 1..4, got {theorem_id}")
    if config.stack_depth < 1:
        raise ConfigurationError(f"check-thm{theorem_id} needs stack_depth >= 1 (every bound "
                                 f"carries L~_1, which needs u_t), got {config.stack_depth}")
    u0 = make_initial_data(make_grid(config.n), config.initial_data)
    alpha = config.alpha
    c0, c0_info = resolve_c0(config)
    u0n = norm_l2(u0)
    params = {"alpha": alpha, "c0": c0_info, "u0_l2": u0n, "seed": config.seed,
              "K": config.stack_depth, "n_grid": config.n}
    report = TheoremReport(theorem_id=theorem_id, params=params)
    try:
        _run_check(theorem_id, config, u0, alpha, c0, u0n, report)
    except (IntegrationError, ConfigurationError) as exc:
        report.status = "error"
        report.message = str(exc)
    report.verdict = report.status == "ok" and all(row["ok"] for row in report.rows)
    return report


def _run_check(theorem_id: int, config: RunConfig, u0: SpectralVelocity,
               alpha: float, c0: float, u0n: float, report: TheoremReport) -> None:
    if theorem_id == 1:
        small = report.params["smallness_value"] = smallness_check(u0n, c0, alpha)
        if not small < 1.0:
            report.status = "n/a"
            report.message = f"smallness condition fails: 8 C0 C_alpha |u0| = {small:.6g} >= 1"
            return
    if theorem_id == 3:
        traj, series = _check_theorem3(config, u0, alpha, c0, u0n, report)
    else:
        traj = integrate(u0, dt=config.dt, t_end=config.t_end,
                         snapshot_times=config.resolved_snapshots())
        K = config.stack_depth
        if theorem_id == 2:
            # the row at depth n reads orders <= n, so entries v_0..v_{n+1}
            K = report.params["K_used"] = min(K, config.theorem2_n_max + 1)
        series = stack_series(traj, K)
    if theorem_id == 1:
        _add_rows(report, theorem_lhs(series, 1, alpha), -1, u0n ** 2)
        report.extras["c0_sensitivity"] = {
            "smallness_at_c0_minus_10pct": smallness_check(u0n, 0.9 * c0, alpha),
            "smallness_at_c0_plus_10pct": smallness_check(u0n, 1.1 * c0, alpha),
        }
    elif theorem_id == 2:
        small = report.params["smallness_value"] = smallness_check(u0n, c0, alpha)
        if small < 1.0:
            # the doubling bound targets data violating the smallness
            # condition; its printed constant absorbs a large-data
            # assumption, and small data can falsify it at t = 0
            report.message = ("data satisfies the smallness condition; the "
                              "doubling bound's constant assumes large data and "
                              "may fail here (genuine finding, not a harness bug)")
        res = theorem_lhs(series, 2, alpha)
        for n in range(0, config.theorem2_n_max + 1):
            _add_rows(report, res, min(n, series.k_cap), theorem2_rhs(u0n, c0, alpha, n),
                      n=float(n), log_rhs=theorem2_log_rhs(u0n, c0, alpha, n))
        report.extras["rhs_sensitivity"] = {
            "c0_minus_10pct": theorem2_log_rhs(u0n, 0.9 * c0, alpha, config.theorem2_n_max),
            "c0_plus_10pct": theorem2_log_rhs(u0n, 1.1 * c0, alpha, config.theorem2_n_max),
        }
    elif theorem_id == 4 and not _check_theorem4(config, series, alpha, c0, report):
        return
    report.series, report.trajectory = series, traj


def _check_theorem4(config: RunConfig, series: FunctionalSeries, alpha: float, c0: float,
                    report: TheoremReport) -> bool:
    """Accelerated decay from the admissible origin t0; False when n/a (no rows).

    |u(t)| is read off the series: L~_0 = |v_0| = |u|.  The LHS reads every
    sample time, so the envelope |u(t)| <= K_env t^-gamma is made to hold at
    each t > 0, not only on the fit window: K_env is the largest |u(t)| t^gamma
    there, and at least the fitted K_fit when gamma is fitted.
    """
    times, norms = series.times, series.L_tilde[:, 0]
    gamma = config.gamma
    K_env = 0.0
    if gamma is None:
        fit = fit_decay(times, norms, config.decay_window)
        if fit.gamma_fit <= 0:
            report.status = "n/a"
            report.message = f"fitted decay exponent {fit.gamma_fit:.3g} is not positive"
            return False
        gamma = fit.gamma_fit
        K_env = fit.K_fit
        report.params["fit_residual"] = fit.residual
    pos = times > 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # both are range-checked below
        K_env = max(K_env, float(np.max(norms[pos] * times[pos] ** gamma)))
        res = theorem_lhs(series, 4, alpha, gamma=gamma)
    report.params["K_fit"] = K_env
    report.params["gamma_fit"] = gamma
    t0 = theorem4_t0(c0, alpha, K_env, gamma)
    report.params["t0"] = t0
    rhs = theorem4_rhs(K_env, gamma)
    sel = res.times >= t0 - 1e-12
    if not np.all(np.isfinite(np.append(res.lhs[sel, -1], rhs))):  # no verdict from an inf
        raise ConfigurationError(f"bound 4 leaves the double range at gamma = {gamma:.6g}: "
                                 "2^(2 gamma) K^2 or the t^(2 gamma)-weighted LHS is not finite")
    if not np.any(sel):
        report.status = "n/a"
        report.message = (f"admissible origin t0 = {t0:.3g} lies beyond the horizon "
                          f"{config.t_end}; no snapshots to check")
        return False
    _add_rows(report, res, -1, rhs, sel)
    # sensitivity of the integral term to starting the accumulation at t0
    integral = res.integral[:, -1]
    start = int(np.argmax(sel))
    report.extras["integral_from_t0"] = float(integral[-1] - integral[start])
    report.extras["integral_from_origin"] = float(integral[-1])
    report.extras["c0_sensitivity"] = {
        "t0_at_c0_minus_10pct": theorem4_t0(0.9 * c0, alpha, K_env, gamma),
        "t0_at_c0_plus_10pct": theorem4_t0(1.1 * c0, alpha, K_env, gamma),
    }
    return True


def _check_theorem3(config: RunConfig, u0: SpectralVelocity, alpha: float, c0: float,
                    u0n: float, report: TheoremReport) -> tuple[Trajectory, FunctionalSeries]:
    """Fluctuation bound on [0, T0], T0 <= config.t_end, with the run rescoped to that
    window; one heat_modes(u0, alpha) serves the three T0 solves and the rows' right-hand
    side.  t_end = 0 leaves no window, and theorem3_rhs refuses it.

    The window is cut into 8 equal snapshot intervals and stepped with
    n_steps = min(8 ceil(T0 / (8 config.dt)), 4096) equal steps, so config.dt
    is the largest step (unless the 4096 cap binds); n_steps is recorded as
    params["window_steps"].  Short windows (T0 < 8 dt) take one step per
    interval: IF-RK4 treats the heat part exactly, and more steps only add
    rounding to f = u - l.  config.snapshot_times is not read.
    """
    modes = heat_modes(u0, alpha)
    bound = theorem3_rhs(modes, u0n, c0, config.t_end)
    T0 = bound.T0
    report.params["T0"] = T0
    report.params["T0_capped_at_horizon"] = bound.capped_at_horizon
    if T0 < np.finfo(float).tiny:
        raise ConfigurationError(f"bound 3's existence time T0 = {T0:.6g} underflows at "
                                 f"|u0| = {u0n:.6g}: no window to check")
    snaps = 8
    # min before ceil keeps an infinite quotient (tiny dt) out of ceil; max keeps
    # a quotient that underflows to 0 (T0 far below dt) off a zero step count
    per_snap = max(1, math.ceil(min(T0 / (snaps * config.dt), 4096 // snaps)))
    n_steps = report.params["window_steps"] = snaps * per_snap
    dt = T0 / n_steps
    snapshot_times = [i * per_snap * dt for i in range(snaps + 1)]
    traj = integrate(u0, dt=dt, t_end=T0, snapshot_times=snapshot_times)
    fl_series = stack_series(traj, config.stack_depth, fluctuation=True)
    res = theorem_lhs(fl_series, 3, alpha)
    _add_rows(report, res, -1, bound.rhs(res.times))
    report.extras["rhs_sensitivity"] = {
        "c0_minus_10pct_T0": theorem3_rhs(modes, u0n, 0.9 * c0, config.t_end).T0,
        "c0_plus_10pct_T0": theorem3_rhs(modes, u0n, 1.1 * c0, config.t_end).T0,
    }
    return traj, fl_series
