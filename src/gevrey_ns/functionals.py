"""Time-weighted derivative functionals, their renormalizations, and the
weighted-sum bounds they enter.

For a stack of time derivatives u^(0..K) at time t the raw families are

    L_{2k}   = |t^k u^(k)|_{L2}        H_{2k}   = |t^k grad u^(k)|_{L2}
    L_{2k+1} = |t^(k+1/2) grad u^(k)|  H_{2k+1} = |t^(k+1/2) u^(k+1)|,

so L_{m+1} = sqrt(t) H_m holds exactly for every m.  The first
renormalization divides by 2^k k! (even) and 2^k sqrt((k-1)! k!) / sqrt(2)
(odd); the second divides by c_k = (k!)^alpha.  Stacks hold the scaled
entries v_k = t^k u^(k) / (2^k k!), so the first renormalization ("tilde"
values) is read off them directly:

    L~_{2k}   = |v_k|                        H~_{2k}   = |grad v_k|
    L~_{2k+1} = sqrt(t / 2(k+1)) |grad v_k|  H~_{2k+1} = sqrt(2(k+1) / t) |v_{k+1}|,

and the raw values are derived from the tilde values, never the reverse.
A stack yields one (L~, H~) row pair; a FunctionalSeries holds the rows of
T sample times as (T, M + 1) tables, and the raw and (k!)^alpha-normalized
families are array expressions on them.

The four audited bounds are evaluated in "tilde space": substituting the
first renormalization into the printed weight tables reduces every term to
a tilde value times (k!)^-alpha or ((k+1)!)^-alpha (times 4^-k and t^(2 gamma)
for the accelerated-decay bound), which is an exact algebraic identity, not
an approximation.  Each bound's per-order terms form a (T, k_cap + 1) table
whose cumulative sum over orders gives the bound at every truncation depth
at once.  Time integrals over snapshot grids use composite trapezoid with a
Richardson error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import DerivativeStack
from .errors import ConfigurationError
from .spectral import parseval
from .stokes import HeatModes, log_factorials, weighted_h_integral, weighted_h_rate

LN2 = math.log(2.0)
_LOG_MAX = math.log(np.finfo(float).max)  # exp(x) is a double iff x <= _LOG_MAX
_NEWTON_STEPS = 8  # safeguarded Newton steps before the closing bisection
_NEWTON_TOL = 1e-7  # |log step| after which the error, ~step^2, is inside the closing bracket


def c_alpha(alpha: float) -> float:
    """The sequence constant sqrt(1 / (1 - 2^(-2 alpha)))."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    gap = 1.0 - 2.0 ** (-2.0 * alpha)
    if gap == 0.0:
        raise ConfigurationError(f"alpha = {alpha!r} is too small: 1 - 2^(-2 alpha) rounds to 0")
    return math.sqrt(1.0 / gap)


# ---------------------------------------------------------------------------
# Series tables
# ---------------------------------------------------------------------------

def _tilde_factors(M: int) -> np.ndarray:
    """Multipliers turning raw values into tilde values, index by m."""
    out = np.empty(M + 1)
    for m in range(M + 1):
        if m % 2 == 0:
            k = m // 2
            out[m] = math.exp(-(k * LN2 + math.lgamma(k + 1)))
        else:
            k = (m + 1) // 2  # pair index of the odd entry
            out[m] = math.exp(0.5 * LN2 - k * LN2
                              - 0.5 * (math.lgamma(k) + math.lgamma(k + 1)))
    return out


def _c_divisors(M: int, alpha: float) -> np.ndarray:
    """(k!)^alpha with k the pair index (m+1)//2, index by m; inf past the double range."""
    out = np.empty(M + 1)
    for m in range(M + 1):
        x = alpha * math.lgamma((m + 1) // 2 + 1)
        out[m] = math.exp(x) if x <= _LOG_MAX else math.inf
    return out


def raw_functionals(stack: DerivativeStack) -> tuple[np.ndarray, np.ndarray]:
    """The tilde values (L~_m, H~_m), m <= 2K - 1, of a scaled derivative stack.

    H_{2K} would need entry K + 1, so the row pair stops at M = 2K - 1
    (M = 0 for a depth-zero stack).  Every entry's |v_k|^2 and |grad v_k|^2
    come from one parseval call on the stack's table.
    """
    K, t = stack.depth, stack.t
    M = max(0, 2 * K - 1)
    sums = parseval(stack.grid, stack.w)
    l2, grad = np.sqrt(sums[:, 0]), np.sqrt(sums[:M // 2 + 1, 1])
    k = np.arange(1, K + 1)
    L = np.empty(M + 1)
    H = np.empty(M + 1)
    L[0::2], H[0::2] = l2[:M // 2 + 1], grad
    L[1::2] = np.sqrt(t / (2.0 * k)) * grad[:K]
    H[1::2] = np.sqrt(2.0 * k / t) * l2[1:]
    return L, H


@dataclass(frozen=True)
class FunctionalSeries:
    """Tilde values L~_m, H~_m as (T, M + 1) tables, one row per sample time.

    The raw L_m, H_m and the (k!)^alpha-normalized family are array
    expressions on the tables.
    """

    times: np.ndarray
    L_tilde: np.ndarray
    H_tilde: np.ndarray

    def __post_init__(self):
        if len(self.times) == 0:
            raise ConfigurationError("a functional series needs at least one sample")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigurationError("sample times must be strictly increasing")
        shapes = {np.shape(self.L_tilde), np.shape(self.H_tilde)}
        if shapes != {(len(self.times), self.M + 1)}:
            raise ConfigurationError(f"L~ and H~ tables {sorted(shapes)} do not match "
                                     f"{len(self.times)} times")

    @property
    def M(self) -> int:
        return np.shape(self.L_tilde)[-1] - 1

    @property
    def k_cap(self) -> int:
        """Deepest pair index k the bounds can use: (M - 1) // 2, -1 for M = 0."""
        return (self.M - 1) // 2

    @property
    def L_raw(self) -> np.ndarray:
        return self.L_tilde / _tilde_factors(self.M)

    @property
    def H_raw(self) -> np.ndarray:
        return self.H_tilde / _tilde_factors(self.M)

    def normalized(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """The (k!)^alpha-normalized tables (L_c, H_c) for alpha > 0."""
        if alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        div = _c_divisors(self.M, alpha)
        return self.L_tilde / div, self.H_tilde / div


# ---------------------------------------------------------------------------
# Weighted-sum bounds (left-hand sides)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremLhs:
    """Cumulative integral term and the bound (state plus integral) along a series.

    The tables are (T, k_cap + 1): column k is the bound truncated at order
    k, and trunc_tail[:, k] is the order-k term by itself.
    """

    times: np.ndarray
    integral: np.ndarray
    lhs: np.ndarray
    quad_err: np.ndarray
    trunc_tail: np.ndarray


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of each column of a (T, D) table over x."""
    out = np.zeros_like(y)
    if len(x) > 1:
        inc = (0.5 * np.diff(x))[:, None] * (y[1:] + y[:-1])
        out[1:] = np.cumsum(inc, axis=0)
    return out


def _cumtrapz_with_error(x: np.ndarray, y: np.ndarray):
    """Composite trapezoid plus a per-time Richardson error estimate, by column.

    The half-resolution comparison |I_h - I_2h| / 3 estimates, not bounds,
    the fine-grid error; a factor 2 covers the non-asymptotic slack.
    """
    cum = _cumtrapz(x, y)
    err = np.zeros_like(cum)
    if len(x) >= 3:
        coarse = _cumtrapz(x[::2], y[::2])
        est = 2.0 * np.abs(cum[::2] - coarse) / 3.0
        err[::2] = est
        # odd indices inherit the worse neighbor estimate; a last odd index has
        # only its left neighbor
        right = np.concatenate([est[1:], est[-1:]])
        err[1::2] = np.maximum(est, right)[:len(x) // 2]
        err = np.maximum.accumulate(err, axis=0)
    return cum, err


_THEOREM_IDS = (1, 2, 3, 4)


def _tilde_weights(theorem_id: int, alpha: float, k_max: int):
    """Per-k weights in tilde space: (state_even, state_odd, int_even, int_odd).

    These encode the printed weight tables exactly: substituting the first
    renormalization into the printed factors leaves (k!)^-alpha and
    ((k+1)!)^-alpha, integral prefactors 1/2 (ids 1, 2), the extra 1/2 on
    even integral terms (ids 2, 3), and 4^-k for id 4.
    """
    lf = log_factorials(k_max + 1)
    a = np.exp(-alpha * lf[:-1])
    b = np.exp(-alpha * lf[1:])
    if theorem_id == 1:
        return a, b, 0.5 * a, 0.5 * b
    if theorem_id == 2:
        return a, b, 0.25 * a, 0.5 * b
    if theorem_id == 3:
        return a, b, 0.5 * a, b
    if theorem_id == 4:
        four = np.exp(-2.0 * LN2 * np.arange(k_max + 1.0))
        return four * a, four * b, four * a, four * b
    raise ConfigurationError(f"theorem id must be one of {_THEOREM_IDS}, got {theorem_id}")


def theorem_lhs(series: FunctionalSeries, theorem_id: int, alpha: float,
                gamma: float | None = None) -> TheoremLhs:
    """Evaluate the left-hand side of one weighted-sum bound along a series.

    The per-order state terms and dissipation-family integrands are formed
    as (T, k_cap + 1) tables and summed over orders by a cumulative sum, so
    column k of every result is the bound truncated at order k; the integral
    part is the composite trapezoid of each integrand column over the sample
    grid, starting from the first sample.  trunc_tail[:, k], the order-k
    term's own contribution, is the truncation indicator of column k.
    Every bound carries the odd term L~_1, which needs u_t, so a depth-0
    series (M = 0) is rejected rather than summed without it.  theorem_id 4
    requires gamma > 0 and multiplies state and integrand by t^(2 gamma).
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    if series.M < 1:
        raise ConfigurationError("the bounds need stack_depth >= 1 (L~_1 needs u_t), "
                                 "got a depth-0 series")
    if theorem_id == 4 and (gamma is None or gamma <= 0):
        raise ConfigurationError("theorem 4 needs gamma > 0")
    cap = series.k_cap
    se, so, ie, io = _tilde_weights(theorem_id, alpha, cap)
    L2, H2 = series.L_tilde ** 2, series.H_tilde ** 2
    state_k = se * L2[:, 0:2 * cap + 1:2] + so * L2[:, 1:2 * cap + 2:2]
    integrand_k = ie * H2[:, 0:2 * cap + 1:2] + io * H2[:, 1:2 * cap + 2:2]
    times = series.times
    if theorem_id == 4:
        tfac = (times ** (2.0 * gamma))[:, None]
        state_k, integrand_k = state_k * tfac, integrand_k * tfac
    state = np.cumsum(state_k, axis=1)
    cum, quad_err = _cumtrapz_with_error(times, np.cumsum(integrand_k, axis=1))
    return TheoremLhs(times=times, integral=cum, lhs=state + cum, quad_err=quad_err,
                      trunc_tail=state_k + _cumtrapz(times, integrand_k))


# ---------------------------------------------------------------------------
# Right-hand sides and side conditions
# ---------------------------------------------------------------------------

def theorem2_log_rhs(u0_l2: float, c0: float, alpha: float, n: int) -> float:
    """log of C_alpha^(2^n - 1) (|u0|^2 exp(C0^2 |u0|^2 / 2))^(2^n); never NaN."""
    if u0_l2 <= 0 or c0 <= 0:
        raise ConfigurationError("u0_l2 and c0 must be positive")
    if not 0 <= n <= 1023:
        raise ConfigurationError(f"n must be in 0..1023 (2^n must be a double), got {n}")
    log_ca = math.log(c_alpha(alpha))
    p = 2.0 ** n
    log_rhs = (p - 1.0) * log_ca + p * (2.0 * math.log(u0_l2) + 0.5 * (c0 * u0_l2) ** 2)
    if math.isnan(log_rhs):  # the terms overflowed to +-inf (small alpha and data): factor 2^n
        log_rhs = p * (log_ca + 2.0 * math.log(u0_l2) + 0.5 * (c0 * u0_l2) ** 2) - log_ca
    return log_rhs


def theorem2_rhs(u0_l2: float, c0: float, alpha: float, n: int) -> float:
    """Doubling bound for general data; +inf when it exceeds double range."""
    log_rhs = theorem2_log_rhs(u0_l2, c0, alpha, n)
    if log_rhs > _LOG_MAX:
        return math.inf
    return math.exp(log_rhs)


def smallness_check(u0_l2: float, c0: float, alpha: float) -> float:
    """The small-data quantity 8 C0 C_alpha |u0|; the condition is that it is < 1."""
    if u0_l2 < 0 or c0 <= 0:
        raise ConfigurationError("u0_l2 must be >= 0 and c0 positive")
    return 8.0 * c0 * c_alpha(alpha) * u0_l2


@dataclass(frozen=True)
class Theorem3Rhs:
    """Fluctuation bound: T0 and RHS(t) = scale I(t) on [0, T0] with scale =
    64 C0^2 C_alpha^2 |u0|^2; I(t) reads modes, so rhs() does not rebuild the spectrum."""

    T0: float
    capped_at_horizon: bool
    modes: HeatModes
    scale: float

    def rhs(self, times) -> np.ndarray:
        """The right-hand side at an array of times in [0, T0], from one I(t) call."""
        times = np.asarray(times, dtype=float)
        if np.any(times < 0) or np.any(times > self.T0 * (1 + 1e-12)):
            raise ConfigurationError("requested times fall outside [0, T0]")
        return self.scale * weighted_h_integral(self.modes, times)


def theorem3_rhs(modes: HeatModes, u0_l2: float, c0: float, horizon: float) -> Theorem3Rhs:
    """Short-time fluctuation bound from the analytic heat-flow integral.

    I(T) = int_0^T sum_m (H_m of the heat flow)^2 dtau is monotone, so T0,
    the largest time where 8 C0 C_alpha |u0| sqrt(I(T0)) stays below
    1 / (32 C0 C_alpha), is the root of I(T) = theta.  It is found by
    Newton's method on log I against log T, started from T = theta / I'(0)
    (I(T) ~ T I'(0) for small T) with the closed-form rate I'(T), inside a
    bracket [lo, hi] kept from the sign of the condition itself; a step that
    leaves the bracket is replaced by a bisection step.  A bisection to
    adjacent doubles, from a bracket 2e-13 T wide around the Newton root,
    ends the solve, so condition(T0) < 0 <= condition(nextafter(T0)) as
    for a bisection from [0, horizon].  If the condition still holds at the
    horizon, T0 is reported as the horizon with a flag.  u0 enters only
    through modes = heat_modes(u0, alpha) and u0_l2 = |u0|, both computed
    once by the caller, so its solves at C0 and C0 +- 10% share them.
    """
    if u0_l2 < 0 or c0 <= 0 or horizon <= 0:
        raise ConfigurationError(f"bound 3 needs |u0| >= 0, c0 > 0 and a horizon t_end > 0, "
                                 f"got {u0_l2!r}, {c0!r} and {horizon!r}")
    ca = c_alpha(modes.alpha)
    threshold = 1.0 / (32.0 * c0 * ca)
    scale = 64.0 * (c0 * ca * u0_l2) ** 2

    def below(I: float) -> bool:
        """condition(T) < 0, read off I = I(T)."""
        return 8.0 * c0 * ca * u0_l2 * math.sqrt(max(I, 0.0)) - threshold < 0.0

    if u0_l2 == 0.0 or below(weighted_h_integral(modes, horizon)):
        return Theorem3Rhs(T0=horizon, capped_at_horizon=True, modes=modes, scale=scale)
    log_theta = 2.0 * math.log(threshold / (8.0 * c0 * ca * u0_l2))
    lo, hi = 0.0, horizon
    T = math.exp(log_theta) / weighted_h_rate(modes, 0.0)
    for _ in range(_NEWTON_STEPS):
        if not lo < T < hi:
            T = 0.5 * (lo + hi)
        I = weighted_h_integral(modes, T)
        lo, hi = (T, hi) if below(I) else (lo, T)
        slope = T * weighted_h_rate(modes, T) / I if I > 0.0 else 0.0
        if not slope > 0.0:
            continue  # no Newton step from here: the next pass bisects
        # Newton on log I = log theta in the variable log T; an overflowing
        # step lands outside the bracket and is bisected instead
        step = (log_theta - math.log(I)) / slope
        T *= math.exp(min(step, 700.0))
        if abs(step) < _NEWTON_TOL:
            break
    for end in (T * (1.0 - 1e-13), T * (1.0 + 1e-13)):
        if lo < end < hi:
            lo, hi = (end, hi) if below(weighted_h_integral(modes, end)) else (lo, end)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # lo and hi are adjacent doubles
        lo, hi = (mid, hi) if below(weighted_h_integral(modes, mid)) else (lo, mid)
    return Theorem3Rhs(T0=lo, capped_at_horizon=False, modes=modes, scale=scale)


def theorem4_t0(c0: float, alpha: float, K_fit: float, gamma_fit: float) -> float:
    """First admissible origin 2 (8 C0 C_alpha K)^(1/gamma) of the decay bound; +inf past range."""
    if gamma_fit <= 0:
        raise ConfigurationError("gamma must be positive")
    if K_fit <= 0:
        return 0.0
    try:
        return 2.0 * (8.0 * c0 * c_alpha(alpha) * K_fit) ** (1.0 / gamma_fit)
    except OverflowError:
        return math.inf


def theorem4_rhs(K_fit: float, gamma_fit: float) -> float:
    """Decay bound 2^(2 gamma) K^2; +inf past the double range."""
    try:
        return 2.0 ** (2.0 * gamma_fit) * K_fit ** 2
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Envelope |u(t)| <= K_fit t^-gamma_fit on the fitted window."""

    K_fit: float
    gamma_fit: float
    window: tuple[float, float]
    residual: float
    super_algebraic: bool
    truncated_window: bool


def fit_decay(times, norms, window) -> DecayFit:
    """Least squares of log |u| against log t over a window.

    K_fit is inflated to the smallest constant making the envelope hold at
    every fitted point; residual is the max absolute log deviation from the
    least-squares line.  Points with norms below 1e-300 are dropped with the
    truncated_window flag; gamma_fit > 10 raises the super-algebraic flag
    (exponential decay beats every power law).
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(norms, dtype=float)
    a, b = float(window[0]), float(window[1])
    if not (0 < a < b):
        raise ConfigurationError(f"bad window {window!r}")
    sel = (t >= a - 1e-12) & (t <= b + 1e-12)
    t, y = t[sel], y[sel]
    truncated = bool(np.any(y <= 1e-300))
    if truncated:
        keep = y > 1e-300
        t, y = t[keep], y[keep]
    if len(t) < 4:
        raise ConfigurationError(f"decay fit needs at least 4 usable snapshots in the window "
                                 f"[{a:g}, {b:g}], found {len(t)}")
    lx, ly = np.log(t), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    gamma = -float(slope)
    residual = float(np.max(np.abs(ly - (slope * lx + intercept))))
    K = float(np.exp(np.max(ly + gamma * lx)))
    return DecayFit(K_fit=K, gamma_fit=gamma, window=(a, b), residual=residual,
                    super_algebraic=bool(gamma > 10.0), truncated_window=truncated)


# ---------------------------------------------------------------------------
# Combinatorial and convolution audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ccc0Row:
    k: int
    j: int
    alpha: float
    ratio: float
    printed_bound: float
    corrected_bound: float
    printed_ok: bool
    corrected_ok: bool


@dataclass(frozen=True)
class Ccc0Audit:
    rows: list[Ccc0Row]
    printed_violations: list[tuple[int, int, float]]
    corrected_violations: list[tuple[int, int, float]]


def lemma_audit_ccc0(k_max: int, alphas) -> Ccc0Audit:
    """Exhaustive audit of c_j c_{k-j} / c_k = binom(k,j)^-alpha bounds.

    The printed bound min(2^(-j alpha), 2^(-(k-j) alpha)) holds iff
    binom(k, j) >= 2^max(j, k-j); the corrected candidate
    2^(-alpha min(j, k-j)) holds iff binom(k, j) >= 2^min(j, k-j).
    Both verdicts are decided with exact integer arithmetic, so the
    violation sets are deterministic and alpha-independent.
    """
    if k_max < 2:
        raise ConfigurationError("k_max must be >= 2")
    rows: list[Ccc0Row] = []
    printed_bad: list[tuple[int, int, float]] = []
    corrected_bad: list[tuple[int, int, float]] = []
    for k in range(k_max + 1):
        for j in range(k + 1):
            comb = math.comb(k, j)
            lo, hi = min(j, k - j), max(j, k - j)
            printed_ok = comb >= 2 ** hi
            corrected_ok = comb >= 2 ** lo
            for alpha in alphas:
                a = float(alpha)
                ratio = comb ** (-a)
                rows.append(Ccc0Row(k=k, j=j, alpha=a, ratio=ratio,
                                    printed_bound=2.0 ** (-a * hi),
                                    corrected_bound=2.0 ** (-a * lo),
                                    printed_ok=printed_ok,
                                    corrected_ok=corrected_ok))
                if not printed_ok:
                    printed_bad.append((k, j, a))
                if not corrected_ok:
                    corrected_bad.append((k, j, a))
    return Ccc0Audit(rows=rows, printed_violations=printed_bad,
                     corrected_violations=corrected_bad)


@dataclass(frozen=True)
class ConvolutionAudit:
    trials: int
    n_max: int
    worst_ratio: float


def convolution_pairing(a, b, c) -> float:
    """sum_k (sum_j a_j b_{k-j}) c_k over indices 0..n."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = len(c)
    conv = np.convolve(a, b)[:n]
    return float(np.dot(conv, c[:len(conv)]))


def convolution_bound(a, b, c) -> float:
    """|a|_{l^{4/3}} |b|_{l^{4/3}} |c|_{l^2}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    na = np.sum(a ** (4.0 / 3.0)) ** 0.75
    nb = np.sum(b ** (4.0 / 3.0)) ** 0.75
    nc = math.sqrt(float(np.sum(c * c)))
    return float(na * nb * nc)


def lemma_audit_convolution(trials: int, n_max: int, seed: int) -> ConvolutionAudit:
    """Randomized audit of the l^{4/3} x l^{4/3} x l^2 convolution inequality.

    Nonnegative sequences of length <= n_max (uniform, half-normal, and
    sparse draws); returns the worst pairing/bound ratio, which Young's
    inequality keeps at or below 1.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        style = rng.integers(0, 3)
        if style == 0:
            seqs = rng.random((3, n))
        elif style == 1:
            seqs = np.abs(rng.standard_normal((3, n)))
        else:
            seqs = rng.random((3, n)) * (rng.random((3, n)) < 0.5)
        a, b, c = seqs
        denom = convolution_bound(a, b, c)
        if denom == 0.0:
            continue
        worst = max(worst, convolution_pairing(a, b, c) / denom)
    return ConvolutionAudit(trials=trials, n_max=n_max, worst_ratio=worst)
