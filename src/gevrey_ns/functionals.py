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

The four audited bounds are evaluated in "tilde space": substituting the
first renormalization into the printed weight tables reduces every term to
a tilde value times (k!)^-alpha or ((k+1)!)^-alpha (times 4^-k and t^(2 gamma)
for the accelerated-decay bound), which is an exact algebraic identity, not
an approximation.  Time integrals over snapshot grids use composite
trapezoid with a Richardson error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .derivatives import DerivativeStack
from .errors import ConfigurationError
from .spectral import SpectralVelocity, norm_grad_l2, norm_l2
from .stokes import weighted_h_integral

LN2 = math.log(2.0)


def c_alpha(alpha: float) -> float:
    """The sequence constant sqrt(1 / (1 - 2^(-2 alpha)))."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    return math.sqrt(1.0 / (1.0 - 2.0 ** (-2.0 * alpha)))


# ---------------------------------------------------------------------------
# Samples and series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalSample:
    """Tilde values L~_m, H~_m at one time; the raw L_m, H_m derive from them.

    Arrays run over m = 0..M.  L_c / H_c (the (k!)^alpha-normalized family)
    are attached by renormalize and tagged with that alpha.
    """

    t: float
    L_tilde: np.ndarray
    H_tilde: np.ndarray
    alpha: float | None = None
    L_c: np.ndarray | None = None
    H_c: np.ndarray | None = None

    @property
    def M(self) -> int:
        return len(self.L_tilde) - 1

    @property
    def L_raw(self) -> np.ndarray:
        return self.L_tilde / _tilde_factors(self.M)

    @property
    def H_raw(self) -> np.ndarray:
        return self.H_tilde / _tilde_factors(self.M)


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
    """(k!)^alpha with k the pair index (m+1)//2, index by m."""
    out = np.empty(M + 1)
    for m in range(M + 1):
        k = (m + 1) // 2
        out[m] = math.exp(alpha * math.lgamma(k + 1))
    return out


def raw_functionals(stack: DerivativeStack) -> FunctionalSample:
    """Evaluate the tilde values for m <= 2K - 1 from a scaled derivative stack.

    H_{2K} would need entry K + 1, so the sample stops at M = 2K - 1
    (M = 0 for a depth-zero stack).
    """
    K, t = stack.depth, stack.t
    M = max(0, 2 * K - 1)
    l2 = np.array([norm_l2(e) for e in stack.entries])
    grad = np.array([norm_grad_l2(e) for e in stack.entries[:M // 2 + 1]])
    k = np.arange(1, K + 1)
    L = np.empty(M + 1)
    H = np.empty(M + 1)
    L[0::2], H[0::2] = l2[:M // 2 + 1], grad
    L[1::2] = np.sqrt(t / (2.0 * k)) * grad[:K]
    H[1::2] = np.sqrt(2.0 * k / t) * l2[1:]
    return FunctionalSample(t=t, L_tilde=L, H_tilde=H)


def sample_at_time_zero(u: SpectralVelocity, M: int) -> FunctionalSample:
    """The t -> 0+ limit: only L_0 = |u| and H_0 = |grad u| survive."""
    L = np.zeros(M + 1)
    H = np.zeros(M + 1)
    L[0] = norm_l2(u)
    H[0] = norm_grad_l2(u)
    return FunctionalSample(t=0.0, L_tilde=L, H_tilde=H)


def renormalize(sample: FunctionalSample, alpha: float) -> FunctionalSample:
    """Attach the (k!)^alpha-normalized arrays for the given alpha > 0."""
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    div = _c_divisors(sample.M, alpha)
    return replace(sample, alpha=alpha, L_c=sample.L_tilde / div,
                   H_c=sample.H_tilde / div)


@dataclass(frozen=True)
class FunctionalSeries:
    """Time-ordered samples with a common truncation order."""

    samples: list[FunctionalSample]

    def __post_init__(self):
        if not self.samples:
            raise ConfigurationError("a functional series needs at least one sample")
        ts = [s.t for s in self.samples]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigurationError("sample times must be strictly increasing")
        Ms = {s.M for s in self.samples}
        if len(Ms) != 1:
            raise ConfigurationError(f"samples have mixed truncation orders {sorted(Ms)}")

    @property
    def times(self) -> np.ndarray:
        return np.asarray([s.t for s in self.samples])

    @property
    def M(self) -> int:
        return self.samples[0].M


@dataclass(frozen=True)
class ShiftedSample:
    """Fully normalized functionals with (t - t0) replacing t in the weights."""

    t: float
    t0: float
    alpha: float
    L: np.ndarray
    H: np.ndarray


def shifted_functionals(stack: DerivativeStack, t0: float, alpha: float) -> ShiftedSample:
    """Same formulas with weight time t - t0; the stack is evaluated at t.

    Each tilde value scales by ((t - t0) / t)^(m/2) before the (k!)^alpha
    division; with t0 = 0 this reduces exactly to the normalized arrays of
    renormalize(raw_functionals(stack), alpha).
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    if not 0.0 <= t0 < stack.t:
        raise ConfigurationError(f"need 0 <= t0 < t, got t0={t0!r}, t={stack.t!r}")
    s = raw_functionals(stack)
    f = ((stack.t - t0) / stack.t) ** (0.5 * np.arange(s.M + 1)) / _c_divisors(s.M, alpha)
    return ShiftedSample(t=stack.t, t0=t0, alpha=alpha, L=s.L_tilde * f, H=s.H_tilde * f)


# ---------------------------------------------------------------------------
# Weighted-sum bounds (left-hand sides)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremLhs:
    """State term, cumulative integral term, and their sum along a series."""

    theorem_id: int
    alpha: float
    k_max: int
    times: np.ndarray
    state: np.ndarray
    integral: np.ndarray
    lhs: np.ndarray
    quad_err: np.ndarray
    trunc_tail: np.ndarray


def _cumtrapz(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if len(x) > 1:
        inc = 0.5 * np.diff(x) * (y[1:] + y[:-1])
        out[1:] = np.cumsum(inc)
    return out


def _cumtrapz_with_error(x: np.ndarray, y: np.ndarray):
    """Composite trapezoid plus a per-time Richardson error estimate.

    The half-resolution comparison |I_h - I_2h| / 3 estimates, not bounds,
    the fine-grid error; a factor 2 covers the non-asymptotic slack.
    """
    cum = _cumtrapz(x, y)
    err = np.zeros_like(cum)
    if len(x) >= 3:
        coarse = _cumtrapz(x[::2], y[::2])
        est = 2.0 * np.abs(cum[::2] - coarse) / 3.0
        err[::2] = est
        # odd indices inherit the worse neighbor estimate
        for i in range(1, len(x), 2):
            left = est[i // 2]
            right = est[min(i // 2 + 1, len(est) - 1)]
            err[i] = max(left, right)
        err = np.maximum.accumulate(err)
    return cum, err


_THEOREM_IDS = (1, 2, 3, 4)


def _tilde_weights(theorem_id: int, alpha: float, k_max: int, variant: str):
    """Per-k weights in tilde space: (state_even, state_odd, int_even, int_odd).

    These encode the printed weight tables exactly: substituting the first
    renormalization into the printed factors leaves (k!)^-alpha and
    ((k+1)!)^-alpha (doubled exponents for the proof-normalized variant),
    integral prefactors 1/2 (ids 1, 2), the extra 1/2 on even integral
    terms (ids 2, 3), and 4^-k for id 4.
    """
    if variant not in ("printed", "proof"):
        raise ConfigurationError(f"unknown weight variant {variant!r}")
    a_exp = alpha if variant == "printed" else 2.0 * alpha
    k = np.arange(k_max + 1, dtype=float)
    a = np.exp(-a_exp * gammaln(k + 1.0))
    b = np.exp(-a_exp * gammaln(k + 2.0))
    if theorem_id == 1:
        return a, b, 0.5 * a, 0.5 * b
    if theorem_id == 2:
        return a, b, 0.25 * a, 0.5 * b
    if theorem_id == 3:
        return a, b, 0.5 * a, b
    if theorem_id == 4:
        four = np.exp(-2.0 * LN2 * k)
        return four * a, four * b, four * a, four * b
    raise ConfigurationError(f"theorem id must be one of {_THEOREM_IDS}, got {theorem_id}")


def theorem_lhs(series: FunctionalSeries, theorem_id: int, alpha: float,
                gamma: float | None = None, k_max: int | None = None,
                variant: str = "printed") -> TheoremLhs:
    """Evaluate the left-hand side of one weighted-sum bound along a series.

    The state part is evaluated at every sample; the integral part is the
    composite trapezoid of the dissipation-family integrand over the sample
    grid, starting from the first sample.  k_max defaults to the deepest
    order the series supports, (M - 1) // 2; trunc_tail reports the k_max
    term's own contribution as the truncation indicator.  theorem_id 4
    requires gamma > 0 and multiplies state and integrand by t^(2 gamma).
    """
    if alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    cap = (series.M - 1) // 2 if series.M >= 1 else 0
    if k_max is None:
        k_max = cap
    if k_max < 0 or k_max > cap:
        raise ConfigurationError(
            f"k_max={k_max} not supported by series truncation M={series.M} "
            f"(needs stack depth K >= {k_max + 1})")
    if theorem_id == 4:
        if gamma is None or gamma <= 0:
            raise ConfigurationError("theorem 4 needs gamma > 0")
    se, so, ie, io = _tilde_weights(theorem_id, alpha, k_max, variant)

    times = series.times
    n_t = len(times)
    state = np.zeros(n_t)
    integrand = np.zeros(n_t)
    tail_state = np.zeros(n_t)
    tail_integrand = np.zeros(n_t)
    for i, s in enumerate(series.samples):
        Lt, Ht = s.L_tilde, s.H_tilde
        ev = Lt[0:2 * k_max + 1:2] ** 2
        od = Lt[1:2 * k_max + 2:2] ** 2
        hev = Ht[0:2 * k_max + 1:2] ** 2
        hod = Ht[1:2 * k_max + 2:2] ** 2
        state[i] = float(np.dot(se[:len(ev)], ev) + np.dot(so[:len(od)], od))
        integrand[i] = float(np.dot(ie[:len(hev)], hev) + np.dot(io[:len(hod)], hod))
        tail_state[i] = se[-1] * ev[-1] + (so[-1] * od[-1] if len(od) else 0.0)
        tail_integrand[i] = ie[-1] * hev[-1] + (io[-1] * hod[-1] if len(hod) else 0.0)
    if theorem_id == 4:
        tfac = times ** (2.0 * gamma)
        state = state * tfac
        integrand = integrand * tfac
        tail_state = tail_state * tfac
        tail_integrand = tail_integrand * tfac
    cum, quad_err = _cumtrapz_with_error(times, integrand)
    tail_cum = _cumtrapz(times, tail_integrand)
    return TheoremLhs(theorem_id=theorem_id, alpha=alpha, k_max=k_max, times=times,
                      state=state, integral=cum, lhs=state + cum, quad_err=quad_err,
                      trunc_tail=tail_state + tail_cum)


# ---------------------------------------------------------------------------
# Right-hand sides and side conditions
# ---------------------------------------------------------------------------

def theorem2_log_rhs(u0_l2: float, c0: float, alpha: float, n: int) -> float:
    """log of C_alpha^(2^n - 1) (|u0|^2 exp(C0^2 |u0|^2 / 2))^(2^n)."""
    if u0_l2 <= 0 or c0 <= 0:
        raise ConfigurationError("u0_l2 and c0 must be positive")
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    ca = c_alpha(alpha)
    p = 2.0 ** n
    return (p - 1.0) * math.log(ca) + p * (2.0 * math.log(u0_l2) + 0.5 * (c0 * u0_l2) ** 2)


def theorem2_rhs(u0_l2: float, c0: float, alpha: float, n: int) -> float:
    """Doubling bound for general data; +inf when it exceeds double range."""
    log_rhs = theorem2_log_rhs(u0_l2, c0, alpha, n)
    if log_rhs > math.log(np.finfo(float).max):
        return math.inf
    return math.exp(log_rhs)


@dataclass(frozen=True)
class SmallnessResult:
    value: float
    satisfied: bool


def smallness_check(u0_l2: float, c0: float, alpha: float) -> SmallnessResult:
    """Whether 8 C0 C_alpha |u0| < 1 (strict), the small-data threshold."""
    if u0_l2 < 0 or c0 <= 0:
        raise ConfigurationError("u0_l2 must be >= 0 and c0 positive")
    value = 8.0 * c0 * c_alpha(alpha) * u0_l2
    return SmallnessResult(value=value, satisfied=bool(value < 1.0))


@dataclass(frozen=True)
class Theorem3Rhs:
    """Fluctuation bound: T0 and RHS(t) = 64 C0^2 C_alpha^2 |u0|^2 I(t)."""

    T0: float
    capped_at_horizon: bool
    times: np.ndarray
    rhs: np.ndarray
    condition_value_at_T0: float
    threshold: float


def theorem3_rhs(u0: SpectralVelocity, c0: float, alpha: float, horizon: float,
                 times=None) -> Theorem3Rhs:
    """Short-time fluctuation bound from the analytic heat-flow integral.

    I(T) = int_0^T sum_m (H_m of the heat flow)^2 dtau is monotone, so T0,
    the largest time where 8 C0 C_alpha |u0| sqrt(I(T0)) stays below
    1 / (32 C0 C_alpha), is found by bisection.  If the condition still
    holds at the horizon, T0 is reported as the horizon with a flag.
    """
    if c0 <= 0 or horizon <= 0:
        raise ConfigurationError("c0 and horizon must be positive")
    ca = c_alpha(alpha)
    u0n = norm_l2(u0)
    threshold = 1.0 / (32.0 * c0 * ca)

    def condition(T: float) -> float:
        return 8.0 * c0 * ca * u0n * math.sqrt(max(weighted_h_integral(u0, alpha, T), 0.0)) \
            - threshold

    if u0n == 0.0 or condition(horizon) < 0.0:
        T0 = horizon
        capped = True
    else:
        lo, hi = 0.0, horizon
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break  # lo and hi are adjacent doubles
            if condition(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        T0 = lo
        capped = False
    if times is None:
        times = np.linspace(0.0, T0, 9)
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(times > T0 * (1 + 1e-12)):
        raise ConfigurationError("requested times fall outside [0, T0]")
    scale = 64.0 * (c0 * ca * u0n) ** 2
    rhs = np.asarray([scale * weighted_h_integral(u0, alpha, float(t)) for t in times])
    return Theorem3Rhs(T0=T0, capped_at_horizon=capped, times=times, rhs=rhs,
                       condition_value_at_T0=condition(T0) + threshold, threshold=threshold)


def theorem4_t0(c0: float, alpha: float, K_fit: float, gamma_fit: float) -> float:
    """First admissible origin 2 (8 C0 C_alpha K)^(1/gamma) for the decay bound."""
    if gamma_fit <= 0:
        raise ConfigurationError("gamma must be positive")
    if K_fit <= 0:
        return 0.0
    return 2.0 * (8.0 * c0 * c_alpha(alpha) * K_fit) ** (1.0 / gamma_fit)


def theorem4_rhs(K_fit: float, gamma_fit: float) -> float:
    return 2.0 ** (2.0 * gamma_fit) * K_fit ** 2


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
        raise ConfigurationError("decay fit needs at least 4 usable points in the window")
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
