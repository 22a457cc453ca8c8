"""Weighted functionals, renormalizations, bound LHS/RHS pieces, and audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from gevrey_ns import (ConfigurationError, c_alpha, check_theorem, config_from_dict,
                       fit_decay, functionals, integrate, lemma_audit_ccc0,
                       lemma_audit_convolution, make_grid, make_initial_data,
                       norm_l2, parseval, random_spectrum_field, raw_functionals,
                       shear_flow, smallness_check, stokes, stokes_derivative_stack,
                       taylor_green, theorem2_log_rhs, theorem2_rhs, theorem3_rhs,
                       theorem4_rhs, theorem4_t0, theorem_lhs, time_derivative_stack)
from gevrey_ns.functionals import (FunctionalSeries, convolution_bound,
                                   convolution_pairing)
from gevrey_ns.spectral import mode_energies
from gevrey_ns.stokes import _h_weights, heat_modes, weighted_h_integral, weighted_h_rate
from gevrey_ns.verify import stack_series

SQRT2_PI = np.pi * np.sqrt(2.0)
HYP = dict(deadline=None, derandomize=True, max_examples=60)


def one_row(t, pair):
    """A one-sample series from an (L~, H~) row pair."""
    L, H = pair
    return FunctionalSeries(times=np.array([t]), L_tilde=L[None], H_tilde=H[None])


def time_zero_row(u, M):
    """The t -> 0+ row pair of u: only L~_0 = |u| and H~_0 = |grad u| survive."""
    L, H = np.zeros(M + 1), np.zeros(M + 1)
    L[0], H[0] = norm_l2(u), np.sqrt(parseval(u.grid, u.w)[1])
    return L, H


def shear_sample(grid, t, K=8):
    """Functional row of the exact shear solution at time t, as a one-sample series."""
    u_t = np.exp(-t) * shear_flow(grid, 1.0)
    return one_row(t, raw_functionals(time_derivative_stack(u_t, K, t=t)))


class TestRawFunctionals:
    def test_shear_single_mode_closed_form(self, grid32):
        # lambda = 1: L_m(t) = t^(m/2) e^-t |u0| and H_m = L_m
        s = shear_sample(grid32, 1.0)
        assert s.M == 15
        expect = np.exp(-1.0) * SQRT2_PI
        assert np.allclose(s.L_raw, expect, rtol=1e-10)
        assert np.allclose(s.H_raw, expect, rtol=1e-10)

    def test_taylor_green_lambda_t_one(self, grid32):
        # lambda = 2 at t = 1/2 makes every weighted norm equal
        u_t = np.exp(-1.0) * taylor_green(grid32, 1.0)
        s = one_row(0.5, raw_functionals(time_derivative_stack(u_t, 6, t=0.5)))
        assert np.allclose(s.L_raw, np.exp(-1.0) * SQRT2_PI, rtol=1e-10)
        assert np.allclose(s.H_raw, np.sqrt(2.0) * np.exp(-1.0) * SQRT2_PI, rtol=1e-10)

    def test_index_identity(self, random_field):
        s = one_row(0.8, raw_functionals(stokes_derivative_stack(random_field, 0.8, 7)))
        lhs = s.L_raw[0, 1:]
        rhs = np.sqrt(0.8) * s.H_raw[0, :-1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(lhs)

    def test_time_zero_limit(self, random_field):
        # row 0 of a series is read off the trajectory's own Parseval sums
        traj = integrate(random_field, dt=1e-3, t_end=0.0)
        s = stack_series(traj, 6)
        assert s.M == 11 and s.times.tolist() == [0.0]
        assert s.L_raw[0, 0] == norm_l2(random_field)
        assert s.H_raw[0, 0] == np.sqrt(parseval(random_field.grid, random_field.w)[1])
        assert not s.L_raw[0, 1:].any()
        assert not s.H_raw[0, 1:].any()


class TestRenormalize:
    def test_even_k2_alpha1(self, grid32):
        s = shear_sample(grid32, 1.0)
        L_c, _ = s.normalized(1.0)
        assert s.L_tilde[0, 4] == pytest.approx(s.L_raw[0, 4] / 8.0, rel=1e-14)
        assert L_c[0, 4] == pytest.approx(s.L_raw[0, 4] / 16.0, rel=1e-14)

    def test_odd_k1_alpha1(self, grid32):
        s = shear_sample(grid32, 1.0)
        L_c, _ = s.normalized(1.0)
        assert s.L_tilde[0, 1] == pytest.approx(np.sqrt(2.0) * s.L_raw[0, 1] / 2.0, rel=1e-14)
        assert L_c[0, 1] == pytest.approx(s.L_tilde[0, 1], rel=1e-14)

    def test_order_zero_untouched(self, grid32):
        s = shear_sample(grid32, 0.5)
        L_c, _ = s.normalized(2.0)
        assert s.L_tilde[0, 0] == s.L_raw[0, 0]
        assert L_c[0, 0] == s.L_raw[0, 0]

    def test_rejects_bad_alpha(self, grid32):
        with pytest.raises(ConfigurationError):
            shear_sample(grid32, 0.5).normalized(0.0)


class TestFunctionalSeries:
    def test_rejects_empty_input(self):
        with pytest.raises(ConfigurationError, match="at least one sample"):
            FunctionalSeries(times=np.array([]), L_tilde=np.zeros((0, 4)),
                             H_tilde=np.zeros((0, 4)))

    @pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]])
    def test_rejects_non_increasing_times(self, times):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            FunctionalSeries(times=np.array(times), L_tilde=np.ones((3, 4)),
                             H_tilde=np.ones((3, 4)))

    @pytest.mark.parametrize("L_shape, H_shape", [((3, 4), (3, 6)), ((3, 4), (2, 4)),
                                                  ((2, 4), (2, 4)), ((3,), (3,))])
    def test_rejects_mismatched_tables(self, L_shape, H_shape):
        with pytest.raises(ConfigurationError, match="do not match"):
            FunctionalSeries(times=np.array([0.0, 1.0, 2.0]), L_tilde=np.ones(L_shape),
                             H_tilde=np.ones(H_shape))


def direct_printed_lhs(series, tid, alpha, gamma=None, k_max=None):
    """Literal transcription of the printed weight tables, log-space, raw values,
    summed over k <= k_max (default and ceiling: the deepest order the series holds)."""
    times = series.times
    kmax = (series.M - 1) // 2
    if k_max is not None:
        kmax = min(k_max, kmax)
    ln2 = math.log(2.0)

    def we(k):
        return math.exp(-(2 * k) * ln2 - (2 + alpha) * gammaln(k + 1))

    def wo(k):
        return math.exp(-(2 * k + 1) * ln2 - gammaln(k + 1) - (1 + alpha) * gammaln(k + 2))

    def we4(k):
        return math.exp(-(4 * k) * ln2 - (2 + alpha) * gammaln(k + 1))

    def wo4(k):
        return math.exp(-(4 * k + 1) * ln2 - gammaln(k + 1) - (1 + alpha) * gammaln(k + 2))

    L, H = series.L_raw, series.H_raw
    state = np.zeros(len(times))
    integ = np.zeros(len(times))
    for i, t in enumerate(times):
        for k in range(kmax + 1):
            if tid in (1, 2, 3):
                state[i] += we(k) * L[i, 2 * k] ** 2 + wo(k) * L[i, 2 * k + 1] ** 2
                half_even = 0.5 if tid in (2, 3) else 1.0
                pref = 0.5 if tid in (1, 2) else 1.0
                integ[i] += pref * (half_even * we(k) * H[i, 2 * k] ** 2
                                    + wo(k) * H[i, 2 * k + 1] ** 2)
            else:
                t2g = t ** (2 * gamma)
                state[i] += t2g * (we4(k) * L[i, 2 * k] ** 2
                                   + wo4(k) * L[i, 2 * k + 1] ** 2)
                integ[i] += t2g * (we4(k) * H[i, 2 * k] ** 2
                                   + wo4(k) * H[i, 2 * k + 1] ** 2)
    cum = np.zeros(len(times))
    cum[1:] = np.cumsum(0.5 * np.diff(times) * (integ[1:] + integ[:-1]))
    return state + cum


@pytest.fixture(scope="module")
def heat_series():
    grid = make_grid(32)
    u0 = shear_flow(grid, 1.0) * (1.0 / SQRT2_PI)
    times = np.concatenate([[0.0], np.linspace(0.125, 2.0, 16)])
    rows = [time_zero_row(u0, 15)]
    for t in times[1:]:
        u = np.exp(-t) * shear_flow(grid, 1.0 / SQRT2_PI)
        rows.append(raw_functionals(time_derivative_stack(u, 8, t=float(t))))
    L, H = (np.array(c) for c in zip(*rows))
    return FunctionalSeries(times=times, L_tilde=L, H_tilde=H), u0


def looped_cumtrapz_with_error(x, y):
    """The per-column reference: trapezoid, Richardson estimate, odd-index loop."""
    cum = np.zeros_like(y)
    if len(x) > 1:
        cum[1:] = np.cumsum(0.5 * np.diff(x) * (y[1:] + y[:-1]))
    err = np.zeros_like(cum)
    if len(x) >= 3:
        xc, yc = x[::2], y[::2]
        coarse = np.zeros_like(yc)
        if len(xc) > 1:
            coarse[1:] = np.cumsum(0.5 * np.diff(xc) * (yc[1:] + yc[:-1]))
        est = 2.0 * np.abs(cum[::2] - coarse) / 3.0
        err[::2] = est
        for i in range(1, len(x), 2):
            left = est[i // 2]
            right = est[min(i // 2 + 1, len(est) - 1)]
            err[i] = max(left, right)
        err = np.maximum.accumulate(err)
    return cum, err


class TestCumtrapz:
    @pytest.mark.parametrize("T", range(1, 10))
    def test_matches_odd_index_loop_bit_for_bit(self, T):
        rng = np.random.default_rng(T)
        x = np.cumsum(rng.random(T) + 0.1)
        y = rng.random(T) * np.exp(rng.standard_normal(T))
        cum, err = functionals._cumtrapz_with_error(x, y[:, None])
        ref_cum, ref_err = looped_cumtrapz_with_error(x, y)
        assert np.array_equal(cum[:, 0], ref_cum) and np.array_equal(err[:, 0], ref_err)

    def test_columns_are_independent(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.random(8) + 0.1)
        y = rng.random((8, 3)) ** 3
        cum, err = functionals._cumtrapz_with_error(x, y)
        for d in range(3):
            ref_cum, ref_err = looped_cumtrapz_with_error(x, y[:, d])
            assert np.array_equal(cum[:, d], ref_cum) and np.array_equal(err[:, d], ref_err)


class TestTheoremLhs:
    def test_matches_verbatim_weight_tables(self, heat_series):
        series, _ = heat_series
        for tid in (1, 2, 3):
            res = theorem_lhs(series, tid, 1.0)
            ref = direct_printed_lhs(series, tid, 1.0)
            assert np.max(np.abs(res.lhs[:, -1] - ref) / np.maximum(ref, 1e-300)) < 1e-12
        res4 = theorem_lhs(series, 4, 1.0, gamma=0.6)
        ref4 = direct_printed_lhs(series, 4, 1.0, gamma=0.6)
        assert np.max(np.abs(res4.lhs[:, -1] - ref4) / np.maximum(ref4, 1e-300)) < 1e-12

    def test_every_column_is_a_truncation(self, heat_series):
        # column k is the bound summed over orders <= k; bound 2 at depth n reads
        # column min(n, k_cap), so depths past k_cap repeat the last column
        series, _ = heat_series
        res = theorem_lhs(series, 2, 0.7)
        assert res.lhs.shape == (len(series.times), series.k_cap + 1)
        for n in range(series.k_cap + 3):
            ref = direct_printed_lhs(series, 2, 0.7, k_max=n)
            col = res.lhs[:, min(n, series.k_cap)]
            assert np.max(np.abs(col - ref) / np.maximum(ref, 1e-300)) < 1e-12

    def test_time_zero_is_initial_energy(self, heat_series):
        series, u0 = heat_series
        res = theorem_lhs(series, 1, 1.0)
        assert np.all(res.lhs[0] == norm_l2(u0) ** 2)

    def test_single_mode_oracle(self, heat_series):
        # lambda = 1: closed form with incomplete-gamma time integrals
        series, u0 = heat_series
        alpha = 1.0
        kmax = (series.M - 1) // 2
        from scipy.special import gammainc
        E = norm_l2(u0) ** 2

        def lhs_exact(t):
            ln2 = math.log(2.0)
            tot = 0.0
            for k in range(kmax + 1):
                we = math.exp(-(2 * k) * ln2 - (2 + alpha) * gammaln(k + 1))
                wo = math.exp(-(2 * k + 1) * ln2 - gammaln(k + 1)
                              - (1 + alpha) * gammaln(k + 2))
                tot += (we * t ** (2 * k) + wo * t ** (2 * k + 1)) * math.exp(-2 * t) * E
                for (w, m) in ((we, 2 * k), (wo, 2 * k + 1)):
                    integral = math.exp(gammaln(m + 1) - (m + 1) * ln2) \
                        * gammainc(m + 1, 2 * t)
                    tot += 0.5 * w * integral * E
            return tot

        res = theorem_lhs(series, 1, alpha)
        for i, t in enumerate(series.times):
            ref = lhs_exact(float(t))
            assert abs(res.lhs[i, -1] - ref) <= res.quad_err[i, -1] + 1e-8 * ref

    def test_bound4_single_mode_oracle(self, heat_series):
        # lambda = 1, gamma = 1/2: every raw L_m^2 and H_m^2 is t^m e^(-2t) |u0|^2,
        # so t^(2 gamma) makes every order an integer and the integrals close:
        # int_0^t s^(m+1) e^(-2s) ds = gamma(m+2, 2t) / 2^(m+2)
        series, u0 = heat_series
        alpha = 1.0
        kmax = (series.M - 1) // 2
        from scipy.special import gammainc
        E = norm_l2(u0) ** 2
        ln2 = math.log(2.0)

        def lhs_exact(t):
            tot = 0.0
            for k in range(kmax + 1):
                we = math.exp(-(4 * k) * ln2 - (2 + alpha) * gammaln(k + 1))
                wo = math.exp(-(4 * k + 1) * ln2 - gammaln(k + 1) - (1 + alpha) * gammaln(k + 2))
                tot += t * (we * t ** (2 * k) + wo * t ** (2 * k + 1)) * math.exp(-2 * t) * E
                for (w, m) in ((we, 2 * k), (wo, 2 * k + 1)):
                    integral = math.exp(gammaln(m + 2) - (m + 2) * ln2) * gammainc(m + 2, 2 * t)
                    tot += w * integral * E
            return tot

        res = theorem_lhs(series, 4, alpha, gamma=0.5)
        for i, t in enumerate(series.times):
            ref = lhs_exact(float(t))
            assert abs(res.lhs[i, -1] - ref) <= res.quad_err[i, -1] + 1e-8 * ref

    def test_accumulators_monotone(self, heat_series):
        series, _ = heat_series
        res = theorem_lhs(series, 2, 0.7)
        assert np.all(np.diff(res.integral, axis=0) >= 0)

    def test_gamma_zero_weight_comparison(self):
        # at k = 0 the accelerated-decay weights coincide with the base table;
        # at k >= 1 they differ by exactly 4^-k
        from gevrey_ns.functionals import _tilde_weights
        se1, so1, ie1, io1 = _tilde_weights(1, 1.0, 6)
        se4, so4, ie4, io4 = _tilde_weights(4, 1.0, 6)
        assert se4[0] == se1[0] and so4[0] == so1[0]
        for k in range(7):
            assert se1[k] / se4[k] == pytest.approx(4.0 ** k, rel=1e-13)

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4])
    def test_depth_zero_series_is_an_error(self, unit_mode, theorem_id):
        series = one_row(0.0, time_zero_row(unit_mode, 0))
        assert series.k_cap == -1
        with pytest.raises(ConfigurationError, match="stack_depth >= 1"):
            theorem_lhs(series, theorem_id, 1.0, gamma=0.5)


class TestRhsPieces:
    def test_c_alpha_value(self):
        assert c_alpha(1.0) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)

    def test_rhs_exponent_collapse_at_n0(self):
        assert theorem2_rhs(1.0, 1.0, 1.0, 0) == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_rhs_example_n1(self):
        assert theorem2_rhs(1.0, 1.0, 1.0, 1) == pytest.approx(
            math.sqrt(4.0 / 3.0) * math.e, rel=1e-12)

    def test_rhs_overflow_indicator(self):
        assert theorem2_rhs(10.0, 1.0, 1.0, 12) == math.inf
        assert np.isfinite(theorem2_log_rhs(10.0, 1.0, 1.0, 12))

    def test_log_rhs_of_opposite_infinities_is_the_factored_form(self):
        # (2^n - 1) ln C_a overflows to +inf and 2^n (2 ln|u0| + (C0 |u0|)^2 / 2) to -inf;
        # their sum would be NaN, the factored form is finite and negative
        ln_ca = math.log(c_alpha(0.001))
        p = 2.0 ** 1023
        factored = p * (ln_ca + 2.0 * math.log(0.1) + 0.5 * (0.23 * 0.1) ** 2) - ln_ca
        assert theorem2_log_rhs(0.1, 0.23, 0.001, 1023) == factored
        assert -math.inf < factored < -1e308
        assert theorem2_rhs(0.1, 0.23, 0.001, 1023) == 0.0

    def test_values_past_the_double_range(self, grid32):
        # 2^n, 2^(2 gamma), (8 C0 C_a K)^(1/gamma) and (k!)^alpha past 1.8e308
        assert theorem2_rhs(10.0, 1.0, 1.0, 1023) == math.inf  # 2^1023 is a double
        with pytest.raises(ConfigurationError, match="0..1023"):
            theorem2_log_rhs(10.0, 1.0, 1.0, 1024)
        with pytest.raises(ConfigurationError, match="rounds to 0"):
            c_alpha(1e-17)
        assert theorem4_rhs(1.0, 511.0) == 2.0 ** 1022 and theorem4_rhs(1.0, 512.0) == math.inf
        assert theorem4_rhs(1e200, 1.0) == math.inf
        assert theorem4_t0(0.23, 1.0, 10.0, 1e-4) == math.inf
        # 100 ln 6! < 709.78 < 100 ln 7!: orders m = 13..15 have pair index k >= 7
        L_c, H_c = shear_sample(grid32, 1.0).normalized(100.0)
        assert not L_c[0, 13:].any() and not H_c[0, 13:].any() and L_c[0, 12] > 0.0

    @settings(**HYP)
    @given(u0=st.floats(0.1, 10.0), c0=st.floats(0.05, 2.0),
           n=st.integers(0, 8), bump=st.floats(1.001, 2.0))
    def test_log_rhs_monotone(self, u0, c0, n, bump):
        base = theorem2_log_rhs(u0, c0, 1.0, n)
        assert theorem2_log_rhs(u0 * bump, c0, 1.0, n) > base
        assert theorem2_log_rhs(u0, c0 * bump, 1.0, n) > base
        # in n the bound grows only once the doubled base quantity exceeds 1,
        # i.e. in the large-data regime the doubling recursion addresses
        if 2.0 * math.log(u0) + 0.5 * (c0 * u0) ** 2 >= 0.0:
            assert theorem2_log_rhs(u0, c0, 1.0, n + 1) > base

    def test_smallness_examples(self):
        assert smallness_check(0.0, 1.0, 1.0) < 1.0
        val = 0.125 / c_alpha(2.0)  # makes the product exactly 1
        assert not smallness_check(val, 1.0, 2.0) < 1.0
        res = smallness_check(0.5, 0.2, 1.0)
        assert res == pytest.approx(0.9237604, rel=1e-6)
        assert res < 1.0


def solve_t0(u0, c0, alpha, horizon):
    """theorem3_rhs on u0's own heat modes and norm."""
    return theorem3_rhs(heat_modes(u0, alpha), norm_l2(u0), c0, horizon)


def integral(u0, alpha, T):
    """I(T) of u0 at one alpha, its modes built for this call."""
    return weighted_h_integral(heat_modes(u0, alpha), T)


def rate(u0, alpha, T):
    """I'(T) of u0 at one alpha, its modes built for this call."""
    return weighted_h_rate(heat_modes(u0, alpha), T)


class TestTheorem3Rhs:
    def test_vanishing_data_caps_at_horizon(self, grid32):
        tiny = shear_flow(grid32, 1e-12)
        res = solve_t0(tiny, 0.3, 1.0, horizon=5.0)
        assert res.capped_at_horizon
        assert res.T0 == 5.0

    def test_rhs_zero_at_origin(self, unit_mode):
        res = solve_t0(unit_mode, 0.3, 1.0, horizon=5.0)
        rhs = res.rhs(np.linspace(0.0, res.T0, 9))
        assert rhs[0] == 0.0 and np.all(np.diff(rhs) > 0)

    def test_rhs_is_the_scaled_integral_inside_zero_to_t0(self, random_field):
        c0, alpha = 0.3, 1.0
        res = solve_t0(random_field, c0, alpha, horizon=1.0)
        times = np.linspace(0.0, res.T0, 5)
        scale = 64.0 * (c0 * c_alpha(alpha) * norm_l2(random_field)) ** 2
        expect = [scale * integral(random_field, alpha, float(t)) for t in times]
        assert np.array_equal(res.rhs(times), expect)
        for bad in ([-1e-3], [0.0, 1.01 * res.T0]):
            with pytest.raises(ConfigurationError, match="outside"):
                res.rhs(bad)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_array_form_matches_scalar_calls(self, grid32, alpha):
        rng = np.random.default_rng(0)
        for seed in range(6):
            u0 = random_spectrum_field(grid32, 2.0, 8, seed=seed, l2_norm=1.0 + seed)
            times = np.concatenate([[0.0], np.sort(rng.random(8)) * 10.0 ** -seed])
            scalar = [integral(u0, alpha, float(t)) for t in times]
            assert np.array_equal(integral(u0, alpha, times), scalar)
        zero = shear_flow(grid32, 1.0) * 0.0
        assert integral(zero, alpha, times).tolist() == [0.0] * len(times)

    def test_bisection_brackets_the_condition(self, unit_mode):
        c0, alpha = 0.4, 1.0
        res = solve_t0(unit_mode, c0, alpha, horizon=10.0)
        assert not res.capped_at_horizon
        ca = c_alpha(alpha)
        thr = 1.0 / (32.0 * c0 * ca)

        def cond(T):
            return 8.0 * c0 * ca * math.sqrt(integral(unit_mode, alpha, T)) - thr

        assert cond(res.T0 * 0.999) < 0.0
        assert cond(res.T0 * 1.001) > 0.0

    def test_bisection_stops_on_the_double_boundary(self, grid32, monkeypatch):
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=3, l2_norm=5.0)
        c0, alpha = 0.3, 1.0
        calls = []

        def counted(f):
            def call(*args, **kwargs):
                calls.append(args)
                return f(*args, **kwargs)
            return call

        monkeypatch.setattr(functionals, "weighted_h_integral", counted(weighted_h_integral))
        monkeypatch.setattr(functionals, "weighted_h_rate", counted(weighted_h_rate))
        res = solve_t0(u0, c0, alpha, horizon=1.0)
        assert not res.capped_at_horizon
        assert len(calls) <= 30  # I(T) and I'(T) evaluations alike
        ca = c_alpha(alpha)
        u0n = norm_l2(u0)
        thr = 1.0 / (32.0 * c0 * ca)

        def cond(T):
            return 8.0 * c0 * ca * u0n * math.sqrt(max(integral(u0, alpha, T), 0.0)) - thr

        assert cond(res.T0) < 0.0 <= cond(np.nextafter(res.T0, np.inf))

    @pytest.mark.parametrize("bad_rate", [
        lambda modes, T: 1e-12 * weighted_h_rate(modes, T),  # every Newton step overshoots
        lambda modes, T: weighted_h_rate(modes, T) if T == 0.0 else 0.0,  # no slope past 0
    ], ids=["rate_far_too_small", "rate_positive_only_at_zero"])
    def test_safeguards_keep_the_root_under_a_bad_rate(self, grid32, monkeypatch, bad_rate):
        # the rate steers Newton only: with a rate far too small the first guess and every
        # step leave [lo, hi] and are bisected, and with no slope after T = 0 each pass
        # skips its Newton step, so the next one bisects; the root is the same double
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=3, l2_norm=5.0)
        c0, alpha, horizon = 0.3, 1.0, 1.0
        ref = solve_t0(u0, c0, alpha, horizon)
        monkeypatch.setattr(functionals, "weighted_h_rate", bad_rate)
        res = solve_t0(u0, c0, alpha, horizon)
        assert not res.capped_at_horizon and res.T0 <= horizon
        ca = c_alpha(alpha)
        u0n = norm_l2(u0)
        thr = 1.0 / (32.0 * c0 * ca)

        def cond(T):
            return 8.0 * c0 * ca * u0n * math.sqrt(max(integral(u0, alpha, T), 0.0)) - thr

        assert cond(res.T0) < 0.0 <= cond(np.nextafter(res.T0, np.inf))
        assert res.T0 == ref.T0

    def test_one_mode_energies_call_per_check(self, monkeypatch):
        # a bound-3 check builds one HeatModes for its three T0 solves and its rows
        cfg = config_from_dict({"n": 32, "dt": 0.01, "t_end": 0.2, "stack_depth": 2,
                                "c0": {"mode": "fixed", "value": 0.3},
                                "initial_data": {"kind": "random_spectrum", "decay": 2.0,
                                                 "k_max": 8, "seed": 3, "l2_norm": 5.0}})
        u0 = make_initial_data(make_grid(cfg.n), cfg.initial_data)
        # reference: every evaluation takes u0 and recomputes its modes and weights
        monkeypatch.setattr(functionals, "weighted_h_integral",
                            lambda modes, T: integral(u0, modes.alpha, T))
        monkeypatch.setattr(functionals, "weighted_h_rate",
                            lambda modes, T: rate(u0, modes.alpha, T))
        ref = check_theorem(3, cfg)
        monkeypatch.undo()
        calls = []

        def counted(v):
            calls.append(v)
            return mode_energies(v)

        monkeypatch.setattr(stokes, "mode_energies", counted)
        rep = check_theorem(3, cfg)
        assert len(calls) == 1 and np.array_equal(calls[0].w, u0.w)
        assert not rep.params["T0_capped_at_horizon"] and rep.params["T0"] == ref.params["T0"]
        assert rep.extras["rhs_sensitivity"] == ref.extras["rhs_sensitivity"]
        assert len(rep.rows) == 9
        assert [row["rhs"] for row in rep.rows] == [row["rhs"] for row in ref.rows]

    def test_t0_equals_a_bisection_from_zero_to_the_horizon(self, grid32):
        def bisection(u0, c0, alpha, horizon):
            ca, u0n = c_alpha(alpha), norm_l2(u0)

            def cond(T):
                return 8.0 * c0 * ca * u0n * math.sqrt(max(integral(u0, alpha, T), 0.0)) \
                    - 1.0 / (32.0 * c0 * ca)

            if u0n == 0.0 or cond(horizon) < 0.0:
                return horizon
            lo, hi = 0.0, horizon
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if cond(mid) < 0.0 else (lo, mid)
            return lo

        cases = [(random_spectrum_field(grid32, 2.0, 8, seed=seed, l2_norm=l2), c0, 1.0)
                 for seed in range(6) for l2 in (2.0, 5.0)
                 for c0 in (0.9 * 0.227, 0.227, 1.1 * 0.227)]
        cases += [(shear_flow(grid32, 0.01), 0.227, 1.0),         # capped at the horizon
                  (shear_flow(grid32, 1.0) * 0.0, 0.227, 1.0),    # zero data
                  (random_spectrum_field(grid32, 2.0, 8, seed=0, l2_norm=0.3), 0.227, 0.5),
                  (random_spectrum_field(grid32, 2.0, 8, seed=1, l2_norm=2.0), 0.227, 2.0)]
        capped = 0
        for u0, c0, alpha in cases:
            res = solve_t0(u0, c0, alpha, horizon=1.0)
            assert res.T0 == bisection(u0, c0, alpha, 1.0)
            capped += res.capped_at_horizon
        assert capped == 2

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_rate_is_the_derivative_of_the_integral(self, random_field, alpha):
        for T in (1e-4, 1e-2, 0.3, 2.0):
            h = 1e-5 * T
            fd = (integral(random_field, alpha, T + h)
                  - integral(random_field, alpha, T - h)) / (2.0 * h)
            assert rate(random_field, alpha, T) == pytest.approx(fd, rel=1e-7)
        lams, E = mode_energies(random_field)
        c1 = _h_weights(alpha)[0]
        assert rate(random_field, alpha, 0.0) == pytest.approx(
            float(np.sum(2.0 * lams * E * c1)), rel=1e-15)

    def test_integral_matches_independent_quadrature(self, unit_mode):
        # single mode lambda = 1: brute-force trapezoid of the normalized sums
        alpha, T = 1.0, 0.8

        def sum_h_sq(tau):
            if tau == 0.0:
                return 1.0
            tot = 0.0
            for k in range(0, 50):
                tot += math.exp(2 * k * math.log(tau) - 2 * tau
                                - 2 * k * math.log(2) - (2 + 2 * alpha) * gammaln(k + 1))
            for k in range(1, 50):
                tot += 2.0 * math.exp((2 * k - 1) * math.log(tau) - 2 * tau
                                      - 2 * k * math.log(2) - gammaln(k)
                                      - (1 + 2 * alpha) * gammaln(k + 1))
            return tot

        taus = np.linspace(0.0, T, 4001)
        quad = np.trapezoid([sum_h_sq(float(x)) for x in taus], taus)
        closed = integral(unit_mode, alpha, T)
        assert closed == pytest.approx(quad, rel=1e-6)


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 5.0, 21)
        fit = fit_decay(t, 3.0 * t ** -0.5, (1.0, 5.0))
        assert fit.K_fit == pytest.approx(3.0, rel=1e-12)
        assert fit.gamma_fit == pytest.approx(0.5, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_envelope_holds_on_window(self):
        rng = np.random.default_rng(5)
        t = np.linspace(1.0, 5.0, 33)
        norms = 2.0 * t ** -1.2 * np.exp(0.05 * rng.standard_normal(len(t)))
        fit = fit_decay(t, norms, (1.0, 5.0))
        assert np.all(norms <= fit.K_fit * t ** -fit.gamma_fit * (1 + 1e-12))

    def test_exponential_flags_super_algebraic_with_late_window(self):
        t = np.linspace(1.0, 40.0, 200)
        norms = np.exp(-t)
        early = fit_decay(t, norms, (1.0, 5.0))
        late = fit_decay(t, norms, (20.0, 40.0))
        assert late.gamma_fit > early.gamma_fit
        assert late.super_algebraic

    def test_constant_series_gives_gamma_near_zero(self):
        t = np.linspace(1.0, 5.0, 9)
        fit = fit_decay(t, np.ones_like(t), (1.0, 5.0))
        assert abs(fit.gamma_fit) < 1e-12

    def test_underflow_truncates_window(self):
        t = np.linspace(1.0, 5.0, 9)
        norms = np.array([1.0, 0.5, 0.25, 0.12, 0.06, 0.0, 0.0, 0.0, 0.0])
        fit = fit_decay(t, norms, (1.0, 5.0))
        assert fit.truncated_window

    def test_needs_enough_points(self):
        with pytest.raises(ConfigurationError):
            fit_decay([1.0, 2.0, 3.0], [1.0, 0.5, 0.3], (1.0, 3.0))
        # the bare config's window [1, 5] past its t_end 1: the message names both
        with pytest.raises(ConfigurationError, match=r"window \[1, 5\], found 1$"):
            fit_decay([0.0, 0.5, 1.0], [1.0, 0.5, 0.3], (1.0, 5.0))


class TestCcc0Audit:
    def test_equality_case(self):
        audit = lemma_audit_ccc0(6, [1.0])
        row = next(r for r in audit.rows if (r.k, r.j, r.alpha) == (2, 1, 1.0))
        assert row.ratio == pytest.approx(0.5)
        assert row.printed_bound == pytest.approx(0.5)
        assert row.printed_ok and row.corrected_ok

    def test_printed_bound_fails_at_6_1(self):
        audit = lemma_audit_ccc0(6, [1.0])
        row = next(r for r in audit.rows if (r.k, r.j, r.alpha) == (6, 1, 1.0))
        assert row.ratio == pytest.approx(1.0 / 6.0)
        assert row.printed_bound == pytest.approx(1.0 / 32.0)
        assert not row.printed_ok
        assert row.corrected_ok
        assert (6, 1, 1.0) in audit.printed_violations

    def test_endpoint_equality(self):
        audit = lemma_audit_ccc0(8, [0.5])
        for k in range(2, 9):
            row = next(r for r in audit.rows if (r.k, r.j, r.alpha) == (k, 0, 0.5))
            assert row.ratio == 1.0
            assert row.corrected_bound == 1.0
            assert row.corrected_ok

    def test_corrected_bound_clean_to_20(self):
        audit = lemma_audit_ccc0(20, [0.5, 1.0, 2.0])
        assert audit.corrected_violations == []
        assert len(audit.printed_violations) > 0

    def test_violations_deterministic(self):
        a = lemma_audit_ccc0(12, [1.0])
        b = lemma_audit_ccc0(12, [1.0])
        assert a.printed_violations == b.printed_violations

    @settings(**HYP)
    @given(k=st.integers(0, 60), j=st.integers(0, 60))
    def test_corrected_bound_is_a_theorem(self, k, j):
        # binom(k, j) >= 2^min(j, k-j), exact integers
        if j > k:
            return
        assert math.comb(k, j) >= 2 ** min(j, k - j)


class TestConvolutionAudit:
    def test_point_mass_saturates(self):
        assert convolution_pairing([1.0], [1.0], [1.0]) == 1.0
        assert convolution_bound([1.0], [1.0], [1.0]) == 1.0

    def test_hand_example(self):
        ratio = convolution_pairing([1, 1], [1, 1], [1, 1]) \
            / convolution_bound([1, 1], [1, 1], [1, 1])
        assert ratio == pytest.approx(0.75, rel=1e-14)

    def test_randomized_audit(self):
        audit = lemma_audit_convolution(2000, 32, seed=3)
        assert audit.worst_ratio <= 1.0 + 1e-12

    @settings(**HYP)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
           st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    def test_pairing_never_beats_bound(self, a, b, c):
        bound = convolution_bound(a, b, c)
        if bound == 0.0:
            return
        assert convolution_pairing(a, b, c) <= bound * (1.0 + 1e-12)
