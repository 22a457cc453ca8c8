"""Weighted functionals, renormalizations, bound LHS/RHS pieces, and audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from gevrey_ns import (ConfigurationError, c_alpha, fit_decay, functionals,
                       lemma_audit_ccc0, lemma_audit_convolution, make_grid,
                       norm_grad_l2, norm_l2, random_spectrum_field,
                       raw_functionals, renormalize, sample_at_time_zero,
                       shear_flow, shifted_functionals, smallness_check,
                       stokes_derivative_stack, taylor_green, theorem2_log_rhs,
                       theorem2_rhs, theorem3_rhs, theorem_lhs,
                       time_derivative_stack)
from gevrey_ns.functionals import (FunctionalSeries, convolution_bound,
                                   convolution_pairing)
from gevrey_ns.stokes import weighted_h_integral

SQRT2_PI = np.pi * np.sqrt(2.0)
HYP = dict(deadline=None, derandomize=True, max_examples=60)


def shear_sample(grid, t, K=8):
    """Functional sample of the exact shear solution at time t."""
    u_t = np.exp(-t) * shear_flow(grid, 1.0)
    return raw_functionals(time_derivative_stack(u_t, K, t=t))


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
        s = raw_functionals(time_derivative_stack(u_t, 6, t=0.5))
        assert np.allclose(s.L_raw, np.exp(-1.0) * SQRT2_PI, rtol=1e-10)
        assert np.allclose(s.H_raw, np.sqrt(2.0) * np.exp(-1.0) * SQRT2_PI, rtol=1e-10)

    def test_index_identity(self, random_field):
        s = raw_functionals(stokes_derivative_stack(random_field, 0.8, 7))
        lhs = s.L_raw[1:]
        rhs = np.sqrt(0.8) * s.H_raw[:-1]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(lhs)

    def test_time_zero_limit(self, random_field):
        s = sample_at_time_zero(random_field, 11)
        assert s.L_raw[0] == norm_l2(random_field)
        assert s.H_raw[0] == norm_grad_l2(random_field)
        assert not s.L_raw[1:].any()
        assert not s.H_raw[1:].any()


class TestRenormalize:
    def test_even_k2_alpha1(self, grid32):
        s = shear_sample(grid32, 1.0)
        sr = renormalize(s, 1.0)
        assert s.L_tilde[4] == pytest.approx(s.L_raw[4] / 8.0, rel=1e-14)
        assert sr.L_c[4] == pytest.approx(s.L_raw[4] / 16.0, rel=1e-14)

    def test_odd_k1_alpha1(self, grid32):
        s = shear_sample(grid32, 1.0)
        sr = renormalize(s, 1.0)
        assert s.L_tilde[1] == pytest.approx(np.sqrt(2.0) * s.L_raw[1] / 2.0, rel=1e-14)
        assert sr.L_c[1] == pytest.approx(s.L_tilde[1], rel=1e-14)

    def test_order_zero_untouched(self, grid32):
        s = shear_sample(grid32, 0.5)
        sr = renormalize(s, 2.0)
        assert s.L_tilde[0] == s.L_raw[0]
        assert sr.L_c[0] == s.L_raw[0]

    def test_rejects_bad_alpha(self, grid32):
        with pytest.raises(ConfigurationError):
            renormalize(shear_sample(grid32, 0.5), 0.0)


def direct_printed_lhs(series, tid, alpha, gamma=None):
    """Literal transcription of the printed weight tables, log-space, raw values."""
    times = series.times
    kmax = (series.M - 1) // 2
    ln2 = math.log(2.0)

    def we(k):
        return math.exp(-(2 * k) * ln2 - (2 + alpha) * gammaln(k + 1))

    def wo(k):
        return math.exp(-(2 * k + 1) * ln2 - gammaln(k + 1) - (1 + alpha) * gammaln(k + 2))

    def we4(k):
        return math.exp(-(4 * k) * ln2 - (2 + alpha) * gammaln(k + 1))

    def wo4(k):
        return math.exp(-(4 * k + 1) * ln2 - gammaln(k + 1) - (1 + alpha) * gammaln(k + 2))

    state = np.zeros(len(times))
    integ = np.zeros(len(times))
    for i, s in enumerate(series.samples):
        for k in range(kmax + 1):
            if tid in (1, 2, 3):
                state[i] += we(k) * s.L_raw[2 * k] ** 2 + wo(k) * s.L_raw[2 * k + 1] ** 2
                half_even = 0.5 if tid in (2, 3) else 1.0
                pref = 0.5 if tid in (1, 2) else 1.0
                integ[i] += pref * (half_even * we(k) * s.H_raw[2 * k] ** 2
                                    + wo(k) * s.H_raw[2 * k + 1] ** 2)
            else:
                t2g = s.t ** (2 * gamma)
                state[i] += t2g * (we4(k) * s.L_raw[2 * k] ** 2
                                   + wo4(k) * s.L_raw[2 * k + 1] ** 2)
                integ[i] += t2g * (we4(k) * s.H_raw[2 * k] ** 2
                                   + wo4(k) * s.H_raw[2 * k + 1] ** 2)
    cum = np.zeros(len(times))
    cum[1:] = np.cumsum(0.5 * np.diff(times) * (integ[1:] + integ[:-1]))
    return state + cum


@pytest.fixture(scope="module")
def heat_series():
    grid = make_grid(32)
    u0 = shear_flow(grid, 1.0) * (1.0 / SQRT2_PI)
    samples = [sample_at_time_zero(u0, 15)]
    for t in np.linspace(0.125, 2.0, 16):
        u = np.exp(-t) * shear_flow(grid, 1.0 / SQRT2_PI)
        samples.append(raw_functionals(time_derivative_stack(u, 8, t=float(t))))
    return FunctionalSeries(samples=samples), u0


class TestTheoremLhs:
    def test_matches_verbatim_weight_tables(self, heat_series):
        series, _ = heat_series
        for tid in (1, 2, 3):
            res = theorem_lhs(series, tid, 1.0)
            ref = direct_printed_lhs(series, tid, 1.0)
            assert np.max(np.abs(res.lhs - ref) / np.maximum(ref, 1e-300)) < 1e-12
        res4 = theorem_lhs(series, 4, 1.0, gamma=0.6)
        ref4 = direct_printed_lhs(series, 4, 1.0, gamma=0.6)
        assert np.max(np.abs(res4.lhs - ref4) / np.maximum(ref4, 1e-300)) < 1e-12

    def test_time_zero_is_initial_energy(self, heat_series):
        series, u0 = heat_series
        res = theorem_lhs(series, 1, 1.0)
        assert res.lhs[0] == norm_l2(u0) ** 2

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
            assert abs(res.lhs[i] - ref) <= res.quad_err[i] + 1e-8 * ref

    def test_accumulators_monotone(self, heat_series):
        series, _ = heat_series
        res = theorem_lhs(series, 2, 0.7)
        assert np.all(np.diff(res.integral) >= 0)

    def test_gamma_zero_weight_comparison(self):
        # at k = 0 the accelerated-decay weights coincide with the base table;
        # at k >= 1 they differ by exactly 4^-k
        from gevrey_ns.functionals import _tilde_weights
        se1, so1, ie1, io1 = _tilde_weights(1, 1.0, 6, "printed")
        se4, so4, ie4, io4 = _tilde_weights(4, 1.0, 6, "printed")
        assert se4[0] == se1[0] and so4[0] == so1[0]
        for k in range(7):
            assert se1[k] / se4[k] == pytest.approx(4.0 ** k, rel=1e-13)

    def test_proof_variant_doubles_alpha_exponent(self, heat_series):
        series, _ = heat_series
        printed = theorem_lhs(series, 1, 2.0, variant="printed")
        proof_half = theorem_lhs(series, 1, 1.0, variant="proof")
        assert np.allclose(printed.lhs, proof_half.lhs, rtol=1e-13)

    def test_insufficient_depth_is_an_error(self, heat_series):
        series, _ = heat_series
        with pytest.raises(ConfigurationError, match="k_max"):
            theorem_lhs(series, 2, 1.0, k_max=10)


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
        assert smallness_check(0.0, 1.0, 1.0).satisfied
        val = 0.125 / c_alpha(2.0)  # makes the product exactly 1
        assert not smallness_check(val, 1.0, 2.0).satisfied
        res = smallness_check(0.5, 0.2, 1.0)
        assert res.value == pytest.approx(0.9237604, rel=1e-6)
        assert res.satisfied


class TestTheorem3Rhs:
    def test_vanishing_data_caps_at_horizon(self, grid32):
        tiny = shear_flow(grid32, 1e-12)
        res = theorem3_rhs(tiny, 0.3, 1.0, horizon=5.0)
        assert res.capped_at_horizon
        assert res.T0 == 5.0

    def test_rhs_zero_at_origin(self, unit_mode):
        res = theorem3_rhs(unit_mode, 0.3, 1.0, horizon=5.0)
        assert res.rhs[0] == 0.0

    def test_bisection_brackets_the_condition(self, unit_mode):
        c0, alpha = 0.4, 1.0
        res = theorem3_rhs(unit_mode, c0, alpha, horizon=10.0)
        assert not res.capped_at_horizon
        ca = c_alpha(alpha)
        thr = 1.0 / (32.0 * c0 * ca)

        def cond(T):
            return 8.0 * c0 * ca * math.sqrt(weighted_h_integral(unit_mode, alpha, T)) - thr

        assert cond(res.T0 * 0.999) < 0.0
        assert cond(res.T0 * 1.001) > 0.0

    def test_bisection_stops_on_the_double_boundary(self, grid32, monkeypatch):
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=3, l2_norm=5.0)
        c0, alpha = 0.3, 1.0
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return weighted_h_integral(*args, **kwargs)

        monkeypatch.setattr(functionals, "weighted_h_integral", counted)
        res = theorem3_rhs(u0, c0, alpha, horizon=1.0)
        assert not res.capped_at_horizon
        assert len(calls) <= 85
        ca = c_alpha(alpha)
        u0n = norm_l2(u0)
        thr = 1.0 / (32.0 * c0 * ca)

        def cond(T):
            return 8.0 * c0 * ca * u0n * math.sqrt(max(weighted_h_integral(u0, alpha, T), 0.0)) \
                - thr

        assert cond(res.T0) < 0.0 <= cond(np.nextafter(res.T0, np.inf))

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
        closed = weighted_h_integral(unit_mode, alpha, T)
        assert closed == pytest.approx(quad, rel=1e-6)


class TestShiftedFunctionals:
    def test_t0_zero_reduces_to_renormalized(self, random_field):
        st = stokes_derivative_stack(random_field, 1.3, 6)
        sr = renormalize(raw_functionals(st), 1.0)
        sh = shifted_functionals(st, 0.0, 1.0)
        assert np.allclose(sh.L, sr.L_c, rtol=1e-13)
        assert np.allclose(sh.H, sr.H_c, rtol=1e-13)

    def test_shear_closed_form(self, grid32):
        # lambda = 1, t = 2, t0 = 1: L_{2k} = (t - t0)^k e^-t |u0| / (2^k (k!)^(1+alpha))
        t, t0, alpha = 2.0, 1.0, 1.0
        u_t = np.exp(-t) * shear_flow(grid32, 1.0)
        st = time_derivative_stack(u_t, 6, t=t)
        sh = shifted_functionals(st, t0, alpha)
        for k in range(4):
            expect = ((t - t0) ** k / (2 ** k * math.factorial(k) ** (1 + alpha))) \
                * np.exp(-t) * SQRT2_PI
            assert sh.L[2 * k] == pytest.approx(expect, rel=1e-10)

    def test_weights_vanish_as_t0_approaches_t(self, random_field):
        st = stokes_derivative_stack(random_field, 1.0, 5)
        sh = shifted_functionals(st, 1.0 - 1e-9, 1.0)
        assert sh.L[0] > 0
        assert np.all(sh.L[1:] <= 1e-4 * sh.L[0])

    def test_rejects_t0_at_or_past_t(self, random_field):
        st = stokes_derivative_stack(random_field, 1.0, 3)
        with pytest.raises(ConfigurationError):
            shifted_functionals(st, 1.0, 1.0)


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
