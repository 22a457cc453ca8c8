"""Heat semigroup oracle: evolution, derivative stacks, weighted-sum identity."""

import math

import numpy as np
import pytest
from conftest import dissipation_integral_exact
from scipy.special import gammainc

from gevrey_ns import (ConfigurationError, FunctionalSeries, from_lattice, heat_evolve,
                       norm_l2, raw_functionals, stokes_derivative_stack,
                       stokes_gevrey_identity)
from gevrey_ns.stokes import (_h_weights, heat_modes, log_factorials, poisson_tail_sum,
                              weighted_h_rate)

SQRT2_PI = np.pi * np.sqrt(2.0)


def two_mode_field(grid):
    """Energy 1/2 at |xi|^2 = 1 plus 1/2 at |xi|^2 = 4, along (0, +-1) and (0, +-2)."""
    a = 1.0 / (4.0 * np.pi)
    u1 = np.zeros((grid.n, grid.n), complex)
    u2 = np.zeros_like(u1)
    u1[0, 1] = a
    u1[0, -1] = a
    u1[0, 2] = a
    u1[0, -2] = a
    return from_lattice(grid, np.stack([u1, u2]))


class TestHeatEvolve:
    def test_single_mode_decay(self, unit_mode):
        out = heat_evolve(unit_mode, 1.0)
        assert abs(norm_l2(out) - np.exp(-1.0)) < 1e-14

    def test_t_zero_identity(self, random_field):
        out = heat_evolve(random_field, 0.0)
        assert (out - random_field).max_amplitude() == 0.0

    def test_taylor_green_halftime(self, tg):
        out = heat_evolve(tg, 0.5)
        assert abs(norm_l2(out) - np.exp(-1.0) * SQRT2_PI) < 1e-12

    def test_negative_time_rejected(self, tg):
        with pytest.raises(ConfigurationError):
            heat_evolve(tg, -0.1)

    def test_semigroup_property(self, random_field):
        one = heat_evolve(heat_evolve(random_field, 0.3), 0.45)
        two = heat_evolve(random_field, 0.75)
        assert (one - two).max_amplitude() <= 1e-13 * two.max_amplitude()


class TestStokesStack:
    def test_single_mode_signs(self, unit_mode):
        st = stokes_derivative_stack(unit_mode, 1.0, 5)
        for k in range(6):
            ref = ((-1.0) ** k) * heat_evolve(unit_mode, 1.0)
            assert (st.raw(k) - ref).max_amplitude() <= 1e-15

    def test_taylor_green_powers_of_two(self, tg):
        st = stokes_derivative_stack(tg, 0.25, 6)
        base = heat_evolve(tg, 0.25)
        for k in range(7):
            ref = ((-2.0) ** k) * base
            assert (st.raw(k) - ref).max_amplitude() <= 1e-13 * ref.max_amplitude()

    def test_scaled_entries_closed_form(self, random_field):
        # v_k = (-|xi|^2 t / 2)^k / k! exp(-|xi|^2 t) u0hat
        t, K = 0.6, 10
        st = stokes_derivative_stack(random_field, t, K)
        lam = random_field.grid.k_sq
        for k, e in enumerate(st.w):
            mult = (-lam * t / 2.0) ** k / math.factorial(k) * np.exp(-lam * t)
            ref = random_field * mult
            assert np.max(np.abs(e - ref.w)) <= 1e-14 * ref.max_amplitude()

    def test_depth_zero(self, random_field):
        st = stokes_derivative_stack(random_field, 0.7, 0)
        assert st.depth == 0
        assert np.array_equal(st.w[0], heat_evolve(random_field, 0.7).w)

    def test_requires_positive_time(self, random_field):
        with pytest.raises(ConfigurationError):
            stokes_derivative_stack(random_field, 0.0, 3)


class TestGevreyIdentity:
    def test_single_mode_closed_form(self, unit_mode):
        rep = stokes_gevrey_identity(unit_mode, 1.0, 40)
        assert abs(rep.state_term - np.exp(-1.0)) < 1e-12
        assert abs(rep.integral_term - (1.0 - np.exp(-1.0))) < 1e-12
        assert abs(rep.total - 1.0) <= 1e-12
        assert abs(rep.residual) <= 1e-12

    def test_time_zero(self, random_field):
        rep = stokes_gevrey_identity(random_field, 0.0, 40)
        assert rep.state_term == pytest.approx(norm_l2(random_field) ** 2, rel=1e-14)
        assert rep.integral_term == 0.0
        assert rep.residual == pytest.approx(0.0, abs=1e-14)
        assert rep.tail_bound == 0.0

    def test_two_mode_closed_form(self, grid32):
        v = two_mode_field(grid32)
        assert abs(norm_l2(v) ** 2 - 1.0) < 1e-14
        rep = stokes_gevrey_identity(v, 0.5, 40)
        state_expect = 0.5 * np.exp(-0.5) + 0.5 * np.exp(-2.0)
        assert abs(rep.state_term - state_expect) < 1e-13
        assert abs(rep.total - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    def test_multimode_residual(self, random_field, t):
        rep = stokes_gevrey_identity(random_field, t, 40)
        assert abs(rep.residual) <= 1e-8 + rep.tail_bound

    def test_printed_variant_reported(self, random_field):
        # the L-family integrand does not close the identity off lambda = 1
        rep = stokes_gevrey_identity(random_field, 1.0, 40)
        assert abs(rep.residual) < 1e-10
        assert abs(rep.residual_state_family) > 1e-3

    def test_rejects_odd_truncation(self, random_field):
        with pytest.raises(ConfigurationError):
            stokes_gevrey_identity(random_field, 1.0, 7)


class TestLinearEnergyBalance:
    @pytest.mark.parametrize("t", [0.2, 1.0, 3.0])
    def test_closed_form_balance(self, random_field, t):
        lhs = 0.5 * norm_l2(heat_evolve(random_field, t)) ** 2 \
            + dissipation_integral_exact(random_field, t)
        rhs = 0.5 * norm_l2(random_field) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_index_identity_on_stokes_samples(self, random_field):
        # L_{m+1}(t) = sqrt(t) H_m(t), exact consequence of the definitions
        for t in (0.3, 1.7):
            L, H = raw_functionals(stokes_derivative_stack(random_field, t, 6))
            series = FunctionalSeries(times=np.array([t]), L_tilde=L[None], H_tilde=H[None])
            lhs = series.L_raw[0, 1:]
            rhs = np.sqrt(t) * series.H_raw[0, :-1]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(lhs), 1e-300)


X_GRID = np.logspace(-8, 4, 241)


class TestPoissonTailSum:
    """sum_a c_a P(a, x) at integer orders against scipy.special.gammainc."""

    @staticmethod
    def reference(x, c):
        a = np.arange(1, len(c) + 1)
        return np.sum(c * gammainc(a, x[:, None]), axis=-1)

    @pytest.mark.parametrize("weights", [_h_weights(0.5), _h_weights(1.0), _h_weights(2.0),
                                         np.exp(-np.arange(1.0, 42.0) * math.log(2.0))],
                             ids=["alpha0.5", "alpha1", "alpha2", "two^-a"])
    def test_weighted_families_match_scipy(self, weights):
        x = np.concatenate([X_GRID, np.arange(1.0, 130.0)])
        ref = self.reference(x, weights)
        assert np.max(np.abs(poisson_tail_sum(x, weights) - ref) / ref) <= 1e-14

    @pytest.mark.parametrize("M", [2, 10, 40, 120])
    def test_one_order_tail(self, M):
        # P(M+1, x): an upper sum for x < M+1, where it can be far below 1.
        # scipy's own error here reaches 1.4e-13 (P(41, 1.9e-6), P(121, 69.5)),
        # so the 1e-14 gate is against a 40-digit mpmath value.
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([X_GRID[::4], [M - 0.5, M + 1.0, M + 1.5]])
        c = np.eye(M + 1)[M]
        got = poisson_tail_sum(x, c)
        ref = gammainc(M + 1, x)
        normal = ref > 1e-280  # below that the result is subnormal or zero in both
        assert np.all(got[~normal] < 1e-279)
        assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 2e-13
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.gammainc(M + 1, 0, mpmath.mpf(float(v)),
                                                    regularized=True)) for v in x[normal]])
        assert np.max(np.abs(got[normal] - exact) / exact) <= 1e-14

    def test_zero_argument_and_far_arguments(self):
        c = _h_weights(1.0)
        assert poisson_tail_sum(0.0, c) == 0.0
        assert poisson_tail_sum(np.array([800.0, 1e6]), c).tolist() == [np.cumsum(c)[-1]] * 2
        # a tail order beyond the normal range of e^-x takes the log-space branch
        x = np.array([650.0, 750.0, 900.0])
        ref = gammainc(801, x)
        assert np.max(np.abs(poisson_tail_sum(x, np.eye(801)[800]) - ref) / ref) <= 1e-10

    @staticmethod
    def full_j(x, c):
        """poisson_tail_sum with every pmf order up to J = A + 10 sqrt(A) + 20 and both
        branches, for 0 <= x <= 700."""
        x = np.asarray(x, dtype=float)
        C = np.cumsum(c)
        A = len(C)
        J = A + math.ceil(10.0 * math.sqrt(A)) + 20
        pmf = np.cumprod(np.concatenate([np.exp(-x[..., None]),
                                         x[..., None] / np.arange(1, J + 1)], axis=-1), axis=-1)
        direct = np.sum(pmf[..., 1:] * C[np.minimum(np.arange(1, J + 1), A) - 1], axis=-1)
        upper = C[-1] - np.sum(pmf[..., :A] * (C[-1] - np.concatenate([[0.0], C[:-1]])),
                               axis=-1)
        return np.where(x < A, direct, upper)

    @pytest.mark.parametrize("weights", [_h_weights(0.5), _h_weights(2.0),
                                         np.exp(-np.arange(1.0, 42.0) * math.log(2.0)),
                                         np.eye(41)[40]],
                             ids=["alpha0.5", "alpha2", "two^-a", "P(41)"])
    def test_the_cut_pmf_sums_to_the_full_j_bits(self, weights):
        # below A the pmf stops where its terms vanish; each x alone, and every batch of
        # them, gives the bits of the sum over all J orders
        A = len(weights)
        x = np.linspace(0.0, 2.0 * A, 1201)
        ref = self.full_j(x, weights)
        assert np.array_equal([poisson_tail_sum(v, weights) for v in x], ref)
        for top in (0.01, 0.5, 3.0, A / 2, A - 0.5, 2.0 * A):
            sel = x <= top
            assert np.array_equal(poisson_tail_sum(x[sel], weights), ref[sel])

    def test_the_cut_rate_has_the_full_j_bits(self, random_field):
        modes = heat_modes(random_field, 1.0)
        J = len(modes.weights) - 1
        for T in (0.0, 1e-6, 1e-3, 0.05, 0.3, 2.0):
            x = 2.0 * modes.lams * T
            ratios = x[:, None] / np.arange(1, J + 1)
            pmf = np.cumprod(np.concatenate([np.exp(-x[:, None]), ratios], axis=-1), axis=-1)
            ref = float(np.sum(2.0 * modes.lams * modes.energies * (pmf @ modes.weights)))
            assert weighted_h_rate(modes, T) == ref

    def test_log_factorials_any_depth(self):
        lf = log_factorials(300)
        exact = [math.log(math.factorial(k)) for k in range(171)]
        assert np.max(np.abs(lf[:171] - exact) / np.maximum(exact, 1.0)) <= 1e-15
        assert lf[300] == math.lgamma(301.0)
