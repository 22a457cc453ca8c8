"""Heat semigroup oracle: evolution, derivative stacks, weighted-sum identity."""

import math

import numpy as np
import pytest

from gevrey_ns import (ConfigurationError, SpectralVelocity,
                       dissipation_integral_exact, heat_evolve, norm_l2,
                       raw_functionals, stokes_derivative_stack,
                       stokes_gevrey_identity)

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
    return SpectralVelocity(grid, u1, u2)


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
        for k, e in enumerate(st.entries):
            mult = (-lam * t / 2.0) ** k / math.factorial(k) * np.exp(-lam * t)
            ref = random_field * mult
            assert (e - ref).max_amplitude() <= 1e-14 * ref.max_amplitude()

    def test_depth_zero(self, random_field):
        st = stokes_derivative_stack(random_field, 0.7, 0)
        assert len(st.entries) == 1
        assert (st.entries[0] - heat_evolve(random_field, 0.7)).max_amplitude() == 0.0

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
            sample = raw_functionals(stokes_derivative_stack(random_field, t, 6))
            lhs = sample.L_raw[1:]
            rhs = np.sqrt(t) * sample.H_raw[:-1]
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(lhs), 1e-300)
