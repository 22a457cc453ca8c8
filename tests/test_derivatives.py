"""Derivative stack recursion, its oracles, and the finite-difference check."""

import math

import numpy as np
import pytest

from gevrey_ns import (ConfigurationError, SpectralVelocity, fd_convergence_check,
                       heat_evolve, inner_l2, integrate, laplacian, make_grid,
                       nonlinear_term, norm_grad_l2, norm_l2, random_spectrum_field,
                       raw_functionals, stokes_derivative_stack,
                       time_derivative_stack)


def leibniz_recursion(u, K):
    """u^(0..K) from the unscaled recursion, one product per pair."""
    raw = [u]
    for k in range(1, K + 1):
        rhs = laplacian(raw[k - 1])
        for j in range(k):
            rhs = rhs + math.comb(k - 1, j) * nonlinear_term(raw[j], raw[k - 1 - j])
        raw.append(rhs)
    return raw


class TestRecursionOracles:
    def test_taylor_green_all_orders(self, tg):
        st = time_derivative_stack(tg, 8, t=1.0)
        for k in range(st.depth + 1):
            ref = ((-2.0) ** k) * tg
            assert norm_l2(st.raw(k) - ref) <= 1e-10 * norm_l2(ref)

    def test_shear_all_orders(self, shear):
        st = time_derivative_stack(shear, 8, t=0.5)
        for k in range(st.depth + 1):
            ref = ((-1.0) ** k) * shear
            assert norm_l2(st.raw(k) - ref) <= 1e-10 * norm_l2(ref)

    def test_depth_zero(self, random_field):
        st = time_derivative_stack(random_field, 0, t=1.0)
        assert len(st.entries) == 1
        assert (st.entries[0] - random_field).max_amplitude() == 0.0

    def test_deep_stacks_have_no_depth_cap(self, random_field):
        st = time_derivative_stack(random_field, 16, t=0.1)
        assert st.depth == 16
        assert all(np.isfinite(e.max_amplitude()) for e in st.entries)

    def test_rejects_bad_arguments(self, random_field):
        with pytest.raises(ConfigurationError):
            time_derivative_stack(random_field, -1, t=1.0)
        with pytest.raises(ConfigurationError):
            time_derivative_stack(random_field, 3, t=0.0)

    def test_linear_consistency_with_heat_stack(self, grid32):
        # a multi-mode shear (u1(y), 0) has u . grad u = 0, so its flow is the
        # heat flow and the full recursion must reproduce the heat stack
        rng = np.random.default_rng(4)
        u1 = np.zeros((32, 32), dtype=complex)
        for q in range(1, 9):
            c = (rng.standard_normal() + 1j * rng.standard_normal()) / q
            u1[0, q], u1[0, -q] = c, np.conj(c)
        u0 = SpectralVelocity(grid32, u1, np.zeros_like(u1))
        t = 0.3
        st = time_derivative_stack(heat_evolve(u0, t), 6, t=t)
        ref = stokes_derivative_stack(u0, t, 6)
        for a, b in zip(st.entries, ref.entries):
            assert (a - b).max_amplitude() <= 1e-12 * max(b.max_amplitude(), 1e-300)

    def test_first_order_energy_identity(self, random_field):
        st = time_derivative_stack(random_field, 1, t=0.1)
        lhs = inner_l2(random_field, st.raw(1))
        rhs = -norm_grad_l2(random_field) ** 2
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    @pytest.mark.parametrize("n,K", [(32, 4), (64, 8)])
    def test_fluctuation_stack_satisfies_its_own_recursion(self, n, K):
        # f-stack by subtraction must match the recursion driven by u products,
        # so each fused level is checked against the per-pair product sum
        u0 = random_spectrum_field(make_grid(n), 2.0, 6, seed=8, l2_norm=0.6)
        t = 0.25
        traj = integrate(u0, dt=2.5e-3, t_end=t, snapshot_times=[0.0, t])
        u = traj.fields[-1]
        st_u = time_derivative_stack(u, K, t=t)
        st_l = stokes_derivative_stack(u0, t, K)
        fl = st_u - st_l
        for k in range(1, K + 1):
            rhs = laplacian(fl.raw(k - 1))
            for j in range(k):
                rhs = rhs + math.comb(k - 1, j) * nonlinear_term(st_u.raw(j),
                                                                 st_u.raw(k - 1 - j))
            diff = (fl.raw(k) - rhs).max_amplitude()
            assert diff <= 1e-9 * max(st_u.raw(k).max_amplitude(), 1e-300)

    def test_one_inverse_transform_per_entry_one_forward_per_level(self, fft_calls,
                                                                    random_field):
        time_derivative_stack(random_field, 12, t=0.1)
        assert fft_calls == {"irfft2": 12, "rfft2": 12}


class TestScaledStack:
    def test_matches_raw_rescaling(self, random_field):
        # the scaled recursion against the Leibniz recursion for u^(k)
        t, K = 0.7, 6
        st = time_derivative_stack(random_field, K, t=t)
        for k, ref in enumerate(leibniz_recursion(random_field, K)):
            fac = t ** k / (2.0 ** k * math.factorial(k))
            diff = (st.entries[k] - fac * ref).max_amplitude()
            assert diff <= 1e-12 * max(st.entries[k].max_amplitude(), 1e-300)
            diff = (st.raw(k) - ref).max_amplitude()
            assert diff <= 1e-12 * max(ref.max_amplitude(), 1e-300)

    def test_deep_stack_stays_finite(self, shear):
        sc = time_derivative_stack(shear, 24, t=1.0)
        assert all(np.isfinite(e.max_amplitude()) for e in sc.entries)
        # single mode lambda = 1: |v_k| = e^-t (t/2)^k / k! * |u0|
        for k, e in enumerate(sc.entries):
            expect = np.exp(-0.0) * (0.5 ** k) / math.factorial(k) * norm_l2(shear)
            assert norm_l2(e) == pytest.approx(expect, rel=1e-10)

    def test_tilde_identities_match_raw_weights(self):
        # L~, H~ read off v_k against the raw weights t^k, t^(k+1/2) applied to
        # u^(k) = raw(k), divided by the first renormalization
        u = random_spectrum_field(make_grid(32), 2.0, 8, seed=5, l2_norm=2.0)
        t, K = 0.2, 8
        st = time_derivative_stack(u, K, t=t)
        L, H, div = np.empty(2 * K), np.empty(2 * K), np.empty(2 * K)
        for k in range(K):
            r, r1 = st.raw(k), st.raw(k + 1)
            L[2 * k], H[2 * k] = t ** k * norm_l2(r), t ** k * norm_grad_l2(r)
            L[2 * k + 1] = t ** (k + 0.5) * norm_grad_l2(r)
            H[2 * k + 1] = t ** (k + 0.5) * norm_l2(r1)
            div[2 * k] = 2.0 ** k * math.factorial(k)
            div[2 * k + 1] = 2.0 ** (k + 1) * math.sqrt(
                math.factorial(k) * math.factorial(k + 1) / 2.0)
        s = raw_functionals(st)
        np.testing.assert_allclose(s.L_tilde, L / div, rtol=1e-13, atol=0)
        np.testing.assert_allclose(s.H_tilde, H / div, rtol=1e-13, atol=0)


class TestFdConvergence:
    def _trajectory(self, u0, t_mid, dt, hs):
        snaps = sorted({0.0, t_mid} | {round(t_mid + s * h, 10)
                                       for h in hs for s in (1, -1)})
        return integrate(u0, dt=dt, t_end=t_mid + max(hs), snapshot_times=snaps)

    def test_taylor_green_first_derivative(self, tg):
        dt = 2.5e-3
        hs = [4 * dt, 2 * dt, dt]
        traj = self._trajectory(tg, 0.5, dt, hs)
        res = fd_convergence_check(traj, 0.5, 1, hs)
        assert res.observed_order >= 1.9

    def test_shear_second_derivative(self, shear):
        dt = 2.5e-3
        hs = [4 * dt, 2 * dt, dt]
        traj = self._trajectory(shear, 0.5, dt, hs)
        res = fd_convergence_check(traj, 0.5, 2, hs)
        assert res.observed_order >= 1.9

    def test_random_flow_first_derivative(self, grid32):
        u0 = random_spectrum_field(grid32, 2.0, 6, seed=12, l2_norm=0.25)
        dt = 2.5e-3
        hs = [4 * dt, 2 * dt, dt]
        traj = self._trajectory(u0, 0.5, dt, hs)
        res = fd_convergence_check(traj, 0.5, 1, hs)
        assert res.observed_order >= 1.9

    def test_missing_snapshot_is_an_error(self, tg):
        traj = integrate(tg, dt=1e-2, t_end=0.1, snapshot_times=[0.0, 0.05, 0.1])
        with pytest.raises(ConfigurationError, match="snapshot"):
            fd_convergence_check(traj, 0.05, 1, [0.02])

    def test_only_first_two_orders_supported(self, tg):
        traj = integrate(tg, dt=1e-2, t_end=0.1, snapshot_times=[0.0, 0.05, 0.1])
        with pytest.raises(ConfigurationError):
            fd_convergence_check(traj, 0.05, 3, [0.01])
