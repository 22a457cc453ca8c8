"""Derivative stack recursion, its oracles, and the finite-difference check."""

import math

import numpy as np
import pytest
import scipy.fft

from gevrey_ns import (ConfigurationError, fd_convergence_check, heat_evolve,
                       inner_l2, integrate, laplacian, make_grid, nonlinear_term,
                       norm_grad_l2, norm_l2, random_spectrum_field,
                       scaled_time_derivative_stack, stokes_derivative_stack,
                       time_derivative_stack)
from gevrey_ns.derivatives import binomial


class TestBinomial:
    @pytest.mark.parametrize("k,j", [(0, 0), (5, 2), (12, 6), (30, 15), (52, 26)])
    def test_exact_small_values(self, k, j):
        assert binomial(k, j) == float(math.comb(k, j))

    def test_out_of_range(self):
        assert binomial(4, 5) == 0.0
        assert binomial(4, -1) == 0.0


class TestRecursionOracles:
    def test_taylor_green_all_orders(self, tg):
        st = time_derivative_stack(tg, 8, t=1.0)
        assert st.failed_at is None
        for k, e in enumerate(st.entries):
            ref = ((-2.0) ** k) * tg
            assert norm_l2(e - ref) <= 1e-10 * norm_l2(ref)

    def test_shear_all_orders(self, shear):
        st = time_derivative_stack(shear, 8, t=0.5)
        for k, e in enumerate(st.entries):
            ref = ((-1.0) ** k) * shear
            assert norm_l2(e - ref) <= 1e-10 * norm_l2(ref)

    def test_depth_zero(self, random_field):
        st = time_derivative_stack(random_field, 0, t=1.0)
        assert len(st.entries) == 1
        assert (st.entries[0] - random_field).max_amplitude() == 0.0

    def test_rejects_deep_raw_stacks(self, random_field):
        with pytest.raises(ConfigurationError, match="scaled"):
            time_derivative_stack(random_field, 13, t=1.0)

    def test_linear_consistency_with_heat_stack(self, random_field):
        t = 0.3
        evolved = heat_evolve(random_field, t)
        lin = time_derivative_stack(evolved, 6, t=t, include_nonlinear=False)
        ref = stokes_derivative_stack(random_field, t, 6)
        for a, b in zip(lin.entries, ref.entries):
            assert (a - b).max_amplitude() <= 1e-12 * max(b.max_amplitude(), 1e-300)

    def test_first_order_energy_identity(self, random_field):
        st = time_derivative_stack(random_field, 1, t=0.1)
        lhs = inner_l2(random_field, st.entries[1])
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
            rhs = laplacian(fl.entries[k - 1])
            for j in range(k):
                rhs = rhs + binomial(k - 1, j) * nonlinear_term(st_u.entries[j],
                                                                st_u.entries[k - 1 - j])
            diff = (fl.entries[k] - rhs).max_amplitude()
            assert diff <= 1e-9 * max(st_u.entries[k].max_amplitude(), 1e-300)

    def test_one_inverse_transform_per_entry_one_forward_per_level(self, monkeypatch,
                                                                    random_field):
        calls = {"irfft2": 0, "rfft2": 0}
        for name in calls:
            def counted(*args, _name=name, _fft=getattr(scipy.fft, name), **kwargs):
                calls[_name] += 1
                return _fft(*args, **kwargs)
            monkeypatch.setattr(scipy.fft, name, counted)
        time_derivative_stack(random_field, 12, t=0.1)
        assert calls == {"irfft2": 12, "rfft2": 12}

    def test_overflow_returns_partial_stack(self, grid32):
        huge = random_spectrum_field(grid32, 0.5, 10, seed=2, l2_norm=1e120)
        st = time_derivative_stack(huge, 12, t=1.0)
        assert st.failed_at is not None
        assert len(st.entries) == st.failed_at


class TestScaledStack:
    def test_matches_raw_rescaling(self, random_field):
        t, K = 0.7, 6
        raw = time_derivative_stack(random_field, K, t=t)
        sc = scaled_time_derivative_stack(random_field, K, t=t)
        for k in range(K + 1):
            fac = t ** k / (2.0 ** k * math.factorial(k))
            diff = (sc.entries[k] - fac * raw.entries[k]).max_amplitude()
            assert diff <= 1e-12 * max(sc.entries[k].max_amplitude(), 1e-300)

    def test_deep_stack_stays_finite(self, shear):
        sc = scaled_time_derivative_stack(shear, 24, t=1.0)
        assert all(np.isfinite(e.max_amplitude()) for e in sc.entries)
        # single mode lambda = 1: |v_k| = e^-t (t/2)^k / k! * |u0|
        for k, e in enumerate(sc.entries):
            expect = np.exp(-0.0) * (0.5 ** k) / math.factorial(k) * norm_l2(shear)
            assert norm_l2(e) == pytest.approx(expect, rel=1e-10)


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
