"""Derivative stack recursion, its oracles, and the finite-difference check."""

import math

import numpy as np
import pytest
from conftest import laplacian, stack_identity_defects

from gevrey_ns import (ConfigurationError, DerivativeStack, FieldInvariantError,
                       SpectralVelocity, fd_convergence_check, from_lattice, functionals,
                       heat_evolve, integrate, make_grid, nonlinear_term,
                       norm_l2, parseval, random_spectrum_field,
                       raw_functionals, shear_flow, spectral, stokes_derivative_stack,
                       taylor_green, theorem_lhs, time_derivative_stack)
from gevrey_ns.verify import stack_series


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
        assert st.depth == 0 and np.array_equal(st.w[0], random_field.w)

    def test_deep_stacks_have_no_depth_cap(self, random_field):
        st = time_derivative_stack(random_field, 16, t=0.1)
        assert st.depth == 16
        assert np.isfinite(st.w).all()

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
        u0 = from_lattice(grid32, np.stack([u1, np.zeros_like(u1)]))
        t = 0.3
        st = time_derivative_stack(heat_evolve(u0, t), 6, t=t)
        ref = stokes_derivative_stack(u0, t, 6)
        for a, b in zip(st.w, ref.w):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)

    @pytest.mark.parametrize("n", [16, 24, 64])
    def test_one_heat_recursion_for_both_stacks(self, n):
        # every mode outside the band: the products vanish and both builders run the one
        # heat recursion, so the two stacks agree bit for bit
        g = make_grid(n)
        u0 = random_spectrum_field(g, 0.0, n // 2, seed=n, l2_norm=1.0)
        u0 = SpectralVelocity(g, u0.w * ~g.dealias)
        assert norm_l2(u0) > 0.3
        t, K = 0.05, 8
        st = time_derivative_stack(heat_evolve(u0, t), K, t)
        assert np.array_equal(st.w, stokes_derivative_stack(u0, t, K).w)

    def test_first_order_energy_identity(self, random_field):
        st = time_derivative_stack(random_field, 1, t=0.1)
        lhs = parseval(random_field.grid, random_field.w, st.raw(1).w)[0]
        rhs = -parseval(random_field.grid, random_field.w)[1]
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
        fl = DerivativeStack(st_u.grid, t, st_u.w - st_l.w)
        for k in range(1, K + 1):
            rhs = laplacian(fl.raw(k - 1))
            for j in range(k):
                rhs = rhs + math.comb(k - 1, j) * nonlinear_term(st_u.raw(j),
                                                                 st_u.raw(k - 1 - j))
            diff = (fl.raw(k) - rhs).max_amplitude()
            assert diff <= 1e-9 * max(st_u.raw(k).max_amplitude(), 1e-300)

    def test_one_inverse_transform_per_entry_one_forward_per_level(self, band_calls):
        # the kernel's band transforms under both implementations: two velocity planes in
        # per entry, the two traceless product planes out per level
        for n, kind in ((32, "BandDFT"), (128, "BandFFT")):
            u = random_spectrum_field(make_grid(n), 2.0, 8, seed=7, l2_norm=1.0)
            band_calls.clear()
            time_derivative_stack(u, 12, t=0.1)
            assert band_calls.counts() == {"synthesize": 12, "analyze": 12}
            assert {(k, shape) for _, k, shape in band_calls} == {(kind, (2, n, n))}


class TestStackIdentities:
    # every level of a stack satisfies the differentiated energy and enstrophy equalities
    # of the dealiased system, whatever the depth, so they check each Workspace.level call;
    # deep random stacks (K = 24) read 1e-13 to 1e-10 and stay out of this gate
    @pytest.mark.parametrize("n, K, l2, t", [(32, 12, 1.0, 0.5), (64, 12, 2.0, 0.1),
                                             (128, 12, 2.0, 0.02), (128, 12, 5.0, 0.02)])
    def test_random_data_in_the_band(self, n, K, l2, t):
        u0 = random_spectrum_field(make_grid(n), 2.0, 8, seed=1, l2_norm=l2)
        u = integrate(u0, dt=t / 20, t_end=t, snapshot_times=[t]).fields[-1]
        assert stack_identity_defects(time_derivative_stack(u, K, t)).max() <= 1e-13

    def test_modes_outside_the_band(self):
        g = make_grid(16)
        u = random_spectrum_field(g, 1.0, 6, seed=1, l2_norm=1.0)
        assert np.any(u.w[~g.dealias])
        assert stack_identity_defects(time_derivative_stack(u, 24, 0.5)).max() <= 1e-13

    @pytest.mark.parametrize("n", [32, 128])
    def test_closed_form_flows(self, n):
        g = make_grid(n)
        for u in (taylor_green(g, 1.3), shear_flow(g, 0.7)):
            assert stack_identity_defects(time_derivative_stack(u, 24, 0.5)).max() <= 1e-13


class TestScaledStack:
    def test_matches_raw_rescaling(self, random_field):
        # the scaled recursion against the Leibniz recursion for u^(k)
        t, K = 0.7, 6
        st = time_derivative_stack(random_field, K, t=t)
        for k, ref in enumerate(leibniz_recursion(random_field, K)):
            fac = t ** k / (2.0 ** k * math.factorial(k))
            diff = np.max(np.abs(st.w[k] - fac * ref.w))
            assert diff <= 1e-12 * max(np.max(np.abs(st.w[k])), 1e-300)
            diff = (st.raw(k) - ref).max_amplitude()
            assert diff <= 1e-12 * max(ref.max_amplitude(), 1e-300)

    def test_deep_stack_stays_finite(self, shear):
        sc = time_derivative_stack(shear, 24, t=1.0)
        assert np.isfinite(sc.w).all()
        # single mode lambda = 1: |v_k| = e^-t (t/2)^k / k! * |u0|
        for k, l2_sq in enumerate(parseval(shear.grid, sc.w)[:, 0]):
            expect = np.exp(-0.0) * (0.5 ** k) / math.factorial(k) * norm_l2(shear)
            assert np.sqrt(l2_sq) == pytest.approx(expect, rel=1e-10)

    def test_tilde_identities_match_raw_weights(self):
        # L~, H~ read off v_k against the raw weights t^k, t^(k+1/2) applied to
        # u^(k) = raw(k), divided by the first renormalization
        u = random_spectrum_field(make_grid(32), 2.0, 8, seed=5, l2_norm=2.0)
        t, K = 0.2, 8
        st = time_derivative_stack(u, K, t=t)
        L, H, div = np.empty(2 * K), np.empty(2 * K), np.empty(2 * K)
        for k in range(K):
            r, r1 = st.raw(k), st.raw(k + 1)
            grad_r = np.sqrt(parseval(r.grid, r.w)[1])
            L[2 * k], H[2 * k] = t ** k * norm_l2(r), t ** k * grad_r
            L[2 * k + 1] = t ** (k + 0.5) * grad_r
            H[2 * k + 1] = t ** (k + 0.5) * norm_l2(r1)
            div[2 * k] = 2.0 ** k * math.factorial(k)
            div[2 * k + 1] = 2.0 ** (k + 1) * math.sqrt(
                math.factorial(k) * math.factorial(k + 1) / 2.0)
        L_tilde, H_tilde = raw_functionals(st)
        np.testing.assert_allclose(L_tilde, L / div, rtol=1e-13, atol=0)
        np.testing.assert_allclose(H_tilde, H / div, rtol=1e-13, atol=0)


class TestStackTable:
    @pytest.mark.parametrize("n, K", [(32, 0), (32, 5), (64, 3)])
    def test_stacks_are_read_only_plane_tables(self, n, K):
        u = random_spectrum_field(make_grid(n), 2.0, 8, seed=n, l2_norm=1.0)
        for st in (time_derivative_stack(u, K, 0.3), stokes_derivative_stack(u, 0.3, K)):
            assert st.w.shape == (K + 1, n, n // 2 + 1) and st.w.dtype == complex
            assert st.depth == K and not st.w.flags.writeable
            with pytest.raises(ValueError):
                st.w[0, 1, 1] = 1.0

    def test_rejects_a_wrong_plane_shape(self, random_field):
        g = random_field.grid
        for shape in ((2, 32, 32), (2, 16, 9), (32, 17)):
            with pytest.raises(FieldInvariantError):
                DerivativeStack(g, 0.5, np.zeros(shape, dtype=complex))
        with pytest.raises(ConfigurationError):
            DerivativeStack(g, 0.0, np.zeros((1, 32, 17), dtype=complex))

    def test_raw_functionals_make_one_parseval_call_per_stack(self, monkeypatch, random_field):
        calls = []

        def counted(grid, a, *args):
            calls.append(np.shape(a))
            return parseval(grid, a, *args)
        monkeypatch.setattr(functionals, "parseval", counted)
        raw_functionals(time_derivative_stack(random_field, 6, 0.2))
        assert calls == [(7, 32, 17)]

    @pytest.mark.parametrize("n", [32, 64])
    def test_series_rows_match_a_per_entry_reference(self, n):
        # bound-1 rows of u and bound-3 rows of u - l, against per-entry norms of
        # each stack's planes: the table and its one Parseval call change no bit
        u0 = random_spectrum_field(make_grid(n), 2.0, 8, seed=3, l2_norm=1.5)
        traj = integrate(u0, dt=5e-3, t_end=0.2, snapshot_times=[0.0, 0.1, 0.2])
        K = 4
        for fluctuation in (False, True):
            series = stack_series(traj, K, fluctuation=fluctuation)
            for i, (t, u) in enumerate(zip(traj.times, traj.fields)):
                L, H = np.zeros(2 * K), np.zeros(2 * K)
                if t == 0.0:
                    f = u - u0 if fluctuation else u
                    L[0], H[0] = norm_l2(f), np.sqrt(parseval(f.grid, f.w)[1])
                else:
                    planes = time_derivative_stack(u, K, t).w
                    if fluctuation:
                        planes = planes - stokes_derivative_stack(u0, t, K).w
                    v = [SpectralVelocity(u.grid, p) for p in planes]
                    for k in range(K):
                        grad_v = np.sqrt(parseval(u.grid, v[k].w)[1])
                        L[2 * k], H[2 * k] = norm_l2(v[k]), grad_v
                        L[2 * k + 1] = math.sqrt(t / (2.0 * (k + 1))) * grad_v
                        H[2 * k + 1] = math.sqrt(2.0 * (k + 1) / t) * norm_l2(v[k + 1])
                assert np.array_equal(series.L_tilde[i], L)
                assert np.array_equal(series.H_tilde[i], H)


class TestAcrossTheKernelSwitch:
    """The advection kernel runs dense band products below spectral.DENSE_BELOW and pruned
    FFTs from there up; both must give the same stacks and trajectories."""

    def test_zero_padding_from_dense_to_fft(self):
        # k_max 2 keeps every product of a K = 8 stack inside both bands (2 (K+1) = 18 =
        # k_cut(56)), so the two grids compute the same finite convolutions
        g56, g64 = make_grid(56), make_grid(64)
        assert spectral.Workspace(g56).transform.__class__ is spectral.BandDFT
        assert spectral.Workspace(g64).transform.__class__ is spectral.BandFFT
        u = random_spectrum_field(g56, 2.0, 2, seed=5, l2_norm=0.36)
        rows = g56.freqs[np.abs(g56.freqs) < 28]

        def pad(w):
            out = np.zeros(w.shape[:-2] + g64.k_sq.shape, dtype=complex)
            out[..., rows % 64, :28] = w[..., rows % 56, :28]
            return out

        v = SpectralVelocity(g64, pad(u.w))
        a, b = pad(time_derivative_stack(u, 8, 0.5).w), time_derivative_stack(v, 8, 0.5).w
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
        pa, pb = parseval(g64, a), parseval(g64, b)  # each entry's |v_k|^2, |grad v_k|^2
        assert np.all(np.abs(pa - pb) <= 1e-13 * pb)
        kw = dict(dt=0.005, t_end=1.0, snapshot_times=[0.0, 0.25, 0.5, 0.75, 1.0])
        lhs = [theorem_lhs(stack_series(integrate(x, **kw), 8), 1, 1.0).lhs[:, -1]
               for x in (u, v)]
        assert np.all(np.abs(lhs[0] - lhs[1]) <= 1e-13 * lhs[1])

    @pytest.mark.parametrize("dense", [True, False])
    def test_modes_outside_the_band_only_decay(self, dense, monkeypatch):
        # k_max 8 > k_cut 5 at n = 16: the band evolves as if the rest were absent, and the
        # rest by the exact heat factor per step and the heat recursion in the stack
        monkeypatch.setattr(spectral, "DENSE_BELOW", 64 if dense else 0)
        g, dt, K = make_grid(16), 1e-3, 8
        u0 = random_spectrum_field(g, 2.0, 8, seed=3, l2_norm=1.0)
        outside = ~g.dealias
        assert parseval(g, u0.w * outside)[0] > 1e-3 * norm_l2(u0) ** 2
        inside = SpectralVelocity(g, u0.w * g.dealias)
        kw = dict(dt=dt, t_end=0.1, snapshot_times=[0.0, 0.05, 0.1])
        traj, ref = integrate(u0, **kw), integrate(inside, **kw)
        rest, heat = u0.w * outside, np.exp(-dt * g.k_sq)
        for i, (u, r) in enumerate(zip(traj.fields, ref.fields)):
            assert np.array_equal(u.w[g.dealias], r.w[g.dealias])
            assert np.array_equal(u.w[outside], rest[outside])
            assert traj.l2_sq[i] == parseval(g, u.w)[0]
            assert traj.grad_sq[i] == parseval(g, u.w)[1]
            for _ in range(50):
                rest = rest * heat
        t = traj.times[-1]
        st, st_ref = time_derivative_stack(traj.fields[-1], K, t), time_derivative_stack(
            ref.fields[-1], K, t)
        assert np.array_equal(st.w[:, g.dealias], st_ref.w[:, g.dealias])
        rest = traj.fields[-1].w * outside
        for k in range(K + 1):
            assert np.array_equal(st.w[k][outside], rest[outside])
            rest = rest * (g.k_sq * (-t / (2.0 * (k + 1))))


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
