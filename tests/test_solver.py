"""Integrating-factor RK4 solver: exact flows, energy ledger, stability guards."""

import tracemalloc

import numpy as np
import pytest

from gevrey_ns import (ConfigurationError, IntegrationError, SpectralVelocity,
                       cfl_limit, energy_ledger, from_lattice, integrate,
                       make_grid, nonlinear_term,
                       norm_grad_l2, norm_l2, random_spectrum_field, run, solver, spectral,
                       step, taylor_green, validate_field)
from gevrey_ns.config import RunConfig

SQRT2_PI = np.pi * np.sqrt(2.0)


class TestStep:
    def test_taylor_green_is_pure_exponential(self, tg):
        for dt in (1e-3, 1e-2, 0.1):
            out = step(tg, dt)
            ref = np.exp(-2.0 * dt) * tg
            assert (out - ref).max_amplitude() <= 1e-12 * ref.max_amplitude()

    def test_shear_is_pure_exponential(self, shear):
        out = step(shear, 2e-3)
        ref = np.exp(-2e-3) * shear
        assert (out - ref).max_amplitude() <= 1e-12 * ref.max_amplitude()

    def test_zero_field(self, grid32):
        z = from_lattice(grid32, np.zeros((2, 32, 32)))
        assert step(z, 1e-3).max_amplitude() == 0.0

    def test_nan_input_raises(self, grid32, shear):
        w = shear.w.copy()
        w[0, 1] = np.nan
        bad = SpectralVelocity(grid32, w)
        with pytest.raises(IntegrationError):
            step(bad, 1e-3)

    def test_rejects_nonpositive_dt(self, tg):
        with pytest.raises(ConfigurationError):
            step(tg, 0.0)

    def test_matches_reference_if_rk4(self, grid32):
        u = random_spectrum_field(grid32, 2.0, 8, seed=17, l2_norm=5.0)
        dt = 2e-3

        def heat(v, t):
            f = np.exp(-grid32.k_sq * t)
            return SpectralVelocity(grid32, f * v.w)

        def adv(v):
            return nonlinear_term(v, v)

        a = adv(u)
        b = adv(heat(u + (0.5 * dt) * a, 0.5 * dt))
        c = adv(heat(u, 0.5 * dt) + (0.5 * dt) * b)
        d = adv(heat(u, dt) + dt * heat(c, 0.5 * dt))
        ref = heat(u, dt) + (dt / 6.0) * (heat(a, dt) + 2.0 * heat(b + c, 0.5 * dt) + d)
        out = step(u, dt)
        assert (out - ref).max_amplitude() <= 1e-12 * ref.max_amplitude()
        assert (out - heat(u, dt)).max_amplitude() > 1e-4 * ref.max_amplitude()

    def test_eight_transforms_sixteen_planes_per_step(self, monkeypatch, random_field):
        calls = {"irfft2": 0, "rfft2": 0, "planes": 0}
        for name in ("irfft2", "rfft2"):
            def counted(x, *args, _name=name, _fft=getattr(spectral, name), **kwargs):
                calls[_name] += 1
                calls["planes"] += int(np.prod(np.shape(x)[:-2]))
                return _fft(x, *args, **kwargs)
            monkeypatch.setattr(spectral, name, counted)
        step(random_field, 1e-3)
        assert calls == {"irfft2": 4, "rfft2": 4, "planes": 16}

    def test_a_warmed_step_allocates_at_most_three_planes(self):
        # one pass of integrate's loop: the step in place, then the ledger's Parseval sums
        grid = make_grid(128)
        u = random_spectrum_field(grid, 2.0, 8, seed=128, l2_norm=1.0)
        ws, coef = spectral.Workspace(grid), solver._stage_coefficients(grid, 1e-3)
        planes = np.empty((6,) + grid.k_sq.shape, dtype=complex)  # as integrate allocates them
        w = u.w.copy()
        solver._advance(ws, w, coef, planes)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver._advance(ws, w, coef, planes)
            spectral.parseval(grid, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 3 * w.nbytes


class TestIntegrate:
    def test_taylor_green_norm_at_one(self, tg):
        traj = integrate(tg, dt=1e-3, t_end=1.0, snapshot_times=[0.0, 1.0])
        expect = np.exp(-2.0) * SQRT2_PI
        assert abs(norm_l2(traj.fields[-1]) - expect) <= 1e-6 * expect

    def test_zero_horizon(self, tg):
        traj = integrate(tg, dt=1e-3, t_end=0.0)
        assert traj.times == [0.0]
        assert (traj.fields[0] - tg).max_amplitude() == 0.0

    def test_snapshot_times_must_be_multiples(self, tg):
        with pytest.raises(ConfigurationError, match="multiple"):
            integrate(tg, dt=1e-3, t_end=1.0, snapshot_times=[0.0, 0.0005])

    def test_t_end_must_be_multiple(self, tg):
        with pytest.raises(ConfigurationError, match="multiple"):
            integrate(tg, dt=3e-3, t_end=1.0)

    def test_cfl_guard(self, grid32):
        big = random_spectrum_field(grid32, 2.0, 8, seed=0, l2_norm=50.0)
        assert cfl_limit(big) < 5e-3
        with pytest.raises(IntegrationError, match="stability"):
            integrate(big, dt=5e-3, t_end=0.1)
        # override runs (and may or may not blow up, short horizon here)
        integrate(big, dt=1e-4, t_end=1e-3, enforce_cfl=False)

    def test_invariants_preserved_along_trajectory(self, grid32):
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=4, l2_norm=0.8)
        traj = integrate(u0, dt=2e-3, t_end=0.5,
                         snapshot_times=[0.0, 0.1, 0.25, 0.5])
        for u in traj.fields:
            validate_field(u)

    def test_snapshots_are_independent_read_only_planes(self, grid32):
        # integrate steps one plane in place; each snapshot must keep its own copy
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=4, l2_norm=0.8)
        snaps = [0.0, 0.02, 0.04, 0.1]
        traj = integrate(u0, dt=2e-3, t_end=0.1, snapshot_times=snaps)
        planes = [u.w for u in traj.fields]
        assert len(planes) == len(snaps)
        for i, w in enumerate(planes):
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0, 1] = 1.0
            for other in planes[i + 1:]:
                assert not np.shares_memory(w, other)
        again = integrate(u0, dt=2e-3, t_end=0.1, snapshot_times=snaps)
        for a, b in zip(traj.fields, again.fields):
            assert np.array_equal(a.w, b.w)
        # the first plane is u0's own; later ones differ from it and from each other
        assert traj.fields[0] is u0
        assert not any(np.array_equal(a, b) for a, b in zip(planes, planes[1:]))

    def test_grad_sq_matches_gradient_norm_at_every_snapshot(self, grid32):
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=4, l2_norm=0.8)
        traj = integrate(u0, dt=2e-3, t_end=0.2, snapshot_times=[0.0, 0.05, 0.1, 0.2])
        for u, g_sq in zip(traj.fields, traj.grad_sq):
            ref = norm_grad_l2(u) ** 2
            assert abs(g_sq - ref) <= 1e-13 * ref

    def test_l2_sq_is_each_snapshot_norm_squared(self, grid32):
        # the run keeps the Parseval sum it takes of every state; its root is norm_l2 exactly
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=4, l2_norm=0.8)
        traj = integrate(u0, dt=2e-3, t_end=0.2, snapshot_times=[0.0, 0.05, 0.1, 0.2])
        assert len(traj.l2_sq) == len(traj.fields) == 4
        for u, l2_sq in zip(traj.fields, traj.l2_sq):
            assert np.sqrt(l2_sq) == norm_l2(u)

    def test_run_from_config(self):
        cfg = RunConfig(n=32, dt=2e-3, t_end=0.1, snapshot_times=[0.0, 0.1],
                        initial_data={"kind": "taylor_green", "amplitude": 1.0})
        traj = run(cfg)
        assert len(traj.fields) == 2


class TestEnergyLedger:
    def test_taylor_green_matches_trapezoid_error_bound(self, tg):
        # dissipation integrand g = 2 E0 exp(-4 t): trapezoid error is
        # (dt^2/12) (g'(0) - g'(T)) exactly up to O(dt^4)
        dt, T = 1e-3, 1.0
        traj = integrate(tg, dt=dt, t_end=T, snapshot_times=[0.0, 0.5, 1.0])
        led = energy_ledger(traj)
        E0 = norm_l2(tg) ** 2
        bound = (dt ** 2 / 12.0) * 8.0 * E0 * (1.0 - np.exp(-4.0 * T))
        assert led.max_abs <= 1.05 * bound
        assert led.max_abs >= 0.5 * bound  # the estimate is sharp, not vacuous

    def test_small_amplitude_hits_absolute_target(self, grid32):
        v = taylor_green(grid32, 0.02)
        traj = integrate(v, dt=1e-3, t_end=1.0, snapshot_times=[0.0, 1.0])
        assert energy_ledger(traj).max_abs < 1e-8

    def test_zero_field_residual(self, grid32):
        z = from_lattice(grid32, np.zeros((2, 32, 32)))
        traj = integrate(z, dt=1e-3, t_end=0.01)
        assert energy_ledger(traj).max_abs == 0.0

    def test_halving_dt_quarters_residual(self, tg):
        r = []
        for dt in (2e-3, 1e-3):
            traj = integrate(tg, dt=dt, t_end=0.5, snapshot_times=[0.0, 0.5])
            r.append(energy_ledger(traj).max_abs)
        assert r[0] / r[1] >= 3.5

    def test_quadrature_is_the_vortex_closed_form(self, tg):
        # one shell, lam = 2: q(T) = (2h coth 2h - 1)(E0 - E(T)) / 2, and at small h
        # the Euler-Maclaurin term (h^2/12) 8 E0 (1 - e^-4T); the coth form itself
        # loses about five digits to cancellation at 2h = 0.01
        T = 1.0
        for h in (5e-3, 2.5e-2):
            traj = integrate(tg, dt=h, t_end=T, snapshot_times=[0.0, T])
            closed = (2 * h / np.tanh(2 * h) - 1) * (traj.l2_sq[0] - traj.l2_sq[-1]) / 2
            assert energy_ledger(traj).quadrature[-1] == pytest.approx(closed, rel=1e-10)
        h = 1e-3
        led = energy_ledger(integrate(tg, dt=h, t_end=T, snapshot_times=[0.0, T]))
        E0 = norm_l2(tg) ** 2
        assert led.quadrature[-1] == pytest.approx(
            (h ** 2 / 12.0) * 8.0 * E0 * (1.0 - np.exp(-4.0 * T)), rel=1e-6)
        assert led.defect <= 1e-8 * led.max_abs

    def test_first_order_step_fails_the_ledger(self, grid32, monkeypatch):
        # an integrating-factor Euler step leaves most of its residual unexplained
        # by the trapezoid's error; the IF-RK4 step leaves ~1e-7 of it
        def euler(ws, w, coef, planes):
            ws.load(0, w)
            ws.level(1, planes[0])
            w += 2 * coef[4] * planes[0]  # coef[4] is dt / 2
            w *= coef[1]
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=1, l2_norm=5.0)
        led = energy_ledger(integrate(u0, dt=1e-3, t_end=0.2))
        assert led.defect <= 1e-6 * led.max_abs and led.defect <= led.tolerance
        monkeypatch.setattr(solver, "_advance", euler)
        led = energy_ledger(integrate(u0, dt=1e-3, t_end=0.2))
        assert led.defect > 0.5 * abs(led.quadrature).max() > led.tolerance


class TestTemporalConvergence:
    def test_order_at_least_three_and_a_half(self, grid32, tg):
        pert = random_spectrum_field(grid32, 2.0, 4, seed=21, l2_norm=0.2)
        u0 = tg + pert
        t_end = 0.4
        ref = integrate(u0, dt=1e-3, t_end=t_end).fields[-1]
        dts = [2e-2, 1e-2, 5e-3]
        errs = [norm_l2(integrate(u0, dt=d, t_end=t_end).fields[-1] - ref) for d in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 3.5


class TestStepwiseDissipation:
    def test_per_step_energy_never_created_beyond_quadrature(self, grid32):
        u0 = random_spectrum_field(grid32, 2.0, 8, seed=4, l2_norm=0.8)
        traj = integrate(u0, dt=5e-4, t_end=0.5, snapshot_times=[0.0, 0.5])
        # one-step defect is bounded by the per-step trapezoid error scale,
        # 1e-7 (dt / 1e-4)^2 at this step
        assert traj.max_step_defect <= 2.5e-6


def test_tiny_random_data_ledger(grid32):
    u0 = random_spectrum_field(grid32, 2.0, 8, seed=13, l2_norm=0.01)
    traj = integrate(u0, dt=1e-3, t_end=0.5, snapshot_times=[0.0, 0.5])
    assert energy_ledger(traj).max_abs <= 1e-8
