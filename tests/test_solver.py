"""Integrating-factor RK4 solver: exact flows, energy ledger, stability guards."""

import tracemalloc

import numpy as np
import pytest

from gevrey_ns import (ConfigurationError, IntegrationError, SpectralVelocity,
                       cfl_limit, energy_ledger, from_lattice, integrate,
                       make_grid, nonlinear_term,
                       norm_l2, random_spectrum_field, run, solver, spectral,
                       step, taylor_green, validate_field)
from gevrey_ns.cli import main
from gevrey_ns.config import RunConfig
from gevrey_ns.derivatives import time_derivative_stack
from gevrey_ns.functionals import raw_functionals

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

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_matches_reference_if_rk4(self, n):
        # the stage kernel on both paths, BandDFT below n = 64 and BandFFT from 64 up
        grid = make_grid(n)
        u = random_spectrum_field(grid, 2.0, 8, seed=17, l2_norm=5.0)
        dt = 2e-3

        def heat(v, t):
            f = np.exp(-grid.k_sq * t)
            return SpectralVelocity(grid, f * v.w)

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

    def test_eight_transforms_sixteen_planes_per_step(self, band_calls):
        # the kernel's band transforms under both implementations: each of the 4 stages
        # synthesizes the 2 velocity planes and analyzes the 2 traceless planes
        for n, kind in ((32, "BandDFT"), (128, "BandFFT")):
            u = random_spectrum_field(make_grid(n), 2.0, 8, seed=7, l2_norm=1.0)
            band_calls.clear()
            step(u, 1e-3)
            assert band_calls.counts() == {"synthesize": 4, "analyze": 4}
            assert sum(int(np.prod(shape[:-2])) for _, _, shape in band_calls) == 16
            assert {(k, shape[-2:]) for _, k, shape in band_calls} == {(kind, (n, n))}

    def test_a_warmed_step_allocates_less_than_one_plane(self):
        # one chunk of integrate's loop on packed band planes: each step from the last row
        # into the next, the floor on a row, then the chunk's one ledger pass
        for n in (32, 128):
            grid = make_grid(n)
            u = random_spectrum_field(grid, 2.0, 8, seed=n, l2_norm=1.0)
            ws = spectral.Workspace(grid)
            coef = solver._stage_coefficients(ws, 1e-3)
            shape = spectral.band_shape(grid)
            planes = np.empty((6,) + shape, dtype=complex)  # as integrate allocates them
            bands = np.empty((solver._CHUNK,) + shape, dtype=complex)
            band_rows = list(bands)
            band = spectral.pack(grid, u.w)
            floor = solver._flush_scratch(band)  # as integrate allocates it
            assert band.shape == coef[0].shape == shape

            def chunk(band):
                for out in band_rows:
                    solver._advance(ws, band, coef, planes, out)
                    band = out
                solver._flush(band, *floor)
                ws.parseval(bands).tolist()
                return band
            band = chunk(band)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                chunk(band)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base < band.nbytes, n

    def test_a_warmed_stack_sweep_allocates_no_plane(self):
        # the body of every level of a K = 8 stack, as time_derivative_stack runs it: one
        # Workspace.level call on bound planes and views, the linear term through one
        # scratch plane, the scale and the unpack into the level's row of the table
        for n in (32, 128):
            grid = make_grid(n)
            u = random_spectrum_field(grid, 2.0, 8, seed=n, l2_norm=1.0)
            ws = spectral.Workspace(grid, 8)
            b = spectral.pack(grid, u.w)
            out, r = np.empty_like(b), np.empty_like(b)
            table = np.zeros((9,) + grid.k_sq.shape, dtype=complex)

            def sweep(out):
                for k in range(1, 9):
                    ws.level(k, b, out)
                    np.multiply(ws.k_sq, b, out=r)
                    out -= r
                    out *= 0.1 / (2.0 * k)
                    spectral.unpack(grid, out, table[k])
            sweep(out)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                sweep(out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - base < b.nbytes, n


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
            ref = spectral.parseval(u.grid, u.w)[1]
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


def _thm1_like_run():
    """The thm1 bench's run: n = 32, dt 0.005 to t = 5, decay-2 data at |u0| 0.43, with each
    snapshot's functionals at K = 8 and at K = 48, near the deepest stack (K = 55 at n = 32)
    that the floor's argument covers."""
    u0 = random_spectrum_field(make_grid(32), 2.0, 8, seed=0, l2_norm=0.43)
    traj = integrate(u0, 0.005, 5.0)
    stacks = [raw_functionals(time_derivative_stack(u, K, t))
              for t, u in zip(traj.times[1:], traj.fields[1:]) for K in (8, 48)]
    return traj, stacks


@pytest.fixture(scope="module")
def floored_and_bare():
    """The thm1-like run with the subnormal floor, and with solver._FLOOR set to 0."""
    floored = _thm1_like_run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_FLOOR", 0.0)
        bare = _thm1_like_run()
    return floored, bare


class TestSubnormalFloor:
    def test_no_snapshot_holds_a_subnormal_part(self, floored_and_bare):
        (traj, _), (bare, _) = floored_and_bare
        tiny = np.finfo(float).tiny

        def subnormal_parts(t):
            xs = [u.w.view(float) for u in t.fields]
            return [int(np.count_nonzero((x != 0) & (np.abs(x) < tiny))) for x in xs]

        assert sum(subnormal_parts(bare)) > 0  # the run does reach the subnormal range
        assert subnormal_parts(traj) == [0] * len(traj.fields)

    def test_the_floor_moves_no_reported_number(self, floored_and_bare):
        (traj, stacks), (bare, bare_stacks) = floored_and_bare
        assert traj.times == bare.times
        assert traj.grad_sq == bare.grad_sq and traj.l2_sq == bare.l2_sq
        assert traj.dissipation == bare.dissipation
        assert traj.max_step_defect == bare.max_step_defect
        for (L, H), (bL, bH) in zip(stacks, bare_stacks):
            assert np.array_equal(L, bL) and np.array_equal(H, bH)

    def test_states_differ_by_less_than_the_floor(self, floored_and_bare):
        (traj, _), (bare, _) = floored_and_bare
        for u, v in zip(traj.fields, bare.fields):
            assert np.max(np.abs(u.w.view(float) - v.w.view(float))) < solver._FLOOR


def _per_step_reference(u0, dt, n_steps, snap_steps):
    """integrate's trajectory with every step's ledger read as it is taken: each step in
    place, the floor on the band, the heat factor on the modes outside it, the band
    unpacked into the state's plane and that plane's Parseval sums."""
    g = u0.grid
    ws = spectral.Workspace(g)
    coef = solver._stage_coefficients(ws, dt)
    planes = np.empty((6,) + ws.k_sq.shape, dtype=complex)
    w = u0.w.copy()
    band = spectral.pack(g, w)
    floor = solver._flush_scratch(band)
    heat = np.exp(-dt * g.k_sq)
    es, gs = map(float, spectral.parseval(g, w))
    ref = {"planes": [w.copy()], "grad_sq": [gs], "l2_sq": [es], "dissipation": [0.0]}
    D = defect = 0.0
    for i in range(1, n_steps + 1):
        solver._advance(ws, band, coef, planes, band)
        solver._flush(band, *floor)
        w *= heat
        spectral.unpack(g, band, w)
        es_new, g_new = map(float, spectral.parseval(g, w))
        inc = 0.5 * dt * (gs + g_new)
        D += inc
        defect = max(defect, 0.5 * es_new + inc - 0.5 * es)
        es, gs = es_new, g_new
        if i in snap_steps:
            for key, x in zip(("planes", "grad_sq", "l2_sq", "dissipation"), (w.copy(), gs, es, D)):
                ref[key].append(x)
    ref["max_step_defect"] = defect
    return ref


class TestChunkedLedger:
    # integrate steps a chunk of up to solver._CHUNK band planes, then reads their ledger in
    # one pass; the per-step reference reads it after every step

    @pytest.mark.parametrize("n, t_end", [(32, 1.0), (64, 0.5)])
    @pytest.mark.parametrize("schedule", ["every 3", "every 16", "every 100", "listed"])
    def test_matches_the_per_step_ledger_bit_for_bit(self, n, t_end, schedule):
        # gaps of 3 and 16 steps and one longer than a chunk, and a listed schedule that
        # ends before t_end, whose last steps still feed max_step_defect
        dt = 0.005
        u0 = random_spectrum_field(make_grid(n), 2.0, 8, seed=n, l2_norm=0.43)
        n_steps = round(t_end / dt)
        if schedule == "listed":
            steps = [0, 40, 70]
        else:
            steps = list(range(0, n_steps + 1, int(schedule.split()[1])))
        traj = integrate(u0, dt, t_end, snapshot_times=[k * dt for k in steps])
        ref = _per_step_reference(u0, dt, n_steps, set(steps))
        assert len(traj.fields) == len(ref["planes"]) == len(steps)
        for u, w in zip(traj.fields, ref["planes"]):
            assert np.array_equal(u.w, w)
        for key in ("grad_sq", "l2_sq", "dissipation", "max_step_defect"):
            assert getattr(traj, key) == ref[key], key

    def test_at_n128_the_planes_match_and_the_sums_within_two_ulps(self):
        # past n = 88 the full plane's Parseval sum is split into einsum buffers, and the
        # band's single pass rounds differently: snapshot sums are the snapshot planes' own
        u0 = random_spectrum_field(make_grid(128), 2.0, 8, seed=2, l2_norm=1.0)
        steps = list(range(0, 101, 20))
        traj = integrate(u0, 0.002, 0.2, snapshot_times=[k * 0.002 for k in steps])
        ref = _per_step_reference(u0, 0.002, 100, set(steps))
        for u, w in zip(traj.fields, ref["planes"]):
            assert np.array_equal(u.w, w)
        for key in ("grad_sq", "l2_sq", "dissipation"):
            a, b = np.array(getattr(traj, key)), np.array(ref[key])
            assert np.all(np.abs(a - b) <= 2 * np.spacing(b)), key
        # the defect is a difference of terms of size |u|^2, each within 2 ulps
        eps = np.finfo(float).eps
        assert abs(traj.max_step_defect - ref["max_step_defect"]) <= 4 * eps * traj.l2_sq[0]

    def test_modes_outside_the_band_are_floored_at_snapshots(self):
        # k_max 16 > k_cut 10: the modes outside the band decay into the subnormal range
        # from about step 575, which no snapshot may hold; the band part is the per-step
        # reference's bit for bit and the sums drift from it by rounding alone
        u0 = random_spectrum_field(make_grid(32), 2.0, 16, seed=0, l2_norm=0.43)
        g, tiny = u0.grid, np.finfo(float).tiny
        steps = list(range(0, 1001, 25))
        traj = integrate(u0, 0.005, 5.0, snapshot_times=[k * 0.005 for k in steps])
        ref = _per_step_reference(u0, 0.005, 1000, set(steps))

        def subnormal(w):
            x = w.view(float)
            return int(np.count_nonzero((x != 0) & (np.abs(x) < tiny)))

        assert sum(subnormal(w) for w in ref["planes"]) > 0
        assert [subnormal(u.w) for u in traj.fields] == [0] * len(steps)
        for u, w in zip(traj.fields, ref["planes"]):
            assert np.array_equal(u.w[g.dealias], w[g.dealias])
            x, y = u.w.view(float), w.view(float)
            big = np.abs(y) >= solver._FLOOR  # the rest is floored to 0
            assert np.array_equal(x[big], y[big]) and not x[~big].any()
        assert traj.grad_sq == ref["grad_sq"] and traj.l2_sq == ref["l2_sq"]
        eps = np.finfo(float).eps
        D, D_ref = np.array(traj.dissipation), np.array(ref["dissipation"])
        assert np.all(np.abs(D - D_ref) <= 4 * eps * D_ref)
        assert abs(traj.max_step_defect - ref["max_step_defect"]) <= 8 * eps * traj.l2_sq[0]

    def test_a_non_finite_step_names_its_time(self, monkeypatch, tmp_path, capsys):
        # step 7 of the first chunk turns infinite: the error names t = 7 dt, and the CLI
        # prints it as its one stderr line
        advance, calls = solver._advance, []

        def poisoned(ws, w, coef, planes, out):
            advance(ws, w, coef, planes, out)
            calls.append(out)
            if len(calls) == 7:
                out[1, 1] = np.inf
        monkeypatch.setattr(solver, "_advance", poisoned)
        with pytest.raises(IntegrationError) as err:
            integrate(taylor_green(make_grid(32)), 0.005, 0.5)
        assert str(err.value) == "non-finite state at t=0.035 with dt=0.005"
        assert len(calls) == solver._CHUNK  # the chunk was stepped, and no further
        calls.clear()
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")  # n = 32, dt = 0.005, Taylor-Green data
        assert main(["ns-run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite state at t=0.035 with dt=0.005"]

    def test_the_floor_runs_on_its_stride_and_at_snapshots(self, monkeypatch):
        # the thm1-like run: 1000 steps, 11 snapshots; a part at or above _FLOOR needs 36
        # steps to go subnormal on the n = 32 band at dt 0.005 (5 at n = 128, dt 0.002)
        flush, calls = solver._flush, []
        monkeypatch.setattr(solver, "_flush", lambda x, *s: (calls.append(x.shape), flush(x, *s)))
        u0 = random_spectrum_field(make_grid(32), 2.0, 8, seed=0, l2_norm=0.43)
        traj = integrate(u0, 0.005, 5.0, snapshot_times=[0.5 * k for k in range(11)])
        stride = solver._flush_stride(0.005, 10)
        assert stride == 36 and solver._flush_stride(0.002, 42) == 5
        assert len(calls) <= -(-1000 // stride) + len(traj.times) == 39

    def test_the_loop_reads_the_ledger_once_per_chunk(self, monkeypatch):
        # no per-step Parseval sum, unpack or finiteness test: one of each per chunk, and a
        # plane's sums and unpack per snapshot
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper
        for name in ("parseval", "unpack"):
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        monkeypatch.setattr(spectral.Workspace, "parseval",
                            counted("band parseval", spectral.Workspace.parseval))
        monkeypatch.setattr(np, "isfinite", counted("isfinite", np.isfinite))
        u0 = random_spectrum_field(make_grid(32), 2.0, 8, seed=0, l2_norm=0.43)
        integrate(u0, 0.005, 5.0, snapshot_times=[0.5 * k for k in range(11)])
        chunks = 10 * -(-100 // solver._CHUNK)
        assert counts == {"parseval": 11, "unpack": 10, "band parseval": chunks,
                          "isfinite": chunks}
        # at n = 128 one band plane fills the chunk's byte budget: a chunk per step
        counts.clear()
        integrate(random_spectrum_field(make_grid(128), 2.0, 8, seed=0, l2_norm=1.0), 0.002,
                  0.02)
        assert counts == {"parseval": 2, "unpack": 1, "band parseval": 10, "isfinite": 10}


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
        def euler(ws, w, coef, planes, out):
            ws.level(1, w, planes[0])
            np.add(w, 2 * coef[4] * planes[0], out=out)  # coef[4] is dt / 2
            out *= coef[1]
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
