"""Orchestration layer: constant estimation, theorem reports, CLI, file formats."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import synthesize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gevrey_ns import (ConfigurationError, RunConfig, SpectralVelocity,
                       check_theorem, config_from_dict, estimate_c0,
                       functionals, integrate, leray_project, make_grid,
                       make_initial_data, norm_l2, norm_l4,
                       random_spectrum_field, spectral, taylor_green, verify)
from gevrey_ns.cli import _COMMANDS, main
from gevrey_ns.functionals import theorem3_rhs, theorem_lhs
from gevrey_ns import reporting
from gevrey_ns.reporting import json_dumps
from gevrey_ns.stokes import weighted_h_integral

THM1_CFG = {
    "n": 32, "dt": 0.005, "t_end": 1.0,
    "snapshot_times": [0.0, 0.25, 0.5, 0.75, 1.0],
    "stack_depth": 6, "seed": 3,
    "initial_data": {"kind": "random_spectrum", "decay": 2.0, "k_max": 8,
                     "seed": 3, "l2_norm": 0.3},
    "c0": {"mode": "fixed", "value": 0.23},
}


# n = 16 runs of the four bounds; BOUND4_NA's t0 = 5.55 lies beyond its horizon
SMALL_BASE = {"n": 16, "dt": 0.01, "t_end": 0.2, "stack_depth": 4,
              "c0": {"mode": "fixed", "value": 0.23}}


def _small_data(l2, decay=2.0, seed=5):
    return {"kind": "random_spectrum", "decay": decay, "k_max": 6, "seed": seed,
            "l2_norm": l2}


_BOUND4 = dict(SMALL_BASE, t_end=5.0, snapshot_times=[0.25 * i for i in range(21)],
               decay_window=[1, 5])
SMALL_BOUNDS = {
    1: dict(SMALL_BASE, initial_data=_small_data(0.3)),
    2: dict(SMALL_BASE, initial_data=_small_data(0.3), theorem2_n_max=2),
    3: dict(SMALL_BASE, initial_data=_small_data(3.0)),
    4: dict(_BOUND4, initial_data=_small_data(1.0, 3.0, 7), gamma=0.5),
}
BOUND4_NA = dict(_BOUND4, initial_data=_small_data(8.0, 3.0, 7))


def strict_loads(text):
    """json.loads that rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def rayleigh_batch(g, Z):
    """verify._rayleigh_batch of the stack Z, with g's band on the 2n x 2n grid."""
    return verify._rayleigh_batch(g, spectral.band_dft(g, 2 * g.n), Z)


@pytest.fixture(scope="module")
def c0_32():
    return estimate_c0(n_samples=5, ascent_steps=80, seed=0)


class TestEstimateC0:
    def test_shear_lower_bound(self, c0_32):
        # the shear mode alone gives sqrt(3/2) / (2 pi) ~ 0.19495
        assert c0_32.value >= 0.194
        assert c0_32.sample_values[0] >= 0.194

    def test_running_max_nondecreasing(self):
        vals = [estimate_c0(n_samples=k, ascent_steps=40, seed=0).value
                for k in (1, 3, 5)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_deterministic(self):
        a = estimate_c0(n_samples=3, ascent_steps=30, seed=4)
        b = estimate_c0(n_samples=3, ascent_steps=30, seed=4)
        assert a.value == b.value

    def test_interpolation_inequality_dominates_fresh_fields(self, c0_32):
        grid = make_grid(32)
        for seed in range(20):
            z = random_spectrum_field(grid, 2.0, 8, seed=100 + seed, l2_norm=1.0)
            lhs = norm_l4(z) ** 2
            l2_sq, grad_sq = spectral.parseval(grid, z.w)
            rhs = c0_32.value * (1.0 + 1e-6) * np.sqrt(l2_sq) * np.sqrt(grad_sq)
            assert lhs <= rhs

    def test_the_ascent_makes_no_fft_call(self, fft_calls):
        # the cap grid's transforms are spectral.BandDFT products (checked against the
        # FFT pair in test_spectral), so no FFT runs
        estimate_c0(n_samples=6, ascent_steps=7)
        assert fft_calls == {"irfft2": 0, "rfft2": 0}

    def test_first_samples_do_not_depend_on_n_samples(self):
        six = estimate_c0(n_samples=6, ascent_steps=40, seed=1).sample_values
        assert estimate_c0(n_samples=3, ascent_steps=40, seed=1).sample_values == six[:3]

    # the fixed-length step's estimates (0.2 per step, all 120 steps) at the defaults,
    # seeds 0-9; each stalled 1-4% below the cap-8 supremum 0.2321
    FIXED_STEP = (0.227147201, 0.229397302, 0.225403224, 0.227317258, 0.227110924,
                  0.222605389, 0.226712145, 0.229438071, 0.224736802, 0.222964617)

    def test_defaults_converge_on_every_seed(self):
        values = [estimate_c0(seed=seed).value for seed in range(10)]
        assert all(v >= old for v, old in zip(values, self.FIXED_STEP))
        assert max(values) - min(values) <= 2e-3 * max(values)

    def test_defaults_stop_within_the_trial_budget(self, rayleigh_rows):
        # 6 starts plus at most 234 trial rows, against 6 x 121 = 726 for the full cap
        for seed in range(10):
            rayleigh_rows.clear()
            est = estimate_c0(seed=seed)
            assert sum(rayleigh_rows) == 6 + sum(est.trials) <= 240

    @pytest.mark.parametrize("seed", range(3))
    def test_sample_prefixes_survive_row_pruning(self, seed):
        # rows stop at different trials, so each estimate prunes its batch differently
        runs = [estimate_c0(n_samples=k, seed=seed) for k in range(1, 7)]
        assert len(set(runs[-1].trials)) > 1
        for k, est in enumerate(runs, start=1):
            assert est.sample_values == runs[-1].sample_values[:k]
            assert est.trials == runs[-1].trials[:k]

    def test_gradient_matches_central_difference(self):
        # every row of a batch against a central difference of its own log ratio
        from gevrey_ns.verify import _capped_sample
        cg = make_grid(18)

        def batch(*fields):
            return np.stack([f.w for f in fields])

        Z = batch(_capped_sample(cg, 8, [0, 2]), _capped_sample(cg, 8, [0, 4]))
        W = batch(_capped_sample(cg, 8, [0, 3]), _capped_sample(cg, 8, [0, 5]))
        _, grad = rayleigh_batch(cg, Z)
        eps = 1e-6
        fd = (np.log(rayleigh_batch(cg, Z + eps * W)[0])
              - np.log(rayleigh_batch(cg, Z - eps * W)[0])) / (2.0 * eps)
        for row in range(2):
            g, w = (SpectralVelocity(cg, a[row]) for a in (grad, W))
            assert fd[row] == pytest.approx(spectral.parseval(cg, g.w, w.w)[0], rel=1e-7)

    def test_rows_of_a_batch_do_not_mix(self):
        # a degenerate row (the zero field: 0/0 everywhere) keeps its NaNs to itself
        from gevrey_ns.verify import _capped_sample
        cg = make_grid(18)
        z = _capped_sample(cg, 8, [0, 2])
        alone_r, alone_g = rayleigh_batch(cg, np.stack([z.w]))
        with np.errstate(divide="ignore", invalid="ignore"):
            r, g = rayleigh_batch(cg, np.stack([z.w, 0 * z.w]))
        assert r[0] == alone_r[0] and np.array_equal(g[0], alone_g[0])
        assert np.isnan(r[1])

    def test_a_row_with_zero_gradient_stops_and_leaves_the_others(self, monkeypatch):
        free = estimate_c0(n_samples=4, ascent_steps=20, seed=0)
        kernel = verify._rayleigh_batch
        batches = []

        def first_row_stuck(g, band, Z):
            # the starts' call: row 0, the shear start, gets a zero gradient
            r, grad = kernel(g, band, Z)
            if not batches:
                grad[0] = 0.0
            batches.append(len(Z))
            return r, grad

        monkeypatch.setattr(verify, "_rayleigh_batch", first_row_stuck)
        stuck = estimate_c0(n_samples=4, ascent_steps=20, seed=0)
        assert stuck.trials[0] == 1 and stuck.trials[1:] == free.trials[1:]
        # the stuck row rides in the first trial only, then the batch holds the others
        assert batches[:2] == [4, 4] and max(batches[2:]) == 3
        assert sum(batches) == 4 + sum(stuck.trials)
        shear = math.sqrt(1.5) / (2.0 * math.pi)  # the unmoved shear start's ratio
        assert stuck.sample_values[0] == pytest.approx(shear, rel=1e-14)
        assert stuck.sample_values[1:] == free.sample_values[1:]

    def test_vortex_sample_matches_a_per_sample_ascent(self):
        # independent reference: one field at a time through the public spectral API
        from gevrey_ns.verify import _capped_sample

        def ratio_and_gradient(z):
            g, m = z.grid, 2 * z.grid.n
            U = synthesize(g, z.uh, m)
            q = U[0] * U[0] + U[1] * U[1]
            quartic = float(np.sum(q * q)) * (2.0 * math.pi / m) ** 2
            l2, g2 = norm_l2(z), np.sqrt(spectral.parseval(g, z.w)[1])
            h = np.fft.rfft2(q * U)  # the rfft half layout of a field
            cub = h[:, g.freqs % m, :g.n // 2 + 1] / (m * m)
            d = 2.0 * cub / quartic - z.uh / l2 ** 2 - g.k_sq * z.uh / g2 ** 2
            return math.sqrt(quartic) / (l2 * g2), leray_project(g, d)

        cg = make_grid(18)
        z = taylor_green(cg, 1.0) + 1e-3 * _capped_sample(cg, 8, [0, 1])
        z = z * (1.0 / norm_l2(z))
        best, grad = ratio_and_gradient(z)
        for trials in range(1, 121):
            # the step 1.5 D^-1 grad, D = 1/|z|^2 + |xi|^2/|grad z|^2 mode by mode
            d = 1.0 / norm_l2(z) ** 2 + cg.k_sq / spectral.parseval(cg, z.w)[1]
            z = z + SpectralVelocity(cg, 1.5 * grad.w / d)
            z = z * (1.0 / norm_l2(z))
            r, grad = ratio_and_gradient(z)
            rose = r > (1.0 + 1e-4) * best
            best = max(best, r)
            if not rose:
                break
        est = estimate_c0(n_samples=2, seed=0)
        assert est.sample_values[1] == pytest.approx(best, rel=1e-9)
        assert est.trials[1] == trials < 120

    @pytest.mark.parametrize("k_cap", range(3, 9))
    def test_capped_sample_matches_the_per_mode_draw(self, k_cap):
        # reference: the draw one mode at a time, four normals per mode
        from gevrey_ns.spectral import from_lattice
        from gevrey_ns.verify import _capped_sample

        def per_mode(grid, seed_pair):
            rng = np.random.default_rng(seed_pair)
            n = grid.n
            u = np.zeros((2, n, n), dtype=complex)
            for p in range(0, k_cap + 1):
                for q in range(-k_cap, k_cap + 1):
                    if p == 0 and q <= 0:
                        continue
                    draw = rng.standard_normal(4) / math.hypot(p, q)
                    c = draw[0::2] + 1j * draw[1::2]
                    u[:, p % n, q % n] = c
                    u[:, -p % n, -q % n] = np.conj(c)
            return from_lattice(grid, u)

        for n in (2 * k_cap + 2, 32):
            grid = make_grid(n)
            for seed in range(4):
                for i in (1, 2, 5):
                    assert np.array_equal(_capped_sample(grid, k_cap, [seed, i]).w,
                                          per_mode(grid, [seed, i]).w)

    def test_spectrum_signature_present(self, c0_32):
        assert c0_32.spectrum_signature.sum() == pytest.approx(1.0, rel=1e-8)


class TestCheckTheorem:
    def test_thm1_passes_and_t0_margin_exact(self):
        rep = check_theorem(1, config_from_dict(THM1_CFG))
        assert rep.status == "ok"
        assert rep.verdict
        assert rep.rows[0]["t"] == 0.0
        assert rep.rows[0]["margin"] == 0.0

    def test_thm1_na_when_smallness_fails(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 3, "l2_norm": 10.0}
        rep = check_theorem(1, config_from_dict(doc))
        assert rep.status == "n/a"
        assert "smallness" in rep.message

    def test_thm1_deep_stack(self):
        # stacks are scaled, so depth 16 (M = 31) needs no cap
        rep = check_theorem(1, config_from_dict(dict(THM1_CFG, stack_depth=16)))
        assert rep.status == "ok"
        assert rep.series.M == 31
        assert all(math.isfinite(r["lhs"]) for r in rep.rows)

    def test_thm1_zero_horizon_single_row(self):
        # a t = 0 row is an identity (lhs = rhs = |u0|^2), so a schedule of t = 0 alone
        # is refused, whether listed or resolved from t_end = 0, and gives no verdict
        doc = dict(THM1_CFG, t_end=0.0)
        with pytest.raises(ConfigurationError, match="snapshot_times"):
            config_from_dict(dict(doc, snapshot_times=[0.0]))
        rep = check_theorem(1, config_from_dict(dict(doc, snapshot_times=None)))
        assert rep.status == "error" and rep.rows == [] and not rep.verdict
        assert rep.message == "t_end must be > 0 when snapshot_times is null, got 0.0"

    def test_thm2_depths_read_prefix_columns(self):
        # one theorem_lhs table serves every depth n: rows of depth n carry column
        # min(n, k_cap), so depths past k_cap = 1 repeat the deepest column
        doc = dict(SMALL_BOUNDS[2], stack_depth=2, theorem2_n_max=3)
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok" and rep.series.k_cap == 1
        res = theorem_lhs(rep.series, 2, rep.params["alpha"])
        T = len(res.times)
        assert len(rep.rows) == 4 * T
        for n in range(4):
            rows = [r for r in rep.rows if r["n"] == n]
            k = min(n, 1)
            assert [r["lhs"] for r in rows] == res.lhs[:, k].tolist()
            assert [r["tail_err"] for r in rows] == res.trunc_tail[:, k].tolist()
            assert [r["quad_err"] for r in rows] == res.quad_err[:, k].tolist()

    def test_thm2_stacks_only_the_depth_its_rows_read(self):
        # the row at depth n reads orders <= n, so entries v_0..v_{n+1}: at n_max = 2 a
        # depth-8 config builds K = 3, and its rows are columns of the depth-8 table
        doc = dict(THM1_CFG, stack_depth=8, theorem2_n_max=2)
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok"
        assert rep.params["K"] == 8 and rep.params["K_used"] == 3 and rep.series.M == 5
        shallow = check_theorem(2, config_from_dict(dict(doc, stack_depth=3)))
        assert shallow.params["K_used"] == 3
        assert json_dumps(rep.rows) == json_dumps(shallow.rows)
        full = theorem_lhs(verify.stack_series(rep.trajectory, 8), 2, rep.params["alpha"])
        for n in range(3):
            rows = [r for r in rep.rows if r["n"] == n]
            assert [r["lhs"] for r in rows] == full.lhs[:, n].tolist()
            assert [r["tail_err"] for r in rows] == full.trunc_tail[:, n].tolist()
            assert [r["quad_err"] for r in rows] == full.quad_err[:, n].tolist()

    @pytest.mark.parametrize("theorem_id,stack_depth,n_max,K", [
        (2, 4, 1, 2), (2, 2, 4, 2), (1, 4, 1, 4), (3, 4, 1, 4), (4, 4, 1, 4)])
    def test_stack_depth_per_bound(self, monkeypatch, theorem_id, stack_depth, n_max, K):
        # bound 2 stacks to min(stack_depth, theorem2_n_max + 1); bounds 1, 3 and 4 read
        # every order and stack to the full stack_depth
        depths, real = [], verify.time_derivative_stack

        def stack(u, depth, t):
            depths.append(depth)
            return real(u, depth, t)

        monkeypatch.setattr(verify, "time_derivative_stack", stack)
        doc = dict(SMALL_BOUNDS[theorem_id], stack_depth=stack_depth, theorem2_n_max=n_max)
        rep = check_theorem(theorem_id, config_from_dict(doc))
        assert rep.status == "ok" and rep.params["K"] == stack_depth
        assert len(depths) == len(rep.series.times) - 1 and set(depths) == {K}
        assert rep.params.get("K_used") == (K if theorem_id == 2 else None)

    def test_thm2_rows_at_the_double_edge_fail_on_a_zero_rhs(self):
        # small alpha and small data: at n = 1022 and 1023 the log RHS terms overflow;
        # the RHS is 0 (never NaN), so those rows fail
        doc = dict(SMALL_BASE, initial_data=_small_data(0.1), alpha=0.001,
                   theorem2_n_max=1023)
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok" and not rep.verdict
        assert not any(math.isnan(r["rhs"]) or math.isnan(r["margin"]) for r in rep.rows)
        edge = [r for r in rep.rows if r["n"] >= 1022]
        assert len(edge) == 2 * len(rep.series.times)
        assert all(r["rhs"] == 0.0 and not r["ok"] for r in edge)
        assert all(math.isfinite(r["log_rhs"]) for r in edge if r["n"] == 1023)

    def test_a_nan_rhs_never_passes_a_row(self):
        rep = check_theorem(2, config_from_dict(SMALL_BOUNDS[2]))
        res = theorem_lhs(rep.series, 2, rep.params["alpha"])
        for rhs, ok in ((math.nan, False), (math.inf, True)):
            report = verify.TheoremReport(theorem_id=2, params={})
            verify._add_rows(report, res, 1, rhs)
            assert [r["ok"] for r in report.rows] == [ok] * len(res.times)

    def test_thm2_large_data(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 5, "l2_norm": 3.0}
        doc["theorem2_n_max"] = 3
        doc["dt"] = 0.002
        doc["t_end"] = 0.5
        doc["snapshot_times"] = [0.0, 0.25, 0.5]
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok" and rep.verdict
        assert {int(r["n"]) for r in rep.rows} == {0, 1, 2, 3}
        assert "rhs_sensitivity" in rep.extras

    def test_thm3_scopes_to_analytic_existence_time(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 5, "l2_norm": 3.0}
        rep = check_theorem(3, config_from_dict(doc))
        assert rep.status == "ok" and rep.verdict
        T0 = rep.params["T0"]
        assert 0 < T0 < 1.0
        assert rep.rows[0]["t"] == 0.0
        assert rep.rows[0]["rhs"] == 0.0
        assert rep.rows[0]["lhs"] == 0.0
        assert rep.rows[-1]["t"] == pytest.approx(T0, rel=1e-9)
        # LHS collapses toward 0 with t
        assert rep.rows[1]["lhs"] <= rep.rows[1]["rhs"]

    def test_thm3_solves_t0_three_times_and_reads_rhs_once(self, monkeypatch):
        # T0 at C0 and C0 +- 10%; the rows' right-hand side comes from one I(t) call
        c0s, solving, inside, outside = [], [], [], []

        def solve(modes, u0_l2, c0, horizon):
            c0s.append(c0)
            solving.append(c0)
            try:
                return theorem3_rhs(modes, u0_l2, c0, horizon)
            finally:
                solving.pop()

        def integral(modes, T):
            (inside if solving else outside).append(np.size(T))
            return weighted_h_integral(modes, T)

        monkeypatch.setattr(verify, "theorem3_rhs", solve)
        monkeypatch.setattr(functionals, "weighted_h_integral", integral)
        rep = check_theorem(3, config_from_dict(SMALL_BOUNDS[3]))
        assert rep.status == "ok"
        assert c0s == [0.23, 0.9 * 0.23, 1.1 * 0.23]
        assert outside == [len(rep.rows)] and len(rep.rows) > 1
        assert set(inside) == {1} and len(inside) <= 3 * 75

    @pytest.mark.parametrize("doc, capped", [
        (SMALL_BOUNDS[3], False),
        (dict(SMALL_BASE, initial_data=_small_data(0.3)), True),
    ], ids=["T0-solved", "T0-capped"])
    def test_thm3_window_steps_keep_dt_the_largest_step(self, doc, capped):
        cfg = config_from_dict(doc)
        rep = check_theorem(3, cfg)
        T0, steps = rep.params["T0"], rep.params["window_steps"]
        assert rep.status == "ok" and rep.params["T0_capped_at_horizon"] is capped
        assert steps == min(8 * math.ceil(T0 / (8 * cfg.dt)), 4096)
        assert rep.trajectory.dt <= cfg.dt
        assert len(rep.rows) == 9
        assert rep.rows[-1]["t"] == pytest.approx(T0)

    @pytest.mark.parametrize("data_seed, u0_norm", [(40, 2.0), (45, 5.0)])
    def test_thm3_more_window_steps_move_the_lhs_by_rounding_only(self, c0_32, data_seed,
                                                                   u0_norm):
        # acceptance-7 data sets: 8 window steps against 16 (dt = T0 / 12)
        doc = {"n": 32, "dt": 0.002, "t_end": 1.0, "stack_depth": 8, "seed": data_seed,
               "initial_data": {"kind": "random_spectrum", "decay": 2.0, "k_max": 8,
                                "seed": data_seed, "l2_norm": u0_norm},
               "c0": {"mode": "fixed", "value": c0_32.value}}
        rep = check_theorem(3, config_from_dict(doc))
        fine = check_theorem(3, config_from_dict(dict(doc, dt=rep.params["T0"] / 12)))
        assert (rep.params["window_steps"], fine.params["window_steps"]) == (8, 16)
        assert fine.params["T0"] == rep.params["T0"]
        assert len(rep.rows) == len(fine.rows) == 9
        for a, b in zip(rep.rows, fine.rows):
            assert abs(a["lhs"] - b["lhs"]) <= 1e-2 * a["quad_err"]
            assert a["ok"] == b["ok"]

    def test_thm3_cellular_vortex_fluctuation_stays_at_the_rounding_floor(self, c0_32):
        # the vortex at |u0| = 2 solves the heat equation, so f = u - l is rounding only
        doc = {"n": 32, "dt": 0.002, "t_end": 0.1, "stack_depth": 8,
               "initial_data": {"kind": "taylor_green",
                                "amplitude": 2.0 / (math.pi * math.sqrt(2.0))},
               "c0": {"mode": "fixed", "value": c0_32.value}}
        rep = check_theorem(3, config_from_dict(doc))
        u0n = rep.params["u0_l2"]
        assert rep.status == "ok" and len(rep.rows) == 9
        assert all(row["lhs"] <= 1e-26 * u0n ** 2 for row in rep.rows)

    def test_thm4_fit_and_origin(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 3.0,
                               "k_max": 6, "seed": 7, "l2_norm": 1.0}
        doc["t_end"] = 5.0
        doc["snapshot_times"] = [round(0.25 * i, 4) for i in range(21)]
        doc["decay_window"] = [1.0, 5.0]
        rep = check_theorem(4, config_from_dict(doc))
        assert rep.status == "ok" and rep.verdict
        assert rep.params["gamma_fit"] > 0
        t0 = rep.params["t0"]
        ca = math.sqrt(4.0 / 3.0)
        expect_t0 = 2.0 * (8 * 0.23 * ca * rep.params["K_fit"]) ** (1 / rep.params["gamma_fit"])
        assert t0 == pytest.approx(expect_t0, rel=1e-12)
        assert all(r["t"] >= t0 - 1e-12 for r in rep.rows)
        assert "integral_from_t0" in rep.extras

    @pytest.mark.parametrize("seed, gamma", [(0, 0.5), (1, 0.5), (2, 0.5), (0, None)])
    def test_thm4_envelope_holds_at_every_sample_time(self, seed, gamma):
        # the LHS reads every t > 0, so |u(t)| <= K t^-gamma must hold there and not
        # only on the fit window [1, 5]: with gamma 0.5, |u| t^gamma peaks before it
        doc = dict(THM1_CFG, stack_depth=8, seed=seed, t_end=5.0, gamma=gamma,
                   snapshot_times=[round(0.25 * i, 3) for i in range(21)],
                   decay_window=[1.0, 5.0])
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 3.0, "k_max": 6,
                               "seed": seed, "l2_norm": 1.0}
        rep = check_theorem(4, config_from_dict(doc))
        assert rep.status == "ok"
        t, norms = rep.series.times, rep.series.L_tilde[:, 0]
        envelope = norms[t > 0] * t[t > 0] ** rep.params["gamma_fit"]
        assert np.all(envelope <= rep.params["K_fit"])


class TestVerdictPath:
    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4])
    def test_rows_and_verdict_follow_one_rule(self, theorem_id):
        rep = check_theorem(theorem_id, config_from_dict(SMALL_BOUNDS[theorem_id]))
        assert rep.status == "ok" and rep.rows
        for row in rep.rows:
            assert row["err_budget"] == row["quad_err"] + row["tail_err"]
            assert row["ok"] == (row["margin"] >= -row["err_budget"])
            if math.isfinite(row["rhs"]):
                assert row["margin"] == row["rhs"] - row["lhs"]
            assert ("n" in row and "log_rhs" in row) == (theorem_id == 2)
        assert rep.verdict == all(row["ok"] for row in rep.rows)
        assert rep.series is not None and rep.trajectory is not None
        assert "series" not in rep.to_dict()["extras"]


# JSON-like values; the data and c0 blocks often get past their kind and mode
_SCALAR = (st.integers(-2, 9) | st.floats() | st.none() | st.booleans()
           | st.integers() | st.text(max_size=3))
_JSON = st.recursive(_SCALAR, lambda c: st.lists(c, max_size=3)
                     | st.dictionaries(st.text(max_size=3), c, max_size=3), max_leaves=6)
_DATA = st.one_of(*(
    st.fixed_dictionaries({"kind": kind}, optional={k: _SCALAR for k in keys})
    for kind, keys in ((st.just("taylor_green"), ["amplitude"]), (st.just("shear"), ["amplitude"]),
                       (st.just("random_spectrum"), ["decay", "k_max", "seed", "l2_norm"]),
                       (_JSON, ["amplitude"]))))
_C0 = st.fixed_dictionaries(
    {"mode": st.sampled_from(["fixed", "estimate"]) | _JSON},
    optional={k: _SCALAR for k in ("value", "n_samples", "ascent_steps")})
_DOC = st.builds(lambda fields, blocks: {**fields, **blocks},
                 st.just({}) | st.dictionaries(
                     st.sampled_from(sorted(RunConfig.__dataclass_fields__)), _JSON, max_size=3),
                 st.fixed_dictionaries({}, optional={"initial_data": _DATA, "c0": _C0}))


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            config_from_dict({"n": 32, "dtt": 0.1})

    def test_bad_c0_mode(self):
        with pytest.raises(ConfigurationError, match="c0 mode"):
            config_from_dict({"c0": {"mode": "guess"}})

    @pytest.mark.parametrize("c0, match", [
        ("x", "c0 must be an object"),
        ({"mode": "fixed", "value": "a"}, "finite 'value'"),
        ({"mode": "fixed", "value": math.inf}, "finite 'value'"),
        ({"mode": "fixed", "value": 0.0}, "finite 'value'"),
        ({"mode": "fixed", "value": True}, "finite 'value'"),
        ({"mode": "fixed"}, "finite 'value'"),
        ({"mode": "estimate", "n_samples": "a"}, "n_samples"),
        ({"mode": "estimate", "n_samples": 1.7}, "n_samples"),
        ({"mode": "estimate", "n_samples": 0}, "n_samples"),
        ({"mode": "estimate", "ascent_steps": -3}, "ascent_steps"),
        ({"mode": "estimate", "ascent_steps": True}, "ascent_steps"),
        ({"mode": "estimate", "n_sample": 1}, "unknown keys"),
        ({"mode": "fixed", "value": 0.2, "n_samples": 3}, "unknown keys"),
    ])
    def test_bad_c0_block(self, c0, match):
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict({"c0": c0})

    def test_c0_estimate_defaults_optional(self):
        assert config_from_dict({"c0": {"mode": "estimate"}}).c0 == {"mode": "estimate"}
        assert config_from_dict({"c0": {"mode": "estimate", "ascent_steps": 0}})

    def test_stack_depth_budget(self):
        # the budget, 256, is 10x the deepest stack the tests build; refused before any stack
        assert config_from_dict({"stack_depth": 256}).stack_depth == 256
        for depth in (257, 10 ** 15):
            with pytest.raises(ConfigurationError, match="stack_depth .* budget of 256"):
                config_from_dict({"stack_depth": depth})

    def test_grid_budget(self):
        # the budget, 512, is 4x the largest grid any test, demo or workload uses
        assert config_from_dict({"n": 512}).n == 512
        for n in (514, 10 ** 7):
            with pytest.raises(ConfigurationError, match="n must .* budget of 512"):
                config_from_dict({"n": n})

    def test_c0_n_samples_budget(self):
        # the budget, 1024 starts, is about 80 MiB of ascent arrays held at once
        assert config_from_dict({"c0": {"mode": "estimate", "n_samples": 1024}})
        for n_samples in (1025, 10 ** 5):
            with pytest.raises(ConfigurationError, match="n_samples .* budget of 1024"):
                config_from_dict({"c0": {"mode": "estimate", "n_samples": n_samples}})

    def test_bad_alphas(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            config_from_dict({"alpha": -2.0})

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
    def test_bad_theorem2_n_max(self, bad):
        with pytest.raises(ConfigurationError, match="theorem2_n_max"):
            config_from_dict({"theorem2_n_max": bad})

    def test_roundtrip(self):
        cfg = config_from_dict(THM1_CFG)
        again = config_from_dict(dataclasses.asdict(cfg))
        assert again == cfg

    @pytest.mark.parametrize("key, bad", [
        ("n", 30.0), ("n", 7), ("n", True),
        ("dt", "x"), ("dt", math.nan), ("dt", True), ("t_end", "1"), ("t_end", math.inf),
        ("snapshot_times", 0.5), ("snapshot_times", [0.0, "a"]),
        # truncation is not a key (stokes-verify's order M is a constant): any value is refused
        ("stack_depth", "3"), ("truncation", "x"), ("truncation", 3),
        # alphas is not a key (alpha is one number): any value is refused
        ("alphas", 1.0), ("alphas", [True]), ("seed", "a"), ("seed", -1),
        ("decay_window", [2, 1]), ("decay_window", [1]), ("gamma", "x"), ("gamma", 0.0),
        # not keys: config-driven runs always keep the CFL guard, the energy ledger
        # works out its own tolerance and --out alone sets the output directory, so
        # any value is refused
        ("out_dir", 3),
        ("enforce_cfl", 1), ("enforce_cfl", "no"), ("enforce_cfl", True),
        ("tol_energy", "x"), ("tol_energy", math.nan),
        pytest.param("alphas", [], id="alphas-empty"),
        # an empty list would read as [t_end] in stokes-verify and as t = 0 alone elsewhere
        pytest.param("snapshot_times", [], id="snapshot_times-empty"),
        # t = 0 alone gives no verdict: every row there is an identity and the ledger
        # has no interval
        pytest.param("snapshot_times", [0.0], id="snapshot_times-zero-only"),
        pytest.param("alpha", [1.0], id="alpha-list"),
        ("alpha", True), ("alpha", math.inf), ("alpha", 0.0),
    ])
    def test_bad_field(self, key, bad):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({key: bad})

    @pytest.mark.parametrize("spec, match", [
        ({"kind": "taylor_green", "amplitude": "a"}, "amplitude"),
        ({"kind": "shear", "amplitude": math.nan}, "amplitude"),
        ({"kind": ["shear"]}, "kind"),
        (dict(THM1_CFG["initial_data"], seed=1.5), "seed"),
        (dict(THM1_CFG["initial_data"], seed=-1), "seed"),
        (dict(THM1_CFG["initial_data"], decay=-1.0), "decay"),
        (dict(THM1_CFG["initial_data"], k_max=0.5), "k_max"),
        (dict(THM1_CFG["initial_data"], l2_norm=False), "l2_norm"),
    ])
    def test_bad_initial_data(self, spec, match):
        with pytest.raises(ConfigurationError, match=match):
            config_from_dict({"initial_data": spec})

    def test_c0_defaults_owned_by_estimate_c0(self, monkeypatch):
        from gevrey_ns import verify
        assert RunConfig().c0 == {"mode": "estimate"}
        calls = []
        monkeypatch.setattr(verify, "estimate_c0",
                            lambda **kw: calls.append(kw) or estimate_c0(**kw))
        cfg = config_from_dict({"seed": 4, "c0": {"mode": "estimate", "n_samples": 1}})
        _, info = verify.resolve_c0(cfg)
        assert calls == [{"seed": 4, "n_samples": 1}]
        assert (info["n_samples"], info["ascent_steps"]) == (1, 120)

    @settings(deadline=None, derandomize=True, max_examples=400)
    @given(doc=_DOC)
    def test_any_document_builds_or_raises_configuration_error(self, doc):
        try:
            cfg = config_from_dict(doc)
            make_initial_data(make_grid(8), cfg.initial_data)
        except ConfigurationError:
            pass


class TestReportingFormat:
    def test_float_formatting_roundtrip(self):
        doc = {"x": 1.0 / 3.0, "y": [1e-300, 2.5, float("inf")], "s": "a\"b",
               "z": (np.float64(0.1), np.int64(3), np.bool_(True), np.array([np.nan]))}
        back = strict_loads(json_dumps(doc))
        assert back["x"] == 1.0 / 3.0
        assert back["y"] == [1e-300, 2.5, None]
        assert back["s"] == 'a"b'
        assert back["z"] == [0.1, 3, True, [None]]

    def test_functionals_csv_matches_the_cell_by_cell_writer(self, tmp_path):
        # write_functionals_csv formats one stacked float table; the reference indexes the six
        # tables cell by cell and spells each numpy scalar as the writer always has, NaN and
        # +-inf included
        rng = np.random.default_rng(4)
        L, H = rng.lognormal(size=(2, 3, 6)) * np.array([1.0, 1e-300, 1e300])[:, None]
        L[1, 2], L[2, 5], H[0, 3], H[2, 0] = np.nan, np.inf, -np.inf, 0.0
        series = functionals.FunctionalSeries(times=np.array([0.0, 0.25, 1.0 / 3.0]),
                                              L_tilde=L, H_tilde=H)
        tables = (series.L_raw, series.H_raw, series.L_tilde, series.H_tilde,
                  *series.normalized(1.0))

        def cell(v):
            v = float(v)
            if v != v:
                return "NaN"
            return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(v, format(v, ".17g"))

        lines = ["t,m,L_raw,H_raw,L_tilde,H_tilde,L_c,H_c"]
        lines += [",".join((cell(t), str(m), *(cell(c[i, m]) for c in tables)))
                  for i, t in enumerate(series.times) for m in range(series.M + 1)]
        ref = ("\n".join(lines) + "\n").encode()
        out = reporting.write_functionals_csv(series, 1.0, tmp_path / "f.csv").read_bytes()
        assert b"NaN" in ref and b",Infinity" in ref and b"-Infinity" in ref
        assert out == ref

    def test_deterministic_key_order(self):
        assert json_dumps({"b": 1, "a": 2}) == json_dumps({"b": 1, "a": 2})
        assert json_dumps({"b": 1, "a": 2}).index('"a"') < json_dumps({"b": 1, "a": 2}).index('"b"')


class TestCli:
    def _write_cfg(self, tmp_path, doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_stokes_verify_single_mode(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "n": 32, "t_end": 1.0,
            "initial_data": {"kind": "shear", "amplitude": 1.0 / (np.pi * np.sqrt(2.0))},
        })
        code = main(["stokes-verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] is True
        assert abs(report["rows"][0]["residual"]) <= 1e-10

    def test_audit_lemmas_outputs(self, tmp_path):
        code = main(["audit-lemmas", "--out", str(tmp_path / "r")])
        assert code == 0
        csv_text = (tmp_path / "r" / "audit_ccc0.csv").read_text().splitlines()
        assert csv_text[0] == "k,j,alpha,ratio,printed_bound,corrected_bound,printed_ok,corrected_ok"
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["ccc0"]["corrected_violation_count"] == 0
        assert [6, 1, 1.0] in report["ccc0"]["printed_violations_sample"] or \
            report["ccc0"]["printed_violation_count"] > 0

    @pytest.mark.parametrize("alphas", [[], [1.0, 2.0]])
    @pytest.mark.parametrize("command", ["check-thm1", "check-thm3", "ns-run"])
    def test_bound_checks_and_runs_need_exactly_one_alpha(self, tmp_path, capsys, command,
                                                          alphas):
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[1], alpha=alphas))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "alpha" in captured.err

    @pytest.mark.parametrize("theorem_id", [1, 2, 3, 4])
    def test_bound_checks_reject_stack_depth_zero(self, tmp_path, capsys, theorem_id):
        # L~_1 needs u_t: a depth-0 run would drop it and pass on the rest
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[theorem_id], stack_depth=0))
        assert main([f"check-thm{theorem_id}", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "stack_depth >= 1" in captured.err

    def test_audit_lemmas_reads_every_alpha(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {"alpha": 0.5})
        assert main(["audit-lemmas", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        rows = (tmp_path / "r" / "audit_ccc0.csv").read_text().splitlines()[1:]
        assert {float(r.split(",")[2]) for r in rows} == {0.5}

    def test_check_thm1_writes_report_and_csvs(self, tmp_path):
        cfg = self._write_cfg(tmp_path, THM1_CFG)
        out = tmp_path / "out"
        code = main(["check-thm1", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["theorem"] == 1
        assert report["verdict"] is True
        for row in report["rows"]:
            assert set(row) >= {"t", "lhs", "rhs", "margin", "err_budget"}
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,l2_norm,grad_l2_norm,dissipation_accum"
        func = (out / "functionals.csv").read_text().splitlines()
        assert func[0] == "t,m,L_raw,H_raw,L_tilde,H_tilde,L_c,H_c"

    @pytest.mark.parametrize("command", ["check-thm1", "check-thm2", "check-thm3", "check-thm4"])
    def test_byte_identical_reports(self, tmp_path, command):
        # bound 2 reaches depths past its k_cap = 3; bound 4 checks from its origin t0
        theorem_id = int(command[-1])
        doc = {1: THM1_CFG, 2: dict(SMALL_BOUNDS[2], theorem2_n_max=5)}.get(
            theorem_id, SMALL_BOUNDS[theorem_id])
        cfg = self._write_cfg(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        argv = [command, "--config", cfg, "--out"]
        rc = main(argv + [str(a)])
        assert rc in (0, 1) and main(argv + [str(b)]) == rc
        for name in ("report.json", "functionals.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["check-thm3", "estimate-c0"])
    def test_byte_identical_reports_with_estimated_c0(self, tmp_path, command):
        # the C0 ascent runs inside each call, so its matrix products must repeat bit for bit
        doc = dict(SMALL_BOUNDS[3], c0={"mode": "estimate", "n_samples": 3, "ascent_steps": 20})
        cfg = self._write_cfg(tmp_path, doc)
        a, b = tmp_path / "a", tmp_path / "b"
        argv = [command, "--config", cfg, "--out"]
        rc = main(argv + [str(a)])
        assert rc in (0, 1) and main(argv + [str(b)]) == rc
        names = sorted(p.name for p in a.iterdir())
        assert "report.json" in names and names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("command, doc", [
        *(pytest.param(f"check-thm{i}", SMALL_BOUNDS[i], id=f"check-thm{i}") for i in range(1, 5)),
        pytest.param("estimate-c0", SMALL_BASE, id="estimate-c0")])
    def test_reports_carry_the_ascent_trials(self, tmp_path, command, doc):
        doc = dict(doc, c0={"mode": "estimate", "n_samples": 3, "ascent_steps": 20})
        out = tmp_path / "out"
        main([command, "--config", self._write_cfg(tmp_path, doc), "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        trials = estimate_c0(n_samples=3, ascent_steps=20).trials
        assert (report if command == "estimate-c0" else report["params"]["c0"])["trials"] == trials
        assert all(1 <= t <= 20 for t in trials)

    def test_thm2_functionals_csv_holds_the_orders_it_stacked(self, tmp_path):
        # n_max = 2 stacks to K_used = 3, so the orders stop at 2 K_used - 1 = 5
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[2], stack_depth=8))
        assert main(["check-thm2", "--config", cfg, "--out", str(out)]) in (0, 1)
        params = json.loads((out / "report.json").read_text())["params"]
        assert params["K"] == 8 and params["K_used"] == 3
        rows = (out / "functionals.csv").read_text().splitlines()[1:]
        assert sorted({int(r.split(",")[1]) for r in rows}) == list(range(6))

    def test_thm2_report_is_strict_json(self, tmp_path):
        # at doubling depth 9 the bound-2 rhs leaves the double range: the
        # report carries null for rhs and margin and keeps log_rhs
        doc = dict(THM1_CFG, theorem2_n_max=9, dt=0.002, t_end=0.5,
                   snapshot_times=[0.0, 0.25, 0.5])
        doc["initial_data"] = dict(THM1_CFG["initial_data"], l2_norm=3.0)
        out = tmp_path / "out"
        assert main(["check-thm2", "--config", self._write_cfg(tmp_path, doc),
                     "--out", str(out)]) == 0
        report = strict_loads((out / "report.json").read_text())
        deep = [r for r in report["rows"] if r["n"] == 9.0]
        assert deep and all(r["rhs"] is None and r["margin"] is None for r in deep)
        assert all(r["log_rhs"] > 709.0 and r["ok"] for r in deep)

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["check-thm1", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {"n": 32, "bogus": True})
        assert main(["ns-run", "--config", cfg]) == 2

    def test_negative_theorem2_n_max_exits_2(self, tmp_path, capsys):
        doc = dict(THM1_CFG, theorem2_n_max=-1)
        assert main(["check-thm2", "--config", self._write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "theorem2_n_max" in captured.err

    def test_estimate_c0_on_fixed_block_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"c0": {"mode": "fixed", "value": 0.23}})
        assert main(["estimate-c0", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "'estimate'" in captured.err

    def test_bound4_na_writes_only_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["check-thm4", "--config", self._write_cfg(tmp_path, BOUND4_NA),
                     "--out", str(out)]) == 2
        assert "N/A" in capsys.readouterr().out
        report = strict_loads((out / "report.json").read_text())
        assert report["status"] == "n/a" and "beyond the horizon" in report["message"]
        assert report["verdict"] is False and report["rows"] == []
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    @pytest.mark.parametrize("gamma_fit", [0.0, -0.5])
    def test_bound4_nonpositive_fitted_exponent_is_na(self, tmp_path, capsys, monkeypatch,
                                                      gamma_fit):
        # with gamma fitted, a decay exponent <= 0 gives no admissible origin: N/A, no rows
        fit = verify.fit_decay
        monkeypatch.setattr(verify, "fit_decay", lambda *args: dataclasses.replace(
            fit(*args), gamma_fit=gamma_fit))
        doc = dict(SMALL_BOUNDS[4])
        del doc["gamma"]
        rep = check_theorem(4, config_from_dict(doc))
        assert rep.status == "n/a" and rep.rows == [] and rep.verdict is False
        out = tmp_path / "out"
        assert main(["check-thm4", "--config", self._write_cfg(tmp_path, doc),
                     "--out", str(out)]) == 2
        line = f"check-thm4: N/A (fitted decay exponent {gamma_fit:.3g} is not positive)\n"
        assert capsys.readouterr().out == line
        report = strict_loads((out / "report.json").read_text())
        assert report["status"] == "n/a" and "is not positive" in report["message"]
        assert report["verdict"] is False and report["rows"] == []
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    def test_bound4_past_the_double_range_exits_2_with_one_line(self, tmp_path, capsys):
        # 2^(2 gamma) overflows at gamma >= 512: an error, not a row decided by an inf
        out = tmp_path / "out"
        doc = dict(SMALL_BOUNDS[4], gamma=600.0)
        assert main(["check-thm4", "--config", self._write_cfg(tmp_path, doc),
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: bound 4 leaves the double range")
        report = strict_loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["rows"] == []

    def test_bad_c0_block_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"c0": {"mode": "estimate", "n_samples": 1.7}})
        assert main(["estimate-c0", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "n_samples" in captured.err

    def test_c0_n_samples_past_the_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verify, "estimate_c0", lambda *a, **kw: pytest.fail("estimated"))
        cfg = self._write_cfg(tmp_path, {"c0": {"mode": "estimate", "n_samples": 10 ** 5}})
        for command in ("estimate-c0", "check-thm3"):
            assert main([command, "--config", cfg]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: c0 n_samples")

    def test_stack_depth_past_the_budget_exits_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[1], n=8, stack_depth=10 ** 15))
        assert main(["check-thm1", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: stack_depth must be within the budget of 256")

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["stokes-verify", "--frobnicate"]) == 2

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--alpha", "1"]], ids=["seed", "alpha"])
    def test_no_flag_overrides_the_config(self, capsys, flag):
        # a config file pins the run, so --seed and --alpha are unknown flags
        assert main(["check-thm1"] + flag) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ns-run", "check-thm1", "check-thm2", "check-thm4",
                                         "fit-decay"])
    def test_step_budget_refuses_before_any_step(self, tmp_path, capsys, monkeypatch,
                                                 command):
        # t_end / dt = 1e300 is a finite quotient, far past the 10^6-step budget
        from gevrey_ns import solver
        monkeypatch.setattr(solver, "_advance", lambda *args: pytest.fail("took a step"))
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[1], dt=1e-300, t_end=1.0))
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: t_end=1.0 over dt=1e-300 is not a finite step "
                                       "count within the budget of 1000000 steps")

    @pytest.mark.parametrize("data", [
        {"kind": "taylor_green", "amplitude": 1e154},
        {"kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": 3, "l2_norm": 1e160},
    ], ids=lambda data: data["kind"])
    @pytest.mark.parametrize("command", ["stokes-verify", "ns-run", "check-thm1", "check-thm2",
                                         "check-thm3", "check-thm4", "fit-decay"])
    def test_data_past_the_double_range_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                              data):
        # |u0|^2 overflows to inf: the data is refused before any solve, bound or CFL check
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BASE, initial_data=data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"error: {data['kind']} data leaves the double range: "
                                "|u|^2 or |grad u|^2 is not finite\n")

    @pytest.mark.parametrize("data", [
        {"kind": "taylor_green", "amplitude": 1e-160},
        {"kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": 3, "l2_norm": 1e-300},
    ], ids=lambda data: data["kind"])
    @pytest.mark.parametrize("command", ["stokes-verify", "ns-run", "check-thm1", "check-thm2",
                                         "check-thm3", "check-thm4", "fit-decay"])
    def test_data_below_the_double_range_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                               data):
        # |u0|^2 underflows below the smallest normal double: refused like its overflow twin
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BASE, initial_data=data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == (f"error: {data['kind']} data leaves the double range: "
                                "|u|^2 or |grad u|^2 underflows\n")

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_a_schedule_of_t_zero_alone_exits_2_with_one_line(self, tmp_path, capsys, command):
        # snapshot_times [0.0] is refused when the config is read, before any work
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[1], snapshot_times=[0.0]))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == ("error: snapshot_times must be null or a list of finite numbers "
                                ">= 0, one of them > 0, got [0.0]\n")

    @pytest.mark.parametrize("command", ["stokes-verify", "ns-run", "check-thm1", "check-thm2",
                                         "check-thm4", "fit-decay"])
    def test_t_end_zero_leaves_no_schedule(self, tmp_path, capsys, command):
        # a null snapshot_times with t_end = 0 would resolve to t = 0 alone (and
        # stokes-verify's default to [t_end]): refused where the schedule is resolved
        cfg = self._write_cfg(tmp_path, dict(SMALL_BASE, t_end=0.0, initial_data=_small_data(0.3),
                                             c0={"mode": "fixed", "value": 0.2}))
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: t_end must be > 0 when snapshot_times is null, got 0.0\n"

    @pytest.mark.parametrize("times", [[1e-12], [0.0, 1e-12]], ids=["tiny", "zero-and-tiny"])
    @pytest.mark.parametrize("command", ["ns-run", "check-thm1", "check-thm2", "check-thm4",
                                         "fit-decay"])
    def test_a_schedule_at_step_0_alone_exits_2_with_one_line(self, tmp_path, capsys, command,
                                                               times):
        # 1e-12 passes as a multiple of dt = 0.01 within step_count's tolerance, at step 0:
        # the schedule is t = 0 alone, refused where it is resolved to steps
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BASE, snapshot_times=times,
                                             initial_data=_small_data(0.3),
                                             c0={"mode": "fixed", "value": 0.2}))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: snapshot_times must reach a step > 0 at dt=0.01 "
                                f"(t = 0 alone gives no verdict), got {times!r}\n")
        if command.startswith("check"):
            report = json.loads((out / "report.json").read_text())
            assert report["status"] == "error" and report["rows"] == []
            assert report["verdict"] is False
        else:
            assert not out.exists()

    def test_grid_past_the_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # refused when the config is read, before make_grid builds its n x n tables
        monkeypatch.setattr(verify, "make_grid", lambda n: pytest.fail("built a grid"))
        cfg = self._write_cfg(tmp_path, {"n": 10 ** 7})
        assert main(["check-thm2", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: n must be an even integer >= 8 within the "
                                       "budget of 512, got 10000000")

    def test_check_thm2_reads_the_same_c0_estimate_on_every_grid(self, tmp_path):
        # C0 belongs to the continuum: the ascent runs on its own cap grid, whatever n is
        values = []
        for n in (16, 32):
            cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[2], n=n, c0={"mode": "estimate"}))
            out = tmp_path / f"out{n}"
            assert main(["check-thm2", "--config", cfg, "--out", str(out)]) in (0, 1)
            values.append(json.loads((out / "report.json").read_text())["params"]["c0"])
        assert values[0] == values[1]
        assert values[0]["value"] == estimate_c0().value

    def test_thm3_names_an_underflowed_existence_time(self, tmp_path, capsys):
        # |u0| = 1e100 drives T0 to 0.0: the error names T0 and |u0|, not the window's step
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BASE, initial_data=_small_data(1e100)))
        assert main(["check-thm3", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        report = strict_loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["rows"] == []
        assert report["params"]["T0"] == 0.0
        assert captured.err == f"error: {report['message']}\n"
        assert "T0 = 0 underflows at |u0| = 1e+100" in captured.err

    @pytest.mark.parametrize("window", [[0.5, 1.0], [5.0, 9.0], [0.1, 0.3]])
    def test_thm4_reads_no_window_when_gamma_is_given(self, tmp_path, capsys, window):
        # with gamma set no decay fit is made, so a window holding fewer than 4 snapshots
        # (or none) is not an error
        doc = dict(SMALL_BASE, t_end=2.0, snapshot_times=[0.25 * i for i in range(9)],
                   initial_data=_small_data(0.05), gamma=1.0, decay_window=window)
        out = tmp_path / "out"
        assert main(["check-thm4", "--config", self._write_cfg(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        report = strict_loads((out / "report.json").read_text())
        assert report["verdict"] and len(report["rows"]) == 8

    def test_thm3_horizon_is_t_end(self, tmp_path, capsys):
        # t_end = 0 leaves bound 3 no window to solve T0 in: an error report, one line
        out = tmp_path / "out"
        cfg = self._write_cfg(tmp_path, dict(SMALL_BOUNDS[3], t_end=0.0))
        assert main(["check-thm3", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        report = strict_loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["rows"] == []
        assert captured.err == f"error: {report['message']}\n" and "t_end > 0" in captured.err

    @pytest.mark.parametrize("l2_norm", [1e-3, 1.0, 1e3, 1e4, 1e5])
    def test_stokes_verify_tolerance_scales_with_the_energy(self, tmp_path, capsys,
                                                             monkeypatch, l2_norm):
        # the identity is homogeneous of degree 2 in u0: its rounding (~1e-15 of the
        # energy) passes at every scale, and a total off by 1e-6 of the energy fails
        from gevrey_ns import cli
        cfg = self._write_cfg(tmp_path, {"n": 16, "t_end": 0.1, "initial_data": {
            "kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": 3, "l2_norm": l2_norm}})
        assert main(["stokes-verify", "--config", cfg]) == 0
        exact = cli.stokes_gevrey_identity

        def off(u0, t, M):
            rep = exact(u0, t, M)
            shift = 1e-6 * rep.energy
            return dataclasses.replace(rep, total=rep.total + shift,
                                       residual=rep.residual + shift)
        monkeypatch.setattr(cli, "stokes_gevrey_identity", off)
        assert main(["stokes-verify", "--config", cfg]) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("stokes-verify: FAIL")

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_json_flag_prints_report(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "n": 32, "t_end": 0.5,
            "initial_data": {"kind": "taylor_green", "amplitude": 1.0},
        })
        code = main(["stokes-verify", "--config", cfg, "--json"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out.splitlines()[0])
        assert doc["check"] == "stokes-identity"

    def test_thm1_na_exits_2(self, tmp_path):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 3, "l2_norm": 10.0}
        cfg = self._write_cfg(tmp_path, doc)
        assert main(["check-thm1", "--config", cfg]) == 2

    def test_ns_run_ledger_verdict(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {
            "n": 32, "dt": 0.001, "t_end": 0.2,
            "snapshot_times": [0.0, 0.1, 0.2], "stack_depth": 2,
            "initial_data": {"kind": "random_spectrum", "decay": 3.0,
                             "k_max": 6, "seed": 11, "l2_norm": 0.5},
        })
        out = tmp_path / "run"
        assert main(["ns-run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "functionals.csv").exists()

    @pytest.mark.parametrize("doc", [None, {
        "n": 32, "dt": 0.002,
        "initial_data": {"kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": 1,
                         "l2_norm": 5.0},
    }], ids=["bare", "random-5"])
    def test_ns_run_ledger_explains_the_trapezoid_residual(self, tmp_path, capsys, doc):
        # the residual (3.2e-4, 7.3e-4) is the trapezoid's error, which the ledger
        # works out from the snapshots; what it leaves unexplained is ~1e-10 of it
        args = ["ns-run", "--json"] + (["--config", self._write_cfg(tmp_path, doc)] if doc else [])
        assert main(args) == 0
        report = json.loads(capsys.readouterr().out.splitlines()[0])
        assert report["verdict"] is True and report["ledger_max_residual"] > 1e-4
        assert report["ledger_defect"] <= 1e-6 * report["ledger_quadrature_error"]
        assert report["ledger_defect"] <= report["ledger_tolerance"]

    def test_bare_fit_decay_and_check_thm4(self, capsys):
        # the default decay window [0.5, 1.0] lies inside the default horizon
        assert main(["fit-decay"]) == 0
        assert "on [0.5, 1.0]" in capsys.readouterr().out
        assert main(["check-thm4"]) == 2
        assert capsys.readouterr().out == (
            "check-thm4: N/A (admissible origin t0 = 2.53 lies beyond the horizon 1.0; "
            "no snapshots to check)\n")

    def test_fit_decay_runs(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "n": 32, "dt": 0.005, "t_end": 3.0,
            "snapshot_times": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            "initial_data": {"kind": "random_spectrum", "decay": 3.0,
                             "k_max": 6, "seed": 7, "l2_norm": 1.0},
            "decay_window": [0.5, 3.0],
        })
        assert main(["fit-decay", "--config", cfg]) == 0
        assert "fit-decay" in capsys.readouterr().out


# Small runs through the CLI: n <= 16, t_end <= 0.04, stack_depth <= 2, fixed c0; the
# bound parameters span what RunConfig accepts
_RUN_DOC = st.fixed_dictionaries({
    "n": st.sampled_from([8, 16]),
    "dt": st.just(0.01),
    "t_end": st.sampled_from([0.0, 0.02, 0.04]),
    "stack_depth": st.integers(0, 2),
    "c0": st.just({"mode": "fixed", "value": 0.23}),
    "alpha": st.floats(1e-18, 1e3),
    "initial_data": st.one_of(
        st.fixed_dictionaries({"kind": st.sampled_from(["taylor_green", "shear"]),
                               "amplitude": st.floats(0.01, 5.0)}),
        st.fixed_dictionaries({"kind": st.just("random_spectrum"),
                               "decay": st.floats(0.0, 4.0), "k_max": st.integers(1, 8),
                               "seed": st.integers(0, 99),
                               "l2_norm": st.none() | st.floats(0.01, 10.0)})),
    "theorem2_n_max": st.integers(0, 3) | st.integers(0, 2048),
    "gamma": st.none() | st.floats(1e-6, 1e3),
    "decay_window": st.sampled_from([[0.01, 0.04], [0.02, 0.03], [1.0, 5.0]]),
})


_CRASH_BASE = {"n": 16, "dt": 0.01, "t_end": 0.04, "stack_depth": 2,
               "c0": {"mode": "fixed", "value": 0.23}}


class TestCliProperty:
    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(doc=_RUN_DOC, command=st.sampled_from(
        ["check-thm1", "check-thm2", "check-thm3", "check-thm4", "ns-run", "fit-decay"]))
    # 2^n, 2^(2 gamma) and (k!)^alpha past the double range, and 1 - 2^(-2 alpha) == 0
    @example(doc=dict(_CRASH_BASE, theorem2_n_max=1024), command="check-thm2")
    @example(doc=dict(_CRASH_BASE, gamma=600.0, decay_window=[0.01, 0.04]), command="check-thm4")
    @example(doc=dict(_CRASH_BASE, alpha=1e-17), command="check-thm1")
    @example(doc=dict(_CRASH_BASE, alpha=100.0, stack_depth=8), command="ns-run")
    # t_end / dt overflows to inf, which has no step count
    @example(doc=dict(_CRASH_BASE, dt=1e-320), command="check-thm2")
    @example(doc=dict(_CRASH_BASE, dt=1e-320), command="check-thm4")
    @example(doc=dict(_CRASH_BASE, dt=1e-320), command="ns-run")
    @example(doc=dict(_CRASH_BASE, dt=1e-320), command="fit-decay")
    # t_end / dt is finite but far past the 10^6-step budget
    @example(doc=dict(_CRASH_BASE, dt=1e-300, initial_data=_small_data(0.3)), command="check-thm1")
    @example(doc=dict(_CRASH_BASE, dt=1e-300), command="check-thm2")
    @example(doc=dict(_CRASH_BASE, dt=1e-300), command="check-thm4")
    @example(doc=dict(_CRASH_BASE, dt=1e-300), command="ns-run")
    @example(doc=dict(_CRASH_BASE, dt=1e-300), command="fit-decay")
    # refused: no snapshot times, data whose |u0|^2 underflows, bound 3's T0 underflowing to 0
    @example(doc=dict(_CRASH_BASE, snapshot_times=[]), command="ns-run")
    @example(doc=dict(_CRASH_BASE, initial_data={"kind": "taylor_green", "amplitude": 1e-160}),
             command="check-thm2")
    @example(doc=dict(_CRASH_BASE, initial_data=_small_data(1e100)), command="check-thm3")
    def test_small_runs_exit_0_1_or_2_without_traceback(self, doc, command):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            cfg = Path(d) / "cfg.json"
            cfg.write_text(json.dumps(doc))
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--out", str(Path(d) / "out")])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestConcurrencyContract:
    def test_fields_are_immutable(self):
        grid = make_grid(32)
        u0 = random_spectrum_field(grid, 2.0, 8, seed=9, l2_norm=1.0)
        for plane in (u0.w, u0.uh, u0.uh[0]):
            with pytest.raises((ValueError, RuntimeError)):
                plane[0, 1] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            u0.w = 2.0 * u0.w


def cfl_violating_doc():
    """Large data with a step far beyond the CFL limit."""
    doc = dict(THM1_CFG)
    doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                           "k_max": 8, "seed": 3, "l2_norm": 80.0}
    doc["dt"] = 0.25
    doc["t_end"] = 1.0
    doc["snapshot_times"] = [0.0, 1.0]
    return doc


class TestStructuredErrors:
    def test_solver_failure_becomes_report_error(self):
        # CFL-violating step on large data -> integration failure in-report
        rep = check_theorem(2, config_from_dict(cfl_violating_doc()))
        assert rep.status == "error"
        assert rep.verdict is False
        assert rep.message

    def test_error_report_exits_2_with_one_line(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfl_violating_doc()))
        out = tmp_path / "out"
        assert main(["check-thm2", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error"
        assert captured.err == f"error: {report['message']}\n"

    def test_thm1_smallness_error_writes_an_error_report(self, tmp_path, capsys):
        # C_alpha is undefined at alpha = 1e-17; bound 1 decides its smallness
        # precondition inside the check, so it reports the error like bounds 2-4
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(_CRASH_BASE, alpha=1e-17)))
        out = tmp_path / "out"
        assert main(["check-thm1", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "error" and report["verdict"] is False
        assert "smallness_value" not in report["params"]
        assert captured.err == f"error: {report['message']}\n"
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]

    # t_end / dt overflows in resolved_snapshots, and so does a listed snapshot time
    @pytest.mark.parametrize("doc", [
        {"dt": 1e-320}, {"dt": 1e-320, "snapshot_times": [1.0]},
        {"dt": 1e-320, "t_end": 0.0, "snapshot_times": [0.0, 1.0]}])
    def test_step_count_overflow_is_a_configuration_error(self, doc):
        cfg = config_from_dict(doc)
        with pytest.raises(ConfigurationError, match="not a finite step count"):
            integrate(make_initial_data(make_grid(cfg.n), cfg.initial_data), cfg.dt,
                      cfg.t_end, cfg.resolved_snapshots())


class TestShearSingleModeEndToEnd:
    def test_thm1_on_exact_shear_matches_closed_form(self):
        # the shear flow solves the full system exactly, so the bound-1 LHS
        # has an incomplete-gamma closed form (single eigenvalue = 1)
        import numpy as np
        from scipy.special import gammainc, gammaln

        amp = 0.05
        cfg = config_from_dict({
            "n": 32, "dt": 0.005, "t_end": 2.0,
            "snapshot_times": [round(0.125 * i, 4) for i in range(17)],
            "stack_depth": 8, "alpha": 1.0,
            "initial_data": {"kind": "shear", "amplitude": amp},
            "c0": {"mode": "fixed", "value": 0.23},
        })
        rep = check_theorem(1, cfg)
        assert rep.status == "ok" and rep.verdict
        E = (amp * np.pi * np.sqrt(2.0)) ** 2
        ln2 = math.log(2.0)

        def lhs_exact(t):
            tot = 0.0
            for k in range(8):
                we = math.exp(-(2 * k) * ln2 - 3.0 * gammaln(k + 1))
                wo = math.exp(-(2 * k + 1) * ln2 - gammaln(k + 1) - 2.0 * gammaln(k + 2))
                tot += (we * t ** (2 * k) + wo * t ** (2 * k + 1)) * math.exp(-2 * t) * E
                for (w, m) in ((we, 2 * k), (wo, 2 * k + 1)):
                    tot += 0.5 * w * E * math.exp(gammaln(m + 1) - (m + 1) * ln2) \
                        * gammainc(m + 1, 2 * t)
            return tot

        for row in rep.rows:
            ref = lhs_exact(row["t"])
            assert abs(row["lhs"] - ref) <= row["err_budget"] + 1e-8 * E


class TestDoublingBoundSmallDataFinding:
    def test_small_data_falsifies_printed_doubling_bound(self):
        # (|u0|^2 e^(...))^(2^n) collapses below |u0|^2 for small data, so the
        # t = 0 row must fail for some n >= 1; the harness reports the finding
        # rather than masking it
        doc = dict(THM1_CFG)
        doc["theorem2_n_max"] = 3
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok"
        assert rep.verdict is False
        assert "smallness" in rep.message
        t0_rows = [r for r in rep.rows if r["t"] == 0.0]
        assert any(not r["ok"] for r in t0_rows)
        # the depth-0 bound (no doubling) still holds for every row
        assert all(r["ok"] for r in rep.rows if r["n"] == 0)
