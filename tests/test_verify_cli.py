"""Orchestration layer: constant estimation, theorem reports, CLI, file formats."""

import json
import math

import numpy as np
import pytest

from gevrey_ns import (ConfigurationError, check_theorem, config_from_dict,
                       estimate_c0, make_grid, norm_grad_l2, norm_l2, norm_l4,
                       random_spectrum_field)
from gevrey_ns.cli import main
from gevrey_ns.reporting import json_dumps

THM1_CFG = {
    "n": 32, "dt": 0.005, "t_end": 1.0,
    "snapshot_times": [0.0, 0.25, 0.5, 0.75, 1.0],
    "stack_depth": 6, "seed": 3,
    "initial_data": {"kind": "random_spectrum", "decay": 2.0, "k_max": 8,
                     "seed": 3, "l2_norm": 0.3},
    "c0": {"mode": "fixed", "value": 0.23},
    "theorems": [1],
}


@pytest.fixture(scope="module")
def c0_32():
    return estimate_c0(make_grid(32), n_samples=5, ascent_steps=80, seed=0)


class TestEstimateC0:
    def test_shear_lower_bound(self, c0_32):
        # the shear mode alone gives sqrt(3/2) / (2 pi) ~ 0.19495
        assert c0_32.value >= 0.194
        assert c0_32.sample_values[0] >= 0.194

    def test_running_max_nondecreasing(self):
        grid = make_grid(32)
        vals = [estimate_c0(grid, n_samples=k, ascent_steps=40, seed=0).value
                for k in (1, 3, 5)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_deterministic(self):
        grid = make_grid(32)
        a = estimate_c0(grid, n_samples=3, ascent_steps=30, seed=4)
        b = estimate_c0(grid, n_samples=3, ascent_steps=30, seed=4)
        assert a.value == b.value

    def test_interpolation_inequality_dominates_fresh_fields(self, c0_32):
        grid = make_grid(32)
        for seed in range(20):
            z = random_spectrum_field(grid, 2.0, 8, seed=100 + seed, l2_norm=1.0)
            lhs = norm_l4(z) ** 2
            rhs = c0_32.value * (1.0 + 1e-6) * norm_l2(z) * norm_grad_l2(z)
            assert lhs <= rhs

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

    def test_thm1_zero_horizon_single_row(self):
        doc = dict(THM1_CFG)
        doc["t_end"] = 0.0
        doc["snapshot_times"] = [0.0]
        rep = check_theorem(1, config_from_dict(doc))
        assert len(rep.rows) == 1
        assert rep.rows[0]["margin"] == 0.0
        assert rep.verdict

    def test_thm2_large_data(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 5, "l2_norm": 3.0}
        doc["theorems"] = [2]
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

    def test_thm4_fit_and_origin(self):
        doc = dict(THM1_CFG)
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 3.0,
                               "k_max": 6, "seed": 7, "l2_norm": 1.0}
        doc["theorems"] = [4]
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


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            config_from_dict({"n": 32, "dtt": 0.1})

    def test_bad_c0_mode(self):
        with pytest.raises(ConfigurationError, match="c0 mode"):
            config_from_dict({"c0": {"mode": "guess"}})

    def test_bad_alphas(self):
        with pytest.raises(ConfigurationError, match="alphas"):
            config_from_dict({"alphas": [1.0, -2.0]})

    @pytest.mark.parametrize("bad", [-1, 1.5, "3", True, None])
    def test_bad_theorem2_n_max(self, bad):
        with pytest.raises(ConfigurationError, match="theorem2_n_max"):
            config_from_dict({"theorem2_n_max": bad})

    def test_roundtrip(self):
        cfg = config_from_dict(THM1_CFG)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg


class TestReportingFormat:
    def test_float_formatting_roundtrip(self):
        doc = {"x": 1.0 / 3.0, "y": [1e-300, 2.5, float("inf")], "s": "a\"b"}
        text = json_dumps(doc)
        assert "0.33333333333333331" in text
        back = json.loads(text.replace("Infinity", "1e999"))
        assert back["x"] == 1.0 / 3.0

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
            "n": 32, "t_end": 1.0, "truncation": 40,
            "initial_data": {"kind": "shear", "amplitude": 1.0 / (np.pi * np.sqrt(2.0))},
        })
        code = main(["stokes-verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] is True
        assert abs(report["rows"][0]["residual"]) <= 1e-10

    def test_audit_lemmas_outputs(self, tmp_path):
        code = main(["audit-lemmas", "--alpha", "1", "--out", str(tmp_path / "r")])
        assert code == 0
        csv_text = (tmp_path / "r" / "audit_ccc0.csv").read_text().splitlines()
        assert csv_text[0] == "k,j,alpha,ratio,printed_bound,corrected_bound,printed_ok,corrected_ok"
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["ccc0"]["corrected_violation_count"] == 0
        assert [6, 1, 1.0] in report["ccc0"]["printed_violations_sample"] or \
            report["ccc0"]["printed_violation_count"] > 0

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

    def test_byte_identical_reports(self, tmp_path):
        cfg = self._write_cfg(tmp_path, THM1_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["check-thm1", "--config", cfg, "--out", str(a)]) == 0
        assert main(["check-thm1", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["check-thm1", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = self._write_cfg(tmp_path, {"n": 32, "bogus": True})
        assert main(["ns-run", "--config", cfg]) == 2

    def test_negative_theorem2_n_max_exits_2(self, tmp_path, capsys):
        doc = dict(THM1_CFG, theorems=[2], theorem2_n_max=-1)
        assert main(["check-thm2", "--config", self._write_cfg(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "theorem2_n_max" in captured.err

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["stokes-verify", "--frobnicate"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_json_flag_prints_report(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {
            "n": 32, "t_end": 0.5, "truncation": 40,
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


class TestConcurrencyContract:
    def test_thread_count_reproducibility(self, monkeypatch):
        grid = make_grid(32)
        u0 = random_spectrum_field(grid, 2.0, 8, seed=9, l2_norm=1.0)
        from gevrey_ns import integrate, nonlinear_term

        def snapshot_norms():
            traj = integrate(u0, dt=2e-3, t_end=0.1, snapshot_times=[0.0, 0.1])
            return norm_l2(traj.fields[-1]), norm_l2(nonlinear_term(u0, u0))

        monkeypatch.setenv("GEVREY_NS_THREADS", "1")
        a = snapshot_norms()
        monkeypatch.setenv("GEVREY_NS_THREADS", "2")
        b = snapshot_norms()
        for x, y in zip(a, b):
            assert abs(x - y) <= 1e-13 * max(abs(x), 1.0)

    def test_fields_are_immutable(self):
        grid = make_grid(32)
        u0 = random_spectrum_field(grid, 2.0, 8, seed=9, l2_norm=1.0)
        with pytest.raises((ValueError, RuntimeError)):
            u0.u1[0, 1] = 5.0
        import dataclasses
        with pytest.raises(dataclasses.FrozenInstanceError):
            u0.u1 = u0.u2


class TestStructuredErrors:
    def test_solver_failure_becomes_report_error(self):
        doc = dict(THM1_CFG)
        # CFL-violating step on large data -> integration failure in-report
        doc["initial_data"] = {"kind": "random_spectrum", "decay": 2.0,
                               "k_max": 8, "seed": 3, "l2_norm": 0.3}
        doc["dt"] = 0.25
        doc["t_end"] = 1.0
        doc["snapshot_times"] = [0.0, 1.0]
        doc["initial_data"]["l2_norm"] = 80.0
        doc["theorems"] = [2]
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "error"
        assert rep.verdict is False
        assert rep.message


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
            "stack_depth": 8, "alphas": [1.0],
            "initial_data": {"kind": "shear", "amplitude": amp},
            "c0": {"mode": "fixed", "value": 0.23},
            "theorems": [1],
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
        doc["theorems"] = [2]
        doc["theorem2_n_max"] = 3
        rep = check_theorem(2, config_from_dict(doc))
        assert rep.status == "ok"
        assert rep.verdict is False
        assert "smallness" in rep.message
        t0_rows = [r for r in rep.rows if r["t"] == 0.0]
        assert any(not r["ok"] for r in t0_rows)
        # the depth-0 bound (no doubling) still holds for every row
        assert all(r["ok"] for r in rep.rows if r["n"] == 0)
