"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with -s to see the per-criterion lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from gevrey_ns import (c_alpha, check_theorem, config_from_dict,
                       energy_ledger, estimate_c0, fd_convergence_check,
                       integrate, lemma_audit_ccc0, lemma_audit_convolution,
                       make_grid, norm_l2, random_spectrum_field, shear_flow,
                       stokes_gevrey_identity, taylor_green,
                       time_derivative_stack)

SQRT2_PI = np.pi * np.sqrt(2.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def c0_estimate():
    return estimate_c0(make_grid(32), n_samples=5, ascent_steps=80, seed=0).value


def test_criterion_1_stokes_gevrey_identity():
    start = time.monotonic()
    grid = make_grid(32)
    unit = shear_flow(grid, 1.0 / SQRT2_PI)
    rep = stokes_gevrey_identity(unit, 1.0, 40)
    ok = (abs(rep.state_term - math.exp(-1.0)) < 1e-12
          and abs(rep.integral_term - (1.0 - math.exp(-1.0))) < 1e-12
          and abs(rep.total - 1.0) <= 1e-10)
    worst = abs(rep.total - 1.0)
    rnd = random_spectrum_field(grid, 2.0, 12, seed=3, l2_norm=1.0)
    for t in (0.1, 1.0, 5.0):
        r = stokes_gevrey_identity(rnd, t, 40)
        ok = ok and abs(r.residual) <= 1e-8 + r.tail_bound
        worst = max(worst, abs(r.residual))
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _report(1, ok, f"worst residual {worst:.3e}, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_exact_flow_solver_fidelity():
    start = time.monotonic()
    grid = make_grid(32)
    tg = taylor_green(grid, 1.0)
    traj = integrate(tg, dt=1e-3, t_end=1.0, snapshot_times=[0.0, 1.0])
    u1 = traj.fields[-1]
    expect = math.exp(-2.0) * SQRT2_PI
    norm_err = abs(norm_l2(u1) - expect) / expect
    ok = norm_err <= 1e-6
    stack = time_derivative_stack(u1, 8, t=1.0)
    worst_k = 0.0
    for k in range(stack.depth + 1):
        ref = ((-2.0) ** k) * u1
        worst_k = max(worst_k, norm_l2(stack.raw(k) - ref) / norm_l2(ref))
    ok = ok and worst_k <= 1e-8
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _report(2, ok, f"|u(1)| rel err {norm_err:.2e}, stack rel err {worst_k:.2e}, "
                   f"runtime {elapsed:.1f}s < 10s")


def test_criterion_3_energy_ledger():
    start = time.monotonic()
    grid = make_grid(32)
    u0 = random_spectrum_field(grid, 3.0, 6, seed=11, l2_norm=1.0)
    r = []
    for dt in (2.5e-4, 1.25e-4):
        traj = integrate(u0, dt=dt, t_end=2.0, snapshot_times=[0.0, 1.0, 2.0])
        r.append(energy_ledger(traj).max_abs)
    ratio = r[0] / r[1]
    elapsed = time.monotonic() - start
    ok = r[0] <= 1e-7 and ratio >= 3.5 and elapsed < 30.0
    _report(3, ok, f"max residual {r[0]:.3e} <= 1e-7, halving ratio {ratio:.2f} >= 3.5, "
                   f"runtime {elapsed:.1f}s < 30s")


def test_criterion_4_finite_difference_oracle():
    grid = make_grid(32)
    dt = 2.5e-3
    hs = [4 * dt, 2 * dt, dt]
    t_mid = 0.5
    snaps = sorted({0.0, t_mid} | {round(t_mid + s * h, 10) for h in hs for s in (1, -1)})
    orders = {}
    for name, u0 in (("taylor_green", taylor_green(grid, 1.0)),
                     ("random", random_spectrum_field(grid, 2.0, 6, seed=12, l2_norm=0.25))):
        traj = integrate(u0, dt=dt, t_end=t_mid + max(hs), snapshot_times=snaps)
        orders[name] = fd_convergence_check(traj, t_mid, 1, hs).observed_order
    ok = all(o >= 1.9 for o in orders.values())
    _report(4, ok, "observed orders " +
            ", ".join(f"{k}={v:.3f}" for k, v in orders.items()) + " >= 1.9")


def test_criterion_5_small_data_bound(c0_estimate):
    start = time.monotonic()
    ca = c_alpha(1.0)
    target = 0.9 / (8.0 * c0_estimate * ca)
    worst_margin = math.inf
    violations = 0
    for seed in range(20):
        cfg = config_from_dict({
            "n": 32, "dt": 0.005, "t_end": 5.0,
            "snapshot_times": [round(0.5 * i, 3) for i in range(11)],
            "stack_depth": 8, "seed": seed, "alphas": [1.0],
            "initial_data": {"kind": "random_spectrum", "decay": 2.0,
                             "k_max": 8, "seed": seed, "l2_norm": target},
            "c0": {"mode": "fixed", "value": c0_estimate},
        })
        rep = check_theorem(1, cfg)
        assert rep.status == "ok"
        for row in rep.rows:
            worst_margin = min(worst_margin, row["margin"] + row["err_budget"])
            if row["margin"] < -row["err_budget"]:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300.0
    _report(5, ok, f"20 data sets, 8 C0 C_a |u0| = 0.9; hard violations {violations}, "
                   f"worst margin+budget {worst_margin:.3e}, runtime {elapsed:.0f}s < 300s")


def test_criterion_6_large_data_bound(c0_estimate):
    start = time.monotonic()
    violations = 0
    checked = 0
    for i, u0_norm in enumerate([2.0] * 5 + [5.0] * 5):
        cfg = config_from_dict({
            "n": 32, "dt": 0.002, "t_end": 1.0,
            "snapshot_times": [0.0, 0.25, 0.5, 0.75, 1.0],
            "stack_depth": 8, "seed": 40 + i, "alphas": [1.0],
            "initial_data": {"kind": "random_spectrum", "decay": 2.0,
                             "k_max": 8, "seed": 40 + i, "l2_norm": u0_norm},
            "c0": {"mode": "fixed", "value": c0_estimate},
            "theorem2_n_max": 4,
        })
        sm = 8.0 * c0_estimate * c_alpha(1.0) * u0_norm
        assert sm >= 1.0, "these data sets must violate the smallness condition"
        rep = check_theorem(2, cfg)
        assert rep.status == "ok"
        for row in rep.rows:
            checked += 1
            if not math.isfinite(row["rhs"]):
                continue  # rhs above double range: log-space margin is trivially positive
            if row["lhs"] > row["rhs"] + row["err_budget"]:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0 and elapsed < 300.0
    _report(6, ok, f"10 data sets x n<=4, {checked} rows, violations {violations}, "
                   f"runtime {elapsed:.0f}s < 300s")


def test_criterion_7_fluctuation_bound(c0_estimate):
    start = time.monotonic()
    violations = 0
    t0s = []
    for i, u0_norm in enumerate([2.0] * 5 + [5.0] * 5):
        cfg = config_from_dict({
            "n": 32, "dt": 0.002, "t_end": 1.0,
            "stack_depth": 8, "seed": 40 + i, "alphas": [1.0],
            "initial_data": {"kind": "random_spectrum", "decay": 2.0,
                             "k_max": 8, "seed": 40 + i, "l2_norm": u0_norm},
            "c0": {"mode": "fixed", "value": c0_estimate},
        })
        rep = check_theorem(3, cfg)
        assert rep.status == "ok"
        t0s.append(rep.params["T0"])
        rows = rep.rows
        assert rows[0]["t"] == 0.0 and rows[0]["rhs"] == 0.0 and rows[0]["lhs"] == 0.0
        # LHS -> 0 as t -> 0: the first positive-time row must already be tiny
        assert rows[1]["lhs"] <= rows[1]["rhs"]
        for row in rows:
            if row["margin"] < -row["err_budget"]:
                violations += 1
    elapsed = time.monotonic() - start
    ok = violations == 0
    _report(7, ok, f"10 data sets, T0 range [{min(t0s):.2e}, {max(t0s):.2e}], "
                   f"violations {violations}, runtime {elapsed:.0f}s")


def test_criterion_8_accelerated_decay_bound(c0_estimate):
    cfg = config_from_dict({
        "n": 32, "dt": 0.005, "t_end": 5.0,
        "snapshot_times": [round(0.25 * i, 3) for i in range(21)],
        "stack_depth": 8, "seed": 7, "alphas": [1.0],
        "initial_data": {"kind": "random_spectrum", "decay": 3.0,
                         "k_max": 6, "seed": 7, "l2_norm": 1.0},
        "c0": {"mode": "fixed", "value": c0_estimate},
        "decay_window": [1.0, 5.0],
    })
    rep = check_theorem(4, cfg)
    ok = rep.status == "ok" and rep.verdict and len(rep.rows) > 0
    violations = sum(1 for r in rep.rows if r["margin"] < -r["err_budget"])
    ok = ok and violations == 0
    _report(8, ok, f"K_fit {rep.params.get('K_fit', float('nan')):.3f}, "
                   f"gamma_fit {rep.params.get('gamma_fit', float('nan')):.3f}, "
                   f"t0 {rep.params.get('t0', float('nan')):.3f}, "
                   f"{len(rep.rows)} rows checked, violations {violations}")


def test_criterion_9_lemma_audits():
    start = time.monotonic()
    conv = lemma_audit_convolution(10_000, 32, seed=0)
    ccc0_a = lemma_audit_ccc0(20, [0.5, 1.0, 2.0])
    ccc0_b = lemma_audit_ccc0(20, [0.5, 1.0, 2.0])
    elapsed = time.monotonic() - start
    ok = (conv.worst_ratio <= 1.0 + 1e-12
          and not ccc0_a.corrected_violations
          and ccc0_a.printed_violations == ccc0_b.printed_violations
          and (6, 1, 1.0) in ccc0_a.printed_violations
          and elapsed < 1.0)
    _report(9, ok, f"convolution worst ratio {conv.worst_ratio:.12f} <= 1, corrected bound "
                   f"clean to k=20, printed violations deterministic "
                   f"({len(ccc0_a.printed_violations)} entries incl. (6,1,1)), "
                   f"runtime {elapsed:.2f}s < 1s")


def test_criterion_10_c0_stability(c0_estimate):
    c0_64 = estimate_c0(make_grid(64), n_samples=5, ascent_steps=80, seed=0).value
    rel = abs(c0_estimate - c0_64) / c0_64
    ok = c0_estimate >= 0.194 and rel <= 0.05
    _report(10, ok, f"C0(32) = {c0_estimate:.5f} >= 0.194, "
                    f"cross-resolution drift {rel:.2e} <= 0.05")
