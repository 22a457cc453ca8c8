"""A flat-spectrum stress set: data on which today's rows are decided by their error budget.

The acceptance data are decay-2/3 spectra, where quad_err stays under 1% of
the RHS.  Here random_spectrum data with decay 0 and decay 1 (k_max 10,
seed 3, n = 32) sit at 8 C0 C_alpha |u0| = 0.9 for bound 1 and at 5x that
|u0| for bound 2.  On the default schedule (11 snapshots) most of these rows
pass only by their budget; each set's reference is the same check with
snapshots every 2 steps, built once per session.  The tests assert only
what holds today: each default-schedule verdict equals its reference
verdict, and each reference's lhs/rhs lies below 1 after t = 0.  Bound 4 at
gamma 0.5 on decay-3 data, with snapshots every 0.25, still exits 1.  Do
not resize, re-seed or rescale the set to hide a fault.
"""

import json
import math

import pytest

from gevrey_ns import c_alpha, check_theorem, config_from_dict
from gevrey_ns.cli import main

C0 = 0.232073  # the estimate-c0 default (6 starts, seed 0)
SMALL_L2 = 0.9 / (8.0 * C0 * c_alpha(1.0))  # 8 C0 C_alpha |u0| = 0.9 at alpha = 1
BASE = {"n": 32, "dt": 0.0025, "t_end": 2.0, "stack_depth": 8,
        "c0": {"mode": "fixed", "value": C0}}
DECAYS = (0.0, 1.0)


def _data(decay, l2_norm):
    return {"kind": "random_spectrum", "decay": decay, "k_max": 10, "seed": 3,
            "l2_norm": l2_norm}


def _doc(theorem_id, decay):
    l2_norm = SMALL_L2 if theorem_id == 1 else 5.0 * SMALL_L2
    return dict(BASE, initial_data=_data(decay, l2_norm))


def _every_2_steps(doc):
    steps = round(doc["t_end"] / doc["dt"])
    return dict(doc, snapshot_times=[i * doc["dt"] for i in range(0, steps + 1, 2)])


@pytest.fixture(scope="session")
def stress_reports():
    """(theorem_id, decay) -> (default-schedule report, reference report)."""
    return {(i, decay): tuple(check_theorem(i, config_from_dict(doc))
                              for doc in (_doc(i, decay), _every_2_steps(_doc(i, decay))))
            for i in (1, 2) for decay in DECAYS}


@pytest.mark.parametrize("decay", DECAYS)
@pytest.mark.parametrize("theorem_id", [1, 2])
def test_default_schedule_verdict_matches_the_reference(stress_reports, theorem_id, decay):
    default, ref = stress_reports[theorem_id, decay]
    assert default.status == ref.status == "ok"
    assert len(default.rows) == 11 * (1 if theorem_id == 1 else 5)
    assert default.verdict == ref.verdict


@pytest.mark.parametrize("decay", DECAYS)
@pytest.mark.parametrize("theorem_id", [1, 2])
def test_reference_lhs_stays_below_the_rhs(stress_reports, theorem_id, decay):
    # bound 1's t = 0 row is the identity lhs = rhs = |u0|^2, so the ratio is read after it
    _, ref = stress_reports[theorem_id, decay]
    ratios = [r["lhs"] / r["rhs"] for r in ref.rows if r["t"] > 0 and r["rhs"] < math.inf]
    assert len(ratios) == 400 * (1 if theorem_id == 1 else 5)
    assert max(ratios) < 1.0


def test_bound4_at_gamma_half_still_fails(tmp_path):
    # snapshots every 0.25, as where the finding was made; the default schedule's 11
    # snapshots pass every row by its budget
    doc = dict(BASE, t_end=5.0, gamma=0.5, initial_data=_data(3.0, 1.0),
               snapshot_times=[0.25 * i for i in range(21)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["check-thm4", "--config", str(cfg), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok" and report["rows"]
