"""Smoke test of the benchmark itself, on tiny workloads (a few seconds).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
_FIXED = {"mode": "fixed", "value": run.C0}

# The real workloads shrunk to n = 16 and a few steps; names and commands kept.
TINY = {
    "thm1-n32": replace(run.WORKLOADS["thm1-n32"], item_s=1.0, base={
        "n": 16, "dt": 0.01, "t_end": 0.1, "stack_depth": 3, "c0": _FIXED}),
    "thm2-deep-n128": replace(run.WORKLOADS["thm2-deep-n128"], item_s=1.0, base={
        "n": 16, "dt": 0.002, "t_end": 0.01, "stack_depth": 3,
        "snapshot_times": [0.0, 0.004, 0.01], "theorem2_n_max": 1, "c0": _FIXED}),
    "thm3-c0est-n32": replace(run.WORKLOADS["thm3-c0est-n32"], item_s=1.0, base={
        "n": 16, "dt": 0.002, "t_end": 0.016, "stack_depth": 3,
        "c0": {"mode": "estimate", "n_samples": 2, "ascent_steps": 3}}),
}


def _main(capsys, workload: str, trace: int):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "6",
                   "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.splitlines()
    return rc, lines[:-1], json.loads(lines[-1])


def _items(workload: str, seed: int, tmp_path: Path, tag: str = "item"):
    w = TINY[workload]
    cli = run.import_program()
    closed, items = run.make_items(w, seed)
    return run.run_items(cli, w, [closed] + items, tmp_path, tag)


@pytest.mark.parametrize("workload,trace,kind", [
    ("thm1-n32", 0, "end_to_end"),
    ("thm2-deep-n128", 1, "per_layer"),
])
def test_every_declared_metric_is_printed_with_its_unit(capsys, workload, trace, kind):
    rc, lines, result = _main(capsys, workload, trace)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {f[0]: (f[1], f[2]) for f in map(str.split, lines) if len(f) >= 3}
    for name, unit in declared.items():
        assert printed[name][1] == unit, name
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["solver.fft_planes_per_step"] == 20
        assert metrics["derivatives.nonlinear_calls_per_stack"] == 4  # K = 3
    else:
        assert printed["failed_frac"] == ("0", "ratio")


def _nan_lhs(real):
    def write_json(doc, path):
        rows = [{**doc["rows"][0], "lhs": math.nan}] + doc["rows"][1:]
        return real({**doc, "rows": rows}, path)
    return write_json


def _error_status(real):
    return lambda doc, path: real({**doc, "status": "error"}, path)


def _off_closed_form(real):
    """Moves the closed-form item's last l2_norm by 1e-5 relative."""
    def write_trajectory_csv(traj, path):
        p = Path(real(traj, path))
        lines = p.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-5))
        p.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        return p
    return write_trajectory_csv


def _raises(real):
    def check_theorem(*args):
        raise RuntimeError("injected")
    return check_theorem


@pytest.mark.parametrize("site,make_fake", [
    ("write_json", _nan_lhs),
    ("write_json", _error_status),
    ("write_trajectory_csv", _off_closed_form),
    ("check_theorem", _raises),
])
def test_corrupted_item_counts_as_failed(monkeypatch, tmp_path, site, make_fake):
    """The closed-form item, run first, is corrupted at a CLI lookup site."""
    cli = run.import_program()
    real = getattr(cli, site)
    fake = make_fake(real)
    calls = []

    def first_call_only(*args):
        calls.append(args)
        return (fake if len(calls) == 1 else real)(*args)

    monkeypatch.setattr(cli, site, first_call_only)
    outcomes = _items("thm1-n32", 5, tmp_path)
    assert outcomes[0].problems and not any(o.problems for o in outcomes[1:])
    assert run.failed_frac(outcomes) == 1 / len(outcomes)
    ok_frac = run.end_to_end([outcomes], [1.0], outcomes)["ok_frac"][0]
    assert ok_frac == 1 - 1 / len(outcomes)


def test_same_seed_gives_same_digest(tmp_path):
    a = _items("thm3-c0est-n32", 7, tmp_path, "a")
    b = _items("thm3-c0est-n32", 7, tmp_path, "b")
    c = _items("thm3-c0est-n32", 8, tmp_path, "c")
    assert not any(o.problems for o in a + b + c)
    assert [o.digest for o in a] == [o.digest for o in b]
    assert run.run_digest(a) != run.run_digest(c)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "thm1-n32",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
