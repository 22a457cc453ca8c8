"""Demo scripts: every name they import exists, and every demo runs end to end."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def package_imports(path: Path):
    """(module, name) for every `from gevrey_ns... import name` in a script."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gevrey_ns":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_imported_names_exist(path):
    missing = [f"{module}.{name}" for module, name in package_imports(path)
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def test_derivative_stack_demo_runs(capsys):
    runpy.run_path(str(DEMOS[0].with_name("04_derivative_stacks.py")), run_name="__main__")
    out = capsys.readouterr().out
    assert "observed order" in out
    assert "|v_k| =" in out


def test_lemma_audit_demo_runs(capsys):
    runpy.run_path(str(DEMOS[0].with_name("06_lemma_audits.py")), run_name="__main__")
    out = capsys.readouterr().out
    c0 = dict(re.findall(r"n=(\d+): C0 ~ ([0-9.]+)", out))
    assert set(c0) == {"32", "64"}
    assert c0["32"] == c0["64"]


@pytest.mark.parametrize("name, line, count", [
    ("01_heat_semigroup_identity.py", "state-family variant residual", 3),
    ("02_exact_flows.py", "rel err", 6),
    ("02_exact_flows.py", ": 0.000e+00", 2),  # both closed-form advection terms are exactly 0
    ("03_energy_ledger.py", "(ratio 4.00)", 2),
    ("05_bound_checks.py", "status=ok verdict=True", 4),
], ids=["01", "02", "02-advection", "03", "05"])
def test_demo_runs(capsys, name, line, count):
    runpy.run_path(str(DEMOS[0].with_name(name)), run_name="__main__")
    assert capsys.readouterr().out.count(line) == count
