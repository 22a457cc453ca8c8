"""The package runs on numpy alone (no scipy at import time or in its metadata), keeps
the names the benchmark looks up, calls numpy.fft from spectral.py only, and its README
lists the CLI's subcommands, their options and the config's keys, and every config key
is read."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_scipy():
    code = ("import sys; import gevrey_ns.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=ROOT, env=env)
    assert out.stdout.strip() == "[]"


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert meta["dependencies"] == ["numpy>=2.0"]
    assert "scipy" in meta["optional-dependencies"]["test"]


def _bench_run(monkeypatch):
    """bench/run.py, loaded as a module."""
    import importlib.util

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look themselves up
    spec.loader.exec_module(run)
    return run


def test_benchmark_lookup_sites_resolve(monkeypatch):
    # bench/run.py --trace 1 wraps these module attributes by name; read them, wrap nothing
    import gevrey_ns.spectral
    run = _bench_run(monkeypatch)
    sites = run.trace_sites(run.Tracer())
    assert sites
    for module, attr, *_ in sites:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    for attr in ("rfft2", "irfft2"):
        assert callable(getattr(gevrey_ns.spectral, attr))


def test_benchmark_baseline_table_runs(monkeypatch):
    # --trace 1 times step() and a K = 8 stack through the public API; one call of each
    # per grid size shows that the table still runs against the package
    run = _bench_run(monkeypatch)
    calls = []

    def once(fn, budget_s, min_reps):
        calls.append(fn())
        return 0.0
    monkeypatch.setattr(run, "_median_time", once)
    table = run.baseline_table()
    assert set(table) == {f"{layer}.n{n}" for n in (32, 64, 128)
                          for layer in ("solver.step_ms", "derivatives.stack8_ms")}
    assert len(calls) == 6 and all(value == (0.0, "ms", None) for value in table.values())


def _numpy_fft_uses(path: Path) -> list[int]:
    """Lines of path that reach numpy.fft: np.fft / numpy.fft attributes or imports of it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "fft" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.fft") or (
                node.module == "numpy" and any(a.name == "fft" for a in node.names))
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.fft") for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return lines


def test_only_spectral_calls_numpy_fft():
    # every FFT goes through spectral.rfft2/irfft2, which the fft_calls fixture and the
    # benchmark's tracer count; the C0 ascent's cap grid uses spectral.BandDFT products
    package = ROOT / "src" / "gevrey_ns"
    assert _numpy_fft_uses(package / "spectral.py")
    others = {p.name: _numpy_fft_uses(p) for p in sorted(package.glob("*.py"))
              if p.name != "spectral.py"}
    assert others and not any(others.values()), others


def _private_sibling_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that path imports from a sibling module of the package."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names += [f"{node.lineno}: {node.module}.{a.name}" for a in node.names
                      if a.name.startswith("_")]
    return names


def test_no_module_imports_a_private_name_from_a_sibling():
    # a name another module needs is public; function-local imports count too
    package = ROOT / "src" / "gevrey_ns"
    found = {p.name: _private_sibling_imports(p) for p in sorted(package.glob("*.py"))}
    assert found and not any(found.values()), found


def test_readme_lists_every_subcommand_in_order():
    from gevrey_ns import cli
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"^Subcommands: (.*?)\.$", text, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", listed) == list(cli._COMMANDS)


def test_readme_config_table_lists_every_key_in_order():
    from gevrey_ns import RunConfig
    text = (ROOT / "README.md").read_text()
    table = re.search(r"^### Config schema$(.*?)^###", text, re.M | re.S).group(1)
    assert re.findall(r"^\| `(\w+)` \|", table, re.M) == list(RunConfig.__dataclass_fields__)


def test_every_config_key_is_read_outside_config():
    # no config key that nothing reads: each RunConfig field is read as cfg.<key> or
    # config.<key> by some module other than config.py
    from gevrey_ns import RunConfig
    package = ROOT / "src" / "gevrey_ns"
    read = set()
    for p in package.glob("*.py"):
        if p.name != "config.py":
            read |= set(re.findall(r"\b(?:cfg|config)\.(\w+)\b", p.read_text()))
    assert set(RunConfig.__dataclass_fields__) - read == set()


def test_readme_synopsis_lists_every_option_in_order():
    from gevrey_ns import cli
    text = (ROOT / "README.md").read_text()
    synopsis = re.search(r"^gevrey-ns <subcommand> (.*?)\n```", text, re.M | re.S).group(1)
    listed = re.findall(r"\[(--[\w-]+)", synopsis)
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        options = [a.option_strings[-1] for a in parser._actions if a.dest != "help"]
        assert options == listed, name
