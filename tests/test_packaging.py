"""The package runs on numpy alone (no scipy at import time or in its metadata), and keeps
the names the benchmark looks up."""

import os
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


def test_benchmark_lookup_sites_resolve(monkeypatch):
    # bench/run.py --trace 1 wraps these module attributes by name; read them, wrap nothing
    import importlib.util

    import gevrey_ns.spectral
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses look themselves up
    spec.loader.exec_module(run)
    sites = run.trace_sites(run.Tracer())
    assert sites
    for module, attr, *_ in sites:
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"
    for attr in ("rfft2", "irfft2"):
        assert callable(getattr(gevrey_ns.spectral, attr))
