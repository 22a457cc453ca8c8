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


def _numpy_fft_calls(path: Path) -> list[ast.Call]:
    """The calls np.fft.<name>(...) and numpy.fft.<name>(...) in path."""
    return [node for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "fft"
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id in ("np", "numpy")]


def test_every_numpy_fft_call_passes_norm_forward():
    # one normalisation: coefficients map to grid values and back as band_dft does, so every
    # 1-D pass in spectral.py takes norm="forward" and no caller scales a transform; every
    # use of numpy.fft there is such a call, so no alias or import slips past the scan
    path = ROOT / "src" / "gevrey_ns" / "spectral.py"
    calls = _numpy_fft_calls(path)
    assert calls and sorted(c.lineno for c in calls) == sorted(_numpy_fft_uses(path))
    for call in calls:
        norm = [k.value for k in call.keywords if k.arg == "norm"]
        assert len(norm) == 1 and isinstance(norm[0], ast.Constant) \
            and norm[0].value == "forward", f"spectral.py:{call.lineno}: {ast.unparse(call)}"


def test_only_spectral_calls_numpy_fft():
    # every FFT goes through spectral.rfft2/irfft2, which the fft_calls fixture counts; the
    # advection kernel below n = 64 and the C0 ascent's cap grid use spectral.BandDFT products
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


_GRID_TABLES = {"k_sq", "lift", "dealias", "k1", "k2"}


def _packed_grid_tables(path: Path) -> list[str]:
    """Calls pack(...) in path whose arguments read a Grid table, directly or through a
    name assigned from one (a .shape, .dtype or .ndim read does not count)."""
    tree = ast.parse(path.read_text())

    def reads_table(node, tainted):
        meta = {id(a.value) for a in ast.walk(node)
                if isinstance(a, ast.Attribute) and a.attr in ("shape", "dtype", "ndim")}
        return any((isinstance(a, ast.Attribute) and a.attr in _GRID_TABLES
                    and id(a) not in meta) or (isinstance(a, ast.Name) and a.id in tainted)
                   for a in ast.walk(node))

    tainted: set[str] = set()
    while True:  # names assigned from a table, or from such a name, to a fixed point
        grown = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and reads_table(node.value, tainted)
                 for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        if grown <= tainted:
            break
        tainted |= grown
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "pack" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(reads_table(a, tainted) for a in node.args[1:])]


def test_only_spectral_packs_a_grid_table():
    # spectral._band_kernel builds the band tables once per grid size and a Workspace hands
    # them out (Workspace.k_sq is the band |xi|^2), so no other module packs a Grid table
    package = ROOT / "src" / "gevrey_ns"
    assert _packed_grid_tables(package / "spectral.py")  # the scan sees the kernel's packs
    found = [hit for p in sorted(package.glob("*.py")) if p.name != "spectral.py"
             for hit in _packed_grid_tables(p)]
    assert not found, found


def test_workspace_takes_a_grid_and_a_depth():
    # every Workspace contracts the two traceless planes: no plane-count option
    import inspect

    from gevrey_ns.spectral import Workspace
    params = list(inspect.signature(Workspace.__init__).parameters.values())[1:]
    assert [(p.name, p.default) for p in params] == [("grid", inspect.Parameter.empty),
                                                      ("depth", 1)]


def test_derivatives_builds_every_stack():
    # one recursion for derivative stacks: stokes.py holds the heat flow's closed forms and
    # imports nothing from derivatives, which builds the heat flow's stack too
    from gevrey_ns import stokes_derivative_stack
    from_derivatives = [node.lineno for node in ast.walk(ast.parse(
        (ROOT / "src" / "gevrey_ns" / "stokes.py").read_text()))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        and (node.module == "derivatives" or node.module is None
             and any(a.name == "derivatives" for a in node.names))]
    assert from_derivatives == []
    assert stokes_derivative_stack.__module__ == "gevrey_ns.derivatives"
