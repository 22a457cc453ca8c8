"""Benchmark of gevrey-ns: theorem checks driven end to end through its CLI.

Run from the repository root:

    python3 bench/run.py --workload thm1-n32 --seed 0 --seconds 25 --trace 0

Every item is one in-process call of ``gevrey_ns.cli.main(argv)`` on a
config file generated from --seed, so config loading, the whole check
pipeline and report writing are on the measured path.  One caller issues
the items in a closed loop, a closed-form item once and then repeated
rounds of random items.  Every item's outputs are checked.  --trace 0
prints the end-to-end metrics; --trace 1 runs the rounds untraced and
traced in turn and prints the per-layer metrics.  The last stdout line is
one JSON object; see bench/README.md for every metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

C0 = 0.22715  # C0(32), the value acceptance criterion 10 pins
SMALL_L2 = 0.9 / (8.0 * C0 * math.sqrt(4.0 / 3.0))  # 8 C0 C_alpha |u0| = 0.9 at alpha = 1
SETUP_SAMPLES = 5  # the run's own set-up plus fresh interpreters
ORACLE_RTOL = 1e-6

# ROADMAP baseline (ms, one FFT worker); a measurement off by more than 2x is flagged.
BASELINE_MS = {"solver.step_ms": {32: 1.0, 64: 2.0, 128: 9.0},
               "derivatives.stack8_ms": {32: 10.2, 64: 23.0, 128: 102.0}}


class BenchError(Exception):
    """The program cannot be benchmarked here (missing or broken)."""


@dataclass(frozen=True)
class Workload:
    """A family of theorem-check items.

    A run checks one closed-form item, whose L2 norm decays exactly like
    exp(-|xi|^2 t) with oracle = (kind, |u0|, |xi|^2), then repeats a round
    of round_items random items whose |u0| is drawn from norms.  item_s is
    one item's cost when the benchmark was defined; it fixes the number of
    rounds for a given --seconds, so a faster program runs the same rounds
    in less time.
    """

    name: str
    command: str
    base: dict
    norms: tuple
    oracle: tuple
    round_items: int
    item_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / (self.round_items * self.item_s)))


@dataclass(frozen=True)
class Item:
    name: str
    doc: dict
    l2: float
    decay_rate: float | None  # set on the closed-form item only


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    digest: str  # sha256 of report.json bytes
    problems: list[str]


_FIXED_C0 = {"mode": "fixed", "value": C0}

WORKLOADS = {w.name: w for w in (
    # Bound 1 (acceptance 5): 1000 IF-RK4 steps dominate; stacks are K = 8.
    Workload("thm1-n32", "check-thm1",
             {"n": 32, "dt": 0.005, "t_end": 5.0, "stack_depth": 8, "c0": _FIXED_C0},
             norms=(SMALL_L2,), oracle=("taylor_green", SMALL_L2, 2.0),
             round_items=2, item_s=0.9),
    # Bound 2 on large data: 21 K = 12 stacks at n = 128 dominate time and memory.
    Workload("thm2-deep-n128", "check-thm2",
             {"n": 128, "dt": 0.002, "t_end": 0.2, "stack_depth": 12,
              "snapshot_times": [round(0.01 * i, 2) for i in range(21)],
              "theorem2_n_max": 4, "c0": _FIXED_C0},
             norms=(2.0, 5.0), oracle=("shear", 2.0, 1.0), round_items=1, item_s=3.7),
    # Bound 3 with C0 estimated per item: oversampled transforms and the
    # T0 bisection dominate; the solver is a few percent.
    Workload("thm3-c0est-n32", "check-thm3",
             {"n": 32, "dt": 0.002, "t_end": 0.1, "stack_depth": 8,
              "c0": {"mode": "estimate", "n_samples": 6, "ascent_steps": 120}},
             norms=(2.0, 5.0), oracle=("taylor_green", 2.0, 2.0),
             round_items=2, item_s=1.15),
)}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def closed_form_data(w: Workload) -> dict:
    kind, l2, _ = w.oracle
    # the cellular vortex and the shear both have |u| = A pi sqrt(2)
    return {"kind": kind, "amplitude": l2 / (math.pi * math.sqrt(2.0))}


def make_items(w: Workload, seed: int) -> tuple[Item, list[Item]]:
    """The closed-form item and one round of random-spectrum items, from seed."""
    rng = random.Random(f"{w.name}/{seed}")
    _, l2, rate = w.oracle
    closed = Item("closed-form", {**w.base, "seed": rng.randrange(2 ** 31),
                                  "initial_data": closed_form_data(w)}, l2, rate)
    items = []
    for _ in range(w.round_items):
        s = rng.randrange(2 ** 31)
        norm = rng.choice(w.norms)
        data = {"kind": "random_spectrum", "decay": 2.0, "k_max": 8, "seed": s,
                "l2_norm": norm}
        items.append(Item(f"random-{s}", {**w.base, "seed": s, "initial_data": data},
                          norm, None))
    return closed, items


def warmup_doc(w: Workload) -> dict:
    """The workload's command shrunk to two steps, to fill the FFT plan caches."""
    doc = {**w.base, "t_end": 2 * w.base["dt"], "snapshot_times": None,
           "stack_depth": 2, "initial_data": closed_form_data(w)}
    if doc["c0"]["mode"] == "estimate":
        doc["c0"] = {"mode": "estimate", "n_samples": 1, "ascent_steps": 1}
    return doc


# ---------------------------------------------------------------------------
# Program and set-up
# ---------------------------------------------------------------------------

def import_program():
    """gevrey_ns.cli from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import gevrey_ns.cli as cli
    except ImportError as exc:
        raise BenchError(f"cannot import gevrey_ns from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"gevrey_ns was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point, capturing what it prints."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = main(argv)
    return rc, log.getvalue()


def set_up(w: Workload, workdir: Path):
    """Import the program and run the warm-up; returns gevrey_ns.cli."""
    cli = import_program()
    cfg = workdir / "warmup.json"
    cfg.write_text(json.dumps(warmup_doc(w)))
    run_cli(cli.main, [w.command, "--config", str(cfg), "--out", str(workdir / "warmup")])
    return cli


def setup_probe(workload_json: str) -> None:
    """Entry point of a fresh interpreter: print its own set-up time."""
    w = Workload(**json.loads(workload_json))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK))
    try:
        set_up(w, workdir)
        print(time.perf_counter() - T_START)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_setup_times(w: Workload, count: int) -> list[float]:
    """Set-up time of count fresh interpreters, run one after another."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
            "run.setup_probe(sys.argv[1])")
    arg = json.dumps(dataclasses.asdict(w))
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code, arg], capture_output=True,
                              text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# Items and their output checks
# ---------------------------------------------------------------------------

def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_closed_form(path: Path, item: Item) -> list[str]:
    """trajectory.csv l2_norm against |u0| exp(-|xi|^2 t)."""
    try:
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        it, il = header.index("t"), header.index("l2_norm")
        points = [(float(cells[it]), float(cells[il]))
                  for cells in (line.split(",") for line in lines[1:])]
    except (OSError, IndexError, ValueError) as exc:
        return [f"trajectory.csv unreadable: {exc}"]
    if not points:
        return ["trajectory.csv has no rows"]
    worst = max(abs(l2 / (item.l2 * math.exp(-item.decay_rate * t)) - 1.0) for t, l2 in points)
    if not worst <= ORACLE_RTOL:
        return [f"closed-form l2_norm off by {worst:.3e} relative (> {ORACLE_RTOL:g})"]
    return []


def check_item(rc, log: str, out: Path, item: Item) -> tuple[list[str], str]:
    """Problems with one item's outputs, and the digest of its report.json."""
    problems = [] if rc == 0 else [f"exit code {rc}: {log.strip()[-300:]}"]
    try:
        raw = (out / "report.json").read_bytes()
    except OSError:
        return problems + ["report.json missing"], ""
    digest = hashlib.sha256(raw).hexdigest()
    try:
        report = json.loads(raw)
    except ValueError as exc:
        return problems + [f"report.json unreadable: {exc}"], digest
    if not isinstance(report, dict):
        return problems + ["report.json is not an object"], digest
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}: {report.get('message')}")
    rows = report.get("rows")
    if not (isinstance(rows, list) and rows and all(isinstance(r, dict) for r in rows)):
        problems.append("report has no rows")
        rows = []
    for row in rows:
        lhs, rhs = row.get("lhs"), row.get("rhs")
        if not (_is_number(lhs) and math.isfinite(lhs) and lhs >= 0):
            problems.append(f"lhs {lhs!r} at t={row.get('t')!r}")
            break
        # an out-of-range bound-2 rhs may be Infinity or null
        if not (rhs is None or (_is_number(rhs) and not math.isnan(rhs))):
            problems.append(f"rhs {rhs!r} at t={row.get('t')!r}")
            break
    if item.decay_rate is not None:
        problems += check_closed_form(out / "trajectory.csv", item)
    return problems, digest


def run_items(cli, w: Workload, items: list[Item], workdir: Path, tag: str,
              tracer: Tracer | None = None) -> list[Outcome]:
    """One round: a closed loop over items; only the CLI call is timed."""
    jobs = []
    for i, item in enumerate(items):
        d = workdir / f"{tag}-{i:03d}"
        d.mkdir()
        cfg = d / "config.json"
        cfg.write_text(json.dumps(item.doc))
        jobs.append((item, [w.command, "--config", str(cfg), "--out", str(d / "out")],
                     d / "out"))
    main = cli.main if tracer is None else tracer.wrap("cli", cli.main)
    outcomes = []
    for i, (item, argv, out) in enumerate(jobs):
        if tracer is not None:
            tracer.item = f"{tag}-{i}"
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            rc, log = run_cli(main, argv)
        except Exception:  # an item that raises is a failed item, not a crash
            rc, log = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        problems, digest = check_item(rc, log, out, item)
        outcomes.append(Outcome(wall, cpu, digest, [f"{item.name}: {p}" for p in problems]))
    return outcomes


def check_repeats(rounds: list[list[Outcome]], items: list[Item]) -> None:
    """Every round must write the same report.json bytes as the first."""
    for outcomes in rounds[1:]:
        for first, o, item in zip(rounds[0], outcomes, items):
            if o.digest != first.digest:
                o.problems.append(f"{item.name}: report.json differs from the first round")


def run_digest(outcomes: list[Outcome]) -> str:
    return hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def failed_frac(outcomes: list[Outcome]) -> float:
    return sum(1 for o in outcomes if o.problems) / len(outcomes)


def end_to_end(rounds: list[list[Outcome]], setup_times: list[float],
               checked: list[Outcome]) -> dict:
    """name -> (value, unit, sample count); ok_frac is over all checked items.

    An item's time is its best over the rounds.  Other processes on the same
    cores only ever slow a call down, often by half or more for seconds to
    minutes, so the best of repeated identical calls varies far less from run
    to run than their median does.
    """
    n = sum(len(r) for r in rounds)
    best_wall = [min(r[i].wall_s for r in rounds) for i in range(len(rounds[0]))]
    best_cpu = [min(r[i].cpu_s for r in rounds) for i in range(len(rounds[0]))]
    return {
        "wall_s": (sum(best_wall), "s", n),
        "verdict_s.p50": (statistics.median(best_wall), "s", n),
        "cpu_s": (sum(best_cpu), "s", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
        "ok_frac": (1.0 - failed_frac(checked), "ratio", len(checked)),
    }


def _median_time(fn, budget_s: float, min_reps: int) -> float:
    times: list[float] = []
    while len(times) < min_reps or sum(times) < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def baseline_table() -> dict:
    """The ROADMAP baseline: one step and one K = 8 stack at n = 32, 64, 128."""
    import gevrey_ns as g
    out = {}
    for n in (32, 64, 128):
        u = g.random_spectrum_field(g.make_grid(n), 2.0, 8, seed=n, l2_norm=1.0)
        out[f"solver.step_ms.n{n}"] = (
            1e3 * _median_time(lambda: g.step(u, 1e-3), 0.15, 5), "ms", None)
        out[f"derivatives.stack8_ms.n{n}"] = (
            1e3 * _median_time(lambda: g.time_derivative_stack(u, 8, 1.0), 0.3, 3), "ms", None)
    return out


def baseline_flags(table: dict) -> list[str]:
    flags = []
    for name, (value, _, _) in table.items():
        layer, n = name.rsplit(".n", 1)
        ref = BASELINE_MS[layer][int(n)]
        if not 0.5 <= value / ref <= 2.0:
            flags.append(f"{name} = {value:.3g} ms is more than 2x off the ROADMAP {ref:g} ms")
    return flags


def trace_sites(tracer: Tracer) -> list[tuple]:
    """Lookup sites of each layer's public functions, named by layer."""
    from gevrey_ns import cli, derivatives, functionals, solver, verify
    integrate_sig = inspect.signature(solver.integrate)

    def count_steps(args, kwargs):
        a = integrate_sig.bind(*args, **kwargs).arguments
        tracer.add("steps", round(a["t_end"] / a["dt"]))

    def count_bytes(path):
        tracer.add("bytes_written", Path(path).stat().st_size)

    return [
        (cli, "load_config", "config"),
        (cli, "config_from_dict", "config"),
        (cli, "check_theorem", "verify.check"),
        (cli, "write_json", "reporting", None, count_bytes),
        (cli, "write_trajectory_csv", "reporting", None, count_bytes),
        (cli, "write_functionals_csv", "reporting", None, count_bytes),
        (verify, "estimate_c0", "verify.c0"),
        (verify, "integrate", "solver.integrate", count_steps),
        (verify, "time_derivative_stack", "derivatives.stack"),
        (verify, "stokes_derivative_stack", "stokes.stack"),
        (verify, "raw_functionals", "functionals.lhs"),
        (verify, "theorem_lhs", "functionals.lhs"),
        (verify, "theorem3_rhs", "functionals.theorem3_rhs"),
        (solver, "cfl_limit", "solver.cfl"),
        (derivatives, "nonlinear_symmetric", "derivatives.nonlinear"),
        (derivatives, "nonlinear_term", "derivatives.nonlinear"),
        (functionals, "weighted_h_integral", "stokes.weighted_h"),
    ]


def per_layer(t: Tracer, plain_wall: float, traced_wall: float) -> dict:
    """name -> (value, unit, None) from the traced pass."""
    t.finish()

    def per(a, b):
        return a / b if b else 0.0

    c = t.counters
    steps = int(c.get("steps", 0))
    integrate_s = t.total("solver.integrate")
    stacks = t.named("derivatives.stack")
    stack_s = t.total("derivatives.stack")
    rhs_calls = len(t.named("functionals.theorem3_rhs"))
    fft = t.fft_totals()
    return {
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
        "spectral.fft_calls": (fft["calls"], "count"),
        "spectral.fft_planes": (fft["planes"], "count"),
        "spectral.fft_s": (fft["seconds"], "s"),
        "spectral.fft_share": (fft["seconds"] / traced_wall, "ratio"),
        "spectral.fft_mflop_computed": (fft["flop"] / 1e6, "Mflop"),
        "solver.integrate_s": (integrate_s, "s"),
        "solver.self_s": (t.self_total("solver.integrate"), "s"),
        "solver.steps": (steps, "count"),
        "solver.step_ms": (1e3 * per(integrate_s, steps), "ms"),
        "solver.fft_planes_per_step": (
            per(sum(s.fft_planes for s in t.named("solver.integrate")), steps), "count"),
        "derivatives.stack_s": (stack_s, "s"),
        "derivatives.stacks": (len(stacks), "count"),
        "derivatives.stack_ms": (1e3 * per(stack_s, len(stacks)), "ms"),
        "derivatives.nonlinear_calls_per_stack": (
            per(t.children_of("derivatives.stack", "derivatives.nonlinear"), len(stacks)),
            "count"),
        "derivatives.fft_planes_per_stack": (
            per(sum(s.planes_incl for s in stacks), len(stacks)), "count"),
        "stokes.weighted_h_calls": (len(t.named("stokes.weighted_h")), "count"),
        "stokes.weighted_h_s": (t.total("stokes.weighted_h"), "s"),
        "stokes.stack_s": (t.total("stokes.stack"), "s"),
        "functionals.theorem3_rhs_s": (t.total("functionals.theorem3_rhs"), "s"),
        "functionals.bisection_evals": (
            per(t.children_of("functionals.theorem3_rhs", "stokes.weighted_h"), rhs_calls),
            "count"),
        "functionals.lhs_s": (t.total("functionals.lhs"), "s"),
        "verify.c0_s": (t.total("verify.c0"), "s"),
        "verify.c0_fft_planes": (sum(s.planes_incl for s in t.named("verify.c0")), "count"),
        "verify.check_self_s": (t.self_total("verify.check"), "s"),
        "config.load_s": (t.total("config"), "s"),
        "reporting.write_s": (t.total("reporting"), "s"),
        "reporting.bytes_written": (int(c.get("bytes_written", 0)), "B"),
        "cli.self_s": (t.self_total("cli"), "s"),
    }


# Layer times whose share of the traced wall time the human-readable output shows.
SHARES = ("solver.integrate_s", "derivatives.stack_s", "verify.c0_s", "stokes.weighted_h_s",
          "functionals.theorem3_rhs_s", "functionals.lhs_s", "spectral.fft_s",
          "config.load_s", "reporting.write_s", "cli.self_s")


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure_end_to_end(cli, w, seed, seconds, workdir):
    setup_times = [time.perf_counter() - T_START]
    setup_times += fresh_setup_times(w, SETUP_SAMPLES - 1)
    closed, items = make_items(w, seed)
    first = run_items(cli, w, [closed], workdir, "closed-form")
    rounds = [run_items(cli, w, items, workdir, f"round{r}") for r in range(w.rounds(seconds))]
    check_repeats(rounds, items)
    checked = first + [o for r in rounds for o in r]
    metrics = end_to_end(rounds, setup_times, checked)
    walls = [o.wall_s for r in rounds for o in r]
    notes = [f"closed-form item, then {len(rounds)} rounds of {len(items)} random items",
             f"all calls: median {statistics.median(walls):.4g} s, max {max(walls):.4g} s",
             "set-up samples: " + " ".join(f"{t:.3f}" for t in setup_times),
             f"digest {run_digest(first + rounds[0])}"]
    return checked, metrics, notes


def measure_layers(cli, w, seed, seconds, workdir):
    """The baseline table, then untraced and traced rounds in turn (half the
    rounds each), so that drift in machine speed hits both alike."""
    table = baseline_table()
    closed, items = make_items(w, seed)
    first = run_items(cli, w, [closed], workdir, "closed-form")
    half = max(1, w.rounds(seconds) // 2)
    tracer = Tracer()
    sites = trace_sites(tracer)
    plain, traced = [], []
    for r in range(half):
        plain.append(run_items(cli, w, items, workdir, f"plain{r}"))
        tracer.install(sites)
        try:
            traced.append(run_items(cli, w, items, workdir, f"traced{r}", tracer))
        finally:
            tracer.uninstall()
    check_repeats(plain + traced, items)
    plain_wall = sum(o.wall_s for r in plain for o in r)
    traced_wall = sum(o.wall_s for r in traced for o in r)
    layers = per_layer(tracer, plain_wall, traced_wall)
    metrics = {k: (v, u, None) for k, (v, u) in layers.items()}
    metrics.update(table)
    spans_path = WORK / f"spans-{w.name}-seed{seed}.jsonl"
    with spans_path.open("w") as f:
        for rec in tracer.records():
            f.write(json.dumps(rec) + "\n")
    notes = [f"closed-form item, then {half} untraced and {half} traced rounds of "
             f"{len(items)} random items, in turn",
             f"digest {run_digest(first + traced[0])}", f"spans written to {spans_path}",
             "shares of trace.wall_s: " + ", ".join(
                 f"{k} {layers[k][0] / traced_wall:.1%}" for k in SHARES)]
    notes += [f"FLAG {f}" for f in baseline_flags(table)]
    return first + [o for r in plain + traced for o in r], metrics, notes


def print_result(w: Workload, seed: int, outcomes, metrics: dict, notes, out) -> None:
    failed = sum(1 for o in outcomes if o.problems)
    print(f"workload {w.name} seed {seed}: {len(outcomes)} items, closed loop, "
          "one caller, one process", file=out)
    for name, (value, unit, n) in metrics.items():
        samples = "" if n is None else f"  (n={n})"
        print(f"  {name:<40} {value:>14.6g} {unit}{samples}", file=out)
    print(f"  {'failed_frac':<40} {failed_frac(outcomes):>14.6g} ratio  "
          f"(n={len(outcomes)})", file=out)
    for line in notes:
        print(f"  {line}", file=out)
    for o in outcomes:
        for p in o.problems:
            print(f"  FAILED {p}", file=out)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    print(json.dumps(result), file=out, flush=True)


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    w = workloads[args.workload]
    try:
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
        try:
            cli = set_up(w, workdir)
            measure = measure_layers if args.trace else measure_end_to_end
            outcomes, metrics, notes = measure(cli, w, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_result(w, args.seed, outcomes, metrics, notes, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
