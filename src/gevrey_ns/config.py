"""Run configuration: a single JSON-serializable document, strictly validated.

Unknown keys are rejected so that a config file pins an experiment exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

_C0_KEYS = {"estimate": {"mode", "n_samples", "ascent_steps"}, "fixed": {"mode", "value"}}
_INITIAL_DATA_KEYS = {
    "taylor_green": {"amplitude"},
    "shear": {"amplitude"},
    "random_spectrum": {"decay", "k_max", "seed", "l2_norm"},
}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A finite int or float; bools are not numbers here."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _require(ok: bool, what: str, value) -> None:
    if not ok:
        raise ConfigurationError(f"{what}, got {value!r}")


_STEP_BUDGET = 10 ** 6  # steps per run, about 60x the longest acceptance run (16 000)
_SAMPLE_BUDGET = 1024  # C0 ascent starts per estimate: about 80 KiB each, 80 MiB in all
_DEPTH_BUDGET = 256  # stack depth K, 10x the deepest stack the tests build (K = 24)
# grid modes n per dimension, 4x the largest grid any test, demo or workload uses (128); at
# the depth budget a stack's physical planes take 1.07 GB and its table 0.54 GB
_GRID_BUDGET = 512


def step_count(t: float, dt: float, what: str) -> int:
    """The step n <= 10^6 with n dt = t (to 1e-9 relative), or ConfigurationError naming t
    by what."""
    if not t / dt < _STEP_BUDGET + 0.5:  # round(t / dt) past the budget, or inf
        raise ConfigurationError(f"{what} over dt={dt!r} is not a finite step count "
                                 f"within the budget of {_STEP_BUDGET} steps")
    n = round(t / dt)
    if abs(n * dt - t) > 1e-9 * max(dt, abs(t), 1.0):
        raise ConfigurationError(f"{what} is not an integer multiple of dt={dt!r}")
    return n


def _check_c0(c0) -> None:
    """Reject a c0 block that is not {"mode": "fixed", "value": v > 0 finite}
    or {"mode": "estimate"} with optional 1 <= n_samples <= 1024 and ascent_steps >= 0
    (no budget: a row stops at its first trial that gains less than 1e-4)."""
    if not isinstance(c0, dict):
        raise ConfigurationError(f"c0 must be an object, got {c0!r}")
    mode = c0.get("mode")
    if not isinstance(mode, str) or mode not in _C0_KEYS:
        raise ConfigurationError(f"c0 mode must be one of {tuple(_C0_KEYS)}, got {mode!r}")
    extra = set(c0) - _C0_KEYS[mode]
    if extra:
        raise ConfigurationError(f"unknown keys for c0 mode {mode!r}: {sorted(extra)}")
    if mode == "fixed":
        v = c0.get("value")
        _require(_is_real(v) and v > 0, "fixed c0 requires a finite 'value' > 0", v)
        return
    for key, low in (("n_samples", 1), ("ascent_steps", 0)):
        if key in c0:
            _require(_is_int(c0[key]) and c0[key] >= low,
                     f"c0 {key} must be an integer >= {low}", c0[key])
    _require(c0.get("n_samples", 1) <= _SAMPLE_BUDGET,
             f"c0 n_samples must be within the budget of {_SAMPLE_BUDGET} samples",
             c0.get("n_samples"))


def check_initial_data(spec) -> None:
    """Reject an initial data description that make_initial_data cannot build.

    spec is {"kind": k, ...} with only that kind's keys; amplitude, decay,
    k_max and l2_norm are finite numbers (amplitude > 0, decay >= 0,
    k_max >= 1, l2_norm > 0 or null) and seed is an integer >= 0.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"initial data spec must be a dict with a 'kind', got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _INITIAL_DATA_KEYS:
        raise ConfigurationError(f"unknown initial data kind {kind!r}")
    extra = set(spec) - _INITIAL_DATA_KEYS[kind] - {"kind"}
    if extra:
        raise ConfigurationError(f"unknown keys for {kind}: {sorted(extra)}")
    if kind == "random_spectrum":
        missing = {"decay", "k_max", "seed"} - set(spec)
        if missing:
            raise ConfigurationError(f"random_spectrum needs keys {sorted(missing)}")
    for key, ok, what in (
            ("amplitude", lambda x: _is_real(x) and x > 0, "a finite number > 0"),
            ("decay", lambda x: _is_real(x) and x >= 0, "a finite number >= 0"),
            ("k_max", lambda x: _is_real(x) and x >= 1, "a finite number >= 1"),
            ("seed", lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
            ("l2_norm", lambda x: x is None or (_is_real(x) and x > 0),
             "null or a finite number > 0")):
        if key in spec:
            _require(ok(spec[key]), f"{kind} {key} must be {what}", spec[key])


@dataclass(frozen=True)
class RunConfig:
    """Experiment description consumed by the solver and the verifier.

    Fields:
        n: grid modes per dimension, even, 8 <= n <= 512 (a memory budget).
        dt, t_end: step size and horizon, at most 10^6 steps; snapshot_times,
            null or a list with a time above 0, must be multiples of dt (null: 11
            uniform snapshots including 0 and t_end).  A resolved schedule must
            reach a step above 0 (t_end > 0 for null, and a listed time at step
            >= 1): t = 0 alone gives no verdict.  t_end is also bound 3's
            horizon for T0.
            Bound 3 reads dt as the largest step on its window [0, T0],
            makes its own 9 snapshot times and ignores snapshot_times.
        stack_depth: derivative stack depth K <= 256 at each snapshot (a
            memory budget: the scaled variables need no numerical cap).  Bound 2
            stacks only to min(K, theorem2_n_max + 1), the depth its rows read.
        alpha: the Gevrey weight exponent of (k!)^alpha, a finite number > 0;
            audit-lemmas audits it alone.
        seed: seed of the C0 ascent's random starts and of audit-lemmas'
            convolution trials; random initial data read initial_data's seed.
        initial_data: spec dict for make_initial_data.
        c0: {"mode": "estimate"} with optional "n_samples" and
            "ascent_steps" (absent keys take estimate_c0's defaults) or
            {"mode": "fixed", "value": ..}.
        theorem2_n_max: doubling depth n <= 1023 for bound 2 (2^n is a double);
            its row at depth n reads orders <= n, so entries v_0..v_{n+1}.
        decay_window: fit window [a, b] for fit-decay, and for bound 4 when
            gamma is None (bound 4 reads it only then).
        gamma: decay exponent override (fitted from the trajectory if None).

    Config-driven runs always keep solver.integrate's CFL guard; no key switches it off.
    """

    n: int = 32
    dt: float = 5e-3
    t_end: float = 1.0
    snapshot_times: list[float] | None = None
    stack_depth: int = 8
    alpha: float = 1.0
    seed: int = 0
    initial_data: dict = field(default_factory=lambda: {"kind": "taylor_green", "amplitude": 1.0})
    c0: dict = field(default_factory=lambda: {"mode": "estimate"})
    theorem2_n_max: int = 4
    decay_window: tuple[float, float] = (0.5, 1.0)
    gamma: float | None = None

    def __post_init__(self):
        _require(_is_int(self.n) and 8 <= self.n <= _GRID_BUDGET and self.n % 2 == 0,
                 f"n must be an even integer >= 8 within the budget of {_GRID_BUDGET}", self.n)
        _require(_is_real(self.dt) and self.dt > 0, "dt must be a finite number > 0", self.dt)
        _require(_is_real(self.t_end) and self.t_end >= 0,
                 "t_end must be a finite number >= 0", self.t_end)
        snaps = self.snapshot_times
        _require(snaps is None or (isinstance(snaps, list)
                                   and all(_is_real(s) and s >= 0 for s in snaps)
                                   and any(s > 0 for s in snaps)),
                 "snapshot_times must be null or a list of finite numbers >= 0, one of them "
                 "> 0", snaps)
        _require(_is_int(self.stack_depth) and self.stack_depth >= 0,
                 "stack_depth must be an integer >= 0", self.stack_depth)
        _require(self.stack_depth <= _DEPTH_BUDGET,
                 f"stack_depth must be within the budget of {_DEPTH_BUDGET}", self.stack_depth)
        _require(_is_real(self.alpha) and self.alpha > 0,
                 "alpha must be a finite number > 0", self.alpha)
        _require(_is_int(self.seed) and self.seed >= 0, "seed must be an integer >= 0", self.seed)
        check_initial_data(self.initial_data)
        _check_c0(self.c0)
        n_max = self.theorem2_n_max
        _require(_is_int(n_max) and 0 <= n_max <= 1023,
                 "theorem2_n_max must be an integer in 0..1023 (2^n must be a double)", n_max)
        w = self.decay_window
        _require(isinstance(w, tuple) and len(w) == 2 and all(_is_real(x) for x in w)
                 and 0 < w[0] < w[1], "decay_window must be [a, b] with 0 < a < b", w)
        _require(self.gamma is None or (_is_real(self.gamma) and self.gamma > 0),
                 "gamma must be null or a finite number > 0", self.gamma)

    def horizon(self) -> float:
        """t_end as the end of a resolved schedule, refused when 0: t = 0 gives no verdict."""
        _require(self.t_end > 0, "t_end must be > 0 when snapshot_times is null", self.t_end)
        return self.t_end

    def resolved_snapshots(self) -> list[float]:
        """The snapshot times of a run, refused when every one resolves to step 0."""
        if self.snapshot_times is not None:
            steps = [step_count(s, self.dt, f"snapshot time {s!r}") for s in self.snapshot_times]
            _require(max(steps) > 0, f"snapshot_times must reach a step > 0 at dt={self.dt!r} "
                     "(t = 0 alone gives no verdict)", self.snapshot_times)
            return list(self.snapshot_times)
        n_steps = step_count(self.horizon(), self.dt, f"t_end={self.t_end!r}")
        stride = max(1, n_steps // 10)
        idx = list(range(0, n_steps + 1, stride))
        if idx[-1] != n_steps:
            idx.append(n_steps)
        return [i * self.dt for i in idx]


_FIELD_NAMES = set(RunConfig.__dataclass_fields__)


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    if isinstance(kwargs.get("decay_window"), list):
        kwargs["decay_window"] = tuple(kwargs["decay_window"])
    return RunConfig(**kwargs)


def load_config(path: str | Path) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {p} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)
