"""Run configuration: a single JSON-serializable document, strictly validated.

Unknown keys are rejected so that a config file pins an experiment exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

_C0_KEYS = {"estimate": {"mode", "n_samples", "ascent_steps"}, "fixed": {"mode", "value"}}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_c0(c0) -> None:
    """Reject a c0 block that is not {"mode": "fixed", "value": v > 0 finite}
    or {"mode": "estimate"} with optional n_samples >= 1 and ascent_steps >= 0."""
    if not isinstance(c0, dict):
        raise ConfigurationError(f"c0 must be an object, got {c0!r}")
    mode = c0.get("mode")
    if mode not in _C0_KEYS:
        raise ConfigurationError(f"c0 mode must be one of {tuple(_C0_KEYS)}, got {mode!r}")
    extra = set(c0) - _C0_KEYS[mode]
    if extra:
        raise ConfigurationError(f"unknown keys for c0 mode {mode!r}: {sorted(extra)}")
    if mode == "fixed":
        v = c0.get("value")
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v) or v <= 0):
            raise ConfigurationError(f"fixed c0 requires a finite 'value' > 0, got {v!r}")
        return
    for key, low in (("n_samples", 1), ("ascent_steps", 0)):
        if key in c0 and not (_is_int(c0[key]) and c0[key] >= low):
            raise ConfigurationError(f"c0 {key} must be an integer >= {low}, got {c0[key]!r}")


@dataclass(frozen=True)
class RunConfig:
    """Experiment description consumed by the solver and the verifier.

    Fields:
        n: grid modes per dimension.
        dt, t_end: step size and horizon; snapshot_times must be multiples
            of dt (defaults to 11 uniform snapshots including 0 and t_end).
        stack_depth: derivative stack depth K at each snapshot (no cap; the
            stack is built in scaled variables).
        truncation: order M for the diffusion-semigroup identity check.
        alphas: weight exponents to audit.
        seed: master seed for data generation.
        initial_data: spec dict for make_initial_data.
        c0: {"mode": "estimate", "n_samples": .., "ascent_steps": ..} or
            {"mode": "fixed", "value": ..}.
        theorem2_n_max: doubling depth for bound 2.
        decay_window: fit window [a, b] for bound 4.
        gamma: decay exponent override (fitted from the trajectory if None).
        out_dir: where reports and CSVs are written (optional).
        tol_energy: energy ledger tolerance.
        enforce_cfl: advective step-size guard.
    """

    n: int = 32
    dt: float = 5e-3
    t_end: float = 1.0
    snapshot_times: list[float] | None = None
    stack_depth: int = 8
    truncation: int = 40
    alphas: tuple[float, ...] = (1.0,)
    seed: int = 0
    initial_data: dict = field(default_factory=lambda: {"kind": "taylor_green", "amplitude": 1.0})
    c0: dict = field(default_factory=lambda: {"mode": "estimate", "n_samples": 6,
                                              "ascent_steps": 120})
    theorem2_n_max: int = 4
    decay_window: tuple[float, float] = (1.0, 5.0)
    gamma: float | None = None
    out_dir: str | None = None
    tol_energy: float = 1e-7
    enforce_cfl: bool = True

    def __post_init__(self):
        if self.dt <= 0 or self.t_end < 0:
            raise ConfigurationError("dt must be positive and t_end >= 0")
        if self.stack_depth < 0:
            raise ConfigurationError("stack_depth must be >= 0")
        if self.tol_energy <= 0:
            raise ConfigurationError("tol_energy must be positive")
        if any(a <= 0 for a in self.alphas):
            raise ConfigurationError("all alphas must be positive")
        _check_c0(self.c0)
        n_max = self.theorem2_n_max
        if not _is_int(n_max) or n_max < 0:
            raise ConfigurationError(f"theorem2_n_max must be an integer >= 0, got {n_max!r}")

    def resolved_snapshots(self) -> list[float]:
        if self.snapshot_times is not None:
            return list(self.snapshot_times)
        if self.t_end == 0:
            return [0.0]
        n_steps = round(self.t_end / self.dt)
        stride = max(1, n_steps // 10)
        idx = list(range(0, n_steps + 1, stride))
        if idx[-1] != n_steps:
            idx.append(n_steps)
        return [i * self.dt for i in idx]

    def to_dict(self) -> dict:
        return {
            "n": self.n, "dt": self.dt, "t_end": self.t_end,
            "snapshot_times": self.snapshot_times,
            "stack_depth": self.stack_depth, "truncation": self.truncation,
            "alphas": list(self.alphas), "seed": self.seed,
            "initial_data": dict(self.initial_data), "c0": dict(self.c0),
            "theorem2_n_max": self.theorem2_n_max,
            "decay_window": list(self.decay_window), "gamma": self.gamma,
            "out_dir": self.out_dir, "tol_energy": self.tol_energy,
            "enforce_cfl": self.enforce_cfl,
        }


_FIELD_NAMES = set(RunConfig.__dataclass_fields__)


def config_from_dict(doc: dict) -> RunConfig:
    """Build a RunConfig from a plain dict, rejecting unknown keys."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    unknown = set(doc) - _FIELD_NAMES
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    for key in ("alphas", "decay_window"):
        if kwargs.get(key) is not None:
            kwargs[key] = tuple(kwargs[key])
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
