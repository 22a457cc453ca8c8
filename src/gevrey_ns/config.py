"""Run configuration: a single JSON-serializable document, strictly validated.

Unknown keys are rejected so that a config file pins an experiment exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError

_C0_MODES = ("estimate", "fixed")


@dataclass(frozen=True)
class RunConfig:
    """Experiment description consumed by the solver and the verifier.

    Fields:
        n: grid modes per dimension.
        dt, t_end: step size and horizon; snapshot_times must be multiples
            of dt (defaults to 11 uniform snapshots including 0 and t_end).
        stack_depth: derivative stack depth K at each snapshot (<= 12).
        truncation: order M for the diffusion-semigroup identity check.
        alphas: weight exponents to audit.
        seed: master seed for data generation.
        initial_data: spec dict for make_initial_data.
        c0: {"mode": "estimate", "n_samples": .., "ascent_steps": ..} or
            {"mode": "fixed", "value": ..}.
        theorems: which bounds to check (subset of 1..4).
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
    theorems: tuple[int, ...] = (1,)
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
        mode = self.c0.get("mode")
        if mode not in _C0_MODES:
            raise ConfigurationError(f"c0 mode must be one of {_C0_MODES}, got {mode!r}")
        if mode == "fixed" and not self.c0.get("value", 0) > 0:
            raise ConfigurationError("fixed c0 requires a positive 'value'")
        n_max = self.theorem2_n_max
        if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 0:
            raise ConfigurationError(f"theorem2_n_max must be an integer >= 0, got {n_max!r}")
        bad = set(self.theorems) - {1, 2, 3, 4}
        if bad:
            raise ConfigurationError(f"unknown theorem ids {sorted(bad)}")

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
            "theorems": list(self.theorems), "theorem2_n_max": self.theorem2_n_max,
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
    for key in ("alphas", "theorems"):
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(kwargs[key])
    if "decay_window" in kwargs and kwargs["decay_window"] is not None:
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
