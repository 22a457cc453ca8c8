"""Deterministic JSON/CSV serialization for reports and series.

report.json is strict JSON with sorted keys: floats are written as their
shortest round-trip repr and non-finite floats as null, so identical runs
produce byte-identical files.  CSV floats use 17 significant digits.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _fmt_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == float("inf"):
        return "Infinity"
    if x == float("-inf"):
        return "-Infinity"
    return format(float(x), ".17g")


def plain(obj):
    """obj with numpy scalars, arrays and tuples as Python types, non-finite floats as None."""
    if isinstance(obj, dict):
        return {str(key): plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [plain(item) for item in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def json_dumps(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, allow_nan=False) + "\n"


def write_json(obj, path: str | Path) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json_dumps(obj))
    return p


def _write_csv(path: Path, header: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(float(v)))
            elif isinstance(v, (bool, np.bool_)):
                cells.append("true" if v else "false")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trajectory_csv(traj, path: str | Path) -> Path:
    from .spectral import norm_l2
    rows = []
    for t, u, d in zip(traj.times, traj.fields, traj.dissipation):
        l2 = norm_l2(u)
        g = traj.grad_sq[traj.times.index(t)] ** 0.5
        rows.append((t, l2, g, d))
    return _write_csv(Path(path), ["t", "l2_norm", "grad_l2_norm", "dissipation_accum"], rows)


def write_functionals_csv(series, alpha: float, path: str | Path) -> Path:
    from .functionals import renormalize
    rows = []
    for s in series.samples:
        sc = renormalize(s, alpha)
        L_raw, H_raw = s.L_raw, s.H_raw
        for m in range(s.M + 1):
            rows.append((s.t, m, L_raw[m], H_raw[m], s.L_tilde[m], s.H_tilde[m],
                         sc.L_c[m], sc.H_c[m]))
    return _write_csv(Path(path),
                      ["t", "m", "L_raw", "H_raw", "L_tilde", "H_tilde", "L_c", "H_c"],
                      rows)


def write_ccc0_csv(audit, path: str | Path) -> Path:
    rows = [(r.k, r.j, r.alpha, r.ratio, r.printed_bound, r.corrected_bound,
             r.printed_ok, r.corrected_ok) for r in audit.rows]
    return _write_csv(Path(path),
                      ["k", "j", "alpha", "ratio", "printed_bound", "corrected_bound",
                       "printed_ok", "corrected_ok"],
                      rows)
