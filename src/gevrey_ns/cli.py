"""Command-line front end.

Subcommands: stokes-verify, estimate-c0, ns-run, check-thm1..4,
audit-lemmas, fit-decay.  Exit codes: 0 all verdicts pass, 1 at least one
inequality fails beyond its error budget, 2 configuration or runtime error.
A run's inputs come from the --config file alone (RunConfig's defaults
without one).  Reports are written as report.json plus CSVs under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

# config_from_dict stays bound: bench/run.py --trace 1 wraps it here.
from .config import RunConfig, config_from_dict, load_config  # noqa: F401
from .errors import ConfigurationError, IntegrationError
from .functionals import fit_decay, lemma_audit_ccc0, lemma_audit_convolution
from .reporting import (json_dumps, write_ccc0_csv, write_functionals_csv,
                        write_json, write_trajectory_csv)
from .solver import energy_ledger, run
from .spectral import make_grid, make_initial_data, norm_l2
from .stokes import stokes_gevrey_identity
from .verify import check_theorem, estimate_c0_from_config, stack_series

_STOKES_ORDER = 40  # truncation order M of stokes-verify's identity
_STOKES_RTOL = 1e-8  # its tolerance per unit energy, on top of the Poisson tail bound


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gevrey-ns",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--json", action="store_true", help="print report JSON to stdout")
    return parser


def _emit(args, doc: dict, traj=None, series=None, alpha: float | None = None) -> None:
    """report.json, plus the run's CSVs when given, under --out; --json prints the report."""
    if args.out:
        out = Path(args.out)
        write_json(doc, out / "report.json")
        if traj is not None:
            write_trajectory_csv(traj, out / "trajectory.csv")
        if series is not None:
            write_functionals_csv(series, alpha, out / "functionals.csv")
    if args.json:
        sys.stdout.write(json_dumps(doc))


def _cmd_stokes_verify(args, cfg: RunConfig) -> int:
    grid = make_grid(cfg.n)
    u0 = make_initial_data(grid, cfg.initial_data)
    times = cfg.snapshot_times or [cfg.horizon()]
    rows = []
    ok_all = True
    for t in times:
        rep = stokes_gevrey_identity(u0, float(t), _STOKES_ORDER)
        # the identity is homogeneous of degree 2 in u0, so its tolerance scales with the energy
        ok = abs(rep.residual) <= _STOKES_RTOL * rep.energy + rep.tail_bound
        ok_all = ok_all and ok
        rows.append({"t": rep.time, "state_term": rep.state_term,
                     "integral_term": rep.integral_term, "total": rep.total,
                     "residual": rep.residual,
                     "residual_state_family": rep.residual_state_family,
                     "tail_bound": rep.tail_bound, "ok": ok})
    doc = {"check": "stokes-identity", "truncation": _STOKES_ORDER,
           "energy": norm_l2(u0) ** 2, "rows": rows, "verdict": ok_all}
    _emit(args, doc)
    print(f"stokes-verify: {'PASS' if ok_all else 'FAIL'} "
          f"(max |residual| = {max(abs(r['residual']) for r in rows):.3e})")
    return 0 if ok_all else 1


def _cmd_estimate_c0(args, cfg: RunConfig) -> int:
    est = estimate_c0_from_config(cfg, make_grid(cfg.n))
    _emit(args, {"check": "estimate-c0", **dataclasses.asdict(est)})
    print(f"estimate-c0: C0 ~ {est.value:.6f} over {est.n_samples} samples")
    return 0


def _cmd_ns_run(args, cfg: RunConfig) -> int:
    alpha = cfg.alpha
    traj = run(cfg)
    ledger = energy_ledger(traj)
    ok = ledger.defect <= ledger.tolerance
    doc = {"check": "ns-run", "t_end": cfg.t_end, "dt": cfg.dt, "verdict": ok,
           "ledger_max_residual": ledger.max_abs, "ledger_defect": ledger.defect,
           "ledger_quadrature_error": float(abs(ledger.quadrature).max()),
           "ledger_tolerance": ledger.tolerance}
    series = stack_series(traj, cfg.stack_depth) if args.out and cfg.stack_depth >= 1 else None
    _emit(args, doc, traj, series, alpha)
    print(f"ns-run: {'PASS' if ok else 'FAIL'} (energy ledger residual {ledger.max_abs:.3e}, "
          f"unexplained by quadrature {ledger.defect:.3e}, tol {ledger.tolerance:.1e})")
    return 0 if ok else 1


def _cmd_check_thm(args, cfg: RunConfig) -> int:
    theorem_id = int(args.command[-1])
    report = check_theorem(theorem_id, cfg)
    _emit(args, report.to_dict(), report.trajectory, report.series, cfg.alpha)
    if report.status == "error":
        print(f"error: {report.message}", file=sys.stderr)
        return 2
    if report.status == "n/a":
        print(f"check-thm{theorem_id}: N/A ({report.message})")
        return 2
    print(f"check-thm{theorem_id}: {'PASS' if report.verdict else 'FAIL'} "
          f"({len(report.rows)} checked times)")
    return 0 if report.verdict else 1


def _cmd_audit_lemmas(args, cfg: RunConfig) -> int:
    ccc0 = lemma_audit_ccc0(20, list(cfg.alphas))
    conv = lemma_audit_convolution(10_000, 32, cfg.seed)
    conv_ok = conv.worst_ratio <= 1.0 + 1e-12
    corrected_ok = not ccc0.corrected_violations
    doc = {"check": "audit-lemmas",
           "convolution": {"trials": conv.trials, "worst_ratio": conv.worst_ratio,
                           "ok": conv_ok},
           "ccc0": {"printed_violation_count": len(ccc0.printed_violations),
                    "printed_violations_sample": [list(v) for v in ccc0.printed_violations[:20]],
                    "corrected_violation_count": len(ccc0.corrected_violations)},
           "verdict": conv_ok and corrected_ok}
    if args.out:
        write_ccc0_csv(ccc0, Path(args.out) / "audit_ccc0.csv")
    _emit(args, doc)
    print(f"audit-lemmas: {'PASS' if doc['verdict'] else 'FAIL'} "
          f"(convolution worst ratio {conv.worst_ratio:.6f}; printed-bound findings: "
          f"{len(ccc0.printed_violations)}, informational)")
    return 0 if doc["verdict"] else 1


def _cmd_fit_decay(args, cfg: RunConfig) -> int:
    traj = run(cfg)
    norms = [math.sqrt(e) for e in traj.l2_sq]
    fit = fit_decay(traj.times, norms, cfg.decay_window)
    _emit(args, {"check": "fit-decay", **dataclasses.asdict(fit)})
    print(f"fit-decay: |u(t)| <= {fit.K_fit:.6g} t^-{fit.gamma_fit:.4g} "
          f"on {list(fit.window)} (residual {fit.residual:.3e})")
    return 0


_COMMANDS = {"stokes-verify": _cmd_stokes_verify, "estimate-c0": _cmd_estimate_c0,
             "ns-run": _cmd_ns_run, **{f"check-thm{i}": _cmd_check_thm for i in range(1, 5)},
             "audit-lemmas": _cmd_audit_lemmas, "fit-decay": _cmd_fit_decay}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        return _COMMANDS[args.command](args, cfg)
    except (ConfigurationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
