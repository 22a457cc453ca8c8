"""Command-line front end.

Subcommands: stokes-verify, estimate-c0, ns-run, check-thm1..4,
audit-lemmas, fit-decay.  Exit codes: 0 all verdicts pass, 1 at least one
inequality fails beyond its error budget, 2 configuration or runtime error.
Reports are written as report.json plus CSVs under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .config import RunConfig, config_from_dict, load_config
from .errors import ConfigurationError, IntegrationError
from .functionals import fit_decay, lemma_audit_ccc0, lemma_audit_convolution
from .reporting import (json_dumps, write_ccc0_csv, write_functionals_csv,
                        write_json, write_trajectory_csv)
from .solver import energy_ledger, run
from .spectral import make_grid, make_initial_data, norm_l2
from .stokes import stokes_gevrey_identity
from .verify import check_theorem, estimate_c0_from_config, stack_series


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gevrey-ns",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--alpha", type=float, action="append", default=None,
                       help="override alphas (repeatable)")
        p.add_argument("--json", action="store_true", help="print report JSON to stdout")
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    doc = dataclasses.asdict(cfg)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.alpha:
        doc["alphas"] = list(args.alpha)
    if args.out is not None:
        doc["out_dir"] = args.out
    return config_from_dict(doc)


def _emit(args, doc: dict, out_dir: str | None) -> None:
    if out_dir:
        write_json(doc, Path(out_dir) / "report.json")
    if args.json:
        sys.stdout.write(json_dumps(doc))


def _cmd_stokes_verify(args, cfg: RunConfig) -> int:
    grid = make_grid(cfg.n)
    u0 = make_initial_data(grid, cfg.initial_data)
    times = cfg.resolved_snapshots() if cfg.snapshot_times else [cfg.t_end]
    tol = 1e-8
    rows = []
    ok_all = True
    for t in times:
        rep = stokes_gevrey_identity(u0, float(t), cfg.truncation)
        ok = abs(rep.residual) <= tol + rep.tail_bound
        ok_all = ok_all and ok
        rows.append({"t": rep.time, "state_term": rep.state_term,
                     "integral_term": rep.integral_term, "total": rep.total,
                     "residual": rep.residual,
                     "residual_state_family": rep.residual_state_family,
                     "tail_bound": rep.tail_bound, "ok": ok})
    doc = {"check": "stokes-identity", "truncation": cfg.truncation,
           "energy": norm_l2(u0) ** 2, "rows": rows, "verdict": ok_all}
    _emit(args, doc, cfg.out_dir)
    print(f"stokes-verify: {'PASS' if ok_all else 'FAIL'} "
          f"(max |residual| = {max(abs(r['residual']) for r in rows):.3e})")
    return 0 if ok_all else 1


def _cmd_estimate_c0(args, cfg: RunConfig) -> int:
    est = estimate_c0_from_config(cfg, make_grid(cfg.n))
    doc = {"check": "estimate-c0", "value": est.value,
           "sample_values": est.sample_values,
           "spectrum_signature": list(est.spectrum_signature),
           "n_samples": est.n_samples, "ascent_steps": est.ascent_steps,
           "seed": est.seed}
    _emit(args, doc, cfg.out_dir)
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
    if cfg.out_dir:
        write_trajectory_csv(traj, Path(cfg.out_dir) / "trajectory.csv")
        if cfg.stack_depth >= 1:
            write_functionals_csv(stack_series(traj, cfg.stack_depth), alpha,
                                  Path(cfg.out_dir) / "functionals.csv")
    _emit(args, doc, cfg.out_dir)
    print(f"ns-run: {'PASS' if ok else 'FAIL'} (energy ledger residual {ledger.max_abs:.3e}, "
          f"unexplained by quadrature {ledger.defect:.3e}, tol {ledger.tolerance:.1e})")
    return 0 if ok else 1


def _cmd_check_thm(args, cfg: RunConfig) -> int:
    theorem_id = int(args.command[-1])
    report = check_theorem(theorem_id, cfg)
    _emit(args, report.to_dict(), cfg.out_dir)
    if cfg.out_dir and report.series is not None:
        write_trajectory_csv(report.trajectory, Path(cfg.out_dir) / "trajectory.csv")
        write_functionals_csv(report.series, cfg.alpha,
                              Path(cfg.out_dir) / "functionals.csv")
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
    alphas = list(cfg.alphas) if cfg.alphas else [0.5, 1.0, 2.0]
    ccc0 = lemma_audit_ccc0(20, alphas)
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
    if cfg.out_dir:
        write_ccc0_csv(ccc0, Path(cfg.out_dir) / "audit_ccc0.csv")
    _emit(args, doc, cfg.out_dir)
    print(f"audit-lemmas: {'PASS' if doc['verdict'] else 'FAIL'} "
          f"(convolution worst ratio {conv.worst_ratio:.6f}; printed-bound findings: "
          f"{len(ccc0.printed_violations)}, informational)")
    return 0 if doc["verdict"] else 1


def _cmd_fit_decay(args, cfg: RunConfig) -> int:
    traj = run(cfg)
    norms = [math.sqrt(e) for e in traj.l2_sq]
    fit = fit_decay(traj.times, norms, cfg.decay_window)
    doc = {"check": "fit-decay", "K_fit": fit.K_fit, "gamma_fit": fit.gamma_fit,
           "window": list(fit.window), "residual": fit.residual,
           "super_algebraic": fit.super_algebraic,
           "truncated_window": fit.truncated_window}
    _emit(args, doc, cfg.out_dir)
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
        return _COMMANDS[args.command](args, _resolve_config(args))
    except (ConfigurationError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
