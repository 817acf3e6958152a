"""Command line front end.

Subcommands:

  run <config>        train the collocation network (plain or augmented)
  oracle <config>     finite-difference reference iterations
  grad-check          verify jet Laplacians and loss gradients against
                      finite differences (acceptance criteria 1-2)
  sweep <config> --alphas A1 A2 ...   one run per regularisation weight

Exit codes: 0 success, 1 validation error, 2 numerical divergence (for the
Uzawa oracles also a step rho at or above the contraction bound rho_max).
"""
import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .closed_forms import EXPERIMENTS
from .config import ExperimentConfig, emit_csv, parse_config, write_csv
from .driver import DIAGNOSTIC_COLUMNS, rho_alpha_sweep, run_deep_uzawa
from .errors import ConfigError
from .fd_oracle import (Grid1D, constant_target, fd_direct_kkt_solve, fd_projected_uzawa_run,
                        fd_uzawa_run, gauss_seidel_adjoint_run, gauss_seidel_rate, sine_target,
                        uzawa_step_bounds)
from .geometry import build_grid, cutoff_jet, l2_norm
from .network import CHECK_BOUND, evaluate, grad_check, save_checkpoint

_ORACLE_TAGS = tuple(tag for tag, row in EXPERIMENTS.items() if row.oracle)
_ORACLE_KEYS = ("oracle_method", "oracle_iters", "precision_dps")
# the config keys each subcommand's meta.txt lists; of the oracle methods
# only the Uzawa runs take a step size, and Gauss-Seidel always runs in float64
_ORACLE_BASE = ("tag", "alpha", "n_points", "output_dir", "oracle_method", "oracle_iters")
_ORACLE_META = {"uzawa": _ORACLE_BASE + ("rho", "precision_dps"),
                "projected": _ORACLE_BASE + ("rho", "precision_dps"),
                "direct": _ORACLE_BASE + ("precision_dps",), "gauss_seidel": _ORACLE_BASE}
_NETWORK_META = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _ORACLE_KEYS)
# optional keys a subcommand would otherwise drop without a word
_UNUSED_KEYS = {"run": ("precision_dps",), "sweep": ("precision_dps",),
                "oracle": ("beta", "batch_size")}


def _meta_from(cfg: ExperimentConfig, keys, out_dir, extra: dict) -> dict:
    """meta.txt of one run directory: the set config ``keys``, with
    ``output_dir`` the directory itself, then ``extra``."""
    meta = {k: v for k, v in vars(cfg).items() if k in keys and v is not None}
    return {**meta, "output_dir": out_dir, **extra}


def _diverged(result, what: str, step: str) -> int:
    """Exit code of a finished run: 2, with one stderr line, if it diverged."""
    if result.diverged_at is None:
        return 0
    print(f"{what} diverged at {step} {result.diverged_at}", file=sys.stderr)
    return 2


def _write_run(record) -> list[str]:
    """CSVs, meta.txt and params.bin of one network run in its config's
    ``output_dir``: Diagnostics.csv holds, per update, its wall time and
    DIAGNOSTIC_COLUMNS.  Plus its fields on the grid refined by
    ``eval_refine`` when that is above 1."""
    cfg, out_dir, exact = record.config, record.config.output_dir, record.exact
    # an augmented run steps the multiplier by beta, which meta.txt already lists
    extra = {"resolved_rho": cfg.resolved_rho} if cfg.beta is None else {}
    extra["n_parameters"] = record.params.spec.n_parameters
    if exact is not None and record.n_updates:
        extra["final_state_l2_error"] = record.state_errors[-1]
        extra["final_control_l2_error"] = record.control_errors[-1]
    if cfg.eval_refine > 1:
        domain = record.cset.domain
        fine = build_grid(domain, (cfg.n_points - 1) * cfg.eval_refine + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            u, f = evaluate(record.params, fine.points, cutoff_jet(domain, fine.points).b)
            if exact is not None:
                extra["refined_state_l2_error"] = l2_norm(fine, u - exact.state(fine.points))
                extra["refined_control_l2_error"] = l2_norm(fine, f - exact.control(fine.points))
    files = emit_csv(record, out_dir, _meta_from(cfg, _NETWORK_META, out_dir, extra))
    path = os.path.join(out_dir, "Diagnostics.csv")
    write_csv(path, ("update", "wall_s", *DIAGNOSTIC_COLUMNS),
              range(len(record.wall_times)), record.wall_times, *record.diagnostics.T)
    files.append(path)
    save_checkpoint(record.params, os.path.join(out_dir, "params.bin"))
    if cfg.eval_refine > 1:
        write_csv(os.path.join(out_dir, "State_refined.csv"), ("state",), u)
        write_csv(os.path.join(out_dir, "Control_refined.csv"), ("control",), f)
    return files


def _cmd_run(cfg: ExperimentConfig, quiet: bool) -> int:
    record = run_deep_uzawa(cfg, progress=not quiet)
    files = _write_run(record)
    if not quiet:
        for path in files:
            print("wrote", path)
    return _diverged(record, "run", "update")


def _oracle_target(cfg: ExperimentConfig, grid: Grid1D):
    if cfg.tag == "boundary_layer":
        return constant_target(grid, 1.0, dps=cfg.precision_dps)
    return sine_target(grid, cfg.alpha, dps=cfg.precision_dps)


def _cmd_oracle(cfg: ExperimentConfig, quiet: bool) -> int:
    if cfg.tag not in _ORACLE_TAGS:
        raise ConfigError(
            f"oracle runs support tags {_ORACLE_TAGS}; got {cfg.tag!r}", key="tag")
    grid = Grid1D(cfg.n_points)
    target = _oracle_target(cfg, grid)
    rho = cfg.resolved_rho
    methods = [cfg.oracle_method] if cfg.oracle_method != "all" else \
        ["uzawa", "projected", "gauss_seidel", "direct"]
    code = 0
    for method in methods:
        out_dir = cfg.output_dir if len(methods) == 1 else os.path.join(cfg.output_dir, method)
        keys = _ORACLE_META[method]
        if method == "direct":
            sol = fd_direct_kkt_solve(grid, cfg.alpha, target, dps=cfg.precision_dps)
            emit_csv(sol, out_dir, _meta_from(cfg, keys, out_dir, {
                "method": method, "backward_error": sol.residual}))
            if not quiet:
                print(f"direct solve: backward error {sol.residual:.2e}")
            continue
        if method == "gauss_seidel":
            run = gauss_seidel_adjoint_run(grid, cfg.alpha, target, cfg.oracle_iters)
            extra = {"method": method, "kappa_max": gauss_seidel_rate(grid, cfg.alpha)}
        else:
            uzawa = fd_uzawa_run if method == "uzawa" else fd_projected_uzawa_run
            run = uzawa(grid, cfg.alpha, rho, target, cfg.oracle_iters, dps=cfg.precision_dps)
            rho_max, kappa_max = uzawa_step_bounds(grid, cfg.alpha, rho)
            extra = {"method": method, "resolved_rho": rho, "rho_max": rho_max,
                     "kappa_max": kappa_max}
        emit_csv(run, out_dir, _meta_from(cfg, keys, out_dir, extra))
        write_csv(os.path.join(out_dir, "Diagnostics.csv"), ("iteration", "multiplier_error"),
                  range(len(run.z_errors)), run.z_errors)
        if not quiet:
            print(f"{method}: final state error {run.state_errors[-1]:.3e}"
                  f" control error {run.control_errors[-1]:.3e}")
        status = _diverged(run, f"{method} oracle", "iteration")
        if not status and "rho_max" in extra and rho >= rho_max:
            # an inadmissible step need not pass the divergence limit: the
            # projected run can settle into a cycle
            print(f"{method} oracle step rho = {rho:g} is not below rho_max = {rho_max:.10g}",
                  file=sys.stderr)
            status = 2
        code = max(code, status)
    return code


def _cmd_sweep(cfg: ExperimentConfig, alphas, quiet: bool) -> int:
    code = 0
    for a, record in zip(alphas, rho_alpha_sweep(cfg, alphas)):
        _write_run(record)
        if not quiet:
            tail = (f"state err {record.state_errors[-1]:.3e}"
                    if record.state_errors is not None and record.n_updates else "no exact solution")
            print(f"alpha={a:g}: {tail}")
        code = max(code, _diverged(record, f"alpha={a:g} run", "update"))
    return code


def _cmd_grad_check(quiet: bool) -> int:
    failures = []
    for name, err in grad_check().items():
        ok = err <= CHECK_BOUND
        if not quiet:
            print(f"{name}: max rel {err:.2e} {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    if failures:
        print("grad-check failures: " + ", ".join(failures), file=sys.stderr)
        return 1
    if not quiet:
        print("all checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="deepuzawa", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="train the collocation network")
    p_run.add_argument("config")
    p_oracle = sub.add_parser("oracle", help="finite-difference reference iterations")
    p_oracle.add_argument("config")
    sub.add_parser("grad-check", help="verify jets and gradients")
    p_sweep = sub.add_parser("sweep", help="one run per alpha")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--alphas", nargs="+", type=float, required=True)
    args = parser.parse_args(argv)

    try:
        if args.command == "grad-check":
            return _cmd_grad_check(args.quiet)
        cfg = parse_config(args.config)
        for key in _UNUSED_KEYS[args.command]:
            if getattr(cfg, key) is not None:
                raise ConfigError(f"deepuzawa {args.command} does not use {key}", key=key)
        if args.command == "run":
            return _cmd_run(cfg, args.quiet)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args.quiet)
        return _cmd_sweep(cfg, args.alphas, args.quiet)
    except (OSError, ValueError) as exc:  # ConfigError and PgmError included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
