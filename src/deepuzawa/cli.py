"""Command line front end.

Subcommands:

  run <config>        train the collocation network (plain or augmented)
  oracle <config>     finite-difference reference iterations
  grad-check          verify jet Laplacians and loss gradients against
                      finite differences (acceptance criteria 1-2)
  sweep <config> --alphas A1 A2 ...   one run per regularisation weight

run, sweep and oracle make every run directory first, one level at a time;
each run then writes its directory in the process that computed it, and the
command prints what comes back, in run order.

Exit codes: 0 success, 1 validation error, out of memory or a worker process
that died, 2 numerical divergence (for the Uzawa oracles also a step rho at or
above the contraction bound rho_max), 130 interrupted (Ctrl-C), 143 terminated
(SIGTERM); each stops every worker and removes the directories the command
made that no run wrote.
"""
import argparse
import contextlib
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .closed_forms import EXPERIMENTS, POISSON
from .config import ConfigError, ExperimentConfig, emit_csv, read_config
from .driver import problem_for, run_deep_uzawa
from .fd_oracle import (Grid1D, fd_direct_kkt_solve, fd_projected_uzawa_run, fd_uzawa_run,
                        gauss_seidel_adjoint_run, gauss_seidel_rate, uzawa_step_bounds)
from .network import CHECK_BOUND, grad_check, save_checkpoint
from .parallel import in_processes, sigterm_exits

# the finite-difference oracle solves Poisson on the unit interval
_ORACLE_TAGS = tuple(tag for tag, row in EXPERIMENTS.items()
                     if row.kind == POISSON and row.dim == 1)
_ORACLE_KEYS = ("oracle_method", "oracle_iters", "precision_dps")
# the config keys each oracle method reads and its meta.txt lists, in the
# order oracle_method = all runs them: only the Uzawa runs take a step size,
# the direct solve takes no iteration count, and Gauss-Seidel always runs in float64
_ORACLE_BASE = ("tag", "alpha", "n_points", "output_dir", "oracle_method")
_ORACLE_META = {"uzawa": _ORACLE_BASE + ("oracle_iters", "rho", "precision_dps"),
                "projected": _ORACLE_BASE + ("oracle_iters", "rho", "precision_dps"),
                "gauss_seidel": _ORACLE_BASE + ("oracle_iters",),
                "direct": _ORACLE_BASE + ("precision_dps",)}
_NETWORK_META = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _ORACLE_KEYS)


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


def _train(cfg: ExperimentConfig, progress: bool = False):
    """A training job: the run, then its directory, ``output_dir``:
    :func:`emit_csv`'s files and params.npy.  Returns the record and files."""
    record = run_deep_uzawa(cfg, progress=progress)
    out_dir = cfg.output_dir
    # an augmented run steps the multiplier by beta, which meta.txt already lists
    extra = {"resolved_rho": cfg.resolved_rho} if cfg.beta is None else {}
    extra["n_parameters"] = record.params.spec.n_parameters
    if record.state_errors is not None and record.n_updates:
        extra["final_state_l2_error"] = record.state_errors[-1]
        extra["final_control_l2_error"] = record.control_errors[-1]
    files = emit_csv(record, out_dir, _meta_from(cfg, _NETWORK_META, out_dir, extra))
    files.append(os.path.join(out_dir, "params.npy"))
    save_checkpoint(record.params, files[-1])
    return record, files


@contextlib.contextmanager
def _run_dirs(paths):
    """Make each missing level of every path before any job starts, so a path
    it cannot make fails the command with nothing computed; on leaving,
    remove each directory made here that is still empty, deepest first."""
    made = []
    try:
        for path in paths:
            parts = path.split(os.sep)
            for i in range(1, len(parts) + 1):
                level = os.sep.join(parts[:i]) or os.sep
                if not os.path.isdir(level):
                    os.mkdir(level)
                    made.append(level)
        yield
    finally:
        for path in reversed(made):
            with contextlib.suppress(OSError):  # a directory a run wrote is not empty
                os.rmdir(path)


def _each(job, calls, dirs, report) -> int:
    """Within :func:`_run_dirs` of ``dirs``, ``job(*args)`` for each of ``calls``
    through :func:`in_processes`; ``report(*result)`` prints each result, in
    call order, and gives its exit status.  Returns the largest status."""
    code = 0
    with _run_dirs(dirs), contextlib.closing(in_processes(job, calls)) as results:
        for result in results:
            code = max(code, report(*result))
    return code


def _cmd_run(cfg: ExperimentConfig, quiet: bool) -> int:
    def report(record, files):
        if not quiet:
            for path in files:
                print("wrote", path)
        return _diverged(record, "run", "update")
    return _each(_train, [(cfg, not quiet)], [cfg.output_dir], report)


def _oracle_methods(cfg: ExperimentConfig) -> list[str]:
    return list(_ORACLE_META) if cfg.oracle_method == "all" else [cfg.oracle_method]


def _solve_oracle(cfg: ExperimentConfig, method: str, grid, target, out_dir: str):
    """An oracle job: one method's solve and its directory.  Returns the
    method, its record and the extras its meta.txt lists after the keys."""
    extra = {"method": method}
    if method == "direct":
        run = fd_direct_kkt_solve(grid, cfg.alpha, target, dps=cfg.precision_dps)
        extra["backward_error"] = run.residual
    elif method == "gauss_seidel":
        run = gauss_seidel_adjoint_run(grid, cfg.alpha, target, cfg.oracle_iters)
        extra["kappa_max"] = gauss_seidel_rate(grid, cfg.alpha)
    else:
        rho = cfg.resolved_rho
        uzawa = fd_uzawa_run if method == "uzawa" else fd_projected_uzawa_run
        run = uzawa(grid, cfg.alpha, rho, target, cfg.oracle_iters, dps=cfg.precision_dps)
        rho_max, kappa_max = uzawa_step_bounds(grid, cfg.alpha, rho)
        extra.update(resolved_rho=rho, rho_max=rho_max, kappa_max=kappa_max)
        if method == "projected" and len(run.z_history):  # criterion 4's smallest multiplier
            extra["min_multiplier"] = float(run.z_history.min())
    emit_csv(run, out_dir, _meta_from(cfg, _ORACLE_META[method], out_dir, extra))
    return method, run, extra


def _cmd_oracle(cfg: ExperimentConfig, quiet: bool) -> int:
    problem, grid = problem_for(cfg)  # a network run's problem, its target checked finite
    target = problem.samples[grid.interior_mask]  # each solver rounds it into its arithmetic
    methods = _oracle_methods(cfg)
    dirs = [cfg.output_dir if len(methods) == 1 else os.path.join(cfg.output_dir, method)
            for method in methods]

    def report(method, run, extra):
        if not quiet and method == "direct":
            print(f"direct solve: backward error {run.residual:.2e}")
        elif not quiet and len(run.state_errors):
            print(f"{method}: final state error {run.state_errors[-1]:.3e}"
                  f" control error {run.control_errors[-1]:.3e}")
        status = _diverged(run, f"{method} oracle", "iteration")
        if not status and "rho_max" in extra and extra["resolved_rho"] >= extra["rho_max"]:
            # an inadmissible step need not pass the divergence limit: the
            # projected run can settle into a cycle
            print(f"{method} oracle step rho = {extra['resolved_rho']:g} is not below "
                  f"rho_max = {extra['rho_max']:.10g}", file=sys.stderr)
            status = 2
        return status
    calls = [(cfg, method, grid, target, path) for method, path in zip(methods, dirs)]
    return _each(_solve_oracle, calls, dirs, report)


def sweep_configs(base: ExperimentConfig, alphas) -> list[ExperimentConfig]:
    """One config per regularisation weight, stepping the multiplier by the
    base config's beta or rho (alpha / 4 when unset), into
    ``<output_dir>/alpha_<a>``.  Every problem is built here: alphas that
    would share a directory, or a target not finite, raise ValueError, and
    an alpha out of range ConfigError."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha sweep needs at least one value")
    dirs = [os.path.join(base.output_dir, f"alpha_{a:g}") for a in alphas]
    for i, path in enumerate(dirs):
        if (j := dirs.index(path)) < i:
            raise ValueError(f"alphas {alphas[j]!r} and {alphas[i]!r} both write "
                             f"{os.path.basename(path)}")
    configs = [replace(base, alpha=float(a), output_dir=path) for a, path in zip(alphas, dirs)]
    for cfg in configs:
        problem_for(cfg)
    return configs


def _cmd_sweep(cfg: ExperimentConfig, alphas, quiet: bool) -> int:
    configs = sweep_configs(cfg, alphas)

    def report(record, files):
        a = record.config.alpha
        if not quiet:
            errors = record.state_errors
            tail = ("no exact solution" if errors is None else
                    f"state err {errors[-1]:.3e}" if len(errors) else "no update recorded")
            print(f"alpha={a:g}: {tail}")
        return _diverged(record, f"alpha={a:g} run", "update")
    return _each(_train, [(c,) for c in configs], [c.output_dir for c in configs], report)


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


@sigterm_exits()
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

    try:
        args = parser.parse_args(argv)
        if args.command == "grad-check":
            return _cmd_grad_check(args.quiet)
        cfg, lines = read_config(args.config)
        # a tag or grid the oracle does not take is named before the keys it would drop
        if args.command == "oracle":
            if cfg.tag not in _ORACLE_TAGS:
                raise ConfigError(f"oracle runs support tags {_ORACLE_TAGS}; got {cfg.tag!r}",
                                  key="tag", line=lines["tag"])
            try:  # the oracle's stencil needs more points than the config's minimum
                Grid1D(cfg.n_points)
            except ValueError as exc:  # the default passes: n_points is set in the file
                raise ConfigError(str(exc), key="n_points", line=lines["n_points"]) from None
        # a file that sets a key the run would not read is refused, not
        # dropped without a word; every run takes a seed
        read = (_NETWORK_META if args.command != "oracle" else
                {"seed"}.union(*(_ORACLE_META[m] for m in _oracle_methods(cfg))))
        for key, line in lines.items():
            if key not in read:
                raise ConfigError(f"deepuzawa {args.command} does not use {key}",
                                  key=key, line=line)
        if args.command == "run":
            return _cmd_run(cfg, args.quiet)
        if args.command == "oracle":
            # overflow goes unreported: the finiteness checks decide the exit code
            with np.errstate(over="ignore", invalid="ignore"):
                return _cmd_oracle(cfg, args.quiet)
        return _cmd_sweep(cfg, args.alphas, args.quiet)
    except (OSError, ValueError) as exc:  # input the program cannot use, ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # every worker has been stopped on the way out
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
