"""Command line front end.

Subcommands:

  run <config>        train the collocation network (plain or augmented)
  oracle <config>     finite-difference reference iterations
  grad-check          verify jet Laplacians and loss gradients against
                      finite differences (acceptance criteria 1-2)
  sweep <config> --alphas A1 A2 ...   one run per regularisation weight

Exit codes: 0 success, 1 validation error, 2 numerical divergence.
"""
import os

# pin BLAS threading before numpy loads: the layer matrices here are small
# enough that thread fan-out costs more than it buys, and single-threaded
# reductions keep runs reproducible across machines
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import sys

from .config import (ExperimentConfig, emit_csv, load_pgm_target, parse_config,
                     sample_image_on_grid, write_csv)
from .driver import UzawaConfig, domain_for, resolve_rho, rho_alpha_sweep, run_deep_uzawa
from .errors import ConfigError, PgmError
from .fd_oracle import (Grid1D, constant_target, fd_direct_kkt_solve, fd_projected_uzawa_run,
                        fd_uzawa_run, gauss_seidel_adjoint_run, sine_target)
from .geometry import Domain, build_grid, cutoff_jet, l2_norm
from .lagrangian import ProblemSpec, TargetSpec
from .network import CHECK_BOUND, NetworkSpec, evaluate, grad_check, save_checkpoint

_NETWORK_TAGS = ("sine1d", "boundary_layer", "sine2d", "ac_sine", "ac_step", "ac_image")
_ORACLE_TAGS = ("fd_oracle", "sine1d", "boundary_layer")


def _problem_for(cfg: ExperimentConfig) -> tuple[ProblemSpec, int]:
    """Problem spec and spatial dimension for a network experiment tag."""
    if cfg.tag == "sine1d":
        return ProblemSpec("poisson", cfg.alpha, TargetSpec("sine1d")), 1
    if cfg.tag == "boundary_layer":
        return ProblemSpec("poisson", cfg.alpha, TargetSpec("constant", constant=1.0)), 1
    if cfg.tag == "sine2d":
        return ProblemSpec("poisson", cfg.alpha, TargetSpec("sine2d")), 2
    if cfg.tag == "ac_sine":
        return ProblemSpec("allen_cahn", cfg.alpha, TargetSpec("ac_sine"),
                           epsilon=cfg.epsilon), 1
    if cfg.tag == "ac_step":
        return ProblemSpec("allen_cahn", cfg.alpha, TargetSpec("step"),
                           epsilon=cfg.epsilon), 1
    if cfg.tag == "ac_image":
        img = load_pgm_target(cfg.image)
        grid = build_grid(Domain.unit_square(), cfg.n_points)
        samples = sample_image_on_grid(img, grid)
        return ProblemSpec("allen_cahn", cfg.alpha, TargetSpec("sampled", samples=samples),
                           epsilon=cfg.epsilon), 2
    raise ConfigError(f"tag {cfg.tag!r} is not a network experiment", key="tag")


def _uzawa_config(cfg: ExperimentConfig) -> UzawaConfig:
    problem, dim = _problem_for(cfg)
    network = NetworkSpec(dim, (cfg.hidden_width,) * cfg.hidden_depth, seed=cfg.seed)
    return UzawaConfig(
        problem=problem, network=network, n_uzawa=cfg.n_uzawa, n_sgd=cfg.n_sgd,
        learning_rate=cfg.learning_rate, rho=cfg.rho,
        variant=cfg.variant, beta=cfg.beta or 0.0, seed=cfg.seed,
        n_points=cfg.n_points, batch_size=cfg.batch_size,
    )


def _meta_from(cfg: ExperimentConfig, extra: dict | None = None) -> dict:
    meta = {k: v for k, v in vars(cfg).items() if v is not None}
    meta.update(extra or {})
    return meta


def _diverged(result, what: str, step: str) -> int:
    """Exit code of a finished run: 2, with one stderr line, if it diverged."""
    if result.diverged_at is None:
        return 0
    print(f"{what} diverged at {step} {result.diverged_at}", file=sys.stderr)
    return 2


def _write_run(record, cfg: ExperimentConfig, out_dir) -> list[str]:
    """CSVs, meta.txt and params.bin of one network run, plus its fields on
    the grid refined by ``eval_refine`` when that is above 1."""
    run_cfg = record.config
    extra = {"alpha": run_cfg.problem.alpha, "resolved_rho": run_cfg.resolved_rho,
             "n_parameters": run_cfg.network.n_parameters}
    if record.exact is not None and record.n_updates:
        extra["final_state_l2_error"] = record.state_errors[-1]
        extra["final_control_l2_error"] = record.control_errors[-1]
    files = emit_csv(record, out_dir, _meta_from(cfg, extra))
    save_checkpoint(record.params, os.path.join(out_dir, "params.bin"))
    if cfg.eval_refine == 1:
        return files

    domain = domain_for(run_cfg.network)
    fine = build_grid(domain, (run_cfg.n_points - 1) * cfg.eval_refine + 1)
    u, f = evaluate(record.params, fine.points, cutoff_jet(domain, fine.points).b)
    write_csv(os.path.join(out_dir, "State_refined.csv"), ("state",), [(v,) for v in u])
    write_csv(os.path.join(out_dir, "Control_refined.csv"), ("control",), [(v,) for v in f])
    if record.exact is not None:
        se = l2_norm(fine, u - record.exact.state(fine.points))
        ce = l2_norm(fine, f - record.exact.control(fine.points))
        with open(os.path.join(out_dir, "meta.txt"), "a", encoding="utf-8") as fh:
            fh.write(f"refined_state_l2_error = {se!r}\n")
            fh.write(f"refined_control_l2_error = {ce!r}\n")
    return files


def _cmd_run(cfg: ExperimentConfig, quiet: bool) -> int:
    if cfg.tag not in _NETWORK_TAGS:
        raise ConfigError(f"tag {cfg.tag!r} belongs to the oracle subcommand", key="tag")
    record = run_deep_uzawa(_uzawa_config(cfg), progress=not quiet)
    files = _write_run(record, cfg, cfg.output_dir)
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
    rho = resolve_rho(cfg.alpha, cfg.rho)
    methods = [cfg.oracle_method] if cfg.oracle_method != "all" else \
        ["uzawa", "projected", "gauss_seidel", "direct"]
    code = 0
    for method in methods:
        out_dir = cfg.output_dir if len(methods) == 1 else os.path.join(cfg.output_dir, method)
        if method == "direct":
            sol = fd_direct_kkt_solve(grid, cfg.alpha, target, dps=cfg.precision_dps)
            emit_csv(sol, out_dir,
                     _meta_from(cfg, {"method": method, "backward_error": sol.residual}))
            if not quiet:
                print(f"direct solve: backward error {sol.residual:.2e}")
            continue
        if method == "uzawa":
            run = fd_uzawa_run(grid, cfg.alpha, rho, target, cfg.oracle_iters,
                               dps=cfg.precision_dps)
        elif method == "projected":
            run = fd_projected_uzawa_run(grid, cfg.alpha, rho, target, cfg.oracle_iters,
                                         dps=cfg.precision_dps)
        else:
            run = gauss_seidel_adjoint_run(grid, cfg.alpha, target, cfg.oracle_iters)
        emit_csv(run, out_dir, _meta_from(cfg, {"method": method, "resolved_rho": rho}))
        if not quiet:
            print(f"{method}: final state error {run.state_errors[-1]:.3e}"
                  f" control error {run.control_errors[-1]:.3e}")
        code = max(code, _diverged(run, f"{method} oracle", "iteration"))
    return code


def _cmd_sweep(cfg: ExperimentConfig, alphas, quiet: bool) -> int:
    if cfg.tag not in _NETWORK_TAGS:
        raise ConfigError(f"sweep needs a network experiment tag, got {cfg.tag!r}", key="tag")
    base = _uzawa_config(cfg)
    records = rho_alpha_sweep(base, alphas)
    code = 0
    for a, record in zip(alphas, records):
        _write_run(record, cfg, os.path.join(cfg.output_dir, f"alpha_{a:g}"))
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
        if args.command == "run":
            return _cmd_run(cfg, args.quiet)
        if args.command == "oracle":
            return _cmd_oracle(cfg, args.quiet)
        return _cmd_sweep(cfg, args.alphas, args.quiet)
    except (ConfigError, PgmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
