"""The benchmark's workloads: what one repetition sets up, times and checks.

Every repetition runs in a fresh interpreter (see ``worker.py``).  Set-up
imports ``deepuzawa``, writes and parses the workload's config and builds
its targets; the timed part calls ``deepuzawa``'s public entry points; the
check then decides whether the outputs are right.  This module imports
``deepuzawa`` only inside those functions, so ``run.py`` can read the
workload table without loading numpy.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One workload: its base config, the keys the benchmark overrides, the
    correctness tolerances, the calibration kernel of the timed calls'
    character (``calibrate.KERNELS``) and the nominal length of one
    repetition."""

    name: str
    kind: str           # "train", "oracle_mp" or "oracle_f64"
    why: str
    config: str         # base config, relative to the checkout root
    settings: dict      # config keys overridden on top of the base config
    tolerances: dict
    kernel: str
    rep_seconds: float  # one repetition at the seed commit; sets how many fit in a run


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "train_1d", "train",
            "paper's default problem; smallest jet rows (3 x 201), so Adam, parameter "
            "rebuild, pointwise partials and the driver loop have their largest share",
            "configs/sine1d.cfg", {"n_uzawa": 24}, {"state_rel": 0.1}, "numpy", 3.0),
        Workload(
            "train_2d", "train",
            "30x30 grid: 5 x 900 stacked jet rows and a tape seven times L2, so the "
            "jet engine's forward and reverse sweeps are nearly the whole run",
            "configs/sine2d.cfg", {"n_uzawa": 4}, {"state_rel": 0.1}, "numpy", 3.5),
        Workload(
            "oracle_mp", "oracle_mp",
            "plain and projected Uzawa oracle at 130 digits (acceptance criteria 3-4): "
            "mpf arithmetic in the banded loops is the whole cost; never touches the network",
            "configs/fd_oracle.cfg", {"n_points": 201, "precision_dps": 130},
            {"state_rel": 1e-6, "projected_rel": 1e-8}, "python", 10.0),
        Workload(
            "oracle_f64", "oracle_f64",
            "the CLI oracle, all four methods in float64 on a 4001-point grid: the same "
            "Python-list banded loops without mpf, plus direct solve, Gauss-Seidel and CSVs",
            "configs/fd_oracle.cfg", {"n_points": 4001, "oracle_method": "all"},
            {"backward": 1e-12, "state_rel": 1e-4}, "python", 4.0),
    )
}


def write_config(w: Workload, root: Path, seed: int, out_dir: Path) -> Path:
    """The base config with the workload's settings, the seed and an output
    directory inside ``out_dir`` put in place of the base values."""
    own = {**w.settings, "seed": seed, "output_dir": str(out_dir / "run")}
    lines = []
    for line in (root / w.config).read_text(encoding="utf-8").splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key not in own:
            lines.append(line)
    lines += [f"{key} = {value}" for key, value in own.items()]
    path = out_dir / "bench.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def setup(w: Workload, root: Path, seed: int, out_dir: Path) -> dict:
    """Config written and parsed, targets built: everything the timed calls
    and the check need.  ``deepuzawa`` is already imported by the caller."""
    from deepuzawa.config import parse_config

    path = write_config(w, root, seed, out_dir)
    cfg = parse_config(path)
    state = {"config_path": str(path), "cfg": cfg}
    if w.kind == "train":
        from deepuzawa.closed_forms import ExactSolution
        from deepuzawa.geometry import Domain, build_grid, l2_norm

        domain = Domain.unit_interval() if cfg.tag == "sine1d" else Domain.unit_square()
        cset = build_grid(domain, cfg.n_points)
        state["exact_norm"] = l2_norm(cset, ExactSolution(cfg.tag).state(cset.points))
    elif w.kind == "oracle_mp":
        from deepuzawa import fd_oracle

        grid = fd_oracle.Grid1D(cfg.n_points)
        state["grid"] = grid
        state["target"] = fd_oracle.sine_target(grid, cfg.alpha, dps=cfg.precision_dps)
    return state


def timed(w: Workload, state: dict):
    """The calls whose wall time is ``run_s``.  Functions are looked up on
    their modules at call time, so the traced run sees its wrappers."""
    from deepuzawa import cli, fd_oracle

    if w.kind == "train":
        return cli.main(["-q", "run", state["config_path"]])
    if w.kind == "oracle_f64":
        return cli.main(["-q", "oracle", state["config_path"]])
    cfg, grid, target = state["cfg"], state["grid"], state["target"]
    rho = cfg.alpha / 4
    plain = fd_oracle.fd_uzawa_run(grid, cfg.alpha, rho, target, cfg.oracle_iters,
                                   dps=cfg.precision_dps)
    projected = fd_oracle.fd_projected_uzawa_run(grid, cfg.alpha, rho, target,
                                                 cfg.oracle_iters, dps=cfg.precision_dps)
    return plain, projected


def _read_meta(path: Path) -> dict:
    meta = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def _bounded(seen: dict, tol: dict, keys) -> list[str]:
    return [f"{key} = {seen[key]:.3e} exceeds {tol[key]:g}" for key in keys
            if not seen[key] <= tol[key]]


def check(w: Workload, state: dict, result) -> tuple[dict, list[str]]:
    """The checked quantities of one repetition, and the checks it fails
    (none when the outputs are right)."""
    tol = w.tolerances
    run_dir = Path(state["cfg"].output_dir)
    if w.kind == "train":
        meta = _read_meta(run_dir / "meta.txt")
        seen = {"exit_code": result, "diverged_at": meta.get("diverged_at")}
        failures = [f"deepuzawa run exited with {result}"] if result != 0 else []
        if seen["diverged_at"] is not None:
            return seen, failures + [f"diverged at update {seen['diverged_at']}"]
        seen["state_rel"] = float(meta["final_state_l2_error"]) / state["exact_norm"]
        return seen, failures + _bounded(seen, tol, ("state_rel",))

    from deepuzawa.fd_oracle import Grid1D, grid_norm

    if w.kind == "oracle_f64":
        from deepuzawa.config import read_csv

        _, u_star = read_csv(run_dir / "direct" / "State.csv")
        _, errors = read_csv(run_dir / "uzawa" / "Error.csv")
        seen = {
            "exit_code": result,
            "backward": float(_read_meta(run_dir / "direct" / "meta.txt")["backward_error"]),
            "state_rel": errors[-1, 1] / grid_norm(Grid1D(state["cfg"].n_points), u_star[:, 0]),
        }
        failures = [f"deepuzawa oracle exited with {result}"] if result != 0 else []
        return seen, failures + _bounded(seen, tol, ("backward", "state_rel"))

    grid = state["grid"]
    plain, projected = result
    rising = (plain.z_errors[1:] >= plain.z_errors[:-1]).nonzero()[0]
    seen = {
        "first_non_decrease": int(rising[0]) if rising.size else None,
        "state_rel": plain.state_errors[-1] / grid_norm(grid, plain.reference.u),
        "min_projected_z": float(projected.z_history.min()),
        "projected_rel": max(grid_norm(grid, getattr(projected, f) - getattr(plain, f))
                             / grid_norm(grid, getattr(plain, f)) for f in ("u", "f")),
    }
    failures = _bounded(seen, tol, ("state_rel", "projected_rel"))
    if seen["first_non_decrease"] is not None:
        failures.append("multiplier error not strictly decreasing at "
                        f"k={seen['first_non_decrease']}")
    if not seen["min_projected_z"] >= 0.0:
        failures.append(f"negative projected multiplier {seen['min_projected_z']:.3e}")
    return seen, failures
