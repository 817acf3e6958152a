"""Outer Uzawa loop around the inner network training loop.

One run executes a fixed number of outer multiplier updates.  Inside each
outer step the multiplier is frozen and the network parameters take a fixed
number of optimiser steps on the quadrature Lagrangian; the multiplier is
then moved along the constraint residual.  A config that sets ``beta``
runs the augmented variant: it adds the squared-residual penalty, weighted
by ``beta``, to the objective and uses ``beta`` as the multiplier step.

Errors against a closed-form solution (when the tag has one), the
decomposed loss, the wall time and the diagnostics (DIAGNOSTIC_COLUMNS)
are recorded once per outer update.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import EXPERIMENTS, ExactSolution
from .config import ExperimentConfig, RunResult, load_pgm_target, sample_image_on_grid
from .errors import ConfigError
from .geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet, l2_norm
from .lagrangian import (ProblemSpec, loss_parts, multiplier_update, residual_values,
                         target_values)
from .network import (NetworkParameters, NetworkSpec, batch_jets, evaluate, init_network,
                      loss_and_gradient)
from .optim import AdamState, adam_step

LOSS_COLUMNS = ("misfit", "multiplier_term", "control_norm_term", "regulariser_term")
# per update: weighted interior L2 norms of the constraint residual K and of
# the updated multiplier, the last inner step's gradient norm, the loss
DIAGNOSTIC_COLUMNS = ("residual_l2", "multiplier_l2", "grad_l2", "loss_total")


@dataclass
class RunRecord(RunResult):
    """Per-update histories plus the final trained fields.

    ``loss_history`` is (updates, 4) with columns LOSS_COLUMNS and
    ``diagnostics`` (updates, 4) with columns DIAGNOSTIC_COLUMNS; ``u`` and
    ``f`` are the final state and control on the grid, ``z`` the final
    multiplier on its interior points.
    """

    config: ExperimentConfig
    cset: CollocationSet
    wall_times: np.ndarray
    diagnostics: np.ndarray
    params: NetworkParameters
    z: np.ndarray
    exact: ExactSolution | None = None

    @property
    def n_updates(self) -> int:
        return self.loss_history.shape[0]


def problem_for(cfg: ExperimentConfig) -> tuple[ProblemSpec, Domain]:
    """Problem spec and domain of a network experiment tag; the image tag's
    target is sampled on the run's grid."""
    row = EXPERIMENTS[cfg.tag]
    if row.kind is None:
        raise ConfigError(f"tag {cfg.tag!r} belongs to the oracle subcommand", key="tag")
    domain = Domain(row.dim)
    samples = None
    if row.target == "image":
        samples = sample_image_on_grid(load_pgm_target(cfg.image),
                                       build_grid(domain, cfg.n_points))
    return ProblemSpec(cfg.tag, cfg.alpha, cfg.epsilon, samples), domain


def _subset(cset: CollocationSet, idx: np.ndarray) -> CollocationSet:
    scale = cset.n_points / idx.size
    return CollocationSet(cset.domain, cset.points[idx], cset.weights[idx] * scale,
                          cset.interior_mask[idx])


def run_deep_uzawa(config: ExperimentConfig, progress: bool = False) -> RunRecord:
    """Execute the full outer/inner iteration for one network experiment.

    Runs exactly ``n_uzawa`` outer steps of ``n_sgd`` Adam updates each.
    The run diverges at the first outer step where an Adam step's loss or
    new parameters, or the step's own loss on the full grid, is non-finite:
    it stops there with ``diverged_at`` set to that step and the histories
    of the steps before it.  ``diverged_reason`` says which check failed,
    ``inner_loss``, ``adam_step`` or ``update_loss``, and for the first two
    ``diverged_inner_step`` gives the Adam step within the update.
    Errors are recorded when the tag has a closed form.  The multiplier
    step is ``beta`` when it is set (the augmented variant, which also adds
    the ``beta``-weighted penalty), else ``resolved_rho``.
    """
    problem, domain = problem_for(config)
    cset = build_grid(domain, config.n_points)
    target = target_values(problem, cset)
    cutoff = cutoff_jet(domain, cset.points)
    exact = None
    if EXPERIMENTS[config.tag].exact is not None:
        exact = ExactSolution(config.tag, alpha=config.alpha, epsilon=config.epsilon)
        exact_u, exact_f = exact.state(cset.points), exact.control(cset.points)

    network = NetworkSpec(domain.dim, (config.hidden_width,) * config.hidden_depth,
                          seed=config.seed)
    params = init_network(network)
    adam = AdamState.fresh(params.flat.size, lr=config.learning_rate)
    step = config.resolved_rho if config.beta is None else config.beta
    beta = 0.0 if config.beta is None else config.beta
    z = np.zeros(cset.n_interior)
    mask = cset.interior_mask
    interior_weights = cset.weights[mask]
    batch_rng = np.random.default_rng(config.seed)

    state_errors, control_errors, losses, walls, diagnostics = [], [], [], [], []
    diverged_at = diverged_reason = diverged_inner_step = None
    # overflow goes unreported: the finiteness checks below decide divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_uzawa):
            t0 = time.perf_counter()
            for i in range(config.n_sgd):
                if config.batch_size is None or config.batch_size >= cset.n_points:
                    sub, sub_target, sub_cutoff, sub_z = cset, target, cutoff, z
                else:
                    idx = np.sort(batch_rng.choice(cset.n_points, config.batch_size,
                                                   replace=False))
                    sub = _subset(cset, idx)
                    sub_target = target[idx]
                    sub_cutoff = CutoffJet(cutoff.b[idx], cutoff.grad[idx], cutoff.lap[idx])
                    z_full = np.zeros(cset.n_points)
                    z_full[cset.interior_mask] = z
                    sub_z = z_full[idx][sub.interior_mask]
                loss, grad = loss_and_gradient(params, sub, problem, sub_z, beta,
                                               target=sub_target, cutoff=sub_cutoff)
                adam, flat = adam_step(adam, params.flat, grad)
                # a non-finite gradient entry leaves a non-finite entry in flat
                if not np.isfinite(loss) or not np.all(np.isfinite(flat)):
                    diverged_at, diverged_inner_step = k, i
                    diverged_reason = "adam_step" if np.isfinite(loss) else "inner_loss"
                    break
                params = params.with_flat(flat)
            else:
                jets = batch_jets(params, cset.points, cutoff)
                parts = loss_parts(problem, cset, jets, z, beta, target)
                # every weight is positive: a non-finite jet makes the total non-finite
                if not np.isfinite(parts["total"]):
                    diverged_at, diverged_reason = k, "update_loss"
            if diverged_at is not None:
                break

            losses.append([parts[c] for c in LOSS_COLUMNS])
            if exact is not None:
                state_errors.append(l2_norm(cset, jets.u - exact_u))
                control_errors.append(l2_norm(cset, jets.f - exact_f))
            residual = residual_values(problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
            z = multiplier_update(z, residual, step)
            walls.append(time.perf_counter() - t0)
            diagnostics.append([np.sqrt(np.dot(interior_weights, residual * residual)),
                                np.sqrt(np.dot(interior_weights, z * z)),
                                np.linalg.norm(grad), parts["total"]])
            if progress and (k + 1) % 50 == 0:
                msg = f"update {k + 1}/{config.n_uzawa}  loss parts {losses[-1]}"
                if exact is not None:
                    msg += f"  state err {state_errors[-1]:.3e}"
                print(msg, flush=True)
        final_u, final_f = evaluate(params, cset.points, cutoff.b)
    return RunRecord(
        config=config,
        cset=cset,
        state_errors=np.array(state_errors) if exact is not None else None,
        control_errors=np.array(control_errors) if exact is not None else None,
        loss_history=np.array(losses).reshape(len(losses), len(LOSS_COLUMNS)),
        wall_times=np.array(walls),
        diagnostics=np.array(diagnostics).reshape(len(diagnostics), len(DIAGNOSTIC_COLUMNS)),
        params=params,
        z=z,
        u=final_u,
        f=final_f,
        diverged_at=diverged_at,
        diverged_reason=diverged_reason,
        diverged_inner_step=diverged_inner_step,
        exact=exact,
    )


def rho_alpha_sweep(base: ExperimentConfig, alphas) -> list[RunRecord]:
    """One run per regularisation weight, each stepping the multiplier by
    the base config's beta or else its rho, alpha / 4 for each alpha when
    unset.  Run ``alpha = a`` has ``output_dir`` ``<base output_dir>/alpha_<a>``.
    Every config is built before the first run: alphas that would share a
    directory raise ValueError, and an alpha out of range ConfigError."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha sweep needs at least one value")
    names = [f"alpha_{a:g}" for a in alphas]
    for i, name in enumerate(names):
        j = names.index(name)
        if j < i:
            raise ValueError(f"alphas {alphas[j]!r} and {alphas[i]!r} both write {name}")
    configs = [replace(base, alpha=float(a), output_dir=os.path.join(base.output_dir, name))
               for a, name in zip(alphas, names)]
    return [run_deep_uzawa(cfg) for cfg in configs]
