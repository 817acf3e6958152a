"""Outer Uzawa loop around the inner network training loop.

One run executes a fixed number of outer multiplier updates.  Inside each
outer step the multiplier is frozen and the network parameters take a fixed
number of optimiser steps on the quadrature Lagrangian over the problem's
whole collocation grid; the multiplier is then moved along the constraint
residual.  A config that sets ``beta`` runs the augmented variant: the
problem carries it as the loss's penalty weight (:func:`problem_for`) and
the run steps the multiplier by it.

The diagnostics (DIAGNOSTIC_COLUMNS), the decomposed loss and the errors
against a closed-form solution (when the tag has one) are recorded once
per outer update, as one row of a history table.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .closed_forms import EXPERIMENTS
from .config import LOSS_COLUMNS, ExperimentConfig, RunResult, target_on_grid
from .geometry import CollocationSet, Domain, build_grid, l2_norm
from .lagrangian import ProblemSpec, loss_parts, multiplier_update, residual_values
from .network import NetworkParameters, NetworkSpec, batch_jets, init_network, loss_and_gradient
from .optim import AdamState, adam_step

# per update: wall time, weighted interior L2 norms of the constraint residual K
# and of the updated multiplier, the last inner step's gradient norm, the loss
DIAGNOSTIC_COLUMNS = ("wall_s", "residual_l2", "multiplier_l2", "grad_l2", "loss_total")


@dataclass
class RunRecord(RunResult):
    """Per-update histories plus the final trained fields.

    ``loss_history`` is (updates, 4) with columns LOSS_COLUMNS and
    ``diagnostics`` (updates, 5) with columns DIAGNOSTIC_COLUMNS; ``u`` and
    ``f`` are the final state and control on the grid, ``z`` the final
    multiplier on its interior points.
    """

    DIAGNOSTICS = ("update", *DIAGNOSTIC_COLUMNS)

    config: ExperimentConfig
    cset: CollocationSet
    params: NetworkParameters

    @property
    def n_updates(self) -> int:
        return self.loss_history.shape[0]


def problem_for(cfg: ExperimentConfig) -> ProblemSpec:
    """The problem of a network experiment tag: its ``beta`` or 0, its
    collocation grid and its target sampled there (:func:`target_on_grid`)."""
    cset = build_grid(Domain(EXPERIMENTS[cfg.tag].dim), cfg.n_points)
    return ProblemSpec(cfg.tag, cfg.alpha, cfg.epsilon, cfg.beta or 0.0, grid=cset,
                       samples=target_on_grid(cfg, cset))


def run_deep_uzawa(config: ExperimentConfig, progress: bool = False) -> RunRecord:
    """Execute the full outer/inner iteration for one network experiment.

    Runs exactly ``n_uzawa`` outer steps of ``n_sgd`` Adam updates each;
    ``u`` and ``f`` are the full-grid jets that the last recorded errors measure.
    The run diverges at the first outer step where an Adam step's loss or
    new parameters, or the step's own loss on the full grid, is non-finite:
    it stops there with ``diverged_at`` set to that step, the histories of
    the steps before it, and the network (``params``, ``u``, ``f``) of the
    last recorded step, or the initial one when none was recorded, rebuilt
    from the copy of the parameters taken when the diverging step began.
    ``diverged_reason`` says which check failed, ``inner_loss``,
    ``adam_step`` or ``update_loss``, and for the first two
    ``diverged_inner_step`` gives the Adam step within the update.
    Errors are recorded when the tag has a closed form.  The multiplier
    step is ``beta`` when it is set (the augmented variant, which also adds
    the ``beta``-weighted penalty), else ``resolved_rho``.
    """
    problem = problem_for(config)
    cset = problem.grid
    exact = EXPERIMENTS[config.tag].exact
    # the closed form (u*, f*) on the grid, or () when the tag has none
    reference = () if exact is None else exact(cset.points, config.alpha, config.epsilon)

    network = NetworkSpec(cset.domain.dim, (config.hidden_width,) * config.hidden_depth,
                          seed=config.seed)
    params = init_network(network)
    adam = AdamState.fresh(params.flat.size, lr=config.learning_rate)
    step = config.resolved_rho if config.beta is None else config.beta
    z = np.zeros(cset.n_interior)
    mask = cset.interior_mask
    interior_weights = cset.weights[mask]

    rows = []  # per update: DIAGNOSTIC_COLUMNS (5), LOSS_COLUMNS (4), the errors (0 or 2)
    diverged_at = diverged_reason = diverged_inner_step = None
    # overflow goes unreported: the finiteness checks below decide divergence
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_uzawa):
            t0 = time.perf_counter()
            recorded = params.flat.copy()
            for i in range(config.n_sgd):
                loss, grad = loss_and_gradient(params, problem, z)
                adam_step(adam, params.flat, grad)  # params.layers view the new values
                # a non-finite gradient entry leaves a non-finite parameter
                if not np.isfinite(loss) or not np.all(np.isfinite(params.flat)):
                    diverged_at, diverged_inner_step = k, i
                    diverged_reason = "adam_step" if np.isfinite(loss) else "inner_loss"
                    break
            else:
                jets = batch_jets(params, cset.points, cset.cutoff)
                parts = loss_parts(problem, jets, z)
                # every weight is positive: a non-finite jet makes the total non-finite
                if not np.isfinite(parts["total"]):
                    diverged_at, diverged_reason = k, "update_loss"
            if diverged_at is not None:
                params = NetworkParameters(network, recorded)
                jets = batch_jets(params, cset.points, cset.cutoff)
                break

            losses = [parts[c] for c in LOSS_COLUMNS]
            errors = [l2_norm(cset, v - r) for v, r in zip((jets.u, jets.f), reference)]
            residual = residual_values(problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
            z = multiplier_update(z, residual, step)
            rows.append([time.perf_counter() - t0,
                         np.sqrt(np.dot(interior_weights, residual * residual)),
                         np.sqrt(np.dot(interior_weights, z * z)),
                         np.linalg.norm(grad), parts["total"], *losses, *errors])
            if progress and (k + 1) % 50 == 0:
                tail = f"  state err {errors[0]:.3e}" if errors else ""
                print(f"update {k + 1}/{config.n_uzawa}  loss parts {losses}{tail}", flush=True)
    history = np.array(rows).reshape(-1, 9 + len(reference))
    state_errors, control_errors = history[:, 9:].T if reference else (None, None)
    return RunRecord(
        config=config,
        cset=cset,
        state_errors=state_errors,
        control_errors=control_errors,
        loss_history=history[:, 5:9],
        diagnostics=history[:, :5],
        params=params,
        z=z,
        u=jets.u,
        f=jets.f,
        diverged_at=diverged_at,
        diverged_reason=diverged_reason,
        diverged_inner_step=diverged_inner_step,
    )

