"""Outer Uzawa loop around the inner network training loop.

One run executes a fixed number of outer multiplier updates.  Inside each
outer step the multiplier is frozen and the network parameters take a fixed
number of optimiser steps on the quadrature Lagrangian; the multiplier is
then moved along the constraint residual.  The augmented variant adds the
squared-residual penalty to the objective and uses the penalty weight as
the multiplier step.

Errors against a closed-form solution (when the target has one) and the
decomposed loss are recorded once per outer update.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .closed_forms import ExactSolution
from .config import RunResult
from .errors import NumericOverflowError
from .geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet, l2_norm
from .lagrangian import (MultiplierField, ProblemSpec, loss_parts, multiplier_update,
                         residual_values, target_values, zero_multiplier)
from .network import (NetworkParameters, NetworkSpec, batch_jets, evaluate, init_network,
                      loss_and_gradient)
from .optim import AdamState, adam_step

VARIANTS = ("plain", "augmented")

LOSS_COLUMNS = ("misfit", "multiplier_term", "control_norm_term", "regulariser_term")


def resolve_rho(alpha: float, rho: float | None) -> float:
    """The multiplier step: ``rho`` when set, else the default alpha / 4."""
    return alpha / 4.0 if rho is None else rho


@dataclass(frozen=True)
class UzawaConfig:
    """Everything a run needs: problem, ansatz, budgets and step sizes."""

    problem: ProblemSpec
    network: NetworkSpec
    n_uzawa: int = 500
    n_sgd: int = 40
    learning_rate: float = 1e-3
    rho: float | None = None          # multiplier step; defaults to alpha / 4
    variant: str = "plain"
    beta: float = 0.0                 # augmentation weight and step
    seed: int = 0                     # mini-batch sampling seed
    n_points: int = 201
    batch_size: int | None = None

    def __post_init__(self):
        if self.n_uzawa < 1 or self.n_sgd < 1:
            raise ValueError("n_uzawa and n_sgd must be at least 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "augmented" and not self.beta > 0:
            raise ValueError("augmented variant needs beta > 0")
        if self.rho is not None and not self.rho > 0:
            raise ValueError("rho must be positive")

    @property
    def resolved_rho(self) -> float:
        return resolve_rho(self.problem.alpha, self.rho)


@dataclass
class RunRecord(RunResult):
    """Per-update histories plus the final trained fields.

    ``loss_history`` is (updates, 4) with columns LOSS_COLUMNS; ``u`` and
    ``f`` are the final state and control on the grid.
    """

    config: UzawaConfig
    cset: CollocationSet
    wall_times: np.ndarray
    params: NetworkParameters
    z: MultiplierField
    exact: ExactSolution | None = None

    @property
    def n_updates(self) -> int:
        return self.loss_history.shape[0]


def domain_for(network: NetworkSpec) -> Domain:
    return Domain.unit_interval() if network.input_dim == 1 else Domain.unit_square()


def exact_solution_for(problem: ProblemSpec) -> ExactSolution | None:
    """Closed form for the targets that have one, else None."""
    kind = problem.target.kind
    if kind == "sine1d":
        return ExactSolution("sine1d")
    if kind == "sine2d":
        return ExactSolution("sine2d")
    if kind == "ac_sine":
        return ExactSolution("ac_sine", epsilon=problem.epsilon)
    if kind == "constant" and problem.target.constant == 1.0 and problem.kind == "poisson":
        return ExactSolution("boundary_layer", alpha=problem.alpha)
    return None


def record_errors(params: NetworkParameters, cset: CollocationSet,
                  exact: ExactSolution, cutoff_b: np.ndarray | None = None):
    """Discrete L2 errors of state and control against a closed form."""
    if cutoff_b is None:
        cutoff_b = cutoff_jet(cset.domain, cset.points).b
    u, f = evaluate(params, cset.points, cutoff_b)
    state_err = l2_norm(cset, u - exact.state(cset.points))
    control_err = l2_norm(cset, f - exact.control(cset.points))
    return state_err, control_err


def _subset(cset: CollocationSet, idx: np.ndarray) -> CollocationSet:
    scale = cset.n_points / idx.size
    return CollocationSet(cset.domain, cset.points[idx], cset.weights[idx] * scale,
                          cset.interior_mask[idx])


def run_deep_uzawa(config: UzawaConfig, progress: bool = False) -> RunRecord:
    """Execute the full outer/inner iteration for one configuration.

    Runs exactly ``n_uzawa`` outer steps of ``n_sgd`` Adam updates each.  A
    non-finite loss, gradient or Adam step aborts the run with the partial
    history preserved and ``diverged_at`` set to the offending outer step.
    """
    problem = config.problem
    domain = domain_for(config.network)
    cset = build_grid(domain, config.n_points)
    target = target_values(problem, cset)
    cutoff = cutoff_jet(domain, cset.points)
    exact = exact_solution_for(problem)
    exact_u = exact.state(cset.points) if exact is not None else None
    exact_f = exact.control(cset.points) if exact is not None else None

    params = init_network(config.network)
    adam = AdamState.fresh(params.flat.size, lr=config.learning_rate)
    step = config.beta if config.variant == "augmented" else config.resolved_rho
    beta = config.beta if config.variant == "augmented" else 0.0
    z = zero_multiplier(cset)
    batch_rng = np.random.default_rng(config.seed)

    state_errors, control_errors, losses, walls = [], [], [], []
    diverged_at = None
    for k in range(config.n_uzawa):
        t0 = time.perf_counter()
        ok = True
        for _ in range(config.n_sgd):
            if config.batch_size is None or config.batch_size >= cset.n_points:
                sub, sub_target, sub_cutoff, sub_z = cset, target, cutoff, z
            else:
                idx = np.sort(batch_rng.choice(cset.n_points, config.batch_size, replace=False))
                sub = _subset(cset, idx)
                sub_target = target[idx]
                sub_cutoff = CutoffJet(cutoff.b[idx], cutoff.grad[idx], cutoff.lap[idx])
                z_full = np.zeros(cset.n_points)
                z_full[cset.interior_mask] = z.values
                sub_z = MultiplierField(z_full[idx][sub.interior_mask])
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    loss, grad = loss_and_gradient(params, sub, problem, sub_z, beta,
                                                   target=sub_target, cutoff=sub_cutoff)
                    adam, flat = adam_step(adam, params.flat, grad)
            except NumericOverflowError:
                ok = False
                break
            # a non-finite gradient entry leaves a non-finite entry in flat
            if not np.isfinite(loss) or not np.all(np.isfinite(flat)):
                ok = False
                break
            params = params.with_flat(flat)
        if ok:
            try:
                jets = batch_jets(params, cset.points, cutoff)
            except NumericOverflowError:
                ok = False
        if not ok:
            diverged_at = k
            break

        parts = loss_parts(problem, cset, jets, z, beta, target)
        losses.append([parts[c] for c in LOSS_COLUMNS])
        if exact is not None:
            state_errors.append(l2_norm(cset, jets.u - exact_u))
            control_errors.append(l2_norm(cset, jets.f - exact_f))
        mask = cset.interior_mask
        residual = residual_values(problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
        z = multiplier_update(z, residual, step)
        walls.append(time.perf_counter() - t0)
        if progress and (k + 1) % 50 == 0:
            msg = f"update {k + 1}/{config.n_uzawa}  loss parts {losses[-1]}"
            if exact is not None:
                msg += f"  state err {state_errors[-1]:.3e}"
            print(msg, flush=True)

    with np.errstate(over="ignore", invalid="ignore"):
        final_u, final_f = evaluate(params, cset.points, cutoff.b)
    return RunRecord(
        config=config,
        cset=cset,
        state_errors=np.array(state_errors) if exact is not None else None,
        control_errors=np.array(control_errors) if exact is not None else None,
        loss_history=np.array(losses).reshape(len(losses), len(LOSS_COLUMNS)),
        wall_times=np.array(walls),
        params=params,
        z=z,
        u=final_u,
        f=final_f,
        diverged_at=diverged_at,
        exact=exact,
    )


def rho_alpha_sweep(base: UzawaConfig, alphas) -> list[RunRecord]:
    """One run per regularisation weight with the base config's rho, which
    resolves to alpha / 4 for each alpha when unset."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha sweep needs at least one value")
    records = []
    for a in alphas:
        problem = replace(base.problem, alpha=float(a))
        records.append(run_deep_uzawa(replace(base, problem=problem)))
    return records
