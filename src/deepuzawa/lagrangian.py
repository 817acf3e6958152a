"""Constraint residuals, cost densities, the discrete Lagrangian and the
multiplier update.

Two constraint kinds are supported.  For the linear (Poisson) problem the
residual is K(u, f) = lap(u) + f.  For the stationary Allen-Cahn problem the
operator is A(u) = -lap(u) - (1/eps^2) u (1 - u^2) and the residual is
K(u, f) = A(u) - f.

The quadrature Lagrangian over the problem's collocation grid is

    L_Q = sum_y w_y [ 0.5 (u - D)^2 + (alpha/4) f^2 + (alpha/4) (lap u)^2 ]
        + sum_{y interior} w_y z(y) K(y)
        + (beta/2) sum_{y interior} w_y K(y)^2

with (lap u)^2 replaced by (A u)^2 in the Allen-Cahn case, and beta = 0 outside
the augmented variant; alpha, beta, the grid and the target D are fields
of :class:`ProblemSpec`, checked together once, when it is built.
The multiplier z is a float64 array on the interior points; boundary
residuals are never formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import EXPERIMENTS, POISSON
from .geometry import CollocationSet


@dataclass(frozen=True, eq=False)  # array fields: == cannot compare them
class ProblemSpec:
    """An experiment tag of :data:`~deepuzawa.closed_forms.EXPERIMENTS` with
    its regularisation weight, its Allen-Cahn epsilon, its penalty weight
    beta (0: the plain Lagrangian) and, keyword only, its collocation grid
    and its target sampled there (:func:`~deepuzawa.config.target_on_grid`).
    Checked once, when built; a built problem cannot be assigned to."""

    tag: str
    alpha: float
    epsilon: float | None = None
    beta: float = 0.0
    grid: CollocationSet = field(kw_only=True)
    samples: np.ndarray = field(kw_only=True)

    def __post_init__(self):
        row = EXPERIMENTS.get(self.tag)
        if row is None:
            raise ValueError(f"unknown tag {self.tag!r}")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError("alpha must be finite and positive")
        if "epsilon" in row.keys and (self.epsilon is None or not 0.0 < self.epsilon < np.inf):
            raise ValueError("Allen-Cahn problems need a finite epsilon > 0")
        if not 0.0 <= self.beta < np.inf:
            raise ValueError("beta must be finite and nonnegative")
        if self.grid.domain.dim != row.dim:
            raise ValueError(f"tag {self.tag!r} is posed in dimension {row.dim}, "
                             f"its grid in dimension {self.grid.domain.dim}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))
        if self.samples.shape != (self.grid.n_points,):
            raise ValueError(f"sampled target has {self.samples.shape} values "
                             f"for {self.grid.n_points} points")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError(f"tag {self.tag!r}: target samples contain non-finite values")

    @property
    def kind(self) -> str:
        """The constraint kind of the tag."""
        return EXPERIMENTS[self.tag].kind


def target_values(problem: ProblemSpec) -> np.ndarray:
    """The problem's target samples, one per point of its grid."""
    return problem.samples


# ---------------------------------------------------------------------------
# pointwise residual and cost


def _operator(problem: ProblemSpec, u, lap_u):
    """The operator op whose square is the regulariser (lap u or A(u)), its
    partials d(op)/du and d(op)/d(lap u), and the sign of the control in the
    residual K = op + sign * f.  The only branch on the constraint kind."""
    if problem.kind == POISSON:
        return lap_u, 0.0, 1.0, 1.0
    inv2 = 1.0 / problem.epsilon**2
    return -lap_u - inv2 * u * (1.0 - u * u), -inv2 * (1.0 - 3.0 * u * u), -1.0, -1.0


def residual_values(problem: ProblemSpec, u, f, lap_u):
    """Constraint residual K at each point (arrays in, array out)."""
    op, _, _, sign = _operator(problem, u, lap_u)
    return op + sign * f


def cost_values(problem: ProblemSpec, u, f, lap_u, target):
    """Cost density 0.5 (u-D)^2 + (alpha/4) f^2 + (alpha/4) (op u)^2."""
    op = _operator(problem, u, lap_u)[0]
    a4 = problem.alpha / 4.0
    return 0.5 * (u - target) ** 2 + a4 * f * f + a4 * op * op


def _lagrangian(problem: ProblemSpec, jets, z: np.ndarray):
    """One pass over the jets: the loss parts, and what the gradients reuse
    (the target, op with its partials and sign, and K on the full grid)."""
    cset = problem.grid
    if jets.u.shape != (cset.n_points,):
        raise ValueError(f"jets cover {jets.u.shape} points, set has {cset.n_points}")
    if z.shape != (cset.n_interior,):
        raise ValueError(
            f"multiplier has {z.shape[0]} values for {cset.n_interior} interior points"
        )
    target = target_values(problem)
    u, f = jets.u, jets.f
    op_terms = _operator(problem, u, jets.lap_u)
    op, _, _, sign = op_terms
    k = op + sign * f
    w = cset.weights
    mask = cset.interior_mask
    a4 = problem.alpha / 4.0
    misfit = 0.5 * float(np.dot(w, (u - target) ** 2))
    control = a4 * float(np.dot(w, f * f))
    regulariser = a4 * float(np.dot(w, op * op))
    k_int = k[mask]
    w_int = w[mask]
    multiplier = float(np.dot(w_int, z * k_int))
    penalty = 0.5 * problem.beta * float(np.dot(w_int, k_int * k_int)) if problem.beta else 0.0
    total = misfit + control + regulariser + multiplier + penalty
    parts = {
        "misfit": misfit,
        "control_norm_term": control,
        "regulariser_term": regulariser,
        "multiplier_term": multiplier,
        "penalty_term": penalty,
        "total": total,
    }
    return parts, target, op_terms, k


def loss_parts(problem: ProblemSpec, jets, z: np.ndarray) -> dict:
    """Decomposed quadrature Lagrangian.

    Returns the four reported components (misfit, control norm, operator
    regulariser, multiplier term) plus the augmentation penalty and total.
    """
    return _lagrangian(problem, jets, z)[0]


def pointwise_gradients(problem: ProblemSpec, jets, z: np.ndarray):
    """Loss and its per-point partial derivatives w.r.t. (u, f, lap u).

    Returns ``(loss, g_u, g_f, g_lap)`` where g_* already carry the
    quadrature weights, so the chain rule through the ansatz is a plain
    contraction.  Used by the network's reverse sweep.
    """
    parts, target, (op, dop_du, dop_dlap, sign), k = _lagrangian(problem, jets, z)
    u, f = jets.u, jets.f
    w, mask = problem.grid.weights, problem.grid.interior_mask
    a2 = problem.alpha / 2.0
    z_full = np.zeros(w.size)
    z_full[mask] = z
    lam = w * mask * (z_full + problem.beta * k)  # weighted d(multiplier + penalty)/dK
    g_u = w * ((u - target) + a2 * op * dop_du) + lam * dop_du
    g_f = w * (a2 * f) + lam * sign
    g_lap = w * (a2 * op * dop_dlap) + lam * dop_dlap
    return parts["total"], g_u, g_f, g_lap


# ---------------------------------------------------------------------------
# multiplier update


def multiplier_update(z: np.ndarray, residuals, rho: float) -> np.ndarray:
    """Plain ascent step z' = z + rho K, pointwise."""
    k = np.asarray(residuals, dtype=float)
    if k.shape != z.shape:
        raise ValueError(f"residuals shape {k.shape} != multiplier shape {z.shape}")
    return z + rho * k
