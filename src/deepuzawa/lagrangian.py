"""Constraint residuals, cost densities, the discrete Lagrangian and the
multiplier update.

Two constraint kinds are supported.  For the linear (Poisson) problem the
residual is K(u, f) = lap(u) + f.  For the stationary Allen-Cahn problem the
operator is A(u) = -lap(u) - (1/eps^2) u (1 - u^2) and the residual is
K(u, f) = A(u) - f.

The quadrature Lagrangian over a collocation set is

    L_Q = sum_y w_y [ 0.5 (u - D)^2 + (alpha/4) f^2 + (alpha/4) (lap u)^2 ]
        + sum_{y interior} w_y z(y) K(y)
        + (beta/2) sum_{y interior} w_y K(y)^2          (augmented only)

with (lap u)^2 replaced by (A u)^2 in the Allen-Cahn case.  The multiplier
z is a float64 array on the interior points; boundary residuals are never
formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_forms import EXPERIMENTS, POISSON
from .errors import ShapeError
from .geometry import CollocationSet


@dataclass
class ProblemSpec:
    """An experiment tag of :data:`~deepuzawa.closed_forms.EXPERIMENTS` with
    its regularisation weight, its Allen-Cahn epsilon and, for the image
    tag, the target sampled on the collocation points."""

    tag: str
    alpha: float
    epsilon: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        row = EXPERIMENTS.get(self.tag)
        if row is None or row.kind is None:
            raise ValueError(f"tag {self.tag!r} has no constraint")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if "epsilon" in row.keys and (self.epsilon is None or not self.epsilon > 0):
            raise ValueError("Allen-Cahn problems need epsilon > 0")
        if (row.target == "image") != (self.samples is not None):
            raise ValueError(f"tag {self.tag!r}: samples are given exactly for an image target")
        if self.samples is not None:
            self.samples = np.asarray(self.samples, dtype=float)
            if not np.all(np.isfinite(self.samples)):
                raise ValueError("target samples contain non-finite values")

    @property
    def kind(self) -> str:
        """The constraint kind of the tag."""
        return EXPERIMENTS[self.tag].kind


def target_values(problem: ProblemSpec, cset: CollocationSet) -> np.ndarray:
    """Evaluate the target field at every collocation point."""
    if problem.samples is None:
        return EXPERIMENTS[problem.tag].target(cset.points, problem.alpha, problem.epsilon)
    if problem.samples.shape != (cset.n_points,):
        raise ShapeError(
            f"sampled target has {problem.samples.shape} values for {cset.n_points} points"
        )
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


def _lagrangian(problem: ProblemSpec, cset: CollocationSet, jets, z: np.ndarray,
                beta: float, target):
    """One pass over the jets: the loss parts, and what the gradients reuse
    (the target, op with its partials and sign, and K on the full grid)."""
    if jets.u.shape != (cset.n_points,):
        raise ShapeError(f"jets cover {jets.u.shape} points, set has {cset.n_points}")
    if z.shape != (cset.n_interior,):
        raise ShapeError(
            f"multiplier has {z.shape[0]} values for {cset.n_interior} interior points"
        )
    if target is None:
        target = target_values(problem, cset)
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
    penalty = 0.5 * beta * float(np.dot(w_int, k_int * k_int)) if beta else 0.0
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


def loss_parts(problem: ProblemSpec, cset: CollocationSet, jets, z: np.ndarray,
               beta: float = 0.0, target=None) -> dict:
    """Decomposed quadrature Lagrangian.

    Returns the four reported components (misfit, control norm, operator
    regulariser, multiplier term) plus the augmentation penalty and total.
    """
    return _lagrangian(problem, cset, jets, z, beta, target)[0]


def pointwise_gradients(problem: ProblemSpec, cset: CollocationSet, jets,
                        z: np.ndarray, beta: float = 0.0, target=None):
    """Loss and its per-point partial derivatives w.r.t. (u, f, lap u).

    Returns ``(loss, g_u, g_f, g_lap)`` where g_* already carry the
    quadrature weights, so the chain rule through the ansatz is a plain
    contraction.  Used by the network's reverse sweep.
    """
    parts, target, (op, dop_du, dop_dlap, sign), k = _lagrangian(problem, cset, jets, z,
                                                                 beta, target)
    u, f = jets.u, jets.f
    w = cset.weights
    mask = cset.interior_mask
    a2 = problem.alpha / 2.0
    z_full = np.zeros(cset.n_points)
    z_full[mask] = z
    lam = w * mask * (z_full + beta * k)  # weighted d(multiplier + penalty)/dK
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
        raise ShapeError(f"residuals shape {k.shape} != multiplier shape {z.shape}")
    return z + rho * k
