"""Constraint residuals, cost densities, the discrete Lagrangian and
multiplier updates.

Two constraint kinds are supported.  For the linear (Poisson) problem the
residual is K(u, f) = lap(u) + f.  For the stationary Allen-Cahn problem the
operator is A(u) = -lap(u) - (1/eps^2) u (1 - u^2) and the residual is
K(u, f) = A(u) - f.

The quadrature Lagrangian over a collocation set is

    L_Q = sum_y w_y [ 0.5 (u - D)^2 + (alpha/4) f^2 + (alpha/4) (lap u)^2 ]
        + sum_{y interior} w_y z(y) K(y)
        + (beta/2) sum_{y interior} w_y K(y)^2          (augmented only)

with (lap u)^2 replaced by (A u)^2 in the Allen-Cahn case.  The multiplier
lives on interior points only; boundary residuals are never formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import CollocationSet

POISSON = "poisson"
ALLEN_CAHN = "allen_cahn"

TARGET_KINDS = ("sine1d", "constant", "sine2d", "ac_sine", "step", "sampled")


@dataclass
class TargetSpec:
    """Desired state field, either closed-form or sampled on the grid."""

    kind: str
    constant: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")
        if self.kind == "constant" and self.constant is None:
            raise ValueError("constant target needs a value")
        if self.kind == "sampled":
            if self.samples is None:
                raise ValueError("sampled target needs sample values")
            self.samples = np.asarray(self.samples, dtype=float)
            if not np.all(np.isfinite(self.samples)):
                raise ValueError("sampled target contains non-finite values")


@dataclass
class ProblemSpec:
    """Constraint kind, regularisation weight and target."""

    kind: str
    alpha: float
    target: TargetSpec
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in (POISSON, ALLEN_CAHN):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.kind == ALLEN_CAHN:
            if self.epsilon is None or not self.epsilon > 0:
                raise ValueError("Allen-Cahn problems need epsilon > 0")


@dataclass
class MultiplierField:
    """Discrete Lagrange multiplier on the interior collocation points."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def zero_multiplier(cset: CollocationSet) -> MultiplierField:
    return MultiplierField(np.zeros(cset.n_interior))


def target_values(problem: ProblemSpec, cset: CollocationSet) -> np.ndarray:
    """Evaluate the target field at every collocation point."""
    spec = problem.target
    x = cset.points[:, 0]
    if spec.kind == "sine1d":
        return (1.0 + problem.alpha * np.pi**4) * np.sin(np.pi * x)
    if spec.kind == "constant":
        return np.full(cset.n_points, float(spec.constant))
    if spec.kind == "sine2d":
        y = cset.points[:, 1]
        return (1.0 + 4.0 * problem.alpha * np.pi**4) * np.sin(np.pi * x) * np.sin(np.pi * y)
    if spec.kind == "ac_sine":
        return _ac_sine_target(problem.alpha, problem.epsilon, x)
    if spec.kind == "step":
        return _step_target(x)
    if spec.kind == "sampled":
        if spec.samples.shape != (cset.n_points,):
            raise ShapeError(
                f"sampled target has {spec.samples.shape} values for {cset.n_points} points"
            )
        return spec.samples
    raise ValueError(f"unknown target kind {spec.kind!r}")


def _ac_sine_target(alpha: float, eps: float, x: np.ndarray) -> np.ndarray:
    """Target manufactured so u* = sin(pi x) is the Allen-Cahn optimum.

    Eliminating multiplier and control from the stationarity conditions
    gives D = u* + alpha * A'(u*)[f*] with A'(u*) the linearised operator
    phi -> -lap(phi) - (1/eps^2)(1 - 3 u*^2) phi and f* = A(u*).
    """
    s = np.sin(np.pi * x)
    c = np.cos(np.pi * x)
    inv2 = 1.0 / eps**2
    f_star = s * (np.pi**2 - inv2 * c * c)
    lap_f = -np.pi**4 * s + inv2 * np.pi**2 * (s + 6 * s * c * c - 3 * s**3)
    linearised = -lap_f - inv2 * (1.0 - 3.0 * s * s) * f_star
    return s + alpha * linearised


def _step_target(x: np.ndarray) -> np.ndarray:
    """Piecewise constant target: -1, +1, -1 on thirds, 0 at the jumps."""
    out = np.zeros_like(x)
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    out[(x > 0.0) & (x < third)] = -1.0
    out[(x > third) & (x < two_thirds)] = 1.0
    out[(x > two_thirds) & (x < 1.0)] = -1.0
    out[np.abs(x - third) < 1e-12] = 0.0
    out[np.abs(x - two_thirds) < 1e-12] = 0.0
    return out


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


def _lagrangian(problem: ProblemSpec, cset: CollocationSet, jets, z: MultiplierField,
                beta: float, target):
    """One pass over the jets: the loss parts, and what the gradients reuse
    (the target, op with its partials and sign, and K on the full grid)."""
    if jets.u.shape != (cset.n_points,):
        raise ShapeError(f"jets cover {jets.u.shape} points, set has {cset.n_points}")
    if z.values.shape != (cset.n_interior,):
        raise ShapeError(
            f"multiplier has {z.values.shape[0]} values for {cset.n_interior} interior points"
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
    multiplier = float(np.dot(w_int, z.values * k_int))
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


def loss_parts(problem: ProblemSpec, cset: CollocationSet, jets, z: MultiplierField,
               beta: float = 0.0, target=None) -> dict:
    """Decomposed quadrature Lagrangian.

    Returns the four reported components (misfit, control norm, operator
    regulariser, multiplier term) plus the augmentation penalty and total.
    """
    return _lagrangian(problem, cset, jets, z, beta, target)[0]


def discrete_lagrangian(problem: ProblemSpec, cset: CollocationSet, jets,
                        z: MultiplierField, beta: float = 0.0, target=None) -> float:
    """Value of L_Q (augmented when beta > 0) for per-point jets."""
    return loss_parts(problem, cset, jets, z, beta, target)["total"]


def pointwise_gradients(problem: ProblemSpec, cset: CollocationSet, jets,
                        z: MultiplierField, beta: float = 0.0, target=None):
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
    z_full[mask] = z.values
    lam = w * mask * (z_full + beta * k)  # weighted d(multiplier + penalty)/dK
    g_u = w * ((u - target) + a2 * op * dop_du) + lam * dop_du
    g_f = w * (a2 * f) + lam * sign
    g_lap = w * (a2 * op * dop_dlap) + lam * dop_dlap
    return parts["total"], g_u, g_f, g_lap


# ---------------------------------------------------------------------------
# multiplier updates


def multiplier_update(z: MultiplierField, residuals, rho: float) -> MultiplierField:
    """Plain ascent step z' = z + rho K, pointwise."""
    k = np.asarray(residuals, dtype=float)
    if k.shape != z.values.shape:
        raise ShapeError(f"residuals shape {k.shape} != multiplier shape {z.values.shape}")
    return MultiplierField(z.values + rho * k)


def projected_multiplier_update(z: MultiplierField, residuals, rho: float) -> MultiplierField:
    """Projected step z' = max(z + rho K, 0); requires z >= 0 on entry."""
    if np.any(z.values < 0):
        raise ValueError("projected update requires a componentwise nonnegative multiplier")
    k = np.asarray(residuals, dtype=float)
    if k.shape != z.values.shape:
        raise ShapeError(f"residuals shape {k.shape} != multiplier shape {z.values.shape}")
    return MultiplierField(np.maximum(z.values + rho * k, 0.0))
