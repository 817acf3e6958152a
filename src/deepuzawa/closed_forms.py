"""The experiment table: one row per tag, with the targets and closed-form
optimal state/control pairs its rows name.

Every tag runs on the unit interval or the unit square, and every closed
form vanishes on its boundary.

The constant-target problem on (0, 1) eliminates to the fourth-order
equation alpha u'''' + u = 1 with u = u'' = 0 at both ends.  Writing
omega = (4 alpha)^(-1/4) and y = omega x, its solution mixes cosh/cos
products of y.  The naive product form cancels catastrophically for small
alpha, so the evaluation below regroups everything into boundary-layer
exponentials exp(-y) and exp(y - omega), both bounded by one, with

    s = exp(-omega),  denom = 1 + s^2 + 2 s cos(omega).

The control is f = -u'' throughout, so every pair satisfies the PDE
constraint lap(u) + f = 0 (or its Allen-Cahn analogue) identically.

Targets and closed forms take the (n, d) points and the run's alpha and
epsilon; a closed form returns the pair (u*, f*).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

POISSON = "poisson"
ALLEN_CAHN = "allen_cahn"


def _sine1d_target(p, alpha, eps):
    return (1.0 + alpha * np.pi**4) * np.sin(np.pi * p[:, 0])


def _one_target(p, alpha, eps):
    return np.full(p.shape[0], 1.0)


def _sine2d_target(p, alpha, eps):
    return (1.0 + 4.0 * alpha * np.pi**4) * np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def _ac_sine_target(p, alpha, eps):
    """Target manufactured so u* = sin(pi x) is the Allen-Cahn optimum.

    Eliminating multiplier and control from the stationarity conditions
    gives D = u* + alpha * A'(u*)[f*] with A'(u*) the linearised operator
    phi -> -lap(phi) - (1/eps^2)(1 - 3 u*^2) phi and f* = A(u*).
    """
    x = p[:, 0]
    s = np.sin(np.pi * x)
    c = np.cos(np.pi * x)
    inv2 = 1.0 / eps**2
    f_star = s * (np.pi**2 - inv2 * c * c)
    lap_f = -np.pi**4 * s + inv2 * np.pi**2 * (s + 6 * s * c * c - 3 * s**3)
    linearised = -lap_f - inv2 * (1.0 - 3.0 * s * s) * f_star
    return s + alpha * linearised


def _step_target(p, alpha, eps):
    """Piecewise constant target: -1, +1, -1 on thirds, 0 at the jumps."""
    x = p[:, 0]
    out = np.zeros_like(x)
    third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
    out[(x > 0.0) & (x < third)] = -1.0
    out[(x > third) & (x < two_thirds)] = 1.0
    out[(x > two_thirds) & (x < 1.0)] = -1.0
    out[np.abs(x - third) < 1e-12] = 0.0
    out[np.abs(x - two_thirds) < 1e-12] = 0.0
    return out


def _sine1d_pair(p, alpha, eps):
    s = np.sin(np.pi * p[:, 0])
    return s, np.pi**2 * s


def _sine2d_pair(p, alpha, eps):
    s0, s1 = np.sin(np.pi * p[:, 0]), np.sin(np.pi * p[:, 1])
    return s0 * s1, 2.0 * np.pi**2 * s0 * s1


def _ac_sine_pair(p, alpha, eps):
    x = p[:, 0]
    inv2 = 1.0 / eps**2
    return np.sin(np.pi * x), np.sin(np.pi * x) * (np.pi**2 - inv2 * np.cos(np.pi * x) ** 2)


def _boundary_layer_pair(p, alpha, eps):
    x = p[:, 0]
    om = (4.0 * alpha) ** -0.25
    y = om * x
    s = np.exp(-om)
    c, sn = np.cos(om), np.sin(om)
    denom = 1.0 + s * s + 2.0 * s * c
    r1 = np.exp(y - om)
    r0 = np.exp(-y)
    a = s + c
    b = 1.0 + s * c
    u = 1.0 - (np.cos(y) * (a * r1 + b * r0) + np.sin(y) * sn * (r1 + s * r0)) / denom
    lap = 2.0 * om * om * (np.sin(y) * (a * r1 - b * r0) - np.cos(y) * sn * (r1 - s * r0)) / denom
    return u, -lap


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`: what a tag solves and what it reads."""

    kind: str                  # POISSON or ALLEN_CAHN
    dim: int                   # the unit interval (1) or the unit square (2)
    target: Callable | str     # the target formula, or "image": sampled from the image key
    exact: Callable | None = None  # the closed form (u*, f*), when known
    exact_reads: tuple[str, ...] = ()  # parameters the closed form depends on
    keys: tuple[str, ...] = ()  # config keys the tag requires and every other tag refuses


EXPERIMENTS = {
    "sine1d": Experiment(POISSON, 1, _sine1d_target, _sine1d_pair),
    "boundary_layer": Experiment(POISSON, 1, _one_target, _boundary_layer_pair, ("alpha",)),
    "sine2d": Experiment(POISSON, 2, _sine2d_target, _sine2d_pair),
    "ac_sine": Experiment(ALLEN_CAHN, 1, _ac_sine_target, _ac_sine_pair, ("epsilon",),
                          keys=("epsilon",)),
    "ac_step": Experiment(ALLEN_CAHN, 1, _step_target, keys=("epsilon",)),
    "ac_image": Experiment(ALLEN_CAHN, 2, "image", keys=("epsilon", "image")),
}


def _coords(points: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] < dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, solution needs {dim}")
    return pts


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form (u*, f*) evaluators for one tag of :data:`EXPERIMENTS`."""

    tag: str
    alpha: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        row = EXPERIMENTS.get(self.tag)
        if row is None or row.exact is None:
            raise ValueError(f"tag {self.tag!r} has no closed-form solution")
        for key in row.exact_reads:
            value = getattr(self, key)
            if value is None or value <= 0:
                raise ValueError(f"the {self.tag} solution needs {key} > 0")

    def _pair(self, points):
        row = EXPERIMENTS[self.tag]
        return row.exact(_coords(points, row.dim), self.alpha, self.epsilon)

    def state(self, points) -> np.ndarray:
        return self._pair(points)[0]

    def control(self, points) -> np.ndarray:
        return self._pair(points)[1]
