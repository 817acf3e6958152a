"""Closed-form optimal state/control pairs for the benchmark problems.

All solutions vanish on the boundary of the unit interval or square.

The constant-target problem on (0, 1) eliminates to the fourth-order
equation alpha u'''' + u = 1 with u = u'' = 0 at both ends.  Writing
omega = (4 alpha)^(-1/4) and y = omega x, its solution mixes cosh/cos
products of y.  The naive product form cancels catastrophically for small
alpha, so the evaluation below regroups everything into boundary-layer
exponentials exp(-y) and exp(y - omega), both bounded by one, with

    s = exp(-omega),  denom = 1 + s^2 + 2 s cos(omega).

The control is f = -u'' throughout, so every pair satisfies the PDE
constraint lap(u) + f = 0 (or its Allen-Cahn analogue) identically.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXACT_KINDS = ("sine1d", "boundary_layer", "sine2d", "ac_sine")


def _coords(points: np.ndarray, dim: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] < dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, solution needs {dim}")
    return pts


def _boundary_layer_pair(x: np.ndarray, alpha: float):
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
class ExactSolution:
    """Closed-form (u*, f*) evaluators for one benchmark tag."""

    kind: str
    alpha: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in EXACT_KINDS:
            raise ValueError(f"unknown exact solution kind {self.kind!r}")
        if self.kind == "boundary_layer" and (self.alpha is None or self.alpha <= 0):
            raise ValueError("boundary layer solution needs alpha > 0")
        if self.kind == "ac_sine" and (self.epsilon is None or self.epsilon <= 0):
            raise ValueError("Allen-Cahn solution needs epsilon > 0")

    def state(self, points) -> np.ndarray:
        if self.kind == "sine2d":
            pts = _coords(points, 2)
            return np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        x = _coords(points, 1)[:, 0]
        if self.kind in ("sine1d", "ac_sine"):
            return np.sin(np.pi * x)
        return _boundary_layer_pair(x, self.alpha)[0]

    def control(self, points) -> np.ndarray:
        if self.kind == "sine2d":
            pts = _coords(points, 2)
            return 2.0 * np.pi**2 * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        x = _coords(points, 1)[:, 0]
        if self.kind == "sine1d":
            return np.pi**2 * np.sin(np.pi * x)
        if self.kind == "ac_sine":
            inv2 = 1.0 / self.epsilon**2
            return np.sin(np.pi * x) * (np.pi**2 - inv2 * np.cos(np.pi * x) ** 2)
        return _boundary_layer_pair(x, self.alpha)[1]

