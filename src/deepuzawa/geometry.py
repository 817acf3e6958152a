"""Domains, Cartesian collocation grids, quadrature and discrete norms.

A collocation set is a tensor-product grid over the unit interval or the
unit square, together with trapezoidal quadrature weights and a mask marking
interior points.  All reductions run in index order so that repeated
evaluations of the same data are bitwise reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Domain:
    """The unit interval [0, 1] (``dim`` 1) or the unit square [0, 1]^2 (``dim`` 2)."""

    dim: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"only 1d and 2d domains are supported, got d={self.dim}")

    @staticmethod
    def unit_interval() -> "Domain":
        return Domain(1)

    @staticmethod
    def unit_square() -> "Domain":
        return Domain(2)


@dataclass(frozen=True)
class CollocationSet:
    """Quadrature points with weights over a domain.

    Attributes
    ----------
    points : (n, d) array of point coordinates.
    weights : (n,) array of nonnegative quadrature weights, summing to the
        domain volume.
    interior_mask : (n,) boolean array, False exactly on boundary points.
    cutoff : the boundary cutoff jet at the points, computed on first use.
    """

    domain: Domain
    points: np.ndarray
    weights: np.ndarray
    interior_mask: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @cached_property
    def n_interior(self) -> int:
        return int(self.interior_mask.sum())

    @cached_property
    def cutoff(self) -> CutoffJet:
        return cutoff_jet(self.domain, self.points)


def build_grid(domain: Domain, n_per_axis: int) -> CollocationSet:
    """Uniform Cartesian grid (boundary included) with trapezoidal weights.

    In 1d the weights are h/2 at the endpoints and h elsewhere; in 2d they
    are the tensor product of the 1d weights.  Points are ordered with the
    last axis varying fastest.

    Raises
    ------
    ValueError
        If ``n_per_axis < 3`` (no interior point otherwise).
    """
    if n_per_axis < 3:
        raise ValueError(f"need at least 3 points per axis, got {n_per_axis}")
    x = np.linspace(0.0, 1.0, n_per_axis)
    h = 1.0 / (n_per_axis - 1)
    w = np.full(n_per_axis, h)
    w[0] = w[-1] = h / 2
    inner = np.ones(n_per_axis, dtype=bool)
    inner[0] = inner[-1] = False
    if domain.dim == 1:
        points, weights, interior = x[:, None], w, inner
    else:
        x0, x1 = np.meshgrid(x, x, indexing="ij")
        points = np.stack([x0.ravel(), x1.ravel()], axis=1)
        weights = np.outer(w, w).ravel()
        interior = np.outer(inner, inner).ravel()
    return CollocationSet(domain, points, weights, interior)


def _as_values(field, cset: CollocationSet) -> np.ndarray:
    values = np.asarray(field, dtype=float)
    if values.shape != (cset.n_points,):
        raise ValueError(
            f"field has shape {values.shape}, expected ({cset.n_points},)"
        )
    return values


def l2_norm(cset: CollocationSet, field) -> float:
    """Discrete L2 norm sqrt(sum_y w_y g(y)^2)."""
    values = _as_values(field, cset)
    return float(np.sqrt(np.dot(cset.weights, values * values)))


@dataclass(frozen=True)
class CutoffJet:
    """Cutoff value with first and second derivatives at a batch of points.

    Attributes (n points, d axes): ``b`` (n,), ``grad`` (n, d), ``lap`` (n,).
    """

    b: np.ndarray
    grad: np.ndarray
    lap: np.ndarray


def cutoff_jet(domain: Domain, points: np.ndarray) -> CutoffJet:
    """Boundary cutoff with its gradient and Laplacian at a batch of points.

    The cutoff is a product of per-axis parabolic bumps g_i(x_i), each
    normalised to a maximum of one, so it is exactly zero whenever any
    coordinate sits exactly on 0 or 1: g_i = 4 x_i (1 - x_i).  Its gradient
    is grad_i = g_i' * prod_{j != i} g_j and the second derivative along
    axis i is g_i'' * prod_{j != i} g_j with g_i'' = -8.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != domain.dim:
        raise ValueError(f"points have dimension {d}, domain has {domain.dim}")
    g = points * (1.0 - points) * 4.0
    g1 = (1.0 - 2 * points) * 4.0
    value = np.prod(g, axis=1)
    grad = np.empty((n, d))
    lap = np.zeros(n)
    for i in range(d):
        others = np.prod(np.delete(g, i, axis=1), axis=1) if d > 1 else np.ones(n)
        grad[:, i] = g1[:, i] * others
        lap += -8.0 * others
    return CutoffJet(value, grad, lap)
