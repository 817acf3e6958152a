"""Reference checks that only the tests use.

``residual_check_boundary_layer`` checks the constant-target closed form
against its fourth-order equation; ``apply_laplacian`` and
``laplacian_dense`` are the oracle grid's discrete Laplacian as a function
and as a matrix; ``assert_no_child_left`` checks that a command left no
worker process behind; ``sampled_problem`` is a formula tag's problem with
the target a run samples.
"""
import os

import numpy as np
import pytest

from deepuzawa.config import ExperimentConfig, target_on_grid
from deepuzawa.fd_oracle import _laplacian_apply
from deepuzawa.lagrangian import ProblemSpec


def residual_check_boundary_layer(alpha: float, n_samples: int) -> float:
    """Max |alpha u'''' + u - 1| of the constant-target closed form.

    The fourth derivative is evaluated independently of the u formula via
    the complex exponential representation: each boundary-layer group is
    the real or imaginary part of exp(lam x - omega) or exp(nu x) with
    lam = (1+i) omega, nu = (i-1) omega, so differentiation is
    multiplication by lam^4 or nu^4 (computed numerically, not simplified).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    om = (4.0 * alpha) ** -0.25
    x = np.linspace(0.0, 1.0, n_samples + 2)[1:-1]
    s = np.exp(-om)
    c, sn = np.cos(om), np.sin(om)
    denom = 1.0 + s * s + 2.0 * s * c
    lam = (1.0 + 1.0j) * om
    nu = (1.0j - 1.0) * om
    g1 = np.exp(lam * x - om)
    g0 = np.exp(nu * x)
    a = s + c
    b = 1.0 + s * c
    u = 1.0 - (a * g1.real + b * g0.real + sn * (g1.imag + s * g0.imag)) / denom
    l4, n4 = lam**4, nu**4
    u4 = -(a * (l4 * g1).real + b * (n4 * g0).real
           + sn * ((l4 * g1).imag + s * (n4 * g0).imag)) / denom
    return float(np.max(np.abs(alpha * u4 + u - 1.0)))


def apply_laplacian(grid, v) -> np.ndarray:
    """The discrete Laplacian of interior values ``v``, in float64."""
    return _laplacian_apply(np.array(v, dtype=float), 1.0 / (1 / (grid.n_points - 1))**2)


def laplacian_dense(grid) -> np.ndarray:
    """The discrete Laplacian as a dense matrix; its square is the biharmonic."""
    m = grid.n_interior
    q = 1.0 / (1 / (grid.n_points - 1))**2
    t = np.zeros((m, m))
    np.fill_diagonal(t, -2.0 * q)
    idx = np.arange(m - 1)
    t[idx, idx + 1] = q
    t[idx + 1, idx] = q
    return t


def assert_no_child_left():
    """This process has no child process, running or ended and not waited
    for: ``waitpid`` of any child finds none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sampled_problem(tag, alpha, cset, epsilon=None) -> ProblemSpec:
    """The problem of a formula tag with its target sampled on ``cset`` by
    ``target_on_grid``, the sampler of a run's problem."""
    cfg = ExperimentConfig(tag, alpha=alpha, epsilon=epsilon)
    return ProblemSpec(tag, alpha, epsilon, grid=cset, samples=target_on_grid(cfg, cset))
