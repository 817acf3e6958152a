"""Finite-difference reference solvers on the unit interval.

These realise the saddle-point iterations at the discrete PDE level with
exact (direct) inner solves, so the convergence theory can be checked
against them: the direct solve of the eliminated state equation is the
fixed point of the Uzawa iteration by construction.

Discretisation: n uniform points on [0, 1], 3-point Laplacian with zero
Dirichlet data, and the simply supported (u = lap u = 0) biharmonic taken
as the Laplacian composed with itself on interior points.

The three iterative runs (plain Uzawa, projected Uzawa, Gauss-Seidel) share
one run loop that records errors and losses and flags divergence; each
supplies only its iterates.  The plain and the projected Uzawa run are one
iteration in two multiplier orientations: the projected run's multiplier is
the negation of the plain run's, and it clamps the iterates to the
nonnegative cone.

Every solver accepts an optional decimal precision ``dps``.  The float64
path is the default; the multiprecision path (mpmath) exists because the
multiplier contraction factor of the Uzawa iteration is bounded away from
one, so after a few dozen iterations the error reaches the float64
rounding floor and the theoretical strict monotone decrease can no longer
be observed in double precision.  All state is kept in plain Python lists
of context scalars; histories are returned as float64 arrays.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .config import RunResult
from .errors import GridError, IterationLimitError

_DIVERGENCE_LIMIT = 1e6
# KKT tolerance of the nonnegative inner solve of the projected run
_INNER_TOL = 1e-10


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n points on [0, 1]; fields live on the interior."""

    n: int

    def __post_init__(self):
        if self.n < 5:
            raise GridError(f"the biharmonic stencil needs n >= 5 points, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / (self.n - 1)

    @property
    def n_interior(self) -> int:
        return self.n - 2

    def interior_x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n)[1:-1]


class _FloatCtx:
    """Plain float64 arithmetic."""

    def guard(self):
        return nullcontext()

    def num(self, x):
        return float(x)

    def sqrt(self, x):
        return math.sqrt(x)

    def sin(self, x):
        return math.sin(x)

    @property
    def pi(self):
        return math.pi


class _MPCtx:
    """mpmath arithmetic at a fixed decimal precision."""

    def __init__(self, dps: int):
        import mpmath

        self._mp = mpmath
        self.dps = dps

    def guard(self):
        return self._mp.workdps(self.dps)

    def num(self, x):
        return self._mp.mpf(x)

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def sin(self, x):
        return self._mp.sin(x)

    @property
    def pi(self):
        return self._mp.pi


def _context(dps):
    return _FloatCtx() if dps is None else _MPCtx(dps)


# ---------------------------------------------------------------------------
# banded operators (generic over the scalar type)


def _laplacian_apply(v, q):
    """Tridiagonal (1, -2, 1)/h^2 with zero Dirichlet neighbours; q = 1/h^2."""
    m = len(v)
    out = [q * (-2 * v[i]) for i in range(m)]
    for i in range(m - 1):
        out[i] += q * v[i + 1]
        out[i + 1] += q * v[i]
    return out


def _biharmonic_bands(c, q, m, one):
    """Bands (diag, super1, super2) of c * T^2 + I with T the Laplacian."""
    q2 = q * q
    d = [c * (6 * q2) + one for _ in range(m)]
    d[0] = c * (5 * q2) + one
    d[-1] = c * (5 * q2) + one
    e = [c * (-4 * q2) for _ in range(m - 1)]
    g = [c * q2 for _ in range(m - 2)]
    return d, e, g


def _ldlt_factor(d, e, g):
    """LDL^T factorisation of a symmetric pentadiagonal matrix."""
    m = len(d)
    dd = list(d)
    l1 = [None] * (m - 1)
    l2 = [None] * (m - 2)
    for i in range(m):
        if i >= 2:
            l2[i - 2] = g[i - 2] / dd[i - 2]
        if i >= 1:
            num = e[i - 1]
            if i >= 2:
                num = num - l1[i - 2] * l2[i - 2] * dd[i - 2]
            l1[i - 1] = num / dd[i - 1]
        if i >= 1:
            dd[i] = dd[i] - l1[i - 1] * l1[i - 1] * dd[i - 1]
        if i >= 2:
            dd[i] = dd[i] - l2[i - 2] * l2[i - 2] * dd[i - 2]
    return dd, l1, l2


def _ldlt_solve(fact, rhs):
    dd, l1, l2 = fact
    m = len(dd)
    w = list(rhs)
    for i in range(1, m):
        w[i] = w[i] - l1[i - 1] * w[i - 1]
        if i >= 2:
            w[i] = w[i] - l2[i - 2] * w[i - 2]
    for i in range(m):
        w[i] = w[i] / dd[i]
    for i in range(m - 2, -1, -1):
        w[i] = w[i] - l1[i] * w[i + 1]
        if i + 2 < m:
            w[i] = w[i] - l2[i] * w[i + 2]
    return w


def apply_laplacian(grid: Grid1D, v) -> np.ndarray:
    """The discrete Laplacian of interior values ``v``, in float64."""
    return np.asarray(_laplacian_apply(list(np.asarray(v, dtype=float)), 1.0 / grid.h**2))


def laplacian_dense(grid: Grid1D) -> np.ndarray:
    """The discrete Laplacian as a dense matrix; its square is the biharmonic."""
    m = grid.n_interior
    q = 1.0 / grid.h**2
    t = np.zeros((m, m))
    np.fill_diagonal(t, -2.0 * q)
    idx = np.arange(m - 1)
    t[idx, idx + 1] = q
    t[idx + 1, idx] = q
    return t


# ---------------------------------------------------------------------------
# targets and norms on the oracle grid


def sine_target(grid: Grid1D, alpha: float, dps=None):
    """Interior samples of (1 + alpha pi^4) sin(pi x)."""
    ctx = _context(dps)
    with ctx.guard():
        a = ctx.num(alpha)
        h = ctx.num(1) / (grid.n - 1)
        scale = 1 + a * ctx.pi**4
        return [scale * ctx.sin(ctx.pi * (h * (i + 1))) for i in range(grid.n_interior)]


def constant_target(grid: Grid1D, value: float, dps=None):
    ctx = _context(dps)
    with ctx.guard():
        c = ctx.num(value)
        return [c for _ in range(grid.n_interior)]


def _norm(v, h, ctx):
    acc = ctx.num(0)
    for x in v:
        acc += x * x
    return ctx.sqrt(h * acc)


def grid_norm(grid: Grid1D, v) -> float:
    """Discrete L2 norm over interior points, weight h each."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(grid.h * np.sum(v * v)))


# ---------------------------------------------------------------------------
# direct solve of the eliminated optimality system


@dataclass
class KKTSolution(RunResult):
    """Fields of the coupled optimality system on interior points; a run
    result without histories."""

    z: np.ndarray
    residual: float


def _floats(v) -> np.ndarray:
    return np.array([float(x) for x in v])


def _solution(u, f, z, residual=0.0) -> KKTSolution:
    """The float64 saddle point of fields held in context scalars."""
    return KKTSolution(u=_floats(u), f=_floats(f), z=_floats(z), residual=float(residual))


def _direct_kkt(grid: Grid1D, alpha, D, ctx):
    m = grid.n_interior
    h = ctx.num(1) / (grid.n - 1)
    q = 1 / (h * h)
    one = ctx.num(1)
    bands = _biharmonic_bands(alpha, q, m, one)
    fact = _ldlt_factor(*bands)
    u = _ldlt_solve(fact, D)
    f = [-x for x in _laplacian_apply(u, q)]
    z = [-(alpha / 2) * x for x in f]
    # normwise relative backward error ||Au - D|| / (||A|| ||u|| + ||D||),
    # the residual measure a direct solve can actually be held to: the
    # plain ||Au - D|| / ||D|| is conditioning-limited at ~eps * cond(A)
    bu = _laplacian_apply(_laplacian_apply(u, q), q)
    res_num = ctx.num(0)
    u_norm = ctx.num(0)
    d_norm = ctx.num(0)
    for i in range(m):
        r = alpha * bu[i] + u[i] - D[i]
        res_num += r * r
        u_norm += u[i] * u[i]
        d_norm += D[i] * D[i]
    a_norm = alpha * 16 * q * q + 1  # max absolute row sum of alpha B + I
    denom = a_norm * ctx.sqrt(u_norm) + ctx.sqrt(d_norm)
    residual = ctx.sqrt(res_num) / denom if denom > 0 else ctx.num(0)
    return u, f, z, residual


def fd_direct_kkt_solve(grid: Grid1D, alpha: float, D, dps=None) -> KKTSolution:
    """Solve (alpha B + I) u = D, then recover f = -lap_h u and z = -(alpha/2) f.

    Eliminating control and multiplier from the optimality conditions of the
    coercive objective leaves exactly this state equation, so the returned
    triple is the discrete saddle point.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    ctx = _context(dps)
    with ctx.guard():
        a = ctx.num(alpha)
        Dl = [ctx.num(x) for x in D]
        return _solution(*_direct_kkt(grid, a, Dl, ctx))


# ---------------------------------------------------------------------------
# iterative runs


@dataclass
class FDRun(RunResult):
    """History of one discrete saddle-point iteration.

    Error histories have length iters + 1 (index k = number of updates
    applied before the k-th iterate), or diverged_at + 1 when the run
    diverged; so have ``loss_history`` and ``z_history``.
    """

    kind: str
    grid: Grid1D
    alpha: float
    rho: float | None
    z_errors: np.ndarray
    z: np.ndarray
    reference: KKTSolution
    z_history: np.ndarray


def _loss_row(u, f, z, D, lap_u, alpha, h, ctx):
    w = h
    m = len(u)
    misfit = ctx.num(0)
    control = ctx.num(0)
    regulariser = ctx.num(0)
    multiplier = ctx.num(0)
    for i in range(m):
        d = u[i] - D[i]
        misfit += d * d
        control += f[i] * f[i]
        regulariser += lap_u[i] * lap_u[i]
        multiplier += z[i] * (lap_u[i] + f[i])
    a4 = alpha / 4
    return (float(w * misfit / 2), float(w * multiplier), float(w * a4 * control),
            float(w * a4 * regulariser))


def _solve_nonneg(bands, rhs, ctx, tol, max_passes=80):
    """Minimise (1/2) u^T M u - rhs^T u subject to u >= 0.

    Primal active-set method: clamped entries are pinned by replacing their
    row/column with the identity, which keeps the system pentadiagonal.  At
    the solution the KKT conditions hold to ``tol``: free entries are
    nonnegative, clamped entries have nonnegative reduced gradient.
    """
    d, e, g = bands
    m = len(d)
    zero = ctx.num(0)
    active = [False] * m

    def solve_with(active_set):
        dd = list(d)
        ee = list(e)
        gg = list(g)
        rr = list(rhs)
        for i in range(m):
            if active_set[i]:
                dd[i] = ctx.num(1)
                rr[i] = zero
                if i - 1 >= 0:
                    ee[i - 1] = zero
                if i < m - 1:
                    ee[i] = zero
                if i - 2 >= 0:
                    gg[i - 2] = zero
                if i < m - 2:
                    gg[i] = zero
        return _ldlt_solve(_ldlt_factor(dd, ee, gg), rr)

    def gradient(u):
        out = [d[i] * u[i] - rhs[i] for i in range(m)]
        for i in range(m - 1):
            out[i] += e[i] * u[i + 1]
            out[i + 1] += e[i] * u[i]
        for i in range(m - 2):
            out[i] += g[i] * u[i + 2]
            out[i + 2] += g[i] * u[i]
        return out

    for _ in range(max_passes):
        u = solve_with(active)
        grad = gradient(u)
        changed = False
        for i in range(m):
            if not active[i] and u[i] < -tol:
                active[i] = True
                changed = True
            elif active[i] and grad[i] < -tol:
                active[i] = False
                changed = True
        if not changed:
            return [u[i] if not active[i] else zero for i in range(m)]
    raise IterationLimitError("nonnegative inner solve did not settle on an active set")


def _iterate(kind, grid, alpha, rho, iters, ctx, D, reference, steps) -> FDRun:
    """The run loop of every iterative oracle.

    ``steps`` yields one iterate (u, f, z, lap_u, z_loss) per ``next`` in
    the scalars of ``ctx``: z in the orientation of the multiplier of
    ``reference`` = (u*, f*, z*), z_loss in the one of the loss row's
    multiplier term.  The loop takes iters + 1 iterates, recording for each
    the distances to the reference, the multiplier and one loss row; it
    stops early, with ``diverged_at`` set, at the first iterate whose state
    or control error exceeds ``_DIVERGENCE_LIMIT`` or is NaN.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    m = grid.n_interior
    a = ctx.num(alpha)
    h = ctx.num(1) / (grid.n - 1)
    ustar, fstar, zstar = reference
    z_err, u_err, f_err, parts, z_hist = [], [], [], [], []
    diverged_at = None
    for k in range(iters + 1):
        u, f, z, lap_u, z_loss = next(steps)
        z_err.append(float(_norm([z[i] - zstar[i] for i in range(m)], h, ctx)))
        u_err.append(float(_norm([u[i] - ustar[i] for i in range(m)], h, ctx)))
        f_err.append(float(_norm([f[i] - fstar[i] for i in range(m)], h, ctx)))
        z_hist.append([float(x) for x in z])
        parts.append(_loss_row(u, f, z_loss, D, lap_u, a, h, ctx))
        if not (u_err[-1] <= _DIVERGENCE_LIMIT and f_err[-1] <= _DIVERGENCE_LIMIT):
            diverged_at = k
            break
    return FDRun(
        kind=kind, grid=grid, alpha=alpha, rho=rho,
        z_errors=np.array(z_err), state_errors=np.array(u_err),
        control_errors=np.array(f_err), loss_history=np.array(parts),
        u=_floats(u), f=_floats(f), z=_floats(z),
        reference=_solution(ustar, fstar, zstar),
        z_history=np.array(z_hist), diverged_at=diverged_at,
    )


def _uzawa(kind, grid, alpha, rho, D, iters, dps, sign, project) -> FDRun:
    """Both Uzawa runs: ``sign`` = +1 keeps the plain run's multiplier, -1
    its negation; ``project`` keeps u >= 0 in the inner solve and clamps f
    and z at zero."""
    if not rho > 0:
        raise ValueError("rho must be positive")
    ctx = _context(dps)
    with ctx.guard():
        a = ctx.num(alpha)
        Dl = [ctx.num(x) for x in D]
        ustar, fstar, zstar, _ = _direct_kkt(grid, a, Dl, ctx)
        if sign < 0:
            zstar = [-x for x in zstar]
        steps = _uzawa_steps(grid, a, rho, Dl, ctx, sign, project)
        return _iterate(kind, grid, alpha, rho, iters, ctx, Dl, (ustar, fstar, zstar), steps)


def _uzawa_steps(grid, a, rho, D, ctx, sign, project):
    """Uzawa iterates: the inner solve for the current multiplier, then,
    when the next iterate is asked for, the multiplier step."""
    m = grid.n_interior
    h = ctx.num(1) / (grid.n - 1)
    q = 1 / (h * h)
    zero = ctx.num(0)
    bands = _biharmonic_bands(a / 2, q, m, ctx.num(1))
    fact = None if project else _ldlt_factor(*bands)
    tol = ctx.num(_INNER_TOL)
    # signed coefficients; multiplying by +-1 is exact in every context
    f_scale = -sign * (2 / a)
    lap_scale = sign * q
    step = sign * ctx.num(rho)
    z = [zero for _ in range(m)]
    while True:
        lap_z = _laplacian_apply(z, lap_scale)
        rhs = [D[i] - lap_z[i] for i in range(m)]
        u = _solve_nonneg(bands, rhs, ctx, tol) if project else _ldlt_solve(fact, rhs)
        f = [f_scale * x for x in z]
        if project:
            f = [max(x, zero) for x in f]
        lap_u = _laplacian_apply(u, q)
        yield u, f, z, lap_u, z if sign > 0 else [-x for x in z]
        z = [z[i] + step * (lap_u[i] + f[i]) for i in range(m)]
        if project:
            z = [max(x, zero) for x in z]


def fd_uzawa_run(grid: Grid1D, alpha: float, rho: float, D, iters: int,
                 dps=None) -> FDRun:
    """Uzawa iteration with exact inner solves.

    Each outer step solves (alpha/2) B u + u = D - lap_h z directly, sets
    f = -(2/alpha) z, and updates z <- z + rho (lap_h u + f).  Histories
    track distances to the direct-solve saddle point.
    """
    return _uzawa("uzawa", grid, alpha, rho, D, iters, dps, sign=1, project=False)


def fd_projected_uzawa_run(grid: Grid1D, alpha: float, rho: float, D, iters: int,
                           dps=None) -> FDRun:
    """Uzawa iteration for the nonnegativity-restricted problem.

    The primal fields are constrained to u, f >= 0 in the inner minimisation
    and the multiplier is kept in the nonnegative cone by clamping after
    each step.  The multiplier here is oriented so that it is nonnegative at
    the saddle point of a problem with nonnegative optimal control (it is
    the negation of the plain run's multiplier): the inner solve reads
    (alpha/2) B u + u = D + lap_h z, f = +(2/alpha) z, and the update is
    z <- max(z - rho (lap_h u + f), 0).  On problems whose unconstrained
    saddle point is componentwise nonnegative no constraint ever activates
    and the run reproduces :func:`fd_uzawa_run` exactly.
    """
    return _uzawa("projected_uzawa", grid, alpha, rho, D, iters, dps, sign=-1, project=True)


def gauss_seidel_adjoint_run(grid: Grid1D, alpha: float, D, iters: int) -> FDRun:
    """Alternating state/adjoint/control sweep for the unmodified objective.

    Starting from f = 0: solve -lap u = f, then -lap z = D - u, then set
    f = z / alpha.  Its fixed point satisfies the same eliminated state
    equation alpha B u + u = D as the direct solve (with multiplier
    z = alpha f), so errors are recorded against that solution, and
    ``z_history`` holds the adjoint z of every sweep.  The sweep contracts
    only when alpha exceeds roughly 1/pi^4; otherwise errors grow and the
    run is flagged as diverged once they pass 1e6.
    """
    ctx = _FloatCtx()
    Dl = [float(x) for x in D]
    ustar, fstar, _, _ = _direct_kkt(grid, alpha, Dl, ctx)
    reference = (ustar, fstar, [alpha * x for x in fstar])
    return _iterate("gauss_seidel", grid, alpha, None, iters, ctx, Dl, reference,
                    _gauss_seidel_steps(grid, alpha, Dl))


def _gauss_seidel_steps(grid, alpha, D):
    """Gauss-Seidel iterates in float64, from u = f = z = 0."""
    m = grid.n_interior
    q = 1.0 / grid.h**2
    # factor -T once (positive definite tridiagonal)
    fact = _ldlt_factor([2.0 * q] * m, [-q] * (m - 1), [0.0] * max(m - 2, 0))
    u = f = z = [0.0] * m
    while True:
        yield u, f, z, _laplacian_apply(u, q), z
        u = _ldlt_solve(fact, f)
        z = _ldlt_solve(fact, [D[i] - u[i] for i in range(m)])
        f = [z[i] / alpha for i in range(m)]
