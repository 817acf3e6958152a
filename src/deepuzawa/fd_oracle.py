"""Finite-difference reference solvers on the unit interval.

These realise the saddle-point iterations at the discrete PDE level with
exact (direct) inner solves, so the convergence theory can be checked
against them: the direct solve of the eliminated state equation is the
fixed point of the Uzawa iteration by construction.

Discretisation: a network run's grid, ``build_grid(Domain(1), n)`` with n >= 5
(:func:`_interior_count`), 3-point Laplacian with zero Dirichlet data on its
interior, and the simply supported (u = lap u = 0) biharmonic as its square.

The three iterative runs (plain Uzawa, projected Uzawa, Gauss-Seidel) share
one run loop that records errors and losses and flags divergence; each
supplies only its iterates.  The projected Uzawa run is the plain run plus
clamps, and reports the negation of its multiplier, nonnegative.

The Uzawa runs, the direct solve and :func:`sine_target` accept an optional
decimal precision ``dps``; the Gauss-Seidel run and the rate bounds are
float64 only.  Float64 is the default; ``decimal.Decimal`` with ``dps``
significant digits exists because the Uzawa multiplier error reaches the
float64 rounding floor after a few dozen iterations, past which its strict
monotone decrease cannot be observed.  A target enters the context rounded
from float64, as the experiment table computes it: every run is measured
against the saddle point of its own target, so digits past float64 in it
would change nothing reported.

Fields are numpy arrays of the context's scalars: float64, or ``dtype=object``
arrays of Decimals.  Elementwise steps are array expressions in the order of
a scalar loop (the Laplacian: -(v_i + v_i), both neighbours, one product by
1/h^2).  Sums are ``np.add.reduce``: numpy's object loop adds Decimals left to
right from zero, so the Decimal iterates are those of the scalar loops, and
float64 sums are numpy's pairwise sums, the more accurate order.  Decimal
diagnostics (errors, loss rows) take min(dps, 20) digits.

Every matrix solved here is a polynomial in the 3-point Laplacian T, which
the DST-I diagonalises.  In float64 the saddle point is computed on DST-I
coefficients, a solve of an unmodified matrix is two DST-I through
``numpy.fft`` and a division by the eigenvalues, and the runs that clamp
nothing (plain Uzawa, Gauss-Seidel) iterate on the coefficients: seven DST-I
whatever their length, D in and the final fields and reference out.  The
projected run takes the plain run's coefficient steps, and its bits, when a
certificate proves that no clamp acts: a check before the run (the saddle
point, rho < rho_max and iterate 0's state bound, which the contraction
theorem carries to every iterate) and one after it (z <= 0 on the grid, one
DST-I per iterate); a run it rejects iterates on the grid from iterate 0.
Systems with clamped entries (no longer polynomials in T) and all Decimal
solves use the banded LDL^T, the only recurrences that loop over scalars; a
run factorises its inner-solve matrix once, into multipliers and reciprocal
pivots, so a solve never divides.  Results and histories are float64 arrays.
"""
from __future__ import annotations

import decimal
import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig, RunResult, target_on_grid
from .geometry import CollocationSet, Domain, build_grid

_DIVERGENCE_LIMIT = 1e6
# KKT tolerance of the nonnegative inner solve of the projected run
_INNER_TOL = 1e-10
_MAX_PASSES = 80  # active-set changes before the run diverges
# the float64 projected run certifies b_0 <= _CLAMP_MARGIN gamma before it runs
# (_unclamped_run), where b_0 < gamma suffices in exact arithmetic: the rest is rounding's
_CLAMP_MARGIN = 0.5
_REPORT_DPS = 20  # digits of the Decimal diagnostics; their float64 report needs 17


def Grid1D(n: int) -> CollocationSet:
    """``build_grid(Domain(1), n)``, refused where :func:`_interior_count` refuses it."""
    _interior_count(grid := build_grid(Domain(1), n))
    return grid


def _interior_count(grid: CollocationSet) -> int:
    """m, the number of interior points of a grid on the unit interval with
    the biharmonic stencil's n >= 5 points."""
    if (dim := grid.points.shape[1]) != 1:
        raise ValueError(f"the oracle runs on the unit interval, got a grid of dimension {dim}")
    if grid.n_points < 5:
        raise ValueError(f"the biharmonic stencil needs n >= 5 points, got {grid.n_points}")
    return grid.n_interior


class _FloatCtx:
    """Plain float64 arithmetic."""

    dtype = float
    num = staticmethod(float)
    # the diagnostics take the iterate's float64 operations: no other context, no rounding
    guard = report = staticmethod(nullcontext)
    rounded = staticmethod(lambda v: v)


class _DecimalCtx:
    """Decimal arithmetic (the C-accelerated ``decimal`` module) with ``dps``
    significant digits and unbounded exponents; a float64 target enters it
    rounded to ``dps`` digits.  No signal traps: a pivot that rounds to zero
    gives Infinity or NaN, as in float64, and the run reports divergence."""

    dtype = object
    rounded = staticmethod(np.positive)  # to the current context's digits

    def __init__(self, dps: int):
        self._dec = decimal.Context(prec=dps, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                                    traps=[])
        self._report = self._dec.copy()
        self._report.prec = min(dps, _REPORT_DPS)

    def guard(self):
        return decimal.localcontext(self._dec)

    def report(self):
        return decimal.localcontext(self._report)

    def num(self, x):
        return self._dec.create_decimal(x)


def _check_positive(**params):
    """Raise ValueError unless every parameter lies in (0, inf)."""
    for name, value in params.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _context(dps):
    return _FloatCtx() if dps is None else _DecimalCtx(dps)


def _array(ctx, values) -> np.ndarray:
    """``values`` as an array of context scalars."""
    return np.array([ctx.num(x) for x in values], dtype=ctx.dtype)


def _target(ctx, grid: CollocationSet, D) -> np.ndarray:
    if len(D) != (m := _interior_count(grid)):
        raise ValueError(f"target D has {len(D)} values for {m} interior points")
    return _array(ctx, D)


def _sum(v, zero):
    """Sum of ``v`` from ``zero``: left to right for Decimals, the order of a
    scalar loop; pairwise for float64."""
    return np.add.reduce(v, initial=zero)


# ---------------------------------------------------------------------------
# banded operators (generic over the scalar type)


def _laplacian_apply(v, q):
    """Tridiagonal (1, -2, 1)/h^2 with zero Dirichlet neighbours, q = 1/h^2:
    entry i is ((-(v_i + v_i) + v_{i-1}) + v_{i+1}) * q, one product."""
    out = -(v + v)
    out[1:] += v[:-1]
    out[:-1] += v[1:]
    return q * out


def _biharmonic_bands(c, q, m, one):
    """Bands (diag, super1, super2) of c * T^2 + I with T the Laplacian."""
    q2 = q * q
    d = np.full(m, c * (6 * q2) + one)
    d[0] = d[-1] = c * (5 * q2) + one
    return d, np.full(m - 1, c * (-4 * q2)), np.full(m - 2, c * q2)


def _ldlt_factor(d, e, g):
    """LDL^T factorisation of a symmetric pentadiagonal matrix with bands
    (d, e, g): lists 1/D (each pivot's reciprocal, in the scalars' own arithmetic), L1, L2.
    Row i divides once: t = L1_i D_{i-1}, L2_i D_{i-2} = g_i and D_i = d_i - L1_i t - L2_i g_i."""
    d, e, g = d.tolist(), e.tolist(), g.tolist()
    a = r0 = r1 = 0  # rows 0 and 1 see zero bands to their left
    rd, l1, l2 = [], [], []
    for di, ei, gi in zip(d, [0] + e, [0, 0] + g):
        b, t = gi * r0, ei - a * gi
        a = t * r1
        r0, r1 = r1, 1 / (di - a * t - b * gi)
        rd.append(r1)
        l1.append(a)
        l2.append(b)
    return rd, l1[1:], l2[2:]


def _ldlt_solve(fact, rhs):
    """x = L^-T D^-1 L^-1 rhs from (1/D, L1, L2): it multiplies, never divides."""
    rd, l1, l2 = fact
    r = rhs.tolist()
    w0, w1 = r[0], r[1] - l1[0] * r[0]
    w = [w0, w1]
    for ri, a, b in zip(r[2:], l1[1:], l2):
        w0, w1 = w1, ri - a * w1 - b * w0
        w.append(w1)
    x1 = w[-1] * rd[-1]
    x0 = w[-2] * rd[-2] - l1[-1] * x1
    out = [x1, x0]
    for wi, ri, a, b in zip(w[-3::-1], rd[-3::-1], l1[-2::-1], l2[::-1]):
        x0, x1 = wi * ri - a * x0 - b * x1, x0
        out.append(x0)
    return np.array(out[::-1], dtype=rhs.dtype)


# ---------------------------------------------------------------------------
# spectral solves (float64): the DST-I diagonalises the 3-point Laplacian


def _dst1(v):
    """DST-I, S_j = sum_k v_k sin(j k pi / (m + 1)) for j, k = 1..m, as the
    real FFT of the odd extension (Buzbee, Golub & Nielson 1970)."""
    m = len(v)
    ext = np.zeros(2 * (m + 1))
    ext[1:m + 1] = v
    ext[m + 2:] = -v[::-1]
    return np.fft.rfft(ext)[1:m + 1].imag / -2


def _laplacian_eigenvalues(m):
    """Eigenvalues lam_j = -(4/h^2) sin^2(j pi h / 2), h = 1/(m + 1), of the
    Dirichlet 3-point Laplacian T on m interior points; the eigenvector of
    lam_j is sin(j pi x) on the grid."""
    h = 1.0 / (m + 1)
    return -(4 / h**2) * np.sin(np.arange(1, m + 1) * (np.pi * h / 2)) ** 2


def _idst1(v):
    """Inverse DST-I: the DST-I is its own inverse up to 2/(m + 1)."""
    return 2.0 / (len(v) + 1) * _dst1(v)


def _spectral_solve(mu):
    """The solve r -> M^-1 r of the matrix M whose eigenvalue on the j-th
    DST-I mode is mu_j."""
    return lambda r: _idst1(_dst1(r) / mu)


def _solver(ctx, c, q, m):
    """The solve of c T^2 + I: spectral in float64, the banded LDL^T (with
    its factor computed here, once) in Decimal."""
    if ctx.dtype is float:
        return _spectral_solve(c * _laplacian_eigenvalues(m) ** 2 + 1)
    fact = _ldlt_factor(*_biharmonic_bands(c, q, m, ctx.num(1)))
    return lambda r: _ldlt_solve(fact, r)


def uzawa_step_bounds(grid: CollocationSet, alpha: float, rho: float) -> tuple[float, float]:
    """(rho_max, kappa_max) of the plain Uzawa iteration, in float64.

    On the j-th DST-I mode the multiplier error is multiplied by
    1 - rho mu_j, mu_j = lam_j^2 / (1 + alpha lam_j^2 / 2) + 2/alpha, so the
    iteration contracts for every target iff rho < rho_max = 2 / max mu_j,
    at the rate kappa_max = max_j |1 - rho mu_j|.
    """
    _check_positive(alpha=alpha)
    lam2 = _laplacian_eigenvalues(_interior_count(grid)) ** 2
    mu = lam2 / (1 + alpha * lam2 / 2) + 2 / alpha
    return float(2 / mu.max()), float(np.abs(1 - rho * mu).max())


def gauss_seidel_rate(grid: CollocationSet, alpha: float) -> float:
    """kappa_max of the Gauss-Seidel sweep: a sweep multiplies the error on
    the j-th DST-I mode by -1 / (alpha lam_j^2), largest on the first."""
    _check_positive(alpha=alpha)
    return float(1 / (alpha * _laplacian_eigenvalues(_interior_count(grid))[0] ** 2))


# ---------------------------------------------------------------------------
# targets and norms on the oracle grid


def sine_target(grid: CollocationSet, alpha: float, dps=None) -> np.ndarray:
    """The ``sine1d`` target, (1 + alpha pi^4) sin(pi x), at the interior points
    in float64 (``config.target_on_grid``), rounded into the context of ``dps``."""
    D = target_on_grid(ExperimentConfig("sine1d", alpha), grid)[grid.interior_mask]
    return _target(_context(dps), grid, D)


def _norm(v, h, ctx):
    return np.sqrt(h * _sum(v * v, ctx.num(0)))


def grid_norm(grid: CollocationSet, v) -> float:
    """Discrete L2 norm over interior points, weight h each."""
    v = np.asarray(v, dtype=float)
    return float(np.sqrt(1 / (_interior_count(grid) + 1) * np.sum(v * v)))


# ---------------------------------------------------------------------------
# direct solve of the eliminated optimality system


@dataclass
class KKTSolution(RunResult):
    """Fields of the coupled optimality system on interior points; a run
    result without histories."""

    residual: float


def _solution(u, f, z, residual=0.0) -> KKTSolution:
    """The float64 saddle point of fields held in context scalars."""
    return KKTSolution(u=u.astype(float), f=f.astype(float), z=z.astype(float),
                       residual=float(residual))


def _direct_kkt(alpha, D, ctx):
    """Grid saddle point (u, f, z) and backward error of u, h = 1/(len(D) + 1): in float64
    from :func:`_spectral_kkt`, in Decimal by the banded solve, f = -T u, z = -(alpha/2) f."""
    h, zero = ctx.num(1) / (len(D) + 1), ctx.num(0)
    q = 1 / (h * h)
    if ctx.dtype is float:
        u, f, z = map(_idst1, _spectral_kkt(alpha, D)[2])
    else:
        u = _solver(ctx, alpha, q, len(D))(D)
        f = -_laplacian_apply(u, q)
        z = -(alpha / 2) * f
    # normwise relative backward error ||Au - D|| / (||A|| ||u|| + ||D||),
    # the residual measure a direct solve can actually be held to: the
    # plain ||Au - D|| / ||D|| is conditioning-limited at ~eps * cond(A);
    # a NaN solve keeps a NaN error
    r = alpha * _laplacian_apply(_laplacian_apply(u, q), q) + u - D
    a_norm = alpha * 16 * q * q + 1  # max absolute row sum of alpha B + I
    denom = a_norm * np.sqrt(_sum(u * u, zero)) + np.sqrt(_sum(D * D, zero))
    residual = np.sqrt(_sum(r * r, zero)) / denom if denom else zero
    return u, f, z, residual


def _spectral_kkt(alpha, D):
    """lam, D^ = S D and the saddle point's DST-I coefficients (u^, f^, z^):
    u^ = D^ / (alpha lam^2 + 1), f^ = -lam u^, z^ = -(alpha/2) f^."""
    lam, d_hat = _laplacian_eigenvalues(len(D)), _dst1(D)
    u = d_hat / (alpha * lam**2 + 1)
    return lam, d_hat, (u, -lam * u, (alpha / 2) * lam * u)


def fd_direct_kkt_solve(grid: CollocationSet, alpha: float, D, dps=None) -> KKTSolution:
    """Solve (alpha B + I) u = D, with f = -lap_h u and z = -(alpha/2) f.

    Eliminating control and multiplier from the optimality conditions of the
    coercive objective leaves exactly this state equation, so the triple is
    the discrete saddle point (in float64 spectral, accurate to rounding).
    A solve whose fields or backward error are not finite has ``diverged_at`` 0.
    """
    _check_positive(alpha=alpha)
    ctx = _context(dps)
    with ctx.guard():
        sol = _solution(*_direct_kkt(ctx.num(alpha), _target(ctx, grid, D), ctx))
    if not all(np.isfinite(v).all() for v in (sol.u, sol.f, sol.z, sol.residual)):
        sol.diverged_at = 0
    return sol


# ---------------------------------------------------------------------------
# iterative runs


@dataclass
class FDRun(RunResult):
    """History of one discrete saddle-point iteration: the error histories and
    ``loss_history`` (in Decimal to min(dps, 20) digits) and the projected run's
    ``z_history`` have length iters + 1 (index k = number of updates applied
    before the k-th iterate), or diverged_at when the run diverged: the
    iterate that diverged is not recorded."""

    DIAGNOSTICS = ("iteration", "multiplier_error")  # diagnostics: z_errors, one column

    z_errors: np.ndarray
    reference: KKTSolution
    z_history: np.ndarray | None  # projected run: each iterate's smallest multiplier entry


def _loss_row(u, f, z, D, lap_u, alpha, h, ctx):
    """The four loss terms of one iterate, inside ``ctx.report``: z, f and
    T u are rounded to its digits before they are multiplied."""
    zero = ctx.num(0)
    d, k = u - D, lap_u + f
    z, f, lap_u = map(ctx.rounded, (z, f, lap_u))
    a4 = alpha / 4
    return (float(h * _sum(d * d, zero) / 2), float(h * _sum(z * k, zero)),
            float(h * a4 * _sum(f * f, zero)), float(h * a4 * _sum(lap_u * lap_u, zero)))


def _solve_nonneg(bands, solve, rhs, ctx, tol):
    """Minimise (1/2) u^T M u - rhs^T u subject to u >= 0.

    Primal active-set method: clamped entries are pinned by replacing their
    row/column with the identity, keeping the system pentadiagonal for the
    banded LDL^T; with none clamped it is M, solved by the caller's
    ``solve``.  At the solution the KKT conditions hold to ``tol``: free
    entries are nonnegative, clamped ones have nonnegative reduced gradient.
    An active set that has not settled after ``_MAX_PASSES`` changes (it
    cycles) gives NaN entries, on which the run loop stops as diverged.
    """
    d, e, g = bands
    zero = ctx.num(0)
    active = np.zeros(len(d), dtype=bool)
    for _ in range(_MAX_PASSES):
        if not active.any():
            u = solve(rhs)
            flip = u < -tol
        else:
            dd, ee, gg, rr = d.copy(), e.copy(), g.copy(), rhs.copy()
            dd[active] = ctx.num(1)
            rr[active] = zero
            ee[active[1:]] = ee[active[:-1]] = zero
            gg[active[2:]] = gg[active[:-2]] = zero
            u = _ldlt_solve(_ldlt_factor(dd, ee, gg), rr)
            # reduced gradient M u - rhs, accumulated in the banded order
            grad = d * u - rhs
            grad[1:] += e * u[:-1]
            grad[:-1] += e * u[1:]
            grad[2:] += g * u[:-2]
            grad[:-2] += g * u[2:]
            # clamp free entries below -tol; release clamped entries whose
            # reduced gradient is below -tol
            flip = np.where(active, grad < -tol, u < -tol)
        if not flip.any():
            return np.where(active, zero, u)
        active ^= flip
    return np.full(len(d), ctx.num(math.nan), dtype=ctx.dtype)


def _iterate(alpha, iters, ctx, D, reference, steps, spectral, z_max) -> FDRun:
    """The run loop of every iterative oracle, on m = len(D) interior points.

    ``steps`` yields one iterate (u, f, z, lap_u) per ``next`` in the scalars
    of ``ctx``; with ``spectral`` all are DST-I coefficients, summed with the
    weight 2 h^2 in place of h = 1/(m + 1) (Parseval).  The loop takes
    iters + 1 iterates, recording for each, in ``ctx.report``, the distances to
    ``reference`` = (u*, f*, z*), a loss row and, with ``z_max``, the
    largest multiplier entry on the grid, ``z_max(z)``; it stops, with
    ``diverged_at`` set and nothing recorded, at the first iterate whose
    state or control error exceeds ``_DIVERGENCE_LIMIT`` or is NaN, or whose
    errors or loss row are not all finite.  The fields returned are those
    of the last recorded iterate, or of iterate 0 when none was recorded.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    a = ctx.num(alpha)
    h = ctx.num(1) / (len(D) + 1)
    w = 2 * h * h if spectral else h
    ustar, fstar, zstar = reference
    rows, z_maxima = [], []
    diverged_at = None
    for k in range(iters + 1):
        u, f, z, lap_u = next(steps)
        with ctx.report():  # the multiplier, state and control errors, then the loss row
            row = (float(_norm(z - zstar, w, ctx)), float(_norm(u - ustar, w, ctx)),
                   float(_norm(f - fstar, w, ctx)), *_loss_row(u, f, z, D, lap_u, a, w, ctx))
        if not (row[1] <= _DIVERGENCE_LIMIT and row[2] <= _DIVERGENCE_LIMIT
                and all(map(math.isfinite, row))):
            diverged_at = k
            break
        kept = u, f, z
        rows.append(row)
        if z_max:
            z_maxima.append(float(z_max(z)))
    if diverged_at:
        u, f, z = kept
    back = _idst1 if spectral else (lambda v: v)
    history = np.array(rows).reshape(-1, 7)
    return FDRun(
        z_errors=history[:, 0], state_errors=history[:, 1], control_errors=history[:, 2],
        loss_history=history[:, 3:], diagnostics=history[:, :1],
        u=back(u).astype(float), f=back(f).astype(float), z=back(z).astype(float),
        reference=_solution(*map(back, reference)),
        z_history=np.array(z_maxima) if z_max else None, diverged_at=diverged_at,
    )


def _uzawa(grid, alpha, rho, D, iters, dps, project) -> FDRun:
    """Both Uzawa runs, in the plain run's multiplier; ``project`` keeps
    u >= 0 in the inner solve, f >= 0 and z <= 0.  Float64 runs iterate on DST-I
    coefficients unless :func:`_unclamped_run` refuses a projected run."""
    _check_positive(alpha=alpha, rho=rho)
    ctx = _context(dps)
    with ctx.guard():
        a = ctx.num(alpha)
        D = _target(ctx, grid, D)
        if ctx.dtype is float:
            lam, d_hat, reference = _spectral_kkt(a, D)
            mu = (a / 2) * lam**2 + 1
            steps = _uzawa_steps(a, rho, d_hat, ctx, False, lambda v: lam * v, lambda r: r / mu)
            if not project:
                return _iterate(alpha, iters, ctx, d_hat, reference, steps, True, None)
            run = _unclamped_run(grid, alpha, rho, iters, ctx, d_hat, d_hat / mu, reference, steps)
            if run is not None:
                return run
        m, h = len(D), ctx.num(1) / (len(D) + 1)
        q = 1 / (h * h)
        lap, solve = functools.partial(_laplacian_apply, q=q), _solver(ctx, a / 2, q, m)
        if project:
            tol, bands = ctx.num(_INNER_TOL), _biharmonic_bands(a / 2, q, m, ctx.num(1))
            solve = functools.partial(_solve_nonneg, bands, solve, ctx=ctx, tol=tol)
        reference = _direct_kkt(a, D, ctx)[:3]
        steps = _uzawa_steps(a, rho, D, ctx, project, lap, solve)
        return _iterate(alpha, iters, ctx, D, reference, steps, False,
                        np.max if project else None)


def _unclamped_run(grid, alpha, rho, iters, ctx, d_hat, u_0, reference, steps):
    """The float64 projected run as the plain run's coefficient ``steps``, from
    the state ``u_0`` and z_0 = 0, if a certificate proves no clamp acts; else None.

    With gamma = min_i u*_i / sin(pi x_i) > 0 over the grid's interior points,
    iterate k's u lies within b_k sin(pi x_i) of u*_i, b_k = (2 / (m + 1))
    sum_j j |u^_k,j - u*^_j|, since |sin j t| <= j |sin t|: b_k <= _CLAMP_MARGIN
    gamma gives u > 0, which the nonnegative inner solve returns unclamped.
    Mode by mode u^_k - u*^ = (1 - rho mu_j)^k (u^_0 - u*^) (:func:`uzawa_step_bounds`),
    so at rho < rho_max b_k <= b_0: the bound is checked once, before the run.
    After it, every iterate's z on the grid (``z_history``, one inverse DST-I
    each) must be <= 0, so that f = -(2/alpha) z >= 0 and neither the f nor
    the z clamp acts.  Both checks need u* > 0 and z* < 0 on the grid.
    """
    u_star, _, z_star = reference
    gamma = (_idst1(u_star) / np.sin(np.pi * grid.points[grid.interior_mask, 0])).min()
    j = np.arange(1.0, len(u_star) + 1)
    sum_limit = _CLAMP_MARGIN * gamma * (len(u_star) + 1) / 2  # b's bound, times (m + 1) / 2
    if not (gamma > 0 and _idst1(z_star).max() < 0
            and rho < uzawa_step_bounds(grid, alpha, rho)[0]
            and j @ np.abs(u_0 - u_star) <= sum_limit):
        return None
    run = _iterate(alpha, iters, ctx, d_hat, reference, steps, True, lambda z: _idst1(z).max())
    if not (run.z_history <= 0).all():
        return None
    # np.where sets a tie to +0, as the clamp does
    run.f = np.where(run.f <= 0, 0.0, run.f)
    return run


def _uzawa_steps(a, rho, D, ctx, project, lap, solve):
    """Uzawa iterates in the basis of ``D``, given its T-apply ``lap`` and
    inner solve ``solve``: the inner solve for the current multiplier, then,
    when the next iterate is asked for, the multiplier step."""
    zero = ctx.num(0)
    f_scale, rho = -(2 / a), ctx.num(rho)
    z = np.full(len(D), zero, dtype=ctx.dtype)
    while True:
        u = solve(D - lap(z))
        f = f_scale * z
        if project:
            # np.where sets a tie to +0 in float64 and Decimal alike, unlike np.maximum
            f = np.where(f <= zero, zero, f)
        lap_u = lap(u)
        yield u, f, z, lap_u
        z = z + rho * (lap_u + f)
        if project:
            z = np.where(z >= zero, zero, z)


def fd_uzawa_run(grid: CollocationSet, alpha: float, rho: float, D, iters: int,
                 dps=None) -> FDRun:
    """Uzawa iteration with exact inner solves.

    Each outer step solves (alpha/2) B u + u = D - lap_h z directly, sets
    f = -(2/alpha) z, and updates z <- z + rho (lap_h u + f).  Histories
    track distances to the direct-solve saddle point.
    """
    return _uzawa(grid, alpha, rho, D, iters, dps, project=False)


def fd_projected_uzawa_run(grid: CollocationSet, alpha: float, rho: float, D, iters: int,
                           dps=None) -> FDRun:
    """Uzawa iteration for min cost subject to u >= 0, f >= 0 and -lap_h u <= f.

    :func:`fd_uzawa_run` plus clamps: the inner solve keeps u >= 0 (primal
    active set), f = max(-(2/alpha) z, 0), and z <- min(z + rho (lap_h u + f), 0);
    where the z <= 0 clamp binds it turns the state equation into that inequality.
    It reports the negated, nonnegative multiplier (``z``, ``reference.z``,
    ``z_history``).  With a nonnegative unconstrained saddle point it is
    :func:`fd_uzawa_run` with z negated: exactly in Decimal, and in float64
    when a certificate proves that no clamp acts (:func:`_unclamped_run`,
    checked before and after the run), for then it takes the plain run's
    steps on DST-I coefficients.  A target or step the certificate rejects
    (rho >= rho_max among them) runs on the grid from iterate 0, with the
    grid's rounding, which T amplifies.

    An inner solve whose active set cycles gives a NaN state, and the run
    diverges at that iterate: on sin(37 pi x) at n = 201, alpha = 1e-2,
    rho = alpha / 4 at iterate 0.
    """
    run = _uzawa(grid, alpha, rho, D, iters, dps, project=True)
    # 0 - v negates and keeps zeros positive
    run.z, run.z_history, run.reference.z = 0 - run.z, 0 - run.z_history, 0 - run.reference.z
    return run


def gauss_seidel_adjoint_run(grid: CollocationSet, alpha: float, D, iters: int) -> FDRun:
    """Alternating state/adjoint/control sweep for the unmodified objective.

    Starting from f = 0: solve -lap u = f, then -lap z = D - u, then set
    f = z / alpha.  Its fixed point satisfies the direct solve's eliminated
    state equation alpha B u + u = D (with multiplier z = alpha f), so errors
    are recorded against that solution.  The sweep contracts only when alpha
    exceeds roughly 1/pi^4 (:func:`gauss_seidel_rate`); otherwise errors
    grow and the run is flagged as diverged once they pass 1e6.
    """
    _check_positive(alpha=alpha)
    lam, d_hat, (ustar, fstar, _) = _spectral_kkt(alpha, _target(_FloatCtx(), grid, D))
    return _iterate(alpha, iters, _FloatCtx(), d_hat, (ustar, fstar, alpha * fstar),
                    _gauss_seidel_steps(alpha, lam, d_hat), spectral=True, z_max=None)


def _gauss_seidel_steps(alpha, lam, d_hat):
    """Gauss-Seidel iterates on DST-I coefficients from u = f = z = 0, where
    -T is nu = -lam: a sweep is u^ = f^ / nu, z^ = (D^ - u^) / nu, f^ = z^ / alpha."""
    nu = -lam
    u = f = z = np.zeros(len(lam))
    while True:
        yield u, f, z, lam * u
        u = f / nu
        z = (d_hat - u) / nu
        f = z / alpha
