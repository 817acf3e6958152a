import decimal
import math

import numpy as np
import pytest

from deepuzawa import fd_oracle
from deepuzawa.closed_forms import EXPERIMENTS, ExactSolution
from deepuzawa.fd_oracle import (Grid1D, fd_direct_kkt_solve,
                                 fd_projected_uzawa_run, fd_uzawa_run,
                                 gauss_seidel_adjoint_run, grid_norm, sine_target)
from deepuzawa.geometry import CollocationSet, Domain, build_grid
from reference_checks import apply_laplacian, laplacian_dense

ALPHA = 1e-2


def test_grid_validation():
    # the oracle's grid is a network run's on the unit interval, bit for bit
    with pytest.raises(ValueError, match="the biharmonic stencil needs n >= 5 points, got 4"):
        Grid1D(4)
    for n in (5, 11, 4001):
        g, run_grid = Grid1D(n), build_grid(Domain(1), n)
        assert isinstance(g, CollocationSet) and g.domain == Domain(1)
        for field in ("points", "weights", "interior_mask"):
            assert getattr(g, field).tobytes() == getattr(run_grid, field).tobytes()
            assert getattr(g, field).shape == getattr(run_grid, field).shape


# every public oracle function, called on a grid; those that take dps, in its arithmetic
_PUBLIC = {
    "uzawa_step_bounds": lambda g, dps=None: fd_oracle.uzawa_step_bounds(g, ALPHA, 1.0),
    "gauss_seidel_rate": lambda g, dps=None: fd_oracle.gauss_seidel_rate(g, ALPHA),
    "sine_target": lambda g, dps=None: sine_target(g, ALPHA, dps=dps),
    "grid_norm": lambda g, dps=None: grid_norm(g, np.ones(g.n_interior)),
    "fd_direct_kkt_solve":
        lambda g, dps=None: fd_direct_kkt_solve(g, ALPHA, np.ones(g.n_interior), dps=dps),
    "fd_uzawa_run":
        lambda g, dps=None: fd_uzawa_run(g, ALPHA, 1.0, np.ones(g.n_interior), 2, dps=dps),
    "fd_projected_uzawa_run": lambda g, dps=None: fd_projected_uzawa_run(
        g, ALPHA, 1.0, np.ones(g.n_interior), 2, dps=dps),
    "gauss_seidel_adjoint_run":
        lambda g, dps=None: gauss_seidel_adjoint_run(g, ALPHA, np.ones(g.n_interior), 2),
}
_TAKES_DPS = ("sine_target", "fd_direct_kkt_solve", "fd_uzawa_run", "fd_projected_uzawa_run")


@pytest.mark.parametrize("name", sorted(_PUBLIC))
def test_every_oracle_function_refuses_a_grid_off_the_unit_interval(name):
    # each target has the 2d grid's 9 interior values: only the grid's dimension is wrong
    with pytest.raises(ValueError, match="unit interval, got a grid of dimension 2"):
        _PUBLIC[name](build_grid(Domain(2), 5))
    _PUBLIC[name](Grid1D(5))  # the same call on the unit interval runs


@pytest.mark.parametrize("name, n, dps", [
    (name, n, dps) for name in sorted(_PUBLIC) for n in (3, 4)
    for dps in ((None, 30) if name in _TAKES_DPS else (None,))])
def test_every_oracle_function_refuses_a_grid_the_stencil_cannot_take(name, n, dps):
    # the biharmonic's bands need three interior points: n = 3 has one, n = 4 two
    with pytest.raises(ValueError, match=f"^the biharmonic stencil needs n >= 5 points, got {n}$"):
        _PUBLIC[name](build_grid(Domain(1), n), dps)
    _PUBLIC[name](build_grid(Domain(1), 5), dps)  # the same call at five points runs


def test_laplacian_of_discrete_sine():
    g = Grid1D(201)
    x = g.points[g.interior_mask, 0]
    lap = apply_laplacian(g, np.sin(np.pi * x))
    err = np.abs(lap + np.pi**2 * np.sin(np.pi * x)).max()
    assert err <= 5 * (1 / (g.n_points - 1))**2 * np.pi**4 / 12  # O(h^2) with the sine's scale


def test_laplacian_second_order_rate():
    errs = []
    for n in (101, 201):
        g = Grid1D(n)
        x = g.points[g.interior_mask, 0]
        lap = apply_laplacian(g, np.sin(np.pi * x))
        errs.append(np.abs(lap + np.pi**2 * np.sin(np.pi * x)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_laplacian_interior_row_sums_vanish():
    g = Grid1D(31)
    t = laplacian_dense(g)
    sums = t.sum(axis=1)
    assert np.allclose(sums[1:-1], 0.0, atol=1e-9)
    assert sums[0] == pytest.approx(-1.0 / (1 / (g.n_points - 1))**2, rel=1e-12)


def test_biharmonic_is_laplacian_squared():
    g = Grid1D(21)
    t = laplacian_dense(g)
    # interior stencil away from the boundary rows
    row = (t @ t)[5, 3:8] * (1 / (g.n_points - 1))**4
    assert np.allclose(row, [1.0, -4.0, 6.0, -4.0, 1.0], rtol=1e-10)


def test_biharmonic_of_sine():
    g = Grid1D(201)
    x = g.points[g.interior_mask, 0]
    t = laplacian_dense(g)
    b = t @ t
    err = np.abs(b @ np.sin(np.pi * x) - np.pi**4 * np.sin(np.pi * x)).max()
    assert err <= 1e-2  # O(h^2) with a pi^6 constant


def _scalar_laplacian(v, q):
    """The Laplacian as a scalar loop: -(x + x), the left and then the right
    neighbour added, one product by q."""
    lap = [-(x + x) for x in v]
    for i in range(len(v) - 1):
        lap[i] += v[i + 1]
        lap[i + 1] += v[i]
    return [q * x for x in lap]


def test_array_steps_match_scalar_loops():
    # the Laplacian keeps the scalar loop's operation order, so its result is
    # bitwise that of the loop, in float64 and at 130 digits
    v = np.random.default_rng(3).standard_normal(3999)
    q = 1.0 / (1 / (Grid1D(4001).n_points - 1))**2
    assert np.array_equal(fd_oracle._laplacian_apply(v, q).view(np.int64),
                          np.array(_scalar_laplacian(v, q)).view(np.int64))
    ctx = fd_oracle._context(130)
    with ctx.guard():
        w = np.array([ctx.num(x) / 7 for x in v], dtype=object)
        h = ctx.num(1) / 4000
        assert [str(x) for x in fd_oracle._laplacian_apply(w, 1 / (h * h))] == \
            [str(x) for x in _scalar_laplacian(w, 1 / (h * h))]
        # Decimal sums run left to right from zero, as the scalar loop does; at
        # 130 digits the order shows, since the reversed sum rounds differently
        acc = rev = ctx.num(0)
        for x in w:
            acc += x
        for x in w[::-1]:
            rev += x
        assert str(fd_oracle._sum(w, ctx.num(0))) == str(acc) != str(rev)
    # float64 sums are pairwise, within the pairwise bound of the exact sum
    bound = np.log2(len(v)) * np.finfo(float).eps * np.abs(v).sum()
    assert abs(fd_oracle._sum(v, 0.0) - math.fsum(v)) <= bound


def _inner_matrix(g, alpha=ALPHA):
    """(alpha/2) T^2 + I, the matrix of the Uzawa inner solve, dense."""
    t = laplacian_dense(g)
    return alpha / 2 * t @ t + np.eye(g.n_interior)


def test_ldlt_solve_matches_dense_solve():
    # two backward-stable solves of float64 matrices that differ in the last
    # bits can differ by about cond * eps: at alpha = 1e-4 the condition
    # number is 2e3 (at alpha = 1e-2 it is 1.4e5, and they differ by 1e-11)
    alpha = 1e-4
    g = Grid1D(41)
    m = g.n_interior
    rhs = np.cos(3 * np.pi * g.points[g.interior_mask, 0]) + g.points[g.interior_mask, 0]
    bands = fd_oracle._biharmonic_bands(alpha / 2, 1.0 / (1 / (g.n_points - 1))**2, m, 1.0)
    u = fd_oracle._ldlt_solve(fd_oracle._ldlt_factor(*bands), rhs)
    exact = np.linalg.solve(_inner_matrix(g, alpha), rhs)
    assert np.linalg.norm(u - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("dps", [40, 130])
@pytest.mark.parametrize("n, alpha", [(201, 1e-2), (201, 1e-4), (41, 1e-2)])
def test_ldlt_solve_is_backward_stable_in_decimal(n, alpha, dps):
    # the factor keeps each pivot's reciprocal as a Decimal of the run's
    # context, so the solve is backward stable at dps digits: the normwise
    # backward error ||M x - r|| / (||M|| ||x|| + ||r||), in the max norm,
    # measures 1.1-2.2 * 10^-dps here (the dividing solve read the same);
    # reciprocals taken in float64 leave 1e-20 to 2e-18
    g = Grid1D(n)
    m = g.n_interior
    ctx = fd_oracle._context(dps)
    with ctx.guard():
        h = ctx.num(1) / (n - 1)
        d, e, b = fd_oracle._biharmonic_bands(ctx.num(alpha) / 2, 1 / (h * h), m,
                                              ctx.num(1))
        fact = fd_oracle._ldlt_factor(d, e, b)
        r = np.array([ctx.num(x) / 7 for x in np.random.default_rng(n).standard_normal(m)],
                     dtype=object)
        x = fd_oracle._ldlt_solve(fact, r)
    assert all(isinstance(p, decimal.Decimal) for p in fact[0])
    # the residual of the banded M at 3 dps digits; ||M|| is an interior row's sum
    with decimal.localcontext(prec=3 * dps):
        res = d * x - r
        res[1:] += e * x[:-1]
        res[:-1] += e * x[1:]
        res[2:] += b * x[:-2]
        res[:-2] += b * x[2:]
        m_norm = max(abs(d)) + 2 * max(abs(e)) + 2 * max(abs(b))
        err = max(abs(res)) / (m_norm * max(abs(x)) + max(abs(r)))
    assert err <= decimal.Decimal(10) ** (2 - dps)


def test_dst1_matches_dense_sine_matrix():
    m = 9
    v = np.random.default_rng(5).standard_normal(m)
    k = np.arange(1, m + 1)
    dense = np.sin(np.outer(k, k) * np.pi / (m + 1))
    assert np.abs(fd_oracle._dst1(v) - dense @ v).max() <= 1e-14


def test_spectral_solve_matches_dense_solve():
    # the same matrix and bound as the banded solve's check above
    alpha = 1e-4
    g = Grid1D(41)
    m = g.n_interior
    rhs = np.cos(3 * np.pi * g.points[g.interior_mask, 0]) + g.points[g.interior_mask, 0]
    u = fd_oracle._solver(fd_oracle._FloatCtx(), alpha / 2, 1.0 / (1 / (g.n_points - 1))**2,
                          m)(rhs)
    exact = np.linalg.solve(_inner_matrix(g, alpha), rhs)
    assert np.linalg.norm(u - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("dps", [None, 30])
def test_solve_nonneg_meets_kkt_conditions(monkeypatch, dps):
    # a rhs negative on two stretches of the grid clamps several entries
    g = Grid1D(41)
    m = g.n_interior
    rhs = np.cos(3 * np.pi * g.points[g.interior_mask, 0]) - 0.3
    tol = 1e-10
    factorisations = []
    factor = fd_oracle._ldlt_factor
    ctx = fd_oracle._context(dps)
    with ctx.guard():
        h = ctx.num(1) / (g.n_points - 1)
        c, q = ctx.num(ALPHA) / 2, 1 / (h * h)
        bands = fd_oracle._biharmonic_bands(c, q, m, ctx.num(1))
        solve = fd_oracle._solver(ctx, c, q, m)
        # every factorisation from here on is one of a nonempty active set
        monkeypatch.setattr(fd_oracle, "_ldlt_factor",
                            lambda *b: factorisations.append(1) or factor(*b))
        u = fd_oracle._solve_nonneg(bands, solve, fd_oracle._array(ctx, rhs), ctx,
                                    ctx.num(tol))
    assert factorisations
    u = u.astype(float)
    grad = _inner_matrix(g) @ u - rhs
    clamped = u == 0.0
    assert 3 <= clamped.sum() < m
    assert u[~clamped].min() >= -tol
    assert grad[clamped].min() >= -tol
    assert np.abs(grad[~clamped]).max() <= 1e-9  # stationary on the free entries


def test_direct_kkt_manufactured_solution():
    g = Grid1D(201)
    sol = fd_direct_kkt_solve(g, ALPHA, sine_target(g, ALPHA))
    ex = ExactSolution("sine1d")
    x = g.points[g.interior_mask, 0]
    rel_u = grid_norm(g, sol.u - ex.state(x)) / grid_norm(g, ex.state(x))
    rel_f = grid_norm(g, sol.f - ex.control(x)) / grid_norm(g, ex.control(x))
    assert rel_u <= 1e-4
    assert rel_f <= 1e-3
    assert sol.residual <= 1e-10  # normwise backward error of the direct solve
    assert np.allclose(sol.z, -(ALPHA / 2) * sol.f)


def test_direct_kkt_solves_the_sine_target_to_rounding():
    # the sine target is the first DST-I mode, so the discrete solution is
    # u = (1 + alpha pi^4) / (alpha lam_1^2 + 1) sin(pi x), f = -lam_1 u and
    # z = (alpha/2) lam_1 u; the banded solve missed u by 1.3e-5 on this
    # grid, and f = -T u on the grid missed f and z by 1.35e-9
    g = Grid1D(4001)
    lam1 = -4 / (1 / (g.n_points - 1))**2 * np.sin(np.pi * (1 / (g.n_points - 1)) / 2) ** 2
    x = g.points[g.interior_mask, 0]
    exact = (1 + ALPHA * np.pi**4) / (ALPHA * lam1**2 + 1) * np.sin(np.pi * x)
    sol = fd_direct_kkt_solve(g, ALPHA, sine_target(g, ALPHA))
    assert np.abs(sol.u - exact).max() <= 1e-13
    assert sol.residual <= 1e-15
    for field, want in ((sol.f, -lam1 * exact), (sol.z, ALPHA / 2 * lam1 * exact)):
        assert np.abs(field - want).max() <= 1e-14 * np.abs(want).max()


def test_direct_kkt_zero_target():
    g = Grid1D(41)
    sol = fd_direct_kkt_solve(g, ALPHA, [0.0] * g.n_interior)
    assert np.all(sol.u == 0.0) and np.all(sol.f == 0.0) and np.all(sol.z == 0.0)


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("method, dps", [
    ("direct", None), ("direct", 30), ("uzawa", None), ("uzawa", 30),
    ("projected", None), ("projected", 30), ("gauss_seidel", None),
])
def test_target_of_the_wrong_length_is_refused(method, dps, extra):
    # the Decimal LDL^T solve zips its factor against the target, so an
    # unchecked short target would come back as a short "solution"
    solve = {
        "direct": lambda g, d: fd_direct_kkt_solve(g, ALPHA, d, dps=dps),
        "uzawa": lambda g, d: fd_uzawa_run(g, ALPHA, ALPHA / 4, d, 2, dps=dps),
        "projected": lambda g, d: fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, d, 2, dps=dps),
        "gauss_seidel": lambda g, d: gauss_seidel_adjoint_run(g, 1.0, d, 2),
    }[method]
    g = Grid1D(11)
    with pytest.raises(ValueError, match=f"target D has {9 + extra} values for 9 interior"):
        solve(g, np.ones(g.n_interior + extra))


def test_direct_kkt_solve_whose_backward_error_overflows_diverges_at_0():
    # at alpha = 1e300 the fields are finite, but alpha B u overflows and
    # the backward error is NaN
    g = Grid1D(21)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = fd_direct_kkt_solve(g, 1e300, sine_target(g, 1e300))
    assert np.isnan(sol.residual)
    assert sol.diverged_at == 0


def test_direct_kkt_solve_whose_pivot_rounds_to_zero_diverges_at_0():
    # at one digit the banded factor meets a zero pivot; the Decimal context
    # traps no signal, so the solve comes back NaN instead of raising
    g = Grid1D(5)
    sol = fd_direct_kkt_solve(g, 1e-2, sine_target(g, 1e-2), dps=1)
    assert np.isnan(sol.residual)
    assert sol.diverged_at == 0


def test_direct_kkt_symmetry():
    g = Grid1D(101)
    x = g.points[g.interior_mask, 0]
    d = np.exp(-40 * (x - 0.5) ** 2)  # symmetric about 1/2
    sol = fd_direct_kkt_solve(g, ALPHA, d)
    assert np.abs(sol.u - sol.u[::-1]).max() <= 1e-12
    assert np.abs(sol.f - sol.f[::-1]).max() <= 1e-10


def test_direct_kkt_grid_convergence():
    ex = ExactSolution("sine1d")
    errs = {}
    for n in (101, 201):
        g = Grid1D(n)
        sol = fd_direct_kkt_solve(g, ALPHA, sine_target(g, ALPHA))
        errs[n] = grid_norm(g, sol.u - ex.state(g.points[g.interior_mask, 0]))
    assert 3.5 <= errs[101] / errs[201] <= 4.5


def test_uzawa_monotone_z_error_early_float64():
    g = Grid1D(201)
    run = fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), 20)
    assert np.all(np.diff(run.z_errors) < 0)  # well above the rounding floor


# kappa_1 = 1 - rho (lam_1^2 / (1 + alpha lam_1^2 / 2) + 2 / alpha) at n = 201,
# alpha = 1e-2, rho = alpha / 4
KAPPA_1 = 0.33624172866


@pytest.mark.parametrize("dps", [None, 60])
def test_uzawa_rate_on_the_sine_target_is_kappa_1(dps):
    # the sine target excites only the first mode, so every update multiplies
    # the multiplier error by exactly kappa_1
    g = Grid1D(201)
    run = fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA, dps=dps), 10, dps=dps)
    ratios = run.z_errors[1:] / run.z_errors[:-1]
    assert np.abs(ratios / KAPPA_1 - 1).max() <= 1e-9


def test_uzawa_step_bounds():
    # the inadmissible step of the projected run's period-2 cycle
    rho_max, kappa_max = fd_oracle.uzawa_step_bounds(Grid1D(41), ALPHA, 1.0)
    assert rho_max == pytest.approx(0.0050000122, abs=1e-10)
    assert kappa_max == pytest.approx(399.0, abs=1e-2)
    # at rho = alpha / 4 the first mode is the slowest
    assert fd_oracle.uzawa_step_bounds(Grid1D(201), ALPHA, ALPHA / 4)[1] == \
        pytest.approx(KAPPA_1, rel=1e-10)
    # rho_max tends to alpha / 2 as the grid refines
    assert fd_oracle.uzawa_step_bounds(Grid1D(4001), ALPHA, 1.0)[0] == \
        pytest.approx(ALPHA / 2, rel=1e-8)


def test_uzawa_monotone_for_sampled_rho_in_admissible_range():
    # the contraction holds for every rho in (0, alpha/2)
    g = Grid1D(101)
    target = sine_target(g, ALPHA)
    for frac in (0.05, 0.25, 0.45, 0.49):
        run = fd_uzawa_run(g, ALPHA, frac * ALPHA, target, 12)
        assert np.all(np.diff(run.z_errors) < 0), f"rho = {frac} alpha"


def test_uzawa_converges_to_direct_solution():
    g = Grid1D(201)
    run = fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), 120)
    assert run.state_errors[-1] / grid_norm(g, run.reference.u) <= 1e-9
    assert run.control_errors[-1] / grid_norm(g, run.reference.f) <= 1e-8


def test_uzawa_tiny_rho_freezes_iterates():
    g = Grid1D(41)
    target = sine_target(g, ALPHA)
    run = fd_uzawa_run(g, ALPHA, 1e-300, target, 3)
    # z moves by O(rho), so the iterates are pinned at the z = 0 inner solve
    assert np.allclose(run.state_errors, run.state_errors[0], rtol=1e-12)
    assert np.abs(run.f).max() <= 1e-200


def test_uzawa_fixed_point_identity():
    # at the saddle the update is stationary: z* = z* + rho (lap u* + f*)
    g = Grid1D(101)
    sol = fd_direct_kkt_solve(g, ALPHA, sine_target(g, ALPHA))
    drift = apply_laplacian(g, sol.u) + sol.f
    assert grid_norm(g, drift) <= 1e-10 * grid_norm(g, sol.f)


def test_uzawa_high_precision_matches_float64_early():
    g = Grid1D(51)
    target = sine_target(g, ALPHA)
    run64 = fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 15)
    run_mp = fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA, dps=60), 15, dps=60)
    assert np.allclose(run64.z_errors, run_mp.z_errors, rtol=1e-9)
    assert np.allclose(run64.u, run_mp.u, rtol=1e-10)


def _runs(g, target, iters, dps):
    """FDRun fields of the plain and projected runs, by name."""
    fields = {}
    for name, run in (("plain", fd_uzawa_run), ("projected", fd_projected_uzawa_run)):
        r = run(g, ALPHA, ALPHA / 4, target, iters, dps=dps)
        for key in ("u", "f", "z", "z_history", "z_errors", "state_errors",
                    "control_errors", "loss_history"):
            fields[f"{name}.{key}"] = getattr(r, key)
        for key in ("u", "f", "z"):
            fields[f"{name}.reference.{key}"] = getattr(r.reference, key)
    return fields


def test_decimal_diagnostics_at_report_precision_keep_the_iterates(monkeypatch):
    # at 130 digits the errors and loss rows are taken at 20: the iterates
    # keep every bit, the diagnostics stay within 2 ulp of those taken at 130
    g = Grid1D(201)
    target = sine_target(g, ALPHA, dps=130)
    short = _runs(g, target, 100, 130)
    monkeypatch.setattr(fd_oracle, "_REPORT_DPS", 130)
    full = _runs(g, target, 100, 130)
    for key, v in short.items():
        if key.endswith("errors") or key.endswith("loss_history"):
            assert np.all(np.abs(v - full[key]) <= 2 * np.spacing(np.abs(full[key]))), key
        elif v is not None or full[key] is not None:
            assert np.array_equal(v, full[key]), key
    assert short["plain.z_errors"][-1] < 1e-30  # far below the float64 floor


@pytest.mark.parametrize("dps", [15, 20])
@pytest.mark.parametrize("value", [None, -1.0])
def test_decimal_diagnostics_up_to_20_digits_keep_every_bit(monkeypatch, dps, value):
    # with no more than 20 digits the diagnostics are taken at dps, as when
    # the report precision is unbounded; the constant target clamps
    g = Grid1D(41)
    target = sine_target(g, ALPHA, dps=dps) if value is None else np.full(g.n_interior, value)
    short = _runs(g, target, 40, dps)
    monkeypatch.setattr(fd_oracle, "_REPORT_DPS", 10**4)
    for key, v in _runs(g, target, 40, dps).items():
        assert (v is None and short[key] is None) or np.array_equal(v, short[key]), key


@pytest.mark.parametrize("dps", [30, 60, 130, 200])
def test_sine_target_high_precision_digits(dps):
    # the target at dps digits is the sine1d row's float64 target rounded to
    # dps digits; in float64 it is that target, bitwise
    g = Grid1D(51)
    table = EXPERIMENTS["sine1d"].target(g.points[g.interior_mask], ALPHA, None)
    rounded = decimal.Context(prec=dps).create_decimal
    assert [str(v) for v in sine_target(g, ALPHA, dps=dps)] == [str(rounded(x)) for x in table]
    assert np.array_equal(sine_target(g, ALPHA).view(np.int64), table.view(np.int64))


def _assert_projected_is_plain(proj, plain):
    # bitwise, fields and histories, with the multiplier reported negated
    for name in ("u", "f", "z_errors", "state_errors", "control_errors", "loss_history"):
        assert np.array_equal(getattr(proj, name), getattr(plain, name)), name
    assert np.array_equal(proj.z, -plain.z)
    assert np.array_equal(proj.reference.z, -plain.reference.z)


def test_projected_matches_plain_when_saddle_nonnegative():
    # no clamp activates, so the projected run is the plain run with its
    # multiplier reported negated; in float64 the certificate holds at every
    # iterate and it takes the plain run's steps on DST-I coefficients
    g = Grid1D(201)
    target = sine_target(g, ALPHA)
    _assert_projected_is_plain(fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 60),
                               fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 60))
    # in Decimal both iterate on the grid, with the same operations
    target = sine_target(g, ALPHA, dps=40)
    _assert_projected_is_plain(fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 60, dps=40),
                               fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 60, dps=40))


def test_projected_float64_rounding_at_4001_points():
    # the certified run takes the plain run's coefficient steps, so its
    # fields carry none of the grid iteration's rounding, which each T
    # amplifies by up to 4/h^2: after 200 updates on the sine target the grid
    # run's f and z sat 8.7e-10 of their maxima from the plain run's
    g = Grid1D(4001)
    target = sine_target(g, ALPHA)
    _assert_projected_is_plain(fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 200),
                               fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 200))


def _count_attempts(monkeypatch):
    """[project, iterates yielded] of each Uzawa step generator that was
    started: the certified attempt steps without projection."""
    attempts = []
    steps = fd_oracle._uzawa_steps

    def counted(a, rho, D, ctx, project, lap, solve):
        attempts.append([project, 0])
        for iterate in steps(a, rho, D, ctx, project, lap, solve):
            attempts[-1][1] += 1
            yield iterate

    monkeypatch.setattr(fd_oracle, "_uzawa_steps", counted)
    return attempts


def test_certificate_that_fails_midway_gives_the_grid_run(monkeypatch):
    # u_0 of this target is not concave, so the plain run's z_1 = rho T u_0
    # is positive on the grid, and the z clamp would act: the attempt runs
    # to its end, its z_history fails the check after the run, and the grid
    # run starts over from iterate 0.  A margin of 0 fails the state bound
    # before the run, so no attempt is made.
    g = Grid1D(201)
    x = g.points[g.interior_mask, 0]
    target = np.sin(np.pi * x) + 0.08 * np.sin(12 * np.pi * x)
    attempts = _count_attempts(monkeypatch)
    midway = fd_projected_uzawa_run(g, 1e-4, 2.5e-5, target, 20)
    assert attempts == [[False, 21], [True, 21]]
    monkeypatch.setattr(fd_oracle, "_CLAMP_MARGIN", 0.0)
    attempts.clear()
    grid_run = fd_projected_uzawa_run(g, 1e-4, 2.5e-5, target, 20)
    assert attempts == [[True, 21]]
    assert midway.diverged_at is grid_run.diverged_at is None
    for name in ("u", "f", "z", "z_errors", "state_errors", "control_errors", "loss_history",
                 "z_history"):
        assert np.array_equal(getattr(midway, name), getattr(grid_run, name)), name
    # the clamps acted: the plain run's iterates are not these
    assert not np.array_equal(midway.u, fd_uzawa_run(g, 1e-4, 2.5e-5, target, 20).u)


def test_certificate_refuses_an_inadmissible_step(monkeypatch):
    # at rho >= rho_max some mode's error grows, so the state bound of
    # iterate 0 bounds no later iterate: no attempt, only the grid run, whose
    # fields and histories are those of the run a margin of 0 sends to the grid
    g = Grid1D(201)
    target = sine_target(g, 1e-4)
    rho = 1.05 * fd_oracle.uzawa_step_bounds(g, 1e-4, 1.0)[0]
    attempts = _count_attempts(monkeypatch)
    run = fd_projected_uzawa_run(g, 1e-4, rho, target, 60)
    assert attempts == [[True, 61]]
    monkeypatch.setattr(fd_oracle, "_CLAMP_MARGIN", 0.0)
    grid_run = fd_projected_uzawa_run(g, 1e-4, rho, target, 60)
    assert run.diverged_at == grid_run.diverged_at
    for name in ("u", "f", "z", "z_errors", "state_errors", "control_errors", "loss_history",
                 "z_history"):
        assert np.array_equal(getattr(run, name), getattr(grid_run, name)), name


@pytest.mark.parametrize("n", [201, 4001])
def test_state_bound_falls_after_iterate_0_at_an_admissible_step(n):
    # the contraction theorem the certificate relies on: on the j-th DST-I
    # mode u^_k - u*^ = (1 - rho mu_j)^k (u^_0 - u*^), so at rho < rho_max
    # b_k = (2 / (m + 1)) sum_j j |u^_k,j - u*^_j| never exceeds b_0 (here
    # to rounding), and past rho_max the modes with |1 - rho mu_j| > 1 grow
    g = Grid1D(n)
    m, alpha = g.n_interior, 1e-4
    x = g.points[g.interior_mask, 0]
    target = np.sin(np.pi * x) + 0.08 * np.sin(12 * np.pi * x)
    lam, d_hat, (u_star, _, _) = fd_oracle._spectral_kkt(alpha, target)
    mu = alpha / 2 * lam**2 + 1
    j = np.arange(1.0, m + 1)

    def bounds(rho):
        steps = fd_oracle._uzawa_steps(alpha, rho, d_hat, fd_oracle._FloatCtx(), False,
                                       lambda v: lam * v, lambda r: r / mu)
        return np.array([2 / (m + 1) * (j @ np.abs(next(steps)[0] - u_star))
                         for _ in range(201)])

    b = bounds(alpha / 4)
    assert (b <= b[0] * (1 + 1e-12)).all()
    b = bounds(1.05 * fd_oracle.uzawa_step_bounds(g, alpha, 1.0)[0])
    assert (b > b[0]).any()


@pytest.mark.parametrize("target", ["negated_sine", "dip_in_the_middle", "zero"])
def test_certificate_needs_a_positive_state_and_negative_multiplier(monkeypatch, target):
    # gamma <= 0 (the negated sine, the zero target), or z* >= 0 somewhere
    # (u* > 0 dips in the middle, where it is convex): no attempt, only the grid run
    g = Grid1D(41)
    x = g.points[g.interior_mask, 0]
    D = {"negated_sine": -sine_target(g, ALPHA), "zero": np.zeros(g.n_interior),
         "dip_in_the_middle": np.sin(np.pi * x) + 8 * np.sin(3 * np.pi * x)}[target]
    attempts = _count_attempts(monkeypatch)
    fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, D, 5)
    assert attempts == [[True, 6]]


@pytest.mark.parametrize("dps", [None, 30])
def test_projected_zeros_are_positive(dps):
    # at iterate 0 every f and z entry is zero; the clamps and the reported
    # negation must give +0, or Control.csv reads -0.0
    g = Grid1D(21)
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA, dps=dps), 0,
                                 dps=dps)
    for field in (run.f, run.z, run.z_history):
        assert np.all(field == 0.0) and not np.signbit(field).any()


def test_projected_z_always_nonnegative():
    g = Grid1D(101)
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), 40)
    assert run.z.min() >= 0.0
    # monotone decrease while above the float64 rounding floor
    assert np.all(np.diff(run.z_errors[:15]) < 0)


def test_projected_zero_target():
    g = Grid1D(41)
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, [0.0] * g.n_interior, 5)
    assert np.all(run.u == 0.0) and np.all(run.f == 0.0) and np.all(run.z == 0.0)


def test_projected_clamps_on_negative_target():
    # flipping the target sign makes the unconstrained control negative, so
    # the nonnegativity constraints must activate and pin the fields at zero
    g = Grid1D(101)
    target = [-x for x in sine_target(g, ALPHA)]
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 30)
    assert run.z.min() >= 0.0
    assert run.f.min() >= 0.0
    assert run.u.min() >= -1e-12


def test_gauss_seidel_zero_target():
    g = Grid1D(41)
    run = gauss_seidel_adjoint_run(g, 1.0, [0.0] * g.n_interior, 5)
    assert np.all(run.u == 0.0) and np.all(run.f == 0.0) and np.all(run.z == 0.0)


def test_gauss_seidel_converges_for_large_alpha():
    # spectral radius ~ 1 / (alpha pi^4) < 1 for alpha = 1
    g = Grid1D(201)
    run = gauss_seidel_adjoint_run(g, 1.0, sine_target(g, 1.0), 40)
    assert run.state_errors[5] < run.state_errors[0]
    assert run.state_errors[-1] <= 1e-8
    assert run.diverged_at is None


def test_gauss_seidel_first_step_structure():
    # from f0 = 0: u1 = 0 and z1 solves -lap z = D
    g = Grid1D(41)
    target = sine_target(g, 1.0)
    run = gauss_seidel_adjoint_run(g, 1.0, target, 1)
    lap_z = apply_laplacian(g, run.z)
    assert np.abs(-lap_z - np.asarray(target, float)).max() <= 1e-9
    assert run.state_errors[1] == pytest.approx(run.state_errors[0], rel=1e-12)


@pytest.mark.parametrize("n", [201, 4001])
def test_gauss_seidel_rate_on_the_sine_target(n):
    # on the first DST-I mode a sweep multiplies the multiplier error by
    # -1 / (alpha nu_1^2), nu_1 the smallest eigenvalue of -T; at alpha = 1e-2
    # that is 1.0266 on both grids, so the sweep diverges slowly
    g = Grid1D(n)
    nu_1 = -fd_oracle._laplacian_eigenvalues(g.n_interior)[0]
    rate = 1 / (ALPHA * nu_1**2)
    run = gauss_seidel_adjoint_run(g, ALPHA, sine_target(g, ALPHA), 30)
    ratios = run.z_errors[1:] / run.z_errors[:-1]
    assert np.abs(ratios / rate - 1).max() <= 1e-10
    assert rate == pytest.approx(1.0266, abs=1e-4)


@pytest.mark.parametrize("n", [201, 4001])
def test_gauss_seidel_matches_two_solves_per_sweep(n):
    # the sweep in DST-I coordinates against the sweep of two spectral solves
    g = Grid1D(n)
    m = g.n_interior
    x = g.points[g.interior_mask, 0]
    target = np.exp(-40 * (x - 0.3) ** 2) + x  # excites every mode
    solve = fd_oracle._spectral_solve(-fd_oracle._laplacian_eigenvalues(m))
    u = f = z = np.zeros(m)
    for _ in range(200):
        u = solve(f)
        z = solve(target - u)
        f = z / ALPHA
    run = gauss_seidel_adjoint_run(g, ALPHA, target, 200)
    for new, old in ((run.u, u), (run.f, f), (run.z, z)):
        assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()


@pytest.mark.parametrize("iters", [0, 1, 7])
@pytest.mark.parametrize("method", ["gauss_seidel", "uzawa"])
def test_spectral_runs_transform_seven_times(monkeypatch, method, iters):
    # float64 runs that clamp nothing iterate on DST-I coefficients: one
    # DST-I of the target in; u, f, z and the reference's three fields out
    calls = []
    dst1 = fd_oracle._dst1
    monkeypatch.setattr(fd_oracle, "_dst1", lambda v: calls.append(1) or dst1(v))
    g = Grid1D(41)
    target = sine_target(g, ALPHA)
    run = (gauss_seidel_adjoint_run(g, ALPHA, target, iters) if method == "gauss_seidel"
           else fd_uzawa_run(g, ALPHA, ALPHA / 4, target, iters))
    assert run.diverged_at is None
    assert len(run.z_errors) == iters + 1
    assert len(calls) == 7


@pytest.mark.parametrize("iters", [0, 1, 7])
def test_certified_projected_run_transforms_once_per_iterate(monkeypatch, iters):
    # the plain run's seven DST-I, two for the certificate's u* and z* on
    # the grid, and one per iterate for its z on the grid; the grid run takes
    # two per inner solve
    calls = []
    dst1 = fd_oracle._dst1
    monkeypatch.setattr(fd_oracle, "_dst1", lambda v: calls.append(1) or dst1(v))
    g = Grid1D(41)
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), iters)
    assert len(run.z_history) == iters + 1
    assert len(calls) == 7 + 2 + iters + 1


@pytest.mark.parametrize("n", [201, 4001])
def test_uzawa_in_coefficients_matches_the_grid_loop(n):
    # fd_uzawa_run iterates on DST-I coefficients; the loop below runs the
    # same iteration on the grid with _spectral_solve and _laplacian_apply.
    # Their difference is the grid loop's rounding.  With unit roundoff u,
    # L = log2(2 (m + 1)) the FFT length, M = (alpha/2) T^2 + I, and norms
    # the 2-norm:
    # - one grid T v errs by at most 12 u q ||v|| (three roundings of terms
    #   of total weight 4 q), one DST-I by about u L ||v||;
    # - the rounding of T z in an update's right-hand side reaches z through
    #   rho T M^-1, of norm at most rho / sqrt(2 alpha), since
    #   |lam| / (1 + alpha lam^2 / 2) <= 1 / sqrt(2 alpha); the rounding of
    #   T u and the back-transform's error in u reach it through rho T, of
    #   norm at most 4 rho q; terms without a factor q are negligible here;
    # - every later update multiplies an error by at most kappa_max < 1.
    # So ||dz|| <= rho u q (12 Z / sqrt(2 alpha) + (12 + 4 L) U) / (1 - kappa_max),
    # Z and U the largest iterate norms, and df = -(2/alpha) dz.  The inner
    # solve u = M^-1 (D - T z) adds to u at most ||dz|| / sqrt(2 alpha) +
    # 12 u q Z + 2 u L U.  Measured: 3-5% of the bound for z and f (1.8e-12
    # and 1.5e-9 of their maxima); u's bound lets all of T z's rounding land
    # on the smoothest mode, and u is within 1e-4 and 6e-6 of it (1.7e-15 and
    # 4.1e-14 of its maximum).  The loss rows, sums over coefficients with
    # Parseval's weight 2 h^2, match the grid loop's to 1e-9 of each
    # column's maximum, and the first multiplier errors, while far above
    # the grid loop's rounding, to 1e-6.
    g = Grid1D(n)
    m, q = g.n_interior, 1.0 / (1 / (g.n_points - 1))**2
    x = g.points[g.interior_mask, 0]
    target = np.exp(-40 * (x - 0.3) ** 2) + x  # excites every mode
    rho, iters = ALPHA / 4, 200
    lam = fd_oracle._laplacian_eigenvalues(m)
    solve = fd_oracle._spectral_solve(ALPHA / 2 * lam**2 + 1)
    z_star = fd_direct_kkt_solve(g, ALPHA, target).z
    z = np.zeros(m)
    big_z = big_u = 0.0
    rows, z_errors = [], []
    for k in range(iters + 1):
        if k:
            z = z + rho * (lap_u + f)
        u = solve(target - fd_oracle._laplacian_apply(z, q))
        f = -(2 / ALPHA) * z
        lap_u = fd_oracle._laplacian_apply(u, q)
        big_z, big_u = max(big_z, np.linalg.norm(z)), max(big_u, np.linalg.norm(u))
        rows.append(fd_oracle._loss_row(u, f, z, target, lap_u, ALPHA, 1 / (g.n_points - 1),
                                        fd_oracle._FloatCtx()))
        z_errors.append(grid_norm(g, z - z_star))
    run = fd_uzawa_run(g, ALPHA, rho, target, iters)
    rows = np.array(rows)
    assert np.all(np.abs(run.loss_history - rows) <= 1e-9 * np.abs(rows).max(axis=0))
    assert np.allclose(run.z_errors[:5], z_errors[:5], rtol=1e-6, atol=0)
    unit, L = np.finfo(float).eps / 2, np.log2(2 * (m + 1))
    kappa_max = fd_oracle.uzawa_step_bounds(g, ALPHA, rho)[1]
    dz = rho * unit * q * (12 * big_z / np.sqrt(2 * ALPHA) + (12 + 4 * L) * big_u) \
        / (1 - kappa_max)
    assert np.linalg.norm(run.z - z) <= dz
    assert np.linalg.norm(run.f - f) <= 2 / ALPHA * dz
    assert np.linalg.norm(run.u - u) <= \
        dz / np.sqrt(2 * ALPHA) + 12 * unit * q * big_z + 2 * unit * L * big_u


def test_z_history_holds_the_projected_run_minima():
    # entry k is the smallest multiplier entry of iterate k, the final z of a
    # run stopped there; the plain and Gauss-Seidel runs keep none
    g = Grid1D(41)
    target = sine_target(g, ALPHA)
    run = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 10)
    assert run.z_history.shape == run.z_errors.shape
    for k in (0, 1, 4, 10):
        stopped = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, k)
        assert run.z_history[k] == stopped.z.min()
    assert run.z_history[0] == 0.0 < run.z_history[1]
    assert fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 3).z_history is None
    assert gauss_seidel_adjoint_run(g, ALPHA, target, 3).z_history is None


def _assert_fields_are_the_last_recorded_iterate(run, rerun):
    # the fields of a run that diverged at iterate k > 0 are those of the
    # same run stopped at iterate k - 1
    stopped = rerun(run.diverged_at - 1)
    assert stopped.diverged_at is None
    for name in ("u", "f", "z"):
        assert np.array_equal(getattr(run, name), getattr(stopped, name))


def test_gauss_seidel_divergence_flagged_not_raised():
    # alpha far below 1/pi^4: the sweep blows up and must report, not crash
    g = Grid1D(101)
    target = sine_target(g, 1e-4)
    run = gauss_seidel_adjoint_run(g, 1e-4, target, 10000)
    assert run.diverged_at is not None
    # the iterate that diverged is not recorded
    assert len(run.state_errors) == run.diverged_at
    assert max(run.state_errors[-1], run.control_errors[-1]) <= 1e6
    _assert_fields_are_the_last_recorded_iterate(
        run, lambda iters: gauss_seidel_adjoint_run(g, 1e-4, target, iters))


@pytest.mark.parametrize("dps", [None, 30])
def test_uzawa_divergence_flagged_not_raised(dps):
    # rho far above alpha / 2: the multiplier error grows and the run must
    # stop at the first iterate past the limit, not overflow
    g = Grid1D(41)
    target = sine_target(g, ALPHA, dps=dps)
    run = fd_uzawa_run(g, ALPHA, 10.0, target, 200, dps=dps)
    assert run.diverged_at is not None
    # the iterate that diverged is not recorded
    assert len(run.state_errors) == run.diverged_at
    assert run.loss_history.shape == (run.diverged_at, 4)
    assert max(run.state_errors[-1], run.control_errors[-1]) <= 1e6
    assert np.all(np.isfinite(run.loss_history))
    _assert_fields_are_the_last_recorded_iterate(
        run, lambda iters: fd_uzawa_run(g, ALPHA, 10.0, target, iters, dps=dps))


def test_cycling_inner_solve_diverges_at_its_first_iterate():
    # the active set of sin(37 pi x) cycles in the first inner solve
    g = Grid1D(201)
    target = np.sin(37 * np.pi * g.points[g.interior_mask, 0])
    run = fd_projected_uzawa_run(g, 1e-2, 2.5e-3, target, 20)
    assert run.diverged_at == 0
    assert run.z_errors.shape == run.state_errors.shape == run.z_history.shape == (0,)
    assert run.loss_history.shape == (0, 4)
    # no iterate was recorded: the fields are iterate 0's, its state NaN
    assert np.isnan(run.u).all()
    assert not run.f.any() and not run.z.any()


@pytest.mark.parametrize("dps", [None, 30])
def test_cycling_inner_solve_diverges_where_it_cycles(dps):
    # rho = 3 rho_max at alpha = 1e-4: the inner solve's active set cycles at
    # iterate 20, before the errors pass the divergence limit
    g = Grid1D(81)
    target = EXPERIMENTS["boundary_layer"].target(g.points[g.interior_mask], 1e-4, None)
    run = fd_projected_uzawa_run(g, 1e-4, 1.5e-4, target, 200, dps=dps)
    assert run.diverged_at == 20
    assert run.state_errors.shape == run.z_history.shape == (20,)
    assert np.all(np.isfinite(run.loss_history))
    _assert_fields_are_the_last_recorded_iterate(
        run, lambda iters: fd_projected_uzawa_run(g, 1e-4, 1.5e-4, target, iters, dps=dps))


@pytest.mark.parametrize("bad", [0.0, -1e-2, math.inf, math.nan])
def test_entry_points_need_positive_finite_alpha_and_rho(bad):
    g = Grid1D(21)
    target = sine_target(g, ALPHA)
    calls = (
        lambda: fd_uzawa_run(g, bad, ALPHA / 4, target, 3),
        lambda: fd_uzawa_run(g, ALPHA, bad, target, 3),
        lambda: fd_projected_uzawa_run(g, bad, ALPHA / 4, target, 3),
        lambda: fd_projected_uzawa_run(g, ALPHA, bad, target, 3),
        lambda: gauss_seidel_adjoint_run(g, bad, target, 3),
        lambda: fd_direct_kkt_solve(g, bad, target),
        lambda: fd_oracle.uzawa_step_bounds(g, bad, ALPHA / 4),
        lambda: fd_oracle.gauss_seidel_rate(g, bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="must be positive and finite"):
            call()


def test_negative_iteration_count_is_refused():
    g = Grid1D(21)
    with pytest.raises(ValueError, match="iters must be nonnegative"):
        fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), -1)


def test_boundary_layer_target_direct_solve():
    # constant target: compare against the closed form of the eliminated ODE
    g = Grid1D(401)
    alpha = 1e-3
    sol = fd_direct_kkt_solve(g, alpha, np.ones(g.n_interior))
    ex = ExactSolution("boundary_layer", alpha=alpha)
    x = g.points[g.interior_mask, 0]
    rel = grid_norm(g, sol.u - ex.state(x)) / grid_norm(g, ex.state(x))
    assert rel <= 1e-4
