import numpy as np
import pytest

from deepuzawa.closed_forms import ExactSolution
from deepuzawa.errors import GridError
from deepuzawa.fd_oracle import (Grid1D, apply_laplacian, constant_target, fd_direct_kkt_solve,
                                 fd_projected_uzawa_run, fd_uzawa_run,
                                 gauss_seidel_adjoint_run, grid_norm, laplacian_dense,
                                 sine_target)

ALPHA = 1e-2


def test_grid_validation():
    with pytest.raises(GridError):
        Grid1D(4)
    g = Grid1D(11)
    assert g.h == pytest.approx(0.1)
    assert g.n_interior == 9


def test_laplacian_of_discrete_sine():
    g = Grid1D(201)
    x = g.interior_x()
    lap = apply_laplacian(g, np.sin(np.pi * x))
    err = np.abs(lap + np.pi**2 * np.sin(np.pi * x)).max()
    assert err <= 5 * g.h**2 * np.pi**4 / 12  # O(h^2) with the sine's scale


def test_laplacian_second_order_rate():
    errs = []
    for n in (101, 201):
        g = Grid1D(n)
        x = g.interior_x()
        lap = apply_laplacian(g, np.sin(np.pi * x))
        errs.append(np.abs(lap + np.pi**2 * np.sin(np.pi * x)).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_laplacian_interior_row_sums_vanish():
    g = Grid1D(31)
    t = laplacian_dense(g)
    sums = t.sum(axis=1)
    assert np.allclose(sums[1:-1], 0.0, atol=1e-9)
    assert sums[0] == pytest.approx(-1.0 / g.h**2, rel=1e-12)


def test_biharmonic_is_laplacian_squared():
    g = Grid1D(21)
    t = laplacian_dense(g)
    # interior stencil away from the boundary rows
    row = (t @ t)[5, 3:8] * g.h**4
    assert np.allclose(row, [1.0, -4.0, 6.0, -4.0, 1.0], rtol=1e-10)


def test_biharmonic_of_sine():
    g = Grid1D(201)
    x = g.interior_x()
    t = laplacian_dense(g)
    b = t @ t
    err = np.abs(b @ np.sin(np.pi * x) - np.pi**4 * np.sin(np.pi * x)).max()
    assert err <= 1e-2  # O(h^2) with a pi^6 constant


def test_direct_kkt_manufactured_solution():
    g = Grid1D(201)
    sol = fd_direct_kkt_solve(g, ALPHA, sine_target(g, ALPHA))
    ex = ExactSolution("sine1d")
    x = g.interior_x()
    rel_u = grid_norm(g, sol.u - ex.state(x)) / grid_norm(g, ex.state(x))
    rel_f = grid_norm(g, sol.f - ex.control(x)) / grid_norm(g, ex.control(x))
    assert rel_u <= 1e-4
    assert rel_f <= 1e-3
    assert sol.residual <= 1e-10  # normwise backward error of the banded solve
    assert np.allclose(sol.z, -(ALPHA / 2) * sol.f)


def test_direct_kkt_zero_target():
    g = Grid1D(41)
    sol = fd_direct_kkt_solve(g, ALPHA, [0.0] * g.n_interior)
    assert np.all(sol.u == 0.0) and np.all(sol.f == 0.0) and np.all(sol.z == 0.0)


def test_direct_kkt_symmetry():
    g = Grid1D(101)
    x = g.interior_x()
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
        errs[n] = grid_norm(g, sol.u - ex.state(g.interior_x()))
    assert 3.5 <= errs[101] / errs[201] <= 4.5


def test_uzawa_monotone_z_error_early_float64():
    g = Grid1D(201)
    run = fd_uzawa_run(g, ALPHA, ALPHA / 4, sine_target(g, ALPHA), 20)
    assert np.all(np.diff(run.z_errors) < 0)  # well above the rounding floor


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


def test_sine_target_high_precision_digits():
    # the multiprecision target carries its dps digits, far past float64
    import mpmath

    g = Grid1D(51)
    target = sine_target(g, ALPHA, dps=60)
    with mpmath.workdps(80):
        scale = 1 + mpmath.mpf(ALPHA) * mpmath.pi**4
        for i, v in enumerate(target):
            exact = scale * mpmath.sin(mpmath.pi * (i + 1) / 50)
            assert abs(mpmath.mpf(str(v)) - exact) <= mpmath.mpf(10) ** -57 * abs(exact)


def test_projected_matches_plain_when_saddle_nonnegative():
    g = Grid1D(201)
    target = sine_target(g, ALPHA)
    plain = fd_uzawa_run(g, ALPHA, ALPHA / 4, target, 60)
    proj = fd_projected_uzawa_run(g, ALPHA, ALPHA / 4, target, 60)
    assert np.abs(proj.u - plain.u).max() <= 1e-10
    assert np.abs(proj.f - plain.f).max() <= 1e-10
    # multiplier orientations are opposite by construction
    assert np.abs(proj.z + plain.z).max() <= 1e-12


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


def test_gauss_seidel_divergence_flagged_not_raised():
    # alpha far below 1/pi^4: the sweep blows up and must report, not crash
    g = Grid1D(101)
    run = gauss_seidel_adjoint_run(g, 1e-4, sine_target(g, 1e-4), 10000)
    assert run.diverged_at is not None
    assert len(run.state_errors) == run.diverged_at + 1
    assert max(run.state_errors[-1], run.control_errors[-1]) > 1e6


@pytest.mark.parametrize("dps", [None, 30])
def test_uzawa_divergence_flagged_not_raised(dps):
    # rho far above alpha / 2: the multiplier error grows and the run must
    # stop at the first iterate past the limit, not overflow
    g = Grid1D(41)
    run = fd_uzawa_run(g, ALPHA, 10.0, sine_target(g, ALPHA, dps=dps), 200, dps=dps)
    assert run.diverged_at is not None
    assert len(run.state_errors) == run.diverged_at + 1
    assert len(run.loss_history) == run.diverged_at + 1
    assert np.all(np.isfinite(run.loss_history))


def test_boundary_layer_target_direct_solve():
    # constant target: compare against the closed form of the eliminated ODE
    g = Grid1D(401)
    alpha = 1e-3
    sol = fd_direct_kkt_solve(g, alpha, constant_target(g, 1.0))
    ex = ExactSolution("boundary_layer", alpha=alpha)
    x = g.interior_x()
    rel = grid_norm(g, sol.u - ex.state(x)) / grid_norm(g, ex.state(x))
    assert rel <= 1e-4
