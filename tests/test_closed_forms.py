import mpmath
import numpy as np
import pytest

from deepuzawa.closed_forms import EXPERIMENTS, ExactSolution
from deepuzawa.geometry import Domain, build_grid
from deepuzawa.lagrangian import ProblemSpec, residual_values
from reference_checks import residual_check_boundary_layer

ENDS = np.array([0.0, 1.0])


def test_sine1d_values():
    sol = ExactSolution("sine1d")
    assert sol.state([0.5])[0] == pytest.approx(1.0, abs=1e-15)
    assert sol.control([0.5])[0] == pytest.approx(np.pi**2, rel=1e-15)


def test_sine2d_values():
    sol = ExactSolution("sine2d")
    assert sol.state([[0.5, 0.5]])[0] == pytest.approx(1.0, abs=1e-15)
    assert sol.control([[0.5, 0.5]])[0] == pytest.approx(2 * np.pi**2, rel=1e-15)


def test_ac_sine_values():
    sol = ExactSolution("ac_sine", epsilon=1.0)
    assert sol.state([0.5])[0] == pytest.approx(1.0)
    assert sol.control([0.5])[0] == pytest.approx(np.pi**2)  # cos(pi/2) kills the cubic part
    s, c = np.sin(np.pi / 4), np.cos(np.pi / 4)
    assert sol.control([0.25])[0] == pytest.approx(s * (np.pi**2 - c**2), rel=1e-14)


def test_all_states_vanish_on_boundary():
    for sol in (ExactSolution("sine1d"), ExactSolution("boundary_layer", alpha=1e-3),
                ExactSolution("ac_sine", epsilon=0.5)):
        assert np.all(np.abs(sol.state(ENDS)) <= 1e-12)
    sol2 = ExactSolution("sine2d")
    edge = [[0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.6, 1.0]]
    assert np.all(np.abs(sol2.state(edge)) <= 1e-15)


@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4, 1e-7])
def test_boundary_layer_endpoints(alpha):
    sol = ExactSolution("boundary_layer", alpha=alpha)
    assert np.all(np.abs(sol.state(ENDS)) <= 1e-12)
    # simply supported: the control f = -lap u also vanishes at the ends
    assert np.all(np.abs(sol.control(ENDS)) <= 1e-9)


@pytest.mark.parametrize("alpha", [1e-2, 1e-4])
def test_boundary_layer_residual(alpha):
    assert residual_check_boundary_layer(alpha, 50) <= 1e-8


def test_boundary_layer_residual_tiny_alpha_stable():
    # layers get steep but the grouped evaluation must not overflow
    assert residual_check_boundary_layer(1e-7, 50) <= 1e-8


def test_boundary_layer_control_is_negative_laplacian():
    h = 1e-5
    for alpha in (1e-2, 1e-4):
        sol = ExactSolution("boundary_layer", alpha=alpha)
        x = np.linspace(0.05, 0.95, 9)
        upp = (sol.state(x + h) - 2 * sol.state(x) + sol.state(x - h)) / h**2
        # central-difference noise floor is ~1e-16 / h^2 = 1e-6
        assert np.abs(sol.control(x) + upp).max() <= 1e-5


def test_boundary_layer_fourth_derivative_vs_stencil():
    # independent check of the complex-arithmetic differentiation inside the
    # residual: 5-point fourth-difference of the state
    alpha = 1e-2
    sol = ExactSolution("boundary_layer", alpha=alpha)
    h = 1e-2
    x = np.linspace(0.2, 0.8, 7)
    u4 = (sol.state(x - 2 * h) - 4 * sol.state(x - h) + 6 * sol.state(x)
          - 4 * sol.state(x + h) + sol.state(x + 2 * h)) / h**4
    resid = alpha * u4 + sol.state(x) - 1.0
    assert np.abs(resid).max() <= 1e-3  # O(h^2) truncation of the stencil


@pytest.mark.parametrize("alpha", [1.0, 1e-2, 1e-4])
def test_boundary_layer_control_norm_against_quadrature(alpha):
    # independent high-order quadrature of ||f*||_{L2(0,1)}
    sol = ExactSolution("boundary_layer", alpha=alpha)
    val = mpmath.quad(lambda t: float(sol.control(np.array([float(t)]))[0]) ** 2,
                      [0, 0.5, 1])
    norm = float(mpmath.sqrt(val))
    x = np.linspace(0, 1, 20001)
    trapz = np.sqrt(np.trapezoid(sol.control(x) ** 2, x))
    assert norm == pytest.approx(trapz, rel=1e-6)


def test_boundary_layer_norms_match_plotted_constants_up_to_sqrt2():
    # the published error plots normalise by control-norm constants that sit
    # exactly sqrt(2) above ||f*||_{L2(0,1)} for every alpha; the common
    # ratio pins our closed form to the same solution family
    plotted = {1.0: 0.127789462408935, 1e-2: 6.38409025200079, 1e-4: 26.3652888824987,
               1e-6: 149.534879351525, 1e-8: 840.896415253715}
    x = np.linspace(0, 1, 40001)
    for alpha, ref in plotted.items():
        sol = ExactSolution("boundary_layer", alpha=alpha)
        norm = np.sqrt(np.trapezoid(sol.control(x) ** 2, x))
        assert ref / norm == pytest.approx(np.sqrt(2.0), rel=1e-4)


def test_exact_solution_validation():
    with pytest.raises(ValueError):
        ExactSolution("boundary_layer")
    with pytest.raises(ValueError):
        ExactSolution("ac_sine")
    with pytest.raises(ValueError):
        ExactSolution("cubic1d")


def _residual_on_grid(tag, n):
    # central-difference Laplacian of u* on the row's grid, interior points only
    row = EXPERIMENTS[tag]
    alpha, epsilon = 1e-2, 0.5
    g = build_grid(Domain(row.dim), n)
    sol = ExactSolution(tag, alpha=alpha, epsilon=epsilon)
    u = sol.state(g.points).reshape((n,) * row.dim)
    f = sol.control(g.points).reshape((n,) * row.dim)
    h = 1.0 / (n - 1)
    inner = (slice(1, -1),) * row.dim
    lap = np.zeros_like(u[inner])
    for axis in range(row.dim):
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(0, -2), slice(2, None)
        lap += (u[tuple(lo)] - 2 * u[inner] + u[tuple(hi)]) / h**2
    problem = ProblemSpec(tag, alpha, epsilon)
    return np.abs(residual_values(problem, u[inner], f[inner], lap)).max()


@pytest.mark.parametrize("tag", [tag for tag, row in EXPERIMENTS.items() if row.exact])
def test_closed_form_residual_is_second_order_under_its_rows_kind(tag):
    # a closed form paired with the wrong constraint kind or dimension
    # leaves an O(1) residual instead
    coarse, fine = _residual_on_grid(tag, 41), _residual_on_grid(tag, 81)
    assert coarse / fine == pytest.approx(4.0, rel=0.05)
