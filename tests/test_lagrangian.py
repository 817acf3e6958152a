from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from deepuzawa.config import ExperimentConfig, target_on_grid
from deepuzawa.geometry import Domain, build_grid
from deepuzawa.lagrangian import (ProblemSpec, cost_values, loss_parts, multiplier_update,
                                  pointwise_gradients, residual_values, target_values)
from deepuzawa.network import JetBatch
from reference_checks import sampled_problem

LINE = build_grid(Domain.unit_interval(), 41)

BOTH_KINDS = pytest.mark.parametrize("prob", [
    sampled_problem("sine1d", 1e-2, LINE),
    sampled_problem("ac_sine", 1e-2, LINE, epsilon=0.7),
], ids=["poisson", "allen_cahn"])


def exact_sine_jets(cset):
    x = cset.points[:, 0]
    u = np.sin(np.pi * x)
    return JetBatch(u=u, f=np.pi**2 * u, lap_u=-np.pi**2 * u)


def test_poisson_residual_exact_solution():
    prob = sampled_problem("sine1d", 1e-2, LINE)
    assert residual_values(prob, u=1.0, f=np.pi**2, lap_u=-np.pi**2) == 0.0


def test_poisson_residual_simple():
    prob = sampled_problem("sine1d", 1e-2, LINE)
    assert residual_values(prob, 0.0, 2.0, 0.0) == 2.0


def test_allen_cahn_residual_at_half():
    # at x = 1/2 the exact pair has u = 1, lap u = -pi^2, f = pi^2 and the
    # cubic term vanishes, so the residual is zero
    prob = sampled_problem("ac_sine", 1e-2, LINE, epsilon=1.0)
    k = residual_values(prob, u=1.0, f=np.pi**2, lap_u=-np.pi**2)
    assert k == pytest.approx(0.0, abs=1e-15)


def test_allen_cahn_residual_matches_exact_control_everywhere():
    eps = 0.7
    prob = sampled_problem("ac_sine", 1e-2, LINE, epsilon=eps)
    x = np.linspace(0.05, 0.95, 19)
    u = np.sin(np.pi * x)
    lap = -np.pi**2 * u
    f = u * (np.pi**2 - np.cos(np.pi * x) ** 2 / eps**2)
    assert np.abs(residual_values(prob, u, f, lap)).max() <= 1e-13


def test_allen_cahn_reduces_to_poisson_for_large_eps():
    # |K_ac + (lap u + f)| <= eps^-2 |u (1 - u^2)|
    rng = np.random.default_rng(0)
    u, f, lap = rng.normal(size=(3, 40))
    for eps in (10.0, 100.0):
        prob = sampled_problem("ac_sine", 1.0, LINE, epsilon=eps)
        gap = residual_values(prob, u, f, lap) + (lap + f)
        assert np.all(np.abs(gap) <= np.abs(u * (1 - u * u)) / eps**2 + 1e-15)


def test_cost_density_examples():
    prob = sampled_problem("boundary_layer", 4.0, LINE)
    assert cost_values(prob, 0.7, 0.0, 0.0, 0.7) == 0.0
    assert cost_values(prob, 0.7, 1.0, 1.0, 0.7) == pytest.approx(2.0)


def test_cost_density_exact_sine_midpoint():
    alpha = 1e-4
    prob = sampled_problem("sine1d", alpha, LINE)
    # exact pair at x = 0.5 with matching target value: misfit vanishes and
    # the two (alpha/4) pi^4 terms remain
    cost = cost_values(prob, 1.0, np.pi**2, -np.pi**2, 1.0)
    assert cost == pytest.approx((alpha / 2) * np.pi**4, rel=1e-14)
    assert cost == pytest.approx(4.8705e-3, rel=1e-4)


@BOTH_KINDS
def test_discrete_lagrangian_zero_multiplier_is_cost_quadrature(prob):
    g = build_grid(Domain.unit_interval(), 41)
    jets = exact_sine_jets(g)
    z0 = np.zeros(g.n_interior)
    target = target_values(prob)
    cost_q = float(np.dot(g.weights, cost_values(prob, jets.u, jets.f, jets.lap_u, target)))
    assert loss_parts(prob, jets, z0)["total"] == pytest.approx(cost_q, rel=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@BOTH_KINDS
def test_pointwise_gradients_loss_is_loss_parts_total(prob, beta):
    g = build_grid(Domain.unit_interval(), 41)
    rng = np.random.default_rng(3)
    u, f, lap = rng.normal(size=(3, g.n_points))
    jets = JetBatch(u=u, f=f, lap_u=lap)
    z = rng.normal(size=g.n_interior)
    prob = replace(prob, beta=beta)
    loss = pointwise_gradients(prob, jets, z)[0]
    assert loss == loss_parts(prob, jets, z)["total"]


def test_discrete_lagrangian_invariant_for_residual_free_fields():
    g = build_grid(Domain.unit_interval(), 41)
    prob = sampled_problem("sine1d", 1e-2, g)
    jets = exact_sine_jets(g)  # residual is exactly zero everywhere
    base = loss_parts(prob, jets, np.zeros(g.n_interior))["total"]
    rng = np.random.default_rng(8)
    for beta in (0.0, 3.0):
        z = rng.normal(size=g.n_interior)
        total = loss_parts(replace(prob, beta=beta), jets, z)["total"]
        assert total == pytest.approx(base, rel=1e-13)


def test_loss_parts_alpha_scaling():
    g = build_grid(Domain.unit_interval(), 31)
    jets = exact_sine_jets(g)
    z = np.zeros(g.n_interior)
    parts1 = loss_parts(sampled_problem("boundary_layer", 1e-2, g),
                        jets, z)
    parts2 = loss_parts(sampled_problem("boundary_layer", 2e-2, g),
                        jets, z)
    assert parts2["control_norm_term"] == pytest.approx(2 * parts1["control_norm_term"], rel=1e-14)
    assert parts2["regulariser_term"] == pytest.approx(2 * parts1["regulariser_term"], rel=1e-14)
    assert parts2["misfit"] == parts1["misfit"]


def test_step_target_values():
    g = build_grid(Domain.unit_interval(), 10)  # x = 0, 1/9, ..., 1 avoids the jumps
    d = target_on_grid(ExperimentConfig("ac_step", alpha=1e-4, epsilon=0.1), g)
    x = g.points[:, 0]
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(d[(x > 0) & (x < 1 / 3)] == -1.0)
    assert np.all(d[(x > 1 / 3) & (x < 2 / 3)] == 1.0)
    assert np.all(d[(x > 2 / 3) & (x < 1)] == -1.0)


def test_step_target_zero_at_jump_nodes():
    g = build_grid(Domain.unit_interval(), 4)  # nodes 0, 1/3, 2/3, 1
    d = target_on_grid(ExperimentConfig("ac_step", alpha=1e-4, epsilon=0.1), g)
    assert np.array_equal(d, np.zeros(4))


def test_ac_sine_target_reduces_to_linear_for_large_eps():
    g = build_grid(Domain.unit_interval(), 21)
    d = target_on_grid(ExperimentConfig("ac_sine", alpha=1e-4, epsilon=1e8), g)
    expected = (1 + 1e-4 * np.pi**4) * np.sin(np.pi * g.points[:, 0])
    assert np.allclose(d, expected, rtol=1e-10, atol=1e-12)


def test_ac_sine_target_stationarity():
    # D was derived by eliminating multiplier and control from stationarity:
    # D = u* + alpha (-lap f* - eps^-2 (1 - 3 u*^2) f*); check the Laplacian
    # of f* inside it against central differences
    eps, alpha = 0.6, 1e-3
    g = build_grid(Domain.unit_interval(), 41)
    x = g.points[:, 0]
    d = target_on_grid(ExperimentConfig("ac_sine", alpha=alpha, epsilon=eps), g)

    def f_star(t):
        return np.sin(np.pi * t) * (np.pi**2 - np.cos(np.pi * t) ** 2 / eps**2)

    h = 1e-5
    lap_f = (f_star(x + h) - 2 * f_star(x) + f_star(x - h)) / h**2
    u = np.sin(np.pi * x)
    expected = u + alpha * (-lap_f - (1 - 3 * u**2) * f_star(x) / eps**2)
    assert np.allclose(d, expected, rtol=1e-5, atol=1e-7)


def test_sampled_target_shape_check():
    g = build_grid(Domain.unit_square(), 4)
    with pytest.raises(ValueError, match=r"sampled target has \(10,\) values for 16 points"):
        ProblemSpec("ac_image", 1.0, epsilon=1.0, grid=g, samples=np.zeros(10))


def test_jets_of_another_set_are_refused():
    g = build_grid(Domain.unit_interval(), 10)
    jets = exact_sine_jets(build_grid(Domain.unit_interval(), 9))
    with pytest.raises(ValueError, match=r"jets cover \(9,\) points, set has 10"):
        loss_parts(sampled_problem("sine1d", 1e-2, g), jets, np.zeros(g.n_interior))


def test_multiplier_update_examples():
    z = np.zeros(3)
    out = multiplier_update(z, np.full(3, 2.0), 0.25)
    assert np.array_equal(out, np.full(3, 0.5))
    same = multiplier_update(z, np.zeros(3), 0.25)
    assert np.array_equal(same, z)
    with pytest.raises(ValueError, match=r"residuals shape \(4,\) != multiplier shape \(3,\)"):
        multiplier_update(z, np.zeros(4), 0.25)


def test_multiplier_update_additive():
    rng = np.random.default_rng(1)
    z = rng.normal(size=8)
    k1, k2 = rng.normal(size=(2, 8))
    two_steps = multiplier_update(multiplier_update(z, k1, 0.1), k2, 0.1)
    one_step = multiplier_update(z, k1 + k2, 0.1)
    assert np.allclose(two_steps, one_step, atol=1e-15)


def test_problem_spec_validation():
    # no config has these problems, so their samples are given: only the spec's checks act
    line, some = build_grid(Domain.unit_interval(), 5), np.zeros(5)
    with pytest.raises(ValueError):
        ProblemSpec("sine1d", -1.0, grid=line, samples=some)
    with pytest.raises(ValueError):
        ProblemSpec("ac_sine", 1.0, grid=line, samples=some)  # missing epsilon
    with pytest.raises(ValueError):
        ProblemSpec("heat", 1.0, grid=line, samples=some)
    for tag, epsilon in (("ac_image", 1.0), ("sine1d", None)):  # missing samples, any tag
        with pytest.raises(TypeError, match="samples"):
            ProblemSpec(tag, 1.0, epsilon)
    with pytest.raises(ValueError):
        ProblemSpec("ac_image", 1.0, epsilon=1.0, grid=build_grid(Domain.unit_square(), 3),
                    samples=np.r_[0.0, np.nan, np.zeros(7)])
    # a formula tag takes its target sampled on the grid, and the loss reads those samples
    g = build_grid(Domain.unit_interval(), 5)
    own = target_on_grid(ExperimentConfig("sine1d", alpha=1.0), g)
    prob = sampled_problem("sine1d", 1.0, g)
    assert target_values(prob) is prob.samples
    assert np.array_equal(prob.samples, own)


@pytest.mark.parametrize("beta", [-1e-3, np.inf, np.nan])
def test_problem_spec_refuses_a_negative_or_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        ProblemSpec("sine1d", 1.0, None, beta, grid=LINE, samples=np.zeros(41))


@pytest.mark.parametrize("name", [f.name for f in fields(ProblemSpec)])
def test_a_built_problem_cannot_be_assigned_to(name):
    # past its checks: beta = -5 would make the loss unbounded below
    prob = sampled_problem("sine1d", 1e-2, LINE)
    with pytest.raises(FrozenInstanceError):
        setattr(prob, name, getattr(prob, name))


def test_a_grid_of_another_dimension_is_refused():
    # 25 samples fit a 5x5 square as well as 25 points of the unit interval
    square = build_grid(Domain.unit_square(), 5)
    samples = target_on_grid(ExperimentConfig("sine1d", alpha=1.0),
                             build_grid(Domain.unit_interval(), 25))
    with pytest.raises(ValueError, match="dimension 1, its grid in dimension 2"):
        ProblemSpec("sine1d", 1.0, grid=square, samples=samples)


def test_replacing_the_grid_checks_the_problem_again():
    prob = sampled_problem("sine1d", 1e-2, LINE)
    with pytest.raises(ValueError, match=r"sampled target has \(41,\) values for 40 points"):
        replace(prob, grid=build_grid(Domain.unit_interval(), 40))
    with pytest.raises(ValueError, match="dimension"):
        replace(prob, grid=build_grid(Domain.unit_square(), 5))


@pytest.mark.parametrize("tag, alpha, epsilon, named", [
    ("sine1d", np.inf, None, "alpha"), ("sine1d", np.nan, None, "alpha"),
    ("ac_sine", np.inf, 1.0, "alpha"), ("ac_sine", 1.0, np.inf, "epsilon"),
    ("ac_sine", 1.0, np.nan, "epsilon"),
])
def test_problem_spec_refuses_a_non_finite_alpha_or_epsilon(tag, alpha, epsilon, named):
    with pytest.raises(ValueError, match=named):
        ProblemSpec(tag, alpha, epsilon, grid=LINE, samples=np.zeros(41))
