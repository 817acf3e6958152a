import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepuzawa.errors import ShapeError
from deepuzawa.geometry import Domain, build_grid
from deepuzawa.lagrangian import (MultiplierField, ProblemSpec, TargetSpec, cost_values,
                                  discrete_lagrangian, loss_parts, multiplier_update,
                                  pointwise_gradients, projected_multiplier_update,
                                  residual_values, target_values, zero_multiplier)
from deepuzawa.network import JetBatch


BOTH_KINDS = pytest.mark.parametrize("prob", [
    ProblemSpec("poisson", 1e-2, TargetSpec("sine1d")),
    ProblemSpec("allen_cahn", 1e-2, TargetSpec("ac_sine"), epsilon=0.7),
], ids=["poisson", "allen_cahn"])


def exact_sine_jets(cset):
    x = cset.points[:, 0]
    u = np.sin(np.pi * x)
    return JetBatch(u=u, f=np.pi**2 * u, grad_u=np.pi * np.cos(np.pi * x)[:, None],
                    lap_u=-np.pi**2 * u)


def test_poisson_residual_exact_solution():
    prob = ProblemSpec("poisson", 1e-2, TargetSpec("sine1d"))
    assert residual_values(prob, u=1.0, f=np.pi**2, lap_u=-np.pi**2) == 0.0


def test_poisson_residual_simple():
    prob = ProblemSpec("poisson", 1e-2, TargetSpec("sine1d"))
    assert residual_values(prob, 0.0, 2.0, 0.0) == 2.0


def test_allen_cahn_residual_at_half():
    # at x = 1/2 the exact pair has u = 1, lap u = -pi^2, f = pi^2 and the
    # cubic term vanishes, so the residual is zero
    prob = ProblemSpec("allen_cahn", 1e-2, TargetSpec("ac_sine"), epsilon=1.0)
    k = residual_values(prob, u=1.0, f=np.pi**2, lap_u=-np.pi**2)
    assert k == pytest.approx(0.0, abs=1e-15)


def test_allen_cahn_residual_matches_exact_control_everywhere():
    eps = 0.7
    prob = ProblemSpec("allen_cahn", 1e-2, TargetSpec("ac_sine"), epsilon=eps)
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
        prob = ProblemSpec("allen_cahn", 1.0, TargetSpec("ac_sine"), epsilon=eps)
        gap = residual_values(prob, u, f, lap) + (lap + f)
        assert np.all(np.abs(gap) <= np.abs(u * (1 - u * u)) / eps**2 + 1e-15)


def test_cost_density_examples():
    prob = ProblemSpec("poisson", 4.0, TargetSpec("constant", constant=0.7))
    assert cost_values(prob, 0.7, 0.0, 0.0, 0.7) == 0.0
    assert cost_values(prob, 0.7, 1.0, 1.0, 0.7) == pytest.approx(2.0)


def test_cost_density_exact_sine_midpoint():
    alpha = 1e-4
    prob = ProblemSpec("poisson", alpha, TargetSpec("sine1d"))
    # exact pair at x = 0.5 with matching target value: misfit vanishes and
    # the two (alpha/4) pi^4 terms remain
    cost = cost_values(prob, 1.0, np.pi**2, -np.pi**2, 1.0)
    assert cost == pytest.approx((alpha / 2) * np.pi**4, rel=1e-14)
    assert cost == pytest.approx(4.8705e-3, rel=1e-4)


@BOTH_KINDS
def test_discrete_lagrangian_zero_multiplier_is_cost_quadrature(prob):
    g = build_grid(Domain.unit_interval(), 41)
    jets = exact_sine_jets(g)
    z0 = zero_multiplier(g)
    target = target_values(prob, g)
    cost_q = float(np.dot(g.weights, cost_values(prob, jets.u, jets.f, jets.lap_u, target)))
    assert discrete_lagrangian(prob, g, jets, z0) == pytest.approx(cost_q, rel=1e-14)


@pytest.mark.parametrize("beta", [0.0, 0.5])
@BOTH_KINDS
def test_pointwise_gradients_loss_is_loss_parts_total(prob, beta):
    g = build_grid(Domain.unit_interval(), 41)
    rng = np.random.default_rng(3)
    u, f, lap = rng.normal(size=(3, g.n_points))
    jets = JetBatch(u=u, f=f, grad_u=np.zeros((g.n_points, 1)), lap_u=lap)
    z = MultiplierField(rng.normal(size=g.n_interior))
    loss = pointwise_gradients(prob, g, jets, z, beta)[0]
    assert loss == loss_parts(prob, g, jets, z, beta)["total"]


def test_discrete_lagrangian_invariant_for_residual_free_fields():
    g = build_grid(Domain.unit_interval(), 41)
    prob = ProblemSpec("poisson", 1e-2, TargetSpec("sine1d"))
    jets = exact_sine_jets(g)  # residual is exactly zero everywhere
    base = discrete_lagrangian(prob, g, jets, zero_multiplier(g))
    rng = np.random.default_rng(8)
    for beta in (0.0, 3.0):
        z = MultiplierField(rng.normal(size=g.n_interior))
        assert discrete_lagrangian(prob, g, jets, z, beta) == pytest.approx(base, rel=1e-13)


def test_loss_parts_alpha_scaling():
    g = build_grid(Domain.unit_interval(), 31)
    jets = exact_sine_jets(g)
    z = zero_multiplier(g)
    parts1 = loss_parts(ProblemSpec("poisson", 1e-2, TargetSpec("constant", constant=0.0)),
                        g, jets, z)
    parts2 = loss_parts(ProblemSpec("poisson", 2e-2, TargetSpec("constant", constant=0.0)),
                        g, jets, z)
    assert parts2["control_norm_term"] == pytest.approx(2 * parts1["control_norm_term"], rel=1e-14)
    assert parts2["regulariser_term"] == pytest.approx(2 * parts1["regulariser_term"], rel=1e-14)
    assert parts2["misfit"] == parts1["misfit"]


def test_step_target_values():
    g = build_grid(Domain.unit_interval(), 10)  # x = 0, 1/9, ..., 1 avoids the jumps
    prob = ProblemSpec("allen_cahn", 1e-4, TargetSpec("step"), epsilon=0.1)
    d = target_values(prob, g)
    x = g.points[:, 0]
    assert d[0] == 0.0 and d[-1] == 0.0
    assert np.all(d[(x > 0) & (x < 1 / 3)] == -1.0)
    assert np.all(d[(x > 1 / 3) & (x < 2 / 3)] == 1.0)
    assert np.all(d[(x > 2 / 3) & (x < 1)] == -1.0)


def test_step_target_zero_at_jump_nodes():
    g = build_grid(Domain.unit_interval(), 4)  # nodes 0, 1/3, 2/3, 1
    prob = ProblemSpec("allen_cahn", 1e-4, TargetSpec("step"), epsilon=0.1)
    d = target_values(prob, g)
    assert np.array_equal(d, np.zeros(4))


def test_ac_sine_target_reduces_to_linear_for_large_eps():
    g = build_grid(Domain.unit_interval(), 21)
    prob = ProblemSpec("allen_cahn", 1e-4, TargetSpec("ac_sine"), epsilon=1e8)
    d = target_values(prob, g)
    expected = (1 + 1e-4 * np.pi**4) * np.sin(np.pi * g.points[:, 0])
    assert np.allclose(d, expected, rtol=1e-10, atol=1e-12)


def test_ac_sine_target_stationarity():
    # D was derived by eliminating multiplier and control from stationarity:
    # D = u* + alpha (-lap f* - eps^-2 (1 - 3 u*^2) f*); check the Laplacian
    # of f* inside it against central differences
    eps, alpha = 0.6, 1e-3
    prob = ProblemSpec("allen_cahn", alpha, TargetSpec("ac_sine"), epsilon=eps)
    g = build_grid(Domain.unit_interval(), 41)
    x = g.points[:, 0]
    d = target_values(prob, g)

    def f_star(t):
        return np.sin(np.pi * t) * (np.pi**2 - np.cos(np.pi * t) ** 2 / eps**2)

    h = 1e-5
    lap_f = (f_star(x + h) - 2 * f_star(x) + f_star(x - h)) / h**2
    u = np.sin(np.pi * x)
    expected = u + alpha * (-lap_f - (1 - 3 * u**2) * f_star(x) / eps**2)
    assert np.allclose(d, expected, rtol=1e-5, atol=1e-7)


def test_sampled_target_shape_check():
    g = build_grid(Domain.unit_interval(), 11)
    prob = ProblemSpec("poisson", 1.0, TargetSpec("sampled", samples=np.zeros(10)))
    with pytest.raises(ShapeError):
        target_values(prob, g)


def test_multiplier_update_examples():
    z = MultiplierField(np.zeros(3))
    out = multiplier_update(z, np.full(3, 2.0), 0.25)
    assert np.array_equal(out.values, np.full(3, 0.5))
    same = multiplier_update(z, np.zeros(3), 0.25)
    assert np.array_equal(same.values, z.values)


def test_multiplier_update_additive():
    rng = np.random.default_rng(1)
    z = MultiplierField(rng.normal(size=8))
    k1, k2 = rng.normal(size=(2, 8))
    two_steps = multiplier_update(multiplier_update(z, k1, 0.1), k2, 0.1)
    one_step = multiplier_update(z, k1 + k2, 0.1)
    assert np.allclose(two_steps.values, one_step.values, atol=1e-15)


def test_projected_update_clamps():
    z = MultiplierField(np.full(4, 0.1))
    out = projected_multiplier_update(z, np.full(4, -0.5), 1.0)
    assert np.array_equal(out.values, np.zeros(4))


def test_projected_update_matches_plain_when_nonnegative():
    rng = np.random.default_rng(2)
    z = MultiplierField(np.abs(rng.normal(size=6)))
    k = np.abs(rng.normal(size=6))
    assert np.array_equal(projected_multiplier_update(z, k, 0.5).values,
                          multiplier_update(z, k, 0.5).values)


def test_projected_update_rejects_negative_input():
    z = MultiplierField(np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        projected_multiplier_update(z, np.zeros(2), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_projection_idempotent_and_nonnegative(seed):
    rng = np.random.default_rng(seed)
    z = MultiplierField(np.maximum(rng.normal(size=12), 0.0))
    k = rng.normal(size=12) * 10 ** rng.uniform(-3, 3)
    once = projected_multiplier_update(z, k, 0.7)
    assert np.all(once.values >= 0.0)
    twice = projected_multiplier_update(once, np.zeros(12), 0.7)
    assert np.array_equal(once.values, twice.values)


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec("poisson", -1.0, TargetSpec("sine1d"))
    with pytest.raises(ValueError):
        ProblemSpec("allen_cahn", 1.0, TargetSpec("ac_sine"))  # missing epsilon
    with pytest.raises(ValueError):
        ProblemSpec("heat", 1.0, TargetSpec("sine1d"))
