import numpy as np
import pytest

from deepuzawa.closed_forms import ExactSolution
from deepuzawa.driver import (UzawaConfig, exact_solution_for, record_errors,
                              rho_alpha_sweep, run_deep_uzawa)
from deepuzawa.geometry import Domain, build_grid, cutoff_jet
from deepuzawa.lagrangian import ProblemSpec, TargetSpec, residual_values
from deepuzawa.network import NetworkSpec, batch_jets, init_network

TINY_NET = NetworkSpec(1, (8, 8), seed=0)


def sine_problem(alpha=1e-2):
    return ProblemSpec("poisson", alpha, TargetSpec("sine1d"))


def tiny_config(**kw):
    defaults = dict(problem=sine_problem(), network=TINY_NET, n_uzawa=3, n_sgd=2,
                    n_points=21)
    defaults.update(kw)
    return UzawaConfig(**defaults)


def test_nsgd_zero_disallowed():
    with pytest.raises(ValueError):
        tiny_config(n_sgd=0)
    with pytest.raises(ValueError):
        tiny_config(n_uzawa=0)


def test_zero_learning_rate_updates_multiplier_only():
    cfg = tiny_config(n_uzawa=1, n_sgd=1, learning_rate=0.0)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    assert np.array_equal(rec.params.flat, params0.flat)
    # z was updated exactly once by rho * K of the initial network
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cutoff_jet(cset.domain, cset.points))
    mask = cset.interior_mask
    k = residual_values(cfg.problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
    assert np.allclose(rec.z.values, cfg.resolved_rho * k, rtol=1e-14)


def test_multiplier_updated_once_per_outer_step_only():
    # with a frozen network the residual is constant, so after N_Uz updates
    # z = N_Uz * rho * K0; any multiplier movement inside the inner loop
    # would break this
    n_uz = 4
    cfg = tiny_config(n_uzawa=n_uz, n_sgd=3, learning_rate=0.0)
    rec = run_deep_uzawa(cfg)
    one = run_deep_uzawa(tiny_config(n_uzawa=1, n_sgd=1, learning_rate=0.0))
    assert np.allclose(rec.z.values, n_uz * one.z.values, rtol=1e-12)
    assert rec.n_updates == n_uz
    assert rec.z.values.shape == (rec.cset.n_interior,)


def test_run_is_deterministic():
    cfg = tiny_config(n_uzawa=2, n_sgd=3)
    a = run_deep_uzawa(cfg)
    b = run_deep_uzawa(cfg)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert np.array_equal(a.state_errors, b.state_errors)
    assert np.array_equal(a.loss_history, b.loss_history)


def test_history_lengths_and_finiteness():
    cfg = tiny_config(n_uzawa=5, n_sgd=2)
    rec = run_deep_uzawa(cfg)
    assert rec.n_updates == 5
    assert rec.state_errors.shape == (5,)
    assert rec.control_errors.shape == (5,)
    assert rec.loss_history.shape == (5, 4)
    assert np.all(np.isfinite(rec.loss_history))
    assert rec.wall_times.shape == (5,)
    assert rec.diverged_at is None


def test_state_boundary_values_exactly_zero():
    cfg = tiny_config(n_uzawa=2, n_sgd=4)
    rec = run_deep_uzawa(cfg)
    assert rec.u[0] == 0.0 and rec.u[-1] == 0.0


def test_record_errors_zero_network_against_sine():
    cset = build_grid(Domain.unit_interval(), 201)
    params = init_network(TINY_NET)
    flat = params.flat.copy()
    flat[-18:] = 0.0  # zero the output layer: u = f = 0
    params = params.with_flat(flat)
    se, ce = record_errors(params, cset, ExactSolution("sine1d"))
    assert se == pytest.approx(np.sqrt(0.5), abs=1e-3)
    assert ce == pytest.approx(np.pi**2 * np.sqrt(0.5), abs=1e-3)
    assert se >= 0 and ce >= 0


def test_record_errors_matches_manual_norms():
    from deepuzawa.geometry import l2_norm
    from deepuzawa.network import evaluate

    cset = build_grid(Domain.unit_interval(), 31)
    ex = ExactSolution("sine1d")
    params = init_network(TINY_NET)
    se, ce = record_errors(params, cset, ex)
    cut = cutoff_jet(cset.domain, cset.points)
    u, f = evaluate(params, cset.points, cut.b)
    assert se == l2_norm(cset, u - ex.state(cset.points))
    assert ce == l2_norm(cset, f - ex.control(cset.points))


def test_exact_solution_resolution():
    assert exact_solution_for(sine_problem()).kind == "sine1d"
    assert exact_solution_for(ProblemSpec("poisson", 1.0, TargetSpec("sine2d"))).kind == "sine2d"
    bl = exact_solution_for(ProblemSpec("poisson", 0.5, TargetSpec("constant", constant=1.0)))
    assert bl.kind == "boundary_layer" and bl.alpha == 0.5
    ac = exact_solution_for(ProblemSpec("allen_cahn", 1.0, TargetSpec("ac_sine"), epsilon=0.3))
    assert ac.kind == "ac_sine" and ac.epsilon == 0.3
    assert exact_solution_for(ProblemSpec("allen_cahn", 1.0, TargetSpec("step"),
                                          epsilon=0.3)) is None


def test_step_target_run_has_no_error_history():
    prob = ProblemSpec("allen_cahn", 1e-2, TargetSpec("step"), epsilon=0.5)
    cfg = UzawaConfig(prob, TINY_NET, n_uzawa=2, n_sgd=2, n_points=31)
    rec = run_deep_uzawa(cfg)
    assert rec.state_errors is None
    assert rec.exact is None
    assert rec.loss_history.shape == (2, 4)
    assert np.all(np.isfinite(rec.u)) and np.all(np.isfinite(rec.f))


def test_alpha_sweep_bookkeeping():
    cfg = tiny_config(n_uzawa=10, n_sgd=1)
    records = rho_alpha_sweep(cfg, [1.0, 1e-2])
    assert len(records) == 2
    for a, rec in zip((1.0, 1e-2), records):
        assert rec.n_updates == 10
        assert rec.config.problem.alpha == a
        assert rec.config.resolved_rho == pytest.approx(a / 4)
    with pytest.raises(ValueError):
        rho_alpha_sweep(cfg, [])


@pytest.mark.parametrize("alpha, lr", [
    pytest.param(1e-2, 1e300, id="forward_overflow"),
    pytest.param(1.0, 1e308, id="adam_overflow"),
])
def test_divergence_recorded_not_raised(alpha, lr):
    cfg = tiny_config(problem=sine_problem(alpha), n_uzawa=6, n_sgd=8, learning_rate=lr)
    rec = run_deep_uzawa(cfg)
    assert rec.diverged_at is not None
    assert rec.n_updates == rec.diverged_at
    assert rec.n_updates < 6


def test_minibatch_mode_runs_and_is_deterministic():
    cfg = tiny_config(n_uzawa=2, n_sgd=3, batch_size=8, seed=5)
    a = run_deep_uzawa(cfg)
    b = run_deep_uzawa(cfg)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert np.all(np.isfinite(a.loss_history))


def test_multiplier_drift_bounded_by_rho_times_residual():
    cfg = tiny_config(n_uzawa=1, n_sgd=1, learning_rate=0.0)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cutoff_jet(cset.domain, cset.points))
    mask = cset.interior_mask
    k = residual_values(cfg.problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
    assert np.abs(rec.z.values).max() <= cfg.resolved_rho * np.abs(k).max() * (1 + 1e-12)
