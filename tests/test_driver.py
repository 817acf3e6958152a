import os

import numpy as np
import pytest

from deepuzawa import driver
from deepuzawa.closed_forms import ExactSolution
from deepuzawa.config import ExperimentConfig
from deepuzawa.driver import problem_for, rho_alpha_sweep, run_deep_uzawa
from deepuzawa.errors import ConfigError
from deepuzawa.geometry import Domain, build_grid, cutoff_jet, l2_norm
from deepuzawa.lagrangian import residual_values, target_values
from deepuzawa.network import NetworkSpec, batch_jets, evaluate, init_network

TINY_NET = NetworkSpec(1, (8, 8), seed=0)


def tiny_config(**kw):
    defaults = dict(tag="sine1d", alpha=1e-2, n_uzawa=3, n_sgd=2, n_points=21,
                    hidden_width=8, hidden_depth=2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture
def frozen_network(monkeypatch):
    # every Adam step returns the parameters it was given
    monkeypatch.setattr(driver, "adam_step", lambda state, flat, grad: (state, flat))


def test_zero_learning_rate_updates_multiplier_only(frozen_network):
    cfg = tiny_config(n_uzawa=1, n_sgd=1)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    assert np.array_equal(rec.params.flat, params0.flat)
    # z was updated exactly once by rho * K of the initial network
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cutoff_jet(cset.domain, cset.points))
    mask = cset.interior_mask
    k = residual_values(problem_for(cfg)[0], jets.u[mask], jets.f[mask], jets.lap_u[mask])
    assert np.allclose(rec.z, cfg.resolved_rho * k, rtol=1e-14)


def test_multiplier_updated_once_per_outer_step_only(frozen_network):
    # with a frozen network the residual is constant, so after N_Uz updates
    # z = N_Uz * rho * K0; any multiplier movement inside the inner loop
    # would break this
    n_uz = 4
    cfg = tiny_config(n_uzawa=n_uz, n_sgd=3)
    rec = run_deep_uzawa(cfg)
    one = run_deep_uzawa(tiny_config(n_uzawa=1, n_sgd=1))
    assert np.allclose(rec.z, n_uz * one.z, rtol=1e-12)
    assert rec.n_updates == n_uz
    assert rec.z.shape == (rec.cset.n_interior,)


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
    # a zero network's recorded errors are the closed form's own norms
    cset = build_grid(Domain.unit_interval(), 201)
    params = init_network(TINY_NET)
    flat = params.flat.copy()
    flat[-18:] = 0.0  # zero the output layer: u = f = 0
    u, f = evaluate(params.with_flat(flat), cset.points, cutoff_jet(cset.domain, cset.points).b)
    ex = ExactSolution("sine1d")
    se, ce = l2_norm(cset, u - ex.state(cset.points)), l2_norm(cset, f - ex.control(cset.points))
    assert se == pytest.approx(np.sqrt(0.5), abs=1e-3)
    assert ce == pytest.approx(np.pi**2 * np.sqrt(0.5), abs=1e-3)
    assert se >= 0 and ce >= 0


def test_record_errors_matches_manual_norms():
    rec = run_deep_uzawa(tiny_config(n_uzawa=2, n_points=31))
    cset = rec.cset
    jets = batch_jets(rec.params, cset.points, cutoff_jet(cset.domain, cset.points))
    assert rec.state_errors[-1] == l2_norm(cset, jets.u - rec.exact.state(cset.points))
    assert rec.control_errors[-1] == l2_norm(cset, jets.f - rec.exact.control(cset.points))


def test_exact_solution_resolution():
    # the closed form is looked up by the tag alone
    for tag, alpha, epsilon in [("sine1d", 0.5, None), ("sine2d", 0.5, None),
                                ("boundary_layer", 0.5, None), ("ac_sine", 1.0, 0.3)]:
        rec = run_deep_uzawa(tiny_config(tag=tag, alpha=alpha, epsilon=epsilon, n_uzawa=1,
                                         n_sgd=1, n_points=5))
        assert rec.exact == ExactSolution(tag, alpha=alpha, epsilon=epsilon)
        assert rec.state_errors.shape == (1,)
    rec = run_deep_uzawa(tiny_config(tag="ac_step", epsilon=0.3, n_uzawa=1, n_sgd=1,
                                     n_points=5))
    assert rec.exact is None and rec.state_errors is None


def test_problem_for_maps_tag_to_problem_and_domain():
    problem, domain = problem_for(tiny_config(tag="boundary_layer", alpha=0.5))
    assert (problem.tag, problem.kind, problem.alpha) == ("boundary_layer", "poisson", 0.5)
    assert np.array_equal(target_values(problem, build_grid(domain, 5)), np.ones(5))
    assert domain == Domain.unit_interval()
    problem, domain = problem_for(tiny_config(tag="ac_step", epsilon=0.3))
    assert (problem.tag, problem.kind, problem.epsilon) == ("ac_step", "allen_cahn", 0.3)
    assert problem_for(tiny_config(tag="sine2d"))[1] == Domain.unit_square()
    with pytest.raises(ConfigError, match="belongs to the oracle subcommand"):
        problem_for(tiny_config(tag="fd_oracle"))


def test_config_built_in_code_is_checked_for_rho_with_beta():
    # beta is the augmented variant's multiplier step, so a rho beside it
    # would go unused
    with pytest.raises(ConfigError, match="rho steps the plain variant") as exc:
        tiny_config(rho=1e-2, beta=1e-2)
    assert exc.value.key == "rho"
    rec = run_deep_uzawa(tiny_config(beta=1e-2, n_uzawa=1, n_sgd=1))
    assert rec.n_updates == 1


@pytest.mark.parametrize("eps, message", [(1e-200, "1/epsilon"), (1e200, "1/epsilon"),
                                           (-1.0, "positive"), (None, "requires epsilon")])
def test_config_built_in_code_is_checked_for_epsilon(eps, message):
    # the parser's epsilon checks, on a config that never went through it
    with pytest.raises(ConfigError, match=message) as exc:
        ExperimentConfig("ac_sine", epsilon=eps, n_uzawa=1, n_sgd=1, n_points=11,
                         hidden_width=4, hidden_depth=1)
    assert exc.value.key == "epsilon"


def test_step_target_run_has_no_error_history():
    cfg = tiny_config(tag="ac_step", epsilon=0.5, n_uzawa=2, n_sgd=2, n_points=31)
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
        assert rec.config.alpha == a
        assert rec.config.resolved_rho == pytest.approx(a / 4)
        assert rec.config.output_dir == os.path.join(cfg.output_dir, f"alpha_{a:g}")
    with pytest.raises(ValueError):
        rho_alpha_sweep(cfg, [])
    for bad in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            rho_alpha_sweep(cfg, [1.0, bad])


@pytest.mark.parametrize("alpha, lr", [
    pytest.param(1e-2, 1e300, id="forward_overflow"),
    pytest.param(1.0, 1e308, id="adam_overflow"),
])
def test_divergence_recorded_not_raised(alpha, lr):
    cfg = tiny_config(alpha=alpha, n_uzawa=6, n_sgd=8, learning_rate=lr)
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


def test_multiplier_drift_bounded_by_rho_times_residual(frozen_network):
    cfg = tiny_config(n_uzawa=1, n_sgd=1)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cutoff_jet(cset.domain, cset.points))
    mask = cset.interior_mask
    k = residual_values(problem_for(cfg)[0], jets.u[mask], jets.f[mask], jets.lap_u[mask])
    assert np.abs(rec.z).max() <= cfg.resolved_rho * np.abs(k).max() * (1 + 1e-12)
