import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from deepuzawa import driver, geometry, network
from deepuzawa.cli import sweep_configs
from deepuzawa.closed_forms import EXPERIMENTS, ExactSolution
from deepuzawa.config import LOSS_COLUMNS, ConfigError, ExperimentConfig, read_config
from deepuzawa.driver import problem_for, run_deep_uzawa
from deepuzawa.geometry import Domain, build_grid, l2_norm
from deepuzawa.lagrangian import loss_parts, multiplier_update, residual_values, target_values
from deepuzawa.network import (NetworkSpec, batch_jets, evaluate, init_network,
                               loss_and_gradient)
from deepuzawa.optim import BETA1, BETA2, EPS, AdamState, adam_step

TINY_NET = NetworkSpec(1, (8, 8), seed=0)


def tiny_config(**kw):
    defaults = dict(tag="sine1d", alpha=1e-2, n_uzawa=3, n_sgd=2, n_points=21,
                    hidden_width=8, hidden_depth=2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture
def frozen_network(monkeypatch):
    # every Adam step leaves the parameters as they were
    monkeypatch.setattr(driver, "adam_step", lambda state, flat, grad: state)


def test_zero_learning_rate_updates_multiplier_only(frozen_network):
    cfg = tiny_config(n_uzawa=1, n_sgd=1)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    assert np.array_equal(rec.params.flat, params0.flat)
    # z was updated exactly once by rho * K of the initial network
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cset.cutoff)
    mask = cset.interior_mask
    k = residual_values(problem_for(cfg), jets.u[mask], jets.f[mask], jets.lap_u[mask])
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
    assert rec.diagnostics.shape == (5, 5)
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
    u, f = evaluate(params.with_flat(flat), cset.points, cset.cutoff.b)
    ex = ExactSolution("sine1d")
    se, ce = l2_norm(cset, u - ex.state(cset.points)), l2_norm(cset, f - ex.control(cset.points))
    assert se == pytest.approx(np.sqrt(0.5), abs=1e-3)
    assert ce == pytest.approx(np.pi**2 * np.sqrt(0.5), abs=1e-3)
    assert se >= 0 and ce >= 0


def _final_errors(rec, exact):
    """State and control errors of a run's final network against ``exact``."""
    cset = rec.cset
    jets = batch_jets(rec.params, cset.points, cset.cutoff)
    return (l2_norm(cset, jets.u - exact.state(cset.points)),
            l2_norm(cset, jets.f - exact.control(cset.points)))


def test_record_errors_matches_manual_norms():
    rec = run_deep_uzawa(tiny_config(n_uzawa=2, n_points=31))
    exact = ExactSolution("sine1d", alpha=1e-2)
    assert (rec.state_errors[-1], rec.control_errors[-1]) == _final_errors(rec, exact)


@pytest.mark.parametrize("kw, diverged_at", [
    pytest.param(dict(n_uzawa=3), None, id="normal"),
    # the multiplier overflows the inner loss at update 2: update 1's network is kept
    pytest.param(dict(n_uzawa=6, rho=1e307, seed=6), 2, id="diverged"),
])
def test_final_fields_are_the_ones_the_last_errors_measure(kw, diverged_at):
    # at 201 points and 3x64, evaluate rounds the output layer unlike the jets
    rec = run_deep_uzawa(tiny_config(n_points=201, hidden_width=64, hidden_depth=3, **kw))
    assert rec.diverged_at == diverged_at
    exact, cset = ExactSolution("sine1d", alpha=1e-2), rec.cset
    assert rec.state_errors[-1] == l2_norm(cset, rec.u - exact.state(cset.points))
    assert rec.control_errors[-1] == l2_norm(cset, rec.f - exact.control(cset.points))


def test_exact_solution_resolution():
    # the closed form is looked up by the tag alone, with the run's alpha and epsilon
    for tag, alpha, epsilon in [("sine1d", 0.5, None), ("sine2d", 0.5, None),
                                ("boundary_layer", 0.5, None), ("ac_sine", 1.0, 0.3)]:
        rec = run_deep_uzawa(tiny_config(tag=tag, alpha=alpha, epsilon=epsilon, n_uzawa=1,
                                         n_sgd=1, n_points=5))
        exact = ExactSolution(tag, alpha=alpha, epsilon=epsilon)
        assert rec.state_errors.shape == (1,)
        assert (rec.state_errors[0], rec.control_errors[0]) == _final_errors(rec, exact)
    rec = run_deep_uzawa(tiny_config(tag="ac_step", epsilon=0.3, n_uzawa=1, n_sgd=1,
                                     n_points=5))
    assert rec.state_errors is None and rec.control_errors is None


def test_problem_for_maps_tag_to_problem_and_domain():
    problem = problem_for(tiny_config(tag="boundary_layer", alpha=0.5, n_points=5))
    cset = problem.grid
    assert (problem.tag, problem.kind, problem.alpha) == ("boundary_layer", "poisson", 0.5)
    assert np.array_equal(target_values(problem), np.ones(5))
    assert cset.domain == Domain.unit_interval()
    assert np.array_equal(cset.points, build_grid(Domain.unit_interval(), 5).points)
    problem = problem_for(tiny_config(tag="ac_step", epsilon=0.3))
    assert (problem.tag, problem.kind, problem.epsilon) == ("ac_step", "allen_cahn", 0.3)
    assert problem_for(tiny_config(tag="sine2d")).grid.domain == Domain.unit_square()


@pytest.mark.parametrize("name, beta", [("sine1d_augmented", 1e-4), ("sine1d", 0.0)])
def test_problem_for_carries_the_configs_beta(name, beta):
    # the loss reads the augmented penalty weight from the problem, 0 when unset
    cfg, _ = read_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")
    assert problem_for(cfg).beta == beta


def test_run_computes_the_cutoff_and_the_target_once(monkeypatch):
    # the grid keeps its cutoff and the problem its target: no step recomputes them
    calls = {"cutoff": 0, "target": 0}
    cutoff_jet, row = geometry.cutoff_jet, EXPERIMENTS["sine1d"]

    def counting_cutoff(*args):
        calls["cutoff"] += 1
        return cutoff_jet(*args)

    def counting_target(*args):
        calls["target"] += 1
        return row.target(*args)

    monkeypatch.setattr(geometry, "cutoff_jet", counting_cutoff)
    monkeypatch.setitem(EXPERIMENTS, "sine1d", replace(row, target=counting_target))
    rec = run_deep_uzawa(tiny_config(n_uzawa=3, n_sgd=2))
    assert rec.n_updates == 3
    assert calls == {"cutoff": 1, "target": 1}


def test_run_builds_its_network_once_and_steps_it_in_place(monkeypatch):
    # one NetworkParameters, whose layer views see every step, and one pair of moments
    calls = {"network": 0}
    built = network.NetworkParameters.__init__
    seen = []

    def counting_init(self, *args):
        calls["network"] += 1
        built(self, *args)

    def recording_step(state, flat, grad):
        seen.append((state, state.m, state.v, flat))
        adam_step(state, flat, grad)

    monkeypatch.setattr(network.NetworkParameters, "__init__", counting_init)
    monkeypatch.setattr(driver, "adam_step", recording_step)
    rec = run_deep_uzawa(tiny_config(n_uzawa=3, n_sgd=2))
    assert rec.n_updates == 3 and len(seen) == 6
    assert calls == {"network": 1}
    state, m, v, _ = seen[0]
    assert all(s[0] is state and s[1] is m and s[2] is v and s[3] is rec.params.flat
               for s in seen)
    assert state.t == 6


def _functional_adam(state, params, grad):
    """Adam as a function returning new arrays: the reference the in-place step matches."""
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    return replace(state, m=m, v=v, t=t), params - state.lr * m_hat / (np.sqrt(v_hat) + EPS)


def _reference_run(cfg):
    """run_deep_uzawa's loop without divergence checks, with functional Adam
    and a new NetworkParameters per step: histories, z and the parameters."""
    problem = problem_for(cfg)
    cset = problem.grid
    params = init_network(NetworkSpec(1, (cfg.hidden_width,) * cfg.hidden_depth,
                                      seed=cfg.seed))
    adam = AdamState.fresh(params.flat.size, lr=cfg.learning_rate)
    step = cfg.resolved_rho if cfg.beta is None else cfg.beta
    z = np.zeros(cset.n_interior)
    mask, w = cset.interior_mask, cset.weights[cset.interior_mask]
    exact = ExactSolution(cfg.tag, alpha=cfg.alpha)
    rows = []
    for _ in range(cfg.n_uzawa):
        for _ in range(cfg.n_sgd):
            _, grad = loss_and_gradient(params, problem, z)
            adam, flat = _functional_adam(adam, params.flat, grad)
            params = params.with_flat(flat)
        jets = batch_jets(params, cset.points, cset.cutoff)
        parts = loss_parts(problem, jets, z)
        residual = residual_values(problem, jets.u[mask], jets.f[mask], jets.lap_u[mask])
        z = multiplier_update(z, residual, step)
        rows.append([np.sqrt(np.dot(w, residual * residual)), np.sqrt(np.dot(w, z * z)),
                     np.linalg.norm(grad), parts["total"], *(parts[c] for c in LOSS_COLUMNS),
                     l2_norm(cset, jets.u - exact.state(cset.points)),
                     l2_norm(cset, jets.f - exact.control(cset.points))])
    return np.array(rows), z, params.flat


@pytest.mark.parametrize("beta", [None, 0.5])
def test_in_place_run_is_bitwise_the_functional_loop(beta):
    cfg = tiny_config(hidden_width=4, hidden_depth=3, n_uzawa=4, n_sgd=5, beta=beta)
    rec = run_deep_uzawa(cfg)
    history, z, flat = _reference_run(cfg)
    assert rec.diverged_at is None
    assert np.array_equal(rec.diagnostics[:, 1:], history[:, :4])
    assert np.array_equal(rec.loss_history, history[:, 4:8])
    assert np.array_equal(rec.state_errors, history[:, 8])
    assert np.array_equal(rec.control_errors, history[:, 9])
    assert np.array_equal(rec.z, z)
    assert np.array_equal(rec.params.flat, flat)


def test_ac_image_run_builds_its_grid_once(tmp_path, monkeypatch):
    # the image is sampled on the grid the run trains on
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 64, 128, 192, 255, 32]))
    calls = []
    monkeypatch.setattr(driver, "build_grid", lambda *a: calls.append(a) or build_grid(*a))
    rec = run_deep_uzawa(tiny_config(tag="ac_image", epsilon=0.5, image=str(path),
                                     n_uzawa=1, n_sgd=1, n_points=5))
    assert calls == [(Domain.unit_square(), 5)]
    assert rec.cset.n_points == 25 and rec.diverged_at is None


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
    assert rec.state_errors is None and rec.control_errors is None
    with pytest.raises(ValueError, match="no closed-form solution"):
        ExactSolution("ac_step", epsilon=0.5)
    assert rec.loss_history.shape == (2, 4)
    assert np.all(np.isfinite(rec.u)) and np.all(np.isfinite(rec.f))


def test_alpha_sweep_bookkeeping():
    cfg = tiny_config(n_uzawa=10, n_sgd=1)
    records = [run_deep_uzawa(c) for c in sweep_configs(cfg, [1.0, 1e-2])]
    assert len(records) == 2
    for a, rec in zip((1.0, 1e-2), records):
        assert rec.n_updates == 10
        assert rec.config.alpha == a
        assert rec.config.resolved_rho == pytest.approx(a / 4)
        assert rec.config.output_dir == os.path.join(cfg.output_dir, f"alpha_{a:g}")
    with pytest.raises(ValueError):
        sweep_configs(cfg, [])
    for bad in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            sweep_configs(cfg, [1.0, bad])


@pytest.mark.parametrize("alpha, lr, rho", [
    pytest.param(1e-2, 1e300, None, id="forward_overflow"),
    pytest.param(1.0, 1e308, None, id="adam_overflow"),
    # the multiplier overflows the loss at update 2
    pytest.param(1e-2, 1e-3, 1e307, id="multiplier_overflow"),
])
def test_divergence_recorded_not_raised(alpha, lr, rho):
    cfg = tiny_config(alpha=alpha, n_uzawa=6, n_sgd=8, learning_rate=lr, rho=rho)
    rec = run_deep_uzawa(cfg)
    assert rec.diverged_at is not None
    assert rec.n_updates == rec.diverged_at
    assert rec.n_updates < 6
    # the run keeps the network of its last recorded update
    assert np.all(np.isfinite(rec.u)) and np.all(np.isfinite(rec.f))
    if rec.diverged_at:
        kept = run_deep_uzawa(replace(cfg, n_uzawa=rec.diverged_at)).params
    else:
        kept = init_network(TINY_NET)
    assert np.array_equal(rec.params.flat, kept.flat)
    jets = batch_jets(kept, rec.cset.points, rec.cset.cutoff)
    assert np.array_equal(rec.u, jets.u) and np.array_equal(rec.f, jets.f)


def test_multiplier_drift_bounded_by_rho_times_residual(frozen_network):
    cfg = tiny_config(n_uzawa=1, n_sgd=1)
    rec = run_deep_uzawa(cfg)
    params0 = init_network(TINY_NET)
    cset = rec.cset
    jets = batch_jets(params0, cset.points, cset.cutoff)
    mask = cset.interior_mask
    k = residual_values(problem_for(cfg), jets.u[mask], jets.f[mask], jets.lap_u[mask])
    assert np.abs(rec.z).max() <= cfg.resolved_rho * np.abs(k).max() * (1 + 1e-12)
