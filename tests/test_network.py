import multiprocessing
import os
import pickle
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from deepuzawa import network
from deepuzawa.closed_forms import EXPERIMENTS
from deepuzawa.config import ExperimentConfig
from deepuzawa.driver import run_deep_uzawa
from deepuzawa.geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet
from deepuzawa.lagrangian import loss_parts, target_values
from deepuzawa.network import (NetworkParameters, NetworkSpec, batch_jets, evaluate,
                               finite_difference_gradient, init_network,
                               loss_and_gradient, loss_value)
from reference_checks import sampled_problem


def _poisson_case(dim, n, hidden, seed=0, z_seed=None, beta=0.0):
    tag = "sine1d" if dim == 1 else "sine2d"
    return network._check_case(tag, 1e-2, None, n, hidden, seed,
                               seed if z_seed is None else z_seed, beta)


def test_parameter_count_1_8_8_2():
    # sum over layers of d_out * (d_in + 1): 8*2 + 8*9 + 2*9
    assert NetworkSpec(1, (8, 8)).n_parameters == 106


def test_parameters_pickle_as_spec_and_flat_and_keep_their_layer_views():
    # a record a worker process returns is unpickled: Adam's in-place steps
    # on its flat vector must still reach its layers
    params = init_network(NetworkSpec(2, (3, 4), seed=7))
    copy = pickle.loads(pickle.dumps(params))
    assert copy.spec == params.spec
    assert np.array_equal(copy.flat, params.flat)
    for (w, b), (w0, b0) in zip(copy.layers, params.layers):
        assert np.shares_memory(w, copy.flat) and np.shares_memory(b, copy.flat)
        assert np.array_equal(w, w0) and np.array_equal(b, b0)
    copy.flat += 1.0
    assert np.array_equal(copy.layers[0][0], params.layers[0][0] + 1.0)


def test_parameter_count_2_4_4_4_2():
    assert NetworkSpec(2, (4, 4, 4)).n_parameters == 62


def test_init_deterministic():
    spec = NetworkSpec(1, (8, 8), seed=0)
    a = init_network(spec)
    b = init_network(spec)
    assert np.array_equal(a.flat, b.flat)
    c = init_network(NetworkSpec(1, (8, 8), seed=1))
    assert not np.array_equal(a.flat, c.flat)


def test_init_biases_zero_weights_bounded():
    spec = NetworkSpec(2, (16, 16), seed=5)
    params = init_network(spec)
    for (w, b), n_in in zip(params.layers, spec.layer_dims):
        assert np.all(b == 0.0)
        assert np.all(np.abs(w) <= np.sqrt(3.0 / n_in))


def test_state_zero_on_boundary_for_any_parameters():
    g = build_grid(Domain.unit_square(), 7)
    cj = g.cutoff
    for seed in range(3):
        params = init_network(NetworkSpec(2, (6, 6), seed=seed))
        jets = batch_jets(params, g.points, cj)
        assert np.all(jets.u[~g.interior_mask] == 0.0)


def test_single_linear_layer_jet():
    # one affine map u-channel under a unit cutoff: u = c x, so lap = 0
    spec = NetworkSpec(1, (), seed=0)
    c = 1.75
    flat = np.array([c, 0.0, 0.0, 0.0])  # W = [[c], [0]], b = 0
    params = NetworkParameters(spec, flat)
    unit = CutoffJet(np.ones(1), np.zeros((1, 1)), np.zeros(1))
    jets = batch_jets(params, [[0.3]], unit)
    assert jets.u[0] == pytest.approx(c * 0.3, abs=1e-15)
    assert jets.lap_u[0] == 0.0


def test_loss_equals_discrete_lagrangian():
    # the jets are bitwise the training step's, before or after a training
    # step, in one sweep (1d) and in two halves (2d at 30x30)
    for case in (_poisson_case(1, 16, (8, 8), seed=3), _poisson_case(1, 201, (64, 64, 64)),
                 _poisson_case(2, 30, (64, 64, 64))):
        params, prob, z = case
        g = prob.grid
        before = batch_jets(params, g.points, g.cutoff)
        loss, _ = loss_and_gradient(params, prob, z)
        jets = batch_jets(params, g.points, g.cutoff)
        assert loss == loss_parts(prob, jets, z)["total"]
        for name in ("u", "f", "lap_u"):
            assert np.array_equal(getattr(before, name), getattr(jets, name))


def test_finite_difference_gradient_second_order():
    # halving h must shrink the disagreement with the exact gradient ~4x
    params, prob, z = _poisson_case(1, 12, (6,), seed=8, z_seed=5)
    _, grad = loss_and_gradient(params, prob, z)
    errs = []
    for h in (2e-4, 1e-4):
        fd = finite_difference_gradient(params, prob, z, h)
        errs.append(np.linalg.norm(fd - grad))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_grad_check_covers_every_constraint_kind_and_variant():
    # `deepuzawa grad-check` runs the case tables: every (kind, dimension)
    # of the experiment table, plain (beta = 0) and augmented (beta > 0)
    wanted = {(row.kind, row.dim, augmented) for row in EXPERIMENTS.values()
              for augmented in (False, True)}
    covered = {(EXPERIMENTS[tag].kind, EXPERIMENTS[tag].dim, beta > 0)
               for _, tag, *_, beta in network._GRADIENT_CASES}
    assert wanted <= covered
    assert {row.dim for row in EXPERIMENTS.values()} <= {d for d, _ in network._JET_CASES}


def test_zero_final_layer_loss_is_pure_misfit():
    params, base, z = _poisson_case(1, 21, (8, 8), z_seed=1)
    g = base.grid
    prob = sampled_problem("sine1d", 4.0, g)
    flat = params.flat.copy()
    flat[-18:] = 0.0  # last layer: 2x8 weights + 2 biases
    params = params.with_flat(flat)
    d = target_values(prob)
    expected = 0.5 * float(np.dot(g.weights, d * d))
    assert loss_value(params, prob, z) == pytest.approx(expected, rel=1e-14)


def test_weight_scaling_scales_loss_and_gradient_exactly():
    # scaling all quadrature weights by a power of two commutes with
    # rounding, so equality is exact
    params, prob, z = _poisson_case(1, 16, (8, 8), seed=12, z_seed=9)
    g = prob.grid
    loss1, grad1 = loss_and_gradient(params, prob, z)
    doubled = CollocationSet(g.domain, g.points, g.weights * 2.0, g.interior_mask)
    loss2, grad2 = loss_and_gradient(params, replace(prob, grid=doubled), z)
    assert loss2 == 2.0 * loss1
    assert np.array_equal(grad2, 2.0 * grad1)


def test_duplicated_point_with_split_weight():
    params, prob, z = _poisson_case(1, 16, (8, 8), seed=7, z_seed=2)
    g = prob.grid
    loss1, grad1 = loss_and_gradient(params, prob, z)

    j = 5  # duplicate an interior point, splitting its weight
    points = np.vstack([g.points, g.points[j]])
    weights = g.weights.copy()
    weights[j] /= 2
    weights = np.append(weights, weights[j])
    mask = np.append(g.interior_mask, True)
    dup = CollocationSet(g.domain, points, weights, mask)
    zj = np.where(np.flatnonzero(g.interior_mask) == j)[0][0]
    z_dup = np.append(z, z[zj])
    # the target sampled on the duplicated set, as a run samples its own grid
    loss2, grad2 = loss_and_gradient(params, sampled_problem("sine1d", 1e-2, dup), z_dup)
    assert loss2 == pytest.approx(loss1, rel=1e-13)
    assert np.allclose(grad2, grad1, rtol=1e-12, atol=1e-15)


def test_loss_and_gradient_deterministic():
    params, prob, z = _poisson_case(1, 16, (8, 8), seed=4)
    loss1, grad1 = loss_and_gradient(params, prob, z)
    loss2, grad2 = loss_and_gradient(params, prob, z)
    assert loss1 == loss2
    assert np.array_equal(grad1, grad2)


def test_multiplier_shape_mismatch():
    params, prob, _ = _poisson_case(1, 16, (8, 8), seed=4)
    bad = np.zeros(prob.grid.n_interior - 1)
    with pytest.raises(ValueError, match="multiplier has 13 values for 14 interior points"):
        loss_and_gradient(params, prob, bad)


@pytest.mark.parametrize("call, message", [
    (lambda *_: NetworkSpec(0, (8,)), "input_dim must be >= 1"),
    (lambda *_: NetworkSpec(1, (8, 0)), "hidden widths must be >= 1"),
    (lambda p, *_: NetworkParameters(p.spec, p.flat[1:]),
     r"flat parameter vector has length \(105,\), expected 106"),
    (lambda p, *_: NetworkParameters(p.spec, np.append(p.flat[1:], np.nan)),
     "parameters contain non-finite entries"),
    (lambda p, prob, _: batch_jets(p, np.zeros((3, 2)), prob.grid.cutoff),
     "points have dimension 2, network expects 1"),
    (lambda p, prob, z: finite_difference_gradient(p, prob, z, h=0.0),
     "finite difference step h must be positive"),
], ids=["input-dim-0", "width-0", "short-vector", "nan-parameter", "points-2d", "step-0"])
def test_bad_network_input_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(*_poisson_case(1, 16, (8, 8), seed=4))


# ---------------------------------------------------------------------------
# the persistent jet workspace: results never depend on, or alias, it

def test_alternating_shapes_give_bitwise_equal_results():
    # each switch of shape rebuilds the one cached workspace, and each repeat
    # of a shape reuses it, after the other shapes have written theirs
    cases = [_poisson_case(1, 201, (64, 64, 64)), _poisson_case(2, 30, (64, 64, 64)),
             _poisson_case(2, 30, (7, 5, 3))]
    first = [loss_and_gradient(*case) for case in cases]
    for i in (0, 0, 1, 0, 2, 2, 0, 1, 2):
        loss, grad = loss_and_gradient(*cases[i])
        assert loss == first[i][0]
        assert np.array_equal(grad, first[i][1])


def test_held_results_survive_a_later_call():
    params, prob, z = _poisson_case(2, 12, (7, 5, 3))
    g = prob.grid
    cut = g.cutoff
    _, grad = loss_and_gradient(params, prob, z)
    jets = batch_jets(params, g.points, cut)
    held_grad = grad.copy()
    held_jets = [a.copy() for a in (jets.u, jets.f, jets.lap_u)]
    other = init_network(NetworkSpec(2, (7, 5, 3), seed=99))
    loss_and_gradient(other, prob, z)
    batch_jets(other, g.points, cut)
    assert np.array_equal(grad, held_grad)
    for now, held in zip((jets.u, jets.f, jets.lap_u), held_jets):
        assert np.array_equal(now, held)


def test_new_points_of_the_same_count_are_read():
    # calls with different points of one count share a cached workspace: each
    # call must see its own points, checked against the plain forward pass
    dom = Domain.unit_square()
    params = init_network(NetworkSpec(2, (7, 5, 3), seed=5))
    rng = np.random.default_rng(8)
    batches = [rng.uniform(0.05, 0.95, size=(40, 2)) for _ in range(2)]
    for pts in (batches[0], batches[1], batches[0]):
        cut = cutoff_jet(dom, pts)
        jets = batch_jets(params, pts, cut)
        u, f = evaluate(params, pts, cut.b)
        assert np.allclose(jets.u, u, rtol=1e-13, atol=1e-15)
        assert np.allclose(jets.f, f, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("hidden", [(7, 5, 3), ()], ids=["7-5-3", "depth0"])
def test_gradient_matches_finite_differences_uneven_and_depth_zero(dim, hidden):
    params, prob, z = _poisson_case(dim, 16 if dim == 1 else 5, hidden, seed=4, beta=0.5)
    assert network._gradient_error(params, prob, z) <= network.CHECK_BOUND


@pytest.mark.parametrize("dim, n", [(1, 201), (2, 30)], ids=["1d-201", "2d-30x30"])
def test_gradient_shares_no_memory_with_the_workspace_or_the_last_gradient(dim, n):
    # a caller may hold a gradient across steps: no sweep writes through it
    params, prob, z = _poisson_case(dim, n, (64, 64, 64))
    g = prob.grid
    dims = params.spec.layer_dims
    _, last = loss_and_gradient(params, prob, z)
    _, grad = loss_and_gradient(params, prob, z)
    assert not np.shares_memory(grad, last)
    halves = network._halves(g.n_points, dims)
    assert len(halves) == dim
    for i, half in enumerate(halves):
        tape = network._tape_for(dims, half.stop - half.start, i)
        for slot in tape.__slots__:
            for a in _tape_arrays(getattr(tape, slot)):
                assert not np.shares_memory(grad, a)
                assert not np.shares_memory(last, a)


def test_steady_state_step_allocates_less_than_one_stream_block():
    # the sweeps write into the cached workspace: what a steady-state call
    # still allocates is per-point vectors, far below one stacked
    # (rows x width) block of the tape
    params, prob, z = _poisson_case(2, 30, (64, 64, 64))
    g = prob.grid
    cut = g.cutoff
    block = g.n_points * (2 + 2) * 64 * 8
    loss_and_gradient(params, prob, z)
    tracemalloc.start()
    try:
        loss_and_gradient(params, prob, z)
        step_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        batch_jets(params, g.points, cut)
        jets_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert step_peak < block
    assert jets_peak < block


@pytest.mark.parametrize("dim, n, hidden, halves",
                         [(1, 201, (64, 64, 64), 1), (2, 30, (64, 64, 64), 2),
                          (2, 12, (7, 5, 3), 1)],
                         ids=["1d-201-3x64", "2d-30-3x64", "2d-12-7-5-3"])
def test_workspace_arrays_and_stream_blocks_start_on_cache_lines(dim, n, hidden, halves):
    # a 64-byte vector store into an array that starts mid-line spans two
    # cache lines; every array the sweeps write but x[0] must start on one,
    # in the workspace of each half of the points
    params, prob, z = _poisson_case(dim, n, hidden)
    g = prob.grid
    dims = params.spec.layer_dims
    assert not network._Tape(dims, g.n_points).a_out.any()
    loss_and_gradient(params, prob, z)
    _, sweeps = network._forward(params, g.points, g.cutoff)
    assert len(sweeps) == halves
    for tape, half in sweeps:
        rows = half.stop - half.start
        scratch = [a for per_width in tape.scratch.values() for a in per_width]
        for a in (*tape.x[1:], *tape.y, tape.a_out, *scratch):
            assert a.ctypes.data % 64 == 0
        # the stream views lie rows * width * 8 bytes apart: aligned when 8 | width
        for a in _tape_arrays(tape.hidden):
            if a.shape[-1] % 8 == 0:
                assert a.ctypes.data % 64 == 0
        # the sweeps never write the control column of the derivative rows
        assert not tape.a_out[rows:, 1].any()


def _tape_arrays(v):
    """Every array a workspace attribute holds, through lists, tuples and dicts."""
    if isinstance(v, np.ndarray):
        return [v]
    return [a for item in (v.values() if isinstance(v, dict) else v) for a in _tape_arrays(item)]


# the workspace attributes that own its memory; the others hold views of them
_TAPE_OWNERS = ("x", "y", "a_out", "scratch")


@pytest.mark.parametrize("dim, n", [(1, 201), (2, 30)], ids=["1d-201-3x64", "2d-30-3x64"])
def test_workspace_is_activations_output_adjoint_and_five_vectors_per_width(dim, n):
    # the reverse sweep writes each layer's adjoint over its spent input, so
    # a half's workspace holds nothing beyond x, y, a_out and the per-point
    # scratch, and the sweeps' stream views are views of those; it never
    # writes the unit seeds of x[0]
    params, prob, z = _poisson_case(dim, n, (64, 64, 64))
    g = prob.grid
    dims = params.spec.layer_dims
    loss_and_gradient(params, prob, z)
    halves = network._halves(g.n_points, dims)
    assert len(halves) == dim
    for i, half in enumerate(halves):
        rows = half.stop - half.start
        stacked = rows * (2 + dim)
        tape = network._tape_for(dims, rows, i)
        owned = [a for slot in _TAPE_OWNERS for a in _tape_arrays(getattr(tape, slot))]
        held = sum(a.nbytes for a in owned)
        views = [a for slot in tape.__slots__ if slot not in _TAPE_OWNERS
                 for a in _tape_arrays(getattr(tape, slot))]
        assert len(views) > 0
        assert all(a.base is not None and any(np.shares_memory(a, o) for o in owned)
                   for a in views)
        x = stacked * sum(dims[:-1])
        y = stacked * sum(dims[1:])
        a_out = stacked * dims[-1]
        scratch = 3 * rows * sum(set(dims[1:-1]))
        assert held == 8 * (x + y + a_out + scratch)
        seeds = np.zeros((stacked - rows, dim))
        for j in range(dim):
            seeds[j * rows:(j + 1) * rows, j] = 1.0
        assert np.array_equal(tape.x[0][rows:], seeds)


# ---------------------------------------------------------------------------
# the two-way point split: the second half of the points on a helper thread

@pytest.fixture
def split_all(monkeypatch):
    """Every call with at least two points sweeps them in two halves."""
    monkeypatch.setattr(network, "_SPLIT_SIZE", 1)


def _allen_cahn_case(dim, n, hidden, seed=0, beta=0.0):
    tag = "ac_sine" if dim == 1 else "ac_image"
    return network._check_case(tag, 1e-3, 0.8, n, hidden, seed, seed, beta)


@pytest.mark.parametrize("dim, n", [(1, 17), (2, 5)], ids=["1d-17", "2d-5x5"])
@pytest.mark.parametrize("kind, beta", [("poisson", 0.0), ("poisson", 0.5),
                                        ("allen_cahn", 0.0), ("allen_cahn", 0.5)])
def test_split_gradient_matches_finite_differences(split_all, dim, n, kind, beta):
    # odd point counts: the halves are unequal
    case = _poisson_case if kind == "poisson" else _allen_cahn_case
    params, prob, z = case(dim, n, (8, 8), seed=2, beta=beta)
    g = prob.grid
    assert g.n_points % 2 == 1
    assert network._gradient_error(params, prob, z) <= network.CHECK_BOUND


@pytest.mark.parametrize("dim, n", [(1, 201), (2, 30)], ids=["1d-201", "2d-30x30"])
@pytest.mark.parametrize("kind, beta", [("poisson", 0.0), ("poisson", 0.5),
                                        ("allen_cahn", 0.0), ("allen_cahn", 0.5)])
def test_gradient_at_the_training_shapes_matches_directional_differences(dim, n, kind, beta):
    # grad_check's networks are 8 wide; this checks a 3x64 network on the
    # training grids, 1d in one sweep and 2d in two halves, along three
    # seeded unit directions v against central differences of the loss
    case = _poisson_case if kind == "poisson" else _allen_cahn_case
    params, prob, z = case(dim, n, (64, 64, 64), seed=1, beta=beta)
    g = prob.grid
    assert len(network._halves(g.n_points, params.spec.layer_dims)) == dim
    _, grad = loss_and_gradient(params, prob, z)
    h = 1e-5
    for v in np.random.default_rng(33).normal(size=(3, grad.size)):
        v /= np.linalg.norm(v)
        up = loss_value(params.with_flat(params.flat + h * v), prob, z)
        down = loss_value(params.with_flat(params.flat - h * v), prob, z)
        assert abs((up - down) / (2 * h) - grad @ v) <= 1e-8 * np.linalg.norm(grad)


@pytest.mark.parametrize("dim, n, hidden", [(1, 801, (64, 64, 64)), (2, 30, (64, 64, 64)),
                                            (2, 18, (64, 64, 64)), (2, 55, (7, 5, 3))],
                         ids=["1d-801-3x64", "2d-30-3x64", "2d-18-3x64", "2d-55-7-5-3"])
def test_split_sweeps_match_the_serial_sweep(monkeypatch, dim, n, hidden):
    # sizes the shipped rule splits: the jets of a point never depend on the
    # other points, so jets and loss keep their bits; the gradient sums two
    # halves, a new reduction order
    params, prob, z = _poisson_case(dim, n, hidden, seed=3, beta=0.5)
    g = prob.grid
    assert len(network._halves(g.n_points, params.spec.layer_dims)) == 2
    cut = g.cutoff
    results = []
    for size in (np.inf, network._SPLIT_SIZE):
        monkeypatch.setattr(network, "_SPLIT_SIZE", size)
        jets = batch_jets(params, g.points, cut)
        results.append((jets, *loss_and_gradient(params, prob, z)))
    (serial, loss, grad), (split, split_loss, split_grad) = results
    for name in ("u", "f", "lap_u"):
        assert np.array_equal(getattr(split, name), getattr(serial, name))
    assert split_loss == loss
    assert np.linalg.norm(split_grad - grad) <= 1e-13 * np.linalg.norm(grad)


def test_split_on_one_cpu_gives_the_helper_threads_bits(split_all, monkeypatch):
    params, prob, z = _allen_cahn_case(2, 31, (64, 64, 64), seed=5, beta=0.5)
    g = prob.grid
    cut = g.cutoff
    sweep, threads = network._sweep_forward, set()

    def recording_sweep(*args):
        threads.add(threading.current_thread())
        return sweep(*args)

    monkeypatch.setattr(network, "_sweep_forward", recording_sweep)
    cpus = os.sched_getaffinity(0)
    runs = []
    for allowed in (cpus, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, allowed=allowed: allowed)
        jets = batch_jets(params, g.points, cut)
        runs.append((jets.u, jets.f, jets.lap_u, *loss_and_gradient(params, prob, z)))
    for helper, inline in zip(*runs):
        assert np.array_equal(helper, inline)
    # with two CPUs the second half ran on the helper thread, with one on this
    assert len(threads) == min(2, len(cpus))


def test_split_run_builds_each_half_workspace_once(split_all, monkeypatch):
    # one workspace per (shape, half): the full grid's two halves stay cached
    # through every inner step and outer update of a run
    built = []

    class CountedTape(network._Tape):
        def __init__(self, dims, n):
            built.append(n)
            super().__init__(dims, n)

    monkeypatch.setattr(network, "_Tape", CountedTape)
    network._tape_for.cache_clear()
    try:
        cfg = ExperimentConfig("sine2d", n_uzawa=3, n_sgd=2, n_points=9,
                               hidden_width=8, hidden_depth=2)
        record = run_deep_uzawa(cfg)
    finally:
        network._tape_for.cache_clear()
    assert record.diverged_at is None
    assert sorted(built) == [40, 41]


def _split_step_in_child():
    params, prob, z = _poisson_case(2, 9, (8, 8))
    loss_and_gradient(params, prob, z)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_sweep_in_a_forked_child(split_all):
    # fork copies no thread: a child must start its own helper, not queue
    # work for the parent's, which would never run it
    _split_step_in_child()
    child = multiprocessing.get_context("fork").Process(target=_split_step_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
