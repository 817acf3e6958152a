import multiprocessing
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from deepuzawa import network
from deepuzawa.config import ExperimentConfig
from deepuzawa.driver import run_deep_uzawa
from deepuzawa.errors import ShapeError
from deepuzawa.geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet
from deepuzawa.lagrangian import ProblemSpec, loss_parts, target_values
from deepuzawa.network import (NetworkParameters, NetworkSpec, batch_jets, evaluate,
                               finite_difference_gradient, init_network,
                               load_checkpoint, loss_and_gradient, loss_value,
                               save_checkpoint)

DOM1 = Domain.unit_interval()


def poisson_problem(alpha=1e-2):
    return ProblemSpec("sine1d", alpha)


def random_multiplier(cset, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=cset.n_interior)


def test_parameter_count_1_8_8_2():
    # sum over layers of d_out * (d_in + 1): 8*2 + 8*9 + 2*9
    assert NetworkSpec(1, (8, 8)).n_parameters == 106


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
    cj = cutoff_jet(g.domain, g.points)
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


def test_jet_laplacian_matches_central_difference():
    h = 1e-3
    for dim in (1, 2):
        dom = DOM1 if dim == 1 else Domain.unit_square()
        params = init_network(NetworkSpec(dim, (8, 8), seed=4))
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.1, 0.9, size=(30, dim))
        jets = batch_jets(params, pts, cutoff_jet(dom, pts))
        lap_fd = np.zeros(len(pts))
        for ax in range(dim):
            e = np.zeros(dim)
            e[ax] = h
            up, _ = evaluate(params, pts + e, cutoff_jet(dom, pts + e).b)
            mid, _ = evaluate(params, pts, cutoff_jet(dom, pts).b)
            dn, _ = evaluate(params, pts - e, cutoff_jet(dom, pts - e).b)
            lap_fd += (up - 2 * mid + dn) / h**2
        assert np.abs(jets.lap_u - lap_fd).max() <= 1e-5 * np.abs(lap_fd).max()


def test_loss_equals_discrete_lagrangian():
    g = build_grid(DOM1, 16)
    prob = poisson_problem()
    z = random_multiplier(g, 3)
    params = init_network(NetworkSpec(1, (8, 8), seed=3))
    loss, _ = loss_and_gradient(params, g, prob, z)
    jets = batch_jets(params, g.points, cutoff_jet(g.domain, g.points))
    assert loss == loss_parts(prob, g, jets, z)["total"]


@pytest.mark.parametrize("kind,beta", [("poisson", 0.0), ("poisson", 0.5),
                                       ("allen_cahn", 0.0), ("allen_cahn", 0.2)])
def test_gradient_matches_finite_differences(kind, beta):
    g = build_grid(DOM1, 16)
    if kind == "poisson":
        prob = poisson_problem()
    else:
        prob = ProblemSpec("ac_sine", 1e-3, epsilon=0.8)
    z = random_multiplier(g, 17)
    params = init_network(NetworkSpec(1, (8, 8), seed=2))
    _, grad = loss_and_gradient(params, g, prob, z, beta)
    fd = finite_difference_gradient(params, g, prob, z, 1e-6, beta)
    scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
    assert np.max(np.abs(grad - fd) / scale) <= 1e-5


@pytest.mark.parametrize("kind,beta", [("poisson", 0.0), ("poisson", 0.5),
                                       ("allen_cahn", 0.0), ("allen_cahn", 0.2)])
def test_gradient_matches_finite_differences_2d(kind, beta):
    g = build_grid(Domain.unit_square(), 5)
    if kind == "poisson":
        prob = ProblemSpec("sine2d", 1e-2)
    else:
        prob = ProblemSpec("ac_image", 1e-3, epsilon=0.8, samples=np.full(g.n_points, 0.5))
    z = random_multiplier(g, 23)
    params = init_network(NetworkSpec(2, (6, 6), seed=6))
    _, grad = loss_and_gradient(params, g, prob, z, beta)
    fd = finite_difference_gradient(params, g, prob, z, 1e-6, beta)
    scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
    assert np.max(np.abs(grad - fd) / scale) <= 1e-5


def test_finite_difference_gradient_second_order():
    # halving h must shrink the disagreement with the exact gradient ~4x
    g = build_grid(DOM1, 12)
    prob = poisson_problem()
    z = random_multiplier(g, 5)
    params = init_network(NetworkSpec(1, (6,), seed=8))
    _, grad = loss_and_gradient(params, g, prob, z)
    errs = []
    for h in (2e-4, 1e-4):
        fd = finite_difference_gradient(params, g, prob, z, h)
        errs.append(np.linalg.norm(fd - grad))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_zero_final_layer_loss_is_pure_misfit():
    g = build_grid(DOM1, 21)
    prob = poisson_problem(alpha=4.0)
    z = random_multiplier(g, 1)
    params = init_network(NetworkSpec(1, (8, 8), seed=0))
    flat = params.flat.copy()
    flat[-18:] = 0.0  # last layer: 2x8 weights + 2 biases
    params = params.with_flat(flat)
    d = target_values(prob, g)
    expected = 0.5 * float(np.dot(g.weights, d * d))
    assert loss_value(params, g, prob, z) == pytest.approx(expected, rel=1e-14)


def test_weight_scaling_scales_loss_and_gradient_exactly():
    # scaling all quadrature weights by a power of two commutes with
    # rounding, so equality is exact
    g = build_grid(DOM1, 16)
    prob = poisson_problem()
    z = random_multiplier(g, 9)
    params = init_network(NetworkSpec(1, (8, 8), seed=12))
    loss1, grad1 = loss_and_gradient(params, g, prob, z)
    doubled = CollocationSet(g.domain, g.points, g.weights * 2.0, g.interior_mask)
    loss2, grad2 = loss_and_gradient(params, doubled, prob, z)
    assert loss2 == 2.0 * loss1
    assert np.array_equal(grad2, 2.0 * grad1)


def test_duplicated_point_with_split_weight():
    g = build_grid(DOM1, 16)
    prob = poisson_problem()
    z = random_multiplier(g, 2)
    params = init_network(NetworkSpec(1, (8, 8), seed=7))
    loss1, grad1 = loss_and_gradient(params, g, prob, z)

    j = 5  # duplicate an interior point, splitting its weight
    points = np.vstack([g.points, g.points[j]])
    weights = g.weights.copy()
    weights[j] /= 2
    weights = np.append(weights, weights[j])
    mask = np.append(g.interior_mask, True)
    dup = CollocationSet(g.domain, points, weights, mask)
    zj = np.where(np.flatnonzero(g.interior_mask) == j)[0][0]
    z_dup = np.append(z, z[zj])
    loss2, grad2 = loss_and_gradient(params, dup, prob, z_dup)
    assert loss2 == pytest.approx(loss1, rel=1e-13)
    assert np.allclose(grad2, grad1, rtol=1e-12, atol=1e-15)


def test_loss_and_gradient_deterministic():
    g = build_grid(DOM1, 16)
    prob = poisson_problem()
    z = random_multiplier(g, 4)
    params = init_network(NetworkSpec(1, (8, 8), seed=4))
    loss1, grad1 = loss_and_gradient(params, g, prob, z)
    loss2, grad2 = loss_and_gradient(params, g, prob, z)
    assert loss1 == loss2
    assert np.array_equal(grad1, grad2)


def test_multiplier_shape_mismatch():
    g = build_grid(DOM1, 16)
    prob = poisson_problem()
    params = init_network(NetworkSpec(1, (8, 8), seed=4))
    bad = np.zeros(g.n_interior - 1)
    with pytest.raises(ShapeError):
        loss_and_gradient(params, g, prob, bad)


def test_checkpoint_roundtrip(tmp_path):
    spec = NetworkSpec(2, (8, 4), seed=42)
    params = init_network(spec)
    path = tmp_path / "params.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.spec == spec
    assert np.array_equal(loaded.flat, params.flat)


def test_checkpoint_truncated_header_is_value_error(tmp_path):
    params = init_network(NetworkSpec(1, (4, 4), seed=3))
    path = tmp_path / "params.bin"
    save_checkpoint(params, path)
    data = path.read_bytes()
    # the end of every header field (magic, version, input dimension, layer
    # count, two widths, activation id, seed, parameter count), then cuts
    # inside a field and inside the parameter vector
    cuts = [8, 12, 16, 20, 24, 28, 32, 40, 48, 10, 30, 44, len(data) - 1]
    for cut in cuts:
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)


def test_checkpoint_unknown_activation_id(tmp_path):
    params = init_network(NetworkSpec(1, (4, 4), seed=3))
    path = tmp_path / "params.bin"
    save_checkpoint(params, path)
    data = bytearray(path.read_bytes())
    # activation id follows magic, version, input dimension, layer count, two widths
    assert data[28:32] == (0).to_bytes(4, "little")
    data[28:32] = (1).to_bytes(4, "little")
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unknown activation id"):
        load_checkpoint(path)


def test_checkpoint_payload_beyond_the_file_is_value_error(tmp_path):
    # a 100-byte file whose header claims hidden widths (100000, 100000):
    # 10,000,500,002 parameters, 80 GB the reader must not try to allocate
    header = (b"DUZW-NET" + struct.pack("<iii2ii", 1, 1, 2, 100000, 100000, 0)
              + struct.pack("<qq", 0, 10_000_500_002))
    assert NetworkSpec(1, (100000, 100000)).n_parameters == 10_000_500_002
    path = tmp_path / "params.bin"
    path.write_bytes(header + bytes(100 - len(header)))
    with pytest.raises(ValueError, match="truncated checkpoint: 80004000016 bytes expected"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTANETx" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# the persistent jet workspace: results never depend on, or alias, it

def _poisson_case(dim, n, hidden, seed=0):
    dom = DOM1 if dim == 1 else Domain.unit_square()
    g = build_grid(dom, n)
    prob = ProblemSpec("sine1d" if dim == 1 else "sine2d", 1e-2)
    params = init_network(NetworkSpec(dim, hidden, seed=seed))
    return params, g, prob, random_multiplier(g, seed)


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
    params, g, prob, z = _poisson_case(2, 12, (7, 5, 3))
    cut = cutoff_jet(g.domain, g.points)
    _, grad = loss_and_gradient(params, g, prob, z)
    jets = batch_jets(params, g.points, cut)
    held_grad = grad.copy()
    held_jets = [a.copy() for a in (jets.u, jets.f, jets.lap_u)]
    other = init_network(NetworkSpec(2, (7, 5, 3), seed=99))
    loss_and_gradient(other, g, prob, z)
    batch_jets(other, g.points, cut)
    assert np.array_equal(grad, held_grad)
    for now, held in zip((jets.u, jets.f, jets.lap_u), held_jets):
        assert np.array_equal(now, held)


def test_new_points_of_the_same_count_are_read():
    # a mini-batch run calls with fresh points of one count every step: each
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
    params, g, prob, z = _poisson_case(dim, 16 if dim == 1 else 5, hidden, seed=4)
    _, grad = loss_and_gradient(params, g, prob, z, 0.5)
    fd = finite_difference_gradient(params, g, prob, z, 1e-6, 0.5)
    scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
    assert np.max(np.abs(grad - fd) / scale) <= 1e-5


def test_steady_state_step_allocates_less_than_one_stream_block():
    # the sweeps write into the cached workspace: what a steady-state call
    # still allocates is per-point vectors, far below one stacked
    # (rows x width) block of the tape
    params, g, prob, z = _poisson_case(2, 30, (64, 64, 64))
    cut = cutoff_jet(g.domain, g.points)
    target = target_values(prob, g)
    block = g.n_points * (2 + 2) * 64 * 8
    loss_and_gradient(params, g, prob, z, target=target, cutoff=cut)
    tracemalloc.start()
    try:
        loss_and_gradient(params, g, prob, z, target=target, cutoff=cut)
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
    params, g, prob, z = _poisson_case(dim, n, hidden)
    dims = params.spec.layer_dims
    assert not network._Tape(dims, g.n_points).a_out.any()
    loss_and_gradient(params, g, prob, z)
    _, sweeps = network._forward(params, g.points, cutoff_jet(g.domain, g.points))
    assert len(sweeps) == halves
    for tape, half in sweeps:
        rows = half.stop - half.start
        adjoints = [a for pair in tape.adjoint.values() for a in pair]
        scratch = [a for five in tape.scratch.values() for a in five]
        for a in (*tape.x[1:], *tape.y, tape.a_out, *adjoints, *scratch):
            assert a.ctypes.data % 64 == 0
        # stream blocks lie rows * width * 8 bytes apart: aligned when 8 | width
        blocks, lap = network._stream_blocks(rows, dim)
        for a in (*tape.x[1:], *tape.y, *adjoints):
            if a.shape[1] % 8 == 0:
                for blk in (slice(0, rows), *blocks, lap):
                    assert a[blk].ctypes.data % 64 == 0
        # the sweeps never write the control column of the derivative rows
        assert not tape.a_out[rows:, 1].any()


# ---------------------------------------------------------------------------
# the two-way point split: the second half of the points on a helper thread

@pytest.fixture
def split_all(monkeypatch):
    """Every call with at least two points sweeps them in two halves."""
    monkeypatch.setattr(network, "_SPLIT_SIZE", 1)


def _allen_cahn_case(dim, n, hidden, seed=0):
    params, g, _, z = _poisson_case(dim, n, hidden, seed)
    if dim == 1:
        return params, g, ProblemSpec("ac_sine", 1e-3, epsilon=0.8), z
    return params, g, ProblemSpec("ac_image", 1e-3, epsilon=0.8,
                                  samples=np.full(g.n_points, 0.5)), z


@pytest.mark.parametrize("dim, n", [(1, 17), (2, 5)], ids=["1d-17", "2d-5x5"])
@pytest.mark.parametrize("kind, beta", [("poisson", 0.0), ("poisson", 0.5),
                                        ("allen_cahn", 0.0), ("allen_cahn", 0.5)])
def test_split_gradient_matches_finite_differences(split_all, dim, n, kind, beta):
    # odd point counts: the halves are unequal
    case = _poisson_case if kind == "poisson" else _allen_cahn_case
    params, g, prob, z = case(dim, n, (8, 8), seed=2)
    assert g.n_points % 2 == 1
    _, grad = loss_and_gradient(params, g, prob, z, beta)
    fd = finite_difference_gradient(params, g, prob, z, 1e-6, beta)
    scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
    assert np.max(np.abs(grad - fd) / scale) <= network.CHECK_BOUND


@pytest.mark.parametrize("dim, n, hidden", [(1, 801, (64, 64, 64)), (2, 30, (64, 64, 64)),
                                            (2, 18, (64, 64, 64)), (2, 55, (7, 5, 3))],
                         ids=["1d-801-3x64", "2d-30-3x64", "2d-18-3x64", "2d-55-7-5-3"])
def test_split_sweeps_match_the_serial_sweep(monkeypatch, dim, n, hidden):
    # sizes the shipped rule splits: the jets of a point never depend on the
    # other points, so jets and loss keep their bits; the gradient sums two
    # halves, a new reduction order
    params, g, prob, z = _poisson_case(dim, n, hidden, seed=3)
    assert len(network._halves(g.n_points, params.spec.layer_dims)) == 2
    cut = cutoff_jet(g.domain, g.points)
    results = []
    for size in (np.inf, network._SPLIT_SIZE):
        monkeypatch.setattr(network, "_SPLIT_SIZE", size)
        jets = batch_jets(params, g.points, cut)
        results.append((jets, *loss_and_gradient(params, g, prob, z, 0.5)))
    (serial, loss, grad), (split, split_loss, split_grad) = results
    for name in ("u", "f", "lap_u"):
        assert np.array_equal(getattr(split, name), getattr(serial, name))
    assert split_loss == loss
    assert np.linalg.norm(split_grad - grad) <= 1e-13 * np.linalg.norm(grad)


def test_split_on_one_cpu_gives_the_helper_threads_bits(split_all, monkeypatch):
    params, g, prob, z = _allen_cahn_case(2, 31, (64, 64, 64), seed=5)
    cut = cutoff_jet(g.domain, g.points)
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
        runs.append((jets.u, jets.f, jets.lap_u, *loss_and_gradient(params, g, prob, z, 0.5)))
    for helper, inline in zip(*runs):
        assert np.array_equal(helper, inline)
    # with two CPUs the second half ran on the helper thread, with one on this
    assert len(threads) == min(2, len(cpus))


def test_split_mini_batch_run_rebuilds_no_more_workspaces(split_all, monkeypatch):
    # one workspace per (shape, half): the mini-batch's two and the full
    # grid's two stay cached, where the one-workspace cache rebuilt two per update
    built = []

    class CountedTape(network._Tape):
        def __init__(self, dims, n):
            built.append(n)
            super().__init__(dims, n)

    monkeypatch.setattr(network, "_Tape", CountedTape)
    network._tape_for.cache_clear()
    try:
        cfg = ExperimentConfig("sine2d", n_uzawa=3, n_sgd=2, n_points=9, batch_size=40,
                               hidden_width=8, hidden_depth=2)
        record = run_deep_uzawa(cfg)
    finally:
        network._tape_for.cache_clear()
    assert record.diverged_at is None
    assert sorted(built) == [20, 20, 40, 41]
    assert len(built) <= 2 * cfg.n_uzawa


def _split_step_in_child():
    params, g, prob, z = _poisson_case(2, 9, (8, 8))
    loss_and_gradient(params, g, prob, z)


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
