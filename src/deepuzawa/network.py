"""Two-output collocation network with jet propagation and exact gradients.

The ansatz is a fully connected network mapping a point x in R^d to a pair
(n_u(x), n_f(x)).  The state channel is hard-constrained to satisfy zero
Dirichlet data by multiplication with a boundary cutoff, u = b * n_u, while
the control channel f = n_f is left free.

The Laplacian is obtained by propagating the value, the d first
derivatives and the Laplacian itself (the "forward Laplacian" layout)
through every affine map and tanh activation: with s1, s2, s3 tanh's first
three derivatives at its input y, an activation maps the Laplacian stream L
of y to s1 L + s2 sum_i (d_i y)^2.  The loss gradient with respect to every
parameter is computed by one reverse sweep.

Both sweeps write into workspaces, :class:`_Tape`, kept from call to call
and rebuilt when the network shape or point count changes, so a training
step allocates only per-point vectors and slices no stream: the workspace
holds the views the sweeps read.  Each sweep overwrites what it has spent:
the forward sweep a hidden layer's pre-activations with the reverse sweep's
factors that do not depend on the adjoint (s1 in the value rows, p_i =
s2 d_i y in derivative block i, the curvature s2 L + s3 sum_i (d_i y)^2 in
the Laplacian rows), the reverse sweep each layer's stacked input x[k] with
its adjoint once its weight gradient is formed.  When one stacked array is
large, the points are swept in two contiguous halves, each with its own
workspace: the caller's thread sweeps the first half and one helper thread
the second; else all points are one half, swept by the same code.  The
gradient is the first half's plus the second's, so its bits depend on the
problem size only.  Returned jets and gradients never alias a workspace.
The sweeps use one helper thread inside; two callers still must not run
them at once.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .closed_forms import EXPERIMENTS
from .config import ExperimentConfig, target_on_grid
from .geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet
from .lagrangian import ProblemSpec, loss_parts, pointwise_gradients
from .parallel import usable_cpus


def _add_product(acc, tmp, *factors):
    """acc += factors[0] * factors[1] * ..., multiplied left to right in tmp."""
    np.multiply(factors[0], factors[1], out=tmp)
    for f in factors[2:]:
        tmp *= f
    acc += tmp


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: input dimension, hidden tanh widths, seed."""

    input_dim: int
    hidden: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if any(w < 1 for w in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, 2)

    @property
    def n_parameters(self) -> int:
        dims = self.layer_dims
        return sum(dims[k + 1] * (dims[k] + 1) for k in range(len(dims) - 1))


def _layer_views(spec: NetworkSpec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views of a flat vector, layer by layer: each layer's
    row-major weight matrix followed by its bias vector."""
    views, o = [], 0
    for n_in, n_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        w = flat[o:o + n_out * n_in].reshape(n_out, n_in)
        o += n_out * n_in
        views.append((w, flat[o:o + n_out]))
        o += n_out
    return views


class NetworkParameters:
    """All weights and biases as one flat float64 vector, laid out as
    :func:`_layer_views` reads it."""

    def __init__(self, spec: NetworkSpec, flat: np.ndarray):
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (spec.n_parameters,):
            raise ValueError(f"flat parameter vector has length {flat.shape}, "
                             f"expected {spec.n_parameters}")
        if not np.all(np.isfinite(flat)):
            raise ValueError("parameters contain non-finite entries")
        self.spec = spec
        self.flat = flat
        self.layers = _layer_views(spec, flat)

    def with_flat(self, flat: np.ndarray) -> "NetworkParameters":
        return NetworkParameters(self.spec, flat)

    def __reduce__(self):
        # pickled field by field, a copy's layers would not view its flat vector
        return NetworkParameters, (self.spec, self.flat)


def init_network(spec: NetworkSpec) -> NetworkParameters:
    """Symmetric fan-in-scaled uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(spec.seed)
    flat = _aligned(1, spec.n_parameters)[0]
    for w, _ in _layer_views(spec, flat):
        limit = np.sqrt(3.0 / w.shape[1])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return NetworkParameters(spec, flat)


@dataclass(frozen=True)
class JetBatch:
    """Jets for a batch of points, stored as arrays."""

    u: np.ndarray        # (n,)
    f: np.ndarray        # (n,)
    lap_u: np.ndarray    # (n,)


class _Tape:
    """Workspace of both sweeps for one network shape and point count.

    All derivative streams share each layer's matrix product: rows of the
    stacked activations hold n value rows, then d first-derivative blocks
    of n rows each, then one block of n Laplacian rows.  ``x[k]`` and
    ``y[k]`` are layer k's stacked input and pre-activation until spent
    (module docstring); ``x[0]`` keeps its unit seeds, and a call writes
    only its points into the value rows.  ``a_out`` is the output adjoint;
    the control column of its derivative rows stays zero.  Layers of one
    hidden width share ``scratch[width]``, three n x width vectors.  Every
    array but ``x[0]`` starts on a 64-byte cache line, and so does every
    stream block when the width is a multiple of 8: a vector store then
    never spans two lines.

    The sweeps read views made here once: ``inputs``, x[0]'s value rows;
    ``hidden[k]``, y[k] then x[k + 1], each whole, as value rows, derivative
    blocks and Laplacian rows, then their scratch; ``out``, y[-1] whole and
    as value rows, then the raw outputs; ``adjoint``, a_out whole and as
    value rows, then the columns the loss partials set.
    """

    __slots__ = ("x", "y", "a_out", "scratch", "inputs", "hidden", "out", "adjoint")

    def __init__(self, dims: tuple[int, ...], n: int):
        d, hidden = dims[0], dims[1:-1]
        rows, lap = n * (2 + d), slice(n * (1 + d), None)  # the Laplacian rows
        blocks = [slice(n * (1 + i), n * (2 + i)) for i in range(d)]  # derivative i's rows
        self.x = [np.zeros((rows, d))] + [_aligned(rows, w) for w in hidden]
        self.y = [_aligned(rows, w) for w in dims[1:]]
        for i, blk in enumerate(blocks):
            self.x[0][blk, i] = 1.0
        self.a_out = _aligned(rows, dims[-1])
        self.scratch = {w: [_aligned(n, w) for _ in range(3)] for w in set(hidden)}

        def streams(a):
            return a, a[:n], [a[blk] for blk in blocks], a[lap]

        self.inputs = self.x[0][:n]
        self.hidden = [(*streams(self.y[k]), *streams(self.x[k + 1]), self.scratch[w])
                       for k, w in enumerate(hidden)]
        y, a = self.y[-1], self.a_out
        grad = y[n:lap.start, 0].reshape(d, n).T  # the derivative rows' state column, (n, d)
        self.out = (y, y[:n], (y[:n, 0], y[:n, 1], grad, y[lap, 0]))
        self.adjoint = (a, a[:n], a[:n, 0], a[:n, 1], [a[blk, 0] for blk in blocks], a[lap, 0])


def _aligned(rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols) float64 array starting on a 64-byte boundary;
    numpy itself only promises 16."""
    buf = np.zeros(rows * cols + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + rows * cols].reshape(rows, cols)


# one workspace per (layer_dims, n_points, half): a run sweeps only its full
# grid, whose one or two halves both stay cached
_tape_for = functools.lru_cache(maxsize=2)(lambda dims, n, half: _Tape(dims, n))

# the points are swept in two halves when one stacked array, n (2 + d) x the
# widest hidden width, has at least this many entries; README's notes give
# the crossover on 2 vCPUs with one BLAS thread; with two (numpy loaded first,
# thread variables unset) a split sweep takes 1.07-1.19x the serial time at
# 1d 501/601 and 2d 18x18/20x20 points, and 0.91x at 30x30
_SPLIT_SIZE = 80_000


def _halves(n: int, dims: tuple[int, ...]) -> list[slice]:
    """Point ranges the sweeps run over: all points, or two contiguous halves."""
    if n * (2 + dims[0]) * max(dims[1:-1], default=0) < _SPLIT_SIZE:
        return [slice(0, n)]
    return [slice(0, n - n // 2), slice(n - n // 2, n)]


@functools.lru_cache(maxsize=1)
def _helper(pid: int):
    """The helper thread of process ``pid``: a forked child copies no thread."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1)


def _in_halves(fn, calls: list[tuple]) -> list:
    """[fn(*args) for args in calls], one call per half: a second half runs
    on the helper thread, under this thread's numpy error state (no other
    thread sees it), or inline when the process may use one CPU; the bits
    are the same either way."""
    if len(calls) == 1 or usable_cpus() == 1:
        return [fn(*args) for args in calls]
    future = _helper(os.getpid()).submit(np.errstate(**np.geterr())(fn), *calls[1])
    try:
        first = fn(*calls[0])
    finally:  # the helper is done with its workspace before this returns or raises
        second = future.result()
    return [first, second]


def _sweep_forward(layers, tape: _Tape, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Forward sweep of one half: the raw outputs' value, control, gradient
    and Laplacian rows, as views of the tape."""
    tape.inputs[...] = points
    x = tape.x[0]
    for (w, b), (y, y_val, y_blks, curv, x_next, x_val, x_blks, x_lap, scratch) in zip(
            layers, tape.hidden):
        # one input column (1d): no sums to round; dot is 3x faster than matmul
        (np.dot if x.shape[1] == 1 else np.matmul)(x, w.T, out=y)
        y_val += b
        x = x_next
        s2, s3, tmp = scratch
        t = np.tanh(y_val, out=x_val)
        s1 = np.multiply(t, t, out=y_val)  # s1 = 1 - t^2 in the spent value rows
        np.subtract(1.0, s1, out=s1)
        np.multiply(-2.0, t, out=s2)
        s2 *= s1
        np.multiply(-2.0, s1, out=s3)  # s3 = -2 s1 (1 - 3 t^2)
        np.multiply(3.0, t, out=tmp)
        tmp *= t
        np.subtract(1.0, tmp, out=tmp)
        s3 *= tmp
        np.multiply(s1, curv, out=x_lap)  # curv = s2 L + s3 sum_i (d_i y)^2
        curv *= s2
        for y_blk, x_blk in zip(y_blks, x_blks):
            np.multiply(s1, y_blk, out=x_blk)
            _add_product(x_lap, tmp, s2, y_blk, y_blk)
            _add_product(curv, tmp, s3, y_blk, y_blk)
            y_blk *= s2  # p_i = s2 d_i y
    w, b = layers[-1]
    y, y_val, raw = tape.out
    (np.dot if x.shape[1] == 1 else np.matmul)(x, w.T, out=y)
    y_val += b
    return raw


def _forward(params: NetworkParameters, points: np.ndarray,
             cutoff: CutoffJet) -> tuple[JetBatch, list[tuple[_Tape, slice]]]:
    """Jets at the points, and each half's workspace with its point range."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != params.spec.input_dim:
        raise ValueError(f"points have dimension {d}, network expects {params.spec.input_dim}")
    dims = params.spec.layer_dims
    sweeps = [(_tape_for(dims, h.stop - h.start, i), h) for i, h in enumerate(_halves(n, dims))]
    outs = _in_halves(_sweep_forward, [(params.layers, tape, points[h]) for tape, h in sweeps])
    # the joined rows are copies: no jet aliases a workspace
    n_u, f, grad_n, lap_n = (np.concatenate(rows) for rows in zip(*outs))

    b_val, b_grad, b_lap = cutoff.b, cutoff.grad, cutoff.lap
    u = b_val * n_u
    lap_u = b_lap * n_u + 2.0 * np.sum(b_grad * grad_n, axis=1) + b_val * lap_n
    return JetBatch(u, f, lap_u), sweeps


def batch_jets(params: NetworkParameters, points: np.ndarray, cutoff: CutoffJet) -> JetBatch:
    """Vectorised jets (u, f, lap u) at a batch of points.

    ``cutoff`` supplies the boundary function with its derivatives at the
    points; the state u is always the cut channel b * n_u.  Values that
    overflow come back non-finite; the run loop decides what that means.
    The sweep's workspace for this network and point count stays allocated
    after the call, until a call with another shape or count replaces it.
    """
    jets, _ = _forward(params, points, cutoff)
    return jets


def evaluate(params: NetworkParameters, points: np.ndarray,
             cutoff_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain forward evaluation of the cut state and the control, (b * n_u,
    f), without derivative streams and without the workspace.

    It is the reference that :func:`grad_check` differences; a training
    run's fields come from :func:`batch_jets`.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    layers = params.layers
    for k, (w, b) in enumerate(layers):
        y = x @ w.T + b
        x = np.tanh(y) if k < len(layers) - 1 else y
    return cutoff_values * x[:, 0], x[:, 1]


def loss_and_gradient(params: NetworkParameters, cset: CollocationSet,
                      problem: ProblemSpec, z: np.ndarray) -> tuple[float, np.ndarray]:
    """Quadrature Lagrangian and its exact parameter gradient.

    The scalar equals ``loss_parts(...)["total"]`` at the network jets; the
    gradient is its derivative by every entry of ``params.flat``, through
    the full jet computation with its Laplacian and cutoff terms.

    The jets use the grid's own cutoff, ``cset.cutoff``, and the loss the
    problem's target on the grid and penalty weight ``problem.beta``.  As
    with :func:`batch_jets`, an overflow comes back as a non-finite loss or
    gradient, and the workspace for this network and point count stays
    allocated after the call.
    """
    cutoff = cset.cutoff
    jets, sweeps = _forward(params, cset.points, cutoff)
    loss, g_u, g_f, g_lap = pointwise_gradients(problem, cset, jets, z)
    grads = _in_halves(_sweep_reverse, [
        (params, tape, CutoffJet(cutoff.b[h], cutoff.grad[h], cutoff.lap[h]),
         g_u[h], g_f[h], g_lap[h]) for tape, h in sweeps])
    return loss, sum(grads[1:], grads[0])  # the first half's plus the second's


def _sweep_reverse(params: NetworkParameters, tape: _Tape, cutoff: CutoffJet,
                   g_u: np.ndarray, g_f: np.ndarray, g_lap: np.ndarray) -> np.ndarray:
    """Reverse sweep of one half: the loss gradient of its points, given the
    loss partials by u, f and lap u there."""
    # stacked adjoint of the raw network outputs, in the forward block layout,
    # through u = b n,  lap u = (lap b) n + 2 grad b . grad n + b lap n
    b_val, b_grad, b_lap = cutoff.b, cutoff.grad, cutoff.lap
    a, a_val, a_u, a_f, a_grad_u, a_lap_u = tape.adjoint
    a_u[...] = g_u * b_val + g_lap * b_lap
    a_f[...] = g_f
    for i, a_i in enumerate(a_grad_u):
        a_i[...] = 2.0 * g_lap * b_grad[:, i]
    a_lap_u[...] = g_lap * b_val

    layers = params.layers
    grad_flat = np.empty_like(params.flat)
    grads = _layer_views(params.spec, grad_flat)
    for k in range(len(layers) - 1, -1, -1):
        gw, gb = grads[k]
        np.matmul(a.T, tape.x[k], out=gw)
        a_val.sum(axis=0, out=gb)
        if k == 0:
            break
        # s1, p_i and the curvature, left by the forward sweep in hidden layer
        # k - 1's pre-activation; its spent output x[k] becomes its adjoint,
        # post- then pre-activation, in place
        _, s1, p, curv, x, a_val, a_blks, a_lap, (acc, lap2, tmp) = tape.hidden[k - 1]
        a = np.matmul(a, layers[k][0], out=x)
        np.multiply(curv, a_lap, out=acc)  # the value rows' curvature and stream terms
        np.multiply(2.0, a_lap, out=lap2)
        for p_i, a_i in zip(p, a_blks):
            _add_product(acc, tmp, p_i, a_i)
            a_i *= s1  # s1 a' + 2 p_i a_lap
            _add_product(a_i, tmp, p_i, lap2)
        a_val *= s1
        a_val += acc
        a_lap *= s1
    return grad_flat


def loss_value(params: NetworkParameters, cset: CollocationSet, problem: ProblemSpec,
               z: np.ndarray) -> float:
    """Loss alone, via the same jet computation as :func:`loss_and_gradient`."""
    jets = batch_jets(params, cset.points, cset.cutoff)
    return loss_parts(problem, cset, jets, z)["total"]


def finite_difference_gradient(params: NetworkParameters, cset: CollocationSet,
                               problem: ProblemSpec, z: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of the loss, component by component: the
    test oracle of :func:`loss_and_gradient`, O(n_params) loss evaluations."""
    if not h > 0:
        raise ValueError("finite difference step h must be positive")
    flat = params.flat
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = loss_value(params.with_flat(bumped), cset, problem, z)
        bumped[i] = flat[i] - h
        down = loss_value(params.with_flat(bumped), cset, problem, z)
        grad[i] = (up - down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# derivative checks

CHECK_BOUND = 1e-5  # largest relative error a derivative check accepts


def _gradient_error(params: NetworkParameters, cset: CollocationSet, problem: ProblemSpec,
                    z: np.ndarray) -> float:
    """Largest relative error of the loss gradient against central
    differences at h = 1e-6, component by component; components below 1e-3
    of the largest are compared against that floor, since the difference
    carries ~1e-10 absolute rounding noise of its own."""
    _, grad = loss_and_gradient(params, cset, problem, z)
    fd = finite_difference_gradient(params, cset, problem, z, 1e-6)
    scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
    return float(np.max(np.abs(grad - fd) / scale))


def _laplacian_error(params: NetworkParameters, domain: Domain, points: np.ndarray) -> float:
    """Largest error of the cut state's jet Laplacian at the points against
    central second differences at h = 1e-3, relative to the largest
    difference: the difference's own O(h^2) truncation dominates pointwise
    ratios near zero crossings of lap u."""
    h = 1e-3
    cut = cutoff_jet(domain, points)
    jets = batch_jets(params, points, cut)
    mid, _ = evaluate(params, points, cut.b)
    lap_fd = np.zeros(len(points))
    for axis in range(domain.dim):
        e = np.zeros(domain.dim)
        e[axis] = h
        up, _ = evaluate(params, points + e, cutoff_jet(domain, points + e).b)
        dn, _ = evaluate(params, points - e, cutoff_jet(domain, points - e).b)
        lap_fd += (up - 2 * mid + dn) / h**2
    return float(np.abs(jets.lap_u - lap_fd).max() / np.abs(lap_fd).max())


# Laplacian-jet cases of grad_check: dimension, network seed
_JET_CASES = tuple((dim, seed) for dim in (1, 2) for seed in range(5))
# loss-gradient cases of grad_check: name, tag, alpha, epsilon, grid points
# per side, hidden widths, network seed, multiplier seed, beta
_GRADIENT_CASES = (
    *((f"loss gradient seed={s}", "sine1d", 1e-2, None, 16, (8, 8), s, s, 0.0) for s in range(5)),
    ("loss gradient sine1d beta=0", "sine1d", 1e-2, None, 16, (8, 8), 2, 17, 0.0),
    ("loss gradient sine1d beta=0.5", "sine1d", 1e-2, None, 16, (8, 8), 2, 17, 0.5),
    ("loss gradient ac_sine beta=0", "ac_sine", 1e-3, 0.8, 16, (8, 8), 2, 17, 0.0),
    ("loss gradient ac_sine beta=0.2", "ac_sine", 1e-3, 0.8, 16, (8, 8), 2, 17, 0.2),
    ("loss gradient sine2d beta=0", "sine2d", 1e-2, None, 5, (6, 6), 6, 23, 0.0),
    ("loss gradient sine2d beta=0.5", "sine2d", 1e-2, None, 5, (6, 6), 6, 23, 0.5),
    ("loss gradient ac_image beta=0", "ac_image", 1e-3, 0.8, 5, (6, 6), 6, 23, 0.0),
    ("loss gradient ac_image beta=0.2", "ac_image", 1e-3, 0.8, 5, (6, 6), 6, 23, 0.2),
)


def _check_case(tag, alpha, epsilon, n, hidden, seed, z_seed, beta):
    """Network, grid, problem (image target 0.5) and random z of one gradient check."""
    row = EXPERIMENTS[tag]
    cset = build_grid(Domain(row.dim), n)
    samples = (np.full(cset.n_points, 0.5) if row.target == "image"
               else target_on_grid(ExperimentConfig(tag, alpha, epsilon), cset))
    z = np.random.default_rng(z_seed).normal(size=cset.n_interior)
    return (init_network(NetworkSpec(row.dim, hidden, seed=seed)), cset,
            ProblemSpec(tag, alpha, epsilon, beta, samples=samples), z)


def grad_check() -> dict[str, float]:
    """Relative errors of the Laplacian-jet and loss-gradient checks, by name.

    Each check passes when its error is at most ``CHECK_BOUND``.  Laplacian
    jets (:func:`_laplacian_error`) of 8x8 tanh networks with seeds 0-4 at
    50 random points, in 1d and 2d; loss gradients (:func:`_gradient_error`)
    at a random multiplier, one per row of ``_GRADIENT_CASES``: sine1d at
    seeds 0-4, then each constraint kind in 1d and 2d, plain and augmented.
    """
    errors = {}
    for dim, seed in _JET_CASES:
        params = init_network(NetworkSpec(dim, (8, 8), seed=seed))
        points = np.random.default_rng(100 + seed).uniform(0.05, 0.95, size=(50, dim))
        errors[f"laplacian jet d={dim} seed={seed}"] = _laplacian_error(
            params, Domain(dim), points)
    for name, *case in _GRADIENT_CASES:
        errors[name] = _gradient_error(*_check_case(*case))
    return errors


def save_checkpoint(params: NetworkParameters, path) -> None:
    """Write the flat parameter vector, in ``_layer_views`` order, as one
    ``.npy`` array; ``meta.txt`` holds the architecture and seed."""
    np.save(path, params.flat)
