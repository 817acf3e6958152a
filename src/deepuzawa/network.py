"""Two-output collocation network with jet propagation and exact gradients.

The ansatz is a fully connected network mapping a point x in R^d to a pair
(n_u(x), n_f(x)).  The state channel is hard-constrained to satisfy zero
Dirichlet data by multiplication with a boundary cutoff, u = b * n_u, while
the control channel f = n_f is left free.

The Laplacian is obtained by propagating the value, the d first
derivatives and the Laplacian itself (the "forward Laplacian" layout)
through every affine map and tanh activation: an activation maps the
Laplacian stream L of its input y to s''(y) sum_i (d_i y)^2 + s'(y) L.  The
loss gradient with respect to every parameter is computed by one reverse
sweep over the recorded computation, which requires tanh's third
derivative (the Laplacian already consumes two); all three are formed from
the tanh values the forward sweep left on the tape.

Both sweeps write into workspaces, :class:`_Tape`, kept from call to call
and rebuilt when the network shape or point count changes, so a training
step allocates only per-point vectors.  When one stacked array is large,
the points are swept in two contiguous halves, each with its own workspace:
the caller's thread sweeps the first half and one helper thread the second.
The gradient is the first half's plus the second's, so its bits depend on
the problem size only.  Returned jets and gradients never alias a
workspace.  The sweeps use one helper thread inside; two callers still must
not run them at once.
"""
from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet
from .lagrangian import ProblemSpec, loss_parts, pointwise_gradients, target_values

_CHECKPOINT_MAGIC = b"DUZW-NET"
_CHECKPOINT_VERSION = 1


def _tanh_derivs(t, s1, s2):
    """First and second derivatives of tanh, from its values t, into s1 and s2."""
    np.multiply(t, t, out=s1)
    np.subtract(1.0, s1, out=s1)
    np.multiply(-2.0, t, out=s2)
    s2 *= s1


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
            raise ShapeError(
                f"flat parameter vector has length {flat.shape}, expected {spec.n_parameters}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("parameters contain non-finite entries")
        self.spec = spec
        self.flat = flat
        self.layers = _layer_views(spec, flat)

    def with_flat(self, flat: np.ndarray) -> "NetworkParameters":
        return NetworkParameters(self.spec, flat)


def init_network(spec: NetworkSpec) -> NetworkParameters:
    """Symmetric fan-in-scaled uniform weights, zero biases, seeded."""
    rng = np.random.default_rng(spec.seed)
    flat = np.zeros(spec.n_parameters)
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
    ``y[k]`` are layer k's stacked input and pre-activation; ``x[0]`` keeps
    its unit seeds, and a call writes only its points into the value rows.
    ``a_out`` is the output adjoint; the control column of its derivative
    rows stays zero.  Layers of one hidden width share ``adjoint[width]``
    (post-activation and next-layer adjoints, rows x width) and
    ``scratch[width]`` (s1, s2, s3, curvature, temporary, n x width).
    Every array but ``x[0]`` starts on a 64-byte cache line, and so does
    every stream block when the width is a multiple of 8: a vector store
    then never spans two lines.
    """

    __slots__ = ("x", "y", "a_out", "adjoint", "scratch")

    def __init__(self, dims: tuple[int, ...], n: int):
        d, hidden = dims[0], dims[1:-1]
        rows = n * (2 + d)
        self.x = [np.zeros((rows, d))] + [_aligned(rows, w) for w in hidden]
        self.y = [_aligned(rows, w) for w in dims[1:]]
        for i, blk in enumerate(_stream_blocks(n, d)[0]):
            self.x[0][blk, i] = 1.0
        self.a_out = _aligned(rows, dims[-1])
        self.adjoint = {w: [_aligned(rows, w) for _ in range(2)] for w in set(hidden)}
        self.scratch = {w: [_aligned(n, w) for _ in range(5)] for w in set(hidden)}


def _aligned(rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols) float64 array starting on a 64-byte boundary;
    numpy itself only promises 16."""
    buf = np.zeros(rows * cols + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + rows * cols].reshape(rows, cols)


# one workspace per (layer_dims, n_points, half): the halves of a mini-batch
# and of the full grid all stay, so none evicts another
_tape_for = functools.lru_cache(maxsize=4)(lambda dims, n, half: _Tape(dims, n))

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
    cpus = getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))
    if len(calls) == 1 or len(cpus(0)) == 1:
        return [fn(*args) for args in calls]
    future = _helper(os.getpid()).submit(np.errstate(**np.geterr())(fn), *calls[1])
    try:
        first = fn(*calls[0])
    finally:  # the helper is done with its workspace before this returns or raises
        second = future.result()
    return [first, second]


def _stream_blocks(n: int, d: int) -> tuple[list[slice], slice]:
    """Row slices of the d first-derivative blocks and the Laplacian block."""
    return [slice(n * (1 + i), n * (2 + i)) for i in range(d)], slice(n * (1 + d), None)


def _sweep_forward(layers, tape: _Tape, points: np.ndarray) -> tuple[np.ndarray, ...]:
    """Forward sweep of one half: the raw outputs' value, control, gradient
    and Laplacian rows, as views of the tape."""
    n, d = points.shape
    blocks, lap = _stream_blocks(n, d)
    x = tape.x[0]
    x[:n] = points
    for k, (w, b) in enumerate(layers):
        y = tape.y[k]
        np.matmul(x, w.T, out=y)
        y[:n] += b
        if k == len(layers) - 1:
            break
        x = tape.x[k + 1]
        s1, s2, _, _, tmp = tape.scratch[y.shape[1]]
        _tanh_derivs(np.tanh(y[:n], out=x[:n]), s1, s2)
        x_lap = x[lap]
        np.multiply(s1, y[lap], out=x_lap)
        for blk in blocks:
            np.multiply(s1, y[blk], out=x[blk])
            _add_product(x_lap, tmp, s2, y[blk], y[blk])
    return y[:n, 0], y[:n, 1], np.stack([y[blk, 0] for blk in blocks], axis=1), y[lap, 0]


def _forward(params: NetworkParameters, points: np.ndarray,
             cutoff: CutoffJet) -> tuple[JetBatch, list[tuple[_Tape, slice]]]:
    """Jets at the points, and each half's workspace with its point range."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != params.spec.input_dim:
        raise ShapeError(f"points have dimension {d}, network expects {params.spec.input_dim}")
    dims = params.spec.layer_dims
    sweeps = [(_tape_for(dims, h.stop - h.start, i), h) for i, h in enumerate(_halves(n, dims))]
    outs = _in_halves(_sweep_forward, [(params.layers, tape, points[h]) for tape, h in sweeps])
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

    It gives a run's final fields, the fields on the ``eval_refine`` grid,
    and the reference that :func:`grad_check` differences.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    layers = params.layers
    for k, (w, b) in enumerate(layers):
        y = x @ w.T + b
        x = np.tanh(y) if k < len(layers) - 1 else y
    return cutoff_values * x[:, 0], x[:, 1]


def loss_and_gradient(params: NetworkParameters, cset: CollocationSet,
                      problem: ProblemSpec, z: np.ndarray, beta: float = 0.0,
                      *, target: np.ndarray | None = None,
                      cutoff: CutoffJet | None = None) -> tuple[float, np.ndarray]:
    """Quadrature Lagrangian and its exact parameter gradient.

    The scalar equals ``loss_parts(...)["total"]`` of
    :mod:`deepuzawa.lagrangian` at the network jets; the gradient is the derivative of that scalar with respect
    to every entry of ``params.flat``, obtained by reverse accumulation
    through the full jet computation (Laplacian and cutoff terms included).

    ``target`` and ``cutoff`` may be precomputed once per grid and passed in;
    they default to the problem target and the domain cutoff.  As with
    :func:`batch_jets`, an overflow comes back as a non-finite loss or
    gradient, and the workspace for this network and point count stays
    allocated after the call.
    """
    if cutoff is None:
        cutoff = cutoff_jet(cset.domain, cset.points)
    jets, sweeps = _forward(params, cset.points, cutoff)
    loss, g_u, g_f, g_lap = pointwise_gradients(problem, cset, jets, z, beta, target)
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
    n = len(g_u)
    blocks, lap = _stream_blocks(n, params.spec.input_dim)
    b_val, b_grad, b_lap = cutoff.b, cutoff.grad, cutoff.lap
    a = tape.a_out
    a[:n, 0] = g_u * b_val + g_lap * b_lap
    a[:n, 1] = g_f
    for i, blk in enumerate(blocks):
        a[blk, 0] = 2.0 * g_lap * b_grad[:, i]
    a[lap, 0] = g_lap * b_val

    layers = params.layers
    grad_flat = np.empty_like(params.flat)
    grads = _layer_views(params.spec, grad_flat)
    for k in range(len(layers) - 1, -1, -1):
        gw, gb = grads[k]
        np.matmul(a.T, tape.x[k], out=gw)
        a[:n].sum(axis=0, out=gb)
        if k == 0:
            break
        w = layers[k][0]
        a_post, a_pre = tape.adjoint[w.shape[1]]
        np.matmul(a, w, out=a_post)  # adjoint of this layer's stacked input, post-activation
        y_prev = tape.y[k - 1]
        t = tape.x[k][:n]  # tanh of y_prev[:n], written by the forward sweep
        s1, s2, s3, curv, tmp = tape.scratch[w.shape[1]]
        _tanh_derivs(t, s1, s2)
        np.multiply(-2.0, s1, out=s3)  # s3 = -2 s1 (1 - 3 t^2)
        np.multiply(3.0, t, out=tmp)
        tmp *= t
        np.subtract(1.0, tmp, out=tmp)
        s3 *= tmp
        a_lap = a_post[lap]
        # d(Laplacian out)/d(value in) = s3 sum yp^2 + s2 L
        np.multiply(s2, y_prev[lap], out=curv)
        for blk in blocks:
            _add_product(curv, tmp, s3, y_prev[blk], y_prev[blk])
        a = a_pre
        a_val = a[:n]
        np.multiply(curv, a_lap, out=a_val)
        for blk in blocks:
            yp = y_prev[blk]
            _add_product(a_val, tmp, s2, yp, a_post[blk])
            np.multiply(s1, a_post[blk], out=a[blk])  # s1 a' + 2 s2 yp a_lap
            _add_product(a[blk], tmp, 2.0, s2, yp, a_lap)
        _add_product(a_val, tmp, s1, a_post[:n])
        np.multiply(s1, a_lap, out=a[lap])
    return grad_flat


def loss_value(params: NetworkParameters, cset: CollocationSet, problem: ProblemSpec,
               z: np.ndarray, beta: float = 0.0, *, target=None,
               cutoff: CutoffJet | None = None) -> float:
    """Loss alone, via the same jet computation as :func:`loss_and_gradient`."""
    if cutoff is None:
        cutoff = cutoff_jet(cset.domain, cset.points)
    jets = batch_jets(params, cset.points, cutoff)
    return loss_parts(problem, cset, jets, z, beta, target)["total"]


def finite_difference_gradient(params: NetworkParameters, cset: CollocationSet,
                               problem: ProblemSpec, z: np.ndarray, h: float,
                               beta: float = 0.0, *, target=None,
                               cutoff: CutoffJet | None = None) -> np.ndarray:
    """Central-difference gradient of the loss, component by component.

    Test oracle for :func:`loss_and_gradient`; O(n_params) loss evaluations.
    """
    if not h > 0:
        raise ValueError("finite difference step h must be positive")
    if cutoff is None:
        cutoff = cutoff_jet(cset.domain, cset.points)
    if target is None:
        target = target_values(problem, cset)
    flat = params.flat
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + h
        up = loss_value(params.with_flat(bumped), cset, problem, z, beta,
                        target=target, cutoff=cutoff)
        bumped[i] = flat[i] - h
        down = loss_value(params.with_flat(bumped), cset, problem, z, beta,
                          target=target, cutoff=cutoff)
        grad[i] = (up - down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# derivative checks

CHECK_BOUND = 1e-5  # largest relative error a derivative check accepts


def grad_check() -> dict[str, float]:
    """Relative errors of the Laplacian-jet and loss-gradient checks, by name.

    Each check passes when its error is at most ``CHECK_BOUND``.  Both use
    8x8 tanh networks with seeds 0-4.

    Laplacian jets, in 1d and 2d, at 50 random points against central second
    differences (h = 1e-3) of the cut state, relative to the largest
    Laplacian among the points: the difference's own O(h^2) truncation
    dominates pointwise ratios near zero crossings of lap u.

    Loss gradients of the sine1d problem (alpha = 1e-2, 16 points, random
    multiplier) against central differences (h = 1e-6), per component;
    components below 1e-3 of the largest are compared against that floor,
    since the difference carries ~1e-10 absolute rounding noise of its own.
    """
    errors = {}
    h = 1e-3
    for dim in (1, 2):
        domain = Domain(dim)
        for seed in range(5):
            params = init_network(NetworkSpec(dim, (8, 8), seed=seed))
            rng = np.random.default_rng(100 + seed)
            pts = rng.uniform(0.05, 0.95, size=(50, dim))
            cut = cutoff_jet(domain, pts)
            jets = batch_jets(params, pts, cut)
            mid, _ = evaluate(params, pts, cut.b)
            lap_fd = np.zeros(len(pts))
            for axis in range(dim):
                e = np.zeros(dim)
                e[axis] = h
                up, _ = evaluate(params, pts + e, cutoff_jet(domain, pts + e).b)
                dn, _ = evaluate(params, pts - e, cutoff_jet(domain, pts - e).b)
                lap_fd += (up - 2 * mid + dn) / h**2
            errors[f"laplacian jet d={dim} seed={seed}"] = float(
                np.abs(jets.lap_u - lap_fd).max() / np.abs(lap_fd).max())

    cset = build_grid(Domain.unit_interval(), 16)
    problem = ProblemSpec("sine1d", 1e-2)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=cset.n_interior)
        params = init_network(NetworkSpec(1, (8, 8), seed=seed))
        _, grad = loss_and_gradient(params, cset, problem, z)
        fd = finite_difference_gradient(params, cset, problem, z, 1e-6)
        scale = np.maximum(np.abs(fd), 1e-3 * np.abs(fd).max())
        errors[f"loss gradient seed={seed}"] = float(np.max(np.abs(grad - fd) / scale))
    return errors


# ---------------------------------------------------------------------------
# checkpoint io
#
# Layout (all little-endian):
#   8 bytes   magic "DUZW-NET"
#   int32     format version (1)
#   int32     input dimension d
#   int32     number of hidden layers
#   int32[]   hidden widths
#   int32     activation id (0 = tanh)
#   int64     init seed
#   int64     number of parameters
#   float64[] flat parameter vector (layer-major, weights then bias)


def save_checkpoint(params: NetworkParameters, path) -> None:
    spec = params.spec
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<ii", _CHECKPOINT_VERSION, spec.input_dim))
        fh.write(struct.pack("<i", len(spec.hidden)))
        fh.write(struct.pack(f"<{len(spec.hidden)}i", *spec.hidden))
        fh.write(struct.pack("<i", 0))  # activation id: tanh
        fh.write(struct.pack("<qq", spec.seed, spec.n_parameters))
        fh.write(params.flat.astype("<f8").tobytes())


def _read_exact(fh, size: int) -> bytes:
    # never ask for more than the file holds: a header may claim any size
    data = fh.read(min(size, os.fstat(fh.fileno()).st_size - fh.tell()))
    if len(data) != size:
        raise ValueError(f"truncated checkpoint: {size} bytes expected at offset "
                         f"{fh.tell() - len(data)}, {len(data)} left")
    return data


def load_checkpoint(path) -> NetworkParameters:
    """Read a :func:`save_checkpoint` file; a malformed or truncated file
    raises ValueError."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"not a network checkpoint (magic {magic!r})")
        version, input_dim = struct.unpack("<ii", _read_exact(fh, 8))
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (n_hidden,) = struct.unpack("<i", _read_exact(fh, 4))
        if n_hidden < 0:
            raise ValueError(f"negative hidden-layer count {n_hidden}")
        hidden = struct.unpack(f"<{n_hidden}i", _read_exact(fh, 4 * n_hidden))
        (act_id,) = struct.unpack("<i", _read_exact(fh, 4))
        seed, n_params = struct.unpack("<qq", _read_exact(fh, 16))
        if act_id != 0:
            raise ValueError(f"unknown activation id {act_id}")
        spec = NetworkSpec(input_dim, tuple(hidden), seed=seed)
        if n_params != spec.n_parameters:
            raise ValueError("checkpoint parameter count does not match its architecture")
        flat = np.frombuffer(_read_exact(fh, 8 * n_params), dtype="<f8").astype(float)
    return NetworkParameters(spec, flat)
