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
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, ShapeError
from .geometry import CollocationSet, CutoffJet, Domain, build_grid, cutoff_jet
from .lagrangian import (MultiplierField, ProblemSpec, TargetSpec, loss_parts,
                         pointwise_gradients, target_values)

_CHECKPOINT_MAGIC = b"DUZW-NET"
_CHECKPOINT_VERSION = 1


def _tanh_derivs(t):
    """First and second derivatives of tanh, from its values t."""
    s1 = 1.0 - t * t
    return s1, -2.0 * t * s1


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
    def output_dim(self) -> int:
        return 2

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.output_dim)

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
    grad_u: np.ndarray   # (n, d)
    lap_u: np.ndarray    # (n,)


def _unit_cutoff(points: np.ndarray) -> CutoffJet:
    n, d = points.shape
    return CutoffJet(np.ones(n), np.zeros((n, d)), np.zeros(n))


class _Tape:
    """Recorded forward pass, enough for one reverse sweep.

    All derivative streams share each layer's matrix product: rows of the
    stacked activations hold n value rows, then d first-derivative blocks
    of n rows each, then one block of n Laplacian rows.
    """

    __slots__ = ("x", "y")

    def __init__(self):
        self.x, self.y = [], []


def _stream_blocks(n: int, d: int) -> tuple[list[slice], slice]:
    """Row slices of the d first-derivative blocks and the Laplacian block."""
    return [slice(n * (1 + i), n * (2 + i)) for i in range(d)], slice(n * (1 + d), None)


def _forward(params: NetworkParameters, points: np.ndarray,
             cutoff: CutoffJet | None, need_tape: bool) -> tuple[JetBatch, _Tape | None]:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if d != params.spec.input_dim:
        raise ShapeError(f"points have dimension {d}, network expects {params.spec.input_dim}")
    if cutoff is None:
        cutoff = _unit_cutoff(points)
    layers = params.layers
    n_layers = len(layers)
    blocks, lap = _stream_blocks(n, d)

    tape = _Tape() if need_tape else None
    x = np.zeros((n * (2 + d), d))
    x[:n] = points
    for i, blk in enumerate(blocks):
        x[blk, i] = 1.0
    for k, (w, b) in enumerate(layers):
        y = x @ w.T
        y[:n] += b
        if need_tape:
            tape.x.append(x)
            tape.y.append(y)
        if k < n_layers - 1:
            x = np.empty_like(y)
            s1, s2 = _tanh_derivs(np.tanh(y[:n], out=x[:n]))
            x_lap = x[lap]
            np.multiply(s1, y[lap], out=x_lap)
            for blk in blocks:
                yp = y[blk]
                np.multiply(s1, yp, out=x[blk])
                x_lap += s2 * yp * yp
        else:
            out = y

    n_u = out[:n, 0]
    f = out[:n, 1]
    grad_n = np.stack([out[blk, 0] for blk in blocks], axis=1)
    lap_n = out[lap, 0]

    b_val, b_grad, b_lap = cutoff.b, cutoff.grad, cutoff.lap
    u = b_val * n_u
    grad_u = b_grad * n_u[:, None] + b_val[:, None] * grad_n
    lap_u = b_lap * n_u + 2.0 * np.sum(b_grad * grad_n, axis=1) + b_val * lap_n

    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(f)) and np.all(np.isfinite(lap_u))):
        raise NumericOverflowError("network evaluation produced non-finite values")
    return JetBatch(u, f, grad_u, lap_u), tape


def batch_jets(params: NetworkParameters, points: np.ndarray,
               cutoff: CutoffJet | None = None) -> JetBatch:
    """Vectorised jets (u, f, grad u, lap u) at a batch of points.

    ``cutoff`` supplies the boundary function with its derivatives at the
    points; pass None to evaluate the raw (uncut) network channels.
    """
    jets, _ = _forward(params, points, cutoff, need_tape=False)
    return jets


def evaluate(params: NetworkParameters, points: np.ndarray,
             cutoff_values: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Plain forward evaluation of (u, f) without derivative streams.

    Used by finite-difference oracles that re-difference the scalar output.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    layers = params.layers
    for k, (w, b) in enumerate(layers):
        y = x @ w.T + b
        x = np.tanh(y) if k < len(layers) - 1 else y
    n_u, f = x[:, 0], x[:, 1]
    if cutoff_values is None:
        return n_u, f
    return cutoff_values * n_u, f


def loss_and_gradient(params: NetworkParameters, cset: CollocationSet,
                      problem: ProblemSpec, z: MultiplierField, beta: float = 0.0,
                      *, target: np.ndarray | None = None,
                      cutoff: CutoffJet | None = None) -> tuple[float, np.ndarray]:
    """Quadrature Lagrangian and its exact parameter gradient.

    The scalar equals :func:`deepuzawa.lagrangian.discrete_lagrangian` at the
    network jets; the gradient is the derivative of that scalar with respect
    to every entry of ``params.flat``, obtained by reverse accumulation
    through the full jet computation (Laplacian and cutoff terms included).

    ``target`` and ``cutoff`` may be precomputed once per grid and passed in;
    they default to the problem target and the domain cutoff.
    """
    if cutoff is None:
        cutoff = cutoff_jet(cset.domain, cset.points)
    if target is None:
        target = target_values(problem, cset)
    jets, tape = _forward(params, cset.points, cutoff, need_tape=True)
    loss, g_u, g_f, g_lap = pointwise_gradients(problem, cset, jets, z, beta, target)

    # map adjoints of (u, lap u) back to the raw network outputs through
    # u = b n,  lap u = (lap b) n + 2 grad b . grad n + b lap n
    b_val, b_grad, b_lap = cutoff.b, cutoff.grad, cutoff.lap
    a_n_u = g_u * b_val + g_lap * b_lap
    a_grad_n = 2.0 * g_lap[:, None] * b_grad
    a_lap_n = g_lap * b_val

    d = params.spec.input_dim
    layers = params.layers
    n_layers = len(layers)
    n = cset.n_points

    # stacked adjoint matching the forward block layout
    blocks, lap = _stream_blocks(n, d)
    a = np.zeros((n * (2 + d), 2))
    a[:n, 0] = a_n_u
    a[:n, 1] = g_f
    for i, blk in enumerate(blocks):
        a[blk, 0] = a_grad_n[:, i]
    a[lap, 0] = a_lap_n

    grad_flat = np.empty_like(params.flat)
    grads = _layer_views(params.spec, grad_flat)
    for k in range(n_layers - 1, -1, -1):
        gw, gb = grads[k]
        np.matmul(a.T, tape.x[k], out=gw)
        a[:n].sum(axis=0, out=gb)
        if k == 0:
            break
        a_post = a @ layers[k][0]  # adjoint of this layer's stacked input, post-activation
        y_prev = tape.y[k - 1]
        t = tape.x[k][:n]  # tanh of y_prev[:n], written by the forward sweep
        s1, s2 = _tanh_derivs(t)
        s3 = -2.0 * s1 * (1.0 - 3.0 * t * t)
        a_lap = a_post[lap]
        curv = s2 * y_prev[lap]  # d(Laplacian out)/d(value in) = s3 sum yp^2 + s2 L
        for blk in blocks:
            curv += s3 * y_prev[blk] * y_prev[blk]
        a = np.empty_like(a_post)
        a_val = a[:n]
        np.multiply(curv, a_lap, out=a_val)
        for blk in blocks:
            yp = y_prev[blk]
            a_val += s2 * yp * a_post[blk]
            a[blk] = s1 * a_post[blk] + 2.0 * s2 * yp * a_lap
        a_val += s1 * a_post[:n]
        np.multiply(s1, a_lap, out=a[lap])

    return loss, grad_flat


def loss_value(params: NetworkParameters, cset: CollocationSet, problem: ProblemSpec,
               z: MultiplierField, beta: float = 0.0, *, target=None,
               cutoff: CutoffJet | None = None) -> float:
    """Loss alone, via the same jet computation as :func:`loss_and_gradient`."""
    if cutoff is None:
        cutoff = cutoff_jet(cset.domain, cset.points)
    jets = batch_jets(params, cset.points, cutoff)
    return loss_parts(problem, cset, jets, z, beta, target)["total"]


def finite_difference_gradient(params: NetworkParameters, cset: CollocationSet,
                               problem: ProblemSpec, z: MultiplierField, h: float,
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
        domain = Domain.unit_interval() if dim == 1 else Domain.unit_square()
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
    problem = ProblemSpec("poisson", 1e-2, TargetSpec("sine1d"))
    for seed in range(5):
        rng = np.random.default_rng(seed)
        z = MultiplierField(rng.normal(size=cset.n_interior))
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
    data = fh.read(size)
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
