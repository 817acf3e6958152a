"""Experiment configuration files, greymap targets and CSV output.

Config files are plain ``key = value`` text: one pair per line, ``#``
starts a comment, keys may appear once.  Unknown keys, duplicate keys,
missing required keys and unparseable values are all reported with the
offending key name and line number, and so are the checks every
:class:`ExperimentConfig` runs when it is built, from a file or in code.

Recognised keys (defaults in parentheses):

  tag            experiment: sine1d | boundary_layer | sine2d | ac_sine |
                 ac_step | ac_image | fd_oracle
  alpha          regularisation weight, > 0 and finite (1e-4)
  epsilon        Allen-Cahn interface width, > 0, with epsilon**2 and
                 1/epsilon**2 finite and nonzero; required by ac_* tags, refused by others
  rho            multiplier step of the plain variant, > 0 and finite;
                 not with beta (alpha / 4)
  beta           penalty weight and multiplier step, > 0 and finite;
                 setting it selects the augmented variant
  n_uzawa        outer multiplier updates, >= 1 (500)
  n_sgd          inner optimiser steps per update, >= 1 (40)
  learning_rate  Adam step size, > 0 and finite (1e-3)
  n_points       collocation points per axis, >= 3 (201)
  seed           run seed, 0 <= seed < 2**63 (0)
  hidden_width   network width, >= 1 (64)
  hidden_depth   hidden layer count, >= 0 (3)
  batch_size     mini-batch size, >= 1; full batch when absent
  image          greymap path; required by ac_image, refused by other tags
  output_dir     run directory (runs/<tag>)
  eval_refine    extra evaluation grid refinement factor, >= 1 (1)
  oracle_method  uzawa | projected | gauss_seidel | direct | all  (uzawa)
  oracle_iters   multiplier updates for oracle runs, >= 0 (200)
  precision_dps  decimal digits for oracle arithmetic, 1 to
                 decimal.MAX_PREC - 10; float64 when absent
"""
from __future__ import annotations

import decimal
import math
import os
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from .closed_forms import EXPERIMENTS
from .errors import ConfigError, PgmError
from .geometry import CollocationSet

TAGS = tuple(EXPERIMENTS)
ORACLE_METHODS = ("uzawa", "projected", "gauss_seidel", "direct", "all")
# each tag-specific key is required by the tags whose row lists it, refused by the others
_TAG_KEYS = tuple(dict.fromkeys(key for row in EXPERIMENTS.values() for key in row.keys))


@dataclass(frozen=True)
class ExperimentConfig:
    tag: str
    alpha: float = 1e-4
    epsilon: float | None = None
    rho: float | None = None
    beta: float | None = None
    n_uzawa: int = 500
    n_sgd: int = 40
    learning_rate: float = 1e-3
    n_points: int = 201
    seed: int = 0
    hidden_width: int = 64
    hidden_depth: int = 3
    batch_size: int | None = None
    image: str | None = None
    output_dir: str | None = None
    eval_refine: int = 1
    oracle_method: str = "uzawa"
    oracle_iters: int = 200
    precision_dps: int | None = None

    def __post_init__(self):
        if self.output_dir is None:
            object.__setattr__(self, "output_dir", os.path.join("runs", self.tag))
        _check(self)

    @property
    def resolved_rho(self) -> float:
        """The multiplier step: ``rho`` when set, else the default alpha / 4."""
        return self.alpha / 4.0 if self.rho is None else self.rho


# key -> value parser: the field's type, without the None of optional keys
_SCHEMA = {key: next(t for t in get_args(hint) or (hint,) if t is not type(None))
           for key, hint in get_type_hints(ExperimentConfig).items()}


def parse_config(path) -> ExperimentConfig:
    """Read and validate a key = value experiment file."""
    entries: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _SCHEMA:
                raise ConfigError("unknown key", key=key, line=lineno)
            if key in entries:
                raise ConfigError("duplicate key", key=key, line=lineno)
            if not value:
                raise ConfigError("empty value", key=key, line=lineno)
            entries[key] = (value, lineno)

    if "tag" not in entries:
        raise ConfigError("missing required key", key="tag")

    kwargs = {}
    for key, (text, lineno) in entries.items():
        try:
            kwargs[key] = _SCHEMA[key](text)
        except ValueError:
            raise ConfigError(
                f"cannot parse {text!r} as {_SCHEMA[key].__name__}", key=key, line=lineno
            ) from None
    try:
        return ExperimentConfig(**kwargs)
    except ConfigError as exc:  # name the line of the key, when the file has it
        line = entries[exc.key][1] if exc.key in entries else None
        raise ConfigError(exc.message, key=exc.key, line=line) from None


def _check(cfg: ExperimentConfig):
    """Raise ConfigError naming the key unless every field is in range, the
    tag has the keys it requires and no key is set that the run ignores."""
    if cfg.tag not in TAGS:
        raise ConfigError(f"unknown tag {cfg.tag!r}, expected one of {TAGS}", key="tag")
    row = EXPERIMENTS[cfg.tag]
    for key in row.keys:
        if getattr(cfg, key) is None:
            raise ConfigError(f"tag {cfg.tag!r} requires {key}", key=key)
    if cfg.epsilon is not None:
        if not 0 < cfg.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite", key="epsilon")
        try:  # the Allen-Cahn operator and targets scale by 1/epsilon**2 in float64
            inv2_ok = math.isfinite(1.0 / cfg.epsilon**2)
        except ArithmeticError:  # epsilon**2 underflowed to 0 or overflowed
            inv2_ok = False
        if not inv2_ok:
            raise ConfigError("epsilon**2 and 1/epsilon**2 must be finite and nonzero",
                              key="epsilon")
    for key in ("alpha", "beta", "rho", "learning_rate"):
        value = getattr(cfg, key)
        if value is not None and not 0 < value < math.inf:
            raise ConfigError(f"{key} must be positive and finite", key=key)
    for key in ("n_uzawa", "n_sgd", "hidden_width"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be at least 1", key=key)
    if cfg.hidden_depth < 0:
        raise ConfigError("hidden_depth must be nonnegative", key="hidden_depth")
    if not 0 <= cfg.seed < 2**63:  # the checkpoint stores it as an int64
        raise ConfigError("seed must be in [0, 2**63)", key="seed")
    if cfg.n_points < 3:
        raise ConfigError("n_points must be at least 3", key="n_points")
    if cfg.eval_refine < 1:
        raise ConfigError("eval_refine must be at least 1", key="eval_refine")
    if cfg.oracle_method not in ORACLE_METHODS:
        raise ConfigError(f"oracle_method must be one of {ORACLE_METHODS}", key="oracle_method")
    if cfg.oracle_iters < 0:
        raise ConfigError("oracle_iters must be nonnegative", key="oracle_iters")
    # the oracle sums pi and sines with ten guard digits
    if cfg.precision_dps is not None and not 1 <= cfg.precision_dps <= decimal.MAX_PREC - 10:
        raise ConfigError(f"precision_dps must be between 1 and {decimal.MAX_PREC - 10}",
                          key="precision_dps")
    if cfg.batch_size is not None and cfg.batch_size < 1:
        raise ConfigError("batch_size must be positive", key="batch_size")
    if cfg.rho is not None and cfg.beta is not None:
        raise ConfigError("rho steps the plain variant; beta the augmented", key="rho")
    for key in _TAG_KEYS:
        if getattr(cfg, key) is not None and key not in row.keys:
            users = tuple(tag for tag, other in EXPERIMENTS.items() if key in other.keys)
            raise ConfigError(f"{key} is used only by tags {users}", key=key)


# ---------------------------------------------------------------------------
# greymap target ingestion


@dataclass
class ImageTarget:
    """Greyscale image mapped affinely onto [-1, 1] (the double-well minima)."""

    width: int
    height: int
    values: np.ndarray  # (height, width), row 0 at the top of the image


def load_pgm_target(path) -> ImageTarget:
    """Read a P2 (ascii) or P5 (binary) greymap and normalise to [-1, 1].

    Pixel value 0 maps to -1 and maxval to +1, exactly.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def tokens(buf):
        # header tokens; '#' comments run to end of line
        i = 0
        while i < len(buf):
            c = buf[i:i + 1]
            if c.isspace():
                i += 1
            elif c == b"#":
                j = buf.find(b"\n", i)
                i = len(buf) if j < 0 else j + 1
            else:
                j = i
                while j < len(buf) and not buf[j:j + 1].isspace() and buf[j:j + 1] != b"#":
                    j += 1
                yield i, buf[i:j]
                i = j

    it = tokens(data)
    try:
        _, magic = next(it)
    except StopIteration:
        raise PgmError("empty file") from None
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"bad magic {magic!r}, expected P2 or P5")
    try:
        _, w_tok = next(it)
        _, h_tok = next(it)
        maxval_pos, maxval_tok = next(it)
        if not (w_tok + h_tok + maxval_tok).isdigit():  # int() also takes a sign and "_"
            raise ValueError("PGM numbers are plain decimal digits")
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except (StopIteration, ValueError):
        raise PgmError("truncated or malformed header") from None
    if width < 2 or height < 2:
        raise PgmError("image must be at least 2x2")
    if maxval <= 0:
        raise PgmError(f"maxval must be positive, got {maxval}")
    n_pixels = width * height
    if magic == b"P5":
        start = maxval_pos + len(maxval_tok) + 1  # single whitespace after maxval
        bytes_per = 1 if maxval < 256 else 2
        raw = data[start:start + n_pixels * bytes_per]
        if len(raw) < n_pixels * bytes_per:
            raise PgmError("truncated pixel data")
        dtype = np.uint8 if bytes_per == 1 else ">u2"
        pixels = np.frombuffer(raw, dtype=dtype, count=n_pixels).astype(float)
    else:
        vals = []
        for _, tok in it:
            vals.append(tok)
            if len(vals) == n_pixels:
                break
        if len(vals) < n_pixels:
            raise PgmError("truncated pixel data")
        if not all(v.isdigit() for v in vals):
            raise PgmError("non-numeric pixel data")
        pixels = np.array([int(v) for v in vals], dtype=float)
    if pixels.max() > maxval:
        raise PgmError("pixel value exceeds maxval")
    values = (2.0 * pixels / maxval - 1.0).reshape(height, width)
    return ImageTarget(width, height, values)


def sample_image_on_grid(img: ImageTarget, cset: CollocationSet) -> np.ndarray:
    """Bilinear sample of the image onto a 2d collocation set.

    The image spans the unit square with pixel centres at the corners;
    row 0 sits at the top (largest second coordinate).
    """
    if cset.domain.dim != 2:
        raise ValueError("image targets need a 2d collocation set")
    x, y = cset.points[:, 0], cset.points[:, 1]
    px = x * (img.width - 1)
    py = (1.0 - y) * (img.height - 1)
    x0 = np.clip(np.floor(px).astype(int), 0, img.width - 2)
    y0 = np.clip(np.floor(py).astype(int), 0, img.height - 2)
    tx = px - x0
    ty = py - y0
    v = img.values
    return ((1 - ty) * ((1 - tx) * v[y0, x0] + tx * v[y0, x0 + 1])
            + ty * ((1 - tx) * v[y0 + 1, x0] + tx * v[y0 + 1, x0 + 1]))


# ---------------------------------------------------------------------------
# CSV emission
#
# Per-run directory schema shared by the network driver and the oracle:
#   Error.csv   update, state_l2_error, control_l2_error   (when exact known)
#   Loss.csv    update, misfit, multiplier_term, control_norm_term,
#               regulariser_term
#   State.csv   one state value per line, grid order
#   Control.csv one control value per line, grid order
#   meta.txt    key = value dump of the run setup, then the diverged_* fields
#               that are set
# Floats are written with round-trip precision (repr).


@dataclass(kw_only=True)
class RunResult:
    """Final fields and per-update histories of a network run, an oracle
    iteration or a direct solve; :func:`emit_csv` skips a None history."""

    u: np.ndarray
    f: np.ndarray
    loss_history: np.ndarray | None = None
    state_errors: np.ndarray | None = None
    control_errors: np.ndarray | None = None
    diverged_at: int | None = None
    diverged_reason: str | None = None      # network runs: which check failed
    diverged_inner_step: int | None = None  # network runs: the Adam step, if one failed


def write_csv(path, header, *columns):
    """One CSV file: the header, then one line per row of ``columns``, one
    ``range`` or array each; a range's integers as str, other values as the
    repr of their float."""
    text = [map(str, c) if isinstance(c, range) else map(repr, np.asarray(c, dtype=float).tolist())
            for c in columns]
    lines = [",".join(header), *map(",".join, zip(*text))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_csv(record: RunResult, out_dir, meta: dict | None = None) -> list[str]:
    """Write the CSVs and meta.txt of a :class:`RunResult`; returns the files
    written.  Error.csv and Loss.csv are left out when their histories are
    None."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    if record.state_errors is not None and len(record.state_errors):
        path = os.path.join(out_dir, "Error.csv")
        write_csv(path, ("update", "state_l2_error", "control_l2_error"),
                  range(len(record.state_errors)), record.state_errors, record.control_errors)
        written.append(path)

    if record.loss_history is not None:
        loss = np.asarray(record.loss_history, dtype=float)
        path = os.path.join(out_dir, "Loss.csv")
        write_csv(path, ("update", "misfit", "multiplier_term", "control_norm_term",
                         "regulariser_term"), range(len(loss)), *loss.T)
        written.append(path)

    for name, values in (("State.csv", record.u), ("Control.csv", record.f)):
        path = os.path.join(out_dir, name)
        write_csv(path, (name[:-4].lower(),), values)
        written.append(path)

    path = os.path.join(out_dir, "meta.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"{key} = {value}\n")
        for key in ("diverged_at", "diverged_reason", "diverged_inner_step"):
            if getattr(record, key) is not None:
                fh.write(f"{key} = {getattr(record, key)}\n")
    written.append(path)
    return written


def read_csv(path):
    """Round-trip reader for the files written by :func:`emit_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    # a header-only file (a run that diverged at update 0) reads as (0, columns)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))
