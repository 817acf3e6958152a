"""Experiment configuration files, greymap targets and CSV output.

Config files are plain ``key = value`` text: one pair per line, ``#``
starts a comment, keys may appear once.  Unknown keys, duplicate keys,
missing required keys and unparseable values are all reported with the
offending key name and line number, and so are the checks every
:class:`ExperimentConfig` runs when it is built, from a file or in code.

Recognised keys (defaults in parentheses):

  tag            experiment: sine1d | boundary_layer | sine2d | ac_sine |
                 ac_step | ac_image
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
  n_points       collocation points per axis, >= 3, with n_points**dim at
                 most sys.maxsize // 8 (201)
  seed           network initialisation seed, 0 <= seed < 2**63 (0)
  hidden_width   network width, >= 1 (64)
  hidden_depth   hidden layer count, >= 0 (3)
  image          greymap path; required by ac_image, refused by other tags
  output_dir     run directory (runs/<tag>)
  oracle_method  uzawa | projected | gauss_seidel | direct | all  (uzawa)
  oracle_iters   multiplier updates for oracle runs, >= 0 (200)
  precision_dps  decimal digits for oracle arithmetic, 1 to
                 decimal.MAX_PREC; float64 when absent
"""
from __future__ import annotations

import contextlib
import decimal
import itertools
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import get_args, get_type_hints

import numpy as np

from .closed_forms import EXPERIMENTS
from .geometry import CollocationSet

TAGS = tuple(EXPERIMENTS)
ORACLE_METHODS = ("uzawa", "projected", "gauss_seidel", "direct", "all")
# each tag-specific key is required by the tags whose row lists it, refused by the others
_TAG_KEYS = tuple(dict.fromkeys(key for row in EXPERIMENTS.values() for key in row.keys))


class ConfigError(ValueError):
    """Invalid experiment configuration: the bare message, the offending key
    and, when known, the 1-based line number."""

    def __init__(self, message, key=None, line=None):
        self.message = message
        self.key = key
        self.line = line
        prefix = "" if line is None else f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


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
    image: str | None = None
    output_dir: str | None = None
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
    return read_config(path)[0]


def read_config(path) -> tuple[ExperimentConfig, dict[str, int]]:
    """:func:`parse_config`, plus the keys the file sets, each with its
    1-based line, in file order."""
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
    lines = {key: lineno for key, (_, lineno) in entries.items()}
    try:
        return ExperimentConfig(**kwargs), lines
    except ConfigError as exc:  # name the line of the key, when the file has it
        raise ConfigError(exc.message, key=exc.key, line=lines.get(exc.key)) from None


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
    if not 0 <= cfg.seed < 2**63:
        raise ConfigError("seed must be in [0, 2**63)", key="seed")
    if cfg.n_points < 3:
        raise ConfigError("n_points must be at least 3", key="n_points")
    if cfg.n_points ** row.dim > sys.maxsize // 8:  # no float64 grid that large can exist
        raise ConfigError(f"n_points**{row.dim} must be at most {sys.maxsize // 8}",
                          key="n_points")
    if cfg.oracle_method not in ORACLE_METHODS:
        raise ConfigError(f"oracle_method must be one of {ORACLE_METHODS}", key="oracle_method")
    if cfg.oracle_iters < 0:
        raise ConfigError("oracle_iters must be nonnegative", key="oracle_iters")
    if cfg.precision_dps is not None and not 1 <= cfg.precision_dps <= decimal.MAX_PREC:
        raise ConfigError(f"precision_dps must be between 1 and {decimal.MAX_PREC}",
                          key="precision_dps")
    if cfg.rho is not None and cfg.beta is not None:
        raise ConfigError("rho steps the plain variant; beta the augmented", key="rho")
    for key in _TAG_KEYS:
        if getattr(cfg, key) is not None and key not in row.keys:
            users = tuple(tag for tag, other in EXPERIMENTS.items() if key in other.keys)
            raise ConfigError(f"{key} is used only by tags {users}", key=key)


# ---------------------------------------------------------------------------
# greymap target ingestion


def load_pgm_target(path) -> np.ndarray:
    """Read a P2 (ascii) or P5 (binary) greymap as a (height, width) array,
    row 0 at the top of the image, mapped affinely onto [-1, 1] (the
    double-well minima): pixel value 0 maps to -1 and maxval to +1, exactly.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # the tokens: runs of bytes that are neither whitespace nor '#'; a '#'
    # comment runs to the end of its line
    matches = (m for m in re.finditer(rb"#[^\n]*|[^\s#]+", data) if m[0][:1] != b"#")
    header = list(itertools.islice(matches, 4))
    if not header:
        raise ValueError("empty file")
    magic = header[0][0]
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"bad magic {magic!r}, expected P2 or P5")
    try:
        _, w_tok, h_tok, maxval_tok = (m[0] for m in header)
        if not (w_tok + h_tok + maxval_tok).isdigit():  # int() also takes a sign and "_"
            raise ValueError("PGM numbers are plain decimal digits")
        width, height, maxval = int(w_tok), int(h_tok), int(maxval_tok)
    except ValueError:
        raise ValueError("truncated or malformed header") from None
    if width < 2 or height < 2:
        raise ValueError("image must be at least 2x2")
    if not 0 < maxval <= 65535:  # the Netpbm limit
        raise ValueError(f"maxval must be in [1, 65535], got {maxval}")
    n_pixels = width * height
    if magic == b"P5":
        start = header[3].end() + 1  # single whitespace after maxval
        bytes_per = 1 if maxval < 256 else 2
        raw = data[start:start + n_pixels * bytes_per]
        if len(raw) < n_pixels * bytes_per:
            raise ValueError("truncated pixel data")
        dtype = np.uint8 if bytes_per == 1 else ">u2"
        pixels = np.frombuffer(raw, dtype=dtype, count=n_pixels).astype(float)
    else:
        vals = [m[0] for m in itertools.islice(matches, n_pixels)]
        if len(vals) < n_pixels:
            raise ValueError("truncated pixel data")
        if not all(v.isdigit() for v in vals):
            raise ValueError("non-numeric pixel data")
        # cap before the float conversion, which overflows past 308 digits;
        # a capped pixel still fails the maxval check below
        pixels = np.array([min(int(v), maxval + 1) for v in vals], dtype=float)
    if pixels.max() > maxval:
        raise ValueError("pixel value exceeds maxval")
    return (2.0 * pixels / maxval - 1.0).reshape(height, width)


def sample_image_on_grid(img: np.ndarray, cset: CollocationSet) -> np.ndarray:
    """Bilinear sample of the image onto a 2d collocation set.

    The image spans the unit square with pixel centres at the corners;
    row 0 sits at the top (largest second coordinate).
    """
    if cset.domain.dim != 2:
        raise ValueError("image targets need a 2d collocation set")
    height, width = img.shape
    x, y = cset.points[:, 0], cset.points[:, 1]
    px = x * (width - 1)
    py = (1.0 - y) * (height - 1)
    x0 = np.clip(np.floor(px).astype(int), 0, width - 2)
    y0 = np.clip(np.floor(py).astype(int), 0, height - 2)
    tx = px - x0
    ty = py - y0
    return ((1 - ty) * ((1 - tx) * img[y0, x0] + tx * img[y0, x0 + 1])
            + ty * ((1 - tx) * img[y0 + 1, x0] + tx * img[y0 + 1, x0 + 1]))


def target_on_grid(cfg: ExperimentConfig, cset: CollocationSet) -> np.ndarray:
    """The config's target at every point of ``cset``, for both solvers: the tag
    row's formula, evaluated nowhere else, an overflow unreported (``ProblemSpec``
    refuses a non-finite sample), or the ``image`` greymap sampled bilinearly."""
    row = EXPERIMENTS[cfg.tag]
    if row.target == "image":
        return sample_image_on_grid(load_pgm_target(cfg.image), cset)
    with np.errstate(over="ignore", invalid="ignore"):
        return row.target(cset.points, cfg.alpha, cfg.epsilon)


# ---------------------------------------------------------------------------
# CSV emission

# a run directory's files, of both solvers; floats in round-trip precision (repr)
RUN_FILES = (
    "Error.csv",        # update, state_l2_error, control_l2_error (when exact known)
    "Loss.csv",         # update, LOSS_COLUMNS
    "State.csv",        # one state value per line, grid order
    "Control.csv",      # one control value per line, grid order
    "meta.txt",         # key = value dump of the run setup, then the diverged_* fields set
    "Diagnostics.csv",  # the record's DIAGNOSTICS header, one row per update
    "params.npy",       # a network run's flat parameter vector, written by the cli
)
LOSS_COLUMNS = ("misfit", "multiplier_term", "control_norm_term", "regulariser_term")


@dataclass(kw_only=True)
class RunResult:
    """Final fields and per-update histories of a network run, an oracle
    iteration or a direct solve: ``z`` is the multiplier on the interior
    points, ``diagnostics`` one row per update under ``DIAGNOSTICS`` (whose
    first column counts the updates); :func:`emit_csv` skips a None history."""

    DIAGNOSTICS = ()  # Diagnostics.csv's header, set by each record type that has one

    u: np.ndarray
    f: np.ndarray
    z: np.ndarray
    loss_history: np.ndarray | None = None
    state_errors: np.ndarray | None = None
    control_errors: np.ndarray | None = None
    diagnostics: np.ndarray | None = None
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
    """Write the run directory of a :class:`RunResult`, its CSVs (Error.csv
    when it has error rows), meta.txt, then Diagnostics.csv, and return them;
    remove every other :data:`RUN_FILES` entry in ``out_dir``, params.npy
    too, which a network run's caller writes after, so only this run's are left."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def table(name, header, *columns):
        written.append(os.path.join(out_dir, name))
        write_csv(written[-1], header, *columns)

    if record.state_errors is not None and len(record.state_errors):
        table("Error.csv", ("update", "state_l2_error", "control_l2_error"),
              range(len(record.state_errors)), record.state_errors, record.control_errors)
    if record.loss_history is not None:
        loss = np.asarray(record.loss_history, dtype=float)
        table("Loss.csv", ("update", *LOSS_COLUMNS), range(len(loss)), *loss.T)
    table("State.csv", ("state",), record.u)
    table("Control.csv", ("control",), record.f)

    written.append(os.path.join(out_dir, "meta.txt"))
    with open(written[-1], "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in (meta or {}).items())
        fh.writelines(f"{key} = {getattr(record, key)}\n" for key in
                      ("diverged_at", "diverged_reason", "diverged_inner_step")
                      if getattr(record, key) is not None)
    if record.diagnostics is not None:
        table("Diagnostics.csv", record.DIAGNOSTICS, range(len(record.diagnostics)),
              *record.diagnostics.T)

    for path in {os.path.join(out_dir, name) for name in RUN_FILES}.difference(written):
        with contextlib.suppress(FileNotFoundError):  # an earlier run's file, if any
            os.remove(path)
    return written


def read_csv(path):
    """Round-trip reader for the files written by :func:`emit_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    # a header-only file (a run that diverged at update 0) reads as (0, columns)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))
