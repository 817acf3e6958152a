import contextlib
import dataclasses
import decimal
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from deepuzawa import cli, config, driver
from deepuzawa.cli import main, sweep_configs
from deepuzawa.closed_forms import EXPERIMENTS
from deepuzawa.config import (_SCHEMA, ConfigError, ExperimentConfig, RunResult, emit_csv,
                              load_pgm_target, parse_config, read_config, read_csv,
                              sample_image_on_grid, write_csv)
from deepuzawa.fd_oracle import (Grid1D, fd_direct_kkt_solve, fd_projected_uzawa_run,
                                 fd_uzawa_run, gauss_seidel_adjoint_run, sine_target,
                                 uzawa_step_bounds)
from deepuzawa.geometry import Domain, build_grid
from deepuzawa.network import NetworkParameters, NetworkSpec, batch_jets
from deepuzawa.parallel import usable_cpus
from reference_checks import assert_no_child_left


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _with_src(env):
    """``env`` with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "tag = sine1d\nalpha = 1e-4\n"))
    assert cfg.tag == "sine1d"
    assert cfg.alpha == 1e-4
    assert cfg.learning_rate == 1e-3
    assert cfg.n_sgd == 40
    assert cfg.n_uzawa == 500
    assert cfg.n_points == 201
    assert cfg.output_dir == os.path.join("runs", "sine1d")


def test_comments_and_blank_lines(tmp_path):
    text = "# full line comment\n\ntag = sine1d  # trailing comment\nalpha = 1e-2\n"
    cfg = parse_config(write(tmp_path, text))
    assert cfg.alpha == 1e-2


def test_missing_epsilon_names_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = ac_sine\nalpha = 1e-4\n"))
    assert err.value.key == "epsilon"


def test_duplicate_key_names_key_and_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = sine1d\nalpha = 1\nalpha = 2\n"))
    assert err.value.key == "alpha"
    assert err.value.line == 3


def test_unknown_key_reports_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = sine1d\nalfa = 1\n"))
    assert err.value.key == "alfa"
    assert err.value.line == 2


def test_type_error_reports_key_and_line(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = sine1d\nn_uzawa = many\n"))
    assert err.value.key == "n_uzawa"
    assert err.value.line == 2


@pytest.mark.parametrize("line, message", [
    ("alpha 1e-2", "line 2: expected 'key = value'"),
    ("alpha =  # no value", "line 2: key 'alpha': empty value"),
])
def test_cli_names_the_line_of_a_malformed_entry(tmp_path, capsys, line, message):
    assert main(["-q", "run", write(tmp_path, f"tag = sine1d\n{line}\n")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_missing_tag(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "alpha = 1e-4\n"))
    assert err.value.key == "tag"


def test_grad_check_tag_is_unknown(tmp_path):
    # grad-check reads no config, so no config may name it
    with pytest.raises(ConfigError, match="unknown tag") as err:
        parse_config(write(tmp_path, "alpha = 1e-4\ntag = grad_check\n"))
    assert err.value.key == "tag"
    assert err.value.line == 2


@pytest.mark.parametrize("key, value", [
    ("oracle_iters", "-1"), ("precision_dps", "0"), ("precision_dps", "-5"),
    # above decimal.MAX_PREC (999999999999999999 on 64-bit builds)
    ("precision_dps", "99999999999999999999"), ("precision_dps", "1000000000000000000"),
    ("hidden_depth", "-1"), ("learning_rate", "-1"), ("learning_rate", "0"),
    ("n_uzawa", "0"), ("n_sgd", "0"), ("hidden_width", "0"), ("rho", "0"), ("rho", "-1"),
    ("alpha", "inf"), ("epsilon", "inf"), ("rho", "inf"), ("beta", "inf"),
    ("learning_rate", "inf"), ("seed", "-1"), ("oracle_method", "newton"), ("n_points", "2"),
])
def test_out_of_range_value_names_key_and_line(tmp_path, capsys, key, value):
    second = ("seed", "0") if key == "alpha" else ("alpha", "1e-2")
    path = write(tmp_path, f"tag = sine1d\n{second[0]} = {second[1]}\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="must be") as err:
        parse_config(path)
    assert err.value.key == key
    assert err.value.line == 3
    # the CLI checks the whole file before it asks which keys the subcommand reads
    assert main(["-q", "run", path]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
    # the same check on a config built in code, which has no line to name
    with pytest.raises(ConfigError) as built:
        ExperimentConfig("sine1d", **{k: _SCHEMA[k](v) for k, v in (second, (key, value))})
    assert (built.value.key, built.value.line) == (key, None)
    assert built.value.message == err.value.message
    assert str(built.value) == f"key '{key}': {err.value.message}"


def test_precision_dps_up_to_decimal_max_prec(tmp_path):
    cfg = parse_config(write(tmp_path, f"tag = sine1d\nprecision_dps = {decimal.MAX_PREC}\n"))
    assert cfg.precision_dps == decimal.MAX_PREC


@pytest.mark.parametrize("tag, key, value", [
    ("sine1d", "epsilon", 0.1), ("boundary_layer", "epsilon", 0.1),
    ("sine1d", "image", "nothing.pgm"),
    ("ac_sine", "image", "nothing.pgm"),
])
def test_key_the_run_ignores_names_key_and_line(tmp_path, tag, key, value):
    # an ac_sine run needs its epsilon, and ignores an image like sine1d ignores both
    extra = {"epsilon": 0.5} if tag == "ac_sine" else {}
    text = "".join(f"{k} = {v}\n" for k, v in {"tag": tag, key: value, **extra}.items())
    with pytest.raises(ConfigError, match="used only by") as err:
        parse_config(write(tmp_path, text))
    assert (err.value.key, err.value.line) == (key, 2)
    with pytest.raises(ConfigError, match="used only by") as built:
        ExperimentConfig(tag, **{key: value}, **extra)
    assert (built.value.key, built.value.line) == (key, None)


def test_config_docstring_lists_every_field_in_order():
    table = config.__doc__.split("Recognised keys", 1)[1]
    listed = [line.split()[0] for line in table.splitlines()
              if line.startswith("  ") and not line.startswith("   ")]
    assert listed == [f.name for f in fields(ExperimentConfig)]


def test_config_docstring_lists_the_tags_in_table_order():
    table = config.__doc__.split("Recognised keys", 1)[1]
    entry = table.split("\n  tag ", 1)[1].split("\n  alpha ", 1)[0]
    assert [tag.strip() for tag in entry.split(":", 1)[1].split("|")] == list(EXPERIMENTS)


def test_config_is_immutable_and_replace_runs_the_check():
    # a field set after the check would skip it: n_sgd = 0 left the run's
    # gradient unbound
    cfg = ExperimentConfig("sine1d", n_sgd=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.n_sgd = 0
    with pytest.raises(ConfigError, match="n_sgd must be at least 1") as err:
        dataclasses.replace(cfg, n_sgd=0)
    assert err.value.key == "n_sgd"


TINY_RUN = "n_uzawa = 1\nn_sgd = 1\nn_points = 5\nhidden_width = 2\nhidden_depth = 1\n"


@pytest.mark.parametrize("eps", ["1e-200", "1e-160", "1e200"])
def test_epsilon_without_finite_inverse_square_names_key_and_line(tmp_path, capsys, eps):
    # 1e-200 squares to 0, 1e-160 to a subnormal whose inverse is inf, and
    # 1e200 overflows: the Allen-Cahn terms could not be formed
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = ac_sine\nepsilon = {eps}\n{TINY_RUN}output_dir = {out}\n")
    with pytest.raises(ConfigError, match="1/epsilon") as err:
        parse_config(cfg)
    assert (err.value.key, err.value.line) == ("epsilon", 2)
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: key 'epsilon': epsilon**2 and 1/epsilon**2 must be finite and nonzero"]
    assert not out.exists()


def test_small_and_large_epsilon_with_finite_inverse_square_parse(tmp_path):
    for eps in ("1e-150", "1e150"):
        cfg = write(tmp_path, f"tag = ac_sine\nepsilon = {eps}\n")
        assert parse_config(cfg).epsilon == float(eps)


@pytest.mark.parametrize("seed", [-1, 2**63])
def test_seed_out_of_range_names_key_and_line(tmp_path, capsys, seed):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\nseed = {seed}\n{TINY_RUN}output_dir = {out}\n")
    with pytest.raises(ConfigError, match="seed must be") as err:
        parse_config(cfg)
    assert (err.value.key, err.value.line) == ("seed", 2)
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: key 'seed': seed must be in [0, 2**63)"]
    assert not out.exists()


@pytest.mark.parametrize("tag, n_points, ok", [
    ("sine1d", 2**60, False), ("sine1d", 2**60 - 1, True),
    ("sine2d", 2**30, False), ("sine2d", 2**30 - 1, True),
])
def test_n_points_beyond_any_float64_grid_is_refused(tmp_path, tag, n_points, ok):
    # parse only: a grid of sys.maxsize // 8 float64 values would fill the address space
    cfg = write(tmp_path, f"tag = {tag}\nn_points = {n_points}\n")
    if ok:
        assert parse_config(cfg).n_points == n_points
        return
    with pytest.raises(ConfigError, match="n_points") as err:
        parse_config(cfg)
    assert (err.value.key, err.value.line) == ("n_points", 2)


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_cli_n_points_too_large_for_an_array_is_one_line(tmp_path, capsys, command):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\nn_points = {2**63 - 1}\noutput_dir = {out}\n")
    assert main(["-q", command, cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 2: key 'n_points': ")
    assert not out.exists()


def test_largest_seed_round_trips_through_the_checkpoint(tmp_path):
    cfg = write(tmp_path, f"tag = sine1d\nseed = {2**63 - 1}\n{TINY_RUN}output_dir = {tmp_path}\n")
    assert main(["-q", "run", cfg]) == 0
    meta = _read_meta(tmp_path / "meta.txt")
    assert meta["seed"] == "9223372036854775807"
    assert np.load(tmp_path / "params.npy").shape == (int(meta["n_parameters"]),)


@pytest.mark.parametrize("tag, n_points", [("sine1d", 9), ("sine2d", 5)])
def test_params_npy_and_meta_rebuild_the_written_fields(tmp_path, tag, n_points):
    # meta.txt gives the architecture and seed, params.npy the flat vector
    cfg = write(tmp_path, f"tag = {tag}\nn_uzawa = 2\nn_sgd = 2\nn_points = {n_points}\n"
                          f"hidden_width = 4\nhidden_depth = 2\nseed = 7\n"
                          f"output_dir = {tmp_path}\n")
    assert main(["-q", "run", cfg]) == 0
    meta = _read_meta(tmp_path / "meta.txt")
    dim = EXPERIMENTS[tag].dim
    spec = NetworkSpec(dim, (int(meta["hidden_width"]),) * int(meta["hidden_depth"]),
                       seed=int(meta["seed"]))
    params = NetworkParameters(spec, np.load(tmp_path / "params.npy", allow_pickle=False))
    cset = build_grid(Domain(dim), n_points)
    jets = batch_jets(params, cset.points, cset.cutoff)
    assert np.array_equal(read_csv(tmp_path / "State.csv")[1][:, 0], jets.u)
    assert np.array_equal(read_csv(tmp_path / "Control.csv")[1][:, 0], jets.f)


def test_augmented_meta_lists_beta_not_resolved_rho(tmp_path, capsys):
    # beta alone selects the augmented variant, whose multiplier step is
    # beta; resolved_rho would be alpha / 4, which the run never uses
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\nbeta = 0.5\n{TINY_RUN}output_dir = {out}\n")
    assert main(["-q", "run", cfg]) == 0
    meta = _read_meta(out / "meta.txt")
    assert meta["beta"] == "0.5"
    assert "resolved_rho" not in meta and "variant" not in meta
    # from z = 0 the first update moves the multiplier to beta K
    _, diag = read_csv(out / "Diagnostics.csv")
    assert diag[0, 3] == pytest.approx(0.5 * diag[0, 2], rel=1e-12)
    both = write(tmp_path, f"tag = sine1d\nbeta = 0.5\nrho = 0.5\n{TINY_RUN}"
                           f"output_dir = {tmp_path / 'both'}\n", name="both.cfg")
    assert main(["-q", "run", both]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 3: key 'rho': rho steps the plain variant; beta the augmented"]
    assert not (tmp_path / "both").exists()


def test_diagnostics_csv_has_one_row_per_update(tmp_path):
    out = tmp_path / "out"
    three = TINY_RUN.replace("n_uzawa = 1", "n_uzawa = 3")
    cfg = write(tmp_path, f"tag = sine1d\nrho = 0.01\n{three}output_dir = {out}\n")
    assert main(["-q", "run", cfg]) == 0
    header, diag = read_csv(out / "Diagnostics.csv")
    assert header == ["update", "wall_s", "residual_l2", "multiplier_l2", "grad_l2",
                      "loss_total"]
    _, loss = read_csv(out / "Loss.csv")
    assert diag.shape == (3, 6)
    assert list(diag[:, 0]) == [0, 1, 2]
    assert np.all(diag[:, 1:] > 0)
    # the plain variant's total is the sum of the Loss.csv row
    assert np.allclose(diag[:, 5], loss[:, 1:].sum(axis=1), rtol=1e-12, atol=0)
    # from z = 0 the first update moves the multiplier to rho K
    assert diag[0, 3] == pytest.approx(0.01 * diag[0, 2], rel=1e-12)


def test_image_required_for_ac_image(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = ac_image\nepsilon = 0.1\n"))
    assert err.value.key == "image"


# ---------------------------------------------------------------------------
# greymap loading


def pgm_ascii(tmp_path, pixels, maxval=255, name="img.pgm"):
    h = len(pixels)
    w = len(pixels[0])
    body = "\n".join(" ".join(str(v) for v in row) for row in pixels)
    path = tmp_path / name
    path.write_text(f"P2\n# comment\n{w} {h}\n{maxval}\n{body}\n")
    return str(path)


def test_pgm_all_zero_maps_to_minus_one(tmp_path):
    img = load_pgm_target(pgm_ascii(tmp_path, [[0, 0, 0], [0, 0, 0]]))
    assert img.shape == (2, 3)  # (height, width)
    assert np.all(img == -1.0)


def test_pgm_all_maxval_maps_to_plus_one(tmp_path):
    img = load_pgm_target(pgm_ascii(tmp_path, [[7, 7], [7, 7]], maxval=7))
    assert np.all(img == 1.0)


def test_pgm_binary_roundtrip(tmp_path):
    path = tmp_path / "img5.pgm"
    pixels = np.array([[0, 128], [255, 64]], dtype=np.uint8)
    path.write_bytes(b"P5\n2 2\n255\n" + pixels.tobytes())
    img = load_pgm_target(str(path))
    assert img[0, 0] == -1.0
    assert img[1, 0] == 1.0
    assert img[0, 1] == pytest.approx(2 * 128 / 255 - 1)


def test_pgm_checkerboard_preserved_at_pixel_centres(tmp_path):
    img = load_pgm_target(pgm_ascii(tmp_path, [[255, 0], [0, 255]]))
    g = build_grid(Domain.unit_square(), 3)
    vals = sample_image_on_grid(img, g)
    # corners are the pixel centres: (0,1) top-left, (1,1) top-right, ...
    lookup = {tuple(p): v for p, v in zip(map(tuple, g.points), vals)}
    assert lookup[(0.0, 1.0)] == 1.0
    assert lookup[(1.0, 1.0)] == -1.0
    assert lookup[(0.0, 0.0)] == -1.0
    assert lookup[(1.0, 0.0)] == 1.0
    assert lookup[(0.5, 0.5)] == 0.0  # bilinear midpoint
    with pytest.raises(ValueError, match="image targets need a 2d collocation set"):
        sample_image_on_grid(img, build_grid(Domain.unit_interval(), 3))


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError, match="bad magic b'P6', expected P2 or P5"):
        load_pgm_target(str(path))


def test_pgm_truncated(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="truncated pixel data"):
        load_pgm_target(str(path))


def test_pgm_bad_maxval(tmp_path):
    # Netpbm caps maxval at 65535: a larger one read as given would map the
    # brightest 16-bit pixel below +1
    def p2_and_p5(maxval):
        p5 = tmp_path / f"p5_{maxval}.pgm"
        p5.write_bytes(f"P5\n2 2\n{maxval}\n".encode()
                       + np.array([0, 0, 0, 65535], dtype=">u2").tobytes())
        return pgm_ascii(tmp_path, [[0, 0], [0, 65535]], maxval, f"p2_{maxval}.pgm"), str(p5)

    for path in (pgm_ascii(tmp_path, [[0, 0], [0, 0]], maxval=0), *p2_and_p5(65536)):
        with pytest.raises(ValueError, match=r"maxval must be in \[1, 65535\], got"):
            load_pgm_target(path)
    for path in p2_and_p5(65535):
        assert load_pgm_target(path).tolist() == [[-1.0, -1.0], [-1.0, 1.0]]


@pytest.mark.parametrize("where", ["pixel", "maxval"])
@pytest.mark.parametrize("token", ["-255", "+12", "1_0"])
def test_pgm_numbers_are_plain_digits(tmp_path, capsys, token, where):
    # int() reads "-255" (a target value of -3 at maxval 255), "+12" and "1_0"
    path = tmp_path / "img.pgm"
    maxval, pixel = ("255", token) if where == "pixel" else (token, "0")
    path.write_text(f"P2\n2 2\n{maxval}\n{pixel} 0 0 0\n")
    message = "non-numeric pixel data" if where == "pixel" else "truncated or malformed header"
    with pytest.raises(ValueError, match=message):
        load_pgm_target(str(path))
    cfg = write(tmp_path, f"tag = ac_image\nepsilon = 0.5\nimage = {path}\n{TINY_RUN}"
                          f"output_dir = {tmp_path / 'out'}\n")
    assert main(["-q", "run", cfg]) == 1
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data", [b"P2 0 0 255\n", b"P5 0 3 255\n", b"P2 1 2 255\n0 0\n"],
                         ids=["P2-0x0", "P5-0x3", "P2-1x2"])
def test_pgm_smaller_than_2x2_is_refused_from_its_header(tmp_path, capsys, data):
    # a zero-size image reached numpy's max() before the size check
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="image must be at least 2x2"):
        load_pgm_target(str(path))
    cfg = write(tmp_path, f"tag = ac_image\nepsilon = 0.5\nimage = {path}\n{TINY_RUN}"
                          f"output_dir = {tmp_path / 'out'}\n")
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: image must be at least 2x2"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data, message", [
    (b"", "empty file"),
    (b" # a comment and no token\n", "empty file"),
    (b"P2 2 2 7\n0 0 0 8\n", "pixel value exceeds maxval"),
    (b"P5 2 2 7\n\x00\x00\x00\x08", "pixel value exceeds maxval"),
    (b"P2 2 2 255\n0 " + b"9" * 400 + b" 0 0\n", "pixel value exceeds maxval"),
    (b"P2 2 2 255\n0 0 0\n", "truncated pixel data"),
], ids=["empty", "comment-only", "P2-above-maxval", "P5-above-maxval", "P2-above-float64",
        "P2-short-raster"])
def test_cli_refuses_a_bad_greymap_with_one_line(tmp_path, capsys, data, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    cfg = write(tmp_path, f"tag = ac_image\nepsilon = 0.5\nimage = {path}\n{TINY_RUN}"
                          f"output_dir = {tmp_path / 'out'}\n")
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CSV emission


def fake_record(n=3, diverged_at=None):
    rng = np.random.default_rng(0)
    return RunResult(state_errors=rng.uniform(size=n), control_errors=rng.uniform(size=n),
                     loss_history=rng.uniform(size=(n, 4)), u=rng.uniform(size=11),
                     f=rng.uniform(size=11), z=rng.uniform(size=9), diverged_at=diverged_at)


def test_emit_csv_files_and_roundtrip(tmp_path):
    rec = fake_record(3)
    files = emit_csv(rec, str(tmp_path / "run"), {"tag": "sine1d"})
    names = {os.path.basename(f) for f in files}
    assert names == {"Error.csv", "Loss.csv", "State.csv", "Control.csv", "meta.txt"}
    header, rows = read_csv(tmp_path / "run" / "Error.csv")
    assert header == ["update", "state_l2_error", "control_l2_error"]
    assert rows.shape == (3, 3)
    # repr round-trips floats bitwise
    assert np.array_equal(rows[:, 1], rec.state_errors)
    header, rows = read_csv(tmp_path / "run" / "Loss.csv")
    assert header == ["update", "misfit", "multiplier_term", "control_norm_term",
                      "regulariser_term"]
    assert np.array_equal(rows[:, 1:], rec.loss_history)
    _, state = read_csv(tmp_path / "run" / "State.csv")
    assert np.array_equal(state[:, 0], rec.u)
    # the solvers' records: a network run and an iterative oracle write the
    # Diagnostics.csv the CLI wrote, one row per update under its header
    net = driver.run_deep_uzawa(ExperimentConfig("sine1d", n_uzawa=2, n_sgd=1, n_points=9,
                                                 hidden_width=4, hidden_depth=1))
    grid = Grid1D(11)
    oracle = fd_uzawa_run(grid, 1e-2, 2.5e-3, sine_target(grid, 1e-2), 3)
    for record, header, rows in (
            (net, ["update", "wall_s", "residual_l2", "multiplier_l2", "grad_l2", "loss_total"],
             net.diagnostics),
            (oracle, ["iteration", "multiplier_error"], oracle.z_errors[:, None])):
        run_dir = tmp_path / header[0]
        assert str(run_dir / "Diagnostics.csv") in emit_csv(record, str(run_dir))
        got_header, got = read_csv(run_dir / "Diagnostics.csv")
        assert got_header == header and got.shape == (len(rows), len(header))
        assert np.array_equal(got[:, 0], range(len(rows))) and np.array_equal(got[:, 1:], rows)
    # a direct solve has no history: it writes no Diagnostics.csv and
    # removes the iterative run's histories from the directory it reuses
    files = emit_csv(fd_direct_kkt_solve(grid, 1e-2, sine_target(grid, 1e-2)),
                     str(tmp_path / "iteration"))
    assert [os.path.basename(f) for f in files] == ["State.csv", "Control.csv", "meta.txt"]
    assert sorted(os.listdir(tmp_path / "iteration")) == ["Control.csv", "State.csv", "meta.txt"]


def test_emit_csv_divergence_in_meta(tmp_path):
    rec = fake_record(2, diverged_at=2)
    emit_csv(rec, str(tmp_path / "run"), {"tag": "t"})
    meta = (tmp_path / "run" / "meta.txt").read_text()
    assert "diverged_at = 2" in meta
    _, rows = read_csv(tmp_path / "run" / "Error.csv")
    assert rows.shape[0] == 2  # truncated rows preserved


def test_read_csv_of_a_header_only_file(tmp_path):
    # a network run that diverges at update 0 writes Loss.csv and
    # Diagnostics.csv with a header and no rows
    rec = RunResult(u=np.zeros(3), f=np.zeros(3), z=np.zeros(1), loss_history=np.empty((0, 4)),
                    diverged_at=0)
    emit_csv(rec, str(tmp_path / "run"))
    (tmp_path / "run" / "Diagnostics.csv").write_text("update,wall_s,residual_l2\n")
    _, rows = read_csv(tmp_path / "run" / "Loss.csv")
    assert rows.shape == (0, 5) and rows[:, 1].size == 0
    _, rows = read_csv(tmp_path / "run" / "Diagnostics.csv")
    assert rows.shape == (0, 3) and rows[:, 1].size == 0


def _rows_written_one_by_one(header, rows):
    """The CSV bytes of a per-row writer: ints as str, every other value as
    the repr of its float."""
    lines = [",".join(header)] + [
        ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


SPECIAL_FLOATS = [-0.0, np.inf, np.nan, 1e-05, 1e16, 5e-324, 0.1]


@pytest.mark.parametrize("columns", [
    pytest.param([range(7)], id="int_range"),
    pytest.param([np.array(SPECIAL_FLOATS)], id="float64_array"),
    pytest.param([[np.float64(v) for v in SPECIAL_FLOATS]], id="np_float64_scalars"),
    pytest.param([range(7), np.array(SPECIAL_FLOATS), np.array(SPECIAL_FLOATS[::-1])],
                 id="range_and_float_columns"),
    pytest.param([range(0), np.empty(0)], id="header_only"),
])
def test_write_csv_bytes_match_row_by_row_formatting(tmp_path, columns):
    header = tuple(f"c{i}" for i in range(len(columns)))
    write_csv(tmp_path / "out.csv", header, *columns)
    assert (tmp_path / "out.csv").read_bytes() == \
        _rows_written_one_by_one(header, list(zip(*columns)))


# ---------------------------------------------------------------------------
# CLI end to end


def test_cli_run_tiny(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
n_uzawa = 2
n_sgd = 2
n_points = 21
hidden_width = 8
hidden_depth = 2
output_dir = {tmp_path / 'out'}
""")
    assert main(["-q", "run", cfg]) == 0
    for name in ("Error.csv", "Loss.csv", "State.csv", "Control.csv", "meta.txt", "params.npy"):
        assert (tmp_path / "out" / name).exists()


def test_cli_validation_error_exit_code(tmp_path):
    cfg = write(tmp_path, "tag = ac_sine\nalpha = 1e-4\n")
    assert main(["-q", "run", cfg]) == 1
    assert main(["-q", "run", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.parametrize("command, runner", [("run", "run_deep_uzawa"),
                                             ("oracle", "fd_uzawa_run")])
def test_cli_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, command, runner):
    # a MemoryError has no message of its own, so the CLI writes one
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, runner, exhausted)
    cfg = write(tmp_path, f"tag = sine1d\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["-q", command, cfg]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_divergence_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
learning_rate = 1e300
n_uzawa = 3
n_sgd = 5
n_points = 21
hidden_width = 8
hidden_depth = 2
output_dir = {tmp_path / 'div'}
""")
    assert main(["-q", "run", cfg]) == 2
    assert "diverged_at" in (tmp_path / "div" / "meta.txt").read_text()
    assert capsys.readouterr().err == "run diverged at update 0\n"


@pytest.mark.parametrize("alpha, reason", [
    pytest.param("1e-2", ["diverged_reason = inner_loss", "diverged_inner_step = 1"],
                 id="forward_overflow"),
    pytest.param("1", ["diverged_reason = adam_step", "diverged_inner_step = 0"],
                 id="adam_overflow"),
])
def test_cli_divergence_emits_no_warning(tmp_path, alpha, reason):
    # the overflow that ends the run must not warn; the run keeps its initial network
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = {alpha}
learning_rate = 1e308
n_uzawa = 3
n_sgd = 2
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'div'}
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["-q", "run", cfg]) == 2
    meta = (tmp_path / "div" / "meta.txt").read_text().splitlines()
    assert meta[-3:] == ["diverged_at = 0", *reason]


# jets stay finite after one Adam step of size 1e300, but their squares overflow
SQUARE_OVERFLOW = """
tag = sine1d
learning_rate = 1e300
n_uzawa = 3
n_sgd = 1
n_points = 21
hidden_width = 8
hidden_depth = 2
"""


def test_cli_divergence_in_the_update_loss(tmp_path, capsys):
    # the run diverges at the update whose loss overflows, and records no row of it
    cfg = write(tmp_path, f"{SQUARE_OVERFLOW}output_dir = {tmp_path / 'div'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["-q", "run", cfg]) == 2
    assert capsys.readouterr().err == "run diverged at update 0\n"
    assert (tmp_path / "div" / "Loss.csv").read_text().count("\n") == 1
    assert not (tmp_path / "div" / "Error.csv").exists()
    assert (tmp_path / "div" / "meta.txt").read_text().splitlines()[-2:] == [
        "diverged_at = 0", "diverged_reason = update_loss"]


def test_cli_split_sweep_divergence_under_w_error(tmp_path):
    # at 30x30 the jet sweeps run in two halves, the second on a helper
    # thread; numpy's error state is per thread, so the helper must take the
    # run loop's, or its overflow warning becomes an error under -W error
    cfg = write(tmp_path, f"""
tag = sine2d
alpha = 1e-4
n_points = 30
learning_rate = 1e300
n_uzawa = 2
n_sgd = 2
output_dir = {tmp_path / 'div'}
""")
    env = _with_src(dict(os.environ))
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           "import sys; from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                           "-q", "run", cfg], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (2, "run diverged at update 0\n", "")


@pytest.mark.parametrize("keys, tag, command", [
    ("tag = sine1d\nalpha = 1e307\nn_uzawa = 1\nn_sgd = 1", "sine1d", ["run"]),
    ("tag = ac_sine\nepsilon = 1e-150\nn_uzawa = 1\nn_sgd = 1", "ac_sine", ["run"]),
    ("tag = sine1d\nn_uzawa = 1\nn_sgd = 1", "sine1d", ["sweep", "--alphas", "1e-2", "1e307"]),
    # the oracle refuses the network keys; it solves the run's problem
    ("tag = sine1d\nalpha = 1e307\nn_points = 21\noracle_method = all", "sine1d", ["oracle"]),
], ids=["sine1d-alpha", "ac_sine-epsilon", "sweep", "oracle"])
def test_cli_non_finite_target_exits_1_under_w_error(tmp_path, keys, tag, command):
    # the target overflows float64: the problem refuses it in one line, no
    # warning escapes, and no directory is written, not even a sweep's first
    # or one of the oracle's four methods
    cfg = write(tmp_path, f"{keys}\noutput_dir = {tmp_path / 'out'}\n")
    env = _with_src(dict(os.environ))
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           "import sys; from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                           "-q", command[0], cfg, *command[1:]], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        1, f"error: tag {tag!r}: target samples contain non-finite values\n", "")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("precision", ["", "precision_dps = 30"])
def test_cli_oracle_divergence_exit_code(tmp_path, capsys, precision):
    # rho far above alpha / 2: the Uzawa multiplier error grows geometrically
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
rho = 10
n_points = 41
{precision}
output_dir = {tmp_path / 'div'}
""")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["-q", "oracle", cfg]) == 2
    assert "diverged_at = 2" in (tmp_path / "div" / "meta.txt").read_text()
    _, rows = read_csv(tmp_path / "div" / "Error.csv")
    assert np.all(np.isfinite(rows))
    assert capsys.readouterr().err == "uzawa oracle diverged at iteration 2\n"
    # State.csv and Control.csv hold the last recorded iterate, not the one that diverged
    grid, dps = Grid1D(41), parse_config(cfg).precision_dps
    stopped = fd_uzawa_run(grid, 1e-2, 10.0, sine_target(grid, 1e-2, dps=dps), 1, dps=dps)
    for name, field in (("State.csv", stopped.u), ("Control.csv", stopped.f)):
        assert np.array_equal(read_csv(tmp_path / "div" / name)[1][:, 0], field)


def _oracle_config(tmp_path, name, tag, rho, method, iters):
    """An oracle config at alpha = 1e-2 on 41 points; no rho line when rho is None."""
    rho = "" if rho is None else f"rho = {rho!r}"
    return write(tmp_path, f"""
tag = {tag}
alpha = 1e-2
{rho}
n_points = 41
oracle_method = {method}
oracle_iters = {iters}
output_dir = {tmp_path / name}
""", f"{name}.cfg")


@pytest.mark.parametrize("method", ["uzawa", "projected"])
def test_cli_oracle_step_bound_on_a_rough_target(tmp_path, capsys, method):
    # the constant target excites every odd mode, the top one included, so
    # the multiplier error contracts below rho_max and grows above it
    rho_max, _ = uzawa_step_bounds(Grid1D(41), 1e-2, 1.0)
    below = _oracle_config(tmp_path, "below", "boundary_layer", 0.95 * rho_max, method, 100)
    assert main(["-q", "oracle", below]) == 0
    assert capsys.readouterr().err == ""
    header, diag = read_csv(tmp_path / "below" / "Diagnostics.csv")
    assert header == ["iteration", "multiplier_error"]
    assert np.array_equal(diag[:, 0], np.arange(101))
    assert np.all(np.diff(diag[:, 1]) < 0)
    meta = _read_meta(tmp_path / "below" / "meta.txt")
    assert float(meta["rho_max"]) == rho_max
    assert float(meta["kappa_max"]) == pytest.approx(0.9, abs=1e-6)

    above = _oracle_config(tmp_path, "above", "boundary_layer", 1.05 * rho_max, method, 100)
    assert main(["-q", "oracle", above]) == 2
    assert capsys.readouterr().err == (
        f"{method} oracle step rho = {1.05 * rho_max:g} is not below "
        f"rho_max = {rho_max:.10g}\n")
    _, diag = read_csv(tmp_path / "above" / "Diagnostics.csv")
    assert diag[-1, 1] > diag[0, 1]


def test_cli_oracle_flags_the_projected_period_2_cycle(tmp_path, capsys):
    # rho = 1 is 200 alpha / 4: the projected run alternates between two
    # iterates without passing the divergence limit, and is still flagged
    cfg = _oracle_config(tmp_path, "cycle", "sine1d", 1.0, "projected", 100)
    assert main(["-q", "oracle", cfg]) == 2
    assert capsys.readouterr().err == \
        "projected oracle step rho = 1 is not below rho_max = 0.005000012245\n"
    meta = _read_meta(tmp_path / "cycle" / "meta.txt")
    assert "diverged_at" not in meta
    assert float(meta["kappa_max"]) == pytest.approx(399.0, abs=1e-2)
    _, errors = read_csv(tmp_path / "cycle" / "Error.csv")
    assert errors[-1, 1] == pytest.approx(errors[-3, 1], rel=1e-12)


def test_cli_gauss_seidel_kappa_max_is_the_measured_rate(tmp_path, capsys):
    # the sine target excites only the first mode, so every sweep multiplies
    # the multiplier error by kappa_max = 1 / (alpha nu_1^2); a rate above 1
    # is reported, not rejected
    cfg = _oracle_config(tmp_path, "gs", "sine1d", None, "gauss_seidel", 30)
    assert main(["-q", "oracle", cfg]) == 0
    assert capsys.readouterr().err == ""
    kappa_max = float(_read_meta(tmp_path / "gs" / "meta.txt")["kappa_max"])
    _, diag = read_csv(tmp_path / "gs" / "Diagnostics.csv")
    assert np.abs(diag[1:, 1] / diag[:-1, 1] / kappa_max - 1).max() <= 1e-10
    nu_1 = 4 * 40**2 * math.sin(math.pi / 80) ** 2  # n_points = 41
    assert kappa_max == pytest.approx(1 / (1e-2 * nu_1**2), rel=1e-12)


def test_cli_oracle_all_methods(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 51
oracle_iters = 10
oracle_method = all
output_dir = {tmp_path / 'oracle'}
""")
    assert main(["-q", "oracle", cfg]) == 0
    for method in ("uzawa", "projected", "gauss_seidel", "direct"):
        assert (tmp_path / "oracle" / method / "meta.txt").exists()
    # a direct solve has no update history
    assert sorted(os.listdir(tmp_path / "oracle" / "direct")) == \
        ["Control.csv", "State.csv", "meta.txt"]
    _, rows = read_csv(tmp_path / "oracle" / "uzawa" / "Error.csv")
    assert rows.shape[0] == 11  # iters + 1
    # Diagnostics.csv holds the run's multiplier-error history, round-tripped
    grid = Grid1D(51)
    run = gauss_seidel_adjoint_run(grid, 1e-2, sine_target(grid, 1e-2), 10)
    _, diag = read_csv(tmp_path / "oracle" / "gauss_seidel" / "Diagnostics.csv")
    assert np.array_equal(diag[:, 1], run.z_errors)


def test_cli_oracle_all_methods_prints_one_line_per_method(tmp_path, capsys):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 21
oracle_iters = 5
oracle_method = all
output_dir = {tmp_path / 'oracle'}
""")
    assert main(["oracle", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    number = r"\d\.\d{3}e[-+]\d\d"
    for method, line in zip(("uzawa", "projected", "gauss_seidel"), lines):
        assert re.fullmatch(f"{method}: final state error {number} control error {number}", line)
    assert re.fullmatch(r"direct solve: backward error \d\.\d{2}e-\d\d", lines[3])


@pytest.mark.parametrize("n_points", [3, 4])
def test_cli_oracle_names_n_points_below_the_stencil(tmp_path, capsys, n_points):
    # the config takes 3 points, the oracle's biharmonic stencil 5
    out = tmp_path / "out"
    base = f"tag = sine1d\noracle_iters = 1\noutput_dir = {out}\n"
    assert main(["-q", "oracle", write(tmp_path, f"{base}n_points = {n_points}\n")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: line 4: key 'n_points': ")
    assert not out.exists()
    assert main(["-q", "oracle", write(tmp_path, f"{base}n_points = 5\n")]) == 0


def test_cli_oracle_rejects_2d_tags(tmp_path, capsys):
    # and every other tag that is not Poisson on the unit interval: the tag is
    # named, not a key of the tag that the oracle would drop
    values = {"epsilon": "1.0", "image": "nothing.pgm"}
    refused = [tag for tag, row in EXPERIMENTS.items() if (row.kind, row.dim) != ("poisson", 1)]
    for tag in refused:
        text = "".join(f"{key} = {values[key]}\n" for key in EXPERIMENTS[tag].keys)
        assert main(["-q", "oracle", write(tmp_path, f"{text}tag = {tag}\nalpha = 1e-2\n")]) == 1
        line = len(EXPERIMENTS[tag].keys) + 1
        assert capsys.readouterr().err.startswith(
            f"error: line {line}: key 'tag': oracle runs support tags")


@pytest.mark.parametrize("dps", [None, 30])
@pytest.mark.parametrize("tag", cli._ORACLE_TAGS)
def test_cli_direct_state_is_the_solve_of_the_table_target(tmp_path, tag, dps):
    # the oracle's target is the tag's row of the experiment table
    precision = "" if dps is None else f"precision_dps = {dps}"
    cfg = write(tmp_path, f"""
tag = {tag}
alpha = 1e-2
n_points = 41
oracle_method = direct
{precision}
output_dir = {tmp_path / 'direct'}
""")
    assert main(["-q", "oracle", cfg]) == 0
    grid = Grid1D(41)
    target = EXPERIMENTS[tag].target(grid.points[grid.interior_mask], 1e-2, None)
    _, state = read_csv(tmp_path / "direct" / "State.csv")
    assert np.array_equal(state[:, 0], fd_direct_kkt_solve(grid, 1e-2, target, dps=dps).u)


@pytest.mark.parametrize("tag", cli._ORACLE_TAGS)
def test_cli_direct_state_is_the_solve_on_a_network_runs_grid_and_target(tmp_path, tag):
    # both solvers discretise one grid: the oracle solves the run's own
    # target samples on the run's own grid, bit for bit
    cfg = write(tmp_path, f"""
tag = {tag}
alpha = 1e-2
n_points = 41
oracle_method = direct
output_dir = {tmp_path / 'direct'}
""")
    assert main(["-q", "oracle", cfg]) == 0
    spec, cset = driver.problem_for(parse_config(cfg))
    sol = fd_direct_kkt_solve(cset, 1e-2, spec.samples[cset.interior_mask])
    _, state = read_csv(tmp_path / "direct" / "State.csv")
    assert state[:, 0].tobytes() == sol.u.tobytes()


@pytest.mark.parametrize("alpha, quiet", [("1e300", True), ("1e-200", True), ("1e300", False)],
                         ids=["1e300", "1e-200", "1e300-verbose"])
def test_cli_oracle_non_finite_numbers_exit_2_under_w_error(tmp_path, alpha, quiet):
    # at alpha = 1e300 the errors, a misfit and the direct solve's backward
    # error overflow; at 1e-200 the Gauss-Seidel sweep does: each method that
    # meets a non-finite number prints one line, and nothing warns; an
    # iterate that diverged is not recorded, so at alpha = 1e300 the
    # iterative methods have no final error to print
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = {alpha}
n_points = 21
oracle_method = all
output_dir = {tmp_path / 'oracle'}
""")
    env = _with_src(dict(os.environ))
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           "import sys; from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                           *(["-q"] if quiet else []), "oracle", cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    expected = ([f"{method} oracle diverged at iteration 0"
                 for method in ("uzawa", "projected", "gauss_seidel", "direct")]
                if alpha == "1e300" else ["gauss_seidel oracle diverged at iteration 1"])
    assert (proc.returncode, proc.stderr.splitlines()) == (2, expected)
    if alpha == "1e300":  # the direct solve records its failure as the iterative runs do
        meta = (tmp_path / "oracle" / "direct" / "meta.txt").read_text()
        assert meta.endswith("diverged_at = 0\n")
    if alpha == "1e-200":
        # the sweep diverged at iterate 1: its files hold iterate 0, f = 0
        _, errors = read_csv(tmp_path / "oracle" / "gauss_seidel" / "Error.csv")
        assert errors[:, 0].tolist() == [0.0]
        _, control = read_csv(tmp_path / "oracle" / "gauss_seidel" / "Control.csv")
        assert not control.any()
    if quiet:
        assert proc.stdout == ""
    else:
        assert proc.stdout.splitlines() == ["direct solve: backward error nan"]
        assert (tmp_path / "oracle" / "uzawa" / "Loss.csv").read_text().count("\n") == 1


@pytest.mark.parametrize("method", ["uzawa", "projected", "direct"])
def test_cli_oracle_whose_pivot_rounds_to_zero_at_1_digit_exits_2(tmp_path, capsys, method):
    # at one digit a pivot of the banded factor rounds to zero: the division
    # gives Infinity or NaN, not a decimal.DivisionByZero traceback
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 5
precision_dps = 1
oracle_method = {method}
output_dir = {tmp_path / 'oracle'}
""")
    assert main(["-q", "oracle", cfg]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", [f"{method} oracle diverged at iteration 0"])


def test_cli_projected_oracle_whose_inner_solve_cycles_exits_2_under_w_error(tmp_path):
    # rho = 3 rho_max: at iterate 20 the nonnegative inner solve's active set
    # cycles; the run diverges there, with one line and no traceback
    cfg = write(tmp_path, f"""
tag = boundary_layer
alpha = 1e-4
rho = 1.5e-4
n_points = 81
oracle_method = projected
output_dir = {tmp_path / 'cycle'}
""")
    env = _with_src(dict(os.environ))
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           "import sys; from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                           "-q", "oracle", cfg], env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        2, "projected oracle diverged at iteration 20\n", "")
    assert (tmp_path / "cycle" / "meta.txt").read_text().splitlines()[-1] == "diverged_at = 20"
    _, errors = read_csv(tmp_path / "cycle" / "Error.csv")
    assert errors.shape == (20, 3)


@pytest.mark.parametrize("precision", ["", "precision_dps = 30"])
def test_cli_projected_meta_lists_its_smallest_multiplier(tmp_path, capsys, precision):
    # acceptance criterion 4's number: the smallest entry of the reported,
    # nonnegative multiplier over every recorded iterate of the projected run
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 21
oracle_iters = 5
oracle_method = all
{precision}
output_dir = {tmp_path / 'oracle'}
""")
    assert main(["-q", "oracle", cfg]) == 0
    parsed = parse_config(cfg)
    problem, grid = driver.problem_for(parsed)
    run = fd_projected_uzawa_run(grid, 1e-2, parsed.resolved_rho,
                                 problem.samples[grid.interior_mask], 5, dps=parsed.precision_dps)
    meta = _read_meta(tmp_path / "oracle" / "projected" / "meta.txt")
    assert float(meta["min_multiplier"]) == run.z_history.min()
    for method in ("uzawa", "gauss_seidel", "direct"):
        assert "min_multiplier" not in _read_meta(tmp_path / "oracle" / method / "meta.txt")

    # a run that diverges at iterate 0 (a pivot rounds to zero at one digit)
    # records no multiplier, and lists none
    diverged = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 5
precision_dps = 1
oracle_method = projected
output_dir = {tmp_path / 'diverged'}
""", "diverged.cfg")
    assert main(["-q", "oracle", diverged]) == 2
    assert capsys.readouterr().err == "projected oracle diverged at iteration 0\n"
    meta = _read_meta(tmp_path / "diverged" / "meta.txt")
    assert meta["diverged_at"] == "0" and "min_multiplier" not in meta


@pytest.mark.parametrize("command, key, value", [
    ("oracle", "beta", "0.5"),
    ("oracle", "learning_rate", "0.5"), ("oracle", "n_uzawa", "7"),
    ("oracle", "hidden_width", "4"), ("run", "precision_dps", "30"),
    ("run", "oracle_method", "direct"), ("sweep", "precision_dps", "30"),
    ("sweep", "oracle_iters", "3"),
    # an oracle method reads only its own keys: the float64 sweep takes no
    # precision, neither it nor the direct solve takes a step, and the
    # direct solve takes no iteration count
    ("oracle:gauss_seidel", "precision_dps", "30"), ("oracle:gauss_seidel", "rho", "0.1"),
    ("oracle:direct", "rho", "0.1"), ("oracle:direct", "oracle_iters", "5"),
])
def test_cli_refuses_a_key_the_subcommand_would_drop(tmp_path, capsys, command, key, value):
    # keys with defaults too: the file sets them, so the subcommand would drop
    # them; seed and output_dir are taken by every subcommand
    command, _, method = command.partition(":")
    out = tmp_path / "out"
    iters = "" if method == "direct" else "oracle_iters = 1\n"
    own = f"{iters}oracle_method = {method or 'uzawa'}\n" if command == "oracle" else TINY_RUN
    base = f"tag = sine1d\nseed = 3\n{own}output_dir = {out}\n"
    alphas = ["--alphas", "0.1"] if command == "sweep" else []
    assert main(["-q", command, write(tmp_path, f"{base}{key} = {value}\n"), *alphas]) == 1
    line = base.count("\n") + 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: line {line}: key '{key}': deepuzawa {command} does not use {key}"]
    assert not out.exists()
    assert main(["-q", command, write(tmp_path, base), *alphas]) == 0


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_batch_size_is_an_unknown_key(tmp_path, capsys, command):
    # training is full batch and a run is measured on its own grid, so a
    # file that sets a batch size or an evaluation refinement is refused
    out = tmp_path / "out"
    for key, value in (("batch_size", 4), ("eval_refine", 2)):
        cfg = write(tmp_path, f"tag = sine1d\n{TINY_RUN}{key} = {value}\noutput_dir = {out}\n")
        assert main(["-q", command, cfg]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: line 7: key '{key}': unknown key"]
        assert not out.exists()


def test_cli_sweep(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
n_uzawa = 2
n_sgd = 1
n_points = 21
hidden_width = 8
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["-q", "sweep", cfg, "--alphas", "1", "0.01"]) == 0
    assert (tmp_path / "sweep" / "alpha_1" / "Error.csv").exists()
    assert (tmp_path / "sweep" / "alpha_0.01" / "Error.csv").exists()


def test_cli_run_prints_progress_then_the_files_it_wrote(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write(tmp_path, "tag = sine1d\nn_uzawa = 50\nn_sgd = 1\nn_points = 5\nhidden_width = 2\n"
                          f"hidden_depth = 1\noutput_dir = {out}\n")
    assert main(["run", cfg]) == 0
    first, *wrote = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"update 50/50  loss parts \[[^]]+\]  state err \d\.\d{3}e-\d\d", first)
    assert wrote == [f"wrote {out / name}" for name in (
        "Error.csv", "Loss.csv", "State.csv", "Control.csv", "meta.txt", "Diagnostics.csv",
        "params.npy")]


def test_a_run_directory_holds_only_the_files_of_the_run_that_wrote_it(tmp_path):
    # every command below writes into one directory, which then holds
    # exactly the files that README's table lists for that command's run
    out = tmp_path / "out"
    network = {"Loss.csv", "State.csv", "Control.csv", "meta.txt", "Diagnostics.csv",
               "params.npy"}
    uzawa = {"Error.csv", "Loss.csv", "State.csv", "Control.csv", "meta.txt", "Diagnostics.csv"}
    direct = {"State.csv", "Control.csv", "meta.txt"}
    oracle = "tag = sine1d\nalpha = 1e-2\nn_points = 11\n"
    two_steps = TINY_RUN.replace("n_sgd = 1", "n_sgd = 2")
    steps = [
        ("run", f"tag = sine1d\n{TINY_RUN}", 0, network | {"Error.csv"}),
        ("run", f"tag = ac_step\nepsilon = 0.5\n{TINY_RUN}", 0, network),  # no closed form
        ("oracle", f"{oracle}oracle_iters = 2\noracle_method = uzawa\n", 0, uzawa),
        ("oracle", f"{oracle}oracle_method = direct\n", 0, direct),
        ("run", f"tag = sine1d\n{TINY_RUN}", 0, network | {"Error.csv"}),
        # diverged at update 0: no error row, so no Error.csv whose last row
        # could disagree with the errors of the written fields
        ("run", f"tag = sine1d\nlearning_rate = 1e308\n{two_steps}", 2, network),
    ]
    for i, (command, text, status, files) in enumerate(steps):
        cfg = write(tmp_path, f"{text}output_dir = {out}\n", name=f"{i}.cfg")
        assert main(["-q", command, cfg]) == status
        assert set(os.listdir(out)) == files, (command, text)
    assert _read_meta(out / "meta.txt")["diverged_at"] == "0"


def test_cli_sweep_without_an_exact_solution_says_so(tmp_path, capsys):
    cfg = write(tmp_path, f"tag = ac_step\nepsilon = 0.5\n{TINY_RUN}"
                          f"output_dir = {tmp_path / 'sweep'}\n")
    assert main(["sweep", cfg, "--alphas", "1", "1e-2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha=1: no exact solution", "alpha=0.01: no exact solution"]


def test_cli_run_without_an_exact_solution_prints_no_error_in_progress(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write(tmp_path, "tag = ac_step\nepsilon = 0.5\nn_uzawa = 50\nn_sgd = 1\nn_points = 5\n"
                          f"hidden_width = 2\nhidden_depth = 1\noutput_dir = {out}\n")
    assert main(["run", cfg]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"update 50/50  loss parts \[[^]]+\]", first)


def test_cli_sweep_writes_run_directories_like_run(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
n_uzawa = 1
n_sgd = 1
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["-q", "sweep", cfg, "--alphas", "1"]) == 0
    out = tmp_path / "sweep" / "alpha_1"
    _, state = read_csv(out / "State.csv")
    assert state.shape[0] == 11
    assert (out / "params.npy").exists()
    meta = (out / "meta.txt").read_text()
    for key in ("n_parameters = 18", "final_state_l2_error", "final_control_l2_error"):
        assert key in meta


def test_cli_sweep_divergence_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, f"""
tag = sine1d
learning_rate = 1e300
n_uzawa = 2
n_sgd = 2
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["-q", "sweep", cfg, "--alphas", "1e-2"]) == 2
    assert "diverged_at = 0" in (tmp_path / "sweep" / "alpha_0.01" / "meta.txt").read_text()
    assert capsys.readouterr().err == "alpha=0.01 run diverged at update 0\n"


# every solver a command calls, by its name in cli
SOLVERS = ("run_deep_uzawa", "fd_uzawa_run", "fd_projected_uzawa_run", "gauss_seidel_adjoint_run",
           "fd_direct_kkt_solve")


@pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "1", "1e-2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
def test_cli_output_dir_that_is_a_file_fails_before_training(tmp_path, capsys, monkeypatch,
                                                              command):
    # every run directory, each alpha's for a sweep and each method's for an
    # oracle, is made before the first solve: a file in the place of one
    # ends the command with nothing computed
    out = tmp_path / "out"
    if command[0] == "oracle":
        out.mkdir()
        blocked = out / "projected"
        run = "alpha = 1e-2\nn_points = 41\noracle_iters = 20\noracle_method = all\n"
    else:
        blocked, run = out, TINY_RUN
    blocked.write_text("")

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before making the run directories")

    for name in SOLVERS:
        monkeypatch.setattr(cli, name, no_solve)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write(tmp_path, f"tag = sine1d\n{run}output_dir = {out}\n")
    assert main([command[0], cfg, *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno 17] File exists: '{blocked}'\n"
    assert_no_child_left()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "1", "1e-2"], ["oracle"]],
                         ids=["run", "sweep", "oracle"])
def test_a_command_that_writes_nothing_leaves_no_directory(tmp_path, capsys, monkeypatch,
                                                           command):
    # every directory the command made, the missing parents of output_dir
    # too, is removed; the one that existed before stays
    def exhausted(*args, **kwargs):
        raise MemoryError

    for name in SOLVERS:
        monkeypatch.setattr(cli, name, exhausted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    existing = tmp_path / "existing"
    existing.mkdir()
    run = "oracle_method = all\n" if command[0] == "oracle" else TINY_RUN
    cfg = write(tmp_path, f"tag = sine1d\n{run}output_dir = {existing / 'a' / 'b' / 'out'}\n")
    assert main(["-q", command[0], cfg, *command[1:]]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert existing.is_dir() and os.listdir(existing) == []
    assert_no_child_left()


def test_cli_sweep_of_a_run_that_records_no_update_says_so(tmp_path, capsys):
    # the tag has a closed form, but the run diverges before its first update
    cfg = write(tmp_path, f"""
tag = sine1d
learning_rate = 1e300
n_uzawa = 2
n_sgd = 2
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["sweep", cfg, "--alphas", "1e-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "alpha=0.01: no update recorded\n"
    assert captured.err == "alpha=0.01 run diverged at update 0\n"


def test_sweep_rejects_alphas_that_share_a_directory(tmp_path, capsys):
    # 1e-4 and 1.0000001e-4 both format as alpha_0.0001: the second run
    # would overwrite the first
    cfg = write(tmp_path, f"tag = sine1d\n{TINY_RUN}output_dir = {tmp_path / 'sweep'}\n")
    message = "alphas 0.0001 and 0.00010000001 both write alpha_0.0001"
    with pytest.raises(ValueError, match=message):
        sweep_configs(parse_config(cfg), [1e-4, 1.0000001e-4])
    assert main(["-q", "sweep", cfg, "--alphas", "1e-4", "1.0000001e-4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_writes_each_run_before_the_next_starts(tmp_path, monkeypatch, capsys):
    # the second run runs out of memory: the first run's directory is complete
    run = cli.run_deep_uzawa
    def exhausted_at_second_alpha(config, **kwargs):
        if config.alpha == 1e-2:
            raise MemoryError
        return run(config, **kwargs)
    monkeypatch.setattr(cli, "run_deep_uzawa", exhausted_at_second_alpha)
    cfg = write(tmp_path, f"tag = sine1d\n{TINY_RUN}output_dir = {tmp_path / 'sweep'}\n")
    assert main(["-q", "sweep", cfg, "--alphas", "1", "1e-2"]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"
    assert os.listdir(tmp_path / "sweep") == ["alpha_1"]
    assert sorted(os.listdir(tmp_path / "sweep" / "alpha_1")) == [
        "Control.csv", "Diagnostics.csv", "Error.csv", "Loss.csv", "State.csv", "meta.txt",
        "params.npy"]


def test_cli_sweep_keeps_config_rho(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
rho = 0.5
n_uzawa = 1
n_sgd = 1
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["-q", "sweep", cfg, "--alphas", "1"]) == 0
    meta = (tmp_path / "sweep" / "alpha_1" / "meta.txt").read_text().splitlines()
    assert "resolved_rho = 0.5" in meta


def _files(root):
    """Every file under ``root`` by relative path, with its bytes; a network
    run's Diagnostics.csv without its wall_s column."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "Diagnostics.csv" and data.startswith(b"update,wall_s,"):
                rows = [line.split(b",") for line in data.splitlines()]
                data = b"\n".join(b",".join(row[:1] + row[2:]) for row in rows)
            files[path.relative_to(root).as_posix()] = data
    return files


# a few updates of a small network: two sweep runs cost well under a second
SMALL_RUN = "n_uzawa = 3\nn_sgd = 5\nn_points = 21\nhidden_width = 8\nhidden_depth = 2\n"


def test_one_cpu_runs_oracle_and_sweep_inline_with_the_pooled_bits(tmp_path, monkeypatch):
    out = tmp_path / "out"
    oracle = write(tmp_path, "tag = sine1d\nalpha = 1e-2\nn_points = 41\noracle_iters = 20\n"
                             f"oracle_method = all\noutput_dir = {out}\n", "oracle.cfg")
    sweep = write(tmp_path, f"tag = sine1d\n{SMALL_RUN}output_dir = {out}\n", "sweep.cfg")
    # a call records its process here; a worker's record is lost with the worker
    pids = []
    for name in ("_solve_oracle", "run_deep_uzawa"):
        def recording(*args, real=getattr(cli, name), **kwargs):
            pids.append(os.getpid())
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, name, recording)
    written = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        pids.clear()
        assert main(["-q", "oracle", oracle]) == 0
        assert main(["-q", "sweep", sweep, "--alphas", "1", "1e-2"]) == 0
        assert pids == ([] if len(cpus) > 1 else [os.getpid()] * 6)
        assert_no_child_left()
        written.append(_files(out))
        shutil.rmtree(out)
    assert len(written[0]) == 3 * 6 + 3 + 2 * 7
    assert written[0] == written[1]


def test_cli_oracle_whose_write_fails_in_one_worker_is_one_line(tmp_path, capsys, monkeypatch):
    # the methods before it in method order print their lines, as inline
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out = tmp_path / "oracle"
    (out / "projected" / "Error.csv").mkdir(parents=True)  # the first file projected writes
    cfg = write(tmp_path, "tag = sine1d\nalpha = 1e-2\nn_points = 41\noracle_iters = 20\n"
                          f"oracle_method = all\noutput_dir = {out}\n")
    assert main(["oracle", cfg]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 1 and captured.out.startswith("uzawa: ")
    blocked = out / "projected" / "Error.csv"
    assert captured.err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
    assert_no_child_left()


def test_cli_sweep_whose_worker_dies_is_one_line(tmp_path, capsys, monkeypatch):
    # as the out-of-memory killer would: the worker ends without a result
    run = cli.run_deep_uzawa

    def killed_at_second_alpha(config, **kwargs):
        if config.alpha == 1e-2:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(config, **kwargs)

    monkeypatch.setattr(cli, "run_deep_uzawa", killed_at_second_alpha)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = write(tmp_path, f"tag = sine1d\n{TINY_RUN}output_dir = {tmp_path / 'sweep'}\n")
    assert main(["-q", "sweep", cfg, "--alphas", "1", "1e-2"]) == 1
    assert capsys.readouterr().err == "error: a worker process died before returning its result\n"
    assert_no_child_left()


def _group(pgid):
    """Pids of the processes in process group ``pgid``, zombies included."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            group = int(stat.read_text().rsplit(")", 1)[1].split()[2])
        except (OSError, IndexError, ValueError):  # a process that just ended
            continue
        if group == pgid:
            pids.append(int(stat.parent.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups in /proc")
@pytest.mark.parametrize("command", [["run"], ["sweep", "--alphas", "1", "1e-2"]],
                         ids=["run", "sweep"])
def test_ctrl_c_exits_130_in_one_line_and_leaves_no_process(tmp_path, command):
    out = tmp_path / "out"
    cfg = write(tmp_path, "tag = sine1d\nn_uzawa = 100000\nn_sgd = 40\nn_points = 21\n"
                          f"hidden_width = 8\nhidden_depth = 2\noutput_dir = {out}\n")
    # its own session: the Ctrl-C below reaches this command's processes only
    proc = subprocess.Popen([sys.executable, "-c",
                             "import sys; from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                             "-q", command[0], cfg, *command[1:]], env=_with_src(dict(os.environ)),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    # the command, and a sweep's worker per run when it pools them
    members = 1 + (min(2, usable_cpus()) if command[0] == "sweep" and usable_cpus() > 1 else 0)
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and len(_group(proc.pid)) == members):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # into the training steps
        os.killpg(proc.pid, signal.SIGINT)  # a terminal sends Ctrl-C to the whole group
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, stderr, stdout) == (130, "interrupted\n", "")
    assert _group(proc.pid) == []


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process groups in /proc")
def test_sigterm_to_a_pooled_sweep_exits_143_and_stops_its_workers(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "tag = sine1d\nn_uzawa = 100000\nn_sgd = 40\nn_points = 21\n"
                          f"hidden_width = 8\nhidden_depth = 2\noutput_dir = {out}\n")
    # two workers, however many CPUs this machine has; its own process group,
    # which the command and its workers alone are in
    proc = subprocess.Popen([sys.executable, "-c",
                             "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                             "from deepuzawa.cli import main; sys.exit(main(sys.argv[1:]))",
                             "-q", "sweep", cfg, "--alphas", "1", "1e-2"],
                            env=_with_src(dict(os.environ)), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(_group(proc.pid)) < 3:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)  # to the command alone, as `kill <pid>` sends it
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, stderr, stdout) == (143, "", "")
    assert _group(proc.pid) == []
    assert not out.exists()  # no run wrote it


def test_sigterm_to_a_run_exits_143_and_removes_its_unwritten_directory(tmp_path):
    # SIGTERM's default action would end the command without running the
    # cleanup that removes the run directory no run wrote
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\nn_uzawa = 100000\noutput_dir = {out}\n")
    proc = subprocess.Popen([sys.executable, "-m", "deepuzawa.cli", "-q", "run", cfg],
                            env=_with_src(dict(os.environ)), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not out.exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # into the training steps
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, stderr, stdout) == (143, "", "")
    assert not out.exists()


def _read_meta(path):
    return dict(line.split(" = ", 1) for line in path.read_text().splitlines())


def test_meta_txt_names_its_directory_and_subcommand_keys(tmp_path):
    net = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
n_uzawa = 1
n_sgd = 1
n_points = 11
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'sweep'}
""", "net.cfg")
    assert main(["-q", "sweep", net, "--alphas", "1"]) == 0
    meta = _read_meta(tmp_path / "sweep" / "alpha_1" / "meta.txt")
    assert meta["output_dir"] == str(tmp_path / "sweep" / "alpha_1")
    assert meta["alpha"] == "1.0"
    assert not {"oracle_method", "oracle_iters", "precision_dps"} & meta.keys()

    oracle = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
rho = 2e-3
n_points = 21
oracle_iters = 2
oracle_method = all
precision_dps = 20
output_dir = {tmp_path / 'oracle'}
""", "oracle.cfg")
    assert main(["-q", "oracle", oracle]) == 0
    # each method lists the keys its solver takes: a step size for the Uzawa
    # runs only, a precision for all but the float64 Gauss-Seidel sweep, an
    # iteration count for all but the direct solve
    uzawa = {"oracle_iters", "rho", "precision_dps", "resolved_rho", "rho_max", "kappa_max"}
    extra = {"uzawa": uzawa, "projected": uzawa | {"min_multiplier"},
             "gauss_seidel": {"oracle_iters", "kappa_max"},
             "direct": {"precision_dps", "backward_error"}}
    for method in ("uzawa", "projected", "gauss_seidel", "direct"):
        meta = _read_meta(tmp_path / "oracle" / method / "meta.txt")
        assert meta["output_dir"] == str(tmp_path / "oracle" / method)
        assert set(meta) == {"tag", "alpha", "n_points", "output_dir", "oracle_method",
                             "method"} | extra[method]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, path):
    # every file in configs/ goes through the CLI at a tiny budget
    out = tmp_path / "out"
    oracle = "oracle_method" in read_config(path)[1]
    own = {"output_dir": out, **({"oracle_iters": 2, "n_points": 21} if oracle
                                 else {"n_uzawa": 1, "n_sgd": 1, "n_points": 11})}
    lines = [line for line in path.read_text().splitlines()
             if line.split("#", 1)[0].partition("=")[0].strip() not in own]
    lines += [f"{key} = {value}" for key, value in own.items()]
    cfg_path = write(tmp_path, "\n".join(lines) + "\n")
    cfg = parse_config(cfg_path)
    assert main(["-q", "oracle" if oracle else "run", cfg_path]) == 0

    run_files = {"Loss.csv", "State.csv", "Control.csv", "meta.txt"}
    if not oracle:
        expected = {out: run_files | {"params.npy", "Diagnostics.csv"}
                    | ({"Error.csv"} if EXPERIMENTS[cfg.tag].exact else set())}
    else:
        methods = (["uzawa", "projected", "gauss_seidel", "direct"]
                   if cfg.oracle_method == "all" else [cfg.oracle_method])
        expected = {out / m if len(methods) > 1 else out:
                    {"State.csv", "Control.csv", "meta.txt"} if m == "direct"
                    else run_files | {"Error.csv", "Diagnostics.csv"} for m in methods}
    for run_dir, files in expected.items():
        assert set(os.listdir(run_dir)) == files


def test_cli_ac_image_run(tmp_path):
    path = tmp_path / "img.pgm"
    rng = np.random.default_rng(0)
    pixels = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    path.write_bytes(b"P5\n8 8\n255\n" + pixels.tobytes())
    cfg = write(tmp_path, f"""
tag = ac_image
alpha = 1e-4
epsilon = 0.5
image = {path}
n_uzawa = 1
n_sgd = 1
n_points = 7
hidden_width = 4
hidden_depth = 1
output_dir = {tmp_path / 'img_run'}
""")
    assert main(["-q", "run", cfg]) == 0
    # no exact solution: Loss.csv yes, Error.csv no
    assert (tmp_path / "img_run" / "Loss.csv").exists()
    assert not (tmp_path / "img_run" / "Error.csv").exists()


def test_cli_grad_check():
    assert main(["-q", "grad-check"]) == 0


def test_cli_grad_check_failure_exit_code(monkeypatch, capsys):
    errors = {"laplacian jet d=1 seed=0": 1e-9, "loss gradient seed=3": 0.5}
    monkeypatch.setattr(cli, "grad_check", lambda: errors)
    assert main(["-q", "grad-check"]) == 1
    err = capsys.readouterr().err
    assert "loss gradient seed=3" in err
    assert "laplacian" not in err


def test_cli_grad_check_prints_each_check_then_the_verdict(monkeypatch, capsys):
    errors = {"laplacian jet d=1 seed=0": 1e-9, "loss gradient seed=3": 2.5e-7}
    monkeypatch.setattr(cli, "grad_check", lambda: errors)
    assert main(["grad-check"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "laplacian jet d=1 seed=0: max rel 1.00e-09 PASS",
        "loss gradient seed=3: max rel 2.50e-07 PASS",
        "all checks passed"]


# records the three BLAS thread variables when numpy is first imported
_PIN_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(tuple(os.environ.get(v) for v in
                              ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")))
sys.meta_path.insert(0, Probe())
import deepuzawa.cli
print(seen[0])
"""


@pytest.mark.parametrize("preset, expected", [
    pytest.param(None, "('1', '1', '1')", id="unset"),
    pytest.param("2", "('1', '2', '1')", id="openblas_preset"),
])
def test_blas_threads_are_pinned_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env = _with_src(env)
    out = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == expected + "\n"


# the package root re-exports nothing, so importing a module loads only
# what that module imports
@pytest.mark.parametrize("module, absent", [
    ("deepuzawa", {"numpy"}),
    ("deepuzawa.fd_oracle", {"deepuzawa.driver", "deepuzawa.lagrangian", "deepuzawa.network",
                             "deepuzawa.optim"}),
], ids=["root", "oracle"])
def test_importing_a_module_loads_no_more_than_it_needs(module, absent):
    out = subprocess.run([sys.executable, "-c", f"import sys, {module}; print(*sys.modules)"],
                         env=_with_src(dict(os.environ)), check=True, capture_output=True,
                         text=True).stdout
    assert absent & set(out.split()) == set()


# the package imports no mpmath, and an oracle at a decimal precision runs
# with mpmath blocked (None in sys.modules makes any import of it fail); its
# four methods, forked onto two CPUs, load neither process-pool module
_NO_MPMATH = """
import os, sys
import deepuzawa.cli
assert "mpmath" not in sys.modules, "importing deepuzawa.cli loaded mpmath"
sys.modules["mpmath"] = None
os.sched_getaffinity = lambda pid: {0, 1}
code = deepuzawa.cli.main(["-q", "oracle", sys.argv[1]])
pools = {"multiprocessing", "concurrent.futures"} & set(sys.modules)
assert not pools, f"the oracle loaded {sorted(pools)}"
sys.exit(code)
"""


def test_oracle_runs_without_mpmath(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_points = 41
oracle_iters = 5
oracle_method = all
precision_dps = 30
output_dir = {tmp_path / 'oracle'}
""")
    env = _with_src(dict(os.environ))
    proc = subprocess.run([sys.executable, "-c", _NO_MPMATH, cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(os.listdir(tmp_path / "oracle")) == \
        ["direct", "gauss_seidel", "projected", "uzawa"]
