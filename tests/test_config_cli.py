import dataclasses
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from deepuzawa import cli, config
from deepuzawa.cli import main
from deepuzawa.closed_forms import EXPERIMENTS
from deepuzawa.config import (_SCHEMA, ExperimentConfig, RunResult, emit_csv, load_pgm_target,
                              parse_config, read_csv, sample_image_on_grid, write_csv)
from deepuzawa.driver import rho_alpha_sweep
from deepuzawa.errors import ConfigError, PgmError
from deepuzawa.fd_oracle import Grid1D, gauss_seidel_adjoint_run, sine_target, uzawa_step_bounds
from deepuzawa.geometry import Domain, build_grid
from deepuzawa.network import load_checkpoint


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
    # above decimal.MAX_PREC, and within ten guard digits of it
    ("precision_dps", "99999999999999999999"), ("precision_dps", "1000000000000000000"),
    ("hidden_depth", "-1"), ("learning_rate", "-1"), ("learning_rate", "0"),
    ("n_uzawa", "0"), ("n_sgd", "0"), ("hidden_width", "0"), ("rho", "0"), ("rho", "-1"),
    ("alpha", "inf"), ("epsilon", "inf"), ("rho", "inf"), ("beta", "inf"),
    ("learning_rate", "inf"), ("batch_size", "0"), ("eval_refine", "0"), ("seed", "-1"),
])
def test_out_of_range_value_names_key_and_line(tmp_path, key, value):
    second = ("seed", "0") if key == "alpha" else ("alpha", "1e-2")
    with pytest.raises(ConfigError, match="must be") as err:
        parse_config(write(tmp_path, f"tag = fd_oracle\n{second[0]} = {second[1]}\n"
                                     f"{key} = {value}\n"))
    assert err.value.key == key
    assert err.value.line == 3
    # the same check on a config built in code, which has no line to name
    with pytest.raises(ConfigError) as built:
        ExperimentConfig("fd_oracle", **{k: _SCHEMA[k](v) for k, v in (second, (key, value))})
    assert (built.value.key, built.value.line) == (key, None)
    assert built.value.message == err.value.message
    assert str(built.value) == f"key '{key}': {err.value.message}"


@pytest.mark.parametrize("tag, key, value", [
    ("sine1d", "epsilon", 0.1), ("fd_oracle", "epsilon", 0.1), ("sine1d", "image", "nothing.pgm"),
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
def test_seed_outside_checkpoint_range_names_key_and_line(tmp_path, capsys, seed):
    # the checkpoint stores the seed as an int64; a run must not train and
    # then fail to save it
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\nseed = {seed}\n{TINY_RUN}output_dir = {out}\n")
    with pytest.raises(ConfigError, match="seed must be") as err:
        parse_config(cfg)
    assert (err.value.key, err.value.line) == ("seed", 2)
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: line 2: key 'seed': seed must be in [0, 2**63)"]
    assert not out.exists()


def test_largest_seed_round_trips_through_the_checkpoint(tmp_path):
    cfg = write(tmp_path, f"tag = sine1d\nseed = {2**63 - 1}\n{TINY_RUN}output_dir = {tmp_path}\n")
    assert main(["-q", "run", cfg]) == 0
    assert load_checkpoint(tmp_path / "params.bin").spec.seed == 2**63 - 1


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
    img = load_pgm_target(pgm_ascii(tmp_path, [[0, 0], [0, 0]]))
    assert np.all(img.values == -1.0)


def test_pgm_all_maxval_maps_to_plus_one(tmp_path):
    img = load_pgm_target(pgm_ascii(tmp_path, [[7, 7], [7, 7]], maxval=7))
    assert np.all(img.values == 1.0)


def test_pgm_binary_roundtrip(tmp_path):
    path = tmp_path / "img5.pgm"
    pixels = np.array([[0, 128], [255, 64]], dtype=np.uint8)
    path.write_bytes(b"P5\n2 2\n255\n" + pixels.tobytes())
    img = load_pgm_target(str(path))
    assert img.values[0, 0] == -1.0
    assert img.values[1, 0] == 1.0
    assert img.values[0, 1] == pytest.approx(2 * 128 / 255 - 1)


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


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(PgmError):
        load_pgm_target(str(path))


def test_pgm_truncated(tmp_path):
    path = tmp_path / "trunc.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(PgmError):
        load_pgm_target(str(path))


def test_pgm_bad_maxval(tmp_path):
    with pytest.raises(PgmError):
        load_pgm_target(pgm_ascii(tmp_path, [[0, 0], [0, 0]], maxval=0))


@pytest.mark.parametrize("where", ["pixel", "maxval"])
@pytest.mark.parametrize("token", ["-255", "+12", "1_0"])
def test_pgm_numbers_are_plain_digits(tmp_path, capsys, token, where):
    # int() reads "-255" (a target value of -3 at maxval 255), "+12" and "1_0"
    path = tmp_path / "img.pgm"
    maxval, pixel = ("255", token) if where == "pixel" else (token, "0")
    path.write_text(f"P2\n2 2\n{maxval}\n{pixel} 0 0 0\n")
    with pytest.raises(PgmError):
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
    with pytest.raises(PgmError, match="at least 2x2"):
        load_pgm_target(str(path))
    cfg = write(tmp_path, f"tag = ac_image\nepsilon = 0.5\nimage = {path}\n{TINY_RUN}"
                          f"output_dir = {tmp_path / 'out'}\n")
    assert main(["-q", "run", cfg]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: image must be at least 2x2"]
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# CSV emission


def fake_record(n=3, diverged_at=None):
    rng = np.random.default_rng(0)
    return RunResult(state_errors=rng.uniform(size=n), control_errors=rng.uniform(size=n),
                     loss_history=rng.uniform(size=(n, 4)), u=rng.uniform(size=11),
                     f=rng.uniform(size=11), diverged_at=diverged_at)


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
    rec = RunResult(u=np.zeros(3), f=np.zeros(3), loss_history=np.empty((0, 4)), diverged_at=0)
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
    for name in ("Error.csv", "Loss.csv", "State.csv", "Control.csv", "meta.txt", "params.bin"):
        assert (tmp_path / "out" / name).exists()


def test_cli_run_refined_eval(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-2
n_uzawa = 1
n_sgd = 1
n_points = 11
hidden_width = 4
hidden_depth = 1
eval_refine = 4
output_dir = {tmp_path / 'out'}
""")
    assert main(["-q", "run", cfg]) == 0
    assert (tmp_path / "out" / "State_refined.csv").exists()
    _, fine = read_csv(tmp_path / "out" / "State_refined.csv")
    assert fine.shape[0] == 41
    assert "refined_state_l2_error" in (tmp_path / "out" / "meta.txt").read_text()


def test_cli_validation_error_exit_code(tmp_path):
    cfg = write(tmp_path, "tag = ac_sine\nalpha = 1e-4\n")
    assert main(["-q", "run", cfg]) == 1
    assert main(["-q", "run", str(tmp_path / "missing.cfg")]) == 1


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
    # the final fields of a diverged run overflow too; that must not warn
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


def test_cli_diverged_refined_run_ends_meta_with_diverged_at(tmp_path, capsys):
    cfg = write(tmp_path, f"{SQUARE_OVERFLOW}eval_refine = 2\noutput_dir = {tmp_path / 'div'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["-q", "run", cfg]) == 2
    assert capsys.readouterr().err == "run diverged at update 0\n"
    keys = [line.split(" = ")[0] for line in
            (tmp_path / "div" / "meta.txt").read_text().splitlines()]
    assert keys[-4:] == ["refined_state_l2_error", "refined_control_l2_error", "diverged_at",
                         "diverged_reason"]
    assert (tmp_path / "div" / "meta.txt").read_text().endswith(
        "diverged_at = 0\ndiverged_reason = update_loss\n")
    _, fine = read_csv(tmp_path / "div" / "State_refined.csv")
    assert fine.shape[0] == 41


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


@pytest.mark.parametrize("precision", ["", "precision_dps = 30"])
def test_cli_oracle_divergence_exit_code(tmp_path, capsys, precision):
    # rho far above alpha / 2: the Uzawa multiplier error grows geometrically
    cfg = write(tmp_path, f"""
tag = fd_oracle
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


def _oracle_config(tmp_path, name, tag, rho, method, iters):
    return write(tmp_path, f"""
tag = {tag}
alpha = 1e-2
rho = {rho!r}
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
    cfg = _oracle_config(tmp_path, "cycle", "fd_oracle", 1.0, "projected", 100)
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
    cfg = _oracle_config(tmp_path, "gs", "fd_oracle", 1e-3, "gauss_seidel", 30)
    assert main(["-q", "oracle", cfg]) == 0
    assert capsys.readouterr().err == ""
    kappa_max = float(_read_meta(tmp_path / "gs" / "meta.txt")["kappa_max"])
    _, diag = read_csv(tmp_path / "gs" / "Diagnostics.csv")
    assert np.abs(diag[1:, 1] / diag[:-1, 1] / kappa_max - 1).max() <= 1e-10
    nu_1 = 4 * 40**2 * math.sin(math.pi / 80) ** 2  # n_points = 41
    assert kappa_max == pytest.approx(1 / (1e-2 * nu_1**2), rel=1e-12)


def test_cli_oracle_all_methods(tmp_path):
    cfg = write(tmp_path, f"""
tag = fd_oracle
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


def test_cli_oracle_rejects_2d_tags(tmp_path):
    cfg = write(tmp_path, "tag = sine2d\nalpha = 1e-2\n")
    assert main(["-q", "oracle", cfg]) == 1


@pytest.mark.parametrize("command, key, value", [
    ("oracle", "beta", "0.5"), ("oracle", "batch_size", "4"),
    ("run", "precision_dps", "30"), ("sweep", "precision_dps", "30"),
])
def test_cli_refuses_a_key_the_subcommand_would_drop(tmp_path, capsys, command, key, value):
    out = tmp_path / "out"
    cfg = write(tmp_path, f"tag = sine1d\n{key} = {value}\n{TINY_RUN}output_dir = {out}\n")
    alphas = ["--alphas", "0.1"] if command == "sweep" else []
    assert main(["-q", command, cfg, *alphas]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: key '{key}': deepuzawa {command} does not use {key}"]
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


def test_cli_sweep_writes_run_directories_like_run(tmp_path):
    cfg = write(tmp_path, f"""
tag = sine1d
alpha = 1e-4
n_uzawa = 1
n_sgd = 1
n_points = 11
hidden_width = 4
hidden_depth = 1
eval_refine = 2
output_dir = {tmp_path / 'sweep'}
""")
    assert main(["-q", "sweep", cfg, "--alphas", "1"]) == 0
    out = tmp_path / "sweep" / "alpha_1"
    _, fine = read_csv(out / "State_refined.csv")
    assert fine.shape[0] == 21
    assert (out / "params.bin").exists()
    meta = (out / "meta.txt").read_text()
    for key in ("n_parameters = 18", "final_state_l2_error", "refined_state_l2_error"):
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


def test_sweep_rejects_alphas_that_share_a_directory(tmp_path, capsys):
    # 1e-4 and 1.0000001e-4 both format as alpha_0.0001: the second run
    # would overwrite the first
    cfg = write(tmp_path, f"tag = sine1d\n{TINY_RUN}output_dir = {tmp_path / 'sweep'}\n")
    message = "alphas 0.0001 and 0.00010000001 both write alpha_0.0001"
    with pytest.raises(ValueError, match=message):
        rho_alpha_sweep(parse_config(cfg), [1e-4, 1.0000001e-4])
    assert main(["-q", "sweep", cfg, "--alphas", "1e-4", "1.0000001e-4"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep").exists()


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
tag = fd_oracle
alpha = 1e-2
rho = 2e-3
n_points = 21
oracle_iters = 2
oracle_method = all
precision_dps = 20
hidden_width = 4
output_dir = {tmp_path / 'oracle'}
""", "oracle.cfg")
    assert main(["-q", "oracle", oracle]) == 0
    # each method lists the keys its solver takes: a step size for the Uzawa
    # runs only, a precision for all but the float64 Gauss-Seidel sweep
    uzawa = {"rho", "precision_dps", "resolved_rho", "rho_max", "kappa_max"}
    extra = {"uzawa": uzawa, "projected": uzawa, "gauss_seidel": {"kappa_max"},
             "direct": {"precision_dps", "backward_error"}}
    for method in ("uzawa", "projected", "gauss_seidel", "direct"):
        meta = _read_meta(tmp_path / "oracle" / method / "meta.txt")
        assert meta["output_dir"] == str(tmp_path / "oracle" / method)
        assert set(meta) == {"tag", "alpha", "n_points", "output_dir", "oracle_method",
                             "oracle_iters", "method"} | extra[method]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(tmp_path, path):
    # every file in configs/ goes through the CLI at a tiny budget
    out = tmp_path / "out"
    oracle = parse_config(path).tag == "fd_oracle"
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
        expected = {out: run_files | {"params.bin", "Diagnostics.csv"}
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


# the package imports no mpmath, and an oracle at a decimal precision runs
# with mpmath blocked (None in sys.modules makes any import of it fail)
_NO_MPMATH = """
import sys
import deepuzawa.cli
assert "mpmath" not in sys.modules, "importing deepuzawa.cli loaded mpmath"
sys.modules["mpmath"] = None
sys.exit(deepuzawa.cli.main(["-q", "oracle", sys.argv[1]]))
"""


def test_oracle_runs_without_mpmath(tmp_path):
    cfg = write(tmp_path, f"""
tag = fd_oracle
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
