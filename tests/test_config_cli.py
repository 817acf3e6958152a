import os
import warnings

import numpy as np
import pytest

from deepuzawa import cli
from deepuzawa.cli import main
from deepuzawa.config import (RunResult, emit_csv, load_pgm_target, parse_config, read_csv,
                              sample_image_on_grid)
from deepuzawa.errors import ConfigError, PgmError
from deepuzawa.geometry import Domain, build_grid


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "tag = sine1d\nalpha = 1e-4\n"))
    assert cfg.tag == "sine1d"
    assert cfg.alpha == 1e-4
    assert cfg.learning_rate == 1e-3
    assert cfg.n_sgd == 40
    assert cfg.n_uzawa == 500
    assert cfg.n_points == 201
    assert cfg.variant == "plain"
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
    ("hidden_depth", "-1"), ("learning_rate", "-1"), ("learning_rate", "0"),
    ("n_uzawa", "0"), ("n_sgd", "0"), ("hidden_width", "0"), ("rho", "0"), ("rho", "-1"),
])
def test_out_of_range_value_names_key_and_line(tmp_path, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, f"tag = fd_oracle\nalpha = 1e-2\n{key} = {value}\n"))
    assert err.value.key == key
    assert err.value.line == 3


def test_augmented_requires_beta(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "tag = sine1d\nvariant = augmented\n"))
    assert err.value.key == "beta"


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


@pytest.mark.parametrize("alpha", [
    pytest.param("1e-2", id="forward_overflow"),
    pytest.param("1", id="adam_overflow"),
])
def test_cli_divergence_emits_no_warning(tmp_path, alpha):
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
    assert "diverged_at" in (tmp_path / "div" / "meta.txt").read_text()


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


def test_cli_oracle_rejects_2d_tags(tmp_path):
    cfg = write(tmp_path, "tag = sine2d\nalpha = 1e-2\n")
    assert main(["-q", "oracle", cfg]) == 1


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
