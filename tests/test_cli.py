"""End-to-end runs of the console entry point, in process via main()."""

import contextlib
import inspect
import re

import numpy as np
import pytest

from geoib.cli import main
from geoib.config import TrainConfig, load_config
from geoib.data import make_dataset, read_idx, write_idx
from geoib.mi import CSV_COLUMNS, read_points_jsonl
from geoib.nets import Network
from geoib.verify import CheckResult, ALL_CHECKS


def test_gen_data_synthetic_writes_csv_triple(tmp_path, capsys):
    out = tmp_path / "gauss"
    rc = main(["gen-data", "--kind", "gauss_mixture", "--out", str(out),
               "--n", "50", "--noise", "0.1", "--seed", "3"])
    assert rc == 0
    feats = np.loadtxt(out / "features.csv", delimiter=",")
    labels = np.loadtxt(out / "labels.csv", dtype=int)
    assert feats.shape == (50, 8) and labels.shape == (50,)
    assert (out / "metadata.json").exists()
    assert "50 rows" in capsys.readouterr().out
    # left-out options take the dataset spec's defaults
    out = tmp_path / "moons"
    assert main(["gen-data", "--kind", "two_moons", "--out", str(out)]) == 0
    feats = np.loadtxt(out / "features.csv", delimiter=",")
    np.testing.assert_array_equal(feats, make_dataset("two_moons", 0).features)
    assert "2000 rows" in capsys.readouterr().out


def test_gen_data_digits_then_inspect(tmp_path, capsys):
    out = tmp_path / "digits"
    rc = main(["gen-data", "--kind", "digits", "--out", str(out),
               "--n-train", "20", "--n-test", "10", "--seed", "0"])
    assert rc == 0
    capsys.readouterr()
    img_path = out / "train-images-idx3-ubyte"
    rc = main(["inspect-idx", str(img_path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "images, magic 0x00000803" in text
    assert "shape (20, 28, 28)" in text
    rc = main(["inspect-idx", str(out / "train-labels-idx1-ubyte")])
    assert rc == 0
    assert "label histogram:" in capsys.readouterr().out
    assert read_idx(img_path).shape == (20, 28, 28)


def test_inspect_idx_reports_an_image_file_with_no_images(tmp_path, capsys):
    # write_idx writes it and read_idx reads it, so inspect-idx describes it
    path = tmp_path / "empty-images-idx3-ubyte"
    write_idx(path, np.zeros((0, 28, 28), np.uint8))
    assert main(["inspect-idx", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == ["shape (0, 28, 28), dtype uint8", "no pixels"]


def test_train_subcommand_prints_point_and_writes_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--dataset", "gauss_mixture:n=300,noise=0.14",
               "--epochs", "1", "--k-dim", "4", "--enc-hidden", "8",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines[1].split(",")) == len(CSV_COLUMNS)
    assert (out / "encoder.net").exists()
    cfg = load_config(out / "config.resolved")
    assert cfg.epochs == 1 and cfg.k_dim == 4


def test_config_file_applied_before_flags(tmp_path):
    cfg_file = tmp_path / "base.cfg"
    cfg_file.write_text("epochs = 1\nk_dim = 4\nenc_hidden = 8\n"
                        "dataset = gauss_mixture:n=300,noise=0.14\n")
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg_file), "--k-dim", "2",
               "--out", str(out)])
    assert rc == 0
    cfg = load_config(out / "config.resolved")
    assert cfg.k_dim == 2  # flag wins
    assert cfg.epochs == 1  # file survives


def test_eval_subcommand_rescoring_matches_training(tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--dataset", "gauss_mixture:n=300,noise=0.14",
          "--epochs", "1", "--k-dim", "4", "--enc-hidden", "8",
          "--out", str(out)])
    (trained,) = read_points_jsonl(out / "point.jsonl")
    capsys.readouterr()
    rc = main(["eval", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    acc = float(lines[1].split(",")[2])
    assert acc == trained.accuracy
    wall = float(lines[1].split(",")[CSV_COLUMNS.index("wall_clock_s")])
    assert wall == trained.wall_clock_s


def test_eval_without_point_file_reports_nan_wall_clock(tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--dataset", "gauss_mixture:n=300,noise=0.14",
          "--epochs", "1", "--k-dim", "4", "--enc-hidden", "8",
          "--out", str(out)])
    capsys.readouterr()
    point_file = out / "point.jsonl"
    record = point_file.read_bytes()
    contents = {"cut": record[:60], "empty": b"",  # as a kill leaves it
                "other_fields": b'{"beta": 0.0001}\n',
                "non_ascii": record + b"\xe9"}  # a Latin-1 e-acute
    for state in ("cut", "empty", "other_fields", "non_ascii", "missing"):
        if state == "missing":
            point_file.unlink()
        else:
            point_file.write_bytes(contents[state])
        line = 2 if state == "non_ascii" else 1
        with (pytest.warns(UserWarning,
                           match=re.escape(f"{point_file}, line {line}: "))
              if state in ("cut", "other_fields", "non_ascii")
              else contextlib.nullcontext()):
            assert main(["eval", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert np.isnan(float(row[CSV_COLUMNS.index("wall_clock_s")]))


def test_eval_of_a_nan_encoder_reports_one_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--dataset", "gauss_mixture:n=300,noise=0.14",
          "--epochs", "1", "--k-dim", "4", "--enc-hidden", "8",
          "--out", str(out)])
    enc = Network.load(out / "encoder.net")
    enc.params[0] = np.nan
    enc.save(out / "encoder.net")
    capsys.readouterr()
    assert main(["eval", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_sweep_subcommand_reports_cells(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--dataset", "gauss_mixture:n=200,noise=0.14",
               "--epochs", "1", "--enc-hidden", "8", "--out", str(out),
               "--betas", "0.0001", "--k-dims", "2", "--seeds", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "1/1 cells succeeded" in text
    assert (out / "info_plane.csv").exists()


@pytest.mark.parametrize("flag, value", [("--seeds", ""), ("--betas", ","),
                                         ("--betas", ""), ("--k-dims", "")])
def test_sweep_refuses_an_empty_grid(tmp_path, capsys, flag, value):
    out = tmp_path / "sweep"
    argv = ["sweep", "--dataset", "gauss_mixture:n=200,noise=0.14",
            "--epochs", "1", "--enc-hidden", "8", "--out", str(out),
            "--betas", "0.0001", "--k-dims", "2", "--seeds", "0", flag, value]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "cells succeeded" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("damaged", [
    "not a JSON line", '{"status": "ok"}',
    '{"cell": "beta0.0001_k2_seed0", "status": "ok"}', "# r\u00e9sum\u00e9"])
def test_sweep_names_a_damaged_middle_manifest_line(tmp_path, capsys, damaged):
    # a complete line that does not parse, parses to a record naming no cell
    # or to an ok record without its point, or holds a non-ASCII byte, is
    # one error line naming the file and line; the file stays as is
    out = tmp_path / "sweep"
    argv = ["sweep", "--dataset", "gauss_mixture:n=200,noise=0.14",
            "--epochs", "1", "--enc-hidden", "8", "--out", str(out),
            "--betas", "0.0001", "--k-dims", "2", "--seeds", "0,1"]
    assert main(argv) == 0
    path = out / "manifest.jsonl"
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first + damaged + "\n" + second, encoding="utf-8")
    manifest = path.read_bytes()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "manifest.jsonl, line 2: " in err[0]
    assert path.read_bytes() == manifest


def test_train_divergence_exits_nonzero(tmp_path, capsys):
    with np.errstate(all="ignore"):
        rc = main(["train", "--method", "vib", "--eta-phi", "1e200",
                   "--eta-theta", "1e200", "--step-clip", "0", "--epochs", "1",
                   "--k-dim", "4", "--enc-hidden", "8",
                   "--dataset", "gauss_mixture:n=200,noise=0.14",
                   "--out", str(tmp_path / "bad")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "training diverged" in err and "last-good checkpoint" in err


def test_value_errors_become_exit_code_one(capsys):
    rc = main(["train", "--dataset", "nope:n=10", "--epochs", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    rc = main(["inspect-idx", "/does/not/exist"])
    assert rc == 1


def test_bad_flag_value_reports_field(capsys):
    rc = main(["train", "--epochs", "three"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_check_result_line_format():
    r = CheckResult("pythagorean", True, "max_resid=1.2e-13")
    assert r.line() == "pythagorean,pass,max_resid=1.2e-13"
    r = CheckResult("geodesic", False, "ratio=5.1")
    assert r.line() == "geodesic,FAIL,ratio=5.1"


def test_check_suite_names_are_unique():
    names = [c.__name__ for c in ALL_CHECKS]
    assert len(names) == len(set(names)) == 10
    # a check takes only its seed: its sizes and bounds are verify's
    # constants, which tests/test_acceptance.py pins
    for check in ALL_CHECKS:
        params = inspect.signature(check).parameters.values()
        assert [(p.name, p.default) for p in params] == [("seed", 0)], check
