import dataclasses

import pytest

from geoib.config import TrainConfig, config_text, load_config, save_config


def _load_text(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return load_config(path)


def test_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.method == "geoib"
    assert cfg.beta == 1e-4
    assert cfg.k_dim == 8
    assert cfg.batch == 128
    assert cfg.dataset.startswith("gauss_mixture")


def test_parse_overrides_and_comments(tmp_path):
    cfg = _load_text(
        tmp_path,
        """
        # sweep cell
        beta = 0.01   # compression weight
        k_dim = 32
        method = vib

        epochs = 5
        """
    )
    assert cfg.beta == 0.01
    assert cfg.k_dim == 32
    assert cfg.method == "vib"
    assert cfg.epochs == 5
    assert cfg.batch == 128  # untouched default


def test_parse_reports_line_numbers(tmp_path):
    with pytest.raises(ValueError, match="line 2: unknown key 'betta'"):
        _load_text(tmp_path, "beta = 0.1\nbetta = 0.2\n")
    with pytest.raises(ValueError, match="line 1: expected key = value"):
        _load_text(tmp_path, "just words\n")
    with pytest.raises(ValueError, match="line 3: bad value for epochs"):
        _load_text(tmp_path, "beta = 0.1\n\nepochs = soon\n")


def test_parse_booleans(tmp_path):
    for raw, value in (("true", True), ("1", True), ("no", False)):
        cfg = _load_text(tmp_path, f"vib_natural_gradient = {raw}")
        assert cfg.vib_natural_gradient is value
    with pytest.raises(ValueError, match="boolean"):
        _load_text(tmp_path, "vib_natural_gradient = maybe")


def test_legacy_keys_are_ignored_with_a_warning(tmp_path):
    path = tmp_path / "config.resolved"
    path.write_text("beta = 0.5\ncg_tol = 1e-06\ncg_max_iter = 50\n"
                    "fisher_stats = empirical\n"
                    "sigma_floor = 6.14421235332821e-06\n"
                    "fr_mode = closed_form_kl\n")
    with pytest.warns(UserWarning, match="legacy key") as caught:
        cfg = load_config(path)
    named = [str(w.message).split("'")[1] for w in caught]
    assert named == ["cg_tol", "cg_max_iter", "fisher_stats", "sigma_floor",
                     "fr_mode"]
    # each warning points at the key's line in the file, not into config.py
    assert [(w.filename, w.lineno) for w in caught] == [(str(path), n) for n in (2, 3, 4, 5, 6)]
    assert cfg == TrainConfig(beta=0.5)
    for key in ("cg_tol", "fisher_stats", "sigma_floor", "fr_mode"):
        assert not hasattr(cfg, key)


def test_load_config_errors_name_the_file(tmp_path):
    path = tmp_path / "config.resolved"
    path.write_text("beta = 0.5\nbetta = 0.2\n")
    with pytest.raises(ValueError, match="config.resolved, line 2: unknown key"):
        load_config(path)
    path.write_text("epochs = soon\n")
    with pytest.raises(ValueError, match="config.resolved, line 1: bad value for epochs"):
        load_config(path)


@pytest.mark.parametrize("line, message", [
    ("k_dim = 0", "k_dim must be positive, got 0"),
    ("method = sgd", "method must be one of"),
    ("enc_hidden = 3x", "enc_hidden must be comma-separated positive integers"),
])
def test_load_config_names_the_line_trainconfig_rejects(tmp_path, line, message):
    # each value parses; TrainConfig's own check refuses it
    path = tmp_path / "run.cfg"
    path.write_text(f"beta = 0.01\n# a comment\n{line}\nepochs = 3\n")
    with pytest.raises(ValueError, match=f"run.cfg, line 3: {message}"):
        load_config(path)


def test_load_config_takes_utf8_only_in_comments(tmp_path):
    path = tmp_path / "hand.cfg"
    path.write_text("beta = 0.01  # compression, r\u00e9gl\u00e9 \u00e0 la main\n",
                    encoding="utf-8")
    assert load_config(path) == TrainConfig(beta=0.01)
    path.write_text("epochs = 3\ndataset = idx:path=donn\u00e9es  # \u00e9\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="hand.cfg, line 2: non-ASCII text"):
        load_config(path)
    path.write_bytes(b"epochs = 3\n\n# caf\xe9 in Latin-1\n")
    with pytest.raises(ValueError, match="hand.cfg, line 3: not UTF-8"):
        load_config(path)


def test_round_trip_through_text(tmp_path):
    cfg = TrainConfig(method="vib", beta=1.5e-3, k_dim=64, epochs=7,
                      vib_natural_gradient=True, enc_hidden="64,32",
                      dataset="two_moons:n=500,noise=0.05")
    assert _load_text(tmp_path, config_text(cfg)) == cfg


def test_text_lists_every_field_in_order():
    text = config_text(TrainConfig())
    lines = text.strip().splitlines()
    names = [ln.split(" = ")[0] for ln in lines]
    assert names == [f.name for f in dataclasses.fields(TrainConfig)]
    assert "method = geoib" in lines
    assert "vib_natural_gradient = false" in lines


def test_file_round_trip(tmp_path):
    cfg = TrainConfig(beta=2e-2, seed=11)
    path = tmp_path / "run.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_validation_rejects_bad_fields():
    with pytest.raises(ValueError, match="method"):
        TrainConfig(method="sgd")
    # Rng reduces a seed mod 2**64, so one outside [0, 2**64) would name
    # another cell that trains to the same bytes
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TrainConfig(seed=seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1
    with pytest.raises(ValueError, match="beta"):
        TrainConfig(beta=-1.0)
    with pytest.raises(ValueError, match="k_dim"):
        TrainConfig(k_dim=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="eta_phi"):
        TrainConfig(eta_phi=-0.1)
    with pytest.raises(ValueError, match="kfac_decay"):
        TrainConfig(kfac_decay=1.0)
    # zero damping leaves a rank-deficient factor singular; vib never
    # builds a KfacState, so it would train on a negative one unchecked
    for value in (0.0, -0.5):
        with pytest.raises(ValueError, match="damping must be positive"):
            TrainConfig(method="vib", damping=value)
    # strings the config text could not write back: the file is ASCII, and
    # the parser cuts each line at '#' and strips it
    with pytest.raises(ValueError, match="dataset must be one line of ASCII"):
        TrainConfig(dataset="idx:path=data/donn\u00e9es")
    with pytest.raises(ValueError, match="dataset"):
        TrainConfig(dataset="idx:path=data/run#2")
    with pytest.raises(ValueError, match="dataset"):
        TrainConfig(dataset="idx:path=data\nrun")
    with pytest.raises(ValueError, match="enc_hidden"):
        TrainConfig(enc_hidden="32\r")
    with pytest.raises(ValueError, match="dec_hidden"):
        TrainConfig(dec_hidden=" 16")
    for bad in ("32,,16", "32,x", "0", "32,-4", "3.5", ","):
        with pytest.raises(ValueError, match="enc_hidden"):
            TrainConfig(enc_hidden=bad)
        with pytest.raises(ValueError, match="dec_hidden"):
            TrainConfig(dec_hidden=bad)
    for name in ("beta", "eta_phi", "eta_theta", "damping", "step_clip"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                TrainConfig(**{name: value})


def test_hidden_dims_parsing():
    cfg = TrainConfig(enc_hidden="64, 32", dec_hidden="")
    assert cfg.hidden_dims("enc") == [64, 32]
    assert cfg.hidden_dims("dec") == []
    assert TrainConfig(enc_hidden="128,64 ,8").hidden_dims("enc") == [128, 64, 8]
