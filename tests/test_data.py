import hashlib

import numpy as np
import pytest

from geoib.data import (
    _DIGIT_STROKES,
    DatasetHandle,
    IDX_MAGIC_IMAGES,
    _densify,
    gauss_mixture,
    load_idx,
    make_dataset,
    parse_dataset_spec,
    read_idx,
    render_digit,
    render_digit_set,
    two_moons,
    write_digit_corpus,
    write_idx,
)
from geoib.rng import Rng
from oracles import densify_per_segment, render_digit_meshgrid


# ------------------------------------------------------------------ handle


def test_handle_rejects_overlapping_splits():
    with pytest.raises(ValueError, match="overlap"):
        DatasetHandle(
            features=np.zeros((4, 2)), labels=np.zeros(4, dtype=np.int64),
            train_idx=np.array([0, 1]), val_idx=np.array([1]),
            test_idx=np.array([2, 3]),
        )


def test_handle_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="out-of-range"):
        DatasetHandle(
            features=np.zeros((3, 2)), labels=np.zeros(3, dtype=np.int64),
            train_idx=np.array([0, 5]), val_idx=np.array([1]),
            test_idx=np.array([2]),
        )


def test_handle_split_accessor():
    ds = gauss_mixture(100, 0.1, seed=0)
    x_tr, y_tr = ds.split("train")
    assert x_tr.shape == (70, 8) and y_tr.shape == (70,)
    assert ds.split("val")[0].shape[0] == 10
    assert ds.split("test")[0].shape[0] == 20
    assert ds.n_features == 8 and ds.n_classes == 4


@pytest.mark.parametrize("kind", ["idx", "gauss_mixture"])
def test_split_rows_are_read_only_and_equal_the_gathered_rows(tmp_path, kind):
    # an IDX split is one ascending run of rows and comes back as a view of
    # the features; the permuted synthetic splits are gathered
    if kind == "idx":
        write_digit_corpus(tmp_path, n_train=20, n_test=5, seed=0)
        ds = load_idx(tmp_path)
    else:
        ds = gauss_mixture(100, 0.1, seed=0)
    for name in ("train", "val", "test"):
        idx = getattr(ds, f"{name}_idx")
        x, y = ds.split(name)
        assert x.dtype == np.float64 and x.shape == (idx.size, ds.n_features)
        np.testing.assert_array_equal(x.view(np.uint64),
                                      ds.features[idx].view(np.uint64))
        np.testing.assert_array_equal(y, ds.labels[idx])
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            y[0] = 1
        assert np.shares_memory(x, ds.features) == (kind == "idx")
        assert np.shares_memory(y, ds.labels) == (kind == "idx")
    # the handle's own arrays stay writable
    assert ds.features.flags.writeable and ds.labels.flags.writeable


# -------------------------------------------------------------- generators


def test_gauss_mixture_deterministic():
    a = gauss_mixture(200, 0.14, seed=7)
    b = gauss_mixture(200, 0.14, seed=7)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.train_idx, b.train_idx)
    c = gauss_mixture(200, 0.14, seed=8)
    assert not np.array_equal(a.features, c.features)


def test_gauss_mixture_class_means():
    ds = gauss_mixture(4000, 0.01, seed=1)
    for c in range(4):
        mean = ds.features[ds.labels == c].mean(axis=0)
        expect = np.full(8, 0.2)
        expect[c] = 0.8
        np.testing.assert_allclose(mean, expect, rtol=0, atol=0.01)
    np.testing.assert_array_equal(ds.labels, np.arange(4000) % 4)


def test_gauss_mixture_validation():
    with pytest.raises(ValueError, match="positive"):
        gauss_mixture(0, 0.1, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        gauss_mixture(10, -0.1, seed=0)
    with pytest.raises(ValueError, match="classes"):
        gauss_mixture(10, 0.1, seed=0, classes=9, dim=8)


def test_two_moons_noiseless_points_sit_on_arcs():
    ds = two_moons(500, 0.0, seed=2)
    u = 3.0 * ds.features[:, 0] - 1.0
    v = 1.5 * ds.features[:, 1] - 0.5
    m0 = ds.labels == 0
    r0 = np.abs(u[m0] ** 2 + v[m0] ** 2 - 1.0)
    r1 = np.abs((1.0 - u[~m0]) ** 2 + (0.5 - v[~m0]) ** 2 - 1.0)
    assert float(r0.max()) < 1e-12
    assert float(r1.max()) < 1e-12


def test_two_moons_split_sizes_odd_n():
    ds = two_moons(101, 0.05, seed=3)
    assert int((ds.labels == 0).sum()) == 51
    assert int((ds.labels == 1).sum()) == 50


def test_make_dataset_dispatch():
    a = make_dataset("two_moons:n=50,noise=0.05", seed=4)
    b = two_moons(50, 0.05, seed=4)
    np.testing.assert_array_equal(a.features, b.features)
    with pytest.raises(ValueError, match="unknown dataset kind"):
        make_dataset("swirls:n=50", seed=0)
    with pytest.raises(ValueError, match="no option 'dim'"):
        make_dataset("two_moons:n=50,dim=3", seed=0)


def test_synthetic_metadata_documents_generator():
    ds = gauss_mixture(50, 0.14, seed=5)
    assert ds.metadata["kind"] == "gauss_mixture"
    assert ds.metadata["noise"] == repr(0.14)
    assert ds.metadata["seed"] == "5"
    assert "feature_scaling" in ds.metadata


# ------------------------------------------------------------------- idx


def test_read_idx_handcrafted_fixture(tmp_path):
    # 4 images of 2x2, payload bytes 0..15, header written by hand
    blob = (IDX_MAGIC_IMAGES.to_bytes(4, "big")
            + (4).to_bytes(4, "big") + (2).to_bytes(4, "big")
            + (2).to_bytes(4, "big") + bytes(range(16)))
    path = tmp_path / "fixture-images.idx"
    path.write_bytes(blob)
    arr = read_idx(path)
    assert arr.shape == (4, 2, 2) and arr.dtype == np.uint8
    np.testing.assert_array_equal(arr.ravel(), np.arange(16, dtype=np.uint8))
    np.testing.assert_array_equal(arr[1], [[4, 5], [6, 7]])


def test_idx_round_trip(tmp_path):
    images = Rng(6).integers(0, 256, (3, 4, 5)).astype(np.uint8)
    labels = np.array([1, 7, 3], dtype=np.uint8)
    ip = tmp_path / "a-images.idx"
    lp = tmp_path / "a-labels.idx"
    write_idx(ip, images)
    write_idx(lp, labels)
    np.testing.assert_array_equal(read_idx(ip), images)
    np.testing.assert_array_equal(read_idx(lp), labels)


def test_write_idx_validation(tmp_path):
    with pytest.raises(ValueError, match="uint8"):
        write_idx(tmp_path / "x", np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="1-D.*or images"):
        write_idx(tmp_path / "x", np.zeros((2, 2), dtype=np.uint8))


def test_read_idx_bad_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"\x00\x00\x09\x99" + bytes(8))
    with pytest.raises(ValueError, match="bad magic 0x00000999 at byte 0"):
        read_idx(path)


def test_read_idx_truncation(tmp_path):
    path = tmp_path / "short"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated magic"):
        read_idx(path)
    full = (IDX_MAGIC_IMAGES.to_bytes(4, "big") + (1).to_bytes(4, "big")
            + (2).to_bytes(4, "big") + (2).to_bytes(4, "big") + bytes(3))
    path.write_bytes(full)
    with pytest.raises(ValueError, match="expected 20"):
        read_idx(path)


def test_read_idx_header_whose_size_overflows_int64(tmp_path):
    # 2**31 * 2**31 * 4 is 2**64: an int64 product wraps to 0 and would let
    # this bare 16-byte header pass as a complete, empty file
    path = tmp_path / "huge-images.idx"
    path.write_bytes(IDX_MAGIC_IMAGES.to_bytes(4, "big") + (2**31).to_bytes(4, "big")
                     + (2**31).to_bytes(4, "big") + (4).to_bytes(4, "big"))
    with pytest.raises(ValueError, match=f"payload ends at byte 16, expected {16 + 2**64}"):
        read_idx(path)


def test_load_idx_single_file_mode(tmp_path):
    images = Rng(7).integers(0, 256, (20, 2, 2)).astype(np.uint8)
    labels = (np.arange(20) % 10).astype(np.uint8)
    write_idx(tmp_path / "digits-images.idx", images)
    write_idx(tmp_path / "digits-labels.idx", labels)
    ds = load_idx(tmp_path / "digits-images.idx")
    assert ds.features.shape == (20, 4)
    assert float(ds.features.max()) <= 1.0 and float(ds.features.min()) >= 0.0
    np.testing.assert_array_equal(ds.train_idx, np.arange(16))
    np.testing.assert_array_equal(ds.val_idx, np.arange(16, 18))
    np.testing.assert_array_equal(ds.test_idx, np.arange(18, 20))
    assert ds.metadata["image_shape"] == "2x2"
    # pixels rescaled by exactly 1/255
    assert ds.features[0, 0] == images[0, 0, 0] / 255.0


def test_load_idx_features_are_the_bits_of_the_images_over_255(tmp_path):
    # every uint8 value, in both modes: the features are one C-contiguous
    # float64 array holding astype(np.float64) / 255.0 bit for bit
    ramp = np.arange(256, dtype=np.uint8).reshape(16, 4, 4)
    back = ramp[::-1, ::-1, ::-1].copy()
    labels = (np.arange(16) % 10).astype(np.uint8)
    single = tmp_path / "single"
    single.mkdir()
    write_idx(single / "ramp-images.idx", ramp)
    write_idx(single / "ramp-labels.idx", labels)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for prefix, images in (("train", ramp), ("t10k", back)):
        write_idx(corpus / f"{prefix}-images-idx3-ubyte", images)
        write_idx(corpus / f"{prefix}-labels-idx1-ubyte", labels)
    for path, images in ((single / "ramp-images.idx", ramp),
                         (corpus, np.concatenate([ramp, back]))):
        ds = load_idx(path)
        want = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
        assert ds.features.dtype == np.float64
        assert ds.features.flags.c_contiguous and ds.features.flags.owndata
        np.testing.assert_array_equal(ds.features.view(np.uint64),
                                      want.view(np.uint64))


def test_load_idx_count_mismatch(tmp_path):
    write_idx(tmp_path / "d-images.idx",
              np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx(tmp_path / "d-labels.idx", np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(tmp_path / "d-images.idx")


def test_load_idx_label_range(tmp_path):
    write_idx(tmp_path / "e-images.idx",
              np.zeros((2, 2, 2), dtype=np.uint8))
    write_idx(tmp_path / "e-labels.idx", np.array([3, 11], dtype=np.uint8))
    with pytest.raises(ValueError, match=r"out of range \[0, 9\]"):
        load_idx(tmp_path / "e-images.idx")


def test_load_idx_needs_images_in_name(tmp_path):
    write_idx(tmp_path / "plain.idx", np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="labels file"):
        load_idx(tmp_path / "plain.idx")


def test_load_idx_directory_mode(tmp_path):
    write_digit_corpus(tmp_path, n_train=40, n_test=10, seed=0)
    ds = load_idx(tmp_path)
    assert ds.features.shape == (50, 784)
    np.testing.assert_array_equal(ds.train_idx, np.arange(36))
    np.testing.assert_array_equal(ds.val_idx, np.arange(36, 40))
    np.testing.assert_array_equal(ds.test_idx, np.arange(40, 50))
    assert ds.metadata["image_shape"] == "28x28"


def test_load_idx_directory_missing_file(tmp_path):
    write_digit_corpus(tmp_path, n_train=10, n_test=5, seed=0)
    (tmp_path / "t10k-labels-idx1-ubyte").unlink()
    with pytest.raises(ValueError, match="missing expected IDX"):
        load_idx(tmp_path)


# ---------------------------------------------------------------- renderer


def test_render_digit_set_deterministic():
    a_img, a_lab = render_digit_set(30, seed=1)
    b_img, b_lab = render_digit_set(30, seed=1)
    np.testing.assert_array_equal(a_img, b_img)
    np.testing.assert_array_equal(a_lab, b_lab)
    c_img, _ = render_digit_set(30, seed=2)
    assert not np.array_equal(a_img, c_img)


def test_render_digit_set_balanced():
    images, labels = render_digit_set(40, seed=3)
    assert images.shape == (40, 28, 28) and images.dtype == np.uint8
    counts = np.bincount(labels, minlength=10)
    np.testing.assert_array_equal(counts, np.full(10, 4))


def test_render_digit_rejects_bad_digit():
    with pytest.raises(ValueError, match="0..9"):
        render_digit(10, Rng(0))


def test_rendered_digits_have_ink():
    # every glyph leaves a visible stroke against the dark background
    images, _ = render_digit_set(20, seed=4)
    assert int(images.max(axis=(1, 2)).min()) > 128
    assert float((images > 64).mean()) < 0.5


# sha256 of images.tobytes() + labels.tobytes() from render_digit_set(n, seed)
RENDER_DIGESTS = {
    (1000, 0): "441552d6978e1fc64c6d605e65667897270cb67deb53665fba06058c501e7790",
    (1000, 1): "5d6a9d992eada54111619c39a7246664a0b9fddfad39717ef86ef202feb9cb2d",
    (1000, 2): "83a9f0944b48ebac388698894305a78854746c035d0b582930b1c5dcde90ab6b",
    (200, 1): "8f3d4e5e0772de11ecd6955dbc5924c6a1a5ec0b5a90b751e1cc9b6dfc50f49c",
}


@pytest.mark.parametrize("n,seed", sorted(RENDER_DIGESTS))
def test_render_digit_set_digest(n, seed):
    images, labels = render_digit_set(n, seed)
    digest = hashlib.sha256(images.tobytes() + labels.tobytes()).hexdigest()
    assert digest == RENDER_DIGESTS[n, seed]


@pytest.mark.parametrize("seed", [0, 17])
def test_render_digit_matches_meshgrid_oracle(seed):
    # both renderers read one seeded sequence of draws, digit after digit
    ours, oracle = Rng(seed, stream=3), Rng(seed, stream=3)
    for i in range(500):
        digit = (7 * i + seed) % 10
        np.testing.assert_array_equal(render_digit(digit, ours),
                                      render_digit_meshgrid(digit, oracle))


def test_densify_matches_per_segment_oracle():
    rng = Rng(5)
    polylines = []
    for _ in range(40):
        angle = rng.uniform(-0.5, 0.5)
        ca, sa = np.cos(angle), np.sin(angle)
        lin = np.array([[ca, -sa], [sa, ca]]) @ (np.diag(rng.uniform(0.5, 1.5, 2))
                                                   + rng.uniform(-0.3, 0.3) * np.eye(2, k=1))
        shift = rng.uniform(-0.1, 0.1, 2)
        polylines += [(np.asarray(s, dtype=np.float64) - 0.5) @ lin.T + 0.5 + shift
                      for strokes in _DIGIT_STROKES.values() for s in strokes]
    # a zero-length segment, then one whose length over the step sits so
    # close to 1 that a sum of squares rounds it above 1 and the BLAS dot
    # of np.linalg.norm does not: one point or two
    polylines.append(np.array([[0.1, 0.2], [0.1, 0.2], [0.0, 0.0],
                               [0.005414057672875357, 0.019253258932315317]]))
    for points in polylines:
        np.testing.assert_array_equal(_densify(points), densify_per_segment(points))


# ------------------------------------------------------------- spec strings


def test_parse_dataset_spec():
    kind, opts = parse_dataset_spec("gauss_mixture:n=100,noise=0.1")
    assert kind == "gauss_mixture"
    assert opts == {"n": "100", "noise": "0.1"}
    assert parse_dataset_spec("two_moons") == ("two_moons", {})
    with pytest.raises(ValueError, match="bad dataset option"):
        parse_dataset_spec("idx:pathX")


def test_make_dataset_round_trip():
    a = make_dataset("gauss_mixture:n=120,noise=0.1", seed=9)
    b = gauss_mixture(120, 0.1, seed=9)
    np.testing.assert_array_equal(a.features, b.features)
    assert make_dataset("two_moons:n=60,noise=0.0", seed=1).features.shape == (60, 2)
    # options left out take the kind's defaults
    np.testing.assert_array_equal(make_dataset("two_moons", seed=2).features,
                                  two_moons(2000, 0.08, seed=2).features)
    np.testing.assert_array_equal(make_dataset("gauss_mixture:noise=0.2", seed=2).features,
                                  gauss_mixture(5000, 0.2, seed=2).features)


def test_make_dataset_rejects_unknown_options():
    # a misspelt option must not silently fall back to its default
    with pytest.raises(ValueError, match="'nosie'"):
        make_dataset("gauss_mixture:n=300,nosie=0.5", seed=0)
    with pytest.raises(ValueError, match="'n'"):
        make_dataset("idx:path=x,n=3", seed=0)


def test_make_dataset_names_an_option_whose_value_does_not_convert():
    spec = "gauss_mixture:n=1e3"
    with pytest.raises(ValueError) as caught:
        make_dataset(spec, seed=0)
    assert str(caught.value) == ("dataset option n takes int values, got '1e3' "
                                 "(spec 'gauss_mixture:n=1e3')")
    with pytest.raises(ValueError, match="option noise takes float values, got 'low'"):
        make_dataset("two_moons:noise=low", seed=0)


def test_make_dataset_idx_requires_path():
    with pytest.raises(ValueError, match="path="):
        make_dataset("idx", seed=0)
    with pytest.raises(ValueError, match="unknown dataset kind"):
        make_dataset("mystery:n=5", seed=0)
