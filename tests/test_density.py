"""Oracle density rendering, occupancy conversion, and the density raster file."""

import logging

import numpy as np
import pytest

from slzsim import (DensityMap, MalformedFile, OracleNoiseConfig,
                    load_density, occupancy_from_density,
                    render_oracle_density, save_density)
from slzsim.density import BLOBS_PER_CHUNK, _blob_sum

from oracles import blob_sum_oracle, dilate_5x5_oracle, render_density_oracle


def test_zero_heads_zero_map():
    d = render_oracle_density([], OracleNoiseConfig(), 64, 48)
    assert d.values.shape == (48, 64)
    assert (d.values == 0).all()


def test_single_blob_integral_near_unit():
    cfg = OracleNoiseConfig(sigma_px=3.0)
    d = render_oracle_density([(64.0, 64.0)], cfg, 128, 128)
    assert 0.98 <= float(d.values.sum()) <= 1.0


def test_render_deterministic():
    cfg = OracleNoiseConfig(sigma_px=3.0, fp_rate=2.0, fn_rate=0.3, seed=42)
    heads = [(10.0, 10.0), (50.0, 20.0), (90.0, 70.0)]
    a = render_oracle_density(heads, cfg, 128, 96)
    b = render_oracle_density(heads, cfg, 128, 96)
    assert np.array_equal(a.values, b.values)


def _render_cases():
    """Heads on and off the image, at integer and fractional positions,
    with non-default sigma, miss and spurious-blob noise, tiny images, and
    more blobs than one chunk."""
    rng = np.random.default_rng(26)
    for case in range(60):
        width, height = (int(v) for v in rng.integers(1, 81, size=2))
        n = int(rng.integers(0, 3 * BLOBS_PER_CHUNK)) if case % 4 else \
            int(rng.integers(0, 8))
        sigma = float(rng.choice([1.3, 2.5, 3.0, 0.4, 6.0]))
        reach = 4 * sigma + 3
        heads = rng.uniform((-reach, -reach), (width + reach, height + reach),
                            size=(n, 2))
        if case % 3 == 0:
            heads = np.round(heads)
        cfg = OracleNoiseConfig(sigma_px=sigma,
                                fp_rate=float(rng.choice([0.0, 2.0, 50.0])),
                                fn_rate=float(rng.choice([0.0, 0.3])),
                                seed=case)
        yield heads, cfg, width, height
    # far off the image, and exactly on its corners
    yield [(-1e6, 5.0), (5.0, 1e6), (0.0, 0.0), (64.0, 48.0)], \
        OracleNoiseConfig(), 64, 48


def test_render_matches_per_blob_oracle():
    for heads, cfg, width, height in _render_cases():
        d = render_oracle_density(heads, cfg, width, height)
        expected = render_density_oracle(heads, cfg, width, height)
        assert d.values.dtype == np.float32
        assert d.values.tobytes() == expected.tobytes()


def test_blob_sum_adds_in_blob_order():
    # the float32 map rarely shows a reordered float64 sum, so the sum is
    # compared before rounding, on crowds that overlap across chunks
    rng = np.random.default_rng(27)
    for case in range(20):
        width, height = (int(v) for v in rng.integers(1, 41, size=2))
        n = int(rng.integers(1, 3 * BLOBS_PER_CHUNK))
        points = rng.uniform(-15, 55, size=(n, 2))
        if case % 2:
            points = np.round(points)
        sigma = float(rng.choice([1.3, 3.0]))
        got = _blob_sum(points[:, 0], points[:, 1], sigma, width, height)
        expected = blob_sum_oracle(points, sigma, width, height)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("head", [(float("nan"), 1.0), (1.0, float("inf"))])
def test_render_rejects_non_finite_head(head):
    with pytest.raises(ValueError, match="finite"):
        render_oracle_density([head], OracleNoiseConfig(), 16, 16)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        OracleNoiseConfig(sigma_px=0.0)
    with pytest.raises(ValueError):
        OracleNoiseConfig(fn_rate=1.0)
    with pytest.raises(ValueError):
        OracleNoiseConfig(fp_rate=-0.1)


@pytest.mark.parametrize("field, value", [("sigma_px", float("nan")),
                                          ("sigma_px", float("inf")),
                                          ("fp_rate", float("nan")),
                                          ("fp_rate", float("inf")),
                                          ("fn_rate", float("nan"))])
def test_noise_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        OracleNoiseConfig(**{field: value})


def test_density_map_rejects_negative():
    with pytest.raises(ValueError):
        DensityMap(np.array([[0.0, -1.0]]))


# ---------------------------------------------------------------------------
# occupancy conversion

@pytest.mark.parametrize("const", [0.0, 0.5, 255.0])
def test_constant_map_all_free(const):
    occ = occupancy_from_density(DensityMap(np.full((30, 40), const)))
    assert (occ.values == 255).all()
    assert occ.values.shape == (30, 40)


def test_single_pixel_is_9x9_chebyshev_square():
    rng = np.random.default_rng(21)
    for _ in range(10):
        r, c = rng.integers(0, 40), rng.integers(0, 50)
        values = np.zeros((40, 50))
        values[r, c] = 1.0
        occ = occupancy_from_density(DensityMap(values))
        ii, jj = np.meshgrid(np.arange(40), np.arange(50), indexing="ij")
        cheb = np.maximum(np.abs(ii - r), np.abs(jj - c))
        assert np.array_equal(occ.values == 0, cheb <= 4)


def test_random_maps_match_dilation_oracle():
    rng = np.random.default_rng(22)
    for _ in range(20):
        values = np.where(rng.random((32, 32)) < 0.05,
                          rng.uniform(0.1, 2.0, (32, 32)), 0.0)
        occ = occupancy_from_density(DensityMap(values))
        person = values - values.min() > 1e-12
        assert np.array_equal(occ.values == 0, dilate_5x5_oracle(person))


def _border_masks():
    """Person masks that put pixels on the image border, where a separable
    filter's edge mode could go wrong; includes images narrower than the
    9x9 square."""
    rng = np.random.default_rng(24)
    for rows, cols in ((32, 32), (17, 40), (9, 9), (6, 4), (3, 11), (1, 1)):
        mask = np.zeros((rows, cols), dtype=bool)
        mask[0, 0] = True
        yield mask.copy()  # a single pixel at (0, 0)
        mask[0, -1] = mask[-1, 0] = mask[-1, -1] = True
        yield mask.copy()  # all four corners
        for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
            line = np.zeros((rows, cols), dtype=bool)
            line[edge] = rng.random(line[edge].shape) < 0.3
            line[edge][0] = True
            yield line  # person pixels along one edge


def test_border_maps_match_dilation_oracle():
    for person in _border_masks():
        values = np.where(person, 1.0, 0.0)
        occ = occupancy_from_density(DensityMap(values))
        if person.all():  # no background left: nothing counts as a person
            assert (occ.values == 255).all()
        else:
            assert np.array_equal(occ.values == 0, dilate_5x5_oracle(person))


def test_strictly_positive_map_unique_minimum():
    # the unique minimum pixel is the only pre-dilation free pixel; it gets
    # swallowed whenever any person pixel is within Chebyshev distance 4
    values = np.full((20, 20), 3.0)
    values[7, 7] = 1.0
    occ = occupancy_from_density(DensityMap(values))
    assert (occ.values == 0).all()


def test_monotone_under_added_mass():
    rng = np.random.default_rng(23)
    base = np.where(rng.random((32, 32)) < 0.05,
                    rng.uniform(0.5, 1.0, (32, 32)), 0.0)
    extra = base + np.where(rng.random((32, 32)) < 0.05,
                            rng.uniform(0.5, 1.0, (32, 32)), 0.0)
    o1 = occupancy_from_density(DensityMap(base))
    o2 = occupancy_from_density(DensityMap(extra))
    # adding mass (minimum still 0) never frees an occupied pixel
    assert not ((o1.values == 0) & (o2.values == 255)).any()


def test_occupancy_values_binary():
    rng = np.random.default_rng(24)
    d = DensityMap(rng.random((16, 16)).astype(np.float32))
    occ = occupancy_from_density(d)
    assert set(np.unique(occ.values)) <= {0, 255}


# ---------------------------------------------------------------------------
# file format

def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(25)
    d = DensityMap(rng.random((17, 23)).astype(np.float32))
    path = tmp_path / "d.dmap"
    save_density(path, d)
    loaded = load_density(path)
    assert np.array_equal(loaded.values, d.values)


def test_load_wrong_magic(tmp_path):
    path = tmp_path / "bad.dmap"
    path.write_bytes(b"DMPX 4 4\n" + b"\x00" * 64)
    with pytest.raises(MalformedFile):
        load_density(path)


def test_load_truncated_payload(tmp_path):
    path = tmp_path / "short.dmap"
    path.write_bytes(b"DMAP 4 4\n" + b"\x00" * 40)
    with pytest.raises(MalformedFile):
        load_density(path)


def test_load_bad_dimensions(tmp_path):
    path = tmp_path / "dims.dmap"
    path.write_bytes(b"DMAP 0 4\n")
    with pytest.raises(MalformedFile):
        load_density(path)


def test_negative_value_clamped_with_warning(tmp_path, caplog):
    values = np.zeros((2, 2), dtype="<f4")
    values[0, 1] = -0.5
    path = tmp_path / "neg.dmap"
    path.write_bytes(b"DMAP 2 2\n" + values.tobytes())
    with caplog.at_level(logging.WARNING, logger="slzsim.density"):
        loaded = load_density(path)
    assert loaded.values[0, 1] == 0.0
    assert any("clamped" in rec.message for rec in caplog.records)
