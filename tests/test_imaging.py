import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from koafusion.errors import ContractViolation
from koafusion.imaging import (
    Volume,
    build_pipeline,
    crop,
    extract_roi,
    gamma_correct,
    normalize,
    percentile_clip,
    resample,
    rotate_inplane,
    scaled_dim,
    truncate_lsb,
    value_clip,
)


def vol2(data, spacing=(1.0, 1.0), bits=16):
    return Volume(np.asarray(data, dtype=np.float64), spacing, bits)


class TestVolume:
    def test_rejects_bad_spacing_and_nan(self):
        with pytest.raises(ContractViolation):
            Volume(np.zeros((4, 4)), (1.0,))
        with pytest.raises(ContractViolation):
            Volume(np.zeros((4, 4)), (1.0, -1.0))
        with pytest.raises(ContractViolation):
            Volume(np.array([[np.nan, 0.0]]), (1.0, 1.0))

    def test_rejects_1d_and_4d(self):
        with pytest.raises(ContractViolation):
            Volume(np.zeros(4), (1.0,))
        with pytest.raises(ContractViolation):
            Volume(np.zeros((2, 2, 2, 2)), (1.0,) * 4)


class TestTruncateLsb:
    def test_masks_low_bits(self):
        v = vol2([[255.0, 7.0, 8.0, 256.0]])
        out = truncate_lsb(v, 3)
        assert_array_equal(out.data, [[248.0, 0.0, 8.0, 256.0]])
        assert out.dtype_bits == 13

    def test_zero_bits_is_identity(self):
        v = vol2([[5.0, 6.0]])
        assert_array_equal(truncate_lsb(v, 0).data, v.data)

    def test_requires_nonnegative_integers(self):
        with pytest.raises(ContractViolation):
            truncate_lsb(vol2([[1.5, 2.0]]), 1)
        with pytest.raises(ContractViolation):
            truncate_lsb(vol2([[-1.0, 2.0]]), 1)
        with pytest.raises(ContractViolation):
            truncate_lsb(vol2([[1.0]]), 16)

    def test_property_masked_values_are_multiples(self):
        rng = np.random.default_rng(11)
        for n_bits in (1, 3, 5):
            data = rng.integers(0, 4096, size=(20, 20)).astype(np.float64)
            out = truncate_lsb(vol2(data), n_bits)
            assert np.all(out.data % (1 << n_bits) == 0)
            assert np.all(out.data <= data)
            assert np.all(data - out.data < (1 << n_bits))


class TestPercentileClip:
    def test_linear_interpolation_oracle(self):
        # 1000 values 0..999: the 99.9th percentile interpolates to 998.001
        data = np.arange(1000, dtype=np.float64).reshape(10, 100)
        out = percentile_clip(vol2(data), 0.0, 99.9)
        assert out.data.max() == pytest.approx(998.001, abs=1e-12)
        assert out.data.min() == 0.0

    def test_clip_is_scan_wise(self):
        data = np.zeros((2, 10))
        data[1] = np.arange(10) * 100.0
        out = percentile_clip(vol2(data), 0.0, 50.0)
        lo, hi = np.percentile(data, [0.0, 50.0])
        assert out.data.max() == hi

    def test_bounds_validated(self):
        with pytest.raises(ContractViolation):
            percentile_clip(vol2([[1.0]]), 50.0, 50.0)


class TestCrop:
    def test_center_crop_low_tie(self):
        # even leftover splits toward the lower index: rows 3..6 of 0..9
        data = np.arange(10, dtype=np.float64)[:, None] * np.ones((1, 4))
        out = crop(vol2(data), (4, 4), mode="center")
        assert_array_equal(out.data[:, 0], [3, 4, 5, 6])

    def test_margin_trim_applies_before_window(self):
        data = np.arange(100, dtype=np.float64).reshape(10, 10)
        out = crop(vol2(data), (4, 4), mode="center", margin_trim=(2, 2))
        inner = data[2:8, 2:8]
        assert_array_equal(out.data, inner[1:5, 1:5])

    def test_one_short_axis_pads_by_edge_replication(self):
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = crop(vol2(data), (4, 4), mode="center")
        assert out.data.shape == (4, 4)
        assert_array_equal(out.data[:, 3], out.data[:, 2])

    def test_two_short_axis_rejected(self):
        with pytest.raises(ContractViolation, match="axis 1"):
            crop(vol2(np.zeros((4, 2))), (4, 4))

    def test_random_crop_windows_are_valid_and_seeded(self):
        data = np.arange(64, dtype=np.float64).reshape(8, 8)
        rng = np.random.default_rng(3)
        a = crop(vol2(data), (3, 3), mode="random", rng=np.random.default_rng(5))
        b = crop(vol2(data), (3, 3), mode="random", rng=np.random.default_rng(5))
        assert_array_equal(a.data, b.data)
        for _ in range(20):
            w = crop(vol2(data), (3, 3), mode="random", rng=rng)
            assert w.data.shape == (3, 3)
            # every window is a contiguous block of the source
            r0, c0 = divmod(int(w.data[0, 0]), 8)
            assert_array_equal(w.data, data[r0 : r0 + 3, c0 : c0 + 3])

    def test_random_requires_rng(self):
        with pytest.raises(ContractViolation):
            crop(vol2(np.zeros((4, 4))), (2, 2), mode="random")


class TestRotate:
    def test_quarter_turn_moves_point_exactly(self):
        data = np.zeros((5, 5))
        data[1, 2] = 1.0  # one unit above center
        out = rotate_inplane(vol2(data), 90.0)
        # +90 degrees maps (dr, dc)=(-1, 0) to (0, -1): one left of center
        assert out.data[2, 1] == pytest.approx(1.0, abs=1e-12)
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)

    def test_full_turn_is_identity(self):
        rng = np.random.default_rng(0)
        data = rng.random((9, 9))
        out = rotate_inplane(vol2(data), 360.0)
        assert_allclose(out.data, data, atol=1e-9)

    def test_zero_angle_identity_and_shape_preserved(self):
        rng = np.random.default_rng(1)
        data = rng.random((6, 7, 3))
        out = rotate_inplane(Volume(data, (1, 1, 1)), 0.0)
        assert_allclose(out.data, data, atol=0)
        assert out.data.shape == data.shape

    def test_out_of_bounds_samples_are_zero(self):
        data = np.ones((8, 8))
        out = rotate_inplane(vol2(data), 45.0)
        assert out.data[0, 0] == 0.0  # corner leaves the source footprint

    def test_applies_same_angle_to_all_slices(self):
        rng = np.random.default_rng(2)
        plane = rng.random((7, 7))
        data = np.stack([plane, plane], axis=2)
        out = rotate_inplane(Volume(data, (1, 1, 1)), 30.0)
        assert_allclose(out.data[:, :, 0], out.data[:, :, 1], atol=0)


class TestGamma:
    def test_power_curve(self):
        v = vol2([[0.0, 0.25, 1.0]])
        out = gamma_correct(v, 2.0)
        assert_allclose(out.data, [[0.0, 0.0625, 1.0]], atol=0)

    def test_gamma_zero_maps_everything_to_one(self):
        # 0**0 uses the limit convention
        out = gamma_correct(vol2([[0.0, 0.5, 1.0]]), 0.0)
        assert_array_equal(out.data, [[1.0, 1.0, 1.0]])

    def test_requires_unit_interval(self):
        with pytest.raises(ContractViolation):
            gamma_correct(vol2([[1.5]]), 2.0)


class TestResample:
    def test_downsample_midpoint_oracle(self):
        # {0,1,2,3} -> 2 samples at src coords 0.5 and 2.5
        v = vol2(np.array([[0.0, 1.0, 2.0, 3.0]]), spacing=(1.0, 1.0))
        out = resample(v, (1, 2))
        assert_allclose(out.data, [[0.5, 2.5]], atol=1e-12)
        assert out.spacing == (1.0, 2.0)

    def test_same_shape_is_identity(self):
        rng = np.random.default_rng(4)
        data = rng.random((5, 6))
        out = resample(vol2(data), (5, 6))
        assert_allclose(out.data, data, atol=0)

    def test_exact_on_constants_and_ramps_when_downsampling(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(8, 40))
            m = int(rng.integers(2, n + 1))
            a, b = rng.normal(size=2)
            ramp = a * np.arange(n) + b
            v = vol2(np.tile(ramp, (3, 1)))
            out = resample(v, (3, m))
            x = (np.arange(m) + 0.5) * (n / m) - 0.5
            assert_allclose(out.data[0], a * x + b, atol=1e-9)
            const = resample(vol2(np.full((7, n), 3.25)), (7, m))
            assert_allclose(const.data, 3.25, atol=1e-9)

    def test_spacing_rescales_to_keep_extent(self):
        v = Volume(np.zeros((100, 100, 40)), (0.5, 0.5, 2.0))
        out = resample(v, (50, 50, 20))
        assert out.spacing == (1.0, 1.0, 4.0)


class TestNormalize:
    def test_unit_interval(self):
        out = normalize(vol2([[0.0, 5.0, 10.0]]), "unit_interval")
        assert_allclose(out.data, [[0.0, 0.5, 1.0]], atol=0)

    def test_zero_mean_unit_range(self):
        out = normalize(vol2([[0.0, 5.0, 10.0]]), "zero_mean_unit_range")
        assert out.data.mean() == pytest.approx(0.0, abs=1e-15)
        assert out.data.max() - out.data.min() == pytest.approx(1.0, abs=1e-15)

    def test_constant_volume_maps_to_zeros(self):
        for mode in ("unit_interval", "zero_mean_unit_range"):
            out = normalize(vol2(np.full((3, 3), 7.0)), mode)
            assert_array_equal(out.data, np.zeros((3, 3)))


class TestExtractRoi:
    def test_window_is_physically_sized(self):
        v = Volume(np.arange(400 * 400, dtype=np.float64).reshape(400, 400), (0.5, 0.5))
        out = extract_roi(v, center_rc=(200, 200), size_mm=(100.0, 50.0))
        assert out.data.shape == (200, 100)

    def test_out_of_bounds_rejected(self):
        v = Volume(np.zeros((50, 50)), (1.0, 1.0))
        with pytest.raises(ContractViolation):
            extract_roi(v, center_rc=(5, 25), size_mm=(40.0, 40.0))


class TestScaledDim:
    def test_half_up_rounding_with_floor_of_one(self):
        assert scaled_dim(25, 0.1) == 3
        assert scaled_dim(700, 0.5) == 350
        assert scaled_dim(27, 0.01) == 1
        assert scaled_dim(31, 1.0) == 31


class TestPipelines:
    def _dess_volume(self, rng, shape=(40, 40, 16)):
        data = rng.integers(0, 2048, size=shape).astype(np.float64)
        return Volume(data, (0.37, 0.37, 0.7), dtype_bits=11)

    def test_eval_chain_is_deterministic(self):
        rng = np.random.default_rng(9)
        v = self._dess_volume(rng)
        pipe = build_pipeline("DESS", "eval", scale=0.1)
        a = pipe(v)
        b = pipe(v)
        assert_array_equal(a.data, b.data)

    def test_every_output_has_zero_mean_and_unit_range(self):
        rng = np.random.default_rng(10)
        for proto, vol in [
            ("DESS", self._dess_volume(rng)),
            ("TSE", Volume(rng.integers(0, 4096, size=(40, 40, 4)).astype(float), (0.37, 0.37, 3.0), 12)),
            ("T2MAP", Volume(rng.uniform(0, 120, size=(40, 40, 3)), (0.31, 0.31, 3.0))),
            ("XR", Volume(rng.uniform(0, 255, size=(75, 75)), (0.195, 0.195))),
        ]:
            for mode in ("eval", "train"):
                pipe = build_pipeline(proto, mode, scale=0.1)
                out = pipe(vol, np.random.default_rng(3))
                assert abs(out.data.mean()) < 1e-6, (proto, mode)
                assert abs((out.data.max() - out.data.min()) - 1.0) < 1e-6, (proto, mode)

    def test_train_chain_reproducible_from_seed(self):
        rng = np.random.default_rng(12)
        v = self._dess_volume(rng)
        pipe = build_pipeline("DESS", "train", scale=0.1)
        a = pipe(v, np.random.default_rng(21))
        b = pipe(v, np.random.default_rng(21))
        assert_array_equal(a.data, b.data)

    def test_t2map_train_chain_has_no_gamma(self):
        stages = build_pipeline("T2MAP", "train", scale=0.1).stage_names()
        assert "gamma" not in stages
        assert "rotate" in stages
        assert stages[-1] == "renormalize"

    def test_train_chain_requires_rng(self):
        v = self._dess_volume(np.random.default_rng(15))
        with pytest.raises(ContractViolation):
            build_pipeline("DESS", "train", scale=0.1)(v)

    def test_eval_chain_ignores_rng(self):
        v = self._dess_volume(np.random.default_rng(16))
        pipe = build_pipeline("DESS", "eval", scale=0.1)
        assert_array_equal(pipe(v).data, pipe(v, np.random.default_rng(1)).data)

    def test_dess_train_chain_stage_order(self):
        stages = build_pipeline("DESS", "train", scale=0.1).stage_names()
        assert stages == [
            "truncate_lsb",
            "percentile_clip",
            "crop",
            "unit_interval",
            "rotate",
            "gamma",
            "zero_mean_unit_range",
            "resample",
            "renormalize",
        ]

    def test_eval_chains_have_no_augmentation(self):
        for proto in ("XR", "DESS", "TSE", "T2MAP"):
            stages = build_pipeline(proto, "eval", scale=0.1).stage_names()
            assert "rotate" not in stages and "gamma" not in stages

    def test_xr_chain_resamples_spacing_first(self):
        stages = build_pipeline("XR", "eval", scale=0.1).stage_names()
        assert stages[0] == "resample_spacing"

    def test_t2map_values_clipped_before_normalization(self):
        rng = np.random.default_rng(14)
        data = rng.uniform(0, 100, size=(40, 40, 3))
        data[0, 0, 0] = 5000.0  # a wild fit value must not dominate the range
        pipe = build_pipeline("T2MAP", "eval", scale=0.1)
        out = pipe(Volume(data, (0.31, 0.31, 3.0)))
        assert np.isfinite(out.data).all()
        assert "value_clip" in pipe.stage_names()

    def test_rejects_unknown_protocol_and_mode(self):
        with pytest.raises(ContractViolation):
            build_pipeline("CT", "eval")
        with pytest.raises(ContractViolation):
            build_pipeline("DESS", "predict")


class TestValueClip:
    def test_fixed_range(self):
        out = value_clip(vol2([[-5.0, 50.0, 500.0]]), 0.0, 100.0)
        assert_array_equal(out.data, [[0.0, 50.0, 100.0]])
