import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from koafusion import imaging
from koafusion.errors import ContractViolation
from koafusion.imaging import (
    GAMMA_RANGE,
    PROTOCOLS,
    ROTATION_DEG,
    Volume,
    build_pipeline,
    crop,
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
        for bad in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ContractViolation):
                Volume(np.zeros((4, 4)), (1.0, bad))
        with pytest.raises(ContractViolation):
            Volume(np.array([[np.nan, 0.0]]), (1.0, 1.0))

    def test_rejects_1d_and_4d(self):
        with pytest.raises(ContractViolation):
            Volume(np.zeros(4), (1.0,))
        with pytest.raises(ContractViolation):
            Volume(np.zeros((2, 2, 2, 2)), (1.0,) * 4)

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (3, 3, 0), (0, 3, 3)])
    def test_rejects_an_empty_axis(self, shape):
        with pytest.raises(ContractViolation, match="empty spatial axis"):
            Volume(np.zeros(shape), (1.0,) * len(shape))


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

    @pytest.mark.parametrize("value, bits, limit", [(2048.0, 11, 11), (4096.0, 11, 11), (1e300, 11, 11),
                                                    (2.0**53, 64, 53), (1e300, 64, 53)])
    def test_values_beyond_the_bit_depth_refused(self, value, bits, limit):
        """Past 2**53 float64 holds no odd integer and the int64 cast overflows, whatever
        ``dtype_bits`` claims."""
        with pytest.raises(ContractViolation, match=rf"values below 2\*\*{limit}\b"):
            truncate_lsb(vol2([[1.0, value]], bits=bits), 3)

    def test_values_just_below_the_bit_depth_kept(self):
        assert_array_equal(truncate_lsb(vol2([[2047.0]], bits=11), 3).data, [[2040.0]])
        assert_array_equal(truncate_lsb(vol2([[2.0**53 - 1]], bits=64), 3).data, [[2.0**53 - 8]])

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

    @pytest.mark.parametrize("margin_trim", [(1,), (1, 1, 1)])
    def test_margin_trim_needs_one_entry_per_axis(self, margin_trim):
        with pytest.raises(ContractViolation, match="margin_trim"):
            crop(vol2(np.zeros((6, 6))), (2, 2), margin_trim=margin_trim)

    def test_one_short_axis_pads_by_edge_replication(self):
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = crop(vol2(data), (4, 4), mode="center")
        assert out.data.shape == (4, 4)
        assert_array_equal(out.data[:, 3], out.data[:, 2])

    @pytest.mark.parametrize("size", [(0, 4), (-2, 4), (4, 0)])
    @pytest.mark.parametrize("mode", ["center", "random"])
    def test_window_below_one_voxel_rejected(self, size, mode):
        with pytest.raises(ContractViolation, match="at least 1"):
            crop(Volume(np.ones((6, 6)), (1, 1)), size, mode=mode, rng=np.random.default_rng(0))

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

    @pytest.mark.parametrize("with_rng", [False, True])
    def test_unknown_mode_rejected(self, with_rng):
        """A misspelt mode is refused, not taken as a random crop when an rng is given."""
        rng = np.random.default_rng(0) if with_rng else None
        with pytest.raises(ContractViolation, match="'centre'"):
            crop(vol2(np.zeros((6, 6))), (4, 4), mode="centre", rng=rng)


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

    @pytest.mark.parametrize("scale", [1.5, 1e308, 0.0, math.nan])
    def test_scale_outside_0_1_refused(self, scale):
        """The one scale rule that SynthConfig also keeps: scale lies in (0, 1]."""
        with pytest.raises(ContractViolation, match=r"scale must lie in \(0, 1\]"):
            build_pipeline("XR", "eval", scale)


class TestValueClip:
    def test_fixed_range(self):
        out = value_clip(vol2([[-5.0, 50.0, 500.0]]), 0.0, 100.0)
        assert_array_equal(out.data, [[0.0, 50.0, 100.0]])


# ---------------------------------------------------------------------------
# The per-volume reference chain: the chain as it ran one volume at a time
# before chains ran per batch, one array per stage.  The only change is the
# rotation's output clamp, which the batched kernel applies too.
# ---------------------------------------------------------------------------


def _ref_crop(data, size, mode, margin_trim, rng):
    for ax, m in enumerate(margin_trim):
        if m:
            sl = [slice(None)] * data.ndim
            sl[ax] = slice(m, data.shape[ax] - m)
            data = data[tuple(sl)]
    for ax, want in enumerate(size):
        have = data.shape[ax]
        assert want <= have + 1
        if want == have + 1:
            sl = [slice(None)] * data.ndim
            sl[ax] = slice(have - 1, have)
            data = np.concatenate([data, data[tuple(sl)]], axis=ax)
    starts = []
    for ax, want in enumerate(size):
        room = data.shape[ax] - want
        starts.append(room // 2 if mode == "center" else int(rng.integers(0, room + 1)))
    return data[tuple(slice(s, s + w) for s, w in zip(starts, size))].copy()


def _ref_rotate(data, angle_deg):
    h, w = data.shape[:2]
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(angle_deg)
    cos_t, sin_t = math.cos(t), math.sin(t)
    rr, cc_grid = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dr, dc = rr - cr, cc_grid - cc
    sr = cr + cos_t * dr + sin_t * dc
    sc = cc - sin_t * dr + cos_t * dc
    eps = 1e-6
    valid = (sr > -eps) & (sr < h - 1 + eps) & (sc > -eps) & (sc < w - 1 + eps)
    r0 = np.clip(np.floor(sr).astype(int), 0, h - 1)
    c0 = np.clip(np.floor(sc).astype(int), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    wr = np.clip(sr - r0, 0.0, 1.0)
    wc = np.clip(sc - c0, 0.0, 1.0)
    if data.ndim == 3:
        wr, wc, valid = wr[..., None], wc[..., None], valid[..., None]
    out = (
        data[r0, c0] * (1 - wr) * (1 - wc)
        + data[r1, c0] * wr * (1 - wc)
        + data[r0, c1] * (1 - wr) * wc
        + data[r1, c1] * wr * wc
    )
    out = np.where(valid, out, 0.0)
    return np.clip(out, min(0.0, data.min()), max(0.0, data.max()))


def _ref_gamma(data, gamma):
    if np.any(data < 0) or np.any(data > 1):
        raise ContractViolation("gamma correction requires values in [0, 1]")
    return np.power(data, gamma)


def _ref_resample(data, target_shape):
    for axis, n_dst in enumerate(target_shape):
        n_src = data.shape[axis]
        if n_dst == n_src:
            continue
        x = np.clip((np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5, 0.0, n_src - 1.0)
        lo = np.floor(x).astype(int)
        hi = np.minimum(lo + 1, n_src - 1)
        shape = [1] * data.ndim
        shape[axis] = n_dst
        wt = (x - lo).reshape(shape)
        data = np.take(data, lo, axis=axis) * (1 - wt) + np.take(data, hi, axis=axis) * wt
    return np.ascontiguousarray(data)


def _ref_normalize(data, mode):
    span = float(data.max() - data.min())
    if span == 0.0:
        return np.zeros_like(data)
    if mode == "unit_interval":
        return (data - data.min()) / span
    return (data - data.mean()) / span


def reference_chain(pipe, v, rng):
    """``pipe`` run on one volume, stage by stage; returns (data, spacing, dtype_bits)."""
    p = imaging._CHAIN[pipe.protocol]
    train = pipe.mode == "train"
    if pipe.protocol == "XR":
        shape = tuple(max(1, int(round(n * s / p["roi_spacing"]))) for n, s in zip(v.data.shape, v.spacing))
        v = Volume(_ref_resample(v.data, shape),
                   tuple(sp * (n / m) for sp, n, m in zip(v.spacing, v.data.shape, shape)), v.dtype_bits)
    if "trunc_bits" in p:
        v = truncate_lsb(v, p["trunc_bits"])
    if "pct" in p:
        v = percentile_clip(v, *p["pct"])
    if "value_clip" in p:
        v = value_clip(v, *p["value_clip"])
    data = _ref_crop(v.data, pipe.crop_size, "random" if train else "center", pipe.margin, rng)
    data = _ref_normalize(data, "unit_interval")
    if train:
        data = _ref_rotate(data, float(rng.uniform(*ROTATION_DEG)))
        if pipe.gamma:
            data = _ref_gamma(data, float(rng.uniform(*GAMMA_RANGE)))
    data = _ref_normalize(data, "zero_mean_unit_range")
    data = _ref_normalize(_ref_resample(data, pipe.out_shape), "zero_mean_unit_range")
    spacing = tuple(sp * (n / m) for sp, n, m in zip(v.spacing, pipe.crop_size, pipe.out_shape))
    return data, spacing, v.dtype_bits


# Scales keep every window a few voxels wide; TSE at 0.05 crops 2 slices.
ORACLE_SCALE = {"XR": 0.02, "DESS": 0.05, "TSE": 0.05, "T2MAP": 0.05}


def random_source(pipe, rng, constant=False):
    """A random source volume the chain accepts: each axis from one voxel short of
    the window (the edge-pad case) to a few voxels over, XR at its own spacing."""
    if pipe.protocol == "XR":
        spacing = tuple(float(s) for s in rng.uniform(0.12, 0.3, size=2))
        # at least c - 1 voxels on the 0.195 mm grid the chain resamples to
        shape = tuple(math.ceil((c - 1 + int(rng.integers(0, 5))) * 0.195 / s)
                      for c, s in zip(pipe.crop_size, spacing))
    else:
        spacing = (0.37, 0.37, 0.7)
        shape = tuple(int(rng.integers(max(1, c + 2 * m - 1), c + 2 * m + 4))
                      for c, m in zip(pipe.crop_size, pipe.margin))
    if pipe.protocol == "T2MAP":
        data = rng.uniform(0.0, 120.0, size=shape)
    else:
        data = rng.integers(0, 4096, size=shape).astype(np.float64)
    if constant:
        data[...] = data.flat[0]
    return Volume(data, spacing, 12)


def _oracle_volumes(pipe, seed, n, constant_row=None):
    rng = np.random.default_rng(seed)
    return [random_source(pipe, rng, constant=(i == constant_row)) for i in range(n)]


def run_batch(pipe, volumes, rng):
    """The chain over a batch as the provider runs it: ``prep`` per volume, then
    ``from_crop`` over the prepped data."""
    return pipe.from_crop((pipe.prep(v).data for v in volumes), rng)


def assert_matches_reference(pipe, vols, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = run_batch(pipe, vols, got_rng)
    assert got.shape == (len(vols),) + pipe.out_shape
    for row, v in zip(got, vols):
        want, _, _ = reference_chain(pipe, v, want_rng)
        assert np.array_equal(row, want)
    # the next draw (train_fold's dropout seed) sees the same generator state
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


class TestBatchedChainOracle:
    """``prep`` then ``from_crop`` over a batch against the per-volume reference chain, row by row."""

    @settings(max_examples=120, deadline=None)
    @given(
        proto=st.sampled_from(PROTOCOLS),
        mode=st.sampled_from(["train", "eval"]),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        constant_row=st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_matches_per_volume_reference(self, proto, mode, n, seed, constant_row):
        pipe = build_pipeline(proto, mode, ORACLE_SCALE[proto])
        assert_matches_reference(pipe, _oracle_volumes(pipe, seed, n, constant_row), seed)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_31_slices_pad_to_a_32_slice_window(self, mode):
        pipe = dataclasses.replace(build_pipeline("TSE", mode, 0.05), crop_size=(16, 16, 32), out_shape=(8, 8, 32))
        rng = np.random.default_rng(4)
        vols = [Volume(rng.integers(0, 4096, size=(18, 18, n)).astype(float), (0.37, 0.37, 3.0), 12)
                for n in (31, 32, 33)]
        got = assert_matches_reference(pipe, vols, 8)
        assert got.shape == (3, 8, 8, 32)

    def test_constant_volume_gives_zeros(self):
        for proto in PROTOCOLS:
            pipe = build_pipeline(proto, "train", ORACLE_SCALE[proto])
            vols = _oracle_volumes(pipe, 3, 3, constant_row=1)
            got = assert_matches_reference(pipe, vols, 3)
            assert not got[1].any(), proto

    def test_single_volume_call_is_a_batch_of_one(self):
        for proto in PROTOCOLS:
            for mode in ("train", "eval"):
                pipe = build_pipeline(proto, mode, ORACLE_SCALE[proto])
                (v,) = _oracle_volumes(pipe, 5, 1)
                out = pipe(v, np.random.default_rng(6))
                want, spacing, bits = reference_chain(pipe, v, np.random.default_rng(6))
                assert np.array_equal(out.data, want)
                assert out.spacing == spacing and out.dtype_bits == bits

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractViolation):
            build_pipeline("T2MAP", "eval", 0.05).from_crop([], None)


class TestPrepStagesCalledByName:
    # each _CHAIN key ahead of the crop, and the module-level stage it switches on
    STAGE_OF_KEY = {"roi_spacing": "resample", "trunc_bits": "truncate_lsb", "pct": "percentile_clip",
                    "value_clip": "value_clip"}

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_each_stage_runs_once_per_volume(self, monkeypatch, proto, mode):
        """A wrapper set on a stage's module-level name (as a profiler sets it) sees one call
        per volume for every stage the protocol's row switches on, over a batch and in
        ``__call__`` alike; a stage bound when the module was imported would bypass it."""
        calls = collections.Counter()
        for name in self.STAGE_OF_KEY.values():
            def counted(*args, _real=getattr(imaging, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(imaging, name, counted)
        pipe = build_pipeline(proto, mode, ORACLE_SCALE[proto])
        want = [stage for key, stage in self.STAGE_OF_KEY.items() if key in imaging._CHAIN[proto]]
        assert want  # every protocol has a stage ahead of the crop
        vols = _oracle_volumes(pipe, 4, 3)
        run_batch(pipe, iter(vols), np.random.default_rng(0))
        assert calls == {stage: len(vols) for stage in want}
        calls.clear()
        pipe(vols[0], np.random.default_rng(0))
        assert calls == {stage: 1 for stage in want}


class TestChainExit:
    def test_stage_emitting_nan_is_rejected(self, monkeypatch):
        real = imaging._resample_rows

        def leaky(a, target_shape):
            out = real(a, target_shape)
            out.flat[0] = np.nan
            return out

        monkeypatch.setattr(imaging, "_resample_rows", leaky)
        for mode in ("train", "eval"):
            pipe = build_pipeline("DESS", mode, 0.05)
            with pytest.raises(ContractViolation, match="non-finite"):
                run_batch(pipe, _oracle_volumes(pipe, 1, 2), np.random.default_rng(0))

    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_chunks_of_one_volume_match_one_chunk(self, monkeypatch, proto):
        pipe = build_pipeline(proto, "train", ORACLE_SCALE[proto])
        vols = _oracle_volumes(pipe, 2, 5)
        whole_rng, chunked_rng = np.random.default_rng(9), np.random.default_rng(9)
        whole = run_batch(pipe, vols, whole_rng)
        monkeypatch.setattr(imaging, "CHUNK_BYTES", 1)
        chunked = run_batch(pipe, iter(vols), chunked_rng)
        assert np.array_equal(whole, chunked)
        assert whole_rng.bit_generator.state == chunked_rng.bit_generator.state


class TestRotationStaysInRange:
    def test_train_chain_accepts_its_own_rotation_overshoot(self):
        # bilinear rotation of this unit-interval window gave 1.0000000000000002,
        # which the gamma stage then rejected
        data = np.round(np.random.default_rng(1).random((72, 72)) * 4095)
        data[:36] = 4095
        out = build_pipeline("XR", "train", 0.1)(Volume(data, (0.195, 0.195)), np.random.default_rng(197))
        assert np.isfinite(out.data).all()

    @settings(max_examples=200, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
        angle=st.floats(-360.0, 360.0),
        offset=st.sampled_from([0.0, -0.5, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_within_zero_and_data_range(self, shape, angle, offset, seed):
        rng = np.random.default_rng(seed)
        data = rng.random(shape) + offset
        data[rng.random(shape) < 0.5] = 1.0 + offset
        out = rotate_inplane(Volume(data, (1.0, 1.0, 1.0)), angle).data
        assert out.min() >= min(0.0, data.min())
        assert out.max() <= max(0.0, data.max())
