"""Preprocessing and augmentation for radiographs and MRI volumes.

All operations are pure functions over :class:`Volume` values; augmentation
randomness comes from an explicit ``numpy.random.Generator`` so every chain
is reproducible from a seed.  ``build_pipeline`` composes the per-protocol
chains (XR, DESS, TSE, T2MAP) with a global spatial ``scale`` factor so the
same chain runs at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractViolation

PROTOCOLS = ("XR", "DESS", "TSE", "T2MAP")


@dataclass
class Volume:
    """Spacing-aware intensity array, 2D [row, col] or 3D [row, col, slice].

    ``dtype_bits`` tracks the significant bit depth of the source acquisition
    so LSB truncation can validate its precondition.
    """

    data: np.ndarray
    spacing: tuple
    dtype_bits: int = 16

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim not in (2, 3):
            raise ContractViolation(f"volume must be 2D or 3D, got {self.data.ndim}D")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != self.data.ndim:
            raise ContractViolation("spacing length must match volume dimensionality")
        if any(s <= 0 for s in self.spacing):
            raise ContractViolation("spacing entries must be strictly positive")
        if not np.all(np.isfinite(self.data)):
            raise ContractViolation("volume data must be finite")

    @property
    def shape(self):
        return self.data.shape


def truncate_lsb(v: Volume, n_bits: int) -> Volume:
    """Zero the ``n_bits`` least significant bits of every value.

    Requires integer-valued, non-negative data; the significant bit depth of
    the result drops by ``n_bits``.
    """
    if not (0 <= n_bits < v.dtype_bits):
        raise ContractViolation(f"n_bits must be in [0, {v.dtype_bits}), got {n_bits}")
    if np.any(v.data < 0):
        raise ContractViolation("LSB truncation requires non-negative values")
    if np.any(v.data != np.floor(v.data)):
        raise ContractViolation("LSB truncation requires integer-valued data")
    if n_bits == 0:
        return replace(v, data=v.data.copy())
    mask = ~np.int64((1 << n_bits) - 1)
    data = (v.data.astype(np.int64) & mask).astype(np.float64)
    return Volume(data, v.spacing, v.dtype_bits - n_bits)


def percentile_clip(v: Volume, lo_pct: float, hi_pct: float) -> Volume:
    """Clip intensities to the [lo_pct, hi_pct] percentile range scan-wise.

    Percentiles use linear interpolation between order statistics over the
    whole scan.
    """
    if v.data.size == 0:
        raise ContractViolation("cannot clip an empty volume")
    if not (0.0 <= lo_pct < hi_pct <= 100.0):
        raise ContractViolation("need 0 <= lo_pct < hi_pct <= 100")
    lo, hi = np.percentile(v.data, [lo_pct, hi_pct])
    return replace(v, data=np.clip(v.data, lo, hi))


def value_clip(v: Volume, lo: float, hi: float) -> Volume:
    """Clip intensities to a fixed value range (e.g. [0, 100] ms for T2)."""
    if lo >= hi:
        raise ContractViolation("need lo < hi for value clipping")
    return replace(v, data=np.clip(v.data, lo, hi))


def crop(v: Volume, size, mode: str = "center", margin_trim=None, rng=None) -> Volume:
    """Trim symmetric margins, then extract a window of exactly ``size``.

    Center mode places ties toward the lower index.  Random mode draws a
    uniform valid offset per axis from ``rng``.  When an axis falls short of
    the requested size by exactly one voxel (the 31-slice acquisition versus
    a 32-slice window), the edge is replicated once rather than failing;
    larger shortfalls are contract violations naming the axis.
    """
    size = tuple(int(s) for s in size)
    if len(size) != v.data.ndim:
        raise ContractViolation("crop size must give one entry per axis")
    margin_trim = tuple(int(m) for m in (margin_trim or (0,) * v.data.ndim))
    if mode == "random" and rng is None:
        raise ContractViolation("random crop requires an rng")
    data = v.data
    for ax, m in enumerate(margin_trim):
        if m < 0 or 2 * m >= data.shape[ax]:
            raise ContractViolation(f"margin trim {m} too large for axis {ax}")
        if m:
            sl = [slice(None)] * data.ndim
            sl[ax] = slice(m, data.shape[ax] - m)
            data = data[tuple(sl)]
    for ax, want in enumerate(size):
        have = data.shape[ax]
        if want > have + 1:
            raise ContractViolation(
                f"crop size {want} exceeds axis {ax} extent {have} by more than one"
            )
        if want == have + 1:  # pad one voxel by edge replication
            sl = [slice(None)] * data.ndim
            sl[ax] = slice(have - 1, have)
            data = np.concatenate([data, data[tuple(sl)]], axis=ax)
    starts = []
    for ax, want in enumerate(size):
        room = data.shape[ax] - want
        if mode == "center":
            starts.append(room // 2)
        else:
            starts.append(int(rng.integers(0, room + 1)))
    window = tuple(slice(s, s + w) for s, w in zip(starts, size))
    return replace(v, data=data[window].copy())


def rotate_inplane(v: Volume, angle_deg: float) -> Volume:
    """Rotate each 2D slice about its center with bilinear sampling.

    Positive angles move a point at (center + (dr, dc)) to
    (center + (dr cos a - dc sin a, dr sin a + dc cos a)) in (row, col)
    coordinates.  Samples falling outside the source take value 0; shape is
    preserved.
    """
    if not np.isfinite(angle_deg):
        raise ContractViolation("rotation angle must be finite")
    data = v.data
    h, w = data.shape[:2]
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    t = math.radians(angle_deg)
    cos_t, sin_t = math.cos(t), math.sin(t)
    rr, cc_grid = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    dr, dc = rr - cr, cc_grid - cc
    # inverse map: rotate destination coords by -angle
    sr = cr + cos_t * dr + sin_t * dc
    sc = cc - sin_t * dr + cos_t * dc
    # tolerate float noise at the exact border (e.g. full-turn angles)
    eps = 1e-6
    valid = (sr > -eps) & (sr < h - 1 + eps) & (sc > -eps) & (sc < w - 1 + eps)
    r0 = np.clip(np.floor(sr).astype(int), 0, h - 1)
    c0 = np.clip(np.floor(sc).astype(int), 0, w - 1)
    r1 = np.minimum(r0 + 1, h - 1)
    c1 = np.minimum(c0 + 1, w - 1)
    wr = np.clip(sr - r0, 0.0, 1.0)
    wc = np.clip(sc - c0, 0.0, 1.0)
    if data.ndim == 3:
        wr, wc, valid_b = wr[..., None], wc[..., None], valid[..., None]
    else:
        valid_b = valid
    out = (
        data[r0, c0] * (1 - wr) * (1 - wc)
        + data[r1, c0] * wr * (1 - wc)
        + data[r0, c1] * (1 - wr) * wc
        + data[r1, c1] * wr * wc
    )
    out = np.where(valid_b, out, 0.0)
    return replace(v, data=out)


def gamma_correct(v: Volume, gamma: float) -> Volume:
    """Apply x -> x**gamma to a volume already normalized to [0, 1].

    0**0 is defined as 1 (the analytic limit convention).
    """
    if gamma < 0:
        raise ContractViolation("gamma must be non-negative")
    if np.any(v.data < 0) or np.any(v.data > 1):
        raise ContractViolation("gamma correction requires values in [0, 1]")
    return replace(v, data=np.power(v.data, gamma))


def _resample_axis(a: np.ndarray, n_dst: int, axis: int) -> np.ndarray:
    n_src = a.shape[axis]
    if n_dst == n_src:
        return a
    x = (np.arange(n_dst) + 0.5) * (n_src / n_dst) - 0.5
    x = np.clip(x, 0.0, n_src - 1.0)
    lo = np.floor(x).astype(int)
    hi = np.minimum(lo + 1, n_src - 1)
    w = x - lo
    shape = [1] * a.ndim
    shape[axis] = n_dst
    w = w.reshape(shape)
    return np.take(a, lo, axis=axis) * (1 - w) + np.take(a, hi, axis=axis) * w


def resample(v: Volume, target_shape) -> Volume:
    """Separable linear interpolation to ``target_shape``.

    Coordinates map with pixel-center alignment, src = (dst + 0.5)*scale - 0.5,
    clamped to the borders (so downsampling is exact on linear ramps while
    upsampling constant-extrapolates at the edges).  Spacing metadata is
    rescaled to keep the physical extent.
    """
    target_shape = tuple(int(s) for s in target_shape)
    if len(target_shape) != v.data.ndim or any(s <= 0 for s in target_shape):
        raise ContractViolation("target shape must be positive, one entry per axis")
    data = v.data
    for ax, n_dst in enumerate(target_shape):
        data = _resample_axis(data, n_dst, ax)
    spacing = tuple(
        sp * (n_src / n_dst)
        for sp, n_src, n_dst in zip(v.spacing, v.data.shape, target_shape)
    )
    return Volume(np.ascontiguousarray(data), spacing, v.dtype_bits)


def normalize(v: Volume, mode: str) -> Volume:
    """Affine intensity standardization.

    ``unit_interval`` maps min -> 0, max -> 1; ``zero_mean_unit_range``
    subtracts the mean then divides by the (pre-subtraction) max - min.
    Constant volumes map to all zeros in both modes.
    """
    data = v.data
    span = float(data.max() - data.min()) if data.size else 0.0
    if span == 0.0:
        return replace(v, data=np.zeros_like(data))
    if mode == "unit_interval":
        out = (data - data.min()) / span
    elif mode == "zero_mean_unit_range":
        out = (data - data.mean()) / span
    else:
        raise ContractViolation(f"unknown normalization mode {mode!r}")
    return replace(v, data=out)


def extract_roi(v: Volume, center_rc: tuple, size_mm: tuple = (140.0, 140.0)) -> Volume:
    """Cut a physically sized window around a knee-center pixel coordinate.

    ``center_rc`` is the (row, col) joint center in pixels, supplied by an
    external landmark tool; the window is ``size_mm`` on each axis.
    """
    if v.data.ndim != 2:
        raise ContractViolation("ROI extraction operates on 2D radiographs")
    half = [int(round(size_mm[ax] / v.spacing[ax] / 2.0)) for ax in range(2)]
    starts = [int(round(center_rc[ax])) - half[ax] for ax in range(2)]
    for ax in range(2):
        if starts[ax] < 0 or starts[ax] + 2 * half[ax] > v.data.shape[ax]:
            raise ContractViolation(f"ROI window exceeds image bounds on axis {ax}")
    window = tuple(slice(s, s + 2 * h) for s, h in zip(starts, half))
    return replace(v, data=v.data[window].copy())


def scaled_dim(x: float, scale: float) -> int:
    """Round a full-scale voxel count to the scaled grid (half-up, min 1)."""
    return max(1, int(math.floor(x * scale + 0.5)))


# Train-mode augmentation draws: in-slice rotation angle (degrees) and gamma.
ROTATION_DEG = (-15.0, 15.0)
GAMMA_RANGE = (0.0, 2.0)

# Per-protocol chain parameters at scale 1.0; train mode gamma-augments
# every protocol except those marked ``gamma=False`` (T2 maps).
_CHAIN = {
    "XR": dict(roi_spacing=0.195, crop=(700, 700), out=(350, 350), margin=(0, 0)),
    "DESS": dict(
        trunc_bits=3,
        pct=(0.0, 99.9),
        margin=(16, 16, 0),
        crop=(320, 320, 128),
        out=(160, 160, 64),
    ),
    "TSE": dict(
        trunc_bits=3,
        pct=(0.0, 99.9),
        margin=(16, 16, 0),
        crop=(320, 320, 32),
        out=(160, 160, 32),
    ),
    "T2MAP": dict(
        gamma=False,
        value_clip=(0.0, 100.0),
        margin=(16, 16, 0),
        crop=(320, 320, 25),
        out=(160, 160, 25),
    ),
}


@dataclass
class Pipeline:
    """An ordered, named preprocessing chain for one protocol and mode."""

    protocol: str
    mode: str
    stages: list = field(default_factory=list)

    def stage_names(self) -> list:
        return [name for name, _ in self.stages]

    def __call__(self, v: Volume, rng: np.random.Generator | None = None) -> Volume:
        """Run the chain; train mode draws its augmentation from ``rng``, eval ignores it."""
        if rng is None and self.mode == "train":
            raise ContractViolation("train-mode chains require an rng")
        for _, fn in self.stages:
            v = fn(v, rng)
        return v


def build_pipeline(protocol: str, mode: str, scale: float = 1.0) -> Pipeline:
    """Compose the preprocessing chain for a protocol.

    Eval mode is deterministic (center crop, no rotation/gamma); train mode
    adds random crop, in-slice rotation drawn from ``ROTATION_DEG``, and
    (except for T2 maps) gamma correction drawn from ``GAMMA_RANGE``.
    ``scale`` shrinks every spatial size proportionally.  The chain ends with
    a renormalization so outputs always have zero mean and unit range
    regardless of the interpolation step.
    """
    if protocol not in _CHAIN:
        raise ContractViolation(f"unknown protocol {protocol!r}")
    if mode not in ("train", "eval"):
        raise ContractViolation(f"unknown mode {mode!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ContractViolation(f"scale must be finite and positive, got {scale}")
    p = _CHAIN[protocol]
    train = mode == "train"
    crop_mode = "random" if train else "center"
    stages = []

    if protocol == "XR":
        target_sp = p["roi_spacing"]

        def to_iso(v, rng, sp=target_sp):
            shape = tuple(
                max(1, int(round(n * s / sp))) for n, s in zip(v.data.shape, v.spacing)
            )
            return resample(v, shape)

        stages.append(("resample_spacing", to_iso))
    if "trunc_bits" in p:
        stages.append(
            ("truncate_lsb", lambda v, rng, b=p["trunc_bits"]: truncate_lsb(v, b))
        )
    if "pct" in p:
        lo, hi = p["pct"]
        stages.append(
            ("percentile_clip", lambda v, rng, lo=lo, hi=hi: percentile_clip(v, lo, hi))
        )
    if "value_clip" in p:
        lo, hi = p["value_clip"]
        stages.append(
            ("value_clip", lambda v, rng, lo=lo, hi=hi: value_clip(v, lo, hi))
        )

    crop_size = tuple(scaled_dim(s, scale) for s in p["crop"])
    margin = tuple(scaled_dim(m, scale) if m else 0 for m in p["margin"])

    def crop_stage(v, rng, size=crop_size, m=margin, mode_=crop_mode):
        return crop(v, size, mode=mode_, margin_trim=m, rng=rng)

    stages.append(("crop", crop_stage))
    stages.append(("unit_interval", lambda v, rng: normalize(v, "unit_interval")))

    if train:
        stages.append(("rotate", lambda v, rng: rotate_inplane(v, float(rng.uniform(*ROTATION_DEG)))))
        if p.get("gamma", True):
            stages.append(("gamma", lambda v, rng: gamma_correct(v, float(rng.uniform(*GAMMA_RANGE)))))

    stages.append(
        ("zero_mean_unit_range", lambda v, rng: normalize(v, "zero_mean_unit_range"))
    )
    out_shape = tuple(scaled_dim(s, scale) for s in p["out"])
    stages.append(("resample", lambda v, rng, t=out_shape: resample(v, t)))
    stages.append(
        ("renormalize", lambda v, rng: normalize(v, "zero_mean_unit_range"))
    )
    return Pipeline(protocol, mode, stages)
