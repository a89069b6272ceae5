"""Preprocessing and augmentation for radiographs and MRI volumes.

All operations are pure functions over :class:`Volume` values; augmentation
randomness comes from an explicit ``numpy.random.Generator`` so every chain
is reproducible from a seed.  ``build_pipeline`` runs one protocol's row of
``_CHAIN`` (XR, DESS, TSE, T2MAP) with a global spatial ``scale`` factor so
the same chain runs at desk scale.

Chains run per batch, split at the crop.  The stages ahead of it
(``Pipeline.prep``) run per volume, since each subject has its own shape
and spacing, and draw nothing from the generator; from the crop on
(``Pipeline.from_crop``), every stage runs once over the stacked [B, ...]
windows through the row kernels (``_normalize_rows``, ``_rotate_rows``,
``_gamma_rows``, ``_resample_rows``), and finiteness is checked once at
chain exit.  A batch is worked through in chunks of at most
``CHUNK_BYTES`` of crop windows.  A single volume is a batch of one:
``Pipeline.__call__``, ``rotate_inplane``, ``gamma_correct``, ``normalize``
and ``resample`` wrap the same kernels, and each row is bit-identical to
running the chain on that volume alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation


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
        if not all(math.isfinite(s) and s > 0 for s in self.spacing):
            raise ContractViolation(f"spacing entries must be finite and > 0, got {self.spacing}")
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


def _crop_window(data: np.ndarray, size, mode: str, margin_trim, rng) -> np.ndarray:
    """The window ``crop`` returns, as a view of ``data`` (of an edge-padded copy
    when an axis falls one voxel short)."""
    size = tuple(int(s) for s in size)
    if len(size) != data.ndim:
        raise ContractViolation("crop size must give one entry per axis")
    margin_trim = tuple(int(m) for m in (margin_trim or (0,) * data.ndim))
    if len(margin_trim) != data.ndim:
        raise ContractViolation("crop margin_trim must give one entry per axis")
    if mode not in ("center", "random"):
        raise ContractViolation(f"unknown crop mode {mode!r}")
    if mode == "random" and rng is None:
        raise ContractViolation("random crop requires an rng")
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
    return data[tuple(slice(s, s + w) for s, w in zip(starts, size))]


def crop(v: Volume, size, mode: str = "center", margin_trim=None, rng=None) -> Volume:
    """Trim symmetric margins, then extract a window of exactly ``size``.

    Center mode places ties toward the lower index.  Random mode draws a
    uniform valid offset per axis from ``rng``.  When an axis falls short of
    the requested size by exactly one voxel (the 31-slice acquisition versus
    a 32-slice window), the edge is replicated once rather than failing;
    larger shortfalls are contract violations naming the axis.
    """
    return replace(v, data=_crop_window(v.data, size, mode, margin_trim, rng).copy())


def _rotate_rows(a: np.ndarray, angles_deg) -> np.ndarray:
    """Rotate every row of a [B, h, w] or [B, h, w, S] batch by its own angle (see
    ``rotate_inplane``).

    The four bilinear taps of all rows are one flat ``np.take`` gather each.  The
    result is clamped to [min(0, min row), max(0, max row)]: each output is a
    convex combination of the row's values and the zero outside, so the clamp
    only removes rounding overshoot (1.0000000000000002 from unit-interval data).
    """
    if not all(math.isfinite(t) for t in angles_deg):
        raise ContractViolation("rotation angle must be finite")
    b, h, w = a.shape[:3]
    x = a.reshape(b, h, w, -1)
    cr, cc = (h - 1) / 2.0, (w - 1) / 2.0
    rad = [math.radians(t) for t in angles_deg]
    cos_t = np.array([math.cos(t) for t in rad])[:, None, None]
    sin_t = np.array([math.sin(t) for t in rad])[:, None, None]
    dr = (np.arange(h) - cr)[:, None]
    dc = (np.arange(w) - cc)[None, :]
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
    wr = np.clip(sr - r0, 0.0, 1.0)[..., None]
    wc = np.clip(sc - c0, 0.0, 1.0)[..., None]
    flat = x.reshape(b * h * w, -1)
    base = (np.arange(b) * (h * w))[:, None, None]

    def tap(r, c):
        return np.take(flat, (base + r * w + c).reshape(-1), axis=0).reshape(x.shape)

    out = (
        tap(r0, c0) * (1 - wr) * (1 - wc)
        + tap(r1, c0) * wr * (1 - wc)
        + tap(r0, c1) * (1 - wr) * wc
        + tap(r1, c1) * wr * wc
    )
    out = np.where(valid[..., None], out, 0.0)
    rows = x.reshape(b, -1)
    lo = np.minimum(rows.min(axis=1), 0.0)[:, None, None, None]
    hi = np.maximum(rows.max(axis=1), 0.0)[:, None, None, None]
    return np.clip(out, lo, hi).reshape(a.shape)


def rotate_inplane(v: Volume, angle_deg: float) -> Volume:
    """Rotate each 2D slice about its center with bilinear sampling.

    Positive angles move a point at (center + (dr, dc)) to
    (center + (dr cos a - dc sin a, dr sin a + dc cos a)) in (row, col)
    coordinates.  Samples falling outside the source take value 0; shape is
    preserved, and no output leaves [min(0, min v), max(0, max v)].
    """
    return replace(v, data=_rotate_rows(v.data[None], [angle_deg])[0])


def _gamma_rows(a: np.ndarray, gammas) -> np.ndarray:
    """x -> x**gamma over a [B, ...] batch already in [0, 1], one exponent per row."""
    if any(g < 0 for g in gammas):
        raise ContractViolation("gamma must be non-negative")
    if np.any(a < 0) or np.any(a > 1):
        raise ContractViolation("gamma correction requires values in [0, 1]")
    out = np.empty_like(a)
    for i, g in enumerate(gammas):
        np.power(a[i], g, out=out[i])
    return out


def gamma_correct(v: Volume, gamma: float) -> Volume:
    """Apply x -> x**gamma to a volume already normalized to [0, 1].

    0**0 is defined as 1 (the analytic limit convention).
    """
    return replace(v, data=_gamma_rows(v.data[None], [gamma])[0])


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


def _resample_rows(a: np.ndarray, target_shape) -> np.ndarray:
    """Resample every row of a [B, ...] batch to ``target_shape`` (see ``resample``)."""
    for ax, n_dst in enumerate(target_shape):
        a = _resample_axis(a, n_dst, ax + 1)
    return np.ascontiguousarray(a)


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
    return Volume(_resample_rows(v.data[None], target_shape)[0],
                  _resampled_spacing(v.spacing, v.data.shape, target_shape), v.dtype_bits)


def _resampled_spacing(spacing, src_shape, dst_shape) -> tuple:
    return tuple(sp * (n_src / n_dst) for sp, n_src, n_dst in zip(spacing, src_shape, dst_shape))


def _normalize_rows(a: np.ndarray, mode: str) -> np.ndarray:
    """Standardize every row of a [B, ...] batch on its own (see ``normalize``)."""
    if mode not in ("unit_interval", "zero_mean_unit_range"):
        raise ContractViolation(f"unknown normalization mode {mode!r}")
    rows = a.reshape(len(a), -1)
    if rows.shape[1] == 0:
        return np.zeros_like(a)
    lo = rows.min(axis=1)
    span = rows.max(axis=1) - lo
    shift = lo if mode == "unit_interval" else rows.mean(axis=1)
    flat = span == 0.0
    out = (rows - shift[:, None]) / np.where(flat, 1.0, span)[:, None]
    out[flat] = 0.0
    return out.reshape(a.shape)


def normalize(v: Volume, mode: str) -> Volume:
    """Affine intensity standardization.

    ``unit_interval`` maps min -> 0, max -> 1; ``zero_mean_unit_range``
    subtracts the mean then divides by the (pre-subtraction) max - min.
    Constant volumes map to all zeros in both modes.
    """
    return replace(v, data=_normalize_rows(v.data[None], mode)[0])


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


# A batch runs through the chain in chunks of at most this many bytes of
# float64 crop windows (never less than one volume); the rotation's
# temporaries are several times that.  At scale 1.0 a chunk is one DESS, TSE
# or T2MAP window, or 8 XR windows; at desk scale (0.1) it holds 300 DESS windows.
CHUNK_BYTES = 32 << 20

# Train-mode augmentation draws: in-slice rotation angle (degrees) and gamma.
ROTATION_DEG = (-15.0, 15.0)
GAMMA_RANGE = (0.0, 2.0)

# Per-protocol chain parameters at scale 1.0.  Each optional key ahead of the
# crop switches on one stage of ``Pipeline.prep``; train mode gamma-augments
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
PROTOCOLS = tuple(_CHAIN)


@dataclass(frozen=True)
class Pipeline:
    """The preprocessing chain for one protocol and mode, run over a batch of volumes.

    The stages ahead of the crop are those of the protocol's ``_CHAIN`` row
    (``prep``); they see each subject's own shape and spacing.  From the
    crop on, the chain is fixed and runs once over the stacked
    [B, *crop_size] windows: unit-interval normalization, in train mode
    rotation (and gamma when ``gamma`` is set), zero-mean unit-range
    normalization, resampling to ``out_shape`` and renormalization.
    """

    protocol: str
    mode: str
    margin: tuple
    crop_size: tuple
    out_shape: tuple
    gamma: bool

    def stage_names(self) -> list:
        row = _CHAIN[self.protocol]
        names = [name for key, name in (("roi_spacing", "resample_spacing"), ("trunc_bits", "truncate_lsb"),
                                        ("pct", "percentile_clip"), ("value_clip", "value_clip")) if key in row]
        names += ["crop", "unit_interval"]
        if self.mode == "train":
            names += ["rotate", "gamma"] if self.gamma else ["rotate"]
        return names + ["zero_mean_unit_range", "resample", "renormalize"]

    def __call__(self, v: Volume, rng: np.random.Generator | None = None) -> Volume:
        """Run the chain on one volume (a batch of one); train mode draws its
        augmentation from ``rng``, eval ignores it."""
        v = self.prep(v)
        out = self.from_crop([v.data], rng)[0]
        return Volume(out, _resampled_spacing(v.spacing, self.crop_size, self.out_shape), v.dtype_bits)

    def prep(self, v: Volume) -> Volume:
        """The row's stages ahead of the crop, on one volume; they draw no randomness
        and are the same in both modes.  Each is called through its module-level
        name, so a wrapper set on that name sees every call."""
        row = _CHAIN[self.protocol]
        if "roi_spacing" in row:
            sp = row["roi_spacing"]
            v = resample(v, tuple(max(1, int(round(n * s / sp))) for n, s in zip(v.data.shape, v.spacing)))
        if "trunc_bits" in row:
            v = truncate_lsb(v, row["trunc_bits"])
        if "pct" in row:
            v = percentile_clip(v, *row["pct"])
        if "value_clip" in row:
            v = value_clip(v, *row["value_clip"])
        return v

    def from_crop(self, arrays, rng) -> np.ndarray:
        """The chain from the crop on, over the data of prepped volumes (any iterable, read
        lazily ``CHUNK_BYTES`` of windows at a time): [B, *out_shape].  Each subject draws from
        ``rng`` in order: a crop offset per axis, then (train mode) the angle, then gamma."""
        train = self.mode == "train"
        if rng is None and train:
            raise ContractViolation("train-mode chains require an rng")
        per_chunk = max(1, CHUNK_BYTES // (8 * math.prod(self.crop_size)))
        arrays = iter(arrays)
        outs = []
        while chunk := list(itertools.islice(arrays, per_chunk)):
            windows = np.empty((len(chunk),) + self.crop_size)
            angles, gammas = [], []
            for i, data in enumerate(chunk):
                windows[i] = _crop_window(data, self.crop_size, "random" if train else "center",
                                          self.margin, rng)
                if train:
                    angles.append(float(rng.uniform(*ROTATION_DEG)))
                    if self.gamma:
                        gammas.append(float(rng.uniform(*GAMMA_RANGE)))
            chunk = data = None  # release the volumes before the batched stages
            a = _normalize_rows(windows, "unit_interval")
            if angles:
                a = _rotate_rows(a, angles)
            if gammas:
                a = _gamma_rows(a, gammas)
            a = _normalize_rows(a, "zero_mean_unit_range")
            a = _resample_rows(a, self.out_shape)
            outs.append(_normalize_rows(a, "zero_mean_unit_range"))
        if not outs:
            raise ContractViolation("empty batch")
        out = outs[0] if len(outs) == 1 else np.concatenate(outs)
        if not np.isfinite(out).all():
            raise ContractViolation(f"{self.protocol} {self.mode} chain produced non-finite values")
        return out


def build_pipeline(protocol: str, mode: str, scale: float = 1.0) -> Pipeline:
    """The chain of ``protocol``'s ``_CHAIN`` row in ``mode``, sizes scaled by ``scale``.

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
    row = _CHAIN[protocol]
    return Pipeline(
        protocol,
        mode,
        margin=tuple(scaled_dim(m, scale) if m else 0 for m in row["margin"]),
        crop_size=tuple(scaled_dim(s, scale) for s in row["crop"]),
        out_shape=tuple(scaled_dim(s, scale) for s in row["out"]),
        gamma=row.get("gamma", True),
    )
