"""Voxel-wise monoexponential T2 fitting for multi-echo spin-echo stacks.

The signal model is I(TE) = I0 * exp(-TE / T2).  Each voxel is fit with a
log-linear weighted least squares initializer followed by damped Gauss-Newton
(Levenberg-Marquardt) refinement of (I0, T2) on the raw signal.

One vectorized kernel, ``fit_t2_batch``, runs that fit in lockstep over a
batch of voxels: each round moves every unfinished voxel one damped trial on,
whatever its own iteration, and each voxel keeps its own damping and stops on
its own, by one rule that no caller sets (``MAX_ITER`` iterations at most,
``TOLERANCE`` on the relative step), so a T2 map is the same whichever path
fits it.  ``fit_t2_volume`` feeds it fixed-size voxel chunks and
``fit_t2_voxel`` is a batch of one.  Every result is bit-identical to
fitting the voxel alone with the per-voxel reference loop kept in the tests:
dot products take the same BLAS ddot, the 2x2 systems the same LAPACK gesv,
and each sum the same summation order.  Noise voxels often meet singular damped systems; the sign
of ``slogdet`` (the same getrf factorization) marks them, so the rest of the
batch is still solved in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation


@dataclass
class MultiEchoVolume:
    """Echo stack [row, col, slice, echo] with echo times in milliseconds."""

    data: np.ndarray
    echo_times: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        self.echo_times = np.asarray(self.echo_times, dtype=np.float64)
        if self.data.ndim != 4:
            raise ContractViolation("multi-echo data must be [row, col, slice, echo]")
        if self.echo_times.ndim != 1 or self.echo_times.size < 2:
            raise ContractViolation("need at least two echo times")
        if self.data.shape[3] != self.echo_times.size:
            raise ContractViolation("echo axis must match the echo time list")
        if not (np.all(np.isfinite(self.echo_times)) and np.all(self.echo_times > 0)
                and np.all(np.diff(self.echo_times) > 0)):
            raise ContractViolation("echo times must be finite, positive and strictly increasing")
        if not np.all(np.isfinite(self.data)):
            raise ContractViolation("echo data must be finite")
        if not all(math.isfinite(s) and s > 0 for s in self.spacing):
            raise ContractViolation(f"spacing entries must be finite and > 0, got {tuple(self.spacing)}")


@dataclass
class ParameterMap:
    """Fit outputs per voxel; invalid voxels carry zeros and a False mask."""

    i0: np.ndarray
    t2: np.ndarray
    residual_rms: np.ndarray
    valid_mask: np.ndarray


_T2_MAX = 1e4
T2_CLIP_MS = (0.0, 100.0)  # fit_t2_volume clips valid T2 values to this range
_LAM_START, _LAM_FLOOR = 1e-3, 1e-12
_TRIALS = 20  # damped steps tried per LM iteration before a voxel gives up
MAX_ITER = 50  # LM iterations per voxel at most
TOLERANCE = 1e-8  # a voxel stops once an accepted step moves both parameters less than this (relative)
CHUNK_VOXELS = 65536  # voxels per fit_t2_batch call in fit_t2_volume; bounds the temporaries


def _pymax(a, b):
    """Elementwise Python ``max(a, b)``: ``b`` where ``b > a``, else ``a`` (NaN included)."""
    return np.where(b > a, b, a)


def _dot_rows(a, b):
    """Row-wise dot products through the BLAS ddot that ``a[i] @ b[i]`` uses (same rounding)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _loglinear_init(te, s):
    """Weighted log-linear seed for each row of ``s`` (all entries positive).

    Weights s^2 undo the log-transform skew.  Returns (i0, t2, ok); ``ok`` is
    False where the weighted echo-time spread is zero.  ``s`` must be
    C-contiguous, so that each row sum is the pairwise sum of a 1-D array.
    """
    w = s * s
    y = np.log(s)
    sw = w.sum(axis=1)
    mt = (w * te).sum(axis=1) / sw
    my = (w * y).sum(axis=1) / sw
    dt = te - mt[:, None]
    denom = (w * dt ** 2).sum(axis=1)
    b = (w * dt * (y - my[:, None])).sum(axis=1) / denom
    a = my - b * mt
    t2 = np.where(b < 0, -1.0 / b, _T2_MAX)
    return np.exp(a), np.where(_T2_MAX < t2, _T2_MAX, t2), denom != 0.0


def _seed(s, te):
    """Log-linear seeds for the rows of ``s`` with at least two positive echoes.

    Each row is seeded from its positive echoes only.  One stable lexsort
    brings the rows of each positive-echo pattern together, in row order, and
    each group reduces over one contiguous block, one row per block row.
    Returns (rows, i0, t2) for the rows whose seed exists.
    """
    pos = s > 0
    rows = np.flatnonzero(pos.sum(axis=1) >= 2)
    if rows.size == 0:
        return rows, np.zeros(0), np.zeros(0)
    order = np.lexsort(pos[rows].T)
    grouped = pos[rows[order]]
    starts = np.flatnonzero((grouped[1:] != grouped[:-1]).any(axis=1)) + 1
    i0, t2 = np.empty(rows.size), np.empty(rows.size)
    ok = np.empty(rows.size, dtype=bool)
    for members in np.split(order, starts):
        pattern = pos[rows[members[0]]]
        block = np.ascontiguousarray(s[rows[members]][:, pattern])
        i0[members], t2[members], ok[members] = _loglinear_init(te[pattern], block)
    return rows[ok], i0[ok], t2[ok]


def _solve(damped, g):
    """Solve the damped 2x2 systems; ``solved`` is False where one is singular.

    ``slogdet`` and ``solve`` factor each system with the same LAPACK getrf,
    so a zero sign marks exactly the systems on which ``np.linalg.solve``
    raises.  The others go through one batched gesv call, each solved as it
    would be alone; a singular system keeps a zero delta.
    """
    solved = np.linalg.slogdet(damped)[0] != 0
    delta = np.zeros_like(g)
    delta[solved] = np.linalg.solve(damped[solved], g[solved][:, :, None])[:, :, 0]
    return delta, solved


def _refine(s, te, i0, t2):
    """Levenberg-Marquardt refinement of (I0, T2), in lockstep over the rows of ``s``.

    Each round moves every unfinished row one damped trial on, whatever its
    own iteration and trial: a row starting an iteration first takes its
    Jacobian at its current fit, then all the rows' damped systems take one
    ``_solve`` call.  A row stops on its own: when an accepted step changes
    both parameters by less than ``TOLERANCE`` (relative), after ``MAX_ITER``
    iterations, or when ``_TRIALS`` damped steps in a row fail to lower the
    cost.  Returns the final (i0, t2, residuals).
    """
    n = s.shape[0]
    lam = np.full(n, _LAM_START)
    r = s - i0[:, None] * np.exp(-te / t2[:, None])
    cost = _dot_rows(r, r)
    g, h, hdiag = np.empty((n, 2)), np.empty((n, 2, 2)), np.zeros((n, 2, 2))
    rel = np.full(n, np.inf)  # of each row's last accepted step
    iters, trials = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    live = np.flatnonzero(iters < MAX_ITER)
    while live.size:
        fresh = live[trials[live] == 0]  # rows starting an iteration
        t2f = t2[fresh]
        # Jacobian of the model wrt (i0, t2)
        e = np.exp(-te / t2f[:, None])
        j1 = i0[fresh][:, None] * te / (t2f * t2f)[:, None] * e
        g[fresh, 0], g[fresh, 1] = _dot_rows(e, r[fresh]), _dot_rows(j1, r[fresh])
        h[fresh, 0, 0] = hdiag[fresh, 0, 0] = _dot_rows(e, e)
        h[fresh, 0, 1] = h[fresh, 1, 0] = _dot_rows(e, j1)
        h[fresh, 1, 1] = hdiag[fresh, 1, 1] = _dot_rows(j1, j1)
        delta, solved = _solve(h[live] + lam[live][:, None, None] * hdiag[live], g[live])
        i0n = i0[live] + delta[:, 0]
        t2n = t2[live] + delta[:, 1]
        step = np.flatnonzero(solved & ~(t2n <= 0))
        rn = s[live[step]] - i0n[step][:, None] * np.exp(-te / t2n[step][:, None])
        cn = _dot_rows(rn, rn)
        better = cn <= cost[live[step]]
        take = step[better]
        won = live[take]
        rel[won] = _pymax(
            np.abs(delta[take, 0]) / _pymax(1.0, np.abs(i0n[take])),
            np.abs(delta[take, 1]) / _pymax(1.0, np.abs(t2n[take])),
        )
        i0[won], t2[won], r[won], cost[won] = i0n[take], t2n[take], rn[better], cn[better]
        lam[won] = _pymax(lam[won] * 0.1, _LAM_FLOOR)
        iters[won] += 1
        trials[live] += 1
        trials[won] = 0
        lam[live[trials[live] > 0]] *= 10.0  # the rows whose trial failed
        live = live[~(rel[live] < TOLERANCE) & (iters[live] < MAX_ITER) & (trials[live] < _TRIALS)]
    return i0, t2, r


def fit_t2_batch(signals, echo_times) -> ParameterMap:
    """Fit (I0, T2) for every row of ``signals[voxel, echo]`` at once.

    Returns a ParameterMap of 1-D arrays.  Voxels with fewer than two strictly
    positive echoes are invalid, as are fits that leave the bounds
    I0 in [0, 10*max(signal)], T2 in (0, 1e4].  The log-linear seed uses the
    positive echoes only; the refinement and the residual RMS use all echoes.
    Each voxel's result is bit-identical to fitting it alone.
    """
    s = np.asarray(signals, dtype=np.float64)
    te = np.asarray(echo_times, dtype=np.float64)
    if s.ndim != 2 or te.shape != s.shape[1:]:
        raise ContractViolation("signals must be [voxel, echo] with one echo time per echo")
    if not np.all(np.isfinite(s)):
        raise ContractViolation("voxel signal must be finite")
    n = s.shape[0]
    fit = ParameterMap(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))
    with np.errstate(all="ignore"):  # overflow, 0/0 and the like are judged by the bounds below
        rows, i0, t2 = _seed(s, te)
        if rows.size == 0:
            return fit
        s = s[rows]
        i0, t2, r = _refine(s, te, i0, t2)
        ok = (0.0 <= i0) & (i0 <= 10.0 * s.max(axis=1)) & (0.0 < t2) & (t2 <= _T2_MAX)
        rows = rows[ok]
        fit.i0[rows], fit.t2[rows] = i0[ok], t2[ok]
        fit.residual_rms[rows] = np.sqrt(np.mean(r[ok] ** 2, axis=1))
        fit.valid_mask[rows] = True
    return fit


def fit_t2_voxel(signal, echo_times):
    """Fit (I0, T2) for one voxel: a batch of one (see ``fit_t2_batch``).

    Returns (i0, t2, residual_rms, valid); an invalid voxel gives zeros.
    """
    s = np.asarray(signal, dtype=np.float64)
    te = np.asarray(echo_times, dtype=np.float64)
    if s.shape != te.shape:
        raise ContractViolation("signal and echo times must align")
    fit = fit_t2_batch(s.reshape(1, -1), te.reshape(-1))
    return float(fit.i0[0]), float(fit.t2[0]), float(fit.residual_rms[0]), bool(fit.valid_mask[0])


def fit_t2_volume(volume: MultiEchoVolume) -> ParameterMap:
    """Fit every voxel of a multi-echo stack, ``CHUNK_VOXELS`` voxels per ``fit_t2_batch`` call.

    Valid T2 values are clipped to ``T2_CLIP_MS`` ([0, 100] ms) after fitting;
    invalid voxels carry zeros.  The result does not depend on the chunk size.
    """
    chunk = CHUNK_VOXELS
    flat = volume.data.reshape(-1, volume.data.shape[3])
    n = flat.shape[0]
    out = ParameterMap(np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool))
    for start in range(0, n, chunk):
        part = fit_t2_batch(flat[start:start + chunk], volume.echo_times)
        window = slice(start, start + chunk)
        out.i0[window], out.t2[window] = part.i0, part.t2
        out.residual_rms[window], out.valid_mask[window] = part.residual_rms, part.valid_mask
    out.t2[out.valid_mask] = np.clip(out.t2[out.valid_mask], *T2_CLIP_MS)
    shape = volume.data.shape[:3]
    return ParameterMap(*(a.reshape(shape) for a in (out.i0, out.t2, out.residual_rms, out.valid_mask)))


def two_echo_exact(s1, s2, te1, te2):
    """Closed-form two-echo solution: T2 = (te2 - te1) / ln(s1 / s2)."""
    if te2 <= te1:
        raise ContractViolation("echo times must be strictly increasing")
    if s1 <= 0 or s2 <= 0:
        raise ContractViolation("closed form requires positive signals")
    if s1 == s2:
        raise ContractViolation("equal signals leave T2 undefined")
    t2 = (te2 - te1) / np.log(s1 / s2)
    i0 = s1 * np.exp(te1 / t2)
    return float(i0), float(t2)
