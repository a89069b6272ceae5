"""
Fitting T2 relaxation times from multi-echo MRI signals
=======================================================

A spin-echo acquisition samples an exponential decay I(TE) = I0 * exp(-TE/T2)
at a handful of echo times.  This demo fits single voxels, checks the
two-echo closed form, and maps a whole synthetic stack.  Every fit stops by
the same rule: at most ``relaxometry.MAX_ITER`` Levenberg-Marquardt
iterations, and sooner once a step moves both parameters by less than
``relaxometry.TOLERANCE`` (relative).
"""

import numpy as np

from koafusion.relaxometry import (
    MultiEchoVolume,
    fit_t2_voxel,
    fit_t2_volume,
    two_echo_exact,
)

rng = np.random.default_rng(0)

# one voxel: seven echoes from 10 to 70 ms, noiseless decay
echo_times = np.arange(10.0, 71.0, 10.0)
i0_true, t2_true = 1400.0, 42.0
signal = i0_true * np.exp(-echo_times / t2_true)

i0, t2, rms, valid = fit_t2_voxel(signal, echo_times)
print(f"noiseless voxel: I0 {i0:.3f} (true {i0_true}), T2 {t2:.4f} ms "
      f"(true {t2_true}), residual rms {rms:.2e}")

# the same voxel with Gaussian noise: the fit degrades gracefully
noisy = signal + rng.normal(0.0, 8.0, size=signal.shape)
i0_n, t2_n, rms_n, valid_n = fit_t2_voxel(noisy, echo_times)
print(f"noisy voxel:     I0 {i0_n:.1f}, T2 {t2_n:.2f} ms, rms {rms_n:.2f}, "
      f"valid {valid_n}")

# with exactly two echoes the answer is available in closed form, and the
# iterative fit lands on the same numbers
s2 = i0_true * np.exp(-np.array([10.0, 50.0]) / t2_true)
i0_cf, t2_cf = two_echo_exact(s2[0], s2[1], 10.0, 50.0)
i0_it, t2_it, _, _ = fit_t2_voxel(s2, [10.0, 50.0])
print(f"two echoes: closed form T2 {t2_cf:.6f} ms, iterative {t2_it:.6f} ms")

# a small stack: a bright ring of long-T2 tissue over a short-T2 background
hw, slices = 24, 2
t2_map_true = np.full((hw, hw), 30.0)
yy, xx = np.mgrid[0:hw, 0:hw]
ring = ((yy - hw / 2) ** 2 + (xx - hw / 2) ** 2) < (hw / 3) ** 2
t2_map_true[ring] = 60.0

stack = np.zeros((hw, hw, slices, echo_times.size))
for k, te in enumerate(echo_times):
    stack[:, :, :, k] = (900.0 * np.exp(-te / t2_map_true))[:, :, None]

volume = MultiEchoVolume(stack, echo_times, spacing=(0.5, 0.5, 3.0))
pmap = fit_t2_volume(volume)
print(f"volume fit: {pmap.valid_mask.mean():.0%} voxels valid, "
      f"ring T2 {pmap.t2[ring, 0].mean():.2f} ms, "
      f"background T2 {pmap.t2[~ring, 0].mean():.2f} ms")
