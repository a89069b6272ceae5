from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion import relaxometry
from koafusion.errors import ContractViolation
from koafusion.relaxometry import (
    MultiEchoVolume,
    fit_t2_batch,
    fit_t2_volume,
    fit_t2_voxel,
    two_echo_exact,
)


def decay(i0, t2, te):
    return i0 * np.exp(-np.asarray(te, dtype=np.float64) / t2)


class TestTwoEchoClosedForm:
    def test_recovers_constructed_pair(self):
        te1, te2, i0, t2 = 10.0, 40.0, 1200.0, 37.5
        s1, s2 = decay(i0, t2, [te1, te2])
        i0_hat, t2_hat = two_echo_exact(s1, s2, te1, te2)
        assert t2_hat == pytest.approx(t2, rel=1e-12)
        assert i0_hat == pytest.approx(i0, rel=1e-12)

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            two_echo_exact(100.0, 50.0, 30.0, 10.0)  # decreasing echo times
        with pytest.raises(ContractViolation):
            two_echo_exact(-1.0, 50.0, 10.0, 30.0)
        with pytest.raises(ContractViolation):
            two_echo_exact(80.0, 80.0, 10.0, 30.0)  # equal signals

    def test_voxel_fit_matches_closed_form_on_two_echoes(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            i0 = rng.uniform(100, 3000)
            t2 = rng.uniform(10, 90)
            te = np.array([10.0, 40.0])
            s = decay(i0, t2, te)
            i0_cf, t2_cf = two_echo_exact(s[0], s[1], te[0], te[1])
            i0_fit, t2_fit, rms, ok = fit_t2_voxel(s, te)
            assert ok
            assert t2_fit == pytest.approx(t2_cf, rel=1e-9)
            assert i0_fit == pytest.approx(i0_cf, rel=1e-9)
            assert rms < 1e-9 * i0


class TestVoxelFit:
    def test_noiseless_recovery_across_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_echo = int(rng.integers(3, 10))
            te0 = rng.uniform(8.0, 12.0)
            step = rng.uniform(5.0, 15.0)
            te = te0 + step * np.arange(n_echo)
            i0 = rng.uniform(100.0, 5000.0)
            t2 = rng.uniform(6.0, 95.0)
            i0_hat, t2_hat, rms, ok = fit_t2_voxel(decay(i0, t2, te), te)
            assert ok
            assert abs(t2_hat - t2) / t2 < 1e-6
            assert abs(i0_hat - i0) / i0 < 1e-6

    def test_noisy_fit_beats_loglinear_seed(self):
        rng = np.random.default_rng(1)
        te = np.arange(10.0, 71.0, 10.0)
        i0, t2 = 1000.0, 45.0
        s = decay(i0, t2, te) + rng.normal(0, 5.0, size=te.size)
        i0_hat, t2_hat, rms, ok = fit_t2_voxel(s, te)
        assert ok
        assert abs(t2_hat - t2) < 3.0
        # residual rms is bounded by the injected noise scale
        assert rms < 15.0

    def test_fewer_than_two_positive_echoes_invalid(self):
        te = np.array([10.0, 20.0, 30.0])
        assert fit_t2_voxel(np.zeros(3), te) == (0.0, 0.0, 0.0, False)
        assert fit_t2_voxel(np.array([50.0, 0.0, -3.0]), te) == (0.0, 0.0, 0.0, False)

    def test_growing_signal_hits_t2_cap_and_is_invalid(self):
        te = np.array([10.0, 20.0, 30.0, 40.0])
        s = np.array([10.0, 20.0, 40.0, 80.0])  # increasing: negative decay rate
        i0_hat, t2_hat, rms, ok = fit_t2_voxel(s, te)
        assert not ok

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ContractViolation):
            fit_t2_voxel(np.ones(3), np.array([10.0, 20.0]))

    def test_nonfinite_signal_rejected(self):
        with pytest.raises(ContractViolation):
            fit_t2_voxel(np.array([np.inf, 1.0]), np.array([10.0, 20.0]))


class TestVolumeFit:
    def _stack(self, t2_map, i0_map, te):
        data = i0_map[..., None] * np.exp(
            -te[None, None, None, :] / np.where(t2_map > 0, t2_map, 1.0)[..., None]
        )
        data[t2_map <= 0] = 0.0
        return MultiEchoVolume(data, te)

    def test_maps_recovered_and_background_invalid(self):
        rng = np.random.default_rng(7)
        te = np.arange(10.0, 71.0, 10.0)
        t2 = np.zeros((6, 5, 2))
        i0 = np.zeros((6, 5, 2))
        fg = rng.random((6, 5, 2)) > 0.4
        t2[fg] = rng.uniform(20.0, 80.0, size=int(fg.sum()))
        i0[fg] = rng.uniform(200.0, 900.0, size=int(fg.sum()))
        pmap = fit_t2_volume(self._stack(t2, i0, te))
        assert np.array_equal(pmap.valid_mask, fg)
        assert_allclose(pmap.t2[fg], t2[fg], rtol=1e-6)
        assert_allclose(pmap.i0[fg], i0[fg], rtol=1e-6)
        assert np.all(pmap.t2[~fg] == 0.0)
        assert np.all(pmap.i0[~fg] == 0.0)

    def test_valid_t2_clipped_to_range(self):
        te = np.arange(10.0, 71.0, 10.0)
        t2 = np.full((1, 1, 1), 400.0)  # above the display range
        i0 = np.full((1, 1, 1), 500.0)
        stack = self._stack(t2, i0, te)
        pmap = fit_t2_volume(stack)
        assert pmap.valid_mask[0, 0, 0]
        assert pmap.t2[0, 0, 0] == 100.0
        unclipped = fit_t2_batch(stack.data.reshape(1, -1), te)  # the kernel itself does not clip
        assert unclipped.t2[0] == pytest.approx(400.0, rel=1e-6)

    def test_echo_time_contracts(self):
        te_bad = np.array([10.0, 10.0, 30.0])
        with pytest.raises(ContractViolation):
            MultiEchoVolume(np.ones((2, 2, 1, 3)), te_bad)
        with pytest.raises(ContractViolation):
            MultiEchoVolume(np.ones((2, 2, 1, 3)), np.array([30.0]))
        with pytest.raises(ContractViolation):
            MultiEchoVolume(np.ones((2, 2, 3)), np.array([10.0, 20.0, 30.0]))

    @pytest.mark.parametrize("te", [[float("nan"), 20.0, 30.0], [10.0, float("nan"), 30.0],
                                    [10.0, 20.0, float("inf")]])
    def test_non_finite_echo_time_rejected(self, te):
        """Every comparison with NaN is False, so order and sign checks alone let it through."""
        with pytest.raises(ContractViolation, match="finite"):
            MultiEchoVolume(np.ones((2, 2, 1, 3)), np.array(te))


# ---------------------------------------------------------------------------
# The per-voxel Levenberg-Marquardt loop that fit_t2_batch replaced, kept
# as its oracle; it takes the stopping rule (relaxometry.MAX_ITER and
# TOLERANCE) explicitly.
# ---------------------------------------------------------------------------

_T2_MAX = 1e4
_INVALID = (0.0, 0.0, 0.0, False)


def _loop_loglinear_init(te, s):
    w = s * s
    y = np.log(s)
    sw = w.sum()
    mt = (w * te).sum() / sw
    my = (w * y).sum() / sw
    denom = (w * (te - mt) ** 2).sum()
    if denom == 0.0:
        return None
    b = (w * (te - mt) * (y - my)).sum() / denom
    a = my - b * mt
    t2 = -1.0 / b if b < 0 else _T2_MAX
    return float(np.exp(a)), float(min(t2, _T2_MAX))


def _loop_fit_voxel(s, te, max_iter, tolerance):
    pos = s > 0
    if pos.sum() < 2:
        return _INVALID
    init = _loop_loglinear_init(te[pos], s[pos])
    if init is None:
        return _INVALID
    i0, t2 = init
    i0_max = 10.0 * float(s.max())

    def residuals(i0_, t2_):
        return s - i0_ * np.exp(-te / t2_)

    lam = 1e-3
    r = residuals(i0, t2)
    cost = float(r @ r)
    for _ in range(max_iter):
        e = np.exp(-te / t2)
        j0 = e
        j1 = i0 * te / (t2 * t2) * e
        g = np.array([j0 @ r, j1 @ r])
        h = np.array([[j0 @ j0, j0 @ j1], [j0 @ j1, j1 @ j1]])
        step_taken = False
        for _ in range(20):
            damped = h + lam * np.diag(np.diag(h))
            try:
                delta = np.linalg.solve(damped, g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            i0_new, t2_new = i0 + delta[0], t2 + delta[1]
            if t2_new <= 0:
                lam *= 10.0
                continue
            r_new = residuals(i0_new, t2_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                rel = max(
                    abs(delta[0]) / max(1.0, abs(i0_new)),
                    abs(delta[1]) / max(1.0, abs(t2_new)),
                )
                i0, t2, r, cost = i0_new, t2_new, r_new, cost_new
                lam = max(lam * 0.1, 1e-12)
                step_taken = True
                break
            lam *= 10.0
        if not step_taken:
            break
        if rel < tolerance:
            break
    if not (0.0 <= i0 <= i0_max) or not (0.0 < t2 <= _T2_MAX):
        return _INVALID
    rms = float(np.sqrt(np.mean(residuals(i0, t2) ** 2)))
    return float(i0), float(t2), rms, True


def _loop_fit(signals, te, max_iter, tolerance):
    with np.errstate(all="ignore"):
        rows = [_loop_fit_voxel(s, te, max_iter, tolerance) for s in signals]
    return (
        np.array([r[0] for r in rows], dtype=np.float64),
        np.array([r[1] for r in rows], dtype=np.float64),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=bool),
    )


KINDS = ("noiseless", "noisy", "negative", "mixed_sign", "constant", "one_positive",
         "growing", "overflow", "tiny")


def _signal(kind, te, rng):
    i0, t2 = rng.uniform(10.0, 5000.0), rng.uniform(1.0, 150.0)
    clean = i0 * np.exp(-te / t2)
    if kind == "noiseless":
        return clean
    if kind == "noisy":  # large noise also gives non-positive echoes
        return clean + rng.normal(0.0, rng.uniform(1.0, 300.0), te.size)
    if kind == "negative":
        return -clean
    if kind == "mixed_sign":
        return np.where(rng.random(te.size) < 0.4, -clean, clean)
    if kind == "constant":
        return np.full(te.size, rng.choice([0.0, 7.0, -3.0, 1e-3]))
    if kind == "one_positive":
        s = -rng.uniform(0.0, 50.0, te.size)
        s[rng.integers(te.size)] = rng.uniform(1.0, 500.0)
        return s
    if kind == "growing":
        return i0 * np.exp(te / t2)
    if kind == "overflow":  # s * s overflows in the log-linear seed
        return clean * 1e160
    return clean * 1e-300


def _echo_times(rng, n_echo):
    return rng.uniform(1.0, 20.0) + np.cumsum(rng.uniform(1.0, 20.0, n_echo)) - 1.0


def assert_matches_loop(signals, te, max_iter=50, tolerance=1e-8):
    """fit_t2_batch equals the oracle run with the given stopping rule (by default, the
    kernel's own)."""
    fit = fit_t2_batch(signals, te)
    want = _loop_fit(signals, te, max_iter, tolerance)
    got = (fit.i0, fit.t2, fit.residual_rms, fit.valid_mask)
    for name, a, b in zip(("i0", "t2", "residual_rms", "valid_mask"), got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBatchMatchesLoop:
    """fit_t2_batch reproduces the per-voxel loop bit for bit, voxel by voxel."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_echo=st.integers(2, 12),
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=24),
        seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 3, 50]),
        tolerance=st.sampled_from([1e-8, 1e-3]),
    )
    def test_property(self, n_echo, kinds, seed, max_iter, tolerance):
        rng = np.random.default_rng(seed)
        te = _echo_times(rng, n_echo)
        signals = np.array([_signal(k, te, rng) for k in kinds])
        # patched in the body: Hypothesis refuses function-scoped fixtures such as monkeypatch
        with mock.patch.object(relaxometry, "MAX_ITER", max_iter), \
                mock.patch.object(relaxometry, "TOLERANCE", tolerance):
            assert_matches_loop(signals, te, max_iter, tolerance)
            with np.errstate(all="ignore"):
                want = _loop_fit_voxel(signals[0], te, max_iter, tolerance)
            assert fit_t2_voxel(signals[0], te) == want

    @pytest.mark.parametrize("n_echo", range(2, 13))
    def test_every_kind_in_one_batch(self, n_echo):
        rng = np.random.default_rng(100 + n_echo)
        te = _echo_times(rng, n_echo)
        signals = np.array([_signal(k, te, rng) for k in KINDS for _ in range(6)])
        assert_matches_loop(signals[rng.permutation(len(signals))], te)

    def test_many_interleaved_echo_patterns(self):
        """Each of 12 echoes takes its own random sign: hundreds of positive-echo patterns,
        many with one member, interleaved in row order."""
        rng = np.random.default_rng(27)
        te = _echo_times(rng, 12)
        clean = rng.uniform(10.0, 5000.0, (500, 1)) * np.exp(-te / rng.uniform(1.0, 150.0, (500, 1)))
        signals = np.where(rng.random(clean.shape) < 0.5, -clean, clean)
        patterns, counts = np.unique(signals > 0, axis=0, return_counts=True)
        assert len(patterns) > 300 and (counts == 1).sum() > 100
        assert_matches_loop(signals, te)

    def test_empty_and_echo_contracts(self):
        te = np.array([10.0, 20.0, 30.0])
        fit = fit_t2_batch(np.zeros((0, 3)), te)
        assert fit.i0.shape == fit.valid_mask.shape == (0,)
        with pytest.raises(ContractViolation):
            fit_t2_batch(np.ones((4, 3)), te[:2])
        with pytest.raises(ContractViolation):
            fit_t2_batch(np.ones(3), te)
        with pytest.raises(ContractViolation):
            fit_t2_batch(np.array([[1.0, np.nan, 2.0]]), te)


# entries that stress getrf's pivot test: zero, subnormal, extreme, non-finite, and normal values
_ENTRY = st.one_of(st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                                    np.inf, -np.inf, np.nan]),
                   st.floats(-1e3, 1e3))


@st.composite
def _damped_system(draw):
    """A 2x2 system and its right-hand side; about half have a second row that is a
    multiple of the first (rank 1 in exact arithmetic)."""
    a, b, c, d, g0, g1 = (draw(_ENTRY) for _ in range(6))
    if draw(st.booleans()):
        c, d = d * a, d * b
    return [[a, b], [c, d]], [g0, g1]


_SINGULAR = ([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])


class TestSolve:
    """_solve marks unsolved exactly the systems np.linalg.solve refuses, and solves the rest
    bit-identically to solving each alone."""

    @settings(max_examples=300, deadline=None)
    @given(systems=st.lists(_damped_system(), min_size=1, max_size=12))
    @example(systems=[_SINGULAR, ([[1.0, 2.0], [2.0, 4.0]], [3.0, 5.0])])  # nothing left to solve
    def test_matches_solving_each_alone(self, systems):
        damped = np.array([m for m, _ in systems])
        g = np.array([v for _, v in systems])
        with np.errstate(all="ignore"):  # slogdet takes the log of a NaN pivot
            delta, solved = relaxometry._solve(damped, g)
            for k in range(len(g)):
                try:
                    want = np.linalg.solve(damped[k], g[k])
                except np.linalg.LinAlgError:
                    assert not solved[k] and not delta[k].any()
                else:
                    assert solved[k] and delta[k].tobytes() == want.tobytes()

    def test_noise_batch_meets_singular_systems_and_matches_loop(self, monkeypatch):
        """Pure-noise voxels meet singular damped systems; the batch still matches the loop."""
        singular = []
        solve = relaxometry._solve

        def counting(damped, g):
            delta, solved = solve(damped, g)
            singular.append(int((~solved).sum()))
            return delta, solved

        monkeypatch.setattr(relaxometry, "_solve", counting)
        te = np.arange(10.0, 71.0, 10.0)
        signals = np.random.default_rng(0).normal(0.0, 10.0, (300, te.size))
        assert_matches_loop(signals, te)
        assert sum(singular) > 0

    def test_one_solve_call_per_round(self, monkeypatch):
        """Each round moves every unfinished voxel one damped trial on, so the noise batch takes
        as many _solve calls as the most damped trials any one voxel runs in the per-voxel loop."""
        rounds = []
        solve = relaxometry._solve

        def counting(damped, g):
            rounds.append(len(g))
            return solve(damped, g)

        monkeypatch.setattr(relaxometry, "_solve", counting)
        te = np.arange(10.0, 71.0, 10.0)
        signals = np.random.default_rng(0).normal(0.0, 10.0, (300, te.size))
        fit_t2_batch(signals, te)
        # the loop's every damped trial starts with one np.linalg.solve call
        trials = []
        linalg_solve = np.linalg.solve

        def counting_linalg(a, b):
            trials[-1] += 1
            return linalg_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting_linalg)
        with np.errstate(all="ignore"):
            for s in signals:
                trials.append(0)
                _loop_fit_voxel(s, te, relaxometry.MAX_ITER, relaxometry.TOLERANCE)
        assert len(rounds) == max(trials)
        assert sum(rounds) == sum(trials)


class TestChunking:
    def test_result_does_not_depend_on_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(3)
        te = np.arange(10.0, 71.0, 10.0)
        shape = (5, 4, 3)
        i0 = rng.uniform(100.0, 900.0, shape)
        t2 = rng.uniform(10.0, 90.0, shape)
        data = i0[..., None] * np.exp(-te / t2[..., None]) + rng.normal(0.0, 20.0, shape + (te.size,))
        data[rng.random(shape) < 0.3] = rng.normal(0.0, 5.0, te.size)  # background
        volume = MultiEchoVolume(data, te)
        n = int(np.prod(shape))
        maps = []
        for chunk in (1, 7, n):
            monkeypatch.setattr(relaxometry, "CHUNK_VOXELS", chunk)
            maps.append(fit_t2_volume(volume))
        for pmap in maps[1:]:
            for field in ("i0", "t2", "residual_rms", "valid_mask"):
                assert getattr(pmap, field).tobytes() == getattr(maps[0], field).tobytes()
        assert 0 < maps[0].valid_mask.sum() < n
