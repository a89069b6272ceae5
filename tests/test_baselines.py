import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion import baselines
from koafusion.baselines import (
    CLASS_WEIGHTINGS,
    GRAD_TOL,
    L2_PENALTY,
    MAX_ITER,
    class_weights,
    fit_logistic,
    fit_logistic_batch,
    lr_fit_cv,
    lr_predict,
)
from koafusion.cohort import Dataset, SubjectRecord, encode_clinical
from koafusion.errors import ContractViolation, NonFiniteValue


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestClassWeights:
    def test_none_is_ones(self):
        y = np.array([0, 1, 1, 0])
        assert_allclose(class_weights(y, "none"), np.ones(4), rtol=0, atol=0)

    def test_balanced_oracle_90_10(self):
        y = np.array([1] * 10 + [0] * 90)
        w = class_weights(y, "balanced")
        assert_allclose(w[:10], np.full(10, 100.0 / 20.0), rtol=0, atol=0)
        assert_allclose(w[10:], np.full(90, 100.0 / 180.0), rtol=0, atol=0)

    def test_balanced_weights_sum_to_n(self):
        y = np.array([1] * 3 + [0] * 17)
        assert_allclose(class_weights(y, "balanced").sum(), 20.0, rtol=1e-14)

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            class_weights(np.array([0, 1]), "sqrt")
        with pytest.raises(ContractViolation):
            class_weights(np.array([1, 1]), "balanced")


class TestFitLogistic:
    def test_symmetric_pair_matches_scalar_oracle(self):
        # symmetric +-1 features: bias 0, weight solves w = 2*sigmoid(-w)
        x = np.array([[1.0], [-1.0]])
        y = np.array([1.0, 0.0])
        w, b, obj = fit_logistic(x, y)
        lo, hi = 0.0, 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            if mid - 2.0 * sigmoid(-mid) < 0:
                lo = mid
            else:
                hi = mid
        assert_allclose(w[0], lo, atol=1e-7)
        assert_allclose(b, 0.0, atol=1e-8)
        want_obj = 2.0 * np.logaddexp(0.0, -lo) + 0.5 * lo**2
        assert_allclose(obj, want_obj, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_first_order_optimality(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 3))
        y = (x @ np.array([1.0, -2.0, 0.5]) + rng.normal(0, 0.5, 40) > 0).astype(float)
        sw = class_weights(y.astype(int), "balanced")
        w, b, obj = fit_logistic(x, y, sample_weights=sw)
        p = sigmoid(x @ w + b)
        r = sw * (p - y)
        gw = x.T @ r + L2_PENALTY * w
        gb = r.sum()
        assert np.sqrt(gw @ gw + gb * gb) < 1e-7

    def test_objective_value_is_consistent(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 2, size=30).astype(float)
        w, b, obj = fit_logistic(x, y)
        z = x @ w + b
        want = (np.logaddexp(0.0, z) - y * z).sum() + 0.5 * L2_PENALTY * (w @ w)
        assert_allclose(obj, want, rtol=1e-12)

    def test_learns_separable_direction(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 2))
        y = (x[:, 0] > 0).astype(float)
        w, b, _ = fit_logistic(x, y)
        assert w[0] > 1.0 and abs(w[1]) < abs(w[0]) / 2
        p = sigmoid(x @ w + b)
        assert ((p > 0.5) == y).mean() > 0.9

    def test_balanced_weighting_raises_minority_probability(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 2))
        y = np.zeros(100)
        y[:10] = 1.0
        _, b_none, _ = fit_logistic(x, y)
        sw = class_weights(y.astype(int), "balanced")
        _, b_bal, _ = fit_logistic(x, y, sample_weights=sw)
        assert b_bal > b_none

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            fit_logistic(np.zeros(4), np.zeros(4))
        with pytest.raises(ContractViolation):
            fit_logistic(np.zeros((4, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# Reference: the per-fit gradient-descent loop that fit_logistic_batch
# replaced, kept as its oracle with the same arithmetic, plus the number of
# steps it took before its gradient norm fell below GRAD_TOL.
# ---------------------------------------------------------------------------


def reference_fit(x, y, sw):
    lips = 0.25 * float(sw @ ((x * x).sum(axis=1) + 1.0)) + L2_PENALTY
    step = 1.0 / lips
    w = np.zeros(x.shape[1])
    b = 0.0
    for it in range(MAX_ITER):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        r = sw * (p - y)
        gw, gb = x.T @ r + L2_PENALTY * w, float(r.sum())
        if np.sqrt(gw @ gw + gb * gb) < GRAD_TOL:
            break
        w = w - step * gw
        b = b - step * gb
    z = x @ w + b
    objective = float((sw * (np.logaddexp(0.0, z) - y * z)).sum() + 0.5 * L2_PENALTY * (w @ w))
    return w, float(b), objective, it


def clinical_design(rng, n, d, weighting):
    """Features shaped like encode_clinical's: z-scores, then 0/1 columns."""
    x = rng.normal(size=(n, d))
    x[:, d // 2:] = x[:, d // 2:] > 0
    y = np.zeros(n)
    y[rng.permutation(n)[:rng.integers(1, n)]] = 1.0
    return x, y, class_weights(y.astype(np.int64), weighting)


class TestBatchMatchesReference:
    """fit_logistic_batch against the per-fit loop, fit by fit."""

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(1, 14),
        ns=st.lists(st.integers(2, 60), min_size=1, max_size=6),
        ragged=st.booleans(),
        weightings=st.lists(st.sampled_from(CLASS_WEIGHTINGS), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property(self, d, ns, ragged, weightings, seed):
        rng = np.random.default_rng(seed)
        if not ragged:
            ns = [ns[0]] * len(ns)
        designs = [clinical_design(rng, n, d, wt) for n, wt in zip(ns, weightings)]
        w, b, objective, steps = fit_logistic_batch(*zip(*designs))
        assert w.shape == (len(ns), d) and b.shape == objective.shape == steps.shape == (len(ns),)
        for f, design in enumerate(designs):
            want = reference_fit(*design)
            got = (w[f], b[f], objective[f], steps[f])
            if ns[f] == max(ns):  # an unpadded member: bit for bit
                for a, e in zip(got, want):
                    assert np.array_equal(a, e)
            else:  # padding reblocks the sums: a drift of a few ulps of each value
                assert_allclose(w[f], want[0], rtol=1e-15, atol=1e-15)
                assert_allclose(b[f], want[1], rtol=1e-15, atol=1e-15)
                assert_allclose(objective[f], want[2], rtol=1e-15)
                assert steps[f] == want[3]
        if len(ns) == 1:
            want = reference_fit(*designs[0])[:3]
            got = fit_logistic(*designs[0])
            assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_converged_member_is_frozen(self):
        rng = np.random.default_rng(11)
        easy = clinical_design(rng, 30, 3, "none")
        x = rng.normal(size=(30, 3))
        x[:, 1] = x[:, 0] + 1e-3 * rng.normal(size=30)  # near-collinear: slow
        slow = (10.0 * x, *clinical_design(rng, 30, 3, "balanced")[1:])
        _, _, _, solo_steps = fit_logistic_batch(*zip(easy))
        w, b, objective, steps = fit_logistic_batch(*zip(easy, slow))
        assert steps[0] == solo_steps[0] and steps[1] > 10 * steps[0]
        solo = fit_logistic(*easy)
        assert np.array_equal(w[0], solo[0]) and (b[0], objective[0]) == solo[1:]

    def test_lr_fit_cv_folds_are_reference_fits(self):
        ds = clinical_dataset(seed=6)
        split = two_folds(ds.ids)  # equal halves: no padding
        cv = lr_fit_cv(ds, split, "C4")
        for fm, (train_ids, _) in zip(cv.folds, split.folds):
            x, _ = encode_clinical(ds, train_ids, "C4")
            y = ds.label_array(train_ids)
            w, b, _, _ = reference_fit(x, y.astype(np.float64), class_weights(y, cv.weighting))
            assert np.array_equal(fm.weights, w) and fm.bias == b


class TestFitContracts:
    def design(self):
        return clinical_design(np.random.default_rng(3), 20, 4, "none")

    def test_nan_feature_is_rejected_at_once(self):
        x, y, sw = self.design()
        x[5, 2] = np.nan
        start = time.perf_counter()
        with pytest.raises(ContractViolation, match="finite"):
            fit_logistic(x, y, sw)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_feature(self, bad):
        x, y, sw = self.design()
        x[0, 0] = bad
        with pytest.raises(ContractViolation):
            fit_logistic(x, y, sw)

    @pytest.mark.parametrize("label", [0.5, -1.0, 2.0, np.nan])
    def test_label_outside_0_1(self, label):
        x, y, sw = self.design()
        y[3] = label
        with pytest.raises(ContractViolation, match="labels"):
            fit_logistic(x, y, sw)

    @pytest.mark.parametrize("weight", [-1.0, np.nan, np.inf])
    def test_bad_sample_weight(self, weight):
        x, y, sw = self.design()
        sw[2] = weight
        with pytest.raises(ContractViolation, match="sample weights"):
            fit_logistic(x, y, sw)

    def test_zero_weight_sum(self):
        x, y, _ = self.design()
        with pytest.raises(ContractViolation, match="sample weights"):
            fit_logistic(x, y, np.zeros(y.size))

    def test_shapes(self):
        x, y, sw = self.design()
        with pytest.raises(ContractViolation):
            fit_logistic(x, y, sw[:-1])
        with pytest.raises(ContractViolation):
            fit_logistic_batch([x, x[:, :3]], [y, y], [sw, sw])
        with pytest.raises(ContractViolation):
            fit_logistic_batch([x], [y, y], [sw, sw])
        with pytest.raises(ContractViolation):
            fit_logistic_batch([], [], [])

    def test_non_finite_gradient_raises(self):
        x, y, _ = self.design()
        # finite inputs and step, but the squared gradient norm overflows
        with pytest.raises(NonFiniteValue), np.errstate(over="ignore"):
            fit_logistic(x, y, np.full(y.size, 1e200))

    def test_exhausted_budget_raises(self, monkeypatch):
        x, y, sw = self.design()
        monkeypatch.setattr(baselines, "MAX_ITER", 3)
        with pytest.raises(ContractViolation, match="converge"):
            fit_logistic(x, y, sw)


def clinical_dataset(n=40, seed=0, signal=3.0):
    """Dataset whose label follows age; other variables are noise."""
    rng = np.random.default_rng(seed)
    records, ids, labels = {}, [], {}
    for k in range(n):
        sid = f"c{k:03d}"
        label = int(k % 4 == 0)
        age = 60.0 + signal * label + rng.normal(0, 1.0)
        rec = SubjectRecord(
            subject_id=sid, age=age, sex="F" if k % 2 else "M",
            bmi=float(rng.uniform(22, 33)), womac_total=float(rng.uniform(0, 40)),
            prior_injury=bool(k % 3 == 0), prior_surgery=bool(k % 5 == 0),
            site="A", klg_by_visit={0: int(rng.integers(0, 5))},
        )
        records[sid] = rec
        ids.append(sid)
        labels[sid] = label
    return Dataset(records=records, ids=ids, labels=labels, horizon=24, excluded={})


class FakeSplit:
    def __init__(self, folds):
        self.folds = folds


def two_folds(ids):
    half = len(ids) // 2
    return FakeSplit([(ids[:half], ids[half:]), (ids[half:], ids[:half])])


class TestLogisticCv:
    def test_fit_and_predict_shapes(self):
        ds = clinical_dataset()
        cv = lr_fit_cv(ds, two_folds(ds.ids), "C2")
        assert cv.weighting in ("none", "balanced")
        assert set(cv.weighting_val_ap) == {"none", "balanced"}
        assert len(cv.folds) == 2
        scores = lr_predict(cv, ds, ds.ids)
        assert scores.shape == (len(ds.ids),)
        assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_prediction_is_mean_of_fold_sigmoids(self):
        ds = clinical_dataset(seed=3)
        cv = lr_fit_cv(ds, two_folds(ds.ids), "C1")
        manual = np.zeros(len(ds.ids))
        for fm in cv.folds:
            x, _ = encode_clinical(ds, ds.ids, "C1", train_stats=fm.train_stats)
            manual += sigmoid(x @ fm.weights + fm.bias)
        manual /= len(cv.folds)
        assert_allclose(lr_predict(cv, ds, ds.ids), manual, rtol=0, atol=0)

    def test_strong_signal_is_learned(self):
        ds = clinical_dataset(n=60, seed=4, signal=12.0)
        cv = lr_fit_cv(ds, two_folds(ds.ids), "C1")
        from koafusion.evaluation import roc_auc

        scores = lr_predict(cv, ds, ds.ids)
        assert roc_auc(scores, ds.label_array(ds.ids)) > 0.95

    def test_tie_keeps_unweighted(self):
        # balanced classes make both weightings identical, so APs tie
        ds = clinical_dataset(n=20, seed=5)
        for k, sid in enumerate(ds.ids):
            ds.labels[sid] = k % 2
        cv = lr_fit_cv(ds, two_folds(ds.ids), "C1")
        assert cv.weighting_val_ap["none"] == cv.weighting_val_ap["balanced"]
        assert cv.weighting == "none"
