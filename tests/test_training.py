import contextlib
import gc
import multiprocessing
import os
import re
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from numpy.testing import assert_allclose
from test_diffcore import _live_tensors

from koafusion import diffcore as dc
from koafusion import interpret
from koafusion.cohort import SynthConfig, assemble_dataset, clinical_dim, make_split, progressor_flags, synth_subject
from koafusion.diffcore import Tensor, grad_check
from koafusion import training
from koafusion.errors import ContractViolation, NonFiniteValue
from koafusion.interpret import rur_report
from koafusion.models import ArchSpec, ModalityBatch, build_model, forward
from koafusion.provider import CohortProvider
from koafusion.training import (
    AdamState,
    Ensemble,
    TrainConfig,
    adam_step,
    focal_loss,
    lr_at,
    oversample_minority,
    predict_scores,
    train_cv,
    train_fold,
)

TINY = dict(descriptor_dim=8, trf_layers=1, trf_heads=2,
            encoder_channels=(2, 3), max_slices=8, head_hidden=5)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            TrainConfig(epochs_budget=-1)
        with pytest.raises(ContractViolation):
            TrainConfig(lr_start=2e-4, lr_peak=1e-4)

    def test_batch_size_depends_on_mri_count(self):
        cfg = TrainConfig()
        assert cfg.resolved_batch_size(ArchSpec(kind="XR1")) == 32
        assert cfg.resolved_batch_size(ArchSpec(kind="MR1", mri_protocols=("DESS",))) == 32
        assert cfg.resolved_batch_size(ArchSpec(kind="MR2", mri_protocols=("DESS", "TSE"))) == 16
        assert cfg.resolved_batch_size(
            ArchSpec(kind="XR1MR2", mri_protocols=("DESS", "TSE"))
        ) == 16
        assert TrainConfig(batch_size=7).resolved_batch_size(ArchSpec(kind="XR1")) == 7


class TestFocalLoss:
    def test_half_probability_frozen_value(self):
        # p_true = 0.5: loss = (1 - 0.5)^2 * (-log 0.5)
        logits = Tensor(np.zeros((1, 2)))
        loss = focal_loss(logits, [0], gamma=2.0)
        assert_allclose(loss.item(), 0.17328679513998632, rtol=1e-15)

    def test_gamma_zero_is_cross_entropy(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, size=6)
        loss = focal_loss(Tensor(raw), y, gamma=0.0)
        shift = raw - raw.max(axis=1, keepdims=True)
        log_p = shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))
        want = -log_p[np.arange(6), y].mean()
        assert_allclose(loss.item(), want, rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(8, 2))
        y = rng.integers(0, 2, size=8)
        for gamma in (0.5, 1.0, 2.0):
            loss = focal_loss(Tensor(raw), y, gamma=gamma)
            p = np.exp(raw) / np.exp(raw).sum(axis=1, keepdims=True)
            pt = p[np.arange(8), y]
            want = np.mean((1 - pt) ** gamma * -np.log(pt))
            assert_allclose(loss.item(), want, rtol=1e-12)

    def test_downweights_easy_examples(self):
        easy = Tensor(np.array([[4.0, -4.0]]))
        hard = Tensor(np.array([[-1.0, 1.0]]))
        ratio_ce = focal_loss(easy, [0], 0.0).item() / focal_loss(hard, [0], 0.0).item()
        ratio_fl = focal_loss(easy, [0], 2.0).item() / focal_loss(hard, [0], 2.0).item()
        assert ratio_fl < ratio_ce

    def test_gradient(self):
        rng = np.random.default_rng(2)
        logits = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        y = rng.integers(0, 2, size=5)

        def fn(logits):
            return focal_loss(logits, y, gamma=2.0)

        assert grad_check(fn, [logits], eps=1e-6) < 1e-6

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            focal_loss(Tensor(np.zeros(4)), [0], 2.0)
        with pytest.raises(ContractViolation):
            focal_loss(Tensor(np.zeros((2, 2))), [0, 2], 2.0)
        with pytest.raises(ContractViolation):
            focal_loss(Tensor(np.zeros((2, 2))), [0], 2.0)


class TestSchedule:
    def test_warmup_endpoints_and_midpoint(self):
        cfg = TrainConfig()
        assert_allclose(lr_at(0.0, cfg), 1e-5, rtol=1e-15)
        assert_allclose(lr_at(2.5, cfg), 5.5e-5, rtol=1e-15)
        assert_allclose(lr_at(5.0, cfg), 1e-4, rtol=1e-15)
        assert_allclose(lr_at(59.0, cfg), 1e-4, rtol=1e-15)

    def test_no_warmup_is_constant(self):
        cfg = TrainConfig(warmup_epochs=0)
        assert lr_at(0.0, cfg) == cfg.lr_peak

    def test_monotone_during_warmup(self):
        cfg = TrainConfig()
        grid = [lr_at(e, cfg) for e in np.linspace(0, 5, 21)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))


def reference_adam(p, grads, lr, wd, steps):
    """Independent scalar-array Adam with coupled L2, for comparison."""
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t in range(1, steps + 1):
        g = grads[t - 1] + wd * p
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1 - 0.9**t)
        vh = v / (1 - 0.999**t)
        p = p - lr * mh / (np.sqrt(vh) + 1e-8)
    return p


class TestAdam:
    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        init = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(6)]
        params = {"w": Tensor(init.copy(), requires_grad=True)}
        state = AdamState.init(params)
        for g in grads:
            params["w"].grad = g.copy()
            adam_step(params, state, lr=1e-3, weight_decay=1e-4)
        want = reference_adam(init, grads, lr=1e-3, wd=1e-4, steps=6)
        assert_allclose(params["w"].data, want, rtol=1e-12)
        assert state.t == 6
        assert params["w"].grad is None

    def test_missing_grad_still_decays(self):
        params = {"w": Tensor(np.full(3, 2.0), requires_grad=True)}
        state = AdamState.init(params)
        adam_step(params, state, lr=1e-2, weight_decay=1e-2)
        assert np.all(params["w"].data < 2.0)

    def test_zero_decay_zero_grad_is_noop(self):
        params = {"w": Tensor(np.full(3, 2.0), requires_grad=True)}
        state = AdamState.init(params)
        adam_step(params, state, lr=1e-2, weight_decay=0.0)
        assert_allclose(params["w"].data, np.full(3, 2.0), rtol=0, atol=0)


class TestOversampling:
    def test_exact_balance(self):
        ids = [f"s{i}" for i in range(10)]
        labels = {i: (1 if k < 3 else 0) for k, i in enumerate(ids)}
        order = oversample_minority(ids, labels, np.random.default_rng(0))
        y = np.array([labels[i] for i in order])
        assert y.sum() == 7 and (y == 0).sum() == 7

    def test_majority_appears_once_minority_tiled(self):
        ids = [f"s{i}" for i in range(11)]
        labels = {i: (1 if k < 2 else 0) for k, i in enumerate(ids)}  # 2 vs 9
        order = oversample_minority(ids, labels, np.random.default_rng(1))
        counts = {i: order.count(i) for i in ids}
        for i in ids:
            if labels[i] == 0:
                assert counts[i] == 1
            else:
                assert counts[i] in (4, 5)  # 9 = 2*4 + 1 remainder
        assert sum(counts[i] for i in ids if labels[i] == 1) == 9

    def test_balanced_input_is_permutation(self):
        ids = list("abcd")
        labels = {"a": 0, "b": 1, "c": 0, "d": 1}
        order = oversample_minority(ids, labels, np.random.default_rng(2))
        assert sorted(order) == sorted(ids)

    def test_deterministic_under_seed(self):
        ids = [f"s{i}" for i in range(9)]
        labels = {i: int(k < 4) for k, i in enumerate(ids)}
        a = oversample_minority(ids, labels, np.random.default_rng(5))
        b = oversample_minority(ids, labels, np.random.default_rng(5))
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(ContractViolation):
            oversample_minority(["a", "b"], {"a": 1, "b": 1}, np.random.default_rng(0))


class FakeProvider:
    """Serves deterministic per-id radiographs whose mean tracks the label."""

    def __init__(self, labels, hw=12):
        self.labels = dict(labels)
        self.hw = hw

    def _image(self, sid):
        rng = np.random.default_rng(abs(hash(sid)) % (2**32))
        base = rng.normal(size=(1, self.hw, self.hw))
        return base + 0.8 * self.labels[sid]

    def labels_map(self, ids):
        return {i: self.labels[i] for i in ids}

    def labels_array(self, ids):
        return np.array([self.labels[i] for i in ids])

    def clinical_stats(self, ids):
        return None

    def batch(self, ids, mode="eval", rng=None, clinical_stats=None):
        xr = np.stack([self._image(i) for i in ids])
        return ModalityBatch(inputs={"XR": xr}), self.labels_array(ids)


class FakeSplit:
    def __init__(self, folds):
        self.folds = folds


def small_problem():
    ids = [f"p{i:02d}" for i in range(12)]
    labels = {i: int(k % 3 == 0) for k, i in enumerate(ids)}  # 4 of 12 positive
    provider = FakeProvider(labels)
    spec = ArchSpec(kind="XR1", **TINY)
    return provider, ids, labels, spec


class TestTrainFold:
    def test_history_and_best_selection(self):
        provider, ids, labels, spec = small_problem()
        cfg = TrainConfig(epochs_budget=3, warmup_epochs=1, seed=0)
        result = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=0)
        assert len(result.history) == 3
        assert [h["epoch"] for h in result.history] == [0, 1, 2]
        aps = [h["val_ap"] for h in result.history]
        assert result.best_val_ap == max(aps)
        assert result.best_epoch == int(np.argmax(aps))
        assert all(np.isfinite(h["train_loss"]) for h in result.history)

    def test_deterministic(self):
        provider, ids, labels, spec = small_problem()
        cfg = TrainConfig(epochs_budget=2, warmup_epochs=1, seed=3)
        a = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=1)
        b = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=1)
        for name in a.best_params:
            assert_allclose(a.best_params[name], b.best_params[name], rtol=0, atol=0)
        assert a.best_epoch == b.best_epoch

    def test_fold_index_changes_initialization(self):
        provider, ids, labels, spec = small_problem()
        cfg = TrainConfig(epochs_budget=0, seed=0)
        a = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=0)
        b = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=1)
        assert any(
            not np.array_equal(a.best_params[n], b.best_params[n]) for n in a.best_params
        )

    def test_zero_budget_keeps_initialization(self):
        provider, ids, labels, spec = small_problem()
        cfg = TrainConfig(epochs_budget=0, seed=4)
        result = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=2)
        assert result.best_epoch == -1
        assert result.history == []
        init_seed = int(np.random.SeedSequence((4, 2)).generate_state(1)[0])
        init = build_model(spec, seed=init_seed)
        for name, arr in result.best_params.items():
            assert_allclose(arr, init.params[name].data, rtol=0, atol=0)

    def test_training_moves_parameters(self):
        provider, ids, labels, spec = small_problem()
        cfg = TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0)
        trained = train_fold(provider, ids[:9], ids[9:], spec, cfg, fold_index=0)
        init_seed = int(np.random.SeedSequence((0, 0)).generate_state(1)[0])
        init = build_model(spec, seed=init_seed)
        moved = any(
            not np.array_equal(trained.best_params[n], init.params[n].data)
            for n in trained.best_params
        )
        assert moved


class TestTrainCvAndPredict:
    def test_cv_trains_each_fold(self):
        provider, ids, labels, spec = small_problem()
        split = FakeSplit([(ids[:8], ids[8:]), (ids[4:], ids[:4])])
        cfg = TrainConfig(epochs_budget=1, warmup_epochs=1, seed=1)
        cv = train_cv(provider, split, spec, cfg)
        assert len(cv.folds) == 2
        models = cv.fold_models()
        assert len(models) == 2
        for model, fold in zip(models, cv.folds):
            for name, arr in fold.best_params.items():
                assert_allclose(model.params[name].data, arr, rtol=0, atol=0)

    def test_predict_scores_chunking_invariant(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        model = build_model(spec, seed=0)
        runs = {}
        for chunk in (1, 2, 3, len(ids)):
            monkeypatch.setattr(training, "SCORE_CHUNK", chunk)
            runs[chunk] = predict_scores(model, provider, ids)
        for chunk in (2, 3):
            assert_allclose(runs[chunk], runs[len(ids)], rtol=0, atol=0)
        # a one-subject batch takes numpy's matrix-vector product, which rounds differently
        assert_allclose(runs[1], runs[len(ids)], rtol=0, atol=1e-15)

    def test_no_lone_subject_chunk(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        model = build_model(spec, seed=0)
        whole = predict_scores(model, provider, ids)
        sizes = []
        batch = provider.batch
        monkeypatch.setattr(provider, "batch", lambda sub, **kw: sizes.append(len(sub)) or batch(sub, **kw))
        monkeypatch.setattr(training, "SCORE_CHUNK", len(ids) - 1)
        split = predict_scores(model, provider, ids)
        assert sizes == [6, 6]  # ceil(12 / 11) = 2 near-equal chunks, not 11 + 1
        assert np.array_equal(split, whole)

    def test_predict_scores_is_model_average(self):
        provider, ids, labels, spec = small_problem()
        m1, m2 = build_model(spec, seed=1), build_model(spec, seed=2)
        s1 = predict_scores(m1, provider, ids)
        s2 = predict_scores(m2, provider, ids)
        both = predict_scores([m1, m2], provider, ids)
        assert_allclose(both, (s1 + s2) / 2, atol=1e-15)

    def test_scores_are_probabilities(self):
        provider, ids, labels, spec = small_problem()
        scores = predict_scores(build_model(spec, seed=3), provider, ids)
        assert np.all(scores >= 0) and np.all(scores <= 1)


class TestEnsemble:
    def test_clinical_members_use_their_own_fold_stats(self):
        cfg = SynthConfig(n_subjects=16, prevalence=0.25, scale=0.05, seed=2)
        flags = progressor_flags(cfg)
        dataset = assemble_dataset([synth_subject(cfg, i, bool(flags[i])) for i in range(16)], 24)
        split = make_split(dataset, holdout_site="D", k=2, seed=0)
        provider = CohortProvider(dataset, ("XR", "DESS", "TSE"), scale=0.05, clinical_variable_set="C1")
        spec = ArchSpec(kind="XR1MR2C1", mri_protocols=("DESS", "TSE"), clinical_dim=clinical_dim("C1"), **TINY)
        cv = train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
        ids = split.test_ids
        fold_stats = [provider.clinical_stats(train_ids) for train_ids, _ in split.folds]
        assert fold_stats[0] != fold_stats[1]
        want = np.zeros(len(ids))
        for model, stats in zip(cv.fold_models(), fold_stats):
            want += predict_scores(model, provider, ids, clinical_stats=stats)
        want /= len(fold_stats)
        got = cv.ensemble().scores(provider, ids)
        assert np.array_equal(got, want)
        with pytest.raises(ContractViolation):
            predict_scores(cv.fold_models(), provider, ids)

    def test_matches_list_prediction_without_clinical_inputs(self):
        provider, ids, labels, spec = small_problem()
        models = [build_model(spec, seed=s) for s in (1, 2, 3)]
        ensemble = Ensemble([(m, None) for m in models])
        assert np.array_equal(ensemble.scores(provider, ids), predict_scores(models, provider, ids))
        assert ensemble.models == models

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            Ensemble([])


class TestScoringRecordsNoGraph:
    """Every scoring path runs over ``models.frozen``: each scored forward is a
    single node, and no Tensor outlives the call."""

    def _check(self, monkeypatch, module, name, score):
        real, nodes = getattr(module, name), []

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            nodes.append(len(dc.tape(out)))
            return out

        monkeypatch.setattr(module, name, recorded)
        gc.collect()
        gc.disable()
        try:
            before = _live_tensors()
            score()
            after = _live_tensors()
        finally:
            gc.enable()
        assert nodes and set(nodes) == {1}
        assert after == before

    def test_ensemble_scores(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        ensemble = Ensemble([(build_model(spec, seed=s), None) for s in (1, 2)])
        self._check(monkeypatch, training, "forward", lambda: ensemble.scores(provider, ids))

    def test_rur_report(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        model, (batch, y) = build_model(spec, seed=1), provider.batch(ids)
        batch.means = {"XR": np.zeros(batch.inputs["XR"].shape[1:])}
        self._check(monkeypatch, interpret, "fuse", lambda: rur_report(model, batch, y, ("XR",)))


@pytest.fixture(scope="module")
def fold_cohort():
    """30 synthetic subjects at scale 0.05 with multi-echo stacks and no T2 maps, in 3 folds."""
    cfg = SynthConfig(n_subjects=30, prevalence=0.3, scale=0.05, seed=1, horizon=24)
    flags = progressor_flags(cfg)
    dataset = assemble_dataset([synth_subject(cfg, i, bool(flags[i])) for i in range(30)], horizon=24)
    assert not any("T2MAP" in r.image_refs for r in dataset.records.values())
    return dataset, make_split(dataset, holdout_site="D", k=3)


COHORT_CASES = {
    "XR1MR2C1": (("XR", "DESS", "TSE"), "C1",
                 ArchSpec(kind="XR1MR2C1", mri_protocols=("DESS", "TSE"), clinical_dim=clinical_dim("C1"), **TINY)),
    "MR1-T2MAP": (("T2MAP",), None, ArchSpec(kind="MR1", mri_protocols=("T2MAP",), **TINY)),
}


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _three_folds(ids):
    return FakeSplit([(ids[:8], ids[8:]), (ids[4:], ids[:4]), (ids[2:10], ids[:2] + ids[10:])])


def _tag_pids(monkeypatch):
    """Wrap train_fold so that each FoldResult carries the pid of the process that trained it."""
    real = training.train_fold

    def tagged(*args):
        result = real(*args)
        result.pid = os.getpid()
        return result

    monkeypatch.setattr(training, "train_fold", tagged)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread every ``seconds`` until the block ends, so a hang fails."""
    def expire(signum, frame):
        signal.alarm(seconds)
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


class TestFoldWorkers:
    """train_cv trains inline with one usable CPU and in forked workers with more, to the same bits."""

    @pytest.mark.parametrize("case", list(COHORT_CASES))
    def test_inline_equals_pooled(self, fold_cohort, monkeypatch, case):
        dataset, split = fold_cohort
        protocols, clinical_set, spec = COHORT_CASES[case]
        config = TrainConfig(epochs_budget=2, warmup_epochs=1, seed=0, batch_size=8)
        _tag_pids(monkeypatch)
        runs = {}
        for cpus in (1, 2, 3):
            _usable_cpus(monkeypatch, cpus)
            # a fresh provider each time: its cache is empty, so the T2 maps are fitted in the workers
            provider = CohortProvider(dataset, protocols, scale=0.05, clinical_variable_set=clinical_set)
            runs[cpus] = train_cv(provider, split, spec, config).folds
            assert multiprocessing.active_children() == []
        assert {f.pid for f in runs[1]} == {os.getpid()}
        assert any(f.pid != os.getpid() for f in runs[2])
        for cpus in (2, 3):
            for inline, pooled in zip(runs[1], runs[cpus], strict=True):
                assert inline.best_params.keys() == pooled.best_params.keys()
                assert all(np.array_equal(inline.best_params[k], pooled.best_params[k]) for k in inline.best_params)
                assert pooled.best_epoch == inline.best_epoch
                assert pooled.best_val_ap == inline.best_val_ap
                assert pooled.history == inline.history
                assert pooled.clinical_stats == inline.clinical_stats  # None, or {variable: (mean, sd)}

    def test_no_affinity_call_runs_inline(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        split = FakeSplit([(ids[:8], ids[8:]), (ids[4:], ids[:4])])
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        _tag_pids(monkeypatch)
        cv = train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
        assert [f.pid for f in cv.folds] == [os.getpid()] * 2

    def test_fork_warning_is_not_an_error(self, monkeypatch):
        """Python 3.12+ warns in the parent when it forks with other threads (BLAS's pool counts);
        starting the workers ignores exactly that warning, even under an error filter."""
        provider, ids, labels, spec = small_problem()
        split = FakeSplit([(ids[:8], ids[8:]), (ids[4:], ids[:4])])
        real_fork = os.fork

        def warning_fork():
            # 3.12 warns once the child exists; warning first keeps a failure from orphaning a worker
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead "
                          "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        _usable_cpus(monkeypatch, 2)
        with _deadline(60), warnings.catch_warnings():
            warnings.simplefilter("error")
            cv = train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
        assert len(cv.folds) == 2
        assert multiprocessing.active_children() == []

    def test_workers_run_openblas_on_one_thread(self, monkeypatch):
        """A worker's OpenBLAS runs one thread whatever the parent's pool, which is left as it was."""
        get, put = training._openblas_calls("get_num_threads"), training._openblas_calls("set_num_threads")
        if not (get and put):
            pytest.skip("no OpenBLAS among the loaded libraries")
        provider, ids, labels, spec = small_problem()
        split = FakeSplit([(ids[:8], ids[8:]), (ids[4:], ids[:4])])
        real = training.train_fold

        def counted(*args):
            result = real(*args)
            result.blas_threads = get[0]()
            return result

        monkeypatch.setattr(training, "train_fold", counted)
        _usable_cpus(monkeypatch, 2)
        before = get[0]()
        put[0](2)
        try:
            cv = train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
            parent_threads = get[0]()
        finally:
            put[0](before)
        assert [f.blas_threads for f in cv.folds] == [1, 1]
        assert parent_threads == 2

    @pytest.mark.parametrize("exc_type", [ContractViolation, NonFiniteValue])
    def test_worker_exception_reaches_the_caller(self, monkeypatch, exc_type):
        provider, ids, labels, spec = small_problem()
        split = _three_folds(ids)
        real = training.train_fold

        def failing(provider, train_ids, val_ids, spec, config, fold_index):
            if fold_index == 1:
                raise exc_type(f"fold 1 refused in process {os.getpid()}")
            return real(provider, train_ids, val_ids, spec, config, fold_index)

        monkeypatch.setattr(training, "train_fold", failing)
        _usable_cpus(monkeypatch, 2)
        with _deadline(60), pytest.raises(exc_type) as info:
            train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
        assert type(info.value) is exc_type
        pid = re.fullmatch(r"fold 1 refused in process (\d+)", str(info.value)).group(1)
        assert int(pid) != os.getpid()
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises_instead_of_hanging(self, monkeypatch):
        provider, ids, labels, spec = small_problem()
        split = _three_folds(ids)
        real, parent = training.train_fold, os.getpid()

        def dying(provider, train_ids, val_ids, spec, config, fold_index):
            if fold_index == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(provider, train_ids, val_ids, spec, config, fold_index)

        monkeypatch.setattr(training, "train_fold", dying)
        _usable_cpus(monkeypatch, 2)
        with _deadline(60), pytest.raises(BrokenProcessPool):
            train_cv(provider, split, spec, TrainConfig(epochs_budget=1, warmup_epochs=1, seed=0))
        assert multiprocessing.active_children() == []
