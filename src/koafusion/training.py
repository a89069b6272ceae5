"""Training protocol: focal loss, warmup Adam, oversampling, CV ensembling.

One model is trained per cross-validation fold on minority-oversampled
batches; the checkpoint with the best validation average precision is kept
per fold, and fold models are ensembled at inference time by averaging
softmax outputs, each fold model scoring with the clinical standardisation
of its own training fold; ``Ensemble.scores`` is the one loop that does it.

``train_cv`` trains its folds in parallel, one forked worker per CPU the
process may use (``os.sched_getaffinity``), at most one per fold; with one
usable CPU (``taskset -c 0``, or a platform without ``sched_getaffinity``)
the folds run inline, one after another.  Each fold draws only from its own
seeds, so the results are the same bytes for any worker count.  A worker
inherits the provider, its cache as it stood at the fork, and the dataset;
each fills its own copy of the cache from there, and runs OpenBLAS on one
thread.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ContractViolation
from .evaluation import average_precision
from .models import ArchSpec, Model, apply_checkpoint, build_model, forward, frozen

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-4  # coupled L2 decay of every Adam step
FOCAL_GAMMA = 2.0  # focal loss kappa
SCORE_CHUNK = 32  # subjects per eval batch when scoring


@dataclass
class TrainConfig:
    epochs_budget: int = 60
    lr_start: float = 1e-5
    lr_peak: float = 1e-4
    warmup_epochs: int = 5
    batch_size: int | None = None  # None: 16 with >= 2 MRI inputs, else 32
    seed: int = 0

    def __post_init__(self):
        if self.epochs_budget < 0 or self.warmup_epochs < 0:
            raise ContractViolation("epoch counts must be non-negative")
        if self.lr_start <= 0 or self.lr_peak <= 0 or self.lr_start > self.lr_peak:
            raise ContractViolation("need 0 < lr_start <= lr_peak")
        if self.batch_size is not None and self.batch_size < 1:
            raise ContractViolation("batch_size must be positive")

    def resolved_batch_size(self, spec: ArchSpec) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 16 if len(spec.mri_protocols) >= 2 else 32


def focal_loss(logits: Tensor, targets, gamma: float) -> Tensor:
    """Mean focal loss over a batch; gamma (kappa) 0 reduces to cross-entropy."""
    y = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2 or y.shape != (logits.shape[0],):
        raise ContractViolation("focal_loss expects [B, K] logits and [B] targets")
    if y.min() < 0 or y.max() >= logits.shape[1]:
        raise ContractViolation("target outside the class range")
    onehot = np.zeros(logits.shape)
    onehot[np.arange(y.size), y] = 1.0
    log_p = dc.tensor_sum(dc.log_softmax(logits) * Tensor(onehot), axis=1)
    weight = (Tensor(1.0) - dc.exp(log_p)) ** gamma
    return dc.mean(weight * log_p) * Tensor(-1.0)


def lr_at(epoch: float, config: TrainConfig) -> float:
    """Linear warmup from lr_start to lr_peak, then constant."""
    if config.warmup_epochs > 0 and epoch < config.warmup_epochs:
        frac = epoch / config.warmup_epochs
        return config.lr_start + (config.lr_peak - config.lr_start) * frac
    return config.lr_peak


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(v.data) for k, v in params.items()},
            v={k: np.zeros_like(v.data) for k, v in params.items()},
        )


def adam_step(params: dict, state: AdamState, lr: float, weight_decay: float):
    """Classic Adam update; L2 decay is added to the gradient (coupled)."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.t
    bc2 = 1.0 - ADAM_BETA2 ** state.t
    for name in sorted(params):
        p = params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        g = g + weight_decay * p.data
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad = None


def oversample_minority(ids, labels, rng: np.random.Generator) -> list:
    """Return a shuffled epoch order with classes balanced exactly 1:1.

    The minority class is tiled to the majority count; the remainder after
    whole copies is drawn without replacement.
    """
    ids = list(ids)
    y = np.array([labels[i] for i in ids])
    classes, counts = np.unique(y, return_counts=True)
    if classes.size == 1:
        raise ContractViolation("oversampling requires both classes present")
    if counts.size == 2 and counts[0] != counts[1]:
        maj = int(classes[np.argmax(counts)])
        mino = int(classes[np.argmin(counts)])
        maj_ids = [i for i in ids if labels[i] == maj]
        min_ids = [i for i in ids if labels[i] == mino]
        reps, rem = divmod(len(maj_ids), len(min_ids))
        pool = min_ids * reps
        if rem:
            extra = rng.choice(len(min_ids), size=rem, replace=False)
            pool += [min_ids[int(j)] for j in extra]
        order = maj_ids + pool
    else:
        order = ids
    perm = rng.permutation(len(order))
    return [order[int(j)] for j in perm]


@dataclass
class FoldResult:
    best_params: dict
    best_epoch: int
    best_val_ap: float
    history: list = field(default_factory=list)
    clinical_stats: dict | None = None  # standardisation fit on this fold's training ids


@dataclass
class Ensemble:
    """The fold models of one CV run, in fold order, each paired with the
    clinical stats of its own training fold (None without clinical inputs)."""

    members: list  # [(Model, clinical_stats)]

    def __post_init__(self):
        if not self.members:
            raise ContractViolation("an ensemble needs at least one fold model")

    @property
    def models(self) -> list:
        return [model for model, _ in self.members]

    def scores(self, provider, ids) -> np.ndarray:
        """Class-1 probabilities, summed over the members in fold order and
        divided once.  Subjects go in ``ceil(n / SCORE_CHUNK)`` near-equal
        chunks, so no chunk holds a lone subject (a one-row batch takes
        numpy's matrix-vector path and rounds differently) unless
        ``SCORE_CHUNK`` is 1."""
        members = [(frozen(model), stats) for model, stats in self.members]
        acc = np.zeros(len(ids))
        n_chunks = -(-len(ids) // SCORE_CHUNK)
        for part in np.array_split(np.arange(len(ids)), n_chunks) if n_chunks else ():
            lo, hi = part[0], part[-1] + 1
            for model, stats in members:
                batch, _ = provider.batch(ids[lo:hi], mode="eval", clinical_stats=stats)
                acc[lo:hi] += dc.softmax(forward(model, batch, mode="eval"), axis=-1).data[:, 1]
        return acc / len(self.members)


@dataclass
class CvResult:
    spec: ArchSpec
    folds: list

    def fold_models(self) -> list:
        models = []
        for fold in self.folds:
            model = build_model(self.spec, seed=0)
            apply_checkpoint(model, fold.best_params)
            models.append(model)
        return models

    def ensemble(self) -> Ensemble:
        return Ensemble(list(zip(self.fold_models(), [f.clinical_stats for f in self.folds])))


def predict_scores(models, provider, ids, clinical_stats=None) -> np.ndarray:
    """``Ensemble.scores`` of one model or a list sharing one clinical standardisation."""
    models = [models] if isinstance(models, Model) else models
    return Ensemble([(model, clinical_stats) for model in models]).scores(provider, ids)


def _snapshot(params: dict) -> dict:
    return {k: v.data.copy() for k, v in params.items()}


def train_fold(provider, train_ids, val_ids, spec: ArchSpec, config: TrainConfig, fold_index: int) -> FoldResult:
    """Train one fold; keeps the best validation-AP checkpoint."""
    init_seed = int(np.random.SeedSequence((config.seed, fold_index)).generate_state(1)[0])
    model = build_model(spec, seed=init_seed)
    state = AdamState.init(model.params)
    labels = provider.labels_map(train_ids)
    clinical_stats = provider.clinical_stats(train_ids)
    batch_size = config.resolved_batch_size(spec)
    history = []
    best = FoldResult(_snapshot(model.params), -1, -np.inf, history, clinical_stats)
    for epoch in range(config.epochs_budget):
        erng = np.random.default_rng([config.seed, fold_index, epoch])
        order = oversample_minority(train_ids, labels, erng)
        n_steps = (len(order) + batch_size - 1) // batch_size
        losses = []
        for step in range(n_steps):
            sub = order[step * batch_size : (step + 1) * batch_size]
            lr = lr_at(epoch + step / n_steps, config)
            batch, targets = provider.batch(sub, mode="train", rng=erng, clinical_stats=clinical_stats)
            logits = forward(model, batch, mode="train", seed=int(erng.integers(2**31)))
            loss = focal_loss(logits, targets, FOCAL_GAMMA)
            loss.backward()
            adam_step(model.params, state, lr, WEIGHT_DECAY)
            losses.append(loss.item())
        val_scores = predict_scores(model, provider, val_ids, clinical_stats=clinical_stats)
        val_ap = average_precision(val_scores, provider.labels_array(val_ids))
        if val_ap > best.best_val_ap:
            best = FoldResult(_snapshot(model.params), epoch, float(val_ap), history, clinical_stats)
        history.append(
            {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_ap": float(val_ap)}
        )
    return best


# Python 3.12+ warns when os.fork() runs while the process has other threads, counting
# native ones.  The only other threads at the fork are BLAS's own pool, and OpenBLAS
# shuts that pool down before every fork (its ``openblas_fork_handler`` registers
# ``blas_thread_shutdown_`` with ``pthread_atfork``) and restarts it lazily on each side.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks in the child\."

# (provider, split, spec, config) of the running train_cv: forked workers inherit it,
# so only fold indices and FoldResults are pickled
_job = None


def _openblas_calls(name: str) -> list:
    """OpenBLAS's ``openblas_<name>`` in each OpenBLAS this process has loaded (listed in
    /proc/self/maps), under the symbol names of system builds and of numpy's wheels."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    libs = [ctypes.CDLL(path) for path in paths]
    symbols = [f"{prefix}{name}{suffix}" for prefix in ("openblas_", "scipy_openblas_") for suffix in ("", "64_")]
    return [getattr(lib, sym) for lib in libs for sym in symbols if hasattr(lib, sym)]


def _one_blas_thread():
    """Run a worker's OpenBLAS on one thread.  Its pool is sized for every usable CPU, so a
    pool per worker would oversubscribe them: unpinned on 2 CPUs, criterion 6 took 116 s
    that way, against 52 s with the folds one after another and 38 s with this."""
    for set_num_threads in _openblas_calls("set_num_threads"):
        set_num_threads(1)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_fold(fold_index: int) -> FoldResult:
    provider, split, spec, config = _job
    train_ids, val_ids = split.folds[fold_index]
    return train_fold(provider, train_ids, val_ids, spec, config, fold_index)


def train_cv(provider, split, spec: ArchSpec, config: TrainConfig) -> CvResult:
    """Train one model per fold of a split plan, the folds on up to
    ``min(folds, usable CPUs)`` forked workers; the results come back in fold
    order.  A worker's exception reaches the caller unchanged, a killed worker
    raises ``BrokenProcessPool``, and either cancels the folds not yet started.
    No worker outlives the call."""
    global _job
    n_folds = len(split.folds)
    workers = min(n_folds, _usable_cpus())
    _job = (provider, split, spec, config)
    try:
        if workers <= 1:
            return CvResult(spec, [_run_fold(i) for i in range(n_folds)])
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_one_blas_thread)
        try:
            with warnings.catch_warnings():  # the workers fork during the submits
                warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
                futures = [pool.submit(_run_fold, i) for i in range(n_folds)]
            return CvResult(spec, [f.result() for f in futures])
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _job = None
