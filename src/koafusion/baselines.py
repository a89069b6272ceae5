"""L2-regularized logistic regression on clinical variables.

Reference models trained by full-batch gradient descent, run to a tight
gradient-norm tolerance so results do not depend on iteration budgets.
Class weighting (none versus balanced) is selected by cross-validated
average precision, and fold models are ensembled by averaging predicted
probabilities.  ``fit_logistic_batch`` runs many fits in lockstep, each
with its own step and stop; ``fit_logistic`` is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohort import Dataset, encode_clinical
from .errors import ContractViolation, NonFiniteValue
from .evaluation import average_precision

L2_PENALTY = 1.0
GRAD_TOL = 1e-8
MAX_ITER = 200000
CLASS_WEIGHTINGS = ("none", "balanced")


def class_weights(y: np.ndarray, weighting: str) -> np.ndarray:
    """Per-sample weights; 'balanced' uses n / (2 * n_class)."""
    if weighting == "none":
        return np.ones(y.size)
    if weighting != "balanced":
        raise ContractViolation(f"unknown class weighting {weighting!r}")
    n1 = int(y.sum())
    n0 = y.size - n1
    if n0 == 0 or n1 == 0:
        raise ContractViolation("balanced weighting needs both classes present")
    w1 = y.size / (2.0 * n1)
    w0 = y.size / (2.0 * n0)
    return np.where(y == 1, w1, w0)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _checked(x, y, sw):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sw = np.ones(y.size) if sw is None else np.asarray(sw, dtype=np.float64)
    if x.ndim != 2 or y.shape != (x.shape[0],) or sw.shape != y.shape:
        raise ContractViolation("need [n, d] features, [n] labels and [n] sample weights")
    if not np.all(np.isfinite(x)):
        raise ContractViolation("features must be finite")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractViolation("labels must be 0 or 1")
    if not (np.all(np.isfinite(sw)) and np.all(sw >= 0.0) and sw.sum() > 0.0):
        raise ContractViolation("sample weights must be finite, non-negative and not all 0")
    return x, y, sw


def fit_logistic_batch(xs, ys, sample_weights):
    """``fit_logistic`` for F designs of one width d, in lockstep over an
    [F, n_max, d] stack with 0-weight padding rows; a converged fit gets the
    step 0.0.  Returns weights [F, d], biases, objectives and, for tests, the
    steps each fit took [F].  An unpadded fit is bit-identical to a fit
    alone; padding reblocks its sums, a drift of a few ulps."""
    if not len(xs) == len(ys) == len(sample_weights) >= 1:
        raise ContractViolation("need at least one design, each with labels and weights")
    fits = [_checked(x, y, sw) for x, y, sw in zip(xs, ys, sample_weights)]
    if len({x.shape[1] for x, _, _ in fits}) != 1:
        raise ContractViolation("every design needs the same number of features")
    lips = [0.25 * float(sw @ ((x * x).sum(axis=1) + 1.0)) + L2_PENALTY for x, _, sw in fits]
    step = 1.0 / np.array(lips)
    if not np.all(step > 0.0):
        raise ContractViolation("features or sample weights too large for a nonzero step")
    n_max = max(y.size for _, y, _ in fits)
    x, y, sw = (np.stack([np.pad(a, [(0, n_max - len(a))] + [(0, 0)] * (a.ndim - 1)) for a in part])
                for part in zip(*fits))
    xt = x.transpose(0, 2, 1)
    w, b, n_steps = np.zeros((len(fits), x.shape[2])), np.zeros(len(fits)), np.zeros(len(fits), int)
    for it in range(MAX_ITER):
        p = _sigmoid((x @ w[:, :, None])[:, :, 0] + b[:, None])
        r = sw * (p - y)
        gw, gb = (xt @ r[:, :, None])[:, :, 0] + L2_PENALTY * w, r.sum(axis=1)
        norm = np.sqrt((gw[:, None, :] @ gw[:, :, None])[:, 0, 0] + gb * gb)
        if not np.isfinite(norm.max()):
            raise NonFiniteValue(f"non-finite logistic gradient at step {it}")
        stop = (norm < GRAD_TOL) & (step > 0.0)
        if stop.any():
            n_steps[stop], step[stop] = it, 0.0
            if not step.any():
                break
        w, b = w - step[:, None] * gw, b - step * gb
    else:
        raise ContractViolation(f"logistic fit did not converge in {MAX_ITER} steps")
    z = (x @ w[:, :, None])[:, :, 0] + b[:, None]
    ce = np.logaddexp(0.0, z) - y * z  # stable log(1 + exp(-margin))
    objective = (sw * ce).sum(axis=1) + 0.5 * L2_PENALTY * (w[:, None, :] @ w[:, :, None])[:, 0, 0]
    return w, b, objective, n_steps


def fit_logistic(x, y, sample_weights=None):
    """Minimize weighted cross-entropy + 0.5*L2_PENALTY*||w||^2 (bias unpenalized).

    Full-batch gradient descent with the fixed step 1/L.  The logistic
    Hessian is bounded by 0.25 * X'SX plus the ridge, so
    L = 0.25 * sum_i sw_i * (|x_i|^2 + 1) + L2_PENALTY (the +1 covers the bias
    coordinate) guarantees descent, and the ridge makes the objective
    strongly convex, so the iteration converges linearly to the unique
    minimizer.  Raises ContractViolation on bad inputs or no convergence in
    MAX_ITER steps, NonFiniteValue on a non-finite gradient norm.
    """
    w, b, objective, _ = fit_logistic_batch([x], [y], [sample_weights])
    return w[0], float(b[0]), float(objective[0])


@dataclass
class LrFoldModel:
    weights: np.ndarray
    bias: float
    train_stats: dict

    def proba(self, x: np.ndarray) -> np.ndarray:  # P(progressor) of encoded clinical rows
        return _sigmoid(x @ self.weights + self.bias)


@dataclass
class LrCvModel:
    variable_set: str
    weighting: str
    folds: list  # LrFoldModel per CV fold
    weighting_val_ap: dict  # mean validation AP per candidate weighting


def lr_fit_cv(dataset: Dataset, split, variable_set: str) -> LrCvModel:
    """Fit per-fold logistic baselines in one batch, selecting the class
    weighting by mean validation AP (ties keep 'none')."""
    folds = []
    for train_ids, val_ids in split.folds:
        x, stats = encode_clinical(dataset, train_ids, variable_set, train_stats=None)
        xv, _ = encode_clinical(dataset, val_ids, variable_set, train_stats=stats)
        folds.append((x, dataset.label_array(train_ids), stats, xv, dataset.label_array(val_ids)))
    designs = [(x, y, class_weights(y, wt)) for wt in CLASS_WEIGHTINGS for x, y, *_ in folds]
    w, b, _, _ = fit_logistic_batch(*zip(*designs))
    fits, mean_ap = {}, {}
    for k, weighting in enumerate(CLASS_WEIGHTINGS):
        fits[weighting] = [LrFoldModel(w[f], float(b[f]), stats)
                           for f, (_, _, stats, _, _) in enumerate(folds, start=k * len(folds))]
        aps = [average_precision(fm.proba(xv), yv) for fm, (*_, xv, yv) in zip(fits[weighting], folds)]
        mean_ap[weighting] = float(np.mean(aps))
    best = "none" if mean_ap["none"] >= mean_ap["balanced"] else "balanced"
    return LrCvModel(variable_set, best, fits[best], mean_ap)


def lr_predict(model: LrCvModel, dataset: Dataset, ids) -> np.ndarray:
    """Ensembled probabilities: mean sigmoid over fold models."""
    out = np.zeros(len(ids))
    for fm in model.folds:
        x, _ = encode_clinical(dataset, ids, model.variable_set, train_stats=fm.train_stats)
        out += fm.proba(x)
    return out / len(model.folds)
