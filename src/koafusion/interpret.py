"""Input-ablation attribution over modalities.

The importance of a modality for one subject is the drop in the predicted
probability of the subject's true class when that modality is replaced by
its training-set mean.  Relative usage ratios (RUR) clamp negative drops to
zero and normalize per subject; a subject whose drops are all zero gets the
uniform ratio over modalities.  Per model, each input is encoded once and
each ablation reruns only ``models.fuse``, plus the masked modality's
encoder, whose CNN ``models.encode`` runs on one copy of the mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import diffcore as dc
from .errors import ContractViolation
from .models import ModalityBatch, encode, frozen, fuse
from .models import forward  # noqa: F401  not called here; bench/probes.py wraps interpret.forward


def modality_drops(models, batch: ModalityBatch, targets, modality: str) -> np.ndarray:
    """Per-subject drop in true-class probability when masking one modality."""
    return rur_report(models, batch, targets, (modality,)).drops[:, 0]


def compute_rur(drops: np.ndarray) -> np.ndarray:
    """Normalize per-subject drops [B, M] into usage ratios summing to one.

    Negative drops clamp to zero; an all-zero row falls back to the uniform
    ratio 1/M.
    """
    d = np.asarray(drops, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] == 0:
        raise ContractViolation("drops must be [n_subjects, n_modalities]")
    clamped = np.maximum(d, 0.0)
    sums = clamped.sum(axis=1, keepdims=True)
    uniform = np.full_like(clamped, 1.0 / d.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(sums > 0, clamped / np.where(sums > 0, sums, 1.0), uniform)
    return ratios


@dataclass
class RurReport:
    modalities: tuple
    per_subject: np.ndarray  # [B, M] ratios
    mean: np.ndarray  # [M]
    drops: np.ndarray  # [B, M] raw probability drops


def rur_report(models, batch: ModalityBatch, targets, modalities) -> RurReport:
    """Ablate each modality in turn and summarize usage ratios; over several
    models the true-class probabilities are averaged."""
    models = list(models) if isinstance(models, (list, tuple)) else [models]
    modalities = tuple(modalities)
    if not modalities:
        raise ContractViolation("need at least one modality to ablate")
    for m in modalities:
        if m in batch.masked:
            raise ContractViolation(f"modality {m!r} is already masked")
        if any(m not in model.spec.input_modalities() for model in models):
            raise ContractViolation(f"the models take no modality {m!r}")
    y = np.asarray(targets, dtype=np.int64)
    probs = np.zeros((1 + len(modalities), y.size))  # row 0: nothing ablated
    for model in map(frozen, models):
        tokens = {mod: encode(model, batch, mod) for mod in model.spec.token_modalities()}
        for j, m in enumerate((None,) + modalities):
            ablated = batch if m is None else dc_replace(batch, masked=batch.masked | {m})
            swapped = {**tokens, m: encode(model, ablated, m)} if m in tokens else tokens
            p1 = dc.softmax(fuse(model, swapped, ablated, False, None), axis=-1).data[:, 1]
            probs[j] += np.where(y == 1, p1, 1.0 - p1)
    probs /= len(models)
    drops = (probs[0] - probs[1:]).T
    ratios = compute_rur(drops)
    return RurReport(modalities, ratios, ratios.mean(axis=0), drops)
