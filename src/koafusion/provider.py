"""Feeds cohort records through preprocessing into model-ready batches.

A batch's inputs are one map keyed by input modality, with the same keys as
``modality_means``: each of ``protocols`` in order (a radiograph is a
one-slice ``[B, 1, H, W]`` stack), then ``CLIN`` when the provider has a
clinical variable set.  Each batch makes one ``Pipeline.from_crop`` call per
protocol over all of its subjects.  One cache of at most ``CACHE_BYTES``
keeps each subject's volume after the rng-free stages ahead of the crop
(``Pipeline.prep``; a T2 map fit from echoes is fit once while resident) and
its eval-mode chain row, so an eval batch chains only its misses and a train
batch starts at the crop, drawing from the caller's generator.  The cache
admits entries until it is full and never evicts: epochs revisit the same
subjects, and a full cache that keeps what it holds serves a fixed share of
each one, where least-recently-used eviction would drop every entry just
before its next use.  An entry not admitted is rebuilt (a T2 map refitted)
on each use.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .cohort import Dataset, encode_clinical
from .errors import ContractViolation
from .imaging import Volume, build_pipeline
from .models import ModalityBatch
from .relaxometry import MultiEchoVolume, fit_t2_volume
from .vol1 import read_vol1

# 1 GiB: a desk-scale (0.1) fusion_train cohort needs ~20 MB, and one prepped scale-1.0 DESS volume ~180 MiB.
CACHE_BYTES = 1 << 30


def _load_ref(ref, key):
    """Materialize an image reference: an in-memory object or a manifest entry."""
    if isinstance(ref, (Volume, MultiEchoVolume)):
        return ref
    path = ref["path"]
    data, spacing = read_vol1(path)
    try:
        if key != "MULTI_ECHO":
            return Volume(data, spacing=tuple(spacing), dtype_bits=int(ref.get("dtype_bits", 16)))
        if ref.get("echo_times") is None:
            raise ContractViolation("multi-echo reference needs echo_times metadata")
        return MultiEchoVolume(data, np.asarray(ref["echo_times"]), spacing=tuple(spacing[:3]))
    except ContractViolation as exc:
        raise ContractViolation(f"{path}: {exc}") from exc


@contextmanager
def naming_image(record, proto: str):
    """Re-raise a ContractViolation with the image's manifest path as a prefix, or
    ``subject <id> <protocol>`` for an in-memory image."""
    try:
        yield
    except ContractViolation as exc:
        ref = record.image_refs.get(proto)
        name = ref["path"] if isinstance(ref, dict) else f"subject {record.subject_id} {proto}"
        raise ContractViolation(f"{name}: {exc}") from exc


def source_volume(record, proto: str):
    """A record's image for ``proto`` (one of imaging.PROTOCOLS, or MULTI_ECHO); T2MAP is
    fit from MULTI_ECHO, as ``fit-t2`` fits it, when no map is attached."""
    refs = record.image_refs
    if proto == "T2MAP" and "T2MAP" not in refs:
        if "MULTI_ECHO" not in refs:
            raise ContractViolation(
                f"subject {record.subject_id} has neither a T2 map nor a multi-echo stack"
            )
        stack = _load_ref(refs["MULTI_ECHO"], "MULTI_ECHO")
        pmap = fit_t2_volume(stack)
        return Volume(pmap.t2, spacing=stack.spacing)
    if proto not in refs:
        raise ContractViolation(f"subject {record.subject_id} is missing the {proto} image")
    return _load_ref(refs[proto], proto)


class CohortProvider:
    """Batch builder over one labelled dataset.

    ``protocols`` lists the imaging inputs to produce; T2MAP is fit from the
    multi-echo stack when no precomputed map is attached to a record.
    """

    def __init__(self, dataset: Dataset, protocols, scale: float = 1.0,
                 clinical_variable_set: str | None = None):
        self.dataset = dataset
        self.protocols = tuple(protocols)
        self.clinical_variable_set = clinical_variable_set
        self._pipes = {(p, m): build_pipeline(p, m, scale) for p in self.protocols for m in ("train", "eval")}
        self._cache = {}  # (subject, protocol, "prep" | "eval") -> array, never evicted
        self._cache_bytes = 0

    # ------------------------------------------------------------------
    def labels_map(self, ids) -> dict:
        return {i: self.dataset.labels[i] for i in ids}

    def labels_array(self, ids) -> np.ndarray:
        return self.dataset.label_array(ids)

    def clinical_stats(self, train_ids):
        if self.clinical_variable_set is None:
            return None
        _, stats = encode_clinical(self.dataset, train_ids, self.clinical_variable_set)
        return stats

    # ------------------------------------------------------------------
    def _keep(self, key, a: np.ndarray) -> np.ndarray:
        """``a`` read-only (a view copied first), kept while the cache has room for it."""
        a = a.copy() if a.base is not None else a
        a.flags.writeable = False
        if self._cache_bytes + a.nbytes <= CACHE_BYTES:
            self._cache[key] = a
            self._cache_bytes += a.nbytes
        return a

    def _prepped(self, subject_id: str, proto: str) -> np.ndarray:
        """The subject's ``proto`` volume after ``Pipeline.prep`` (the same in both modes)."""
        if (a := self._cache.get((subject_id, proto, "prep"))) is None:
            record = self.dataset.records[subject_id]
            source = source_volume(record, proto)  # its errors already name the file
            with naming_image(record, proto):
                v = self._pipes[(proto, "eval")].prep(source)
            a = self._keep((subject_id, proto, "prep"), v.data)
        return a

    def _chain(self, ids, proto: str, mode: str, rng) -> np.ndarray:
        """One chain call over ``ids``: model arrays [B, S, H, W] for volumes, [B, 1, H, W] for XR."""
        out = self._pipes[(proto, mode)].from_crop((self._prepped(i, proto) for i in ids), rng)
        if out.ndim == 3:
            return out[:, None]
        return np.ascontiguousarray(np.moveaxis(out, 3, 1))

    def _stack(self, ids, proto: str, mode: str, rng) -> np.ndarray:
        """``_chain`` output for ``ids``; eval mode chains only the rows missing from the cache."""
        if mode == "train":
            return self._chain(ids, proto, "train", rng)
        rows = {i: self._cache.get((i, proto, "eval")) for i in ids}
        misses = [i for i, row in rows.items() if row is None]
        if misses:
            for i, row in zip(misses, self._chain(misses, proto, "eval", None)):
                rows[i] = self._keep((i, proto, "eval"), row)
        return np.stack([rows[i] for i in ids])

    # ------------------------------------------------------------------
    def _inputs(self, ids, mode: str, rng, clinical_stats):
        """(modality, array) pairs for ``ids``, built one at a time: ``protocols``, then CLIN."""
        for proto in self.protocols:
            yield proto, self._stack(ids, proto, mode, rng)
        if self.clinical_variable_set is not None:
            if clinical_stats is None:
                raise ContractViolation("clinical inputs need training-fold stats")
            x, _ = encode_clinical(self.dataset, ids, self.clinical_variable_set, train_stats=clinical_stats)
            yield "CLIN", x

    def batch(self, ids, mode: str = "eval", rng=None, clinical_stats=None):
        """Assemble a ModalityBatch and the target vector for ``ids``."""
        if mode not in ("train", "eval"):
            raise ContractViolation(f"unknown mode {mode!r}")
        ids = list(ids)
        if not ids:
            raise ContractViolation("empty batch")
        batch = ModalityBatch(inputs=dict(self._inputs(ids, mode, rng, clinical_stats)))
        return batch, self.labels_array(ids)

    def modality_means(self, ids, clinical_stats=None) -> dict:
        """Eval-space mean inputs per modality, for mean-replacement masking."""
        ids = list(ids)
        if not ids:
            raise ContractViolation("modality means need at least one subject")
        means = {}
        for mod, arr in self._inputs(ids, "eval", None, clinical_stats):
            means[mod] = np.mean(arr, axis=0)
            del arr  # free each input before the next is built
        return means
