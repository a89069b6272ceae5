"""Feeds cohort records through preprocessing into model-ready batches.

T2 maps are fit once per subject and cached, as are deterministic eval-mode
chain outputs.  Train-mode batches re-run the augmenting chains with the
caller's generator, so epoch randomness is owned by the training loop.
"""

from __future__ import annotations

import numpy as np

from .cohort import Dataset, encode_clinical
from .errors import ContractViolation
from .imaging import Volume, build_pipeline
from .models import ModalityBatch
from .relaxometry import FitConfig, MultiEchoVolume, fit_t2_volume
from .vol1 import read_vol1

IMAGE_KEYS = ("XR", "DESS", "TSE", "T2MAP", "MULTI_ECHO")


def _load_ref(ref, key):
    """Materialize an image reference: in-memory object, path, or manifest entry."""
    if isinstance(ref, (Volume, MultiEchoVolume)):
        return ref
    meta = {}
    path = ref
    if isinstance(ref, dict):
        meta = ref
        path = ref["path"]
    data, spacing = read_vol1(path)
    if key == "MULTI_ECHO":
        echo_times = meta.get("echo_times")
        if echo_times is None:
            raise ContractViolation("multi-echo reference needs echo_times metadata")
        return MultiEchoVolume(data, np.asarray(echo_times), spacing=tuple(spacing[:3]))
    return Volume(data, spacing=tuple(spacing), dtype_bits=int(meta.get("dtype_bits", 16)))


def source_volume(record, proto: str):
    """A record's image for ``proto`` (any of IMAGE_KEYS); T2MAP is fit from
    MULTI_ECHO with the default FitConfig when no map is attached."""
    refs = record.image_refs
    if proto == "T2MAP" and "T2MAP" not in refs:
        if "MULTI_ECHO" not in refs:
            raise ContractViolation(
                f"subject {record.subject_id} has neither a T2 map nor a multi-echo stack"
            )
        stack = _load_ref(refs["MULTI_ECHO"], "MULTI_ECHO")
        pmap = fit_t2_volume(stack, FitConfig())
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
        for p in protocols:
            if p not in ("XR", "DESS", "TSE", "T2MAP"):
                raise ContractViolation(f"unknown protocol {p!r}")
        self.dataset = dataset
        self.protocols = tuple(protocols)
        self.clinical_variable_set = clinical_variable_set
        self._pipes = {(p, m): build_pipeline(p, m, scale) for p in self.protocols for m in ("train", "eval")}
        self._t2map_cache = {}
        self._eval_cache = {}

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
    def _source_volume(self, subject_id: str, proto: str) -> Volume:
        """``source_volume``, with each fitted T2 map kept for the provider's lifetime."""
        record = self.dataset.records[subject_id]
        if proto != "T2MAP" or "T2MAP" in record.image_refs:
            return source_volume(record, proto)
        if subject_id not in self._t2map_cache:
            self._t2map_cache[subject_id] = source_volume(record, proto)
        return self._t2map_cache[subject_id]

    def _processed(self, subject_id: str, proto: str, mode: str, rng) -> np.ndarray:
        """Chain output as a model array: [S, H, W] for volumes, [1, H, W] for XR."""
        if mode == "eval":
            key = (subject_id, proto)
            if key not in self._eval_cache:
                out = self._pipes[(proto, "eval")](self._source_volume(subject_id, proto))
                self._eval_cache[key] = self._to_model_axes(out.data)
            return self._eval_cache[key]
        if rng is None:
            raise ContractViolation("train-mode batches require an rng")
        out = self._pipes[(proto, "train")](self._source_volume(subject_id, proto), rng)
        return self._to_model_axes(out.data)

    @staticmethod
    def _to_model_axes(data: np.ndarray) -> np.ndarray:
        if data.ndim == 2:
            return data[None, :, :]
        return np.moveaxis(data, 2, 0)

    # ------------------------------------------------------------------
    def batch(self, ids, mode: str = "eval", rng=None, clinical_stats=None):
        """Assemble a ModalityBatch and the target vector for ``ids``."""
        if mode not in ("train", "eval"):
            raise ContractViolation(f"unknown mode {mode!r}")
        ids = list(ids)
        if not ids:
            raise ContractViolation("empty batch")
        xr = None
        mri = {}
        for proto in self.protocols:
            stacks = [self._processed(i, proto, mode, rng) for i in ids]
            arr = np.stack(stacks, axis=0)
            if proto == "XR":
                xr = arr
            else:
                mri[proto] = arr
        clinical = None
        if self.clinical_variable_set is not None:
            if clinical_stats is None:
                raise ContractViolation("clinical batches need training-fold stats")
            clinical, _ = encode_clinical(
                self.dataset, ids, self.clinical_variable_set, train_stats=clinical_stats
            )
        batch = ModalityBatch(xr=xr, mri=mri, clinical=clinical)
        return batch, self.labels_array(ids)

    def modality_means(self, ids, clinical_stats=None) -> dict:
        """Eval-space mean inputs per modality, for mean-replacement masking."""
        means = {}
        for proto in self.protocols:
            stacks = [self._processed(i, proto, "eval", None) for i in ids]
            means[proto] = np.mean(stacks, axis=0)
        if self.clinical_variable_set is not None:
            if clinical_stats is None:
                raise ContractViolation("clinical means need training-fold stats")
            x, _ = encode_clinical(
                self.dataset, ids, self.clinical_variable_set, train_stats=clinical_stats
            )
            means["CLIN"] = x.mean(axis=0)
        return means
