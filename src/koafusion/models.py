"""Fusion networks: per-modality slice encoders feeding one transformer.

A ``ModalityBatch`` holds one input map keyed by input modality: ``[B, S, H, W]``
for the radiograph (``XR``, one slice) and for each MRI protocol, ``[B, C]``
for the clinical vector (``CLIN``).  ``encode`` turns one imaging input into
tokens slice-by-slice with a small residual CNN (weights shared across
slices, one encoder per modality): a radiograph contributes one token, each
MRI slice one.  ``fuse`` adds learned positional and modality embeddings,
runs a post-LN transformer, mean-pools, optionally concatenates the clinical
vector, and classifies by a one-hidden-layer head into two logits.
``forward`` is ``fuse`` over ``encode`` of every token modality.

``ArchSpec`` holds what a run's config sets; the sizes no run sets
(``ENCODER_CHANNELS``, ``HEAD_HIDDEN``, ``MAX_SLICES``) are module constants,
read each time a model is built or run.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor
from .errors import ContractViolation
from .imaging import PROTOCOLS
from .vol1 import read_file, write_file

FFN_RATIO = 2  # transformer feed-forward width as a multiple of descriptor_dim
ENCODER_CHANNELS = (8, 16, 32)  # output channels of each residual CNN stage
HEAD_HIDDEN = 64  # width of the classifier head's hidden layer
MAX_SLICES = 128  # rows of the positional table: the most slices one input may have
ARCH_KINDS = {"XR1": 0, "MR1": 1, "XR1MR1": 1, "MR2": 2, "XR1MR2": 2, "XR1MR2C1": 2}  # kind -> MRI inputs


@dataclass(frozen=True)
class ArchSpec:
    """Architecture hyperparameters a run's config sets; ``kind`` fixes the modality layout."""

    kind: str
    mri_protocols: tuple = ()
    clinical_dim: int = 0
    descriptor_dim: int = 64
    trf_layers: int = 4
    trf_heads: int = 8
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.kind not in ARCH_KINDS:
            raise ContractViolation(f"unknown architecture kind {self.kind!r}")
        if len(self.mri_protocols) != ARCH_KINDS[self.kind]:
            raise ContractViolation(
                f"{self.kind} needs {ARCH_KINDS[self.kind]} MRI protocol(s), got {len(self.mri_protocols)}"
            )
        for p in self.mri_protocols:
            if p not in PROTOCOLS or p == "XR":
                raise ContractViolation(f"unknown MRI protocol {p!r}")
        if len(set(self.mri_protocols)) != len(self.mri_protocols):
            raise ContractViolation("duplicate MRI protocols")
        if (self.clinical_dim > 0) != self.kind.endswith("C1"):
            raise ContractViolation("clinical_dim must be positive exactly for *C1 kinds")
        if self.trf_layers < 1 or self.trf_heads < 1 or self.descriptor_dim < 1:
            raise ContractViolation("trf_layers, trf_heads and descriptor_dim must be positive")
        if self.descriptor_dim % self.trf_heads != 0:
            raise ContractViolation("descriptor_dim must be divisible by trf_heads")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ContractViolation("dropout_rate must lie in [0, 1)")

    def token_modalities(self) -> tuple:
        mods = ("XR",) if self.kind.startswith("XR1") else ()
        return mods + tuple(self.mri_protocols)

    def input_modalities(self) -> tuple:
        """Token modalities, then ``CLIN`` for *C1 kinds: every input a batch can mask."""
        return self.token_modalities() + (("CLIN",) if self.clinical_dim else ())

    @property
    def ffn_dim(self) -> int:
        return FFN_RATIO * self.descriptor_dim


@dataclass
class ModalityBatch:
    """One batch of model inputs keyed by input modality (see the module
    docstring); a modality in ``masked`` is replaced by ``means[mod]``."""

    inputs: dict = field(default_factory=dict)
    masked: frozenset = frozenset()
    means: dict = field(default_factory=dict)


@dataclass
class Model:
    spec: ArchSpec
    params: dict


def _names_and_shapes(spec: ArchSpec):
    """Parameter layout in construction order: (name, shape, init kind)."""
    d = spec.descriptor_dim
    layout = []
    for mod in spec.token_modalities():
        c_in = 1
        for i, c_out in enumerate(ENCODER_CHANNELS):
            pre = f"enc.{mod}.stage{i}"
            layout.append((f"{pre}.conv1.w", (c_out, c_in, 3, 3), "he"))
            layout.append((f"{pre}.conv1.b", (c_out,), "zero"))
            layout.append((f"{pre}.conv2.w", (c_out, c_out, 3, 3), "he"))
            layout.append((f"{pre}.conv2.b", (c_out,), "zero"))
            layout.append((f"{pre}.skip.w", (c_out, c_in, 1, 1), "he"))
            layout.append((f"{pre}.skip.b", (c_out,), "zero"))
            c_in = c_out
        layout.append((f"enc.{mod}.proj.w", (c_in, d), "he"))
        layout.append((f"enc.{mod}.proj.b", (d,), "zero"))
    layout.append(("emb.pos", (MAX_SLICES, d), "emb"))
    layout.append(("emb.mod", (len(spec.token_modalities()), d), "emb"))
    f = spec.ffn_dim
    for layer in range(spec.trf_layers):
        pre = f"trf{layer}"
        for proj in ("q", "k", "v", "o"):
            layout.append((f"{pre}.{proj}.w", (d, d), "he"))
            layout.append((f"{pre}.{proj}.b", (d,), "zero"))
        layout.append((f"{pre}.ln1.g", (d,), "one"))
        layout.append((f"{pre}.ln1.b", (d,), "zero"))
        layout.append((f"{pre}.ffn1.w", (d, f), "he"))
        layout.append((f"{pre}.ffn1.b", (f,), "zero"))
        layout.append((f"{pre}.ffn2.w", (f, d), "he"))
        layout.append((f"{pre}.ffn2.b", (d,), "zero"))
        layout.append((f"{pre}.ln2.g", (d,), "one"))
        layout.append((f"{pre}.ln2.b", (d,), "zero"))
    head_in = d + spec.clinical_dim
    layout.append(("head.fc1.w", (head_in, HEAD_HIDDEN), "he"))
    layout.append(("head.fc1.b", (HEAD_HIDDEN,), "zero"))
    layout.append(("head.fc2.w", (HEAD_HIDDEN, 2), "he"))
    layout.append(("head.fc2.b", (2,), "zero"))
    return layout


def _fan_in(shape):
    if len(shape) == 4:  # conv [O, C, kh, kw]
        return shape[1] * shape[2] * shape[3]
    return shape[0]


def build_model(spec: ArchSpec, seed: int = 0) -> Model:
    """Deterministic initialization: He-uniform weights, zero biases,
    N(0, 1)/sqrt(D) embeddings, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, kind in _names_and_shapes(spec):
        if kind == "he":
            bound = np.sqrt(6.0 / _fan_in(shape))
            data = rng.uniform(-bound, bound, size=shape)
        elif kind == "emb":
            data = rng.normal(0.0, 1.0, size=shape) / np.sqrt(spec.descriptor_dim)
        elif kind == "one":
            data = np.ones(shape)
        else:
            data = np.zeros(shape)
        params[name] = Tensor(data, requires_grad=True)
    return Model(spec, params)


def frozen(model: Model) -> Model:
    """The same model over constant parameters: it shares the arrays, gives
    identical values and records no graph, so a scored batch holds none."""
    return Model(model.spec, {k: Tensor(p.data) for k, p in model.params.items()})


def param_count(model: Model) -> int:
    return sum(t.data.size for t in model.params.values())


def _attention(model: Model, layer: int, x: Tensor) -> Tensor:
    spec, p = model.spec, model.params
    b, t, d = x.shape
    heads = spec.trf_heads
    dk = d // heads
    pre = f"trf{layer}"

    def split(h):
        return dc.transpose(dc.reshape(h, (b, t, heads, dk)), (0, 2, 1, 3))

    q = split(dc.matmul(x, p[f"{pre}.q.w"]) + p[f"{pre}.q.b"])
    k = split(dc.matmul(x, p[f"{pre}.k.w"]) + p[f"{pre}.k.b"])
    v = split(dc.matmul(x, p[f"{pre}.v.w"]) + p[f"{pre}.v.b"])
    att = dc.softmax(dc.matmul(q, dc.transpose(k, (0, 1, 3, 2))) * Tensor(1.0 / np.sqrt(dk)))
    ctx = dc.reshape(dc.transpose(dc.matmul(att, v), (0, 2, 1, 3)), (b, t, d))
    return dc.matmul(ctx, p[f"{pre}.o.w"]) + p[f"{pre}.o.b"]


def _transformer_layer(model: Model, layer: int, x: Tensor, training, rng) -> Tensor:
    spec, p = model.spec, model.params
    pre = f"trf{layer}"
    att = dc.dropout(_attention(model, layer, x), spec.dropout_rate, rng, training)
    x = dc.layer_norm(x + att, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
    h = dc.relu(dc.matmul(x, p[f"{pre}.ffn1.w"]) + p[f"{pre}.ffn1.b"])
    h = dc.matmul(h, p[f"{pre}.ffn2.w"]) + p[f"{pre}.ffn2.b"]
    h = dc.dropout(h, spec.dropout_rate, rng, training)
    return dc.layer_norm(x + h, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])


def _input(batch: ModalityBatch, mod: str) -> np.ndarray:
    """``batch.inputs[mod]`` as float64; a masked input is its mean, broadcast over the batch."""
    if batch.inputs.get(mod) is None:
        raise ContractViolation(f"architecture expects input {mod!r}")
    data = np.asarray(batch.inputs[mod], dtype=np.float64)
    if mod not in batch.masked:
        return data
    if mod not in batch.means:
        raise ContractViolation(f"masked modality {mod!r} has no replacement mean")
    mean = np.asarray(batch.means[mod], dtype=np.float64)
    if mean.shape != data.shape[1:]:
        raise ContractViolation(f"mean shape {mean.shape} mismatches {mod} input")
    return np.broadcast_to(mean, data.shape)


def encode(model: Model, batch: ModalityBatch, mod: str) -> Tensor:
    """[B, S, D] slice tokens of one imaging input from its residual CNN.

    A masked input is its mean: the CNN runs on one copy of it, and the pooled
    [S, C] features are repeated over the batch before ``proj``.  The tokens
    are bit-identical to encoding B copies, since conv2d runs one GEMM of the
    same shape per batch element, the pool, relu and the residual add treat
    each element on its own, and ``proj``, the one op that mixes rows, keeps
    its [B*S, C] shape (a one-row product would take another BLAS kernel and
    round differently).
    """
    vol = _input(batch, mod)
    if vol.ndim != 4:
        raise ContractViolation(f"{mod} input must be [B, S, H, W]")
    b, s, height, width = vol.shape
    copies = 1 if mod in batch.masked else b
    h = Tensor(vol[:copies].reshape(copies * s, 1, height, width))
    p = model.params
    for i in range(len(ENCODER_CHANNELS)):
        pre = f"enc.{mod}.stage{i}"
        main = dc.conv2d(h, p[f"{pre}.conv1.w"], p[f"{pre}.conv1.b"], stride=2, padding=1)
        main = dc.relu(main)
        main = dc.conv2d(main, p[f"{pre}.conv2.w"], p[f"{pre}.conv2.b"], stride=1, padding=1)
        skip = dc.conv2d(h, p[f"{pre}.skip.w"], p[f"{pre}.skip.b"], stride=2, padding=0)
        h = dc.relu(main + skip)
    pooled = dc.global_average_pool(h)
    if copies < b:
        pooled = dc.concat([pooled] * b, axis=0)
    enc = dc.matmul(pooled, p[f"enc.{mod}.proj.w"]) + p[f"enc.{mod}.proj.b"]
    return dc.reshape(enc, (b, s, model.spec.descriptor_dim))


def fuse(model: Model, tokens: dict, batch: ModalityBatch, training: bool, rng) -> Tensor:
    """[B, 2] logits from every token modality's ``tokens[mod]``: everything after the CNNs."""
    spec, p = model.spec, model.params
    mods = spec.token_modalities()
    b = tokens[mods[0]].shape[0]
    groups, positions, mod_ids = [], [], []
    for mod_id, mod in enumerate(mods):
        n, s = tokens[mod].shape[:2]
        if n != b:
            raise ContractViolation(f"{mod} input holds {n} subjects, {mods[0]} holds {b}")
        if s > MAX_SLICES:
            raise ContractViolation(f"{mod} input has {s} slices; the positional table holds {MAX_SLICES}")
        groups.append(tokens[mod])
        positions.append(np.arange(s))
        mod_ids.append(np.full(s, mod_id))
    x = groups[0] if len(groups) == 1 else dc.concat(groups, axis=1)
    x = x + dc.embedding(p["emb.pos"], np.concatenate(positions))
    x = x + dc.embedding(p["emb.mod"], np.concatenate(mod_ids).astype(int))
    x = dc.dropout(x, spec.dropout_rate, rng, training)
    for layer in range(spec.trf_layers):
        x = _transformer_layer(model, layer, x, training, rng)
    pooled = dc.mean(x, axis=1)
    if spec.clinical_dim:
        clin = _input(batch, "CLIN")
        if clin.shape != (b, spec.clinical_dim):
            raise ContractViolation(f"CLIN input must be [{b}, {spec.clinical_dim}], got {clin.shape}")
        pooled = dc.concat([pooled, Tensor(clin)], axis=1)
    h1 = dc.relu(dc.matmul(pooled, p["head.fc1.w"]) + p["head.fc1.b"])
    h1 = dc.dropout(h1, spec.dropout_rate, rng, training)
    return dc.matmul(h1, p["head.fc2.w"]) + p["head.fc2.b"]


def forward(model: Model, batch: ModalityBatch, mode: str = "eval", seed: int = 0) -> Tensor:
    """Compute [B, 2] logits; ``mode='train'`` enables dropout (seeded)."""
    if mode not in ("train", "eval"):
        raise ContractViolation(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "train" else None
    tokens = {mod: encode(model, batch, mod) for mod in model.spec.token_modalities()}
    return fuse(model, tokens, batch, mode == "train", rng)


# ---------------------------------------------------------------------------
# checkpoints: flat binary, sorted parameter names
# ---------------------------------------------------------------------------

_CKP_MAGIC = b"CKP1"


def save_checkpoint(model: Model, path):
    chunks = [_CKP_MAGIC, struct.pack("<I", len(model.params))]
    for name in sorted(model.params):
        data = model.params[name].data
        raw = name.encode("utf-8")
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<B", data.ndim),
                   struct.pack(f"<{data.ndim}I", *data.shape),
                   np.ascontiguousarray(data, dtype="<f8").tobytes()]
    write_file(path, chunks)


def load_checkpoint(path) -> dict:
    """Read a checkpoint; a short, over-long or unreadable file is a ContractViolation."""
    raw = read_file(path)
    if raw[:4] != _CKP_MAGIC:
        raise ContractViolation(f"{path} is not a checkpoint file")
    off = 4

    def take(n):
        nonlocal off
        if len(raw) - off < n:
            raise ContractViolation(f"{path}: checkpoint is truncated")
        off += n
        return raw[off - n : off]

    (count,) = struct.unpack("<I", take(4))
    out = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8", "replace")  # a garbled name fails apply_checkpoint
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        out[name] = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8").reshape(shape).astype(np.float64)
    if off != len(raw):
        raise ContractViolation(f"{path}: {len(raw) - off} bytes after the last parameter")
    return out


def apply_checkpoint(model: Model, state: dict):
    """Load parameter arrays into a model; names and shapes must match."""
    if set(state) != set(model.params):
        raise ContractViolation("checkpoint parameter names do not match the model")
    for name, arr in state.items():
        if arr.shape != model.params[name].data.shape:
            raise ContractViolation(f"checkpoint shape mismatch for {name}")
        model.params[name].data = np.array(arr, dtype=np.float64)
        model.params[name].grad = None
