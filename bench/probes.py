"""The layer boundaries the traced run wraps, and the metrics derived from them.

Every wrap names the attribute its caller looks up: ``training.forward`` and
``interpret.forward`` are both ``models.forward``, ``provider.read_vol1`` and
``cli.read_vol1`` are both ``vol1.read_vol1``.  A span's name starts with the
layer it belongs to, so self time per layer is a sum over name prefixes.
"""

from __future__ import annotations

import time

import numpy as np

from koafusion import baselines, cli, cohort, evaluation, imaging, interpret, provider, store, training
from koafusion import diffcore as dc
from koafusion.imaging import Pipeline
from koafusion.provider import CohortProvider

STAGES = ("rotate_inplane", "percentile_clip", "resample", "normalize", "crop",
          "gamma_correct", "truncate_lsb", "value_clip")
MODES = ("train", "eval")
CONV_NAMES = ("conv1", "conv2", "skip")


def _arg(args, kwargs, key, pos, default):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _forward_name(args, kwargs):
    return "models.forward." + _arg(args, kwargs, "mode", 2, "eval")


def _batch_name(args, kwargs):
    return "provider.batch." + _arg(args, kwargs, "mode", 2, "eval")


class Probes:
    """Counters gathered at the wrapped boundaries during one traced phase."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.fit_voxels = 0
        self.fit_valid = 0
        self.eval_requests = 0
        self.conv_flops = 0.0
        self.conv_shapes = {}  # parameter name -> (x shape, w shape, stride, padding)
        self.param_names = {}
        self.train_graph_nodes = 0
        self.eval_graph_nodes = 0
        self.step_start = None
        self.step_ms = []
        self.boot_replicates = 0
        self.read_bytes = 0
        self.write_bytes = 0

    # hooks -------------------------------------------------------------
    def _fit(self, rec, args, kwargs, out):
        self.fit_voxels += out.valid_mask.size
        self.fit_valid += int(out.valid_mask.sum())

    def _batch(self, args, kwargs):
        if _arg(args, kwargs, "mode", 2, "eval") == "train":
            self.step_start = time.perf_counter()
        else:
            self.eval_requests += len(args[1]) * len(args[0].protocols)

    def _means(self, args, kwargs):
        self.eval_requests += len(args[1]) * len(args[0].protocols)

    def _forward_in(self, args, kwargs):
        self.param_names.update((id(t), n) for n, t in args[0].params.items())

    def _forward_out(self, rec, args, kwargs, out):
        if _arg(args, kwargs, "mode", 2, "eval") == "eval":
            self.eval_graph_nodes += len(dc.tape(out))

    def _conv(self, rec, args, kwargs, out):
        x, w = args[0].data, args[1].data
        b, o, ho, wo = out.data.shape
        self.conv_flops += 2.0 * b * o * ho * wo * w.shape[1] * w.shape[2] * w.shape[3]
        name = self.param_names.get(id(args[1]))
        if name is not None and name not in self.conv_shapes:
            stride = _arg(args, kwargs, "stride", 3, 1)
            padding = _arg(args, kwargs, "padding", 4, 0)
            self.conv_shapes[name] = (x.shape, w.shape, stride, padding)

    def _loss(self, rec, args, kwargs, out):
        if not self.train_graph_nodes:
            self.train_graph_nodes = len(dc.tape(out))

    def _adam(self, rec, args, kwargs, out):
        if self.step_start is not None:
            self.step_ms.append((rec[4] - self.step_start) * 1e3)
            self.step_start = None

    def _boot(self, rec, args, kwargs, out):
        self.boot_replicates += out.n_boot

    def _read(self, rec, args, kwargs, out):
        self.read_bytes += out[0].nbytes

    def _write(self, args, kwargs):
        self.write_bytes += np.asarray(_arg(args, kwargs, "data", 1, None)).nbytes

    # installation ------------------------------------------------------
    def install(self):
        t = self.tracer
        for mod in (provider, cli):
            t.wrap(mod, "fit_t2_volume", "relaxometry.fit_t2_volume", after=self._fit)
            t.wrap(mod, "read_vol1", "vol1.read_vol1", after=self._read)
        t.wrap(Pipeline, "__call__", lambda a, k: f"imaging.{a[0].protocol}.{a[0].mode}")
        for stage in STAGES:
            t.wrap(imaging, stage, f"imaging.{stage}")
        t.wrap(CohortProvider, "batch", _batch_name, before=self._batch)
        t.wrap(CohortProvider, "modality_means", "provider.modality_means", before=self._means)
        t.wrap(dc.Tensor, "backward", "diffcore.backward")
        t.wrap(dc, "conv2d", "diffcore.conv2d", after=self._conv)
        t.wrap(dc, "matmul", "diffcore.matmul")
        for mod in (training, interpret):
            t.wrap(mod, "forward", _forward_name, before=self._forward_in, after=self._forward_out)
        for mod in (training, cli):
            t.wrap(mod, "train_cv", "training.train_cv")
            t.wrap(mod, "predict_scores", "training.predict_scores")
        t.wrap(training, "train_fold", "training.train_fold")
        t.wrap(training, "focal_loss", "training.focal_loss", after=self._loss)
        t.wrap(training, "adam_step", "training.adam_step", after=self._adam)
        t.wrap(evaluation, "stratified_bootstrap", "evaluation.stratified_bootstrap", after=self._boot)
        t.wrap(evaluation, "roc_auc", "evaluation.roc_auc")
        t.wrap(cli, "rur_report", "interpret.rur_report")
        t.wrap(interpret, "modality_drops", "interpret.modality_drops")
        t.wrap(baselines, "lr_fit_cv", "baselines.lr_fit_cv")
        t.wrap(baselines, "fit_logistic", "baselines.fit_logistic")
        t.wrap(baselines, "lr_predict", "baselines.lr_predict")
        for mod in (store, cli):
            t.wrap(mod, "write_vol1", "vol1.write_vol1", before=self._write)
        t.wrap(cli, "load_cohort", "store.load_cohort")
        t.wrap(cli, "save_cohort", "store.save_cohort")
        t.wrap(cli, "load_checkpoint", "models.load_checkpoint")
        t.wrap(cli, "save_checkpoint", "models.save_checkpoint")
        for mod in (cohort, cli):
            t.wrap(mod, "synth_subject", "cohort.synth_subject")
        for mod in (cohort, cli):
            t.wrap(mod, "assemble_dataset", "cohort.assemble_dataset")
        t.wrap(cli, "main", lambda a, k: "cli." + (a[0] if a else k["argv"])[0])

    def first_encoder(self):
        """Shapes of the three convolutions per stage of the first MRI encoder."""
        for name in self.conv_shapes:
            parts = name.split(".")
            if parts[1] != "XR":
                proto = parts[1]
                break
        else:
            return None, []
        stages = []
        i = 0
        while f"enc.{proto}.stage{i}.conv1.w" in self.conv_shapes:
            stages.append([self.conv_shapes[f"enc.{proto}.stage{i}.{c}.w"] for c in CONV_NAMES])
            i += 1
        return proto, stages


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer, pass_spans, pass_probes, pass_wall, setup_spans, setup_probes) -> dict:
    """Per-layer metrics of one traced pass (plus the traced set-up for writes and synthesis)."""
    selfs = tracer.self_times(pass_spans)
    by_id = {s[0]: s for s in pass_spans}
    durs, self_s = {}, {}
    for sid, _, name, start, end in pass_spans:
        durs.setdefault(name, []).append(end - start)
        self_s[name] = self_s.get(name, 0.0) + selfs[sid]

    def busy(name):
        return float(sum(durs.get(name, ())))

    def calls(name):
        return len(durs.get(name, ()))

    def ms(name, q):
        return _pct([d * 1e3 for d in durs.get(name, ())], q)

    def layer_self(prefix):
        return float(sum(v for k, v in self_s.items() if k.startswith(prefix)))

    def parent_name(span):
        parent = by_id.get(span[1])
        return parent[2] if parent else None

    m = {}
    fit_busy = busy("relaxometry.fit_t2_volume")
    p = pass_probes
    m["relaxometry.fit_calls"] = calls("relaxometry.fit_t2_volume")
    m["relaxometry.fit_busy_s"] = fit_busy
    m["relaxometry.voxels_per_s"] = p.fit_voxels / fit_busy if fit_busy else 0.0
    m["relaxometry.valid_ratio"] = p.fit_valid / p.fit_voxels if p.fit_voxels else 0.0

    chain_eval_runs = 0
    for proto in imaging.PROTOCOLS:
        for mode in MODES:
            name = f"imaging.{proto}.{mode}"
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.p50_ms"] = ms(name, 50)
            if mode == "eval":
                chain_eval_runs += calls(name)
    for stage in STAGES:
        m[f"imaging.{stage}.busy_s"] = busy(f"imaging.{stage}")

    m["provider.batch.train.self_s"] = self_s.get("provider.batch.train", 0.0)
    m["provider.batch.eval.self_s"] = self_s.get("provider.batch.eval", 0.0)
    m["provider.eval_cache_hit_ratio"] = (
        (p.eval_requests - chain_eval_runs) / p.eval_requests if p.eval_requests else 0.0
    )

    m["diffcore.backward.calls"] = calls("diffcore.backward")
    m["diffcore.backward.busy_s"] = busy("diffcore.backward")
    m["diffcore.backward.p50_ms"] = ms("diffcore.backward", 50)
    m["diffcore.backward.p90_ms"] = ms("diffcore.backward", 90)
    m["diffcore.train_graph_nodes"] = p.train_graph_nodes
    m["diffcore.eval_graph_nodes"] = p.eval_graph_nodes
    conv_busy = busy("diffcore.conv2d")
    m["diffcore.conv2d.fwd_busy_s"] = conv_busy
    m["diffcore.conv2d.fwd_gflop_per_s"] = p.conv_flops / conv_busy / 1e9 if conv_busy else 0.0
    m["diffcore.matmul.fwd_busy_s"] = busy("diffcore.matmul")

    m["models.forward.train.p50_ms"] = ms("models.forward.train", 50)
    m["models.forward.eval.p50_ms"] = ms("models.forward.eval", 50)
    m["models.forward.eval.calls"] = calls("models.forward.eval")

    m["training.steps"] = len(p.step_ms)
    m["training.step.p50_ms"] = _pct(p.step_ms, 50)
    m["training.step.p90_ms"] = _pct(p.step_ms, 90)
    m["training.adam_step.busy_s"] = busy("training.adam_step")
    m["training.focal_loss.busy_s"] = busy("training.focal_loss")
    m["training.validation.busy_s"] = float(sum(
        s[4] - s[3] for s in pass_spans
        if s[2] == "training.predict_scores" and parent_name(s) == "training.train_fold"
    ))

    boot_busy = busy("evaluation.stratified_bootstrap")
    m["evaluation.bootstrap.busy_s"] = boot_busy
    m["evaluation.bootstrap.replicates_per_s"] = p.boot_replicates / boot_busy if boot_busy else 0.0

    reports = calls("interpret.rur_report")
    rur_forwards = sum(
        1 for s in pass_spans
        if s[2].startswith("models.forward.") and parent_name(s) == "interpret.modality_drops"
    )
    m["interpret.forwards"] = rur_forwards / reports if reports else 0.0
    m["interpret.self_s"] = layer_self("interpret.")

    m["baselines.fit_logistic.calls"] = calls("baselines.fit_logistic")
    m["baselines.lr_fit_cv.busy_s"] = busy("baselines.lr_fit_cv")

    setup_write = sum(e - s for _, _, n, s, e in setup_spans if n == "vol1.write_vol1")
    m["vol1.read_mb"] = p.read_bytes / 1e6
    m["vol1.read_busy_s"] = busy("vol1.read_vol1")
    m["vol1.write_mb"] = (setup_probes.write_bytes + p.write_bytes) / 1e6
    m["vol1.write_busy_s"] = setup_write + busy("vol1.write_vol1")
    m["cohort.synth.busy_s"] = float(sum(e - s for _, _, n, s, e in setup_spans if n == "cohort.synth_subject"))

    m["cli.self_s"] = layer_self("cli.")
    top = sum(e - s for _, parent, _, s, e in pass_spans if parent == -1)
    m["trace.coverage"] = top / pass_wall if pass_wall else 0.0
    return m


def self_by_layer(tracer, spans) -> dict:
    """Self time per layer (the first part of each span name), largest first."""
    selfs = tracer.self_times(spans)
    out = {}
    for s in spans:
        layer = s[2].split(".")[0]
        out[layer] = out.get(layer, 0.0) + selfs[s[0]]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def replay_conv2d(stages, repeats: int = 7, seed: int = 0) -> dict:
    """Forward and backward ms per encoder stage, replayed at recorded shapes.

    Each convolution runs on its own through ``dc.conv2d`` and
    ``Tensor.backward`` of its summed output; a stage's time is the sum of
    the medians of its three convolutions.  Stage 0 convolutions that read
    the raw image get an input that needs no gradient, as in the network.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for i, convs in enumerate(stages):
        fwd_total = bwd_total = 0.0
        for conv_name, (x_shape, w_shape, stride, padding) in zip(CONV_NAMES, convs):
            x_grad = not (i == 0 and conv_name != "conv2")
            fwd, bwd = [], []
            for _ in range(repeats):
                x = dc.Tensor(rng.standard_normal(x_shape), requires_grad=x_grad)
                w = dc.Tensor(rng.standard_normal(w_shape) * 0.1, requires_grad=True)
                b = dc.Tensor(np.zeros(w_shape[0]), requires_grad=True)
                t0 = time.perf_counter()
                y = dc.conv2d(x, w, b, stride=stride, padding=padding)
                t1 = time.perf_counter()
                loss = dc.tensor_sum(y)
                t2 = time.perf_counter()
                loss.backward()
                t3 = time.perf_counter()
                fwd.append(t1 - t0)
                bwd.append(t3 - t2)
            fwd_total += float(np.median(fwd))
            bwd_total += float(np.median(bwd))
        out[f"diffcore.conv2d.stage{i}.fwd_ms"] = fwd_total * 1e3
        out[f"diffcore.conv2d.stage{i}.bwd_ms"] = bwd_total * 1e3
    return out
