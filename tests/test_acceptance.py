"""Acceptance checks: one test per headline guarantee of the package.

Each test prints a single summary line (visible with ``pytest -s``) and
enforces the stated numeric tolerance and, where given, a runtime budget.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import koafusion
from koafusion import diffcore as dc
from koafusion.baselines import lr_fit_cv, lr_predict
from koafusion.cli import main as cli_main
from koafusion.cohort import (
    SynthConfig,
    assemble_dataset,
    make_split,
    phantom_dess,
    phantom_tse,
    phantom_xr,
    progressor_flags,
    synth_subject,
)
from koafusion.diffcore import Tensor, grad_check
from koafusion.evaluation import (
    average_precision,
    paired_permutation_test,
    rank_settings,
    reference_ranking_table,
    roc_auc,
    stratified_bootstrap,
)
from koafusion.imaging import Volume, build_pipeline
from koafusion.interpret import rur_report
from koafusion.models import ArchSpec, ModalityBatch, build_model, forward
from koafusion.provider import CohortProvider
from koafusion.relaxometry import fit_t2_voxel, two_echo_exact
from koafusion.training import TrainConfig, _usable_cpus, predict_scores, train_cv


def _report(number, label, detail):
    print(f"criterion {number} ({label}): PASS - {detail}")


# ---------------------------------------------------------------------------
# 1. relaxometry oracle
# ---------------------------------------------------------------------------


def test_criterion_1_relaxometry_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    te = np.arange(10.0, 71.0, 10.0)
    worst = 0.0
    for _ in range(1000):
        t2 = rng.uniform(5.0, 95.0)
        i0 = rng.uniform(50.0, 5000.0)
        signal = i0 * np.exp(-te / t2)
        i0_hat, t2_hat, rms, valid = fit_t2_voxel(signal, te)
        assert valid
        worst = max(worst, abs(i0_hat - i0) / i0, abs(t2_hat - t2) / t2)
    assert worst < 1e-6

    # two echoes determine the decay in closed form; the iterative fit
    # must land on the same answer
    i0_true, t2_true = 812.5, 37.0
    te2 = np.array([10.0, 40.0])
    s2 = i0_true * np.exp(-te2 / t2_true)
    i0_cf, t2_cf = two_echo_exact(s2[0], s2[1], te2[0], te2[1])
    assert_allclose([i0_cf, t2_cf], [i0_true, t2_true], rtol=1e-12)
    i0_fit, t2_fit, _, valid = fit_t2_voxel(s2, te2)
    assert valid
    assert_allclose([i0_fit, t2_fit], [i0_cf, t2_cf], rtol=1e-12)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, "relaxometry oracle",
            f"max rel err {worst:.2e} over 1000 fits, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient integrity
# ---------------------------------------------------------------------------


def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _smooth_graphs(rng):
    """(name, fn, inputs) triples whose graphs use only smooth ops."""
    graphs = []

    a = _leaf(rng, (3, 4), 0.5, 2.5)
    b = _leaf(rng, (3, 4))
    graphs.append(("arithmetic",
                   lambda a=a, b=b: dc.tensor_sum(a * b + b / a - a + (a + b) * Tensor(0.5)),
                   [a, b]))

    c = _leaf(rng, (2, 5), 0.5, 2.0)
    graphs.append(("exp_log_pow",
                   lambda c=c: dc.tensor_sum(dc.exp(c) + dc.log(c) + c ** 1.7 + c ** 0.0),
                   [c]))

    m1 = _leaf(rng, (3, 4))
    m2 = _leaf(rng, (4, 2))
    b1 = _leaf(rng, (2, 3, 4))
    b2 = _leaf(rng, (2, 4, 2))
    v = _leaf(rng, (4,))
    graphs.append(("matmul",
                   lambda m1=m1, m2=m2, b1=b1, b2=b2, v=v: (
                       dc.tensor_sum(m1 @ m2) + dc.tensor_sum(b1 @ b2)
                       + dc.tensor_sum(m1 @ v)),
                   [m1, m2, b1, b2, v]))

    x = _leaf(rng, (2, 2, 6, 6))
    w = _leaf(rng, (3, 2, 3, 3))
    wb = _leaf(rng, (3,))
    graphs.append(("conv2d_gap",
                   lambda x=x, w=w, wb=wb: dc.tensor_sum(
                       dc.global_average_pool(dc.conv2d(x, w, wb, stride=2, padding=1)) ** 2.0),
                   [x, w, wb]))

    s = _leaf(rng, (3, 5))
    sw = _leaf(rng, (3, 5))
    graphs.append(("softmax_pair",
                   lambda s=s, sw=sw: (dc.tensor_sum(dc.softmax(s) * sw)
                                       + dc.tensor_sum(dc.log_softmax(s) * sw)),
                   [s, sw]))

    ln = _leaf(rng, (4, 6))
    g = _leaf(rng, (6,), 0.5, 1.5)
    gb = _leaf(rng, (6,))
    lw = _leaf(rng, (4, 6))
    graphs.append(("layer_norm",
                   lambda ln=ln, g=g, gb=gb, lw=lw: dc.tensor_sum(dc.layer_norm(ln, g, gb) * lw),
                   [ln, g, gb, lw]))

    r = _leaf(rng, (2, 3, 4))
    graphs.append(("reduce_reshape",
                   lambda r=r: (dc.tensor_sum(dc.tensor_sum(r, axis=1, keepdims=True))
                                + dc.tensor_sum(dc.transpose(dc.reshape(r, (6, 4)), (1, 0)) ** 2.0)
                                + dc.tensor_sum(dc.mean(r, axis=(0, 2)) ** 2.0)),
                   [r]))

    ca = _leaf(rng, (2, 3))
    cb = _leaf(rng, (2, 4))
    graphs.append(("concat",
                   lambda ca=ca, cb=cb: dc.tensor_sum(dc.concat([ca, cb], axis=1) ** 2.0),
                   [ca, cb]))

    table = _leaf(rng, (5, 4))
    idx = np.array([0, 2, 2, 4, 1])
    graphs.append(("embedding",
                   lambda table=table, idx=idx: dc.tensor_sum(dc.embedding(table, idx) ** 2.0),
                   [table]))

    d = _leaf(rng, (4, 6))
    graphs.append(("dropout_fixed_mask",
                   lambda d=d: dc.tensor_sum(
                       dc.dropout(d, 0.4, np.random.default_rng(123), training=True)),
                   [d]))

    return graphs


def test_criterion_2_gradient_integrity():
    t0 = time.monotonic()

    worst_smooth = 0.0
    worst_kinked = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for name, fn, inputs in _smooth_graphs(rng):
            err = grad_check(fn, inputs, eps=1e-4, seed=seed)
            assert err < 1e-6, f"{name} seed {seed}: {err:.3e}"
            worst_smooth = max(worst_smooth, err)

        # relu kinks: keep every coordinate at least 0.1 from the hinge so
        # the eps=1e-4 probes stay on one side
        raw = rng.uniform(-1.0, 1.0, size=(3, 4))
        raw = np.where(np.abs(raw) < 0.1, 0.1 * np.sign(raw) + raw, raw)
        x = Tensor(raw, requires_grad=True)
        w = Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
        err = grad_check(lambda x=x, w=w: dc.tensor_sum(dc.relu(x) * w), [x, w], seed=seed)
        assert err < 1e-4, f"relu seed {seed}: {err:.3e}"
        worst_kinked = max(worst_kinked, err)

    tiny = dict(descriptor_dim=8, trf_layers=1, trf_heads=2,
                encoder_channels=(2, 3), max_slices=8, head_hidden=5)
    kinds = [
        ("XR1", (), 0),
        ("MR1", ("DESS",), 0),
        ("XR1MR1", ("DESS",), 0),
        ("MR2", ("DESS", "TSE"), 0),
        ("XR1MR2", ("DESS", "TSE"), 0),
        ("XR1MR2C1", ("DESS", "TSE"), 4),
    ]
    worst_arch = 0.0
    for kind, protos, cdim in kinds:
        spec = ArchSpec(kind=kind, mri_protocols=protos, clinical_dim=cdim, **tiny)
        for seed in range(10):
            model = build_model(spec, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            shapes = {"XR": (2, 1, 8, 8), "CLIN": (2, cdim)}
            batch = ModalityBatch(inputs={
                mod: rng.normal(size=shapes.get(mod, (2, 2, 8, 8))) for mod in spec.input_modalities()
            })
            names = ["head.fc1.w", "trf0.q.w", "emb.pos"]
            names += sorted(n for n in model.params if ".stage0.conv1.w" in n)[:1]
            picked = [model.params[n] for n in names]

            def fn(*_):
                logits = forward(model, batch, mode="eval")
                return dc.tensor_sum(logits * logits)

            err = grad_check(fn, picked, eps=1e-5, max_coords=3, seed=seed)
            assert err < 1e-4, f"{kind} seed {seed}: {err:.3e}"
            worst_arch = max(worst_arch, err)

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(2, "gradient integrity",
            f"smooth {worst_smooth:.1e}, kinked {worst_kinked:.1e}, "
            f"architectures {worst_arch:.1e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. metric oracles
# ---------------------------------------------------------------------------


def _pairwise_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (pos.size * neg.size)


def _threshold_sweep_ap(scores, labels):
    n_pos = int(labels.sum())
    ap = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores.tolist()), reverse=True):
        sel = scores >= thr
        tp = int(labels[sel].sum())
        precision = tp / int(sel.sum())
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def test_criterion_3_metric_oracles():
    rng = np.random.default_rng(42)
    worst_auc = 0.0
    worst_ap = 0.0
    for i in range(500):
        n = int(rng.integers(2, 31))
        n_pos = int(rng.integers(1, n))
        labels = np.zeros(n, dtype=int)
        labels[:n_pos] = 1
        rng.shuffle(labels)
        scores = rng.normal(size=n)
        if i % 2:
            scores = np.round(scores, 1)  # force ties
        worst_auc = max(worst_auc, abs(roc_auc(scores, labels) - _pairwise_auc(scores, labels)))
        worst_ap = max(worst_ap,
                       abs(average_precision(scores, labels) - _threshold_sweep_ap(scores, labels)))
    assert worst_auc <= 1e-12
    assert worst_ap <= 1e-12

    for n, n_pos in ((4, 1), (7, 3), (30, 9), (13, 13 - 1)):
        labels = np.zeros(n, dtype=int)
        labels[:n_pos] = 1
        rng.shuffle(labels)
        ap = average_precision(np.full(n, 0.25), labels)
        assert ap == float(Fraction(n_pos, n))

    _report(3, "metric oracles",
            f"500 sets: auc dev {worst_auc:.1e}, ap dev {worst_ap:.1e}, "
            "constant-score AP exact")


# ---------------------------------------------------------------------------
# 4. ranking fixture
# ---------------------------------------------------------------------------


def test_criterion_4_ranking_fixture():
    t0 = time.monotonic()
    result = rank_settings(reference_ranking_table())
    elapsed = time.monotonic() - t0
    assert result.winner == "F8"
    assert not result.tied
    assert elapsed < 1.0
    _report(4, "ranking fixture",
            f"winner {result.winner} (total {result.totals['F8']}), {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 5. statistical machinery
# ---------------------------------------------------------------------------


def test_criterion_5_statistical_machinery():
    rng = np.random.default_rng(11)

    worst = 0.0
    for n in (6, 8, 10):
        sa = rng.random(n)
        sb = rng.random(n)
        labels = np.array([0, 1] * (n // 2))
        res = paired_permutation_test(roc_auc, sa, sb, labels)
        assert res.exact and res.n_used == 2 ** n
        delta = roc_auc(sa, labels) - roc_auc(sb, labels)
        hits = 0
        for pattern in product([False, True], repeat=n):
            mask = np.array(pattern)
            pa = np.where(mask, sb, sa)
            pb = np.where(mask, sa, sb)
            if roc_auc(pa, labels) - roc_auc(pb, labels) >= delta:
                hits += 1
        worst = max(worst, abs(res.p_value - hits / 2 ** n), abs(res.delta - delta))
    assert worst <= 1e-12

    scores = rng.random(30)
    labels = np.zeros(30, dtype=int)
    labels[:9] = 1
    rng.shuffle(labels)
    calls = {"n": 0}

    def counting_metric(s, y):
        calls["n"] += 1
        assert y.size == 30 and int(np.sum(y)) == 9
        return float(np.mean(s))

    stratified_bootstrap({"m": counting_metric}, scores, labels, n_boot=1000, seed=5)
    assert calls["n"] >= 1000  # class counts held in every replicate

    s_small = rng.random(10)
    y_small = np.array([0, 1] * 5)
    res = paired_permutation_test(roc_auc, s_small, s_small.copy(), y_small)
    assert res.exact and res.p_value == 1.0
    s_big = rng.random(20)
    y_big = np.array([0, 1] * 10)
    res_big = paired_permutation_test(roc_auc, s_big, s_big.copy(), y_big, n_iter=199)
    assert not res_big.exact and res_big.p_value == 1.0

    _report(5, "statistical machinery",
            f"exact-enumeration dev {worst:.1e}, 1000 stratified replicates, "
            "identical models p=1.0")


# ---------------------------------------------------------------------------
# 6. end-to-end learning sanity
# ---------------------------------------------------------------------------


def _cv_run(effect_size):
    cfg = SynthConfig(n_subjects=200, prevalence=0.15, scale=0.1, seed=0,
                      horizon=24, effect_size=effect_size)
    flags = progressor_flags(cfg)
    records = [synth_subject(cfg, i, bool(flags[i])) for i in range(cfg.n_subjects)]
    dataset = assemble_dataset(records, horizon=cfg.horizon)
    provider = CohortProvider(dataset, ("T2MAP",), scale=cfg.scale)
    split = make_split(dataset, holdout_site="D", k=5)
    spec = ArchSpec(kind="MR1", mri_protocols=("T2MAP",), descriptor_dim=16,
                    trf_layers=1, trf_heads=2, dropout_rate=0.1)
    cv = train_cv(provider, split, spec, TrainConfig(epochs_budget=30, seed=0))
    scores = predict_scores(cv.fold_models(), provider, split.test_ids)
    y_test = dataset.label_array(split.test_ids)
    auc = roc_auc(scores, y_test)
    baseline = lr_fit_cv(dataset, split, "C1")
    baseline_auc = roc_auc(lr_predict(baseline, dataset, split.test_ids), y_test)
    return auc, baseline_auc


def test_criterion_6_learning_sanity():
    t0 = time.monotonic()
    auc, baseline_auc = _cv_run(effect_size=1.0)
    null_auc, _ = _cv_run(effect_size=0.0)
    elapsed = time.monotonic() - t0

    assert auc >= 0.85
    assert auc - baseline_auc >= 0.15
    assert 0.4 <= null_auc <= 0.6
    assert elapsed < 900.0
    _report(6, "learning sanity",
            f"imaging AUC {auc:.3f} vs clinical {baseline_auc:.3f}, "
            f"null AUC {null_auc:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. ablation coherence
# ---------------------------------------------------------------------------


def test_criterion_7_ablation_coherence():
    spec = ArchSpec(kind="MR2", mri_protocols=("DESS", "TSE"), descriptor_dim=8,
                    trf_layers=1, trf_heads=2, encoder_channels=(2, 3),
                    max_slices=8, head_hidden=5)
    model = build_model(spec, seed=6)
    for name, p in model.params.items():
        if name.startswith("enc.TSE."):
            p.data = np.zeros_like(p.data)

    rng = np.random.default_rng(106)
    batch = ModalityBatch(
        inputs={p: rng.normal(size=(5, 2, 16, 16)) for p in spec.mri_protocols},
        means={p: np.zeros((2, 16, 16)) for p in spec.mri_protocols},
    )
    # pick each subject's target as the class whose probability falls when
    # the live branch is masked, so the live drop is strictly positive
    masked = ModalityBatch(inputs=batch.inputs, means=batch.means, masked=frozenset({"DESS"}))
    p1 = dc.softmax(forward(model, batch, mode="eval"), axis=-1).data[:, 1]
    p1m = dc.softmax(forward(model, masked, mode="eval"), axis=-1).data[:, 1]
    assert np.all(p1 != p1m)
    targets = (p1 > p1m).astype(int)

    report = rur_report(model, batch, targets, ("DESS", "TSE"))
    assert np.all(report.per_subject[:, 0] >= 0.99)
    assert_allclose(report.per_subject.sum(axis=1), np.ones(5), rtol=0, atol=1e-9)
    _report(7, "ablation coherence",
            f"live-modality RUR min {report.per_subject[:, 0].min():.4f}, "
            "rows sum to 1")


# ---------------------------------------------------------------------------
# 8. pipeline conformance
# ---------------------------------------------------------------------------


def test_criterion_8_pipeline_conformance():
    rng = np.random.default_rng(7)

    xr = build_pipeline("XR", "eval", 1.0)(phantom_xr(1.0, rng))
    assert xr.data.shape == (350, 350)
    assert_allclose(xr.spacing, (0.390, 0.390), rtol=0, atol=1e-9)

    dess = build_pipeline("DESS", "eval", 1.0)(phantom_dess(1.0, rng))
    assert dess.data.shape == (160, 160, 64)

    tse = build_pipeline("TSE", "eval", 1.0)(phantom_tse(1.0, rng))
    assert tse.data.shape == (160, 160, 32)

    t2_source = Volume(rng.uniform(0.0, 120.0, size=(384, 384, 25)),
                       spacing=(0.3125, 0.3125, 3.0), dtype_bits=64)
    t2_pipe = build_pipeline("T2MAP", "eval", 1.0)
    t2 = t2_pipe(t2_source)
    assert t2.data.shape == (160, 160, 25)
    for mode in ("train", "eval"):
        names = build_pipeline("T2MAP", mode, 1.0).stage_names()
        assert "gamma" not in names
        assert "value_clip" in names

    _report(8, "pipeline conformance",
            "XR 350x350 @ 0.390mm, DESS [160,160,64], TSE [160,160,32], "
            "T2MAP [160,160,25] without gamma")


# ---------------------------------------------------------------------------
# 9. CLI determinism
# ---------------------------------------------------------------------------

_CLI_SEQUENCE = [
    ["synth", "--out", "cohort", "--n", "16", "--prevalence", "0.25",
     "--scale", "0.05", "--seed", "2", "--effect-size", "1.0"],
    ["fit-t2", "--cohort", "cohort/cohort.json", "--out", "t2"],
    ["preprocess", "--cohort", "cohort/cohort.json", "--subject", "S0000",
     "--protocol", "XR", "--mode", "eval", "--scale", "0.05", "--out", "prep"],
    ["train", "--cohort", "t2/cohort.json", "--arch", "MR1",
     "--protocols", "T2MAP", "--scale", "0.05", "--epochs", "2",
     "--descriptor-dim", "16", "--trf-layers", "1", "--trf-heads", "2",
     "--folds", "2", "--seed", "0", "--out", "run"],
    ["eval", "--run", "run", "--cohort", "t2/cohort.json",
     "--bootstrap", "200", "--seed", "0", "--out", "eval_out"],
    ["baseline", "--cohort", "t2/cohort.json", "--variable-set", "C1",
     "--bootstrap", "200", "--folds", "2", "--out", "base"],
    ["ablate", "--run", "run", "--cohort", "t2/cohort.json", "--out", "abl"],
    ["rank", "--out", "rank_out"],
    ["subgroups", "--cohort", "t2/cohort.json",
     "--scores", "24:eval_out/scores.json", "--out", "sub"],
]


def _run_sequence_and_hash(root):
    cwd = os.getcwd()
    os.makedirs(root, exist_ok=True)
    try:
        os.chdir(root)
        for argv in _CLI_SEQUENCE:
            assert cli_main(list(argv)) == 0, argv
    finally:
        os.chdir(cwd)
    digests = {}
    for dirpath, _, filenames in os.walk(root):
        for fname in filenames:
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, root)
            digests[rel] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def cli_sequence(tmp_path_factory):
    """The root the sequence ran in, and the digest of every file it wrote."""
    root = str(tmp_path_factory.mktemp("cli_sequence"))
    return root, _run_sequence_and_hash(root)


def test_criterion_9_cli_determinism(tmp_path, cli_sequence):
    _, first = cli_sequence
    second = _run_sequence_and_hash(str(tmp_path / "run_b"))
    assert first.keys() == second.keys()
    mismatched = [rel for rel in first if first[rel] != second[rel]]
    assert not mismatched, f"non-reproducible outputs: {mismatched}"

    if shutil.which("koafusion"):
        proc = subprocess.run(["koafusion", "rank", "--out", str(tmp_path / "script_out")],
                              capture_output=True, text=True)
    else:
        proc = subprocess.run([sys.executable, "-m", "koafusion.cli", "rank",
                               "--out", str(tmp_path / "script_out")],
                              capture_output=True, text=True)
    assert proc.returncode == 0
    assert "winner F8" in proc.stdout

    _report(9, "cli determinism",
            f"{len(first)} output files byte-identical across double run "
            f"of {len(_CLI_SEQUENCE)} commands")


# An XR1MR2C1 DESS/TSE/C1 run.  At scale 0.1 conv2d's weight-gradient GEMMs are large enough
# for OpenBLAS to split across threads (at 0.05 they are not), so a fold trained at 2 threads
# would change a checkpoint's bits.
_THREADS_SEQUENCE = [
    ["synth", "--out", "cohort", "--n", "16", "--prevalence", "0.25", "--scale", "0.1", "--seed", "2"],
    ["train", "--cohort", "cohort/cohort.json", "--arch", "XR1MR2C1", "--protocols", "DESS,TSE",
     "--clinical-set", "C1", "--scale", "0.1", "--epochs", "1", "--descriptor-dim", "8", "--trf-layers", "1",
     "--trf-heads", "2", "--folds", "2", "--seed", "0", "--out", "run"],
    ["eval", "--run", "run", "--cohort", "cohort/cohort.json", "--bootstrap", "50", "--out", "eval_out"],
]


@pytest.mark.skipif(_usable_cpus() < 2, reason="with one usable CPU the folds train inline, at the caller's "
                                               "BLAS thread count")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The chain writes the same bytes at OPENBLAS_NUM_THREADS=1 and 2: the folds train in
    workers that run OpenBLAS on one thread, and scoring's GEMMs do not split by thread count."""
    src = str(Path(koafusion.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        root = tmp_path / f"threads_{threads}"
        root.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv in _THREADS_SEQUENCE:
            proc = subprocess.run([sys.executable, "-m", "koafusion", *argv], cwd=root, env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        digests.append({str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(root.rglob("*")) if p.is_file()})
    assert len(digests[0]) > 30 and digests[0] == digests[1]


def test_cli_sequence_reruns_in_place(cli_sequence):
    """Rerun in the root it wrote, the sequence rewrites every file byte for byte: each
    report command replaces its own --out, and no .NAME.partial or .NAME.old entry is left."""
    root, first = cli_sequence
    assert _run_sequence_and_hash(root) == first
    leftovers = [name for _, dirs, files in os.walk(root) for name in dirs + files
                 if name.startswith(".") and name.endswith((".partial", ".old"))]
    assert not leftovers
