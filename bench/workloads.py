"""The three benchmark workloads.

Each workload builds its inputs from the cohort seed in ``setup`` and then
runs timed passes as a closed loop with one client: every call into the
program starts when the previous one has returned.  A pass returns its wall
time, the time of each phase, the operations it attempted and how many
raised (or, for CLI commands, exited non-zero), and the outputs that
``check`` validates and ``same`` compares across passes.

Calls go through module attributes (``training.train_cv``, ``cli.main``) so
that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from koafusion import baselines, cli, cohort, evaluation, store, training
from koafusion.cohort import SynthConfig, clinical_dim
from koafusion.models import ArchSpec
from koafusion.provider import CohortProvider

HORIZON = 24
FOLDS = 5
# Narrow model shared by every workload: D=16, one transformer layer, 2 heads.
MODEL = dict(descriptor_dim=16, trf_layers=1, trf_heads=2, dropout_rate=0.1)
# fusion_train and cli_eval: n=80 at prevalence 0.3, split 14 + 6 held out
# and 42 + 18 for development, so site D always holds progressors and every
# AUC and bootstrap is defined.  Their images carry no label signal.
PREVALENCE = 0.3
COHORT_80 = ((14, 6), (42, 18))


class Pass:
    def __init__(self):
        self.run_s = 0.0
        self.cpu_s = 0.0
        self.phases = {}
        self.attempted = 0
        self.failed = 0
        self.outputs = {}

    @contextlib.contextmanager
    def op(self, phase, count=1):
        """Time one phase; an exception fails its ``count`` operations and ends the pass."""
        self.attempted += count
        t0 = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += count
            traceback.print_exc(file=sys.stderr)
            raise _PassAborted from None
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - t0


class _PassAborted(Exception):
    pass


def timed_pass(body) -> Pass:
    result = Pass()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        body(result)
    except _PassAborted:
        pass
    result.run_s = time.perf_counter() - t0
    result.cpu_s = time.process_time() - c0
    return result


def synth_fixed(seed, scale, prevalence, test, dev) -> list:
    """Synthesise subjects in index order, keeping each until its cell is full.

    ``test`` and ``dev`` give (controls, progressors) for held-out site D and
    for the other sites.  Each subject is reproducible from (seed, index)
    alone, so the seed fixes the cohort, while the fixed counts keep the
    amount of work, and the number of held-out progressors an AUC rests on,
    the same for every seed.  ``prevalence`` only sets how often the pool
    draws progressors.
    """
    need = {(True, 0): test[0], (True, 1): test[1], (False, 0): dev[0], (False, 1): dev[1]}
    pool = 4 * sum(need.values())
    config = SynthConfig(n_subjects=pool, prevalence=prevalence, scale=scale, seed=seed, horizon=HORIZON)
    flags = cohort.progressor_flags(config)
    records = []
    for idx in range(pool):
        rec = cohort.synth_subject(config, idx, bool(flags[idx]))
        status = cohort.derive_label(rec, HORIZON).status
        cell = (rec.site == "D", int(status == "progressor"))
        if status != "excluded" and need[cell]:
            need[cell] -= 1
            records.append(rec)
            if not any(need.values()):
                return records
    raise RuntimeError(f"seed {seed}: {pool} synthesised subjects leave cells unfilled: {need}")


def _dataset_and_split(records):
    dataset = cohort.assemble_dataset(records, HORIZON)
    return dataset, cohort.make_split(dataset, holdout_site="D", k=FOLDS, seed=0)


def _ensemble_scores(cv, provider, split):
    """Held-out class-1 probability averaged over the fold models, each with its own fold's clinical stats."""
    acc = np.zeros(len(split.test_ids))
    for model, (train_ids, _) in zip(cv.fold_models(), split.folds):
        stats = provider.clinical_stats(train_ids)
        acc += training.predict_scores(model, provider, split.test_ids, clinical_stats=stats)
    return acc / len(split.folds)


class T2Study:
    """The paper's T2 arm: MR1 on T2 maps fitted lazily from multi-echo stacks."""

    name = "t2_study"
    # n=120: 77 + 13 development subjects (prevalence 0.14) and 22 + 8 held
    # out, so the AUC gates rest on 8 progressors rather than a chance 1 to 9.
    scale, epochs, test, dev = 0.06, 5, (22, 8), (77, 13)
    pool_prevalence = 0.2  # fills the progressor cells sooner; the counts above fix the cohort
    # A higher peak learning rate with a one-epoch warm-up lets 5 epochs learn
    # what the default schedule needs about 30 for.
    train_config = dict(lr_start=1e-4, lr_peak=1e-3, warmup_epochs=1)
    min_auc, min_margin = 0.85, 0.15
    bypassed = ()

    def setup(self, seed, workdir):
        return _dataset_and_split(synth_fixed(seed, self.scale, self.pool_prevalence, self.test, self.dev))

    def run(self, state) -> Pass:
        dataset, split = state
        spec = ArchSpec(kind="MR1", mri_protocols=("T2MAP",), **MODEL)
        config = training.TrainConfig(epochs_budget=self.epochs, seed=0, **self.train_config)

        def body(p):
            provider = CohortProvider(dataset, ("T2MAP",), scale=self.scale)
            with p.op("train_s", FOLDS):
                cv = training.train_cv(provider, split, spec, config)
            labels = dataset.label_array(split.test_ids)
            with p.op("score_s"):
                scores = training.predict_scores(cv.fold_models(), provider, split.test_ids)
                auc = evaluation.roc_auc(scores, labels)
            with p.op("lr_baseline_s"):
                base = baselines.lr_fit_cv(dataset, split, "C1")
                base_scores = baselines.lr_predict(base, dataset, split.test_ids)
                base_auc = evaluation.roc_auc(base_scores, labels)
            p.outputs = {"scores": scores, "baseline_scores": base_scores,
                         "heldout_auc": auc, "baseline_auc": base_auc}

        return timed_pass(body)

    def check(self, p: Pass) -> list:
        o = p.outputs
        if "heldout_auc" not in o:
            return ["pass did not finish"]
        errors = []
        if not o["heldout_auc"] >= self.min_auc:
            errors.append(f"held-out AUC {o['heldout_auc']:.3f} < {self.min_auc}")
        if not o["heldout_auc"] - o["baseline_auc"] >= self.min_margin:
            errors.append(f"held-out AUC {o['heldout_auc']:.3f} is not {self.min_margin} above "
                          f"the C1 baseline {o['baseline_auc']:.3f}")
        return errors

    def same(self, a: Pass, b: Pass) -> bool:
        return all(np.array_equal(a.outputs[k], b.outputs[k]) for k in ("scores", "baseline_scores"))


class FusionTrain:
    """XR1MR2C1 fusion training on DESS, TSE and C1: no T2 fitting at all."""

    name = "fusion_train"
    scale, epochs, batch_size = 0.1, 1, 16
    bypassed = ("relaxometry.fit_calls",)

    def setup(self, seed, workdir):
        return _dataset_and_split(synth_fixed(seed, self.scale, PREVALENCE, *COHORT_80))

    def run(self, state) -> Pass:
        dataset, split = state
        spec = ArchSpec(kind="XR1MR2C1", mri_protocols=("DESS", "TSE"), clinical_dim=clinical_dim("C1"), **MODEL)
        config = training.TrainConfig(epochs_budget=self.epochs, seed=0, batch_size=self.batch_size)

        def body(p):
            provider = CohortProvider(dataset, ("XR", "DESS", "TSE"), scale=self.scale, clinical_variable_set="C1")
            with p.op("train_s", FOLDS):
                cv = training.train_cv(provider, split, spec, config)
            with p.op("score_s", FOLDS):
                scores = _ensemble_scores(cv, provider, split)
                auc = evaluation.roc_auc(scores, dataset.label_array(split.test_ids))
            p.outputs = {"scores": scores, "histories": [f.history for f in cv.folds], "heldout_auc": auc}

        return timed_pass(body)

    def check(self, p: Pass) -> list:
        o = p.outputs
        if "scores" not in o:
            return ["pass did not finish"]
        errors = []
        for i, history in enumerate(o["histories"]):
            if len(history) != self.epochs:
                errors.append(f"fold {i} history has {len(history)} epochs, expected {self.epochs}")
            if not all(np.isfinite(h["train_loss"]) for h in history):
                errors.append(f"fold {i} has a non-finite training loss")
        s = o["scores"]
        if not (np.all(np.isfinite(s)) and np.all((s >= 0.0) & (s <= 1.0))):
            errors.append("held-out scores outside [0, 1]")
        return errors

    def same(self, a: Pass, b: Pass) -> bool:
        return np.array_equal(a.outputs["scores"], b.outputs["scores"])


class CliEval:
    """Inference and reporting through ``cli.main`` on a trained run directory."""

    name = "cli_eval"
    scale = 0.1
    bypassed = ("relaxometry.fit_calls", "diffcore.backward.calls", "imaging.rotate_inplane.busy_s")
    bootstrap = "1000"
    winner = "F8"

    def setup(self, seed, workdir):
        workdir = Path(workdir)
        if workdir.exists():
            shutil.rmtree(workdir)
        cohort_dir, run_dir = workdir / "cohort", workdir / "run"
        # store.save_cohort is what `koafusion synth` writes with; calling it
        # directly lets the cohort have the fixed counts of fusion_train.
        store.save_cohort(synth_fixed(seed, self.scale, PREVALENCE, *COHORT_80), cohort_dir)
        code, log = _run_cli(
            ["train", "--cohort", str(cohort_dir / "cohort.json"), "--arch", "XR1MR2C1",
             "--protocols", "DESS,TSE", "--clinical-set", "C1", "--scale", str(self.scale), "--epochs", "1",
             "--descriptor-dim", "16", "--trf-layers", "1", "--trf-heads", "2", "--folds", str(FOLDS),
             "--seed", "0", "--out", str(run_dir)])
        if code != 0:
            raise RuntimeError(f"set-up train exited {code}: {log}")
        return workdir

    def run(self, workdir) -> Pass:
        manifest = str(workdir / "cohort" / "cohort.json")
        run, out = str(workdir / "run"), workdir / "out"
        commands = [
            ("eval_s", ["eval", "--run", run, "--cohort", manifest, "--bootstrap", self.bootstrap,
                        "--out", str(out / "eval")]),
            ("ablate_s", ["ablate", "--run", run, "--cohort", manifest, "--out", str(out / "ablate")]),
            ("baseline_s", ["baseline", "--cohort", manifest, "--variable-set", "C4",
                            "--bootstrap", self.bootstrap, "--out", str(out / "baseline")]),
            ("subgroups_s", ["subgroups", "--cohort", manifest,
                             "--scores", f"{HORIZON}:{out / 'eval' / 'scores.json'}", "--out", str(out / "subgroups")]),
            ("rank_s", ["rank", "--out", str(out / "rank")]),
        ]
        if out.exists():
            shutil.rmtree(out)

        def body(p):
            for phase, argv in commands:
                with p.op(phase):
                    code, log = _run_cli(argv)
                    if code != 0:
                        raise RuntimeError(f"{argv[0]} exited {code}: {log}")
            p.outputs = {"files": {str(f.relative_to(out)): f.read_bytes()
                                   for f in sorted(out.rglob("*")) if f.is_file()}}
            scores = json.loads(p.outputs["files"]["eval/scores.json"])
            p.outputs["heldout_auc"] = evaluation.roc_auc(np.array(scores["scores"]), np.array(scores["labels"]))

        return timed_pass(body)

    def check(self, p: Pass) -> list:
        files = p.outputs.get("files")
        if files is None:
            return ["a command failed"]
        errors = []
        scores = json.loads(files["eval/scores.json"])
        s, y = np.array(scores["scores"]), np.array(scores["labels"])
        metrics = json.loads(files["eval/metrics.json"])["metrics"]
        for name, fn in (("roc_auc", evaluation.roc_auc), ("average_precision", evaluation.average_precision)):
            if metrics[name]["point"] != fn(s, y):
                errors.append(f"eval {name} {metrics[name]['point']} differs from its value recomputed from scores.json")
        rur = json.loads(files["ablate/ablate_report.json"])["per_subject_rur"]
        if not np.allclose(np.sum(rur, axis=1), 1.0, rtol=0.0, atol=1e-9):
            errors.append("a row of the RUR table does not sum to 1")
        winner = json.loads(files["rank/rank_report.json"])["winner"]
        if winner != self.winner:
            errors.append(f"rank winner {winner}, expected {self.winner}")
        return errors

    def same(self, a: Pass, b: Pass) -> bool:
        return a.outputs["files"] == b.outputs["files"]


def _run_cli(argv):
    """Run one command in-process; returns (exit code, captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue().strip()


WORKLOADS = {w.name: w for w in (T2Study, FusionTrain, CliEval)}
