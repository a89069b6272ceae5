"""
End-to-end training on a synthetic cohort
=========================================

Generates a small synthetic knee cohort whose progression label is encoded in
the cartilage-ring T2 time, trains a single-MRI transformer-fusion model with
site-held-out cross-validation, and compares it against a clinical logistic
baseline that cannot see the imaging signal.

Runs in about a minute on a laptop CPU.
"""

import numpy as np

from koafusion.baselines import lr_fit_cv, lr_predict
from koafusion.cohort import (
    SynthConfig,
    assemble_dataset,
    make_split,
    progressor_flags,
    synth_subject,
)
from koafusion.evaluation import average_precision, roc_auc
from koafusion.models import ArchSpec
from koafusion.provider import CohortProvider
from koafusion.training import TrainConfig, train_cv

# a 60-subject cohort at 10% of full resolution; progressors carry a lower
# ring T2, controls do not
cfg = SynthConfig(n_subjects=60, prevalence=0.2, scale=0.1, seed=1,
                  horizon=24, effect_size=1.0)
flags = progressor_flags(cfg)
records = [synth_subject(cfg, i, bool(flags[i])) for i in range(cfg.n_subjects)]
dataset = assemble_dataset(records, horizon=cfg.horizon)
print(f"cohort: {len(dataset.ids)} subjects, {int(flags.sum())} progressors")

# hold out one acquisition site entirely, stratify the rest into folds
split = make_split(dataset, holdout_site="D", k=3)
print(f"split: {len(split.test_ids)} held-out subjects, {len(split.folds)} folds")

# the provider fits T2 maps from the multi-echo stacks on demand and runs
# the protocol preprocessing chains
provider = CohortProvider(dataset, ("T2MAP",), scale=cfg.scale)

spec = ArchSpec(kind="MR1", mri_protocols=("T2MAP",), descriptor_dim=16,
                trf_layers=1, trf_heads=2, dropout_rate=0.1)
config = TrainConfig(epochs_budget=25, seed=0)
cv = train_cv(provider, split, spec, config)
for i, fold in enumerate(cv.folds):
    print(f"fold {i}: best val AP {fold.best_val_ap:.3f} "
          f"at epoch {fold.best_epoch}")

# ensemble the per-fold snapshots on the held-out site; each fold model
# scores with the clinical standardisation of its own training fold
scores = cv.ensemble().scores(provider, split.test_ids)
y = dataset.label_array(split.test_ids)
print(f"held-out imaging model: AUC {roc_auc(scores, y):.3f}, "
      f"AP {average_precision(scores, y):.3f}")

# the clinical baseline sees age, sex, BMI -- none of which carry signal in
# this synthetic cohort
baseline = lr_fit_cv(dataset, split, "C1")
base_scores = lr_predict(baseline, dataset, split.test_ids)
print(f"clinical baseline:      AUC {roc_auc(base_scores, y):.3f}, "
      f"AP {average_precision(base_scores, y):.3f} "
      f"(weighting={baseline.weighting})")
