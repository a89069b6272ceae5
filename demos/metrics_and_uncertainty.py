"""
Ranking metrics, bootstrap intervals, and paired permutation tests
==================================================================

Classifier scores are compared with rank-based ROC AUC and non-interpolated
average precision, uncertainty comes from a class-stratified bootstrap, and
model-vs-model differences get a paired score-swap permutation test.
"""

import numpy as np

from koafusion.evaluation import (
    average_precision,
    calibrated_ap,
    paired_permutation_test,
    roc_auc,
    stratified_bootstrap,
)

rng = np.random.default_rng(9)

# a synthetic screening problem: 200 subjects, 15% positives, and a model
# whose scores separate the classes imperfectly
n = 200
labels = (rng.random(n) < 0.15).astype(int)
scores = rng.normal(0.0, 1.0, size=n) + 1.4 * labels

auc = roc_auc(scores, labels)
ap = average_precision(scores, labels)
print(f"model A: AUC {auc:.3f}, AP {ap:.3f} at prevalence {labels.mean():.3f}")

# average precision depends on prevalence; calibrated AP reports what the
# same ROC behavior would yield at a chosen target prevalence
for target in (0.05, labels.mean(), 0.5):
    cap = calibrated_ap(scores, labels, target)
    print(f"  calibrated AP at prevalence {target:.3f}: {cap:.3f}")

# stratified bootstrap: classes are resampled separately so every replicate
# keeps the observed class balance; each resample is drawn once and scored
# for every metric in the mapping
boot = stratified_bootstrap({"AUC": roc_auc, "AP": average_precision}, scores, labels, n_boot=1000, seed=0)
for name, est in boot.estimates.items():
    print(f"bootstrap ({boot.n_boot} resamples): {name} {est.point:.3f}, "
          f"boot mean {est.boot_mean:.3f}, se {est.boot_se:.3f}")

# a second, slightly weaker model on the same subjects
scores_b = scores * 0.5 + rng.normal(0.0, 1.0, size=n)
auc_b = roc_auc(scores_b, labels)
res = paired_permutation_test(roc_auc, scores, scores_b, labels,
                              n_iter=2000, seed=1)
print(f"model B: AUC {auc_b:.3f}; paired test delta {res.delta:.3f}, "
      f"p {res.p_value:.4f} ({'exact' if res.exact else 'sampled'})")

# swapping a model against itself is never significant
null = paired_permutation_test(roc_auc, scores, scores.copy(), labels)
print(f"A vs A: delta {null.delta:.1f}, p {null.p_value:.2f}")
