"""
Rank aggregation across settings and modality-usage ablation
============================================================

Two independent analysis tools: average-rank aggregation that picks the best
fusion setting across metrics and horizons, and relative usage ratios (RUR)
that quantify how much a trained multi-modal model leans on each input.
"""

import numpy as np

from koafusion import diffcore as dc
from koafusion.evaluation import RankingTable, rank_settings, reference_ranking_table
from koafusion.interpret import rur_report
from koafusion.models import ArchSpec, ModalityBatch, build_model, forward

# rank aggregation: each setting is ranked per (metric, horizon) cell, best
# first; the lowest total rank wins
table = reference_ranking_table()
result = rank_settings(table)
print(f"reference table: winner {result.winner}, tied {result.tied}")
for setting in sorted(result.totals, key=result.totals.get)[:4]:
    print(f"  {setting}: total rank {result.totals[setting]}")

# the same machinery works on any table: values[setting][metric] is a list
# over horizons, higher is better
custom = RankingTable(
    settings=("plain", "wide", "deep"),
    metrics=("auc", "ap"),
    horizons=(12, 24),
    values={
        "plain": {"auc": [0.71, 0.69], "ap": [0.40, 0.38]},
        "wide": {"auc": [0.74, 0.72], "ap": [0.45, 0.41]},
        "deep": {"auc": [0.73, 0.72], "ap": [0.44, 0.43]},
    },
)
print(f"custom table: winner {rank_settings(custom).winner}\n")

# ablation: a two-MRI fusion model whose TSE branch is zeroed out should
# attribute essentially all usage to the live DESS branch
spec = ArchSpec(kind="MR2", mri_protocols=("DESS", "TSE"), descriptor_dim=8,
                trf_layers=1, trf_heads=2)
model = build_model(spec, seed=6)
for name, p in model.params.items():
    if name.startswith("enc.TSE."):
        p.data = np.zeros_like(p.data)

rng = np.random.default_rng(106)
batch = ModalityBatch(
    inputs={p: rng.normal(size=(5, 2, 16, 16)) for p in spec.mri_protocols},
    means={p: np.zeros((2, 16, 16)) for p in spec.mri_protocols},
)

# targets: per subject, the class whose probability falls when the live
# modality is masked, so its ablation drop is positive
masked = ModalityBatch(inputs=batch.inputs, means=batch.means, masked=frozenset({"DESS"}))
p1 = dc.softmax(forward(model, batch, mode="eval"), axis=-1).data[:, 1]
p1m = dc.softmax(forward(model, masked, mode="eval"), axis=-1).data[:, 1]
targets = (p1 > p1m).astype(int)

report = rur_report(model, batch, targets, ("DESS", "TSE"))
print("modality ablation with a dead TSE branch:")
for mod, mean_rur in zip(report.modalities, report.mean):
    print(f"  {mod}: mean RUR {mean_rur:.3f}")
print(f"  per-subject rows sum to {report.per_subject.sum(axis=1)}")
