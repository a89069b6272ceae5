"""Multimodal knee-imaging toolkit: preprocessing, T2 relaxometry, fusion
models with a self-contained autodiff core, and imbalance-aware evaluation.
"""

from .cohort import (
    Dataset,
    ProgressionLabel,
    SplitPlan,
    SubjectRecord,
    SynthConfig,
    assemble_dataset,
    derive_label,
    encode_clinical,
    make_split,
    pool_klg,
    synth_cohort,
)
from .diffcore import Tensor, grad_check
from .errors import ContractViolation, NonFiniteValue, UndefinedMetric
from .evaluation import (
    Bootstrap,
    MetricEstimate,
    RankingTable,
    average_precision,
    calibrated_ap,
    paired_permutation_test,
    rank_settings,
    reference_ranking_table,
    roc_auc,
    stratified_bootstrap,
    subgroup_report,
)
from .imaging import Pipeline, Volume, build_pipeline
from .interpret import RurReport, compute_rur, modality_drops, rur_report
from .models import ArchSpec, ModalityBatch, Model, build_model, forward
from .provider import CohortProvider
from .relaxometry import MultiEchoVolume, ParameterMap, fit_t2_batch, fit_t2_volume, fit_t2_voxel
from .training import Ensemble, TrainConfig, focal_loss, train_cv
from .vol1 import read_vol1, write_vol1

__version__ = "1.0.0"

__all__ = [
    "ArchSpec",
    "Bootstrap",
    "CohortProvider",
    "ContractViolation",
    "Dataset",
    "Ensemble",
    "MetricEstimate",
    "ModalityBatch",
    "Model",
    "MultiEchoVolume",
    "NonFiniteValue",
    "ParameterMap",
    "Pipeline",
    "ProgressionLabel",
    "RankingTable",
    "RurReport",
    "SplitPlan",
    "SubjectRecord",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "UndefinedMetric",
    "Volume",
    "assemble_dataset",
    "average_precision",
    "build_model",
    "build_pipeline",
    "calibrated_ap",
    "compute_rur",
    "derive_label",
    "encode_clinical",
    "fit_t2_batch",
    "fit_t2_volume",
    "fit_t2_voxel",
    "focal_loss",
    "forward",
    "grad_check",
    "make_split",
    "modality_drops",
    "paired_permutation_test",
    "pool_klg",
    "rank_settings",
    "read_vol1",
    "reference_ranking_table",
    "roc_auc",
    "rur_report",
    "stratified_bootstrap",
    "subgroup_report",
    "synth_cohort",
    "train_cv",
    "write_vol1",
]
