"""Cohort semantics: progression labels, splits, clinical encoding, synthesis.

Grades use the pooled scale where radiographic grades 0 and 1 collapse to a
single class.  A subject progresses over a horizon when any follow-up visit
at or before that horizon strictly increases the pooled grade relative to
baseline.  Subjects whose pooled grade decreases are excluded (except at the
longest horizon, where late-stage reading noise dominates), as are subjects
with no reading at exactly the horizon month and no earlier progression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .imaging import Volume, scaled_dim
from .relaxometry import MultiEchoVolume

VISIT_SCHEDULE = (0, 12, 24, 36, 48, 96)
HORIZONS = VISIT_SCHEDULE[1:]
SITES = ("A", "B", "C", "D")
KLG_POOL = {0: 1, 1: 1, 2: 2, 3: 3, 4: 4}
POOLED_LEVELS = (1, 2, 3, 4)

VARIABLE_SETS = {
    "C1": ("age", "sex", "bmi"),
    "C2": ("age", "sex", "bmi", "prior_injury", "prior_surgery"),
    "C3": ("age", "sex", "bmi", "prior_injury", "prior_surgery", "womac"),
    "C4": ("age", "sex", "bmi", "prior_injury", "prior_surgery", "womac", "klg"),
}


@dataclass
class SubjectRecord:
    subject_id: str
    age: float
    sex: str
    bmi: float
    womac_total: float
    prior_injury: bool
    prior_surgery: bool
    site: str
    klg_by_visit: dict
    image_refs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.subject_id:
            raise ContractViolation("subject_id must be non-empty")
        if self.sex not in ("F", "M"):
            raise ContractViolation(f"sex must be 'F' or 'M', got {self.sex!r}")
        if not (0.0 <= self.womac_total <= 96.0):
            raise ContractViolation("womac_total must lie in [0, 96]")
        if not (self.age > 0 and math.isfinite(self.age)):
            raise ContractViolation("age must be positive and finite")
        if not (self.bmi > 0 and math.isfinite(self.bmi)):
            raise ContractViolation("bmi must be positive and finite")
        if not self.site:
            raise ContractViolation("site must be non-empty")
        if 0 not in self.klg_by_visit:
            raise ContractViolation("baseline (month 0) grade is required")
        for month, grade in self.klg_by_visit.items():
            if month < 0 or int(month) != month:
                raise ContractViolation("visit months must be non-negative integers")
            if grade not in KLG_POOL:
                raise ContractViolation(f"grade {grade} outside 0..4")


@dataclass
class ProgressionLabel:
    horizon: int
    status: str  # control | progressor | excluded
    reason: str | None = None


def pool_klg(grade: int) -> int:
    if grade not in KLG_POOL:
        raise ContractViolation(f"grade {grade} outside 0..4")
    return KLG_POOL[grade]


def derive_label(record: SubjectRecord, horizon: int) -> ProgressionLabel:
    """Classify a subject as control, progressor, or excluded for a horizon."""
    if horizon not in HORIZONS:
        raise ContractViolation(f"horizon must be one of {HORIZONS}")
    base = pool_klg(record.klg_by_visit[0])
    visits = sorted(
        (m, g) for m, g in record.klg_by_visit.items() if 0 < m <= horizon
    )
    if horizon != max(HORIZONS):
        for _, grade in visits:
            if pool_klg(grade) < base:
                return ProgressionLabel(horizon, "excluded", "klg_decrease")
    for _, grade in visits:
        if pool_klg(grade) > base:
            return ProgressionLabel(horizon, "progressor")
    if horizon not in record.klg_by_visit:
        return ProgressionLabel(horizon, "excluded", "missing_followup")
    return ProgressionLabel(horizon, "control")


@dataclass
class Dataset:
    """Labelled cohort for one horizon; excluded subjects are dropped."""

    records: dict
    ids: list
    labels: dict
    horizon: int
    excluded: dict

    @property
    def prevalence(self) -> float:
        return float(np.mean([self.labels[i] for i in self.ids]))

    def label_array(self, ids=None) -> np.ndarray:
        ids = self.ids if ids is None else ids
        return np.array([self.labels[i] for i in ids], dtype=np.int64)


def assemble_dataset(records, horizon: int) -> Dataset:
    by_id, labels, excluded = {}, {}, {}
    for rec in records:
        if rec.subject_id in by_id:
            raise ContractViolation(f"duplicate subject id {rec.subject_id}")
        lab = derive_label(rec, horizon)
        by_id[rec.subject_id] = rec
        if lab.status == "excluded":
            excluded[rec.subject_id] = lab.reason
        else:
            labels[rec.subject_id] = 1 if lab.status == "progressor" else 0
    ids = sorted(labels)
    if not ids:
        raise ContractViolation("no subjects remain after exclusions")
    kept = {i: by_id[i] for i in ids}
    return Dataset(kept, ids, labels, horizon, excluded)


@dataclass
class SplitPlan:
    test_ids: list
    folds: list  # [(train_ids, val_ids), ...]


def make_split(dataset: Dataset, holdout_site: str = "D", k: int = 5, seed: int = 0) -> SplitPlan:
    """Hold out one acquisition site, stratify the rest into k CV folds.

    Per class, subject order is shuffled once and dealt round-robin into the
    k validation buckets, so per-class validation counts differ by at most
    one across folds.
    """
    if k < 2:
        raise ContractViolation("need at least 2 folds")
    test_ids = [i for i in dataset.ids if dataset.records[i].site == holdout_site]
    dev_ids = [i for i in dataset.ids if dataset.records[i].site != holdout_site]
    if len(dev_ids) < k:
        raise ContractViolation("not enough development subjects for the fold count")
    rng = np.random.default_rng(seed)
    buckets = [[] for _ in range(k)]
    for cls in (0, 1):
        members = [i for i in dev_ids if dataset.labels[i] == cls]
        order = rng.permutation(len(members))
        for pos, j in enumerate(order):
            buckets[pos % k].append(members[j])
    folds = []
    for fold in range(k):
        val = sorted(buckets[fold])
        train = sorted(set(dev_ids) - set(val))
        folds.append((train, val))
    return SplitPlan(sorted(test_ids), folds)


# One row per clinical variable, in column order: (name in VARIABLE_SETS, the
# record value it encodes, levels).  A variable without levels is one z-scored
# column; one with levels is a 0/1 column per level.
_CLINICAL_VARIABLES = (
    ("age", lambda r: r.age, None),
    ("bmi", lambda r: r.bmi, None),
    ("womac", lambda r: r.womac_total, None),
    ("sex", lambda r: r.sex, ("F", "M")),
    ("prior_injury", lambda r: r.prior_injury, (False, True)),
    ("prior_surgery", lambda r: r.prior_surgery, (False, True)),
    ("klg", lambda r: pool_klg(r.klg_by_visit[0]), POOLED_LEVELS),
)


def _clinical_variables(variable_set: str) -> list:
    if variable_set not in VARIABLE_SETS:
        raise ContractViolation(f"unknown variable set {variable_set!r}")
    return [row for row in _CLINICAL_VARIABLES if row[0] in VARIABLE_SETS[variable_set]]


def encode_clinical(dataset: Dataset, ids, variable_set: str, train_stats=None):
    """Encode the variables of ``variable_set`` in ``_CLINICAL_VARIABLES`` order:
    z-scored continuous, one-hot categorical.

    ``train_stats`` maps each continuous variable to its (mean, sd); pass None
    to fit them on ``ids`` (training) and reuse the returned dict elsewhere.
    """
    rows = _clinical_variables(variable_set)
    recs = [dataset.records[i] for i in ids]
    fit = train_stats is None
    stats = {} if fit else train_stats
    cols = []
    for name, value, levels in rows:
        vals = [value(r) for r in recs]
        if levels is not None:
            cols.extend(np.array([1.0 if v == level else 0.0 for v in vals]) for level in levels)
            continue
        arr = np.asarray(vals, dtype=np.float64)
        if fit:
            sd = float(arr.std())
            stats[name] = (float(arr.mean()), sd if sd > 0 else 1.0)
        elif name not in stats:
            raise ContractViolation(f"train stats missing variable {name!r}")
        mean, sd = stats[name]
        cols.append((arr - mean) / sd)
    return np.stack(cols, axis=1), stats


def clinical_dim(variable_set: str) -> int:
    """The number of columns ``encode_clinical`` gives for ``variable_set``."""
    return sum(1 if levels is None else len(levels) for _, _, levels in _clinical_variables(variable_set))


# ---------------------------------------------------------------------------
# Synthetic cohort with geometric image phantoms
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    n_subjects: int = 40
    prevalence: float = 0.15
    scale: float = 1.0
    seed: int = 0
    horizon: int = 24
    effect_size: float = 1.0

    def __post_init__(self):
        if self.n_subjects < 2:
            raise ContractViolation("need at least 2 subjects")
        if not (0.0 < self.prevalence < 1.0):
            raise ContractViolation("prevalence must lie strictly in (0, 1)")
        if not (0.0 < self.scale <= 1.0):
            raise ContractViolation("scale must lie in (0, 1]")
        if self.horizon not in HORIZONS:
            raise ContractViolation(f"horizon must be one of {HORIZONS}")
        if not math.isfinite(self.effect_size):
            raise ContractViolation(f"effect_size must be finite, got {self.effect_size}")


def _ellipse(n_r, n_c, center, radii):
    rr, cc = np.meshgrid(np.arange(n_r), np.arange(n_c), indexing="ij")
    return ((rr - center[0]) / radii[0]) ** 2 + ((cc - center[1]) / radii[1]) ** 2 <= 1.0


def _shell_masks(n, rng):
    """Outer/ring/core region masks with per-subject geometric jitter."""
    cr = (n - 1) / 2.0 + rng.uniform(-0.02, 0.02) * n
    cc = (n - 1) / 2.0 + rng.uniform(-0.02, 0.02) * n
    a = n * rng.uniform(0.40, 0.44)
    b = n * rng.uniform(0.34, 0.38)
    outer = _ellipse(n, n, (cr, cc), (a, b))
    mid = _ellipse(n, n, (cr, cc), (a * 0.72, b * 0.72))
    core = _ellipse(n, n, (cr, cc), (a * 0.45, b * 0.45))
    return outer & ~mid, mid & ~core, core


def phantom_multi_echo(scale, rng, t2_ring):
    """Noiseless multi-echo stack whose middle shell decays with ``t2_ring``."""
    n = scaled_dim(384, scale)
    z = scaled_dim(27, scale)
    te = np.arange(10.0, 71.0, 10.0)
    muscle, ring, core = _shell_masks(n, rng)
    t2 = np.zeros((n, n))
    i0 = np.zeros((n, n))
    t2[muscle], i0[muscle] = rng.uniform(28.0, 32.0), rng.uniform(500.0, 700.0)
    t2[ring], i0[ring] = t2_ring, rng.uniform(700.0, 900.0)
    t2[core], i0[core] = rng.uniform(12.0, 18.0), rng.uniform(300.0, 500.0)
    data = np.zeros((n, n, z, te.size))
    fg = t2 > 0
    decay = np.exp(-te[None, :] / t2[fg][:, None]) * i0[fg][:, None]
    for k in range(z):
        taper = 1.0 - 0.05 * abs(k - (z - 1) / 2.0) / max(1.0, (z - 1) / 2.0)
        plane = np.zeros((n, n, te.size))
        plane[fg] = decay * taper
        data[:, :, k, :] = plane
    return MultiEchoVolume(data, te, spacing=(0.3125, 0.3125, 3.0))


def _integer_blob(n, z, rng, peak, bits):
    muscle, ring, core = _shell_masks(n, rng)
    img = np.zeros((n, n))
    img[muscle] = peak * 0.45
    img[ring] = peak * 0.85
    img[core] = peak * 0.3
    vol = np.repeat(img[:, :, None], z, axis=2)
    vol += rng.normal(0.0, peak * 0.02, size=vol.shape) * (vol > 0)
    return np.clip(np.rint(vol), 0, (1 << bits) - 1)


def phantom_dess(scale, rng):
    n = scaled_dim(384, scale)
    z = scaled_dim(160, scale)
    data = _integer_blob(n, z, rng, peak=1600.0, bits=11)
    return Volume(data, spacing=(0.37, 0.37, 0.7), dtype_bits=11)


def phantom_tse(scale, rng):
    n = scaled_dim(384, scale)
    z = scaled_dim(31, scale)
    data = _integer_blob(n, z, rng, peak=3200.0, bits=12)
    return Volume(data, spacing=(0.37, 0.37, 3.0), dtype_bits=12)


def phantom_xr(scale, rng):
    n = scaled_dim(718, scale)
    muscle, ring, core = _shell_masks(n, rng)
    img = np.full((n, n), 40.0)
    img[muscle] = 120.0
    img[ring] = 210.0
    img[core] = 90.0
    img += rng.normal(0.0, 4.0, size=img.shape)
    return Volume(np.clip(img, 0.0, 255.0), spacing=(0.195, 0.195))


def progressor_flags(config: SynthConfig) -> np.ndarray:
    """Deterministic assignment of exactly round(n * prevalence) progressors."""
    rng = np.random.default_rng(config.seed)
    flags = np.zeros(config.n_subjects, dtype=bool)
    n_prog = int(round(config.n_subjects * config.prevalence))
    flags[rng.permutation(config.n_subjects)[:n_prog]] = True
    return flags


def synth_subject(config: SynthConfig, idx: int, progressor: bool) -> SubjectRecord:
    """Generate one subject; reproducible from (config.seed, idx) alone."""
    srng = np.random.default_rng([config.seed, idx])
    follow_ups = [m for m in VISIT_SCHEDULE if 0 < m <= config.horizon]
    base = int(srng.choice([0, 1, 2, 3], p=[0.2, 0.3, 0.3, 0.2]))
    klg = {0: base}
    if progressor:
        onset = int(srng.choice(follow_ups))
        if pool_klg(base) == 1:
            new = int(srng.choice([2, 3]))
        else:
            new = min(base + 1, 4)
        for m in VISIT_SCHEDULE[1:]:
            klg[m] = new if m >= onset else base
    else:
        for m in VISIT_SCHEDULE[1:]:
            # within-pool wobble only (0 -> 1 keeps the pooled grade)
            klg[m] = 1 if base == 0 and srng.random() < 0.3 else base
    t2_ring = srng.normal(55.0, 4.0) - 20.0 * config.effect_size * progressor
    t2_ring = float(np.clip(t2_ring, 5.0, 95.0))
    images = {
        "XR": phantom_xr(config.scale, srng),
        "DESS": phantom_dess(config.scale, srng),
        "TSE": phantom_tse(config.scale, srng),
        "MULTI_ECHO": phantom_multi_echo(config.scale, srng, t2_ring),
    }
    return SubjectRecord(
        subject_id=f"S{idx:04d}",
        age=float(np.clip(srng.normal(61.1, 9.2), 40.0, 85.0)),
        sex="F" if srng.random() < 0.58 else "M",
        bmi=float(np.clip(srng.normal(28.5, 4.8), 18.0, 45.0)),
        womac_total=float(np.clip(srng.beta(1.5, 5.0) * 96.0, 0.0, 96.0)),
        prior_injury=bool(srng.random() < 0.27),
        prior_surgery=bool(srng.random() < 0.11),
        site=str(srng.choice(SITES, p=[0.3, 0.25, 0.2, 0.25])),
        klg_by_visit=klg,
        image_refs=images,
    )


def synth_cohort(config: SynthConfig):
    """Generate a fully observed synthetic cohort with image phantoms.

    The only label-dependent quantity is the multi-echo ring decay time:
    controls draw N(55, 4) ms, progressors shift down by 20 * effect_size ms.
    Clinical variables and the other modalities are label-neutral, so image
    models can beat clinical baselines on this cohort.
    """
    flags = progressor_flags(config)
    return [synth_subject(config, i, bool(flags[i])) for i in range(config.n_subjects)]
