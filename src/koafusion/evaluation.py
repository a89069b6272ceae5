"""Evaluation for imbalanced binary classifiers.

ROC AUC uses the rank (Mann-Whitney) formulation with ties counted half.
Average precision is the non-interpolated step integral with tied scores
handled as one group, so constant scores give exactly the prevalence.
Calibrated AP rescales the precision at each threshold to a target
prevalence.  Uncertainty comes from a stratified bootstrap; model
comparisons use a one-sided paired score-swap permutation test; settings
are ranked by summed average ranks across every (metric, horizon) cell.

AUC and AP each have one row kernel, ``_auc_rows`` and ``_ap_rows``, that
scores every row of a [rows, n] score matrix at once; the public metric is
one input check plus a batch of one, and ``_score_rows`` alone picks a
metric's row kernel.  The bootstrap's resamples and the permutation test's
swap patterns are built as rows, at most ``BOOT_CHUNK_BYTES`` at a time
whatever their count, and each chunk is scored with one call per metric;
the bootstrap draws and gathers each resample once, however many metrics
score it.  Rank aggregation ranks all (metric, horizon) cells as the rows
of one matrix.
Every row is bit-identical to the 1-D metric of that row: rank sums are sums
of half-integers, hence exact, and each row's AP terms are summed by numpy's
own 1-D sum over a C-contiguous row.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, UndefinedMetric

EXHAUSTIVE_LIMIT = 12  # paired_permutation_test enumerates all 2^n swaps up to this n
BOOT_CHUNK_BYTES = 1 << 20  # the most of a [rows, n] resample or swap matrix held at a time


def _check_scores_labels(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ContractViolation("scores and labels must be 1D and aligned")
    if s.size == 0:
        raise ContractViolation("empty score set")
    if not np.all(np.isfinite(s)):
        raise ContractViolation("scores must be finite")
    if not np.all((y == 0) | (y == 1)):
        raise ContractViolation("labels must be 0 or 1")
    return s, y.astype(np.int64)


def _both_classes(y: np.ndarray, what: str):
    if y.all() or not y.any():
        raise UndefinedMetric(f"{what} needs both classes present")


def _rank_rows(s: np.ndarray) -> np.ndarray:
    """1-based ranks along each row of s [R, n], tied values sharing their average rank."""
    order = np.argsort(s, axis=1, kind="stable")
    s_sorted = np.take_along_axis(s, order, axis=1)
    n = s.shape[1]
    first = np.ones(s.shape, dtype=bool)  # sorted position opens a tie group
    first[:, 1:] = s_sorted[:, 1:] != s_sorted[:, :-1]
    last = np.ones(s.shape, dtype=bool)  # sorted position closes a tie group
    last[:, :-1] = first[:, 1:]
    pos = np.arange(n)
    i = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
    j = np.minimum.accumulate(np.where(last, pos, n - 1)[:, ::-1], axis=1)[:, ::-1]
    ranks = np.empty(s.shape)
    np.put_along_axis(ranks, order, (i + j) / 2.0 + 1.0, axis=1)
    return ranks


def _auc_rows(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """roc_auc of each row of s [R, n] against labels y [R, n]; every row holds both classes.

    The positive rank sum adds half-integers, so it is exact in any order.
    """
    n1 = y.sum(axis=1)
    n0 = y.shape[1] - n1
    num = np.where(y == 1, _rank_rows(s), 0.0).sum(axis=1) - n1 * (n1 + 1) / 2.0
    return num / (n0 * n1)


def roc_auc(scores, labels) -> float:
    """Probability a positive outscores a negative, ties counted half."""
    s, y = _check_scores_labels(scores, labels)
    _both_classes(y, "ROC AUC")
    return float(_auc_rows(s[None], y[None])[0])


def _tie_groups(s: np.ndarray, y: np.ndarray):
    """Cumulative (tp, fp) after each distinct score of each row of s [R, n], descending.

    Returns tp and fp with the groups of every row concatenated in row order,
    and the number of groups of each row.
    """
    neg = -s
    order = np.argsort(neg, axis=1, kind="stable")
    s_sorted = np.take_along_axis(neg, order, axis=1)
    last = np.ones(s.shape, dtype=bool)  # sorted position closes a tie group
    last[:, :-1] = s_sorted[:, 1:] != s_sorted[:, :-1]
    tp = np.cumsum(np.take_along_axis(y, order, axis=1), axis=1)[last].astype(np.float64)
    fp = np.broadcast_to(np.arange(1.0, s.shape[1] + 1.0), s.shape)[last] - tp
    return tp, fp, last.sum(axis=1)


def _ap_rows(s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """average_precision of each row of s [R, n] against labels y [R, n]; every row holds both classes.

    Rows are summed in groups of equal tie-group count g, each group as one
    C-contiguous [rows, g] array, so each row's sum is numpy's 1-D pairwise sum
    of its g terms.
    """
    tp, fp, groups = _tie_groups(s, y)
    starts = np.cumsum(groups) - groups
    precision = tp / (tp + fp)
    recall = tp / np.repeat(y.sum(axis=1), groups)
    prev = np.empty_like(recall)
    prev[1:] = recall[:-1]
    prev[starts] = 0.0
    terms = (recall - prev) * precision
    out = np.empty(groups.size)
    for g in np.flatnonzero(np.bincount(groups)):  # the distinct counts (np.unique would import numpy.ma)
        rows = np.nonzero(groups == g)[0]
        out[rows] = terms[starts[rows, None] + np.arange(g)].sum(axis=1)
    return out


def average_precision(scores, labels) -> float:
    """Non-interpolated AP; tied scores form a single threshold group."""
    s, y = _check_scores_labels(scores, labels)
    _both_classes(y, "average precision")
    return float(_ap_rows(s[None], y[None])[0])


def calibrated_ap(scores, labels, target_prevalence: float) -> float:
    """AP with precision recalibrated to a target prevalence.

    At each threshold, precision is replaced by
    TPR*pi / (TPR*pi + FPR*(1-pi)); a 0/0 ratio contributes 0.
    """
    if not (0.0 < target_prevalence < 1.0):
        raise ContractViolation("target prevalence must lie in (0, 1)")
    s, y = _check_scores_labels(scores, labels)
    _both_classes(y, "calibrated AP")
    p = int(y.sum())
    n = y.size - p
    tp, fp, _ = _tie_groups(s[None], y[None])
    tpr = tp / p
    fpr = fp / n
    pi = target_prevalence
    denom = tpr * pi + fpr * (1.0 - pi)
    prec = np.divide(tpr * pi, denom, out=np.zeros_like(denom), where=denom > 0)
    delta = np.diff(np.concatenate([[0.0], tpr]))
    return float((delta * prec).sum())


METRICS = {
    "roc_auc": roc_auc,
    "average_precision": average_precision,
}
# the row kernel of each metric that has one; read by _score_rows only
_ROW_KERNELS = {roc_auc: _auc_rows, average_precision: _ap_rows}


def _score_rows(metric_fn, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """metric_fn of each row of s [R, n] against labels y ([R, n], or [n] for every row): one
    call of the metric's row kernel if it has one, else one call of the metric per row."""
    y = np.broadcast_to(y, s.shape)
    rows_fn = _ROW_KERNELS.get(metric_fn)
    if rows_fn is not None:
        return rows_fn(s, y)
    return np.array([metric_fn(s_row, y_row) for s_row, y_row in zip(s, y)], dtype=np.float64)


@dataclass
class MetricEstimate:
    point: float
    boot_mean: float
    boot_se: float
    samples: np.ndarray  # one value per replicate; Bootstrap.n_boot of them


@dataclass
class Bootstrap:
    """Every metric's estimate from one set of n_boot stratified resamples."""

    n_boot: int
    estimates: dict  # metric name -> MetricEstimate, in the order of the metrics mapping


def stratified_bootstrap(metrics: dict, scores, labels, n_boot: int = 1000, seed: int = 0) -> Bootstrap:
    """Bootstrap that resamples within each class, preserving class counts,
    and scores each resample for every metric in ``metrics`` (name -> metric function).

    Iteration i uses its own generator seeded from (seed, i), so any prefix
    of the replicate stream is reproducible independently of n_boot.  The
    resample indices of ``BOOT_CHUNK_BYTES // (8 n)`` replicates (at least
    one) are drawn and gathered once per chunk, and scored by one
    ``_score_rows`` call per metric.
    """
    if n_boot < 2:
        raise ContractViolation("need at least 2 bootstrap iterations")
    s, y = _check_scores_labels(scores, labels)
    idx0 = np.nonzero(y == 0)[0]
    idx1 = np.nonzero(y == 1)[0]
    if idx0.size == 0 or idx1.size == 0:
        raise UndefinedMetric("stratified bootstrap needs both classes present")
    points = {name: float(fn(s, y)) for name, fn in metrics.items()}
    n0, n1 = idx0.size, idx1.size
    per_chunk = max(1, BOOT_CHUNK_BYTES // (8 * y.size))
    vals = {name: np.empty(n_boot) for name in metrics}
    for start in range(0, n_boot, per_chunk):
        stop = min(start + per_chunk, n_boot)
        draws = np.empty((stop - start, y.size), dtype=np.int64)
        for i, row in enumerate(draws, start):
            rng = np.random.default_rng([seed, i])
            row[:n0] = rng.integers(0, n0, size=n0)
            row[n0:] = rng.integers(0, n1, size=n1)
        take = np.concatenate([idx0[draws[:, :n0]], idx1[draws[:, n0:]]], axis=1)
        s_take, y_take = s[take], y[take]
        for name, fn in metrics.items():
            vals[name][start:stop] = _score_rows(fn, s_take, y_take)
    return Bootstrap(n_boot, {
        name: MetricEstimate(points[name], float(v.mean()), float(v.std(ddof=1)), v)
        for name, v in vals.items()
    })


@dataclass
class PermutationResult:
    delta: float
    p_value: float
    n_used: int
    exact: bool


def paired_permutation_test(metric_fn, scores_a, scores_b, labels, n_iter: int = 1000,
                            seed: int = 0) -> PermutationResult:
    """One-sided paired test of H1: metric(A) > metric(B).

    The null swaps the two models' scores per subject.  With at most
    ``EXHAUSTIVE_LIMIT`` subjects all 2^n swap patterns are enumerated
    (pattern k swaps subject j when bit j of k is set) and the p-value is the
    exact null fraction with delta* >= delta; otherwise n_iter patterns are
    sampled and the add-one-smoothed estimate (1 + hits) / (n_iter + 1) is
    returned.  Patterns are scored in chunks of rows, as in the bootstrap.
    """
    if n_iter < 1:
        raise ContractViolation("need at least 1 permutation iteration")
    sa, y = _check_scores_labels(scores_a, labels)
    sb, y2 = _check_scores_labels(scores_b, labels)
    if sa.shape != sb.shape or not np.array_equal(y, y2):
        raise ContractViolation("paired test needs aligned scores and labels")
    n = sa.size
    delta = float(metric_fn(sa, y) - metric_fn(sb, y))
    exact = n <= EXHAUSTIVE_LIMIT
    total = 1 << n if exact else n_iter
    rng = np.random.default_rng(seed)
    per_chunk = max(1, BOOT_CHUNK_BYTES // (8 * n))
    hits = 0
    for start in range(0, total, per_chunk):
        k = np.arange(start, min(start + per_chunk, total))  # the chunk's pattern numbers
        if exact:
            swap = (k[:, None] >> np.arange(n)) & 1 == 1
        else:  # the same stream as k.size calls of rng.random(n)
            swap = rng.random((k.size, n)) < 0.5
        swapped = _score_rows(metric_fn, np.where(swap, sb, sa), y) - _score_rows(metric_fn, np.where(swap, sa, sb), y)
        hits += int(np.count_nonzero(swapped >= delta))
    p_value = hits / total if exact else (1 + hits) / (n_iter + 1)
    return PermutationResult(delta, p_value, total, exact)


# ---------------------------------------------------------------------------
# rank aggregation across metrics and horizons
# ---------------------------------------------------------------------------


@dataclass
class RankingTable:
    """values[setting][metric] is a list over horizons (higher is better)."""

    settings: tuple
    metrics: tuple
    horizons: tuple
    values: dict

    def __post_init__(self):
        for what, names in (("setting", self.settings), ("metric", self.metrics), ("horizon", self.horizons)):
            if not names:
                raise ContractViolation(f"a ranking table needs at least one {what}")
            if len(set(names)) != len(names):
                raise ContractViolation(f"duplicate {what} in {list(names)}")
        for s in self.settings:
            if s not in self.values:
                raise ContractViolation(f"missing values for setting {s!r}")
            for m in self.metrics:
                vals = self.values[s].get(m)
                if vals is None or len(vals) != len(self.horizons):
                    raise ContractViolation(f"setting {s!r} metric {m!r} has wrong length")


@dataclass
class RankingResult:
    winner: str
    totals: dict
    tied: bool
    cell_ranks: dict = field(default_factory=dict)


def rank_settings(table: RankingTable) -> RankingResult:
    """Average-rank aggregation: rank settings per (metric, horizon) cell
    (1 is best, ties averaged), sum ranks, and pick the argmin.

    A tie on the total is broken lexicographically by setting name and
    flagged in the result.
    """
    cells = [(m, h) for m in table.metrics for h in table.horizons]
    values = np.array([[table.values[s][m][h_idx] for s in table.settings]
                       for m in table.metrics for h_idx in range(len(table.horizons))], dtype=np.float64)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise ContractViolation("non-finite value in cell ({}, {})".format(*cells[int(np.argmin(finite))]))
    ranks = _rank_rows(-values)  # descending: highest value gets rank 1
    totals = dict.fromkeys(table.settings, 0.0)
    for s, total in zip(table.settings, ranks.sum(axis=0)):  # half-integer sums: exact in any order
        totals[s] += float(total)
    cell_ranks = {(s, m, h): float(r) for (m, h), row in zip(cells, ranks) for s, r in zip(table.settings, row)}
    best_total = min(totals.values())
    winners = sorted(s for s, t in totals.items() if t == best_total)
    return RankingResult(winners[0], totals, len(winners) > 1, cell_ranks)


# Published fusion comparison: ROC AUC and AP per setting at the five
# prediction horizons (12, 24, 36, 48, 96 months).  F8 wins the aggregate.
FUSION_TABLE_HORIZONS = (12, 24, 36, 48, 96)
FUSION_TABLE = {
    "F1": {"roc_auc": [0.76, 0.72, 0.70, 0.74, 0.77],
           "average_precision": [0.11, 0.15, 0.23, 0.29, 0.56]},
    "F2": {"roc_auc": [0.71, 0.71, 0.68, 0.69, 0.77],
           "average_precision": [0.10, 0.13, 0.18, 0.28, 0.54]},
    "F3": {"roc_auc": [0.61, 0.68, 0.66, 0.71, 0.76],
           "average_precision": [0.09, 0.13, 0.20, 0.27, 0.53]},
    "F4": {"roc_auc": [0.74, 0.74, 0.70, 0.71, 0.76],
           "average_precision": [0.12, 0.16, 0.20, 0.27, 0.55]},
    "F5": {"roc_auc": [0.72, 0.74, 0.72, 0.73, 0.76],
           "average_precision": [0.12, 0.16, 0.24, 0.28, 0.54]},
    "F6": {"roc_auc": [0.71, 0.73, 0.71, 0.72, 0.75],
           "average_precision": [0.13, 0.15, 0.21, 0.26, 0.53]},
    "F7": {"roc_auc": [0.75, 0.73, 0.70, 0.73, 0.77],
           "average_precision": [0.12, 0.15, 0.24, 0.29, 0.54]},
    "F8": {"roc_auc": [0.76, 0.75, 0.70, 0.73, 0.77],
           "average_precision": [0.13, 0.16, 0.22, 0.27, 0.57]},
    "F9": {"roc_auc": [0.70, 0.73, 0.69, 0.71, 0.76],
           "average_precision": [0.10, 0.13, 0.19, 0.28, 0.54]},
    "U": {"roc_auc": [0.71, 0.73, 0.70, 0.72, 0.76],
          "average_precision": [0.10, 0.15, 0.23, 0.26, 0.55]},
}


def reference_ranking_table() -> RankingTable:
    settings = tuple(sorted(FUSION_TABLE))
    return RankingTable(
        settings=settings,
        metrics=("roc_auc", "average_precision"),
        horizons=FUSION_TABLE_HORIZONS,
        values=FUSION_TABLE,
    )


# ---------------------------------------------------------------------------
# subgroup reporting
# ---------------------------------------------------------------------------


def _trauma_group(record) -> str:
    if record.prior_surgery:
        return "prior_surgery"
    if record.prior_injury:
        return "injury_no_surgery"
    return "no_trauma"


def _klg_group(record) -> str | None:
    grade = record.klg_by_visit[0]
    if grade in (0, 1):
        return "klg_0_1"
    if grade == 2:
        return "klg_2"
    if grade == 3:
        return "klg_3"
    return None  # baseline grade 4 knees are not reported per stratum


def _womac_group(record) -> str:
    return "symptomatic" if record.womac_total > 10.0 else "asymptomatic"


SUBGROUP_FAMILIES = {
    "trauma": _trauma_group,
    "baseline_klg": _klg_group,
    "symptoms": _womac_group,
}


def subgroup_report(records: dict, per_horizon: dict) -> dict:
    """Average per-horizon metrics inside clinically defined subgroups.

    ``per_horizon`` maps horizon -> (ids, scores, labels); only subjects
    scored at every horizon are used, so each subgroup averages the same
    subjects across horizons.  A metric is None when any horizon lacks both
    classes inside the subgroup.
    """
    if not per_horizon:
        raise ContractViolation("need at least one horizon")
    horizons = sorted(per_horizon)
    common = None
    tables = {}
    for h in horizons:
        ids, scores, labels = per_horizon[h]
        if len(ids) != len(scores) or len(ids) != len(labels):
            raise ContractViolation(f"misaligned entries for horizon {h}")
        tables[h] = {i: (float(s), int(l)) for i, s, l in zip(ids, scores, labels)}
        if len(tables[h]) != len(ids):
            twice = next(i for i, n in Counter(ids).items() if n > 1)
            raise ContractViolation(f"horizon {h} scores subject {twice!r} more than once")
        common = set(ids) if common is None else common & set(ids)
    common = sorted(common)
    if not common:
        raise ContractViolation("no subject is scored at every horizon")
    report = {}
    for family, assign in SUBGROUP_FAMILIES.items():
        groups = {}
        for i in common:
            g = assign(records[i])
            if g is not None:
                groups.setdefault(g, []).append(i)
        report[family] = {}
        for g, members in sorted(groups.items()):
            entry = {"n": len(members)}
            for mname, mfn in METRICS.items():
                per_h = []
                for h in horizons:
                    s = np.array([tables[h][i][0] for i in members])
                    y = np.array([tables[h][i][1] for i in members])
                    try:
                        per_h.append(mfn(s, y))
                    except UndefinedMetric:
                        per_h = None
                        break
                entry[mname] = float(np.mean(per_h)) if per_h is not None else None
            report[family][g] = entry
    return report
