from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion import cli, evaluation
from koafusion.cohort import SubjectRecord
from koafusion.errors import ContractViolation, UndefinedMetric
from koafusion.evaluation import (
    FUSION_TABLE,
    FUSION_TABLE_HORIZONS,
    MetricEstimate,
    RankingResult,
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


def pairwise_auc(scores, labels):
    """O(n^2) Mann-Whitney oracle: wins plus half-ties over all pairs."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (pos.size * neg.size)


def threshold_loop_ap(scores, labels):
    """Independent AP oracle: recompute tp/fp from scratch per threshold."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    p = y.sum()
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(s), reverse=True):
        keep = s >= t
        tp = int(y[keep].sum())
        fp = int(keep.sum()) - tp
        recall = tp / p
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
    return ap


# The 1-D metrics and the per-replicate bootstrap loop the row kernels replaced, kept as
# the references the kernels must match bit for bit.


def reference_average_ranks(s):
    """1-based ranks with ties averaged."""
    order = np.argsort(s, kind="stable")
    ranks = np.empty(s.size)
    sorted_s = s[order]
    i = 0
    while i < s.size:
        j = i
        while j + 1 < s.size and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def reference_roc_auc(s, y):
    n1 = int(y.sum())
    n0 = y.size - n1
    num = reference_average_ranks(s)[y == 1].sum() - n1 * (n1 + 1) / 2.0
    return num / (n0 * n1)


def reference_tie_groups(s, y):
    """Cumulative (tp, fp) after each distinct score, descending."""
    order = np.argsort(-s, kind="stable")
    s_sorted, y_sorted = s[order], y[order]
    ends = np.append(np.nonzero(np.diff(s_sorted))[0], s_sorted.size - 1)
    tp = np.cumsum(y_sorted)[ends].astype(np.float64)
    fp = (ends + 1.0) - tp
    return tp, fp


def reference_average_precision(s, y):
    tp, fp = reference_tie_groups(s, y)
    precision = tp / (tp + fp)
    recall = tp / int(y.sum())
    delta = np.diff(np.concatenate([[0.0], recall]))
    return float((delta * precision).sum())


def reference_calibrated_ap(s, y, pi):
    tp, fp = reference_tie_groups(s, y)
    tpr = tp / int(y.sum())
    fpr = fp / int(y.size - y.sum())
    denom = tpr * pi + fpr * (1.0 - pi)
    prec = np.divide(tpr * pi, denom, out=np.zeros_like(denom), where=denom > 0)
    delta = np.diff(np.concatenate([[0.0], tpr]))
    return float((delta * prec).sum())


def reference_bootstrap_samples(metric_fn, s, y, n_boot, seed):
    idx0 = np.nonzero(y == 0)[0]
    idx1 = np.nonzero(y == 1)[0]
    vals = np.empty(n_boot)
    for i in range(n_boot):
        rng = np.random.default_rng([seed, i])
        take0 = idx0[rng.integers(0, idx0.size, size=idx0.size)]
        take1 = idx1[rng.integers(0, idx1.size, size=idx1.size)]
        take = np.concatenate([take0, take1])
        vals[i] = metric_fn(s[take], y[take])
    return vals


def reference_permutation_test(metric_fn, sa, sb, y, n_iter, seed):
    """The per-pattern loop paired_permutation_test replaced: (delta, p_value, n_used, exact)."""
    n = sa.size
    delta = float(metric_fn(sa, y) - metric_fn(sb, y))

    def swapped_delta(mask):
        return float(metric_fn(np.where(mask, sb, sa), y) - metric_fn(np.where(mask, sa, sb), y))

    if n <= evaluation.EXHAUSTIVE_LIMIT:
        total = 1 << n
        hits = sum(swapped_delta(np.array([(bits >> k) & 1 for k in range(n)], dtype=bool)) >= delta
                   for bits in range(total))
        return delta, hits / total, total, True
    rng = np.random.default_rng(seed)
    hits = sum(swapped_delta(rng.random(n) < 0.5) >= delta for _ in range(n_iter))
    return delta, (1 + hits) / (n_iter + 1), n_iter, False


def reference_rank_settings(table):
    """The per-cell loop rank_settings replaced."""
    totals = {s: 0.0 for s in table.settings}
    cell_ranks = {}
    for m in table.metrics:
        for h_idx, h in enumerate(table.horizons):
            col = np.array([table.values[s][m][h_idx] for s in table.settings], dtype=np.float64)
            if not np.all(np.isfinite(col)):
                raise ContractViolation(f"non-finite value in cell ({m}, {h})")
            for s, r in zip(table.settings, reference_average_ranks(-col)):
                totals[s] += float(r)
                cell_ranks[(s, m, h)] = float(r)
    best_total = min(totals.values())
    winners = sorted(s for s, t in totals.items() if t == best_total)
    return RankingResult(winners[0], totals, len(winners) > 1, cell_ranks)


def oracle_case(n, n1, levels, signed_zeros, seed):
    """Scores rounded to ``levels`` levels (0: continuous), optionally with 0.0 and -0.0 mixed
    in, and labels with n1 positives in shuffled positions."""
    rng = np.random.default_rng(seed)
    s = rng.random(n)
    if levels:
        s = np.round(s * levels) / levels
    if signed_zeros:
        s[rng.random(n) < 0.3] = 0.0
        s[rng.random(n) < 0.3] = -0.0
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:n1]] = 1
    return s, y


REFERENCES = [(roc_auc, reference_roc_auc), (average_precision, reference_average_precision)]


def assert_bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestRowKernelsMatchReferences:
    """Every sample, point and summary of the row-batched bootstrap equals the per-replicate
    loop over the 1-D references, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 300),
        pos_frac=st.floats(0.0, 1.0),
        levels=st.sampled_from([0, 1, 2, 3, 5, 10]),
        signed_zeros=st.booleans(),
        n_boot=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=300, pos_frac=0.3, levels=0, signed_zeros=False, n_boot=20, seed=0)  # > 128 groups a row
    @example(n=2, pos_frac=0.5, levels=1, signed_zeros=True, n_boot=2, seed=1)
    def test_bootstrap_and_metrics(self, n, pos_frac, levels, signed_zeros, n_boot, seed):
        n1 = min(max(1, round(pos_frac * n)), n - 1)
        s, y = oracle_case(n, n1, levels, signed_zeros, seed)
        assert_bitwise_equal(evaluation._rank_rows(s[None])[0], reference_average_ranks(s))
        assert_bitwise_equal(calibrated_ap(s, y, 0.15), reference_calibrated_ap(s, y, 0.15))
        for metric, reference in REFERENCES:
            assert_bitwise_equal(metric(s, y), reference(s, y))
            want = reference_bootstrap_samples(reference, s, y, n_boot, seed)
            est = stratified_bootstrap({"m": metric}, s, y, n_boot=n_boot, seed=seed).estimates["m"]
            assert_bitwise_equal(est.samples, want)
            assert_bitwise_equal(est.boot_mean, float(want.mean()))
            assert_bitwise_equal(est.boot_se, float(want.std(ddof=1)))
            assert_bitwise_equal(est.point, float(reference(s, y)))

    def test_rows_with_more_than_128_tie_groups(self):
        """numpy's pairwise sum recurses above 128 terms; replicate 0 here has more groups."""
        s, y = oracle_case(300, 60, 0, False, 3)
        idx0, idx1 = np.nonzero(y == 0)[0], np.nonzero(y == 1)[0]
        rng = np.random.default_rng([3, 0])
        take = np.concatenate([idx0[rng.integers(0, 240, size=240)], idx1[rng.integers(0, 60, size=60)]])
        assert np.unique(s[take]).size > 128
        est = stratified_bootstrap({"ap": average_precision}, s, y, n_boot=8, seed=3).estimates["ap"]
        assert_bitwise_equal(est.samples, reference_bootstrap_samples(reference_average_precision, s, y, 8, 3))

    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_chunks_that_do_not_divide_n_boot(self, monkeypatch, chunk_rows):
        s, y = oracle_case(40, 9, 5, True, 11)
        monkeypatch.setattr(evaluation, "BOOT_CHUNK_BYTES", 8 * s.size * chunk_rows)
        for metric, reference in REFERENCES:
            want = reference_bootstrap_samples(reference, s, y, 10, 4)
            est = stratified_bootstrap({"m": metric}, s, y, n_boot=10, seed=4).estimates["m"]
            assert_bitwise_equal(est.samples, want)
            prefix = stratified_bootstrap({"m": metric}, s, y, n_boot=chunk_rows + 1, seed=4).estimates["m"]
            assert_bitwise_equal(prefix.samples, want[: chunk_rows + 1])  # crosses a chunk boundary

    def test_chunk_smaller_than_a_row(self, monkeypatch):
        s, y = oracle_case(30, 7, 3, False, 12)
        monkeypatch.setattr(evaluation, "BOOT_CHUNK_BYTES", 1)
        est = stratified_bootstrap({"auc": roc_auc}, s, y, n_boot=5, seed=2).estimates["auc"]
        assert_bitwise_equal(est.samples, reference_bootstrap_samples(reference_roc_auc, s, y, 5, 2))

    def test_metric_without_row_kernel_is_called_per_replicate(self):
        s, y = oracle_case(25, 8, 4, True, 13)
        calls = []

        def metric(s_row, y_row):
            calls.append(s_row.size)
            return reference_average_precision(s_row, y_row)

        est = stratified_bootstrap({"m": metric}, s, y, n_boot=12, seed=6).estimates["m"]
        assert calls == [25] * 13  # the point, then one call per replicate
        assert_bitwise_equal(est.samples, reference_bootstrap_samples(reference_average_precision, s, y, 12, 6))


class TestOneDrawForEveryMetric:
    """One bootstrap call draws each resample once and scores it for every metric."""

    @pytest.mark.parametrize("chunk_rows", [None, 1, 3, 7])
    def test_two_metrics_equal_two_one_metric_calls(self, monkeypatch, chunk_rows):
        s, y = oracle_case(40, 9, 5, True, 11)
        if chunk_rows is not None:
            monkeypatch.setattr(evaluation, "BOOT_CHUNK_BYTES", 8 * s.size * chunk_rows)
        both = stratified_bootstrap({"ap": average_precision, "auc": roc_auc}, s, y, n_boot=10, seed=4)
        assert both.n_boot == 10 and list(both.estimates) == ["ap", "auc"]  # the mapping's order
        for name, metric, reference in (("ap", average_precision, reference_average_precision),
                                        ("auc", roc_auc, reference_roc_auc)):
            alone = stratified_bootstrap({name: metric}, s, y, n_boot=10, seed=4).estimates[name]
            est = both.estimates[name]
            want = reference_bootstrap_samples(reference, s, y, 10, 4)
            for got in (est, alone):
                assert_bitwise_equal(got.samples, want)
                assert_bitwise_equal(got.point, float(reference(s, y)))
                assert_bitwise_equal(got.boot_mean, float(want.mean()))
                assert_bitwise_equal(got.boot_se, float(want.std(ddof=1)))

    @staticmethod
    def _count_generators(monkeypatch) -> list:
        made = []
        default_rng = np.random.default_rng

        def counted(seed=None):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        return made

    @pytest.mark.parametrize("names", [("roc_auc",), ("roc_auc", "average_precision"),
                                       ("roc_auc", "average_precision", "loop")])
    def test_one_generator_per_replicate_whatever_the_metrics(self, monkeypatch, names):
        s, y = oracle_case(30, 7, 3, False, 12)
        metrics = {"roc_auc": roc_auc, "average_precision": average_precision, "loop": reference_roc_auc}
        made = self._count_generators(monkeypatch)
        stratified_bootstrap({name: metrics[name] for name in names}, s, y, n_boot=12, seed=3)
        assert made == [[3, i] for i in range(12)]

    def test_eval_and_baseline_draw_the_resamples_once(self, monkeypatch):
        s, y = oracle_case(30, 7, 3, False, 12)
        made = self._count_generators(monkeypatch)
        metrics = cli._bootstrap_metrics(s, y, 12, 3)
        assert list(metrics) == list(evaluation.METRICS)
        assert made == [[3, i] for i in range(12)]

    def test_metric_without_row_kernel_beside_others_is_called_per_replicate(self):
        s, y = oracle_case(25, 8, 4, True, 13)
        calls = []

        def metric(s_row, y_row):
            calls.append(s_row.size)
            return reference_average_precision(s_row, y_row)

        boot = stratified_bootstrap({"auc": roc_auc, "m": metric, "ap": average_precision}, s, y, n_boot=12, seed=6)
        assert calls == [25] * 13  # the point, then one call per replicate
        assert_bitwise_equal(boot.estimates["m"].samples, boot.estimates["ap"].samples)


def permutation_case(n, pos_frac, levels, signed_zeros, seed):
    """Two models' scores on the same subjects, as in ``oracle_case``."""
    n1 = min(max(1, round(pos_frac * n)), n - 1)
    sa, y = oracle_case(n, n1, levels, signed_zeros, seed)
    sb, _ = oracle_case(n, n1, levels, signed_zeros, seed + 1)
    return sa, sb, y


def assert_permutation_matches(metric, reference, sa, sb, y, n_iter, seed):
    res = paired_permutation_test(metric, sa, sb, y, n_iter=n_iter, seed=seed)
    delta, p_value, n_used, exact = reference_permutation_test(reference, sa, sb, y, n_iter, seed)
    assert_bitwise_equal(res.delta, delta)
    assert_bitwise_equal(res.p_value, p_value)
    assert (res.n_used, res.exact) == (n_used, exact)
    assert type(res.n_used) is int


def ranking_items(result):
    """Every field of a RankingResult, floats as their bits and dicts in insertion order."""
    return (result.winner, result.tied, [(s, t.hex()) for s, t in result.totals.items()],
            [(k, r.hex()) for k, r in result.cell_ranks.items()])


class TestRowPathMatchesReferences:
    """The permutation test and rank aggregation score their rows through ``_score_rows``;
    every result equals the per-pattern and per-cell loops over the 1-D references, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.one_of(st.integers(2, 8), st.integers(13, 60)),
        pos_frac=st.floats(0.0, 1.0),
        levels=st.sampled_from([0, 1, 2, 3, 5, 10]),
        signed_zeros=st.booleans(),
        n_iter=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 2),
    )
    @example(n=12, pos_frac=0.4, levels=5, signed_zeros=True, n_iter=1, seed=0)  # exact, 4096 patterns
    @example(n=13, pos_frac=0.5, levels=1, signed_zeros=True, n_iter=1, seed=1)  # sampled, one pattern
    def test_permutation_test(self, n, pos_frac, levels, signed_zeros, n_iter, seed):
        sa, sb, y = permutation_case(n, pos_frac, levels, signed_zeros, seed)
        for metric, reference in REFERENCES:
            assert_permutation_matches(metric, reference, sa, sb, y, n_iter, seed)
            assert_permutation_matches(metric, reference, sa, sa.copy(), y, n_iter, seed)  # identical models

    @pytest.mark.parametrize("n,n_iter", [(6, 1), (13, 10), (20, 10), (200, 23)])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 7])
    def test_chunks_that_do_not_divide_the_patterns(self, monkeypatch, n, n_iter, chunk_rows):
        """Exact n = 6 has 64 patterns; the sampled stream drawn ``chunk_rows`` rows at a time
        equals ``n_iter`` successive rng.random(n) draws."""
        sa, sb, y = permutation_case(n, 0.3, 4, True, n + chunk_rows)
        monkeypatch.setattr(evaluation, "BOOT_CHUNK_BYTES", 8 * n * chunk_rows)
        for metric, reference in REFERENCES:
            assert_permutation_matches(metric, reference, sa, sb, y, n_iter, 5)

    @pytest.mark.parametrize("n", [5, 14])
    def test_chunk_smaller_than_a_row(self, monkeypatch, n):
        sa, sb, y = permutation_case(n, 0.5, 3, False, 8)
        monkeypatch.setattr(evaluation, "BOOT_CHUNK_BYTES", 1)
        for metric, reference in REFERENCES:
            assert_permutation_matches(metric, reference, sa, sb, y, 9, 2)

    @pytest.mark.parametrize("n,n_iter,patterns", [(5, 1000, 32), (14, 9, 9)])
    def test_metric_without_row_kernel_is_called_per_row(self, n, n_iter, patterns):
        sa, sb, y = permutation_case(n, 0.4, 2, True, 9)
        calls = []

        def metric(s_row, y_row):
            calls.append(s_row.size)
            return reference_average_precision(s_row, y_row)

        res = paired_permutation_test(metric, sa, sb, y, n_iter=n_iter, seed=3)
        assert calls == [n] * (2 + 2 * patterns)  # the two points, then an A row and a B row per pattern
        assert_bitwise_equal(res.p_value, reference_permutation_test(
            reference_average_precision, sa, sb, y, n_iter, 3)[1])

    @pytest.mark.parametrize("n", [6, 20])
    @pytest.mark.parametrize("n_iter", [0, -1, -2])
    def test_n_iter_below_one_refused(self, n, n_iter):
        sa, sb, y = permutation_case(n, 0.5, 0, False, 4)
        with pytest.raises(ContractViolation, match="at least 1 permutation iteration"):
            paired_permutation_test(roc_auc, sa, sb, y, n_iter=n_iter)

    @settings(max_examples=60, deadline=None)
    @given(
        n_settings=st.integers(1, 6),
        n_metrics=st.integers(1, 3),  # an empty axis is refused (test_rank_empty_table_refused)
        n_horizons=st.integers(1, 4),
        cells=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.7, 1.0, -3.0]), min_size=72, max_size=72),
    )
    def test_rank_settings(self, n_settings, n_metrics, n_horizons, cells):
        """Few distinct values, so ties within a cell and on the totals are common."""
        settings_ = tuple(f"S{i}" for i in range(n_settings))[::-1]  # not in name order
        metrics = tuple(f"m{i}" for i in range(n_metrics))
        horizons = tuple(12 * (i + 1) for i in range(n_horizons))
        it = iter(cells)
        values = {s: {m: [next(it) for _ in horizons] for m in metrics} for s in settings_}
        table = RankingTable(settings_, metrics, horizons, values)
        assert ranking_items(rank_settings(table)) == ranking_items(reference_rank_settings(table))

    def test_rank_reference_table(self):
        table = reference_ranking_table()
        assert ranking_items(rank_settings(table)) == ranking_items(reference_rank_settings(table))

    def test_rank_first_non_finite_cell_named(self):
        values = {"A": {"m": [0.5, 0.5], "k": [np.inf, 0.1]}, "B": {"m": [0.2, np.nan], "k": [0.3, 0.4]}}
        table = RankingTable(("A", "B"), ("m", "k"), (12, 24), values)
        with pytest.raises(ContractViolation) as want:
            reference_rank_settings(table)
        with pytest.raises(ContractViolation, match=r"^non-finite value in cell \(m, 24\)$") as got:
            rank_settings(table)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("metrics,horizons", [((), (12,)), (("m",), ()), ((), ())],
                             ids=["no-metric", "no-horizon", "neither"])
    def test_rank_empty_table_refused(self, metrics, horizons):
        """A table with no (metric, horizon) cell would rank every setting 0.0, a tie over nothing."""
        empty = "metric" if not metrics else "horizon"
        with pytest.raises(ContractViolation, match=f"at least one {empty}$"):
            RankingTable(("B", "A"), metrics, horizons, {s: {m: [] for m in metrics} for s in "AB"})


class TestRocAuc:
    @pytest.mark.parametrize("seed", range(10))
    def test_bitwise_equal_to_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        scores = np.round(rng.random(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)

    def test_extremes(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(1)
        s = rng.random(30)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        assert roc_auc(s, y) == roc_auc(np.exp(3 * s), y)

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            roc_auc([0.1, 0.2], [1, 1])

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            roc_auc([0.1, np.nan], [0, 1])
        with pytest.raises(ContractViolation):
            roc_auc([0.1, 0.2], [0, 2])
        with pytest.raises(ContractViolation):
            roc_auc([0.1, 0.2, 0.3], [0, 1])
        with pytest.raises(ContractViolation):
            roc_auc([], [])


class TestAveragePrecision:
    def test_hand_worked_case(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert_allclose(ap, 0.5 * 1.0 + 0.5 * (2.0 / 3.0), rtol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_threshold_loop_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(6, 50))
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert_allclose(
            average_precision(scores, labels),
            threshold_loop_ap(scores, labels),
            rtol=1e-13,
        )

    @pytest.mark.parametrize("n,p", [(10, 3), (7, 1), (12, 6), (9, 8)])
    def test_constant_scores_give_exact_prevalence(self, n, p):
        labels = np.zeros(n, dtype=int)
        labels[:p] = 1
        got = average_precision(np.full(n, 0.37), labels)
        assert got == float(Fraction(p, n))

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            average_precision([0.3, 0.4], [0, 0])


class TestCalibratedAp:
    def test_frozen_three_point_case(self):
        got = calibrated_ap([0.9, 0.6, 0.4], [1, 0, 1], target_prevalence=0.15)
        assert_allclose(got, 0.575, rtol=1e-15)

    @pytest.mark.parametrize("seed", range(6))
    def test_reduces_to_ap_at_native_prevalence(self, seed):
        rng = np.random.default_rng(seed)
        n = 24
        scores = np.round(rng.random(n), 1)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pi = labels.mean()
        assert_allclose(
            calibrated_ap(scores, labels, pi),
            average_precision(scores, labels),
            rtol=1e-12,
        )

    def test_lower_target_prevalence_lowers_score(self):
        rng = np.random.default_rng(7)
        scores = rng.random(40)
        labels = (scores + rng.normal(0, 0.3, 40) > 0.5).astype(int)
        hi = calibrated_ap(scores, labels, 0.5)
        lo = calibrated_ap(scores, labels, 0.05)
        assert lo < hi

    def test_target_prevalence_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ContractViolation):
                calibrated_ap([0.1, 0.9], [0, 1], bad)


class TestStratifiedBootstrap:
    def test_class_counts_preserved_every_iteration(self):
        rng = np.random.default_rng(0)
        scores = rng.random(30)
        labels = np.array([1] * 9 + [0] * 21)

        def counting_metric(s, y):
            assert y.sum() == 9 and y.size == 30
            return float(y.mean())

        est = stratified_bootstrap({"m": counting_metric}, scores, labels, n_boot=50).estimates["m"]
        assert est.point == 0.3
        assert_allclose(est.boot_mean, 0.3, rtol=1e-14)
        assert_allclose(est.boot_se, 0.0, atol=1e-15)

    def test_replicate_stream_is_prefix_stable(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        a = stratified_bootstrap({"auc": roc_auc}, scores, labels, n_boot=10, seed=5).estimates["auc"]
        b = stratified_bootstrap({"auc": roc_auc}, scores, labels, n_boot=25, seed=5).estimates["auc"]
        assert_allclose(a.samples, b.samples[:10], rtol=0, atol=0)

    def test_point_and_spread(self):
        rng = np.random.default_rng(2)
        scores = rng.random(60)
        labels = (scores + rng.normal(0, 0.5, 60) > 0.5).astype(int)
        labels[:2] = [0, 1]
        boot = stratified_bootstrap({"auc": roc_auc}, scores, labels, n_boot=200, seed=0)
        est = boot.estimates["auc"]
        assert est.point == roc_auc(scores, labels)
        assert est.boot_se > 0
        assert abs(est.boot_mean - est.point) < 5 * est.boot_se
        assert boot.n_boot == 200 and est.samples.shape == (200,)

    def test_contracts(self):
        with pytest.raises(ContractViolation):
            stratified_bootstrap({"auc": roc_auc}, [0.1, 0.9], [0, 1], n_boot=1)
        with pytest.raises(UndefinedMetric):
            stratified_bootstrap({"auc": roc_auc}, [0.1, 0.9], [1, 1], n_boot=10)


class TestPairedPermutation:
    def test_exact_enumeration_matches_independent_loop(self):
        rng = np.random.default_rng(3)
        n = 6
        sa = rng.random(n)
        sb = rng.random(n)
        labels = np.array([0, 1, 0, 1, 1, 0])
        res = paired_permutation_test(roc_auc, sa, sb, labels)
        delta = roc_auc(sa, labels) - roc_auc(sb, labels)
        hits = 0
        for pattern in product([False, True], repeat=n):
            mask = np.array(pattern)
            pa = np.where(mask, sb, sa)
            pb = np.where(mask, sa, sb)
            if roc_auc(pa, labels) - roc_auc(pb, labels) >= delta:
                hits += 1
        assert res.exact and res.n_used == 2**n
        assert res.p_value == hits / 2**n
        assert_allclose(res.delta, delta, rtol=0, atol=0)

    def test_identical_models_have_p_one(self):
        rng = np.random.default_rng(4)
        s = rng.random(8)
        y = np.array([0, 1] * 4)
        res = paired_permutation_test(roc_auc, s, s.copy(), y)
        assert res.exact and res.p_value == 1.0 and res.delta == 0.0
        s20 = rng.random(20)
        y20 = np.array([0, 1] * 10)
        res20 = paired_permutation_test(roc_auc, s20, s20.copy(), y20, n_iter=99, seed=0)
        assert not res20.exact and res20.n_used == 99
        assert res20.p_value == 1.0

    def test_dominant_model_gets_small_p(self):
        y = np.array([0, 1] * 5)
        strong = np.where(y == 1, 0.9, 0.1) + np.linspace(0, 0.01, 10)
        weak = np.where(y == 1, 0.1, 0.9) + np.linspace(0, 0.01, 10)
        res = paired_permutation_test(roc_auc, strong, weak, y)
        assert res.exact and res.p_value < 0.01
        rev = paired_permutation_test(roc_auc, weak, strong, y)
        assert rev.p_value > 0.99

    def test_sampled_p_uses_add_one_smoothing(self):
        rng = np.random.default_rng(5)
        y = np.array([0, 1] * 8)
        strong = np.where(y == 1, 0.9, 0.1) + rng.normal(0, 0.01, 16)
        weak = rng.random(16)
        res = paired_permutation_test(roc_auc, strong, weak, y, n_iter=200, seed=1)
        assert not res.exact
        assert res.p_value >= 1.0 / 201.0  # never exactly zero

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            paired_permutation_test(roc_auc, [0.1, 0.2], [0.1], [0, 1])


def rank_column(values):
    """Independent average-rank helper: rank 1 for the highest value."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestRankSettings:
    def test_small_table(self):
        table = RankingTable(
            settings=("A", "B", "C"),
            metrics=("m",),
            horizons=(1, 2),
            values={
                "A": {"m": [0.9, 0.5]},
                "B": {"m": [0.8, 0.7]},
                "C": {"m": [0.7, 0.6]},
            },
        )
        res = rank_settings(table)
        assert res.totals == {"A": 1 + 3, "B": 2 + 1, "C": 3 + 2}
        assert res.winner == "B" and not res.tied
        assert res.cell_ranks[("A", "m", 1)] == 1.0

    def test_tie_breaks_lexicographically_and_flags(self):
        table = RankingTable(
            settings=("B", "A"),
            metrics=("m",),
            horizons=(1,),
            values={"A": {"m": [0.5]}, "B": {"m": [0.5]}},
        )
        res = rank_settings(table)
        assert res.tied and res.winner == "A"
        assert res.totals == {"A": 1.5, "B": 1.5}

    def test_reference_table_winner_and_total(self):
        res = rank_settings(reference_ranking_table())
        assert res.winner == "F8"
        assert not res.tied
        assert_allclose(res.totals["F8"], 29.5, rtol=0, atol=0)

    def test_reference_totals_match_independent_ranker(self):
        settings = sorted(FUSION_TABLE)
        totals = {s: 0.0 for s in settings}
        for metric in ("roc_auc", "average_precision"):
            for h_idx in range(len(FUSION_TABLE_HORIZONS)):
                col = [FUSION_TABLE[s][metric][h_idx] for s in settings]
                for s, r in zip(settings, rank_column(col)):
                    totals[s] += r
        res = rank_settings(reference_ranking_table())
        assert res.totals == totals
        assert min(totals, key=lambda s: (totals[s], s)) == "F8"

    @pytest.mark.parametrize("field,names", [
        ("settings", ("A", "A", "B")), ("metrics", ("m", "k", "m")), ("horizons", (12, 12)),
    ])
    def test_duplicate_names_refused(self, field, names):
        axes = {"settings": ("A", "B"), "metrics": ("m",), "horizons": (12,), field: names}
        values = {s: {m: [0.5] * len(axes["horizons"]) for m in axes["metrics"]} for s in axes["settings"]}
        with pytest.raises(ContractViolation, match=f"duplicate {field[:-1]}"):
            RankingTable(values=values, **axes)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            RankingTable(settings=("A",), metrics=("m",), horizons=(1,), values={})
        with pytest.raises(ContractViolation):
            RankingTable(
                settings=("A",), metrics=("m",), horizons=(1, 2),
                values={"A": {"m": [0.5]}},
            )
        bad = RankingTable(
            settings=("A",), metrics=("m",), horizons=(1,),
            values={"A": {"m": [np.nan]}},
        )
        with pytest.raises(ContractViolation):
            rank_settings(bad)


def make_record(sid, injury=False, surgery=False, womac=5.0, klg0=2):
    return SubjectRecord(
        subject_id=sid, age=60.0, sex="F", bmi=27.0, womac_total=womac,
        prior_injury=injury, prior_surgery=surgery, site="A",
        klg_by_visit={0: klg0},
    )


class TestSubgroupReport:
    def test_groups_and_averaging(self):
        records = {
            "a": make_record("a", surgery=True, injury=True, womac=20.0, klg0=0),
            "b": make_record("b", injury=True, womac=5.0, klg0=2),
            "c": make_record("c", womac=12.0, klg0=3),
            "d": make_record("d", womac=10.0, klg0=1),
            "e": make_record("e", womac=30.0, klg0=4),
        }
        ids = ["a", "b", "c", "d", "e"]
        labels = [1, 0, 1, 0, 1]
        per_horizon = {
            12: (ids, [0.9, 0.1, 0.8, 0.2, 0.7], labels),
            24: (ids, [0.7, 0.3, 0.9, 0.1, 0.8], labels),
        }
        report = subgroup_report(records, per_horizon)
        trauma = report["trauma"]
        assert trauma["prior_surgery"]["n"] == 1
        assert trauma["injury_no_surgery"]["n"] == 1
        assert trauma["no_trauma"]["n"] == 3
        # grade 4 at baseline is dropped from the KLG family only
        assert set(report["baseline_klg"]) == {"klg_0_1", "klg_2", "klg_3"}
        assert report["baseline_klg"]["klg_0_1"]["n"] == 2
        assert report["symptoms"]["symptomatic"]["n"] == 3
        assert report["symptoms"]["asymptomatic"]["n"] == 2
        grp = report["symptoms"]["symptomatic"]  # a, c, e: labels 1, 1, 1 -> undefined
        assert grp["roc_auc"] is None and grp["average_precision"] is None
        asym = report["symptoms"]["asymptomatic"]  # b, d: labels 0, 0 -> undefined
        assert asym["roc_auc"] is None

    def test_metric_is_horizon_average(self):
        records = {i: make_record(i) for i in ["a", "b", "c", "d"]}
        ids = ["a", "b", "c", "d"]
        labels = [1, 0, 1, 0]
        s12 = [0.9, 0.1, 0.8, 0.2]
        s24 = [0.2, 0.8, 0.9, 0.1]
        report = subgroup_report(records, {12: (ids, s12, labels), 24: (ids, s24, labels)})
        got = report["trauma"]["no_trauma"]["roc_auc"]
        want = (roc_auc(s12, labels) + roc_auc(s24, labels)) / 2.0
        assert_allclose(got, want, rtol=1e-15)

    def test_only_common_ids_used(self):
        records = {i: make_record(i) for i in ["a", "b", "c", "d"]}
        per_horizon = {
            12: (["a", "b", "c", "d"], [0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0]),
            24: (["a", "b", "c"], [0.9, 0.1, 0.8], [1, 0, 1]),
        }
        report = subgroup_report(records, per_horizon)
        assert report["trauma"]["no_trauma"]["n"] == 3

    def test_contracts(self):
        records = {"a": make_record("a")}
        with pytest.raises(ContractViolation):
            subgroup_report(records, {})
        with pytest.raises(ContractViolation):
            subgroup_report(records, {12: (["a"], [0.5, 0.6], [1])})
        with pytest.raises(ContractViolation):
            subgroup_report(
                records,
                {12: (["a"], [0.5], [1]), 24: (["b"], [0.5], [0])},
            )

    def test_subject_scored_twice_at_one_horizon_refused(self):
        records = {i: make_record(i) for i in "abcd"}
        ids = ["a", "b", "c", "d"]
        per_horizon = {12: (ids, [0.9, 0.1, 0.8, 0.2], [1, 0, 1, 0]),
                       24: (ids + ["b"], [0.9, 0.1, 0.8, 0.2, 0.7], [1, 0, 1, 0, 0])}
        with pytest.raises(ContractViolation, match="horizon 24 scores subject 'b' more than once"):
            subgroup_report(records, per_horizon)
