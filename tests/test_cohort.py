import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion.cohort import (
    POOLED_LEVELS,
    VARIABLE_SETS,
    SubjectRecord,
    SynthConfig,
    assemble_dataset,
    clinical_dim,
    derive_label,
    encode_clinical,
    make_split,
    pool_klg,
    synth_cohort,
)
from koafusion.errors import ContractViolation


def record(sid="S1", klg=None, **kw):
    base = dict(
        subject_id=sid,
        age=60.0,
        sex="F",
        bmi=27.0,
        womac_total=12.0,
        prior_injury=False,
        prior_surgery=False,
        site="A",
        klg_by_visit=klg or {0: 2},
    )
    base.update(kw)
    return SubjectRecord(**base)


class TestPooling:
    def test_grades_zero_and_one_pool_together(self):
        assert pool_klg(0) == 1
        assert pool_klg(1) == 1
        assert pool_klg(2) == 2
        assert pool_klg(4) == 4

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            pool_klg(5)


class TestDeriveLabel:
    def test_progression_is_pooled_increase(self):
        rec = record(klg={0: 0, 12: 1, 24: 2})
        assert derive_label(rec, 12).status == "control"  # 0 -> 1 stays pooled
        assert derive_label(rec, 24).status == "progressor"

    def test_progression_before_horizon_counts(self):
        rec = record(klg={0: 2, 12: 3, 24: 3})
        assert derive_label(rec, 24).status == "progressor"

    def test_decrease_excludes_at_short_horizons(self):
        rec = record(klg={0: 3, 12: 2, 24: 4})
        lab = derive_label(rec, 24)
        assert lab.status == "excluded"
        assert lab.reason == "klg_decrease"

    def test_decrease_checked_before_progression(self):
        # decrease at 12 and increase at 24: exclusion wins at horizon 24
        rec = record(klg={0: 3, 12: 2, 24: 4})
        assert derive_label(rec, 24).reason == "klg_decrease"

    def test_decrease_not_applied_at_longest_horizon(self):
        rec = record(klg={0: 3, 12: 2, 96: 4})
        assert derive_label(rec, 96).status == "progressor"
        rec2 = record(klg={0: 3, 12: 2, 96: 3})
        assert derive_label(rec2, 96).status == "control"

    def test_missing_followup_excludes_controls_only(self):
        rec = record(klg={0: 2, 12: 3})
        assert derive_label(rec, 24).status == "progressor"  # progressed at 12
        rec2 = record(klg={0: 2, 12: 2})
        lab = derive_label(rec2, 24)
        assert lab.status == "excluded"
        assert lab.reason == "missing_followup"

    def test_control_requires_reading_at_horizon(self):
        rec = record(klg={0: 2, 24: 2})
        assert derive_label(rec, 24).status == "control"

    def test_unknown_horizon_rejected(self):
        with pytest.raises(ContractViolation):
            derive_label(record(), 18)

    def test_baseline_required(self):
        with pytest.raises(ContractViolation):
            record(klg={12: 2})


class TestAssemble:
    def test_excluded_subjects_dropped_and_reported(self):
        recs = [
            record("A1", klg={0: 2, 24: 3}),
            record("A2", klg={0: 2, 24: 2}),
            record("A3", klg={0: 3, 12: 2, 24: 3}),
        ]
        ds = assemble_dataset(recs, 24)
        assert ds.ids == ["A1", "A2"]
        assert ds.labels == {"A1": 1, "A2": 0}
        assert ds.excluded == {"A3": "klg_decrease"}
        assert ds.prevalence == 0.5

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ContractViolation):
            assemble_dataset([record("X"), record("X")], 24)

    def test_empty_after_exclusion_rejected(self):
        with pytest.raises(ContractViolation):
            assemble_dataset([record("X", klg={0: 2, 12: 2})], 24)


class TestSplit:
    def _dataset(self, n=60, seed=0):
        rng = np.random.default_rng(seed)
        recs = []
        for i in range(n):
            prog = rng.random() < 0.3
            site = ["A", "B", "C", "D"][int(rng.integers(4))]
            klg = {0: 2, 12: 3 if prog else 2, 24: 3 if prog else 2}
            recs.append(record(f"S{i:03d}", klg=klg, site=site))
        return assemble_dataset(recs, 24)

    def test_holdout_site_isolated(self):
        ds = self._dataset()
        plan = make_split(ds, holdout_site="D", k=5, seed=1)
        test_sites = {ds.records[i].site for i in plan.test_ids}
        assert test_sites == {"D"}
        for train, val in plan.folds:
            assert not (set(train) | set(val)) & set(plan.test_ids)

    def test_folds_partition_dev_with_stratification(self):
        ds = self._dataset()
        plan = make_split(ds, holdout_site="D", k=5, seed=1)
        dev = sorted(set(ds.ids) - set(plan.test_ids))
        seen = []
        for train, val in plan.folds:
            assert sorted(train + val) == dev
            seen.extend(val)
        assert sorted(seen) == dev  # each dev subject serves in exactly one val fold
        pos_counts = [sum(ds.labels[i] for i in val) for _, val in plan.folds]
        neg_counts = [len(val) - p for (_, val), p in zip(plan.folds, pos_counts)]
        assert max(pos_counts) - min(pos_counts) <= 1
        assert max(neg_counts) - min(neg_counts) <= 1

    def test_split_is_seed_deterministic(self):
        ds = self._dataset()
        a = make_split(ds, "D", 5, seed=3)
        b = make_split(ds, "D", 5, seed=3)
        assert a.test_ids == b.test_ids and a.folds == b.folds
        c = make_split(ds, "D", 5, seed=4)
        assert a.folds != c.folds


class TestEncodeClinical:
    def _ds(self):
        recs = [
            record("P1", age=50.0, bmi=20.0, sex="F", womac_total=5.0,
                   prior_injury=True, prior_surgery=False, klg={0: 0, 24: 2}),
            record("P2", age=70.0, bmi=30.0, sex="M", womac_total=15.0,
                   prior_injury=False, prior_surgery=True, klg={0: 2, 24: 2}),
        ]
        return assemble_dataset(recs, 24)

    def test_widths_per_variable_set(self):
        ds = self._ds()
        for vs in ("C1", "C2", "C3", "C4"):
            x, _ = encode_clinical(ds, ds.ids, vs)
            assert x.shape == (2, clinical_dim(vs))

    def test_zscore_uses_training_stats(self):
        ds = self._ds()
        x, stats = encode_clinical(ds, ds.ids, "C1")
        # age 50/70: mean 60, sd 10 -> z = -1, +1
        assert_allclose(x[:, 0], [-1.0, 1.0])
        assert stats["age"] == (60.0, 10.0)
        x2, _ = encode_clinical(ds, ["P1"], "C1", train_stats=stats)
        assert_allclose(x2[0, 0], -1.0)

    def test_one_hot_layout(self):
        ds = self._ds()
        x, _ = encode_clinical(ds, ds.ids, "C4")
        # order: age, bmi, womac, sexF, sexM, injN, injY, surgN, surgY, klg 1/2/3/4
        assert_allclose(x[0, 3:5], [1.0, 0.0])  # P1 female
        assert_allclose(x[0, 5:9], [0.0, 1.0, 1.0, 0.0])  # injury yes, surgery no
        assert_allclose(x[0, 9:], [1.0, 0.0, 0.0, 0.0])  # baseline grade 0 -> pooled 1
        assert_allclose(x[1, 9:], [0.0, 1.0, 0.0, 0.0])  # baseline grade 2

    def test_constant_variable_gets_unit_sd(self):
        recs = [record("Q1", age=60.0, klg={0: 2, 24: 3}), record("Q2", age=60.0, klg={0: 2, 24: 2})]
        ds = assemble_dataset(recs, 24)
        x, stats = encode_clinical(ds, ds.ids, "C1")
        assert stats["age"][1] == 1.0
        assert_allclose(x[:, 0], [0.0, 0.0])

    def test_unknown_set_rejected(self):
        with pytest.raises(ContractViolation):
            encode_clinical(self._ds(), ["P1"], "C9")


def _ref_encode_clinical(dataset, ids, variable_set, train_stats=None):
    """``encode_clinical`` as written before its variable table: one branch per variable."""
    if variable_set not in VARIABLE_SETS:
        raise ContractViolation(f"unknown variable set {variable_set!r}")
    vars_ = VARIABLE_SETS[variable_set]
    recs = [dataset.records[i] for i in ids]
    cont = [("age", [r.age for r in recs])]
    cont.append(("bmi", [r.bmi for r in recs]))
    if "womac" in vars_:
        cont.append(("womac", [r.womac_total for r in recs]))
    if train_stats is None:
        train_stats = {}
        for name, vals in cont:
            arr = np.asarray(vals, dtype=np.float64)
            sd = float(arr.std())
            train_stats[name] = (float(arr.mean()), sd if sd > 0 else 1.0)
    cols = []
    for name, vals in cont:
        if name not in train_stats:
            raise ContractViolation(f"train stats missing variable {name!r}")
        mean, sd = train_stats[name]
        cols.append((np.asarray(vals, dtype=np.float64) - mean) / sd)
    sex = np.array([0.0 if r.sex == "F" else 1.0 for r in recs])
    cols.append(1.0 - sex)
    cols.append(sex)
    if "prior_injury" in vars_:
        inj = np.array([1.0 if r.prior_injury else 0.0 for r in recs])
        cols.extend([1.0 - inj, inj])
        surg = np.array([1.0 if r.prior_surgery else 0.0 for r in recs])
        cols.extend([1.0 - surg, surg])
    if "klg" in vars_:
        pooled = [pool_klg(r.klg_by_visit[0]) for r in recs]
        for level in POOLED_LEVELS:
            cols.append(np.array([1.0 if p == level else 0.0 for p in pooled]))
    x = np.stack(cols, axis=1)
    return x, train_stats


@st.composite
def clinical_cohorts(draw):
    """1-8 controls whose continuous variables take few distinct values (ties), each
    variable constant across the cohort half of the time."""
    n = draw(st.integers(1, 8))

    def column(lo, hi):
        pool = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3))
        if draw(st.booleans()):
            return [pool[0]] * n
        return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))

    ages, bmis, womacs = column(40.0, 85.0), column(18.0, 45.0), column(0.0, 96.0)
    recs = []
    for i in range(n):
        grade = draw(st.integers(0, 4))
        recs.append(record(f"R{i}", age=ages[i], bmi=bmis[i], womac_total=womacs[i],
                           sex=draw(st.sampled_from(["F", "M"])), prior_injury=draw(st.booleans()),
                           prior_surgery=draw(st.booleans()), klg={0: grade, 24: grade}))
    return assemble_dataset(recs, 24)


class TestEncodeClinicalTable:
    @settings(max_examples=150, deadline=None)
    @given(ds=clinical_cohorts(), data=st.data())
    def test_matches_branch_reference(self, ds, data):
        """Same bytes and same stats as the branch reference for every variable set, with the
        stats fitted on the ids and with stats fitted on a subset and supplied."""
        train = data.draw(st.lists(st.sampled_from(ds.ids), min_size=1, unique=True))
        for vs in VARIABLE_SETS:
            x, stats = encode_clinical(ds, ds.ids, vs)
            want_x, want_stats = _ref_encode_clinical(ds, ds.ids, vs)
            assert x.shape == want_x.shape == (len(ds.ids), clinical_dim(vs))
            assert x.tobytes() == want_x.tobytes()
            assert list(stats.items()) == list(want_stats.items())
            _, fitted = _ref_encode_clinical(ds, train, vs)
            x, stats = encode_clinical(ds, ds.ids, vs, train_stats=fitted)
            want_x, _ = _ref_encode_clinical(ds, ds.ids, vs, train_stats=fitted)
            assert x.tobytes() == want_x.tobytes()
            assert stats is fitted


class TestSynth:
    def test_exact_progressor_count_and_determinism(self):
        cfg = SynthConfig(n_subjects=40, prevalence=0.15, scale=0.05, seed=5)
        recs = synth_cohort(cfg)
        ds = assemble_dataset(recs, cfg.horizon)
        assert len(ds.ids) == 40  # complete schedules: nobody excluded
        assert sum(ds.labels.values()) == 6  # round(40 * 0.15)
        recs2 = synth_cohort(cfg)
        assert [r.subject_id for r in recs2] == [r.subject_id for r in recs]
        assert all(a.klg_by_visit == b.klg_by_visit for a, b in zip(recs, recs2))

    def test_every_subject_has_full_schedule_and_images(self):
        cfg = SynthConfig(n_subjects=8, prevalence=0.25, scale=0.05, seed=2)
        for rec in synth_cohort(cfg):
            assert set(rec.klg_by_visit) == {0, 12, 24, 36, 48, 96}
            assert set(rec.image_refs) == {"XR", "DESS", "TSE", "MULTI_ECHO"}
            assert 0.0 <= rec.womac_total <= 96.0
            assert rec.sex in ("F", "M")

    def test_phantom_shapes_scale(self):
        cfg = SynthConfig(n_subjects=2, prevalence=0.5, scale=0.05, seed=3)
        rec = synth_cohort(cfg)[0]
        assert rec.image_refs["XR"].data.shape == (36, 36)
        assert rec.image_refs["DESS"].data.shape == (19, 19, 8)
        assert rec.image_refs["TSE"].data.shape == (19, 19, 2)
        assert rec.image_refs["MULTI_ECHO"].data.shape == (19, 19, 1, 7)

    def test_dess_values_are_integers_in_bit_range(self):
        cfg = SynthConfig(n_subjects=2, prevalence=0.5, scale=0.05, seed=4)
        rec = synth_cohort(cfg)[0]
        dess = rec.image_refs["DESS"].data
        assert np.all(dess == np.floor(dess))
        assert dess.min() >= 0 and dess.max() < 2**11

    def test_effect_size_moves_ring_decay(self):
        base = dict(n_subjects=30, prevalence=0.5, scale=0.05)
        recs_on = synth_cohort(SynthConfig(seed=6, effect_size=1.0, **base))
        recs_off = synth_cohort(SynthConfig(seed=6, effect_size=0.0, **base))
        ds = assemble_dataset(recs_on, 24)

        def ring_mean(rec):
            stack = rec.image_refs["MULTI_ECHO"].data
            first = stack[..., 0]
            # the ring is the brightest structure in the first echo
            return first[first > np.percentile(first[first > 0], 60)].mean()

        on_gap, off_gap = [], []
        for recs, sink in ((recs_on, on_gap), (recs_off, off_gap)):
            prog = [ring_mean(r) for r in recs if ds.labels[r.subject_id] == 1]
            ctrl = [ring_mean(r) for r in recs if ds.labels[r.subject_id] == 0]
            sink.append(abs(np.mean(prog) - np.mean(ctrl)))
        assert on_gap[0] > off_gap[0]

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            SynthConfig(n_subjects=1)
        with pytest.raises(ContractViolation):
            SynthConfig(prevalence=0.0)
        with pytest.raises(ContractViolation):
            SynthConfig(scale=1.5)
        with pytest.raises(ContractViolation):
            SynthConfig(horizon=18)
