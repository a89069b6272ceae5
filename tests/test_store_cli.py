import json
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from koafusion import cli
from koafusion.cli import main
from koafusion.cohort import SubjectRecord
from koafusion.errors import ContractViolation, NonFiniteValue
from koafusion.imaging import Volume
from koafusion.relaxometry import MultiEchoVolume
from koafusion.store import canonical_json, load_cohort, save_cohort
from koafusion.vol1 import read_vol1


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": {"z": 2, "y": 3}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"y"') < text.index('"z"')

    def test_stable(self):
        obj = {"x": [1, 2, 3], "y": "s"}
        assert canonical_json(obj) == canonical_json(json.loads(canonical_json(obj)))


def sample_records():
    rng = np.random.default_rng(0)
    me = MultiEchoVolume(
        rng.uniform(1, 100, size=(4, 4, 2, 3)),
        echo_times=np.array([10.0, 20.0, 30.0]),
        spacing=(0.5, 0.5, 3.0),
    )
    xr = Volume(rng.integers(0, 4096, size=(6, 6)).astype(np.uint16),
                spacing=(0.2, 0.2), dtype_bits=12)
    rec_a = SubjectRecord(
        subject_id="a01", age=61.5, sex="F", bmi=28.1, womac_total=12.0,
        prior_injury=True, prior_surgery=False, site="B",
        klg_by_visit={0: 2, 24: 3},
        image_refs={"MULTI_ECHO": me, "XR": xr},
    )
    rec_b = SubjectRecord(
        subject_id="b02", age=55.0, sex="M", bmi=31.0, womac_total=4.0,
        prior_injury=False, prior_surgery=True, site="C",
        klg_by_visit={0: 1},
        image_refs={},
    )
    return [rec_a, rec_b]


class TestCohortStore:
    def test_roundtrip(self, tmp_path):
        records = sample_records()
        manifest = save_cohort(iter(records), tmp_path / "cohort")
        assert manifest.name == "cohort.json"
        loaded = load_cohort(manifest)
        assert [r.subject_id for r in loaded] == ["a01", "b02"]
        a = loaded[0]
        assert a.age == 61.5 and a.sex == "F" and a.site == "B"
        assert a.klg_by_visit == {0: 2, 24: 3}
        assert a.prior_injury and not a.prior_surgery
        assert set(a.image_refs) == {"MULTI_ECHO", "XR"}
        ref = a.image_refs["MULTI_ECHO"]
        assert ref["echo_times"] == [10.0, 20.0, 30.0]
        data, spacing = read_vol1(ref["path"])
        assert data.shape == (4, 4, 2, 3)
        assert_allclose(spacing[:3], [0.5, 0.5, 3.0])
        xr_ref = a.image_refs["XR"]
        assert xr_ref["dtype_bits"] == 12
        xr_data, xr_spacing = read_vol1(xr_ref["path"])
        assert xr_data.dtype == np.uint16 and xr_data.shape == (6, 6)

    def test_image_payload_preserved(self, tmp_path):
        records = sample_records()
        manifest = save_cohort(records, tmp_path / "cohort")
        loaded = load_cohort(manifest)
        data, _ = read_vol1(loaded[0].image_refs["MULTI_ECHO"]["path"])
        assert_allclose(data, records[0].image_refs["MULTI_ECHO"].data, rtol=0, atol=0)

    def test_resave_keeps_existing_entries(self, tmp_path):
        manifest = save_cohort(sample_records(), tmp_path / "one")
        loaded = load_cohort(manifest)
        again = save_cohort(loaded, tmp_path / "two")
        reloaded = load_cohort(again)
        # dict references pass through untouched, still pointing at first copy
        assert reloaded[0].image_refs["XR"]["path"].startswith(str(tmp_path / "two" / "one")) is False
        data, _ = read_vol1(reloaded[0].image_refs["XR"]["path"])
        assert data.shape == (6, 6)

    def test_resave_from_relative_manifest_path_resolves(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_cohort(sample_records(), "one")
        again = save_cohort(load_cohort("one/cohort.json"), "two")
        for rec in load_cohort(again):
            for ref in rec.image_refs.values():
                read_vol1(ref["path"])

    def test_wrong_format_rejected(self, tmp_path):
        bad = tmp_path / "cohort.json"
        bad.write_text(canonical_json({"format": "other/9", "subjects": []}))
        with pytest.raises(ContractViolation):
            load_cohort(bad)

    def test_unsupported_reference_rejected(self, tmp_path):
        rec = sample_records()[1]
        rec.image_refs = {"XR": np.zeros((3, 3))}
        with pytest.raises(ContractViolation):
            save_cohort([rec], tmp_path / "cohort")


class TestCliUsage:
    def test_no_command(self, capsys):
        assert main([]) == 64
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_required_argument(self, capsys):
        assert main(["synth"]) == 64

    def test_bad_choice(self, capsys):
        assert main(["preprocess", "--cohort", "x", "--subject", "s",
                     "--protocol", "PETSCAN", "--out", "o"]) == 64


class TestCliRank:
    def test_reference_table(self, tmp_path, capsys):
        out = tmp_path / "rank"
        assert main(["rank", "--out", str(out)]) == 0
        assert "winner F8" in capsys.readouterr().out
        report = json.loads((out / "rank_report.json").read_text())
        assert report["winner"] == "F8"
        assert report["tied"] is False
        assert report["totals"]["F8"] == 29.5
        assert len(report["config_hash"]) == 16

    def test_report_bytes_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["rank", "--out", str(out1)]) == 0
        assert main(["rank", "--out", str(out2)]) == 0
        b1 = (out1 / "rank_report.json").read_bytes()
        b2 = (out2 / "rank_report.json").read_bytes()
        # reports embed arguments, which differ only in the out path
        r1 = json.loads(b1)
        r2 = json.loads(b2)
        assert r1["winner"] == r2["winner"] and r1["totals"] == r2["totals"]

    def test_custom_table(self, tmp_path):
        table = {
            "settings": ["A", "B"],
            "metrics": ["roc_auc"],
            "horizons": [12],
            "values": {"A": {"roc_auc": [0.7]}, "B": {"roc_auc": [0.9]}},
        }
        tpath = tmp_path / "table.json"
        tpath.write_text(json.dumps(table))
        out = tmp_path / "rank"
        assert main(["rank", "--table", str(tpath), "--out", str(out)]) == 0
        report = json.loads((out / "rank_report.json").read_text())
        assert report["winner"] == "B"


@pytest.fixture(scope="module")
def tiny_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("cohort")
    code = main(["synth", "--out", str(root), "--n", "6", "--prevalence", "0.15",
                 "--scale", "0.05", "--seed", "1"])
    assert code == 0
    return root


class TestCliPipelineCommands:
    def test_synth_outputs(self, tiny_cohort):
        manifest = json.loads((tiny_cohort / "cohort.json").read_text())
        assert manifest["format"] == "cohort/1"
        assert len(manifest["subjects"]) == 6
        report = json.loads((tiny_cohort / "synth_report.json").read_text())
        assert report["n_progressors"] == 1  # round(6 * 0.15)
        sids = [e["subject_id"] for e in manifest["subjects"]]
        assert sids == [f"S{i:04d}" for i in range(6)]
        for entry in manifest["subjects"]:
            assert {"XR", "DESS", "TSE", "MULTI_ECHO"} <= set(entry["images"])

    def test_fit_t2_adds_maps(self, tiny_cohort, tmp_path, capsys):
        out = tmp_path / "t2"
        code = main(["fit-t2", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "cohort.json").read_text())
        for entry in manifest["subjects"]:
            assert "T2MAP" in entry["images"]
            t2_path = out / entry["images"]["T2MAP"]["path"]
            data, _ = read_vol1(t2_path)
            assert data.ndim == 3
            assert np.all(data >= 0) and np.all(data <= 100 + 1e-9)
        report = json.loads((out / "fit_report.json").read_text())
        for stats in report["subjects"].values():
            assert 0.0 <= stats["valid_fraction"] <= 1.0
        # rewired references must resolve from the new manifest
        records = load_cohort(out / "cohort.json")
        ref = records[0].image_refs["XR"]
        read_vol1(ref["path"])

    @pytest.mark.parametrize("protocol", ["XR", "DESS", "TSE"])
    def test_preprocess_protocols(self, tiny_cohort, tmp_path, protocol):
        out = tmp_path / f"prep_{protocol}"
        code = main(["preprocess", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--subject", "S0000", "--protocol", protocol,
                     "--scale", "0.05", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["stages"][-1] == "renormalize"
        data, _ = read_vol1(out / report["output"])
        assert abs(data.mean()) <= 1e-6
        assert abs(float(data.max() - data.min()) - 1.0) <= 1e-6

    def test_preprocess_t2map_from_echoes(self, tiny_cohort, tmp_path):
        out = tmp_path / "prep_t2"
        code = main(["preprocess", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--subject", "S0001", "--protocol", "T2MAP",
                     "--scale", "0.05", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "preprocess_report.json").read_text())
        assert "value_clip" in report["stages"]

    def test_preprocess_unknown_subject(self, tiny_cohort, tmp_path, capsys):
        code = main(["preprocess", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--subject", "nobody", "--protocol", "XR",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_subgroups_from_scores(self, tiny_cohort, tmp_path):
        manifest = json.loads((tiny_cohort / "cohort.json").read_text())
        ids = [e["subject_id"] for e in manifest["subjects"]]
        rng = np.random.default_rng(0)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for h in (12, 24):
            labels = [1, 0, 1, 0, 0, 1]
            payload = {"horizon": h, "ids": ids,
                       "scores": [float(s) for s in rng.random(len(ids))],
                       "labels": labels}
            (scores_dir / f"h{h}.json").write_text(canonical_json(payload))
        out = tmp_path / "sub"
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", f"12:{scores_dir / 'h12.json'}",
                     "--scores", f"24:{scores_dir / 'h24.json'}",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "subgroups_report.json").read_text())
        assert set(report["subgroups"]) == {"trauma", "baseline_klg", "symptoms"}
        total = sum(g["n"] for g in report["subgroups"]["trauma"].values())
        assert total == 6

    def test_subgroups_bad_scores_spec(self, tiny_cohort, tmp_path, capsys):
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", "12", "--out", str(tmp_path / "s")])
        assert code == 2

    def test_eval_missing_run_dir(self, tiny_cohort, tmp_path, capsys):
        code = main(["eval", "--run", str(tmp_path / "nope"),
                     "--cohort", str(tiny_cohort / "cohort.json"),
                     "--out", str(tmp_path / "e")])
        assert code == 2


@pytest.fixture(scope="module")
def run_cohort(tmp_path_factory):
    root = tmp_path_factory.mktemp("run_cohort")
    assert main(["synth", "--out", str(root), "--n", "16", "--prevalence", "0.25",
                 "--scale", "0.05", "--seed", "2"]) == 0
    return root / "cohort.json"


def _train(manifest, out, folds):
    return main(["train", "--cohort", str(manifest), "--arch", "XR1", "--scale", "0.05",
                 "--epochs", "1", "--descriptor-dim", "8", "--trf-layers", "1",
                 "--trf-heads", "2", "--folds", str(folds), "--out", str(out)])


def _eval_and_ablate(manifest, run, tmp_path):
    eval_code = main(["eval", "--run", str(run), "--cohort", str(manifest),
                      "--bootstrap", "20", "--out", str(tmp_path / "eval")])
    ablate_code = main(["ablate", "--run", str(run), "--cohort", str(manifest),
                        "--out", str(tmp_path / "abl")])
    return eval_code, ablate_code


@pytest.fixture(scope="module")
def two_fold_run(run_cohort, tmp_path_factory):
    run = tmp_path_factory.mktemp("runs") / "run2"
    assert _train(run_cohort, run, 2) == 0
    return run


class TestCliRunDirectory:
    def test_intact_run_evaluates(self, run_cohort, two_fold_run, tmp_path):
        assert _eval_and_ablate(run_cohort, two_fold_run, tmp_path) == (0, 0)
        config = json.loads((two_fold_run / "config.json").read_text())
        assert config["config"]["folds"] == 2
        assert sorted(p.name for p in two_fold_run.iterdir()) == [
            "config.json", "fold_0", "fold_1", "summary.json"]

    def test_stale_fold_from_a_larger_run_rejected(self, run_cohort, two_fold_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        shutil.copytree(run / "fold_1", run / "fold_2")
        capsys.readouterr()
        assert _eval_and_ablate(run_cohort, run, tmp_path) == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("fold_2" in line for line in err)
        assert not (tmp_path / "eval").exists()

    def test_retrain_with_fewer_folds_deletes_stale_folds(self, run_cohort, tmp_path):
        run = tmp_path / "run"
        assert _train(run_cohort, run, 3) == 0
        assert _train(run_cohort, run, 2) == 0
        assert sorted(p.name for p in run.glob("fold_*")) == ["fold_0", "fold_1"]
        eval_code = main(["eval", "--run", str(run), "--cohort", str(run_cohort),
                          "--bootstrap", "20", "--out", str(tmp_path / "eval")])
        assert eval_code == 0

    def test_missing_fold_rejected(self, run_cohort, two_fold_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        shutil.rmtree(run / "fold_1")
        capsys.readouterr()
        assert _eval_and_ablate(run_cohort, run, tmp_path) == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all("fold_1" in line for line in err)

    @pytest.mark.parametrize("keep", [0.0, 0.01, 0.5, 0.999])
    def test_truncated_checkpoint_rejected(self, run_cohort, two_fold_run, tmp_path, capsys, keep):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        ckpt = run / "fold_1" / "checkpoint.bin"
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw[: int(len(raw) * keep)])
        capsys.readouterr()
        assert _eval_and_ablate(run_cohort, run, tmp_path) == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def _one_error_line(capsys) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


class TestCliCorruptInputs:
    """Each bad input file makes the CLI exit 2 with a one-line message."""

    @pytest.fixture
    def cohort_copy(self, tiny_cohort, tmp_path):
        root = tmp_path / "cohort"
        shutil.copytree(tiny_cohort, root)
        return root

    def _fit_t2(self, cohort, tmp_path):
        return main(["fit-t2", "--cohort", str(cohort / "cohort.json"), "--out", str(tmp_path / "t2")])

    def test_vol1_cut_at_byte_7(self, cohort_copy, tmp_path, capsys):
        image = cohort_copy / "images" / "S0000_MULTI_ECHO.vol1"
        image.write_bytes(image.read_bytes()[:7])
        assert self._fit_t2(cohort_copy, tmp_path) == 2
        assert _one_error_line(capsys)

    def test_missing_vol1(self, cohort_copy, tmp_path, capsys):
        (cohort_copy / "images" / "S0000_MULTI_ECHO.vol1").unlink()
        assert self._fit_t2(cohort_copy, tmp_path) == 2
        assert _one_error_line(capsys)

    def test_missing_manifest(self, tmp_path, capsys):
        assert self._fit_t2(tmp_path / "nowhere", tmp_path) == 2
        assert _one_error_line(capsys)

    def test_corrupt_manifest(self, cohort_copy, tmp_path, capsys):
        (cohort_copy / "cohort.json").write_text("{")
        assert self._fit_t2(cohort_copy, tmp_path) == 2
        assert _one_error_line(capsys)

    def test_manifest_entry_missing_age(self, cohort_copy, tmp_path, capsys):
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        del manifest["subjects"][2]["age"]
        (cohort_copy / "cohort.json").write_text(canonical_json(manifest))
        assert self._fit_t2(cohort_copy, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "entry 2" in err[0] and "'age'" in err[0]

    def test_missing_rank_table(self, tmp_path, capsys):
        assert main(["rank", "--table", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r")]) == 2
        assert _one_error_line(capsys)

    def test_rank_table_without_values(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"settings": ["A"], "metrics": ["roc_auc"], "horizons": [12]}))
        assert main(["rank", "--table", str(table), "--out", str(tmp_path / "r")]) == 2
        assert _one_error_line(capsys)

    def test_corrupt_run_config(self, run_cohort, two_fold_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        (run / "config.json").write_text("{")
        capsys.readouterr()
        assert _eval_and_ablate(run_cohort, run, tmp_path) == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("field, value", [(None, {"config": {}}), ("folds", "2"), ("clinical_set", "C9"),
                                              ("scale", -1), ("scale", 0)])
    def test_bad_run_config(self, run_cohort, two_fold_run, tmp_path, capsys, field, value):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        config = json.loads((run / "config.json").read_text())
        if field is None:
            config = value
        else:
            config["config"][field] = value
        (run / "config.json").write_text(canonical_json(config))
        capsys.readouterr()
        assert _eval_and_ablate(run_cohort, run, tmp_path) == (2, 2)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("command, bad", [
        ("eval", ["--bootstrap", "1"]), ("eval", ["--target-prevalence", "2"]), ("baseline", ["--bootstrap", "1"]),
    ])
    def test_failed_metric_leaves_no_scores(self, run_cohort, two_fold_run, tmp_path, capsys, command, bad):
        if command == "eval":
            argv = ["eval", "--run", str(two_fold_run), "--cohort", str(run_cohort)]
        else:
            argv = ["baseline", "--cohort", str(run_cohort), "--variable-set", "C1", "--folds", "2"]
        capsys.readouterr()
        assert main(argv + bad + ["--out", str(tmp_path / "out")]) == 2
        assert _one_error_line(capsys)
        assert not (tmp_path / "out" / "scores.json").exists()

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_preprocess_scale_must_be_finite_and_positive(self, tiny_cohort, tmp_path, capsys, scale):
        code = main(["preprocess", "--cohort", str(tiny_cohort / "cohort.json"), "--subject", "S0000",
                     "--protocol", "XR", "--scale", scale, "--out", str(tmp_path / "p")])
        assert code == 2
        assert _one_error_line(capsys)
        assert not (tmp_path / "p").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--scale", "-1"), ("--scale", "inf"), ("--batch-size", "0"), ("--batch-size", "-3"),
        ("--trf-heads", "0"), ("--descriptor-dim", "0"), ("--epochs", "0"), ("--epochs", "-2"),
    ])
    def test_train_numeric_flags(self, run_cohort, tmp_path, capsys, flag, value):
        code = main(["train", "--cohort", str(run_cohort), "--arch", "XR1", "--scale", "0.05",
                     "--epochs", "1", "--descriptor-dim", "8", "--trf-layers", "1", "--trf-heads", "2",
                     "--folds", "2", flag, value, "--out", str(tmp_path / "run")])
        assert code == 2
        assert _one_error_line(capsys)
        assert not (tmp_path / "run").exists()

    def test_train_zero_epochs_leaves_out_untouched(self, run_cohort, two_fold_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        before = {p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()}
        code = main(["train", "--cohort", str(run_cohort), "--arch", "XR1", "--epochs", "0",
                     "--folds", "2", "--out", str(run)])
        assert code == 2
        assert _one_error_line(capsys)
        assert {p.relative_to(run): p.read_bytes() for p in sorted(run.rglob("*")) if p.is_file()} == before

    @pytest.mark.parametrize("payload", [
        {"settings": 5, "metrics": ["roc_auc"], "horizons": [12], "values": {"A": {"roc_auc": [0.7]}}},
        {"settings": [], "metrics": [], "horizons": [], "values": {}},
    ])
    def test_bad_rank_table(self, tmp_path, capsys, payload):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(payload))
        assert main(["rank", "--table", str(table), "--out", str(tmp_path / "r")]) == 2
        assert _one_error_line(capsys)

    @pytest.mark.parametrize("payload", [
        {"ids": 5, "scores": [0.5], "labels": [1]},
        {"ids": ["nobody"], "scores": [0.5], "labels": [1]},
    ])
    def test_bad_subgroup_scores_payload(self, tiny_cohort, tmp_path, capsys, payload):
        scores = tmp_path / "h24.json"
        scores.write_text(json.dumps(payload))
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", f"24:{scores}", "--out", str(tmp_path / "s")])
        assert code == 2
        assert _one_error_line(capsys)

    @pytest.mark.parametrize("spec", ["24:{missing}", "x:{missing}"])
    def test_bad_subgroup_scores(self, tiny_cohort, tmp_path, capsys, spec):
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", spec.format(missing=tmp_path / "nope.json"), "--out", str(tmp_path / "s")])
        assert code == 2
        assert _one_error_line(capsys)

    def test_non_finite_numerics(self, run_cohort, tmp_path, monkeypatch, capsys):
        def diverge(*args, **kwargs):
            raise NonFiniteValue("loss became nan")

        monkeypatch.setattr(cli, "train_cv", diverge)
        assert _train(run_cohort, tmp_path / "run", 2) == 2
        assert _one_error_line(capsys)
