import ast
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion import baselines, cli, store
from koafusion.cli import main
from koafusion.cohort import VARIABLE_SETS, SubjectRecord, assemble_dataset
from koafusion.errors import ContractViolation, NonFiniteValue
from koafusion.imaging import Volume
from koafusion.models import ARCH_KINDS
from koafusion.relaxometry import MultiEchoVolume
from koafusion.store import canonical_json, load_cohort, save_cohort
from koafusion.vol1 import read_vol1


class _Interrupt(Exception):
    pass


def _counting(real, calls: list, k: int):
    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == k:
            raise _Interrupt(f"call {k}")
        return real(*args, **kwargs)

    return wrapper


def _interrupted_runs(targets, command):
    """Run *command* with the k-th call across the ``(module, name)`` *targets* raising
    ``_Interrupt``, for k = 1, 2, ... until a run completes (it must return 0).  Yields k
    after each interrupted run, with the targets restored."""
    k = 0
    while True:
        k += 1
        calls = []
        with pytest.MonkeyPatch.context() as m:
            for module, name in targets:
                m.setattr(module, name, _counting(getattr(module, name), calls, k))
            try:
                code = command()
            except _Interrupt:
                code = None
        if code is not None:
            assert code == 0
            return
        yield k


def _files(root) -> dict:
    """Relative path -> bytes for every file under *root*, hidden ones included."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


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

    @pytest.mark.parametrize("command", ["synth", "fit-t2"])
    def test_interrupted_save_leaves_no_manifest(self, tiny_cohort, tmp_path, capsys, command):
        """Over an existing cohort, an interrupted synth or fit-t2 leaves no manifest at all,
        never the old one pointing at a mix of old and new images."""
        out = tmp_path / "out"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--n", "3", "--scale", "0.05"]
            assert main(argv + ["--seed", "1"]) == 0
            argv += ["--seed", "5"]
        else:
            argv = ["fit-t2", "--cohort", str(tiny_cohort / "cohort.json"), "--out", str(out)]
            assert main(argv) == 0
        interrupted = []
        for k in _interrupted_runs([(store, "write_vol1"), (cli, "write_vol1")], lambda: main(argv)):
            interrupted.append(k)
            assert not (out / "cohort.json").exists()
            assert not list(out.rglob("*.partial"))
            capsys.readouterr()
            assert main(["fit-t2", "--cohort", str(out / "cohort.json"), "--out", str(tmp_path / "t2")]) == 2
            assert _one_error_line(capsys)
        written = load_cohort(out / "cohort.json")
        n_images = sum(len(r.image_refs) for r in written) if command == "synth" else len(written)
        assert interrupted == list(range(1, n_images + 1))


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


def test_parser_choices_are_the_vocabulary_tables():
    """train --arch, --clinical-set and baseline --variable-set offer exactly the kinds and sets
    the library defines, in its order."""
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    choices = {(cmd, a.dest): a.choices for cmd, p in commands.items() for a in p._actions if a.choices}
    assert choices[("train", "arch")] == list(ARCH_KINDS)
    assert choices[("train", "clinical_set")] == list(VARIABLE_SETS)
    assert choices[("baseline", "variable_set")] == list(VARIABLE_SETS)


def test_commands_commit_only_through_main():
    """No command handler reads ``args.out``: main hands each its output dir, for a report
    command the partial dir it swaps in whole, so no command writes around the swap.  And
    every command but the two cohort writers is a report command listed in ``_OUTPUTS``."""
    handlers = [node for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")]
    readers = sorted({h.name for h in handlers for node in ast.walk(h)
                      if isinstance(node, ast.Attribute) and node.attr == "out"})
    assert not readers, f"handlers reading args.out: {readers}"
    commands = {h.name.removeprefix("_cmd_").replace("_", "-") for h in handlers}
    assert commands - set(cli._OUTPUTS) == {"synth", "fit-t2"} and set(cli._OUTPUTS) <= commands


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

    def test_duplicate_settings_refused(self, tmp_path, capsys):
        table = {
            "settings": ["A", "A", "B"],
            "metrics": ["roc_auc"],
            "horizons": [12, 12],
            "values": {"A": {"roc_auc": [0.9, 0.9]}, "B": {"roc_auc": [0.1, 0.1]}},
        }
        tpath = tmp_path / "table.json"
        tpath.write_text(json.dumps(table))
        assert main(["rank", "--table", str(tpath), "--out", str(tmp_path / "rank")]) == 2
        assert "duplicate setting" in capsys.readouterr().err
        assert not (tmp_path / "rank").exists()

    @pytest.mark.parametrize("empty", ["metrics", "horizons"])
    def test_empty_metrics_or_horizons_refused(self, tmp_path, capsys, empty):
        """A table with no (metric, horizon) cell ranks nothing, so it is refused."""
        table = {"settings": ["A", "B"], "metrics": ["roc_auc"], "horizons": [12], empty: []}
        table["values"] = {s: {m: [0.5] * len(table["horizons"]) for m in table["metrics"]} for s in "AB"}
        tpath = tmp_path / "table.json"
        tpath.write_text(json.dumps(table))
        capsys.readouterr()
        assert main(["rank", "--table", str(tpath), "--out", str(tmp_path / "rank")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and empty[:-1] in err
        assert not (tmp_path / "rank").exists()


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

    def test_preprocess_of_another_protocol_replaces_the_first(self, tiny_cohort, tmp_path):
        """A second preprocess into the same --out leaves exactly its own .vol1 and a report naming it."""
        out = tmp_path / "prep"
        argv = ["preprocess", "--cohort", str(tiny_cohort / "cohort.json"), "--subject", "S0000",
                "--scale", "0.05", "--out", str(out)]
        assert main(argv + ["--protocol", "XR"]) == 0
        assert main(argv + ["--protocol", "DESS"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["S0000_DESS_eval.vol1", "preprocess_report.json"]
        report = json.loads((out / "preprocess_report.json").read_text())
        assert report["output"] == "S0000_DESS_eval.vol1" and report["config"]["protocol"] == "DESS"

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-8"])
    def test_fit_t2_tolerance_must_be_finite_and_positive(self, tiny_cohort, tmp_path, capsys, tolerance):
        capsys.readouterr()
        code = main(["fit-t2", "--cohort", str(tiny_cohort / "cohort.json"),
                     f"--tolerance={tolerance}", "--out", str(tmp_path / "t2")])
        assert code == 2 and _one_error_line(capsys)
        assert not (tmp_path / "t2" / "cohort.json").exists()

    @pytest.mark.parametrize("effect_size", ["nan", "inf", "-inf"])
    def test_synth_effect_size_must_be_finite(self, tmp_path, capsys, effect_size):
        """inf * 0 is NaN, so a non-finite effect size would blank even a control's cartilage ring."""
        capsys.readouterr()
        code = main(["synth", "--out", str(tmp_path / "c"), "--n", "4", "--scale", "0.05",
                     f"--effect-size={effect_size}"])
        assert code == 2 and _one_error_line(capsys)
        assert not (tmp_path / "c" / "cohort.json").exists()

    def test_negative_exponent_value_is_joined_with_equals(self, tmp_path):
        """The documented ``=`` form passes a negative value in exponent form on
        every Python (older argparse reads a separate ``-1e-3`` as an option)."""
        out = tmp_path / "c"
        assert main(["synth", "--n", "4", "--scale", "0.05", "--out", str(out), "--effect-size=-1e-3"]) == 0
        assert (out / "cohort.json").exists()

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

    def test_subgroups_subject_scored_twice(self, tiny_cohort, tmp_path, capsys):
        manifest = json.loads((tiny_cohort / "cohort.json").read_text())
        ids = [e["subject_id"] for e in manifest["subjects"]]
        scores = tmp_path / "h24.json"
        scores.write_text(canonical_json({"ids": ids + ids[:1], "scores": [0.5] * (len(ids) + 1),
                                          "labels": [1, 0, 1, 0, 0, 1, 1]}))
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", f"24:{scores}", "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "horizon 24" in err and repr(ids[0]) in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("second_exists", [True, False])
    def test_subgroups_horizon_given_twice(self, tiny_cohort, tmp_path, capsys, second_exists):
        """A second file for one horizon would replace the first; it is refused before it is read."""
        manifest = json.loads((tiny_cohort / "cohort.json").read_text())
        ids = [e["subject_id"] for e in manifest["subjects"]]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for path in (first, second) if second_exists else (first,):
            path.write_text(canonical_json({"ids": ids, "scores": [0.5] * len(ids),
                                            "labels": [1, 0, 1, 0, 0, 1]}))
        capsys.readouterr()
        code = main(["subgroups", "--cohort", str(tiny_cohort / "cohort.json"),
                     "--scores", f"24:{first}", "--scores", f"24:{second}", "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: horizon 24 ")
        assert str(first) in err and str(second) in err
        assert not (tmp_path / "s").exists()

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


def _train(manifest, out, folds, *extra):
    return main(["train", "--cohort", str(manifest), "--arch", "XR1", "--scale", "0.05",
                 "--epochs", "1", "--descriptor-dim", "8", "--trf-layers", "1",
                 "--trf-heads", "2", "--folds", str(folds), *extra, "--out", str(out)])


def _eval(manifest, run, out, *extra):
    return main(["eval", "--run", str(run), "--cohort", str(manifest), "--bootstrap", "20", *extra,
                 "--out", str(out)])


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


# the report commands test_scored_commands_* run (train has its own tests), and for each
# an entry another command writes that the first does not: for preprocess, a cohort image
_REPORT_COMMANDS = ["eval", "baseline", "ablate", "preprocess", "rank", "subgroups"]
_FOREIGN_ENTRY = {"eval": "baseline_report.json", "baseline": "metrics.json", "ablate": "metrics.json",
                 "preprocess": "S0000_XR.vol1", "rank": "subgroups_report.json",
                 "subgroups": "ablate_report.json"}


@pytest.fixture(scope="module")
def report_argv(run_cohort, two_fold_run, tmp_path_factory):
    """command -> (argv without --out, extra args for a rerun that changes the output, if the
    command has any); eval and ablate read the 2-fold run."""
    inputs = tmp_path_factory.mktemp("report_inputs")
    ids = [r.subject_id for r in load_cohort(run_cohort)]
    (inputs / "scores.json").write_text(canonical_json(
        {"ids": ids, "scores": [i / len(ids) for i in range(len(ids))], "labels": [i % 2 for i in range(len(ids))]}))
    (inputs / "table.json").write_text(canonical_json(
        {"settings": ["A", "B"], "metrics": ["roc_auc"], "horizons": [12],
         "values": {"A": {"roc_auc": [0.7]}, "B": {"roc_auc": [0.9]}}}))
    run, cohort = str(two_fold_run), str(run_cohort)
    return {
        "eval": (["eval", "--run", run, "--cohort", cohort, "--bootstrap", "20"], ["--seed", "1"]),
        "baseline": (["baseline", "--cohort", cohort, "--variable-set", "C1", "--folds", "2", "--bootstrap", "20"],
                     ["--seed", "1"]),
        "ablate": (["ablate", "--run", run, "--cohort", cohort], []),
        "preprocess": (["preprocess", "--cohort", cohort, "--subject", "S0000", "--protocol", "XR",
                        "--scale", "0.05"], ["--scale", "0.04"]),
        "rank": (["rank"], ["--table", str(inputs / "table.json")]),
        "subgroups": (["subgroups", "--cohort", cohort, "--scores", f"24:{inputs / 'scores.json'}"],
                      ["--scores", f"12:{inputs / 'scores.json'}"]),
    }


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

    def test_interrupted_retrain_keeps_previous_run(self, run_cohort, two_fold_run, tmp_path, monkeypatch):
        """A 3-fold seed-1 retrain over a 2-fold run, interrupted at each os.replace in turn
        (every file write and both renames of the swap), leaves the old run byte for byte."""
        run = tmp_path / "run"
        shutil.copytree(two_fold_run, run)
        before = _files(run)
        assert _eval(run_cohort, run, tmp_path / "eval") == 0
        scores = (tmp_path / "eval" / "scores.json").read_bytes()
        cache = {}
        real_train_cv = cli.train_cv

        def train_once(*args, **kwargs):  # every retrain below saves the same trained folds
            if "cv" not in cache:
                cache["cv"] = real_train_cv(*args, **kwargs)
            return cache["cv"]

        monkeypatch.setattr(cli, "train_cv", train_once)
        interrupted = []
        for k in _interrupted_runs([(os, "replace")], lambda: _train(run_cohort, run, 3, "--seed", "1")):
            interrupted.append(k)
            assert _files(run) == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["eval", "run"]
            assert _eval(run_cohort, run, tmp_path / "eval") == 0
            assert (tmp_path / "eval" / "scores.json").read_bytes() == scores
        # 3 checkpoints, 3 histories, config.json, summary.json, then out -> aside, partial -> out
        assert interrupted == list(range(1, 11))
        assert json.loads((run / "config.json").read_text())["config"]["folds"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval", "run"]

    def test_interrupted_eval_keeps_previous_output(self, run_cohort, two_fold_run, tmp_path):
        out = tmp_path / "eval"
        assert _eval(run_cohort, two_fold_run, out) == 0
        before = _files(out)
        interrupted = []
        for k in _interrupted_runs([(os, "replace")],
                                   lambda: _eval(run_cohort, two_fold_run, out, "--seed", "1")):
            interrupted.append(k)
            assert _files(out) == before
        # scores.json, metrics.json, then out -> aside, partial -> out
        assert interrupted == [1, 2, 3, 4]
        after = _files(out)
        assert after["metrics.json"] != before["metrics.json"]
        assert after["scores.json"] == before["scores.json"]

    def test_interrupted_eval_of_another_run_leaves_whole_files(self, run_cohort, two_fold_run, tmp_path):
        """Every interrupted state is wholly the previous output or wholly the new one:
        scores.json and metrics.json always come from the same eval."""
        other = tmp_path / "run3"
        assert _train(run_cohort, other, 3) == 0
        out = tmp_path / "eval"
        assert _eval(run_cohort, two_fold_run, out) == 0
        before, states = _files(out), []
        for _ in _interrupted_runs([(os, "replace")], lambda: _eval(run_cohort, other, out)):
            states.append(_files(out))
            assert sorted(p.name for p in tmp_path.iterdir()) == ["eval", "run3"]
        after = _files(out)
        assert len(states) == 4 and before["scores.json"] != after["scores.json"]
        assert before["metrics.json"] != after["metrics.json"]
        assert all(state in (before, after) for state in states)

    @pytest.mark.parametrize("command", _REPORT_COMMANDS)
    @pytest.mark.parametrize("kind", ["stray file", "other report", "plain file", "empty dir as ."])
    def test_scored_commands_refuse_foreign_out(self, report_argv, tmp_path, monkeypatch, capsys, command, kind):
        out = tmp_path / "out"
        if kind == "plain file":
            out.write_text("keep")
        elif kind == "empty dir as .":
            out.mkdir()
            monkeypatch.chdir(out)
        else:
            out.mkdir()
            (out / cli._OUTPUTS[command][0]).write_text("{}")
            (out / ("notes.txt" if kind == "stray file" else _FOREIGN_ENTRY[command])).write_text("keep")
        before = _files(out) if out.is_dir() else out.read_bytes()
        argv, _ = report_argv[command]
        capsys.readouterr()
        assert main(argv + ["--out", "." if kind == "empty dir as ." else str(out)]) == 2
        assert _one_error_line(capsys)
        assert (_files(out) if out.is_dir() else out.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("command", _REPORT_COMMANDS)
    def test_scored_commands_replace_their_own_out(self, report_argv, tmp_path, command):
        """A rerun replaces the command's own --out whole: stale bytes in its files and a
        stale entry of one of its kinds (another subject's .vol1, say) are gone."""
        out = tmp_path / "out"
        argv, rerun = report_argv[command]
        assert main(argv + ["--out", str(out)]) == 0
        first = _files(out)
        for path in out.iterdir():
            path.write_text("stale")
        for pattern in cli._OUTPUTS[command]:
            if "*" in pattern:
                (out / pattern.replace("*", "stale")).write_text("stale")
        assert main(argv + rerun + ["--out", str(out)]) == 0
        second = _files(out)
        assert second.keys() == first.keys() and b"stale" not in second.values()
        assert (second != first) if rerun else (second == first)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("command", ["baseline", "ablate", "preprocess", "rank", "subgroups"])
    def test_interrupted_rerun_keeps_previous_output(self, report_argv, tmp_path, command):
        """A rerun interrupted at each os.replace in turn (every file write, then both renames
        of the swap) leaves the previous output byte for byte, never a new file beside an old
        report."""
        out = tmp_path / "out"
        argv, rerun = report_argv[command]
        assert main(argv + ["--out", str(out)]) == 0
        before = _files(out)
        interrupted = []
        for k in _interrupted_runs([(os, "replace")], lambda: main(argv + rerun + ["--out", str(out)])):
            interrupted.append(k)
            assert _files(out) == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
        assert interrupted == list(range(1, len(before) + 3))
        after = _files(out)
        assert after.keys() == before.keys() and ((after != before) if rerun else (after == before))

    @pytest.mark.parametrize("kind", ["run dir with a stray file", "plain file", "cohort dir as .",
                                      "empty dir as ."])
    def test_train_refuses_non_run_out(self, run_cohort, two_fold_run, tiny_cohort, tmp_path, monkeypatch,
                                       capsys, kind):
        def no_training(*args, **kwargs):
            raise AssertionError("train_cv ran")

        monkeypatch.setattr(cli, "train_cv", no_training)
        out = tmp_path / "out"
        if kind == "plain file":
            out.write_text("notes")
        elif kind == "empty dir as .":
            out.mkdir()
        else:
            shutil.copytree(two_fold_run if kind.startswith("run") else tiny_cohort, out)
            if kind.startswith("run"):
                (out / "notes.txt").write_text("notes")
        before = _files(out) if out.is_dir() else out.read_bytes()
        if kind.endswith("as ."):
            monkeypatch.chdir(out)
        capsys.readouterr()
        assert _train(run_cohort, "." if kind.endswith("as .") else out, 2) == 2
        assert _one_error_line(capsys)
        assert (_files(out) if out.is_dir() else out.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_train_into_empty_existing_dir(self, run_cohort, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        assert _train(run_cohort, run, 2) == 0
        assert sorted(p.name for p in run.iterdir()) == ["config.json", "fold_0", "fold_1", "summary.json"]

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


# values of another JSON type than each manifest field's
_NOT_TEXT = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3), st.booleans(),
                      st.lists(st.integers(0, 3), max_size=2), st.none())
_NOT_NUMBER = st.one_of(st.text(max_size=4), st.booleans(), st.lists(st.floats(0, 1), max_size=2), st.none())
_NOT_BOOL = st.one_of(st.sampled_from(["no", "yes", "false", ""]), st.integers(0, 1), st.floats(0, 1),
                      st.lists(st.booleans(), max_size=2), st.none())
_NOT_GRADE = st.one_of(st.floats(0, 4), st.booleans(), st.sampled_from(["1", "2"]),
                       st.lists(st.integers(0, 4), max_size=2), st.none())
_NOT_NUMBERS = st.one_of(st.text(max_size=4), st.floats(0, 50), st.none(),
                         st.lists(st.one_of(st.text(max_size=2), st.booleans(), st.none()),
                                  min_size=1, max_size=2))
# "klg_by_visit.0" is the month-0 grade; "images.KEY.NAME" one field of one image reference
_WRONG_TYPE = {"subject_id": _NOT_TEXT, "sex": _NOT_TEXT, "site": _NOT_TEXT, "age": _NOT_NUMBER,
               "bmi": _NOT_NUMBER, "womac_total": _NOT_NUMBER, "prior_injury": _NOT_BOOL,
               "prior_surgery": _NOT_BOOL, "klg_by_visit.0": _NOT_GRADE, "images.XR.path": _NOT_TEXT,
               "images.MULTI_ECHO.echo_times": _NOT_NUMBERS, "images.XR.dtype_bits": _NOT_GRADE}


def _one_error_line(capsys) -> bool:
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


def _previous_output(root) -> Path:
    """An earlier eval or baseline --out under *root*, holding one file."""
    out = root / "out"
    out.mkdir()
    (out / "scores.json").write_bytes(b"previous")
    return out


def _forbid(monkeypatch, *targets):
    """Make each ``(module, name)`` in *targets* fail the test when it is called."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the command started work it should have refused first")

    for module, name in targets:
        monkeypatch.setattr(module, name, forbidden)


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

    def test_vol1_extent_one_bit_lower(self, cohort_copy, tmp_path, capsys):
        """A second extent one bit lower leaves bytes after the declared payload: rows would
        be misaligned, so the read is refused."""
        image = cohort_copy / "images" / "S0001_DESS.vol1"
        raw = bytearray(image.read_bytes())
        extent = int.from_bytes(raw[9:13], "little")
        assert raw[4] == 3 and extent & 2
        raw[9:13] = (extent ^ 2).to_bytes(4, "little")
        image.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["preprocess", "--cohort", str(cohort_copy / "cohort.json"), "--subject", "S0001",
                     "--protocol", "DESS", "--scale", "0.05", "--out", str(tmp_path / "prep")]) == 2
        assert _one_error_line(capsys)

    @pytest.mark.parametrize("image, command", [
        ("XR", ["preprocess", "--subject", "S0000", "--protocol", "XR", "--scale", "0.05"]),
        ("MULTI_ECHO", ["fit-t2"]),
    ], ids=["preprocess-XR", "fit-t2-MULTI_ECHO"])
    def test_vol1_nan_spacing(self, cohort_copy, tmp_path, capsys, image, command):
        path = cohort_copy / "images" / f"S0000_{image}.vol1"
        raw = bytearray(path.read_bytes())
        raw[5 + 4 * raw[4] : 13 + 4 * raw[4]] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        out = tmp_path / "out"
        assert main(command + ["--cohort", str(cohort_copy / "cohort.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
        assert not out.exists()

    def test_nan_echo_time(self, cohort_copy, tmp_path, capsys):
        """A NaN echo time parses as a JSON float; fit-t2 refuses it before fitting anything."""
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        manifest["subjects"][0]["images"]["MULTI_ECHO"]["echo_times"][0] = float("nan")
        (cohort_copy / "cohort.json").write_text(canonical_json(manifest))
        capsys.readouterr()
        assert self._fit_t2(cohort_copy, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "entry 0" in err[0]
        assert not (tmp_path / "t2").exists()

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

    def _expect_bad_entry(self, cohort, manifest, tmp_path, capsys, entry, field):
        """load_cohort and fit-t2 reject *manifest*, naming the entry and the field."""
        (cohort / "cohort.json").write_text(canonical_json(manifest))
        with pytest.raises(ContractViolation) as info:
            load_cohort(cohort / "cohort.json")
        assert f"entry {entry}" in str(info.value) and f"{field!r}" in str(info.value)
        capsys.readouterr()
        assert self._fit_t2(cohort, tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert f"entry {entry}" in err[0] and f"{field!r}" in err[0]

    @pytest.mark.parametrize("command", ["fit-t2", "preprocess", "subgroups"])
    def test_subject_listed_twice_refused(self, cohort_copy, tmp_path, capsys, command):
        """A second entry for S0001 is refused, naming the id and both entries; the commands
        that used the last entry for it exit 2 and write nothing."""
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        ids = [e["subject_id"] for e in manifest["subjects"]]
        manifest["subjects"].append(dict(manifest["subjects"][1], age=70.0))
        (cohort_copy / "cohort.json").write_text(canonical_json(manifest))
        with pytest.raises(ContractViolation, match="subject id 'S0001' is listed twice, in entries 1 and 6"):
            load_cohort(cohort_copy / "cohort.json")
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"ids": ids, "scores": [i / len(ids) for i in range(len(ids))],
                                      "labels": [i % 2 for i in range(len(ids))]}))
        out = tmp_path / "out"
        argv = {"fit-t2": ["fit-t2"],
                "preprocess": ["preprocess", "--subject", "S0001", "--protocol", "XR", "--scale", "0.05"],
                "subgroups": ["subgroups", "--scores", f"24:{scores}"]}[command]
        capsys.readouterr()
        assert main(argv + ["--cohort", str(cohort_copy / "cohort.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "'S0001'" in err[0] and "entries 1 and 6" in err[0]
        assert not out.exists()

    def test_manifest_entry_missing_age(self, cohort_copy, tmp_path, capsys):
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        del manifest["subjects"][2]["age"]
        self._expect_bad_entry(cohort_copy, manifest, tmp_path, capsys, 2, "age")

    def test_manifest_number_beyond_float_range(self, cohort_copy, tmp_path, capsys):
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        manifest["subjects"][0]["age"] = 10**400  # valid JSON; float() of it overflows
        self._expect_bad_entry(cohort_copy, manifest, tmp_path, capsys, 0, "age")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_manifest_non_finite_number(self, cohort_copy, tmp_path, capsys, value):
        manifest = json.loads((cohort_copy / "cohort.json").read_text())
        manifest["subjects"][3]["age"] = value  # json.loads reads NaN and Infinity as floats
        self._expect_bad_entry(cohort_copy, manifest, tmp_path, capsys, 3, "age")

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entry=st.integers(0, 5), where=st.sampled_from(sorted(_WRONG_TYPE)), data=st.data())
    def test_manifest_entry_ill_typed_field(self, tiny_cohort, cohort_copy, tmp_path, capsys,
                                            entry, where, data):
        """Any field of a valid entry set to a value of another JSON type is rejected, not coerced."""
        manifest = json.loads((tiny_cohort / "cohort.json").read_text())
        *parents, name = where.split(".")
        target = manifest["subjects"][entry]
        for key in parents:
            target = target[key]
        target[name] = data.draw(_WRONG_TYPE[where])
        self._expect_bad_entry(cohort_copy, manifest, tmp_path, capsys, entry, where.split(".")[0])

    @pytest.mark.parametrize("command", ["fit-t2", "train", "baseline", "subgroups"])
    @pytest.mark.parametrize("field, value", [("prior_injury", "no"), ("klg_by_visit", 1.7), ("bmi", True),
                                              ("bmi", 27.5)])  # the last is a valid control: exit 0
    def test_coercible_manifest_value_rejected(self, run_cohort, tmp_path, capsys, command, field, value):
        cohort = tmp_path / "cohort"
        shutil.copytree(run_cohort.parent, cohort)
        manifest = json.loads((cohort / "cohort.json").read_text())
        if field == "klg_by_visit":
            manifest["subjects"][1][field]["0"] = value
        else:
            manifest["subjects"][1][field] = value
        (cohort / "cohort.json").write_text(canonical_json(manifest))
        ids = [e["subject_id"] for e in manifest["subjects"]]
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"ids": ids, "scores": [i / len(ids) for i in range(len(ids))],
                                      "labels": [i % 2 for i in range(len(ids))]}))
        out = tmp_path / "out"
        argv = {
            "fit-t2": ["fit-t2"],
            "train": ["train", "--arch", "XR1", "--scale", "0.05", "--epochs", "1", "--descriptor-dim", "8",
                      "--trf-layers", "1", "--trf-heads", "2", "--folds", "2"],
            "baseline": ["baseline", "--variable-set", "C1", "--folds", "2", "--bootstrap", "20"],
            "subgroups": ["subgroups", "--scores", f"24:{scores}"],
        }[command] + ["--cohort", str(cohort / "cohort.json"), "--out", str(out)]
        capsys.readouterr()
        if value == 27.5:
            assert main(argv) == 0
            return
        assert main(argv) == 2
        assert _one_error_line(capsys)
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    @pytest.mark.parametrize("bootstrap", ["1", "0", "-5"])
    def test_bad_bootstrap_refused_before_any_work(self, report_argv, tmp_path, monkeypatch, capsys, command,
                                                   bootstrap):
        out = _previous_output(tmp_path)
        _forbid(monkeypatch, (cli, "_dataset"))  # the first input either command reads
        capsys.readouterr()
        assert main(report_argv[command][0] + ["--bootstrap", bootstrap, "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert _files(tmp_path) == {"out/scores.json": b"previous"}

    @staticmethod
    def _refuse_holdout_site(site, command, run_cohort, two_fold_run, report_argv, tmp_path, monkeypatch,
                             capsys) -> str:
        """Run *command* holding out *site*; it must exit 2 with one error line before it trains,
        builds a provider or fits, and leave every file as it was.  Returns the error line."""
        if command == "train":
            argv = ["train", "--cohort", str(run_cohort), "--arch", "XR1", "--scale", "0.05", "--epochs", "1",
                    "--folds", "2", "--holdout-site", site]
        elif command == "eval":
            run = tmp_path / "run"
            shutil.copytree(two_fold_run, run)
            config = json.loads((run / "config.json").read_text())
            config["config"]["holdout_site"] = site
            (run / "config.json").write_text(canonical_json(config))
            argv = ["eval", "--run", str(run), "--cohort", str(run_cohort)]
        else:
            argv = report_argv["baseline"][0] + ["--holdout-site", site]
        out = tmp_path / "out" if command == "train" else _previous_output(tmp_path)
        before = _files(tmp_path)
        _forbid(monkeypatch, (cli, "train_cv"), (cli, "_provider_for"), (baselines, "lr_fit_cv"))
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert _files(tmp_path) == before
        assert not (tmp_path / ".out.partial").exists()
        assert out.exists() == (command != "train")
        return err[0]

    @pytest.mark.parametrize("command", ["train", "eval", "baseline"])
    def test_empty_holdout_site_refused_before_any_work(self, run_cohort, two_fold_run, report_argv, tmp_path,
                                                        monkeypatch, capsys, command):
        """Site Z is not in the cohort: no command trains, builds a provider or fits first."""
        self._refuse_holdout_site("Z", command, run_cohort, two_fold_run, report_argv, tmp_path, monkeypatch,
                                  capsys)

    @pytest.mark.parametrize("command", ["train", "eval", "baseline"])
    def test_one_class_holdout_site_refused_before_any_work(self, run_cohort, two_fold_run, report_argv,
                                                            tmp_path, monkeypatch, capsys, command):
        """Site A holds four controls: no held-out AUC or AP exists, so no command starts."""
        dataset = assemble_dataset(load_cohort(run_cohort), 24)
        assert dataset.label_array([i for i in dataset.ids if dataset.records[i].site == "A"]).tolist() == [0] * 4
        err = self._refuse_holdout_site("A", command, run_cohort, two_fold_run, report_argv, tmp_path,
                                        monkeypatch, capsys)
        assert err == "error: held-out site 'A' has no progressors"

    @pytest.mark.parametrize("command", ["train", "baseline"])
    def test_fold_missing_a_class_refused_before_any_work(self, run_cohort, tmp_path, monkeypatch, capsys,
                                                          command):
        """With 5 folds, fold 3's validation set of this cohort holds controls only: its AP is
        undefined, so neither command trains, builds a provider or fits first."""
        argv = {"train": ["train", "--arch", "XR1", "--scale", "0.05", "--epochs", "2"],
                "baseline": ["baseline", "--variable-set", "C1"]}[command]
        out = tmp_path / "out"
        _forbid(monkeypatch, (cli, "train_cv"), (cli, "_provider_for"), (baselines, "lr_fit_cv"))
        capsys.readouterr()
        assert main(argv + ["--cohort", str(run_cohort), "--folds", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: fold 3 validation set has no progressors"]
        assert not out.exists()
        assert not (tmp_path / ".out.partial").exists()

    @pytest.mark.parametrize("prevalence", ["0", "1", "-0.5", "2", "nan"])
    def test_bad_target_prevalence_refused_before_any_work(self, report_argv, tmp_path, monkeypatch, capsys,
                                                           prevalence):
        out = _previous_output(tmp_path)
        _forbid(monkeypatch, (cli, "_load_run"))
        capsys.readouterr()
        assert main(report_argv["eval"][0] + ["--target-prevalence", prevalence, "--out", str(out)]) == 2
        assert _one_error_line(capsys)
        assert _files(tmp_path) == {"out/scores.json": b"previous"}

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
