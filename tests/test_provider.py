import argparse
import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from koafusion import cli, imaging, provider as provider_module
from koafusion.cohort import SynthConfig, assemble_dataset, clinical_dim, progressor_flags, synth_subject
from koafusion.errors import ContractViolation
from koafusion.imaging import Pipeline, Volume, scaled_dim
from koafusion.models import ARCH_KINDS, ArchSpec
from koafusion.provider import CohortProvider, _load_ref, source_volume
from koafusion.relaxometry import MultiEchoVolume, fit_t2_volume
from koafusion.store import load_cohort, save_cohort
from koafusion.vol1 import write_vol1
from test_imaging import reference_chain

SCALE = 0.05


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so every call appends its first argument to the returned list."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def synth_dataset(n=8, seed=0, horizon=24):
    cfg = SynthConfig(n_subjects=n, prevalence=0.25, scale=SCALE, seed=seed, horizon=horizon)
    flags = progressor_flags(cfg)
    records = [synth_subject(cfg, i, bool(flags[i])) for i in range(n)]
    return assemble_dataset(records, horizon)


@pytest.fixture(scope="module")
def dataset():
    return synth_dataset()


class TestLoadRef:
    def test_in_memory_passthrough(self, dataset):
        rec = dataset.records[dataset.ids[0]]
        vol = rec.image_refs["XR"]
        assert _load_ref(vol, "XR") is vol

    def test_path_and_dict_refs(self, tmp_path):
        data = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "img.vol1"
        write_vol1(path, data, spacing=(1.0, 2.0))
        vol = _load_ref({"path": str(path), "dtype_bits": 12}, "XR")
        assert_allclose(vol.data, data, rtol=0, atol=0)
        assert vol.spacing == (1.0, 2.0)
        assert vol.dtype_bits == 12

    def test_multi_echo_needs_echo_times(self, tmp_path):
        data = np.ones((2, 2, 1, 3))
        path = tmp_path / "me.vol1"
        write_vol1(path, data, spacing=(1.0, 1.0, 1.0, 1.0))
        with pytest.raises(ContractViolation):
            _load_ref({"path": str(path)}, "MULTI_ECHO")
        me = _load_ref({"path": str(path), "echo_times": [10, 20, 30]}, "MULTI_ECHO")
        assert isinstance(me, MultiEchoVolume)
        assert me.data.shape == (2, 2, 1, 3)



class TestSourceVolume:
    def test_t2map_fit_from_echoes_when_absent(self, dataset):
        rec = dataset.records[dataset.ids[0]]
        assert "T2MAP" not in rec.image_refs
        vol = source_volume(rec, "T2MAP")
        want = fit_t2_volume(rec.image_refs["MULTI_ECHO"])
        assert_allclose(vol.data, want.t2, rtol=0, atol=0)
        assert vol.spacing == rec.image_refs["MULTI_ECHO"].spacing

    def test_provider_caches_the_fitted_map(self, dataset, monkeypatch):
        fits = _count_calls(monkeypatch, provider_module, "fit_t2_volume")
        provider = CohortProvider(dataset, ("T2MAP",), scale=SCALE)
        sid = dataset.ids[0]
        first = provider._prepped(sid, "T2MAP")
        assert provider._prepped(sid, "T2MAP") is first
        assert len(fits) == 1
        want = provider._pipes[("T2MAP", "eval")].prep(source_volume(dataset.records[sid], "T2MAP"))
        assert_allclose(first, want.data, rtol=0, atol=0)

    def test_missing_image_rejected(self, dataset):
        rec = dataset.records[dataset.ids[0]]
        bare = dataclasses.replace(rec, image_refs={"XR": rec.image_refs["XR"]})
        for proto in ("DESS", "T2MAP"):
            with pytest.raises(ContractViolation):
                source_volume(bare, proto)
        assert source_volume(bare, "XR") is rec.image_refs["XR"]

    def test_preprocessing_error_names_an_in_memory_image(self, dataset):
        sid = dataset.ids[1]
        rec = dataset.records[sid]
        dess = rec.image_refs["DESS"]
        bad = dataclasses.replace(rec, image_refs={**rec.image_refs, "DESS": Volume(-dess.data, dess.spacing)})
        provider = CohortProvider(dataclasses.replace(dataset, records={**dataset.records, sid: bad}), ("DESS",),
                                  scale=SCALE)
        with pytest.raises(ContractViolation, match=f"^subject {sid} DESS: LSB truncation requires non-negative"):
            provider.batch([dataset.ids[0], sid])


class TestProviderBatches:
    def test_unknown_protocol_rejected(self, dataset):
        with pytest.raises(ContractViolation):
            CohortProvider(dataset, ("XR", "PET"), scale=SCALE)
        with pytest.raises(ContractViolation, match="unknown protocol 'PETSCAN'"):
            CohortProvider(dataset, ["PETSCAN"])

    def test_eval_batch_shapes(self, dataset):
        provider = CohortProvider(dataset, ("XR", "DESS", "TSE"), scale=SCALE)
        ids = dataset.ids[:3]
        batch, targets = provider.batch(ids)
        hw_xr = scaled_dim(350, SCALE)
        assert batch.inputs["XR"].shape == (3, 1, hw_xr, hw_xr)
        hw = scaled_dim(160, SCALE)
        assert batch.inputs["DESS"].shape == (3, scaled_dim(64, SCALE), hw, hw)
        assert batch.inputs["TSE"].shape == (3, scaled_dim(32, SCALE), hw, hw)
        assert "CLIN" not in batch.inputs
        assert targets.shape == (3,)
        assert_allclose(targets, dataset.label_array(ids), rtol=0, atol=0)

    def test_every_plane_is_normalized(self, dataset):
        provider = CohortProvider(dataset, ("DESS",), scale=SCALE)
        batch, _ = provider.batch(dataset.ids[:2])
        for vol in batch.inputs["DESS"]:
            flat = vol.reshape(-1)
            assert abs(flat.mean()) <= 1e-6
            assert abs((flat.max() - flat.min()) - 1.0) <= 1e-6

    def test_eval_cache_returns_identical_arrays(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        a, _ = provider.batch(dataset.ids[:2])
        b, _ = provider.batch(dataset.ids[:2])
        assert_allclose(a.inputs["XR"], b.inputs["XR"], rtol=0, atol=0)

    def test_train_mode_requires_rng(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        with pytest.raises(ContractViolation):
            provider.batch(dataset.ids[:2], mode="train")

    def test_train_mode_seeded_and_augmenting(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        ids = dataset.ids[:2]
        a, _ = provider.batch(ids, mode="train", rng=np.random.default_rng(3))
        b, _ = provider.batch(ids, mode="train", rng=np.random.default_rng(3))
        assert_allclose(a.inputs["XR"], b.inputs["XR"], rtol=0, atol=0)
        c, _ = provider.batch(ids, mode="train", rng=np.random.default_rng(4))
        assert not np.allclose(a.inputs["XR"], c.inputs["XR"])
        ev, _ = provider.batch(ids, mode="eval")
        assert not np.allclose(a.inputs["XR"], ev.inputs["XR"])

    def test_t2map_fit_from_multi_echo_and_cached(self, dataset, monkeypatch):
        fits = _count_calls(monkeypatch, provider_module, "fit_t2_volume")
        provider = CohortProvider(dataset, ("T2MAP",), scale=SCALE)
        ids = dataset.ids[:2]
        batch, _ = provider.batch(ids)
        assert batch.inputs["T2MAP"].shape[0] == 2
        assert len(fits) == 2
        first = provider._cache[(ids[0], "T2MAP", "prep")]
        provider.batch(ids)
        provider.batch(ids, mode="train", rng=np.random.default_rng(0))
        assert len(fits) == 2
        assert provider._cache[(ids[0], "T2MAP", "prep")] is first

    def test_empty_batch_rejected(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        with pytest.raises(ContractViolation):
            provider.batch([])

    def test_bad_mode_rejected(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        with pytest.raises(ContractViolation):
            provider.batch(dataset.ids[:1], mode="test")

    def test_missing_protocol_image(self):
        ds = synth_dataset(seed=1)
        rec = ds.records[ds.ids[0]]
        rec.image_refs = {k: v for k, v in rec.image_refs.items() if k != "XR"}
        provider = CohortProvider(ds, ("XR",), scale=SCALE)
        with pytest.raises(ContractViolation):
            provider.batch(ds.ids[:1])


class TestBatchedChains:
    """One ``Pipeline.batch`` call per protocol per batch, row for row the per-volume chain."""

    PROTOCOLS = ("XR", "DESS", "TSE", "T2MAP")

    def _reference(self, provider, ids, mode, rng):
        out = {}
        for proto in self.PROTOCOLS:
            pipe = provider._pipes[(proto, mode)]
            rows = [reference_chain(pipe, source_volume(provider.dataset.records[i], proto), rng)[0]
                    for i in ids]
            out[proto] = np.stack([r[None] if r.ndim == 2 else np.moveaxis(r, 2, 0) for r in rows])
        return out

    def _count_chain_calls(self, monkeypatch):
        calls = []
        real = Pipeline.from_crop

        def counting(pipe, arrays, rng):
            arrays = list(arrays)
            calls.append((pipe.protocol, pipe.mode, len(arrays)))
            return real(pipe, arrays, rng)

        monkeypatch.setattr(Pipeline, "from_crop", counting)
        return calls

    def test_train_batch_matches_reference(self, dataset, monkeypatch):
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        ids = [dataset.ids[i] for i in (0, 3, 1, 3, 5)]  # oversampled ids repeat
        want_rng = np.random.default_rng(11)
        want = self._reference(provider, ids, "train", want_rng)
        calls = self._count_chain_calls(monkeypatch)
        got_rng = np.random.default_rng(11)
        batch, _ = provider.batch(ids, mode="train", rng=got_rng)
        assert calls == [(p, "train", 5) for p in self.PROTOCOLS]
        for proto, arr in batch.inputs.items():
            assert np.array_equal(arr, want[proto]), proto
            assert arr.flags.c_contiguous
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_eval_batch_chains_misses_once_and_caches_rows(self, dataset, monkeypatch):
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        want = self._reference(provider, dataset.ids[:5], "eval", None)
        calls = self._count_chain_calls(monkeypatch)
        provider.batch(dataset.ids[1:3])
        batch, _ = provider.batch(dataset.ids[:5])
        # the second batch chains only its misses, ids 0, 3 and 4
        assert calls == [(p, "eval", 2) for p in self.PROTOCOLS] + [(p, "eval", 3) for p in self.PROTOCOLS]
        for proto, arr in batch.inputs.items():
            assert np.array_equal(arr, want[proto]), proto
            for i, sid in enumerate(dataset.ids[:5]):
                assert np.array_equal(provider._cache[(sid, proto, "eval")], want[proto][i])
        provider.batch(dataset.ids[:5])
        means = provider.modality_means(dataset.ids[:5])
        assert len(calls) == 2 * len(self.PROTOCOLS)  # every row now comes from the cache
        for proto in self.PROTOCOLS:
            assert np.array_equal(means[proto], np.mean(want[proto], axis=0))


class TestProviderCache:
    """One admit-until-full cache of prepped volumes and eval rows, bounded by CACHE_BYTES."""

    PROTOCOLS = ("XR", "DESS", "TSE", "T2MAP")
    # each pre-crop stage, and the protocols whose chains run it once per subject
    STAGES = {(imaging, "resample"): ("XR",), (imaging, "truncate_lsb"): ("DESS", "TSE"),
              (imaging, "percentile_clip"): ("DESS", "TSE"), (imaging, "value_clip"): ("T2MAP",),
              (provider_module, "fit_t2_volume"): ("T2MAP",)}

    def _epochs(self, dataset):
        """Two epochs of train batches over repeated ids, each followed by eval batches:
        the inputs of every batch and the generator's final state."""
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        rng = np.random.default_rng(5)
        ids = dataset.ids[:6]
        outs = []
        for _ in range(2):
            for batch_ids in ([ids[0], ids[2], ids[0]], ids[1:5], [ids[5], ids[3]]):
                outs.append(provider.batch(batch_ids, mode="train", rng=rng)[0].inputs)
            outs.append(provider.batch(ids[:4])[0].inputs)
            outs.append(provider.batch(ids[2:])[0].inputs)
        return outs, rng.bit_generator.state, provider

    def test_bound_of_one_gives_the_same_batches(self, dataset, monkeypatch):
        want, want_state, _ = self._epochs(dataset)
        monkeypatch.setattr(provider_module, "CACHE_BYTES", 1)
        got, got_state, provider = self._epochs(dataset)
        assert not provider._cache and provider._cache_bytes == 0
        assert got_state == want_state
        for a, b in zip(got, want, strict=True):
            assert a.keys() == b.keys()
            assert all(np.array_equal(a[m], b[m]) for m in a)

    @pytest.mark.parametrize("bound", [None, 1])
    def test_each_stage_runs_once_per_subject(self, dataset, monkeypatch, bound):
        """Under the default bound each pre-crop stage (and the T2 fit) runs once per subject
        and protocol across train and eval batches; under a bound of 1, on every batch."""
        if bound is not None:
            monkeypatch.setattr(provider_module, "CACHE_BYTES", bound)
        calls = {name: _count_calls(monkeypatch, module, name) for module, name in self.STAGES}
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        rng = np.random.default_rng(0)
        batches = [(dataset.ids[:3], "train"), (dataset.ids[1:5], "train"), (dataset.ids[:5], "eval"),
                   (dataset.ids[2:5], "eval"), (dataset.ids[:5], "train")]
        for ids, mode in batches:
            provider.batch(ids, mode=mode, rng=rng)
        for (_, name), protos in self.STAGES.items():
            per_protocol = 5 if bound is None else sum(len(ids) for ids, _ in batches)
            assert len(calls[name]) == per_protocol * len(protos), name

    def test_fixed_order_epochs_hit_what_stays_resident(self, dataset, monkeypatch):
        """With room for half of the prepped volumes, epochs that visit the subjects in the same
        order rebuild only the entries the first epoch could not keep, each stage running once per
        such subject and protocol (least-recently-used eviction would miss on every one)."""
        batches = [dataset.ids[:3], dataset.ids[3:6], dataset.ids[6:]]
        full = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        for ids in batches:
            full.batch(ids, mode="train", rng=np.random.default_rng(0))
        monkeypatch.setattr(provider_module, "CACHE_BYTES", full._cache_bytes // 2)
        calls = {name: _count_calls(monkeypatch, module, name) for module, name in self.STAGES}
        sources = []  # (record, protocol) of every volume built ahead of the crop
        real_source = provider_module.source_volume
        monkeypatch.setattr(provider_module, "source_volume",
                            lambda record, proto: sources.append((record, proto)) or real_source(record, proto))
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        rng = np.random.default_rng(0)
        for epoch in range(3):
            for lst in (*calls.values(), sources):
                lst.clear()
            for ids in batches:
                provider.batch(ids, mode="train", rng=rng)
            if epoch == 0:
                resident = {(sid, proto) for sid, proto, _ in provider._cache}
                assert 0 < len(resident) < len(full._cache)
                continue
            missing = {(r.subject_id, proto) for r, proto in sources}
            assert len(sources) == len(missing)  # each non-resident volume is rebuilt once
            assert missing == {(i, proto) for i in dataset.ids for proto in self.PROTOCOLS} - resident
            for (_, name), protos in self.STAGES.items():
                assert len(calls[name]) == sum(proto in protos for _, proto in missing), name

    def test_resident_bytes_stay_within_the_bound(self, dataset, monkeypatch):
        _, _, full = self._epochs(dataset)
        sizes = sorted(a.nbytes for a in full._cache.values())
        bound = 3 * sizes[-1]
        assert sum(sizes) > bound  # the epochs must overflow the bound
        monkeypatch.setattr(provider_module, "CACHE_BYTES", bound)
        held = []
        real = CohortProvider._keep

        def checked(provider, key, a):
            out = real(provider, key, a)
            held.append(sum(x.nbytes for x in provider._cache.values()))
            assert held[-1] == provider._cache_bytes
            assert all(x.base is None for x in provider._cache.values())  # no entry holds a batch
            return out

        monkeypatch.setattr(CohortProvider, "_keep", checked)
        got, _, _ = self._epochs(dataset)
        assert held and max(held) <= bound
        want, _, _ = self._epochs(dataset)
        for a, b in zip(got, want, strict=True):
            assert all(np.array_equal(a[m], b[m]) for m in a)

    def test_oversized_entry_is_returned_not_kept(self, dataset, monkeypatch):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        big = np.arange(8.0)
        monkeypatch.setattr(provider_module, "CACHE_BYTES", big.nbytes - 1)
        provider._keep(("A", "XR", "eval"), np.arange(2.0))
        kept = provider._keep(("B", "XR", "eval"), big)
        assert np.array_equal(kept, big) and not kept.flags.writeable
        assert list(provider._cache) == [("A", "XR", "eval")]  # nothing was dropped for it
        provider._keep(("C", "XR", "eval"), np.arange(4.0)[None][0])  # a view is copied, then kept
        assert provider._cache[("C", "XR", "eval")].base is None
        assert provider._cache_bytes == 2 * 8 + 4 * 8

    def test_cached_arrays_refuse_writes(self, dataset):
        provider = CohortProvider(dataset, self.PROTOCOLS, scale=SCALE)
        ids = dataset.ids[:3]
        provider.batch(ids, mode="train", rng=np.random.default_rng(1))
        batch, _ = provider.batch(ids)
        assert {kind for _, _, kind in provider._cache} == {"prep", "eval"}
        for a in provider._cache.values():
            with pytest.raises(ValueError):
                a[...] = 0.0
        batch.inputs["XR"][...] = 0.0  # batches are the caller's own arrays
        again, _ = provider.batch(ids)
        assert not np.array_equal(again.inputs["XR"], batch.inputs["XR"])


class TestClinicalPlumbing:
    def test_stats_required_when_clinical_configured(self):
        ds = synth_dataset(seed=2)
        provider = CohortProvider(ds, ("XR",), scale=SCALE, clinical_variable_set="C1")
        with pytest.raises(ContractViolation):
            provider.batch(ds.ids[:2])
        stats = provider.clinical_stats(ds.ids[:6])
        batch, _ = provider.batch(ds.ids[:2], clinical_stats=stats)
        assert batch.inputs["CLIN"].shape == (2, 4)

    def test_stats_none_without_clinical(self):
        ds = synth_dataset(seed=3)
        provider = CohortProvider(ds, ("XR",), scale=SCALE)
        assert provider.clinical_stats(ds.ids) is None

    def test_fold_stats_standardize_training_ids(self):
        ds = synth_dataset(seed=4)
        provider = CohortProvider(ds, ("XR",), scale=SCALE, clinical_variable_set="C1")
        train = ds.ids[:6]
        stats = provider.clinical_stats(train)
        batch, _ = provider.batch(train, clinical_stats=stats)
        assert_allclose(batch.inputs["CLIN"][:, 0].mean(), 0.0, atol=1e-12)  # age z-score


class TestModalityMeans:
    def test_means_match_manual_average(self):
        ds = synth_dataset(seed=5)
        provider = CohortProvider(ds, ("XR", "TSE"), scale=SCALE)
        ids = ds.ids[:4]
        means = provider.modality_means(ids)
        batch, _ = provider.batch(ids)
        assert_allclose(means["XR"], batch.inputs["XR"].mean(axis=0), rtol=0, atol=0)
        assert_allclose(means["TSE"], batch.inputs["TSE"].mean(axis=0), rtol=0, atol=0)

    def test_clinical_mean_included(self):
        ds = synth_dataset(seed=6)
        provider = CohortProvider(ds, ("XR",), scale=SCALE, clinical_variable_set="C2")
        ids = ds.ids[:5]
        stats = provider.clinical_stats(ids)
        means = provider.modality_means(ids, clinical_stats=stats)
        batch, _ = provider.batch(ids, clinical_stats=stats)
        assert_allclose(means["CLIN"], batch.inputs["CLIN"].mean(axis=0), rtol=0, atol=0)

    def test_empty_ids_rejected(self, dataset):
        provider = CohortProvider(dataset, ("XR",), scale=SCALE)
        with pytest.raises(ContractViolation):
            provider.modality_means([])

    def test_ids_may_be_an_iterator(self, dataset):
        provider = CohortProvider(dataset, ("XR", "DESS"), scale=SCALE)
        ids = dataset.ids[:3]
        want = provider.modality_means(ids)
        got = provider.modality_means(iter(ids))
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[m], want[m]) for m in want)
        with pytest.raises(ContractViolation):
            provider.modality_means(iter([]))

    @pytest.mark.parametrize("kind", list(ARCH_KINDS))
    def test_cli_provider_keys_are_the_input_modalities(self, dataset, kind):
        """Inputs and means of the provider the CLI builds for a kind carry exactly its input modalities."""
        spec = ArchSpec(kind=kind, mri_protocols=("DESS", "TSE")[:ARCH_KINDS[kind]],
                        clinical_dim=clinical_dim("C1") if kind.endswith("C1") else 0)
        args = argparse.Namespace(scale=SCALE, clinical_set="C1")
        provider = cli._provider_for(spec, dataset, args)
        ids = dataset.ids[:2]
        stats = provider.clinical_stats(ids)
        batch, _ = provider.batch(ids, clinical_stats=stats)
        assert tuple(batch.inputs) == spec.input_modalities()
        assert tuple(provider.modality_means(ids, clinical_stats=stats)) == spec.input_modalities()

    def test_means_shapes_broadcast_into_masking(self):
        ds = synth_dataset(seed=7)
        provider = CohortProvider(ds, ("XR", "DESS"), scale=SCALE)
        ids = ds.ids[:3]
        means = provider.modality_means(ids)
        batch, _ = provider.batch(ids)
        assert means["XR"].shape == batch.inputs["XR"].shape[1:]
        assert means["DESS"].shape == batch.inputs["DESS"].shape[1:]
