import numpy as np
import pytest
from numpy.testing import assert_allclose

from koafusion import diffcore as dc
from koafusion.diffcore import Tensor, grad_check
from koafusion.errors import ContractViolation
from koafusion.models import (
    ArchSpec,
    ModalityBatch,
    apply_checkpoint,
    build_model,
    encode,
    forward,
    frozen,
    fuse,
    load_checkpoint,
    param_count,
    save_checkpoint,
)

TINY = dict(descriptor_dim=8, trf_layers=1, trf_heads=2,
            encoder_channels=(2, 3), max_slices=8, head_hidden=5)


def tiny_spec(kind, protocols=(), clinical_dim=0):
    return ArchSpec(kind=kind, mri_protocols=tuple(protocols),
                    clinical_dim=clinical_dim, **TINY)


def tiny_batch(spec, b=2, slices=3, hw=16, seed=0):
    rng = np.random.default_rng(seed)
    shapes = {"XR": (b, 1, hw, hw), "CLIN": (b, spec.clinical_dim)}
    return ModalityBatch(inputs={
        mod: rng.normal(size=shapes.get(mod, (b, slices, hw, hw))) for mod in spec.input_modalities()
    })


class TestArchSpec:
    def test_unknown_kind(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR9")

    def test_protocol_count_must_match_kind(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR1", mri_protocols=())
        with pytest.raises(ContractViolation):
            ArchSpec(kind="XR1", mri_protocols=("DESS",))
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR2", mri_protocols=("DESS",))

    def test_protocol_names_validated(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR1", mri_protocols=("FLAIR",))
        with pytest.raises(ContractViolation, match="unknown MRI protocol 'XR'"):  # a protocol, but not MRI
            ArchSpec(kind="MR1", mri_protocols=("XR",))
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR2", mri_protocols=("DESS", "DESS"))

    @pytest.mark.parametrize("field", ["trf_heads", "descriptor_dim"])
    def test_heads_and_width_positive(self, field):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="XR1", **{**TINY, field: 0})

    def test_clinical_dim_tied_to_kind(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="XR1MR2C1", mri_protocols=("DESS", "TSE"), clinical_dim=0)
        with pytest.raises(ContractViolation):
            ArchSpec(kind="MR1", mri_protocols=("DESS",), clinical_dim=4)

    def test_heads_must_divide_descriptor_dim(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="XR1", descriptor_dim=10, trf_heads=4)

    def test_dropout_range(self):
        with pytest.raises(ContractViolation):
            ArchSpec(kind="XR1", dropout_rate=1.0)

    def test_token_modalities(self):
        assert ArchSpec(kind="XR1").token_modalities() == ("XR",)
        assert tiny_spec("MR1", ("TSE",)).token_modalities() == ("TSE",)
        spec = ArchSpec(kind="XR1MR2C1", mri_protocols=("DESS", "T2MAP"), clinical_dim=4)
        assert spec.token_modalities() == ("XR", "DESS", "T2MAP")

    def test_ffn_dim_defaults_to_twice_descriptor(self):
        assert ArchSpec(kind="XR1", descriptor_dim=32, trf_heads=4).ffn_dim == 64


class TestInitialization:
    # independently computed totals for the default hyperparameters
    GOLDEN = {
        ("XR1", (), 0): 167_290,
        ("MR1", ("DESS",), 0): 167_290,
        ("XR1MR1", ("DESS",), 0): 188_210,
        ("MR2", ("DESS", "TSE"), 0): 188_210,
        ("XR1MR2", ("DESS", "TSE"), 0): 209_130,
        ("XR1MR2C1", ("DESS", "TSE"), 13): 209_962,
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_param_count_golden(self, key):
        kind, protocols, clin = key
        spec = ArchSpec(kind=kind, mri_protocols=protocols, clinical_dim=clin)
        assert param_count(build_model(spec)) == self.GOLDEN[key]

    def test_param_count_tiny(self):
        assert param_count(build_model(tiny_spec("MR1", ("TSE",)))) == 973

    def test_seed_determinism(self):
        spec = tiny_spec("XR1")
        m1, m2 = build_model(spec, seed=7), build_model(spec, seed=7)
        for name in m1.params:
            assert_allclose(m1.params[name].data, m2.params[name].data, rtol=0, atol=0)
        m3 = build_model(spec, seed=8)
        assert any(
            not np.array_equal(m1.params[n].data, m3.params[n].data) for n in m1.params
        )

    def test_init_families(self):
        model = build_model(tiny_spec("XR1"), seed=0)
        p = model.params
        assert np.all(p["head.fc1.b"].data == 0.0)
        assert np.all(p["trf0.ln1.g"].data == 1.0)
        w = p["enc.XR.stage0.conv2.w"].data  # He-uniform bound sqrt(6 / (2*3*3))
        bound = np.sqrt(6.0 / 18.0)
        assert np.all(np.abs(w) <= bound) and w.std() > 0.1 * bound

    def test_all_params_require_grad(self):
        model = build_model(tiny_spec("MR1", ("DESS",)))
        assert all(t.requires_grad for t in model.params.values())


ALL_KINDS = [
    ("XR1", (), 0),
    ("MR1", ("DESS",), 0),
    ("XR1MR1", ("TSE",), 0),
    ("MR2", ("DESS", "TSE"), 0),
    ("XR1MR2", ("DESS", "T2MAP"), 0),
    ("XR1MR2C1", ("DESS", "TSE"), 4),
]


class TestForward:
    @pytest.mark.parametrize("kind,protocols,clin", ALL_KINDS)
    def test_logit_shape_all_kinds(self, kind, protocols, clin):
        spec = tiny_spec(kind, protocols, clin)
        model = build_model(spec, seed=1)
        batch = tiny_batch(spec, b=3)
        logits = forward(model, batch)
        assert logits.shape == (3, 2)
        assert np.all(np.isfinite(logits.data))

    @pytest.mark.parametrize("kind,protocols,clin", ALL_KINDS)
    def test_frozen_model_gives_identical_logits_and_records_no_graph(self, kind, protocols, clin):
        spec = tiny_spec(kind, protocols, clin)
        model = build_model(spec, seed=1)
        batch = tiny_batch(spec, b=3)
        still = frozen(model)
        assert all(still.params[k].data is p.data and not still.params[k].requires_grad
                   for k, p in model.params.items())
        logits = forward(still, batch)
        assert np.array_equal(logits.data, forward(model, batch).data)
        assert not logits.requires_grad and dc.tape(logits) == [logits]

    def test_eval_mode_deterministic(self):
        spec = tiny_spec("XR1MR1", ("DESS",))
        model = build_model(spec)
        batch = tiny_batch(spec)
        a = forward(model, batch, mode="eval").data
        b = forward(model, batch, mode="eval").data
        assert_allclose(a, b, rtol=0, atol=0)

    def test_train_mode_seeded(self):
        spec = tiny_spec("MR1", ("DESS",))
        model = build_model(spec)
        batch = tiny_batch(spec)
        a = forward(model, batch, mode="train", seed=3).data
        b = forward(model, batch, mode="train", seed=3).data
        c = forward(model, batch, mode="train", seed=4).data
        assert_allclose(a, b, rtol=0, atol=0)
        assert not np.allclose(a, c)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_forward_is_fuse_over_encode(self, mode):
        spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=4)
        model = build_model(spec, seed=6)
        batch = tiny_batch(spec)
        tokens = {mod: encode(model, batch, mod) for mod in spec.token_modalities()}
        assert tokens["XR"].shape == (2, 1, 8) and tokens["TSE"].shape == (2, 3, 8)
        rng = np.random.default_rng(5) if mode == "train" else None
        logits = fuse(model, tokens, batch, mode == "train", rng)
        assert np.array_equal(logits.data, forward(model, batch, mode=mode, seed=5).data)

    def test_unknown_mode(self):
        spec = tiny_spec("XR1")
        with pytest.raises(ContractViolation):
            forward(build_model(spec), tiny_batch(spec), mode="predict")

    def test_missing_inputs_rejected(self):
        spec = tiny_spec("XR1MR1", ("DESS",))
        model = build_model(spec)
        with pytest.raises(ContractViolation):
            forward(model, ModalityBatch(inputs={"DESS": np.zeros((2, 3, 16, 16))}))
        with pytest.raises(ContractViolation):
            forward(model, ModalityBatch(inputs={"XR": np.zeros((2, 1, 16, 16))}))

    def test_missing_clinical_rejected(self):
        spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=4)
        model = build_model(spec)
        batch = tiny_batch(spec)
        del batch.inputs["CLIN"]
        with pytest.raises(ContractViolation):
            forward(model, batch)
        batch.inputs["CLIN"] = np.zeros((2, 3))
        with pytest.raises(ContractViolation):
            forward(model, batch)

    def test_batch_sizes_must_agree(self):
        spec = tiny_spec("XR1MR1", ("DESS",))
        batch = ModalityBatch(inputs={"XR": np.zeros((2, 1, 16, 16)), "DESS": np.zeros((3, 3, 16, 16))})
        with pytest.raises(ContractViolation, match="DESS input holds 3 subjects, XR holds 2"):
            forward(build_model(spec), batch)

    def test_slices_beyond_positional_table_rejected(self):
        spec = tiny_spec("MR1", ("DESS",))
        model = build_model(spec)
        forward(model, tiny_batch(spec, slices=spec.max_slices))
        with pytest.raises(ContractViolation, match="positional table"):
            forward(model, tiny_batch(spec, slices=spec.max_slices + 1))

    def test_batch_order_independence(self):
        spec = tiny_spec("MR2", ("DESS", "TSE"))
        model = build_model(spec, seed=2)
        batch = tiny_batch(spec, b=3)
        full = forward(model, batch).data
        one = ModalityBatch(inputs={p: v[1:2] for p, v in batch.inputs.items()})
        assert_allclose(forward(model, one).data, full[1:2], atol=1e-12)

    def test_gradients_reach_every_parameter(self):
        spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=4)
        model = build_model(spec, seed=5)
        logits = forward(model, tiny_batch(spec), mode="train", seed=0)
        dc.tensor_sum(logits * logits).backward()
        assert all(t.grad is not None for t in model.params.values())


class TestMasking:
    def test_masked_modality_uses_mean(self):
        spec = tiny_spec("MR2", ("DESS", "TSE"))
        model = build_model(spec, seed=3)
        batch = tiny_batch(spec)
        mean = np.full(batch.inputs["TSE"].shape[1:], 0.25)
        masked = ModalityBatch(
            inputs=dict(batch.inputs), masked=frozenset({"TSE"}), means={"TSE": mean}
        )
        replaced = ModalityBatch(
            inputs={"DESS": batch.inputs["DESS"],
                    "TSE": np.broadcast_to(mean, batch.inputs["TSE"].shape)}
        )
        assert_allclose(
            forward(model, masked).data, forward(model, replaced).data, rtol=0, atol=0
        )

    @pytest.mark.parametrize("b", [1, 2, 3, 20])
    @pytest.mark.parametrize("mod, slices", [("XR", 1), ("DESS", 3), ("TSE", 2)])
    def test_masked_encode_equals_encoding_copies_of_the_mean(self, mod, slices, b):
        """The CNN runs on one copy of a masked input's mean; its tokens are the bits of B copies."""
        spec = tiny_spec("XR1MR2", ("DESS", "TSE"))
        rng = np.random.default_rng(b)
        shape = (b, slices, 16, 16)
        mean = rng.normal(size=shape[1:])
        masked = ModalityBatch(inputs={mod: rng.normal(size=shape)}, masked=frozenset({mod}), means={mod: mean})
        copies = ModalityBatch(inputs={mod: np.broadcast_to(mean, shape).copy()})
        for model in (build_model(spec, seed=3), frozen(build_model(spec, seed=3))):
            assert np.array_equal(encode(model, masked, mod).data, encode(model, copies, mod).data)

    def test_masked_clinical(self):
        spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=4)
        model = build_model(spec, seed=3)
        batch = tiny_batch(spec)
        mean = np.arange(4.0)
        masked = ModalityBatch(inputs=batch.inputs, masked=frozenset({"CLIN"}), means={"CLIN": mean})
        replaced = ModalityBatch(
            inputs={**batch.inputs, "CLIN": np.broadcast_to(mean, batch.inputs["CLIN"].shape)},
        )
        assert_allclose(
            forward(model, masked).data, forward(model, replaced).data, rtol=0, atol=0
        )

    def test_mask_requires_mean(self):
        spec = tiny_spec("MR1", ("DESS",))
        model = build_model(spec)
        batch = tiny_batch(spec)
        bad = ModalityBatch(inputs=batch.inputs, masked=frozenset({"DESS"}))
        with pytest.raises(ContractViolation):
            forward(model, bad)

    def test_mask_mean_shape_checked(self):
        spec = tiny_spec("MR1", ("DESS",))
        model = build_model(spec)
        batch = tiny_batch(spec)
        bad = ModalityBatch(
            inputs=batch.inputs, masked=frozenset({"DESS"}), means={"DESS": np.zeros((2, 2))}
        )
        with pytest.raises(ContractViolation):
            forward(model, bad)


class TestModelGradients:
    def test_end_to_end_grad_check(self):
        spec = tiny_spec("XR1MR1", ("TSE",))
        model = build_model(spec, seed=9)
        batch = tiny_batch(spec, b=2, slices=2, hw=8)
        names = ["enc.XR.stage0.conv1.w", "enc.TSE.proj.w", "trf0.q.w",
                 "trf0.ln1.g", "emb.pos", "head.fc1.w"]
        picked = [model.params[n] for n in names]

        def fn(*_):
            logits = forward(model, batch, mode="eval")
            return dc.tensor_sum(logits * logits)

        err = grad_check(fn, picked, eps=1e-5, max_coords=4, seed=0)
        assert err < 1e-4


class TestCheckpoints:
    def test_roundtrip_bitwise(self, tmp_path):
        spec = tiny_spec("XR1MR1", ("DESS",))
        model = build_model(spec, seed=11)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        state = load_checkpoint(path)
        assert set(state) == set(model.params)
        for name, arr in state.items():
            assert arr.dtype == np.float64
            assert_allclose(arr, model.params[name].data, rtol=0, atol=0)

    def test_resave_is_byte_identical(self, tmp_path):
        model = build_model(tiny_spec("MR1", ("TSE",)), seed=2)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1)
        fresh = build_model(tiny_spec("MR1", ("TSE",)), seed=99)
        apply_checkpoint(fresh, load_checkpoint(p1))
        save_checkpoint(fresh, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_apply_restores_forward(self, tmp_path):
        spec = tiny_spec("MR1", ("DESS",))
        model = build_model(spec, seed=4)
        batch = tiny_batch(spec)
        want = forward(model, batch).data
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        other = build_model(spec, seed=5)
        assert not np.allclose(forward(other, batch).data, want)
        apply_checkpoint(other, load_checkpoint(path))
        assert_allclose(forward(other, batch).data, want, rtol=0, atol=0)

    def test_apply_checks_names_and_shapes(self, tmp_path):
        model = build_model(tiny_spec("XR1"), seed=0)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        state = load_checkpoint(path)
        extra = dict(state)
        extra["bogus"] = np.zeros(3)
        with pytest.raises(ContractViolation):
            apply_checkpoint(model, extra)
        wrong = dict(state)
        wrong["head.fc2.b"] = np.zeros(3)
        with pytest.raises(ContractViolation):
            apply_checkpoint(model, wrong)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContractViolation):
            load_checkpoint(path)

    def test_truncated_or_padded_file_rejected(self, tmp_path):
        spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=4)
        src = tmp_path / "m.bin"
        save_checkpoint(build_model(spec, seed=0), src)
        raw = src.read_bytes()
        # the first record is "emb.mod": cuts land in the magic, the count, its
        # name length, name, ndim, shape and payload, then in later records
        cuts = [0, 3, 6, 9, 12, 17, 20, 27, len(raw) // 3, len(raw) // 2, len(raw) - 1]
        bad = tmp_path / "bad.bin"
        for cut in cuts:
            bad.write_bytes(raw[:cut])
            with pytest.raises(ContractViolation):
                load_checkpoint(bad)
        bad.write_bytes(raw + b"\x00")
        with pytest.raises(ContractViolation):
            load_checkpoint(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ContractViolation):
            load_checkpoint(tmp_path / "absent.bin")
