from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from koafusion import diffcore as dc
from koafusion import interpret, models
from koafusion.errors import ContractViolation
from koafusion.interpret import compute_rur, modality_drops, rur_report
from koafusion.models import ModalityBatch, build_model, forward

def mr2_setup(tiny_spec, seed=0, b=3, hw=16, slices=2):
    spec = tiny_spec("MR2", ("DESS", "TSE"))
    model = build_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    batch = ModalityBatch(
        inputs={p: rng.normal(size=(b, slices, hw, hw)) for p in spec.mri_protocols},
        means={p: np.zeros((slices, hw, hw)) for p in spec.mri_protocols},
    )
    return spec, model, batch


def fusion_setup(tiny_spec, n_models, b=4, hw=8, slices=2):
    """XR1MR2C1 models and a batch whose every input has a non-trivial mean."""
    spec = tiny_spec("XR1MR2C1", ("DESS", "TSE"), clinical_dim=3)
    fold_models = [build_model(spec, seed=10 + i) for i in range(n_models)]
    rng = np.random.default_rng(20)
    batch = ModalityBatch(
        inputs={"XR": rng.normal(size=(b, 1, hw, hw)),
                **{p: rng.normal(size=(b, slices, hw, hw)) for p in spec.mri_protocols},
                "CLIN": rng.normal(size=(b, 3))},
        means={"XR": rng.normal(size=(1, hw, hw)), "CLIN": rng.normal(size=3),
               **{p: rng.normal(size=(slices, hw, hw)) for p in spec.mri_protocols}},
    )
    return fold_models, batch, np.array([1, 0, 0, 1])


def class1_prob(model, batch):
    return dc.softmax(forward(model, batch, mode="eval"), axis=-1).data[:, 1]


def two_forward_drops(fold_models, batch, targets, modality):
    """Reference: two full forwards per model, true-class probabilities averaged."""
    y = np.asarray(targets)

    def true_class_prob(b):
        acc = np.zeros(y.size)
        for model in fold_models:
            p1 = class1_prob(model, b)
            acc += np.where(y == 1, p1, 1.0 - p1)
        return acc / len(fold_models)

    masked = replace(batch, masked=frozenset(batch.masked | {modality}))
    return true_class_prob(batch) - true_class_prob(masked)


class TestComputeRur:
    def test_positive_rows_normalize(self):
        ratios = compute_rur(np.array([[0.2, 0.6, 0.2]]))
        assert_allclose(ratios, [[0.2, 0.6, 0.2]], rtol=1e-15)

    def test_negative_drops_clamped(self):
        ratios = compute_rur(np.array([[-1.0, 1.0, 1.0]]))
        assert_allclose(ratios, [[0.0, 0.5, 0.5]], rtol=0, atol=0)

    def test_all_nonpositive_row_uniform(self):
        ratios = compute_rur(np.array([[0.0, -0.3], [0.4, 0.1]]))
        assert_allclose(ratios[0], [0.5, 0.5], rtol=0, atol=0)
        assert_allclose(ratios[1], [0.8, 0.2], rtol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        drops = rng.normal(size=(20, 4))
        sums = compute_rur(drops).sum(axis=1)
        assert_allclose(sums, np.ones(20), atol=1e-12)

    def test_shape_contract(self):
        with pytest.raises(ContractViolation):
            compute_rur(np.zeros(3))
        with pytest.raises(ContractViolation):
            compute_rur(np.zeros((2, 0)))


class TestModalityDrops:
    def test_masking_mean_equal_input_gives_zero_drop(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=1)
        same = ModalityBatch(
            inputs={
                "DESS": np.broadcast_to(batch.means["DESS"], batch.inputs["DESS"].shape).copy(),
                "TSE": batch.inputs["TSE"],
            },
            means=batch.means,
        )
        drops = modality_drops(model, same, targets=[1, 0, 1], modality="DESS")
        assert_allclose(drops, np.zeros(3), rtol=0, atol=0)

    def test_drop_definition(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=2)
        y = np.array([1, 0, 1])
        masked = ModalityBatch(inputs=batch.inputs, means=batch.means,
                               masked=frozenset({"TSE"}))
        p_orig = class1_prob(model, batch)
        p_mask = class1_prob(model, masked)
        want = np.where(y == 1, p_orig - p_mask, (1 - p_orig) - (1 - p_mask))
        got = modality_drops(model, batch, y, "TSE")
        assert_allclose(got, want, atol=1e-15)

    def test_ensemble_is_model_average(self, tiny_spec):
        spec, m1, batch = mr2_setup(tiny_spec, seed=3)
        m2 = build_model(spec, seed=4)
        y = [0, 1, 0]
        d1 = modality_drops(m1, batch, y, "DESS")
        d2 = modality_drops(m2, batch, y, "DESS")
        both = modality_drops([m1, m2], batch, y, "DESS")
        assert_allclose(both, (d1 + d2) / 2.0, atol=1e-15)

    def test_already_masked_rejected(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=5)
        pre = ModalityBatch(inputs=batch.inputs, means=batch.means,
                            masked=frozenset({"DESS"}))
        with pytest.raises(ContractViolation):
            modality_drops(model, pre, [0, 0, 1], "DESS")


class TestRurReport:
    def test_dead_branch_gets_zero_usage(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=6)
        for name, p in model.params.items():
            if name.startswith("enc.TSE."):
                p.data = np.zeros_like(p.data)
        # choose each subject's target as the class whose probability drops
        # when the live modality is masked, making that drop positive
        masked_dess = ModalityBatch(inputs=batch.inputs, means=batch.means,
                                    masked=frozenset({"DESS"}))
        p1 = class1_prob(model, batch)
        p1m = class1_prob(model, masked_dess)
        assert np.all(p1 != p1m)  # live branch must actually matter
        y = (p1 > p1m).astype(int)
        report = rur_report(model, batch, y, ("DESS", "TSE"))
        assert report.modalities == ("DESS", "TSE")
        assert_allclose(report.drops[:, 1], np.zeros(3), rtol=0, atol=0)
        assert np.all(report.drops[:, 0] > 0)
        assert_allclose(report.per_subject, np.tile([1.0, 0.0], (3, 1)), rtol=0, atol=0)
        assert_allclose(report.mean, [1.0, 0.0], rtol=0, atol=0)

    def test_constant_model_falls_back_to_uniform(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=7)
        for p in model.params.values():
            p.data = np.zeros_like(p.data)
        report = rur_report(model, batch, [1, 1, 0], ("DESS", "TSE"))
        assert_allclose(report.per_subject, np.full((3, 2), 0.5), rtol=0, atol=0)
        assert_allclose(report.drops, np.zeros((3, 2)), rtol=0, atol=0)

    def test_rows_sum_to_one(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=8)
        report = rur_report(model, batch, [0, 1, 1], ("DESS", "TSE"))
        assert_allclose(report.per_subject.sum(axis=1), np.ones(3), atol=1e-12)
        assert_allclose(report.mean, report.per_subject.mean(axis=0), rtol=1e-15)

    def test_empty_modalities_rejected(self, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=9)
        with pytest.raises(ContractViolation):
            rur_report(model, batch, [0, 1, 1], ())


class TestEncodeOnceFuseMany:
    @pytest.mark.parametrize("n_models", [1, 3])
    @pytest.mark.parametrize("premasked", [(), ("TSE",)])
    def test_drops_equal_two_forward_reference(self, n_models, premasked, tiny_spec):
        fold_models, batch, y = fusion_setup(tiny_spec, n_models)
        batch.masked = frozenset(premasked)
        mods = tuple(m for m in ("XR", "DESS", "TSE", "CLIN") if m not in premasked)
        want = np.stack([two_forward_drops(fold_models, batch, y, m) for m in mods], axis=1)
        assert np.any(want != 0)
        got = rur_report(fold_models, batch, y, mods).drops
        assert np.array_equal(got, want)

    def test_each_imaging_input_encoded_at_most_twice_per_model(self, monkeypatch, tiny_spec):
        fold_models, batch, y = fusion_setup(tiny_spec, 3)
        calls = Counter()

        def counted(model, b, mod):  # keyed by an array that every copy of a model shares
            calls[id(model.params["head.fc2.w"].data), mod] += 1
            return models.encode(model, b, mod)

        def no_forward(*args, **kwargs):
            raise AssertionError("an ablation ran a full forward")

        monkeypatch.setattr(interpret, "encode", counted)
        monkeypatch.setattr(interpret, "forward", no_forward)
        monkeypatch.setattr(models, "forward", no_forward)
        rur_report(fold_models, batch, y, ("XR", "DESS", "TSE", "CLIN"))
        assert calls == Counter({(id(m.params["head.fc2.w"].data), mod): 2
                                 for m in fold_models for mod in ("XR", "DESS", "TSE")})

    def test_masked_modality_cnn_sees_one_copy_of_its_mean(self, monkeypatch, tiny_spec):
        """Each conv2d call of a masked modality's encoder runs on its S slices, not B*S."""
        fold_models, batch, y = fusion_setup(tiny_spec, 2)
        owner = {id(p.data): (id(m.params["head.fc2.w"].data), name.split(".")[1])
                 for m in fold_models for name, p in m.params.items() if name.startswith("enc.")}
        rows = Counter()
        conv2d = dc.conv2d

        def counted(x, weight, *args, **kwargs):
            rows[owner[id(weight.data)] + (x.shape[0],)] += 1
            return conv2d(x, weight, *args, **kwargs)

        monkeypatch.setattr(dc, "conv2d", counted)
        rur_report(fold_models, batch, y, ("XR", "DESS", "TSE", "CLIN"))
        convs = 3 * len(models.ENCODER_CHANNELS)  # conv1, conv2 and skip per stage
        want = Counter()
        for m in fold_models:
            for mod in ("XR", "DESS", "TSE"):
                s = batch.inputs[mod].shape[1]
                want[id(m.params["head.fc2.w"].data), mod, y.size * s] = convs  # the batch, encoded once
                want[id(m.params["head.fc2.w"].data), mod, s] = convs  # its mean, masked
        assert rows == want

    @pytest.mark.parametrize("modality", ["XR", "CLIN", "T2MAP"])
    def test_modality_the_models_do_not_take_rejected(self, modality, tiny_spec):
        spec, model, batch = mr2_setup(tiny_spec, seed=10)
        with pytest.raises(ContractViolation):
            modality_drops(model, batch, [0, 1, 1], modality)
        with pytest.raises(ContractViolation):
            rur_report(model, batch, [0, 1, 1], ("DESS", modality))

    def test_already_masked_rejected_anywhere_in_the_list(self, tiny_spec):
        fold_models, batch, y = fusion_setup(tiny_spec, 1)
        batch.masked = frozenset({"DESS"})
        for mods in (("DESS", "TSE"), ("XR", "TSE", "DESS")):
            with pytest.raises(ContractViolation):
                rur_report(fold_models, batch, y, mods)
