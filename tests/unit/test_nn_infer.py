"""Unit tests for the tape-free fused inference path (``repro.nn.infer``).

The float64 export is oracle-paired with the autograd forward — bitwise, not
approximately — and float32 is held to the tolerance policy plus a
tag-identity witness on real decoded output.
"""

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import SequenceTagger, TaggerTrainer, TaggerTrainingConfig
from repro.core.extraction_engine import ExtractionEngineConfig
from repro.data import build_tagging_dataset
from repro.nn import (
    InferenceModel,
    PRECISIONS,
    equivalence_report,
)
from repro.nn.infer import DEFAULT_TOLERANCES
from repro.nn.tensor import no_grad


@pytest.fixture(scope="module")
def encoder():
    return pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=11))


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_tagging_dataset("S4", scale=0.12, seed=3)


@pytest.fixture(scope="module")
def tagger(encoder, tiny_dataset):
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=2, batch_size=16)).fit(
        tiny_dataset.train
    )
    tagger.eval()
    return tagger


@pytest.fixture(scope="module")
def sentences(tiny_dataset):
    return [list(s.tokens) for s in tiny_dataset.test[:12]]


# -------------------------------------------------------------------- export


class TestExport:
    def test_parameter_count_is_precision_invariant(self, tagger):
        counts = {
            p: InferenceModel.from_tagger(tagger, p).num_parameters()
            for p in PRECISIONS
        }
        assert counts["float64"] == counts["float32"]
        assert counts["float64"] > 0

    def test_nbytes_shrink_with_precision(self, tagger):
        nbytes = {p: InferenceModel.from_tagger(tagger, p).nbytes() for p in PRECISIONS}
        assert nbytes["float32"] < nbytes["float64"]

    def test_export_is_cached_per_precision(self, tagger):
        first = tagger.inference_model("float32")
        assert tagger.inference_model("float32") is first
        assert tagger.inference_model("float64") is not first

    def test_train_invalidates_cached_export(self, tagger):
        before = tagger.inference_model("float64")
        tagger.train()
        tagger.eval()
        assert tagger.inference_model("float64") is not before

    def test_load_state_dict_invalidates_cached_export(self, tagger):
        before = tagger.inference_model("float64")
        tagger.load_state_dict(tagger.state_dict())
        after = tagger.inference_model("float64")
        assert after is not before
        # weights were unchanged, so the re-export stays bitwise equal
        assert np.array_equal(after.w_proj, before.w_proj)

    def test_bad_precision_rejected_everywhere(self, encoder, tagger):
        with pytest.raises(ValueError):
            InferenceModel("float16")
        with pytest.raises(ValueError):
            InferenceModel("int8")
        with pytest.raises(ValueError):
            tagger.inference_model("bfloat16")
        with pytest.raises(ValueError):
            SequenceTagger(encoder, np.random.default_rng(0), encoder_precision="fp8")
        with pytest.raises(ValueError):
            ExtractionEngineConfig(encoder_precision="fp8")


# ------------------------------------------------------------------- forward


class TestFusedForward:
    def test_float64_is_bitwise_equal_to_tape_oracle(self, tagger, sentences):
        batch = tagger.encoder.batch(sentences)
        with no_grad():
            oracle, _, _ = tagger.emissions(sentences, batch=batch)
        fused = tagger.inference_model("float64").emissions(batch)
        assert fused.dtype == np.float64
        assert np.array_equal(np.asarray(fused), oracle.data)

    def test_scratch_reuse_is_idempotent(self, tagger, sentences):
        model = tagger.inference_model("float64")
        batch = tagger.encoder.batch(sentences)
        first = np.array(model.emissions(batch), copy=True)
        second = model.emissions(batch)
        assert np.array_equal(first, second)

    def test_scratch_pool_is_bounded(self, tagger):
        model = InferenceModel.from_tagger(tagger, "float32")
        for words in range(1, 41):
            model.emissions(tagger.encoder.batch([["food"] * words]))
        assert len(model._scratch) <= 32

    def test_attention_capture_is_opt_in(self, tagger, sentences):
        model = tagger.inference_model("float64")
        batch = tagger.encoder.batch(sentences[:3])
        model.emissions(batch)
        assert model.attention_maps() == []
        model.emissions(batch, capture_attention=True)
        maps = model.attention_maps()
        assert len(maps) == len(model.layers)
        heads = model.num_heads
        for layer_map in maps:
            assert layer_map.shape == (3, heads, batch.num_words, batch.num_words)
            np.testing.assert_allclose(layer_map.sum(axis=-1), 1.0, atol=1e-9)
        # a later non-capturing call clears the stale maps
        model.emissions(batch)
        assert model.attention_maps() == []

    def test_minibert_capture_defaults_off(self, tagger, sentences):
        batch = tagger.encoder.batch(sentences[:2])
        with no_grad():
            tagger.bert.forward(batch)
        assert all(m is None for m in tagger.bert.attention_maps())
        with no_grad():
            tagger.bert.forward(batch, capture_attention=True)
        assert all(m is not None for m in tagger.bert.attention_maps())

    def test_predict_tags_identical_across_precisions(self, tagger, sentences):
        baseline = tagger.predict(sentences)
        assert tagger.predict(sentences, precision="float32") == baseline


# --------------------------------------------------------------- equivalence


class TestEquivalence:
    def test_all_precisions_within_tolerance_and_tag_identical(self, tagger, sentences):
        for precision in PRECISIONS:
            report = equivalence_report(tagger, sentences, precision)
            assert report.within_tolerance, report
            assert report.tags_identical, report
            assert report.tolerance == DEFAULT_TOLERANCES[precision]

    def test_float64_report_is_exact(self, tagger, sentences):
        report = equivalence_report(tagger, sentences, "float64")
        assert report.max_abs_error == 0.0
        assert report.mean_abs_error == 0.0

    def test_report_as_dict(self, tagger, sentences):
        payload = equivalence_report(tagger, sentences, "float32").as_dict()
        assert payload["precision"] == "float32"
        assert set(payload) == {
            "precision",
            "max_abs_error",
            "mean_abs_error",
            "tolerance",
            "within_tolerance",
            "tags_identical",
        }

    def test_restores_training_mode(self, tagger, sentences):
        tagger.train()
        try:
            equivalence_report(tagger, sentences[:2], "float64")
            assert tagger.training
        finally:
            tagger.eval()
