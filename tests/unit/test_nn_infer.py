"""Unit tests for the tape-free fused inference path (``repro.nn.infer``).

The float64 export is oracle-paired with the autograd forward — bitwise, not
approximately — and float32 is held to the tolerance policy plus a
tag-identity witness on real decoded output.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bert import PretrainPlan, pretrained_encoder
from repro.core import (
    ExtractionEngine,
    OracleExtractor,
    SequenceTagger,
    TaggerTrainer,
    TaggerTrainingConfig,
)
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

    def test_export_carries_only_operands_its_precision_reads(self, tagger):
        f64 = InferenceModel.from_tagger(tagger, "float64")
        f32 = InferenceModel.from_tagger(tagger, "float32")
        for layer in f64.layers:
            assert layer.attention.wqkv is None and layer.attention.bqkv is None
        for layer in f32.layers:
            assert layer.attention.wq is None and layer.attention.bq is None
        for model in (f64, f32):
            held = [model, model.lstm_fwd, model.lstm_bwd]
            for layer in model.layers:
                held.extend([layer, layer.attention])
            arrays = [
                value for obj in held for value in vars(obj).values()
                if isinstance(value, np.ndarray)
            ]
            # every held operand (float64's wq/wk/wv included) counted once
            assert model.nbytes() == sum(a.nbytes for a in arrays)

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
            ExtractionEngine(OracleExtractor(), "fp8")


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
        # same (batch, words) geometry, different rows
        other = tagger.encoder.batch(sentences[::-1])
        assert other.piece_ids.shape == batch.piece_ids.shape
        first = model.emissions(batch)
        kept = first.copy()
        second = model.emissions(other)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(model.emissions(batch), kept)

    def test_forward_leaves_nothing_behind(self, tagger, tiny_dataset):
        model = tagger.inference_model("float64")
        sentences = [list(s.tokens) for s in tiny_dataset.train[:64]]
        batch = tagger.encoder.batch(sentences)
        assert batch.batch_size == 64
        # one-time lazy state (imports, ufunc caches) settles on another geometry
        model.emissions(tagger.encoder.batch(sentences[:1]))
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            scores = model.emissions(batch)
            del scores
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024

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
