"""Unit tests for repro.utils: rng trees, caching, numerics."""

import numpy as np
import pytest

from repro.nn import Linear, load_module, save_module
from repro.utils import (
    ArtifactCache,
    SeedSequence,
    derive_rng,
    derive_seed,
    fingerprint,
    logsumexp,
    one_hot,
    sigmoid,
    softmax,
    stable_log,
)


class TestSeedSequence:
    def test_same_label_same_stream(self):
        a = SeedSequence(7).rng("data").random(5)
        b = SeedSequence(7).rng("data").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_differ(self):
        a = SeedSequence(7).rng("data").random(5)
        b = SeedSequence(7).rng("model").random(5)
        assert not np.array_equal(a, b)

    def test_child_scoping_deterministic_and_distinct(self):
        value = SeedSequence(7).child("x").rng("y").random()
        again = SeedSequence(7).child("x").rng("y").random()
        assert value == again
        # a child's stream differs from the parent's same-named stream
        assert value != SeedSequence(7).rng("y").random()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")
        assert derive_seed(1, "a") != derive_seed(2, "a")
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_rng_independent_of_call_order(self):
        r1 = derive_rng(5, "later")
        _ = derive_rng(5, "first").random(100)
        r2 = derive_rng(5, "later")
        np.testing.assert_array_equal(r1.random(3), r2.random(3))


class TestArtifactCache:
    def test_get_or_build_builds_once(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        calls = []

        def builder():
            calls.append(1)
            return {"x": np.arange(3.0)}

        first = cache.get_or_build("thing", {"a": 1}, builder)
        second = cache.get_or_build("thing", {"a": 1}, builder)
        assert len(calls) == 1
        np.testing.assert_array_equal(first["x"], second["x"])

    def test_config_changes_key(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.save("thing", {"a": 1}, {"x": np.zeros(2)})
        assert not cache.exists("thing", {"a": 2})
        assert cache.exists("thing", {"a": 1})

    def test_fingerprint_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_roundtrip_multiple_arrays(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        arrays = {"w": np.random.default_rng(0).normal(size=(3, 3)), "b": np.ones(3)}
        cache.save("m", {}, arrays)
        loaded = cache.load("m", {})
        np.testing.assert_array_equal(loaded["w"], arrays["w"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])


class TestNumerics:
    def test_logsumexp_extremes(self):
        x = np.array([1000.0, 1000.0])
        assert np.isfinite(logsumexp(x, axis=0))
        assert logsumexp(x, axis=0) == pytest.approx(1000.0 + np.log(2))

    def test_softmax_invariance(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(softmax(x), softmax(x + 100), atol=1e-12)

    def test_sigmoid_extremes(self):
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_hot(self):
        out = one_hot(np.array([0, 2]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1]])

    def test_stable_log_no_inf(self):
        assert np.isfinite(stable_log(np.array([0.0]))[0])


class TestMemoize:
    def test_caches_and_exposes_cache(self):
        from repro.utils import memoize

        calls = []

        @memoize
        def double(x):
            calls.append(x)
            return 2 * x

        assert double(3) == 6
        assert double(3) == 6
        assert calls == [3]
        assert double.cache == {(3,): 6}
        double.cache.clear()
        assert double(3) == 6
        assert calls == [3, 3]

    def test_distinct_args_distinct_entries(self):
        from repro.utils import memoize

        @memoize
        def join(a, b):
            return f"{a}-{b}"

        assert join("x", "y") == "x-y"
        assert join("y", "x") == "y-x"
        assert len(join.cache) == 2


class TestModuleSerialization:
    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        layer = Linear(4, 3, rng)
        path = tmp_path / "layer.npz"
        save_module(layer, path)
        clone = Linear(4, 3, np.random.default_rng(99))
        load_module(clone, path)
        np.testing.assert_allclose(clone.weight.data, layer.weight.data)
        np.testing.assert_allclose(clone.bias.data, layer.bias.data)
