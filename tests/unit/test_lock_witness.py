"""Tests for the runtime lock-order witness (:mod:`repro.utils.locks`).

Unit tests drive a private :class:`LockWitness` through ABBA inversions,
canonical-rank violations and reentrant acquisitions, asserting the
diagnostics name *both* acquisition sites.  The stress test at the bottom
is the repo's deadlock guard: with ``REPRO_LOCK_WITNESS=1`` it runs
concurrent tag and utterance searches, session turns, background reindexes,
traces and collector samples against the real serving runtime, fails on any
observed order inversion, and checks that the run reached every lock in
:data:`CANONICAL_ORDER`.
"""

import ast
import os
import threading

import pytest

from repro.utils.locks import (
    CANONICAL_ORDER,
    ENV_FLAG,
    LockOrderError,
    LockWitness,
    TrackedLock,
    make_lock,
    reset_witness,
    witness_enabled,
)

HERE = "test_lock_witness.py"


# ----------------------------------------------------------------- inversions


def test_abba_inversion_is_recorded_and_names_both_sites():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:  # establishes alpha -> beta
            pass
    with b:
        with a:  # contradicts it
            pass
    assert len(w.inversions) == 1
    inversion = w.inversions[0]
    assert inversion.kind == "observed-order"
    assert inversion.first_order == ("alpha", "beta")
    assert inversion.second_order == ("beta", "alpha")
    text = inversion.describe()
    assert "'alpha'" in text and "'beta'" in text
    # Both the original ordering's sites and the contradicting ones appear.
    assert all(HERE in site for site in inversion.first_sites)
    assert all(HERE in site for site in inversion.second_sites)
    assert inversion.first_sites != inversion.second_sites


def test_consistent_nesting_never_reports():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    for _ in range(50):
        with a:
            with b:
                pass
    assert w.inversions == []
    assert w.acquisitions == 100


def test_canonical_rank_violation_flagged_without_prior_observation():
    w = LockWitness()
    facade = TrackedLock("serve.runtime.facade", w)
    store = TrackedLock("serve.sessions.store", w)
    assert CANONICAL_ORDER.index("serve.sessions.store") < CANONICAL_ORDER.index(
        "serve.runtime.facade"
    )
    with facade:
        with store:  # store ranks earlier: must be taken first
            pass
    kinds = [inversion.kind for inversion in w.inversions]
    assert kinds == ["canonical-order"]
    assert "canonical hierarchy" in w.inversions[0].describe()


def test_canonical_order_respected_is_clean():
    w = LockWitness()
    store = TrackedLock("serve.sessions.store", w)
    facade = TrackedLock("serve.runtime.facade", w)
    with store:
        with facade:
            pass
    assert w.inversions == []


def test_strict_mode_raises_at_the_offending_acquire():
    w = LockWitness(strict=True)
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:
            pass
    b.acquire()
    with pytest.raises(LockOrderError, match="lock order inversion"):
        a.acquire()
    a.release()
    b.release()


def test_same_order_class_is_not_checked():
    # Per-session entry locks share one name; ordering within the class is
    # deliberately unchecked (any pairwise order would be arbitrary).
    w = LockWitness()
    first = TrackedLock("serve.sessions.entry", w)
    second = TrackedLock("serve.sessions.entry", w)
    with first:
        with second:
            pass
    with second:
        with first:
            pass
    assert w.inversions == []


# -------------------------------------------------------------- lock wrappers


def test_out_of_order_release_keeps_the_stack_consistent():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    a.acquire()
    b.acquire()
    a.release()
    assert w.held_names() == ["beta"]
    b.release()
    assert w.held_names() == []


def test_order_graph_records_first_seen_sites():
    w = LockWitness()
    a = TrackedLock("alpha", w)
    b = TrackedLock("beta", w)
    with a:
        with b:
            pass
    graph = w.order_graph()
    assert set(graph) == {("alpha", "beta")}
    held_site, acquired_site = graph[("alpha", "beta")]
    assert HERE in held_site and HERE in acquired_site


# ------------------------------------------------------------------ factories


def test_factories_are_passthrough_without_the_env_flag(monkeypatch):
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert not witness_enabled()
    assert not isinstance(make_lock("x"), TrackedLock)
    monkeypatch.setenv(ENV_FLAG, "0")
    assert not witness_enabled()


def test_factories_return_tracked_locks_when_enabled(monkeypatch):
    monkeypatch.setenv(ENV_FLAG, "1")
    reset_witness()
    try:
        assert witness_enabled()
        lock = make_lock("serve.cache")
        assert isinstance(lock, TrackedLock) and lock.name == "serve.cache"
    finally:
        monkeypatch.delenv(ENV_FLAG)
        reset_witness()


SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _factory_calls():
    """(path, line, first argument) of every make_lock call in src/."""
    calls = []
    for dirpath, _, filenames in os.walk(SRC):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "make_lock"
                ):
                    first = node.args[0] if node.args else None
                    calls.append((os.path.relpath(path, SRC), node.lineno, first))
    return calls


def test_every_lock_in_src_has_a_canonical_literal_name():
    # The witness ranks locks by name, so every factory call must pass a
    # string literal that CANONICAL_ORDER lists.
    assert len(set(CANONICAL_ORDER)) == len(CANONICAL_ORDER)
    names = set()
    for path, line, first in _factory_calls():
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
            f"{path}:{line}: lock name is not a string literal"
        )
        assert first.value in CANONICAL_ORDER, (
            f"{path}:{line}: lock name {first.value!r} is not in CANONICAL_ORDER"
        )
        names.add(first.value)
    assert names == set(CANONICAL_ORDER)


# ------------------------------------------------------------- stress test


#: Locks created when their module is imported, before the test can set
#: the witness flag: they are plain locks the witness never sees.
IMPORT_TIME_LOCKS = {"obs.log.emit", "obs.log.registry"}


class _NamingWitness(LockWitness):
    """A witness that also remembers every lock name it saw acquired.

    The order graph only holds locks taken while another was held; a lock
    that is always taken alone (the session store's) appears in no edge.
    """

    def __init__(self):
        super().__init__()
        self.names = set()

    def note_acquire(self, name, site):
        self.names.add(name)
        super().note_acquire(name, site)


def _build_runtime():
    import numpy as np

    from repro.bert import PretrainPlan, pretrained_encoder
    from repro.core import (
        AttentionPairingHeuristic,
        HeuristicPairer,
        SequenceTagger,
        TagExtractor,
        TreePairingHeuristic,
    )
    from repro.core.saccs import Saccs, SaccsConfig
    from repro.core.tags import SubjectiveTag
    from repro.data import WorldConfig, build_world
    from repro.obs.tracing import Tracer
    from repro.serve import SaccsRuntime
    from repro.serve.runtime import ServeConfig
    from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon

    world = build_world(WorldConfig.small(seed=11, num_entities=14, mean_reviews=3.0))
    # An untrained tagger over the quick encoder: the stress test needs the
    # utterance and session paths to take their locks, not good tags.
    encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=31))
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    tagger.eval()
    parser = ChunkParser(PosLexicon(restaurant_lexicon()))
    # The attention heuristic pairs through the encoder's attention lock.
    extractor = TagExtractor(
        tagger,
        HeuristicPairer([
            TreePairingHeuristic(parser, direction="opinions"),
            AttentionPairingHeuristic(encoder, layer=0, head=0),
        ]),
    )
    saccs = Saccs(
        world.entities,
        world.reviews,
        extractor,
        ConceptualSimilarity(restaurant_lexicon()),
        SaccsConfig(),
    )
    dims = [SubjectiveTag.from_text(d.name) for d in world.dimensions]
    saccs.build_index(dims)
    config = ServeConfig(
        workers=2,
        max_batch_size=1,
        max_wait_ms=0.0,
        cache_size=32,
        collector_interval_seconds=0.01,
    )
    return SaccsRuntime(saccs, config, tracer=Tracer(sample_every=1)), dims


def test_witness_stress_search_reindex_and_session_churn(monkeypatch):
    """No lock-order inversion under concurrent search + rebuild + churn.

    This is the acceptance check for the canonical hierarchy: every lock
    the runtime creates below is a tracked lock, and any two code paths
    that disagree about acquisition order fail the assertion with both
    sites named.
    """
    from repro.serve.sessions import SessionStore
    from repro.utils import locks

    monkeypatch.setenv(ENV_FLAG, "1")
    w = _NamingWitness()
    monkeypatch.setattr(locks, "_WITNESS", w)
    try:
        runtime, dims = _build_runtime()
        store = SessionStore(factory=dict, ttl_seconds=0.005)
        query = [dims[0], dims[1 % len(dims)]]
        utterances = [
            "a place with delicious food",
            "is the staff friendly there",
            "something cheap in the center",
        ]
        failures = []
        stop = threading.Event()

        def searcher(session_prefix):
            try:
                for turn in range(25):
                    with store.checkout(f"{session_prefix}-{turn % 5}") as session:
                        response = runtime.search(query)
                        session["last"] = response.generation
                    utterance = utterances[turn % len(utterances)]
                    if turn % 3 == 0:
                        runtime.search_utterance(utterance, top_k=3)
                    elif turn % 3 == 1:
                        runtime.say(f"{session_prefix}-chat-{turn % 2}", utterance)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        def rebuilder():
            try:
                while not stop.is_set():
                    runtime.reindex(background=True)
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        with runtime:
            threads = [
                threading.Thread(target=searcher, args=(f"client{i}",), daemon=True)
                for i in range(3)
            ]
            rebuild_thread = threading.Thread(target=rebuilder, daemon=True)
            for thread in threads:
                thread.start()
            rebuild_thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stop.set()
            rebuild_thread.join(timeout=60)

        assert failures == []
        inversions = w.inversions
        assert inversions == [], "\n".join(i.describe() for i in inversions)
        # The run actually exercised tracked locks across all subsystems.
        assert w.acquisitions > 200
        unseen = set(CANONICAL_ORDER) - IMPORT_TIME_LOCKS - w.names
        assert unseen == set(), sorted(unseen)
        # A session turn ranks through the worker queue, so it never takes
        # the facade lock while it holds its entry lock.
        assert ("serve.sessions.entry", "serve.runtime.facade") not in w.order_graph()
    finally:
        monkeypatch.delenv(ENV_FLAG)
        reset_witness()
