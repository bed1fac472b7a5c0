"""Integration tests for the serving runtime and its HTTP frontend.

The load-bearing property: rankings served through the concurrent,
micro-batched pipeline are **byte-identical** to what a single-threaded
:class:`~repro.core.saccs.Saccs` oracle computes for the same queries —
including across an ``/admin/reindex`` generation bump (no stale cache may
survive the index moving).
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import (
    ConversationSession,
    HeuristicPairer,
    OracleExtractor,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
)
from repro.bert import PretrainPlan, pretrained_encoder
from repro.conversation import KIND_ASPECT
from repro.data import WorldConfig, build_tagging_dataset, build_world
from repro.serve import SaccsHttpServer, SaccsRuntime, ServeConfig
from repro.serve import http as serve_http
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.protocol import SayResponse
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon


def _post(url: str, payload) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def _raw_search(server, content_length: str) -> tuple:
    """POST /search with a hand-written Content-Length; (status, body)."""
    with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
        sock.sendall(
            b"POST /search HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        reply = b""
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(4096)
        head, _, body = reply.partition(b"\r\n\r\n")
        length = int(
            next(
                line.split(b":", 1)[1]
                for line in head.split(b"\r\n")
                if line.lower().startswith(b"content-length:")
            )
        )
        while len(body) < length:
            body += sock.recv(4096)
    return int(head.split(b" ", 2)[1]), json.loads(body)


def _read_responses(sock) -> list:
    """Every response on ``sock`` until the server closes it (or goes quiet).

    Returns ``(status, headers, body)`` triples, header names lower-cased.
    """
    data = b""
    while True:
        try:
            chunk = sock.recv(65536)
        except (ConnectionResetError, socket.timeout):
            break
        if not chunk:
            break
        data += chunk
    responses = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            headers[name.strip().lower().decode()] = value.strip().decode()
        length = int(headers.get("content-length", "0"))
        responses.append((int(lines[0].split(b" ", 2)[1]), headers, rest[:length]))
        data = rest[length:]
    return responses


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.small(num_entities=30, mean_reviews=8))


def _oracle_saccs(world):
    system = Saccs(
        world.entities, world.reviews, OracleExtractor(),
        ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
    )
    system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    return system


QUERIES = [
    ["delicious food"],
    ["really delicious food", "friendly staff"],
    ["truly cheap price"],
    ["delicious food", "quick service"],
    ["really quiet atmosphere"],
]


class TestConcurrentEquivalence:
    def test_concurrent_clients_match_sequential_oracle(self, world):
        """8 client threads through HTTP == the single-threaded facade, byte for byte."""
        oracle = _oracle_saccs(world)
        expected = {
            tuple(q): oracle.answer_tags([SubjectiveTag.from_text(t) for t in q])
            for q in QUERIES
        }

        runtime = SaccsRuntime(
            _oracle_saccs(world),
            ServeConfig(max_batch_size=8, max_wait_ms=5.0, workers=2, cache_size=64),
        )
        with SaccsHttpServer(runtime) as server:
            per_thread = [None] * 8
            def client(thread_id):
                out = []
                for repeat in range(3):
                    for q in QUERIES:
                        out.append((tuple(q), _post(f"{server.url}/search", {"tags": q})))
                per_thread[thread_id] = out
            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            batch_hist = runtime.metrics_snapshot()["histograms"].get("batch.size")

        for out in per_thread:
            assert out is not None, "a client thread died"
            for key, response in out:
                want = [[entity_id, score] for entity_id, score in expected[key]]
                # json round-trips floats exactly (shortest-repr), so this
                # equality is bitwise on every score.
                assert response["results"] == want
        # concurrency actually exercised the batcher
        assert batch_hist is None or batch_hist["max"] >= 1

    def test_rankings_stay_exact_across_reindex(self, world):
        """The generation bump invalidates caches: no pre-reindex ranking leaks."""
        oracle = _oracle_saccs(world)
        served = _oracle_saccs(world)
        runtime = SaccsRuntime(
            served, ServeConfig(max_batch_size=4, max_wait_ms=2.0, workers=2, cache_size=64)
        )
        unknown = ["really delicious food"]
        with SaccsHttpServer(runtime) as server:
            # phase 1: unknown tag answered by similar-tag combination, cached
            first = _post(f"{server.url}/search", {"tags": unknown})
            again = _post(f"{server.url}/search", {"tags": unknown})
            assert again["cached"] is True
            assert again["results"] == first["results"]
            expected_before = oracle.answer_tags([SubjectiveTag.from_text(unknown[0])])
            assert first["results"] == [[e, s] for e, s in expected_before]

            # phase 2: fold the history on both sides
            reindex = _post(f"{server.url}/admin/reindex", {})
            oracle_round = oracle.run_indexing_round()
            assert reindex["adopted"] == [t.text for t in oracle_round.added]
            assert reindex["generation"] == served.index_generation

            # phase 3: post-reindex answers must match the post-fold oracle
            # (and must NOT be served from the stale cache)
            after = _post(f"{server.url}/search", {"tags": unknown})
            assert after["cached"] is False
            assert after["generation"] > first["generation"]
            expected_after = oracle.answer_tags([SubjectiveTag.from_text(unknown[0])])
            assert after["results"] == [[e, s] for e, s in expected_after]
            # the indexed tag now answers exactly; the combined answer differed
            assert unknown[0] in [t.text for t in served.index.tags]

    def test_concurrent_searches_racing_a_reindex_stay_coherent(self, world):
        """Every response's generation matches a ranking valid at that generation."""
        served = _oracle_saccs(world)
        before_oracle = _oracle_saccs(world)
        runtime = SaccsRuntime(
            served, ServeConfig(max_batch_size=4, max_wait_ms=1.0, workers=2, cache_size=64)
        )
        query = ["really delicious food"]
        tag = SubjectiveTag.from_text(query[0])
        expected_before = before_oracle.answer_tags([tag])
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/search", {"tags": query})  # seed the history
            responses = []
            lock = threading.Lock()

            def searcher():
                for _ in range(10):
                    response = _post(f"{server.url}/search", {"tags": query})
                    with lock:
                        responses.append(response)

            def reindexer():
                _post(f"{server.url}/admin/reindex", {})

            threads = [threading.Thread(target=searcher) for _ in range(4)]
            threads.append(threading.Thread(target=reindexer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        before_oracle.run_indexing_round()
        expected_after = before_oracle.answer_tags([tag])
        valid = {
            json.dumps([[e, s] for e, s in expected_before]),
            json.dumps([[e, s] for e, s in expected_after]),
        }
        for response in responses:
            assert json.dumps(response["results"]) in valid


class TestHttpSurface:
    @pytest.fixture(scope="class")
    def server(self, world):
        runtime = SaccsRuntime(_oracle_saccs(world), ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            yield server

    def test_healthz(self, server):
        health = _get(f"{server.url}/healthz")
        assert health["status"] == "ok"
        assert health["index_tags"] > 0

    def test_metrics_shape_and_ratio(self, server):
        _post(f"{server.url}/search", {"tags": ["delicious food"]})
        _post(f"{server.url}/search", {"tags": ["delicious food"]})
        snapshot = _get(f"{server.url}/metrics")
        assert snapshot["counters"]["requests.search"] >= 2
        assert "latency.search_seconds" in snapshot["histograms"]
        assert 0.0 < snapshot["ratios"]["cache.ranking"] <= 1.0

    def test_top_k_slices(self, server):
        response = _post(f"{server.url}/search", {"tags": ["delicious food"], "top_k": 3})
        assert len(response["results"]) == 3

    def test_validation_error_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/search", {"tags": []})
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "bad_request"

    def test_malformed_json_is_a_client_error(self, server):
        request = urllib.request.Request(
            f"{server.url}/search", data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_negative_content_length_is_a_client_error(self, server):
        status, body = _raw_search(server, "-1")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert _get(f"{server.url}/healthz")["status"] == "ok"

    def test_non_numeric_content_length_is_a_client_error(self, server):
        status, body = _raw_search(server, "abc")
        assert status == 400
        assert body["error"]["code"] == "bad_request"
        assert _get(f"{server.url}/healthz")["status"] == "ok"

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize(
        "path, body, status, code",
        [
            ("/nope", b'{"tags": ["delicious food"]}', 404, "not_found"),
            ("/search", b"x" * (MAX_BODY_BYTES + 1), 413, "too_large"),
        ],
        ids=["unknown-route", "oversized-body"],
    )
    def test_unread_body_closes_instead_of_desyncing(
        self, server, path, body, status, code
    ):
        """A response that leaves the body unread must end the connection:
        kept alive, the body's bytes would be parsed as the next request
        line and the pipelined request behind it answered with an HTML 400
        or 414 page."""
        search = json.dumps({"tags": ["delicious food"]}).encode("utf-8")
        pipelined = (
            f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
            + b"POST /search HTTP/1.1\r\nHost: test\r\n"
            + f"Content-Length: {len(search)}\r\n\r\n".encode("ascii")
            + search
        )
        with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
            try:
                sock.sendall(pipelined)
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server may close before reading all of it
            responses = _read_responses(sock)
        assert [response[0] for response in responses] == [status]
        _, headers, payload = responses[0]
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"]["code"] == code
        # A new connection is served normally.
        assert _post(f"{server.url}/search", {"tags": ["delicious food"]})["results"]

    @pytest.mark.parametrize(
        "request_line, status, code",
        [
            (b"PUT /search HTTP/1.1", 501, "not_implemented"),
            (b"GET /" + b"x" * 70_000 + b" HTTP/1.1", 414, "request_uri_too_long"),
        ],
        ids=["unsupported-method", "oversized-request-line"],
    )
    def test_stdlib_rejections_use_the_json_envelope(
        self, server, request_line, status, code
    ):
        """Requests the stdlib rejects before any route runs still get the
        JSON envelope, not its HTML error page, and the connection ends."""
        with socket.create_connection((server.host, server.port), timeout=2.0) as sock:
            try:
                sock.sendall(request_line + b"\r\nHost: test\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                pass  # the server may close before reading all of it
            responses = _read_responses(sock)
        assert [response[0] for response in responses] == [status]
        _, headers, payload = responses[0]
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        assert json.loads(payload)["error"]["code"] == code
        assert _get(f"{server.url}/healthz")["status"] == "ok"

    def test_sessions_unavailable_with_oracle_extractor(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/session/s1/say", {"utterance": "delicious food please"})
        assert excinfo.value.code == 501
        body = json.loads(excinfo.value.read())
        assert body["error"]["code"] == "sessions_unavailable"

    def test_utterance_search_unavailable_with_oracle_extractor(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/search", {"utterance": "a place with delicious food"})
        assert excinfo.value.code == 501

    @pytest.mark.parametrize("body", [{"full": True}, {"background": True}])
    def test_full_and_background_reindex_run_the_one_rebuild(self, server, body):
        swaps = _get(f"{server.url}/metrics")["counters"].get("index.swap", 0)
        response = _post(f"{server.url}/admin/reindex", body)
        assert response["full"] is True and response["background"] is True
        assert _get(f"{server.url}/metrics")["counters"]["index.swap"] == swaps + 1

    def test_empty_reindex_only_folds_the_history(self, server):
        swaps = _get(f"{server.url}/metrics")["counters"].get("index.swap", 0)
        response = _post(f"{server.url}/admin/reindex", {})
        assert response["full"] is False and response["background"] is False
        assert _get(f"{server.url}/metrics")["counters"].get("index.swap", 0) == swaps

    @pytest.mark.parametrize("body", [{"full": "yes"}, {"background": 1}])
    def test_non_boolean_reindex_flag_is_a_client_error(self, server, body):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server.url}/admin/reindex", body)
        assert excinfo.value.code == 400


def _handler_threads() -> int:
    """Live per-connection threads of any ``ThreadingHTTPServer``."""
    return sum(
        "process_request_thread" in thread.name for thread in threading.enumerate()
    )


def _wait_for_handlers(at_most: int, deadline: float) -> int:
    stop = time.monotonic() + deadline
    while _handler_threads() > at_most and time.monotonic() < stop:
        time.sleep(0.02)
    return _handler_threads()


class TestSlowClients:
    """A client that stops mid-request must not pin a handler thread."""

    TIMEOUT_S = 0.5

    @pytest.fixture(scope="class")
    def server(self, world):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(serve_http, "SOCKET_TIMEOUT_S", self.TIMEOUT_S)
            runtime = SaccsRuntime(_oracle_saccs(world), ServeConfig(cache_size=64))
            with SaccsHttpServer(runtime) as server:
                yield server

    def test_half_sent_bodies_time_out_as_client_errors(self, server):
        counters = _get(f"{server.url}/metrics")["counters"]
        client_errors = counters.get("errors.client", 0)
        server_errors = counters.get("errors.server", 0)
        baseline = _wait_for_handlers(0, deadline=5.0)
        socks = [
            socket.create_connection((server.host, server.port), timeout=5.0)
            for _ in range(5)
        ]
        try:
            for sock in socks:
                sock.sendall(
                    b"POST /search HTTP/1.1\r\nHost: test\r\n"
                    b"Content-Length: 100\r\n\r\n" + b"x" * 10
                )
            deadline = time.monotonic() + 2.0
            while _handler_threads() < baseline + 5 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _handler_threads() == baseline + 5
            replies = [_read_responses(sock) for sock in socks]
        finally:
            for sock in socks:
                sock.close()
        for responses in replies:
            assert [response[0] for response in responses] == [408]
            _, headers, payload = responses[0]
            assert headers["connection"] == "close"
            assert json.loads(payload)["error"]["code"] == "request_timeout"
        assert _wait_for_handlers(baseline, deadline=5.0) == baseline
        counters = _get(f"{server.url}/metrics")["counters"]
        assert counters.get("errors.client", 0) == client_errors + 5
        assert counters.get("errors.server", 0) == server_errors

    def test_stalled_headers_free_the_thread(self, server):
        baseline = _wait_for_handlers(0, deadline=5.0)
        with socket.create_connection((server.host, server.port), timeout=5.0) as sock:
            sock.sendall(b"POST /search HTTP/1.1\r\nHost: test\r\n")
            # The stdlib closes the connection without a response.
            assert _read_responses(sock) == []
        assert _wait_for_handlers(baseline, deadline=5.0) == baseline

    def test_keep_alive_client_is_unaffected(self, server):
        body = json.dumps({"tags": ["delicious food"]})
        conn = http.client.HTTPConnection(server.host, server.port, timeout=5.0)
        try:
            statuses = []
            for _ in range(3):
                conn.request("POST", "/search", body=body)
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
                if len(statuses) == 1:
                    sock = conn.sock
                # Idle well inside the timeout between requests.
                time.sleep(self.TIMEOUT_S / 5)
            assert statuses == [200, 200, 200]
            assert conn.sock is sock  # one connection served all three
        finally:
            conn.close()


class TestSessionsOverHttp:
    @pytest.fixture(scope="class")
    def neural_saccs(self, world):
        encoder = pretrained_encoder("restaurants", plan=PretrainPlan.quick(seed=31))
        tagger = SequenceTagger(encoder, np.random.default_rng(0))
        TaggerTrainer(tagger, TaggerTrainingConfig(epochs=8)).fit(
            build_tagging_dataset("S1", scale=0.06, seed=6).train
        )
        parser = ChunkParser(PosLexicon(restaurant_lexicon()))
        extractor = TagExtractor(
            tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
        )
        system = Saccs(
            world.entities, world.reviews, extractor,
            ConceptualSimilarity(restaurant_lexicon()), SaccsConfig(),
        )
        system.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
        return system

    UTTERANCES = [
        "I want a restaurant in montreal with delicious food",
        "it should also have a nice staff",
        "actually the staff doesn't matter",
    ]

    def test_http_session_matches_sequential_session(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            served_turns = [
                _post(f"{server.url}/session/alice/say", {"utterance": utterance})
                for utterance in self.UTTERANCES
            ]
        oracle = ConversationSession(neural_saccs, top_k=runtime.config.session_top_k)
        for served, utterance in zip(served_turns, self.UTTERANCES):
            turn = oracle.say(utterance)
            assert served["added_tags"] == [t.text for t in turn.added_tags]
            assert served["removed_tags"] == [t.text for t in turn.removed_tags]
            assert served["results"] == [[e, s] for e, s in turn.results]
            assert served["slots"] == turn.slots
        assert served_turns[-1]["state"] == oracle.state_summary()

    def test_sessions_are_isolated(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/session/a/say", {"utterance": self.UTTERANCES[0]})
            fresh = _post(f"{server.url}/session/b/say", {"utterance": "start over"})
            assert fresh["added_tags"] == []
            assert len(runtime.sessions) == 2

    def test_sessions_share_conversation_tables_but_not_state(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with runtime:
            runtime.say("a", self.UTTERANCES[0])
            runtime.say("b", "hello there")
            with runtime.sessions.checkout("a") as first, runtime.sessions.checkout("b") as second:
                one, two = first.stage, second.stage
        for name in ("classifier", "coref", "rewriter", "shift_detector", "lexicon"):
            assert getattr(one, name) is getattr(two, name), name
        assert one.salience is not two.salience
        assert one.salience.most_recent(KIND_ASPECT) is not None
        assert two.salience.most_recent(KIND_ASPECT) is None
        assert one.context_concepts() and not two.context_concepts()
        assert one.last_analysis.utterance == self.UTTERANCES[0]
        assert two.last_analysis.utterance == "hello there"

    def test_say_payload_exposes_route_and_resolution(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            opener = _post(
                f"{server.url}/session/carol/say", {"utterance": self.UTTERANCES[0]}
            )
            pronoun = _post(
                f"{server.url}/session/carol/say", {"utterance": "it should be quiet"}
            )
            chitchat = _post(
                f"{server.url}/session/carol/say", {"utterance": "thanks, goodbye"}
            )
        assert opener["route"] == "subjective" and opener["shift"] is False
        assert opener["resolved"] == self.UTTERANCES[0].lower()
        assert pronoun["route"] == "subjective"
        assert pronoun["resolved"] == "the restaurant should be quiet"
        assert chitchat["route"] == "chitchat" and chitchat["added_tags"] == []
        assert "route=chitchat" in chitchat["state"]

    def test_metrics_expose_conv_route_counters(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            _post(f"{server.url}/session/dave/say", {"utterance": self.UTTERANCES[0]})
            _post(f"{server.url}/session/dave/say", {"utterance": "hello there"})
            _post(
                f"{server.url}/session/dave/say",
                {"utterance": "a table for two in montreal"},
            )
            snapshot = _get(f"{server.url}/metrics")
        counters = snapshot["counters"]
        assert counters["conv.route.subjective"] >= 1
        assert counters["conv.route.chitchat"] >= 1
        assert counters["conv.route.objective"] >= 1

    def test_objective_utterance_search_bypasses_extraction(self, neural_saccs):
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            response = _post(
                f"{server.url}/search", {"utterance": "a table in montreal", "top_k": 3}
            )
            snapshot = _get(f"{server.url}/metrics")
        assert response["tags"] == []
        assert all(score == 0.0 for _, score in response["results"])
        assert len(response["results"]) == 3
        assert snapshot["counters"]["conv.route.objective"] == 1
        # the extractor never ran, so no extraction latency was recorded.
        assert "latency.extract_seconds" not in snapshot["histograms"]

    def test_utterance_search_matches_answer(self, neural_saccs):
        utterance = "find me a restaurant in montreal with delicious food"
        expected = neural_saccs.answer(utterance)
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            first = _post(f"{server.url}/search", {"utterance": utterance})
            second = _post(f"{server.url}/search", {"utterance": utterance})
        assert first["results"] == [[e, s] for e, s in expected]
        assert second["results"] == first["results"]
        assert second["cached"] is True  # level-2 hit via the cached tag extraction

    def test_bypassed_routes_match_answer(self, neural_saccs):
        """Objective and chitchat turns answer exactly as the facade does:
        the slot-filtered API list ranked to the configured ``top_k``."""
        objective, chitchat = "a table in montreal", "thanks, goodbye"
        assert neural_saccs.dialog.recognizer.parse(objective).route == "objective"
        assert neural_saccs.dialog.recognizer.parse(chitchat).route == "chitchat"
        assert len(neural_saccs.dialog.search(objective)) > neural_saccs.config.top_k
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            for utterance in (objective, chitchat):
                served = _post(f"{server.url}/search", {"utterance": utterance})
                expected = neural_saccs.answer(utterance)
                assert served["results"] == [[e, s] for e, s in expected], utterance
                assert served["tags"] == []
        assert len(neural_saccs.answer(objective)) == neural_saccs.config.top_k

    def test_each_utterance_is_parsed_once(self, neural_saccs, monkeypatch):
        from repro.conversation import QueryClassifier

        calls = []
        parse = QueryClassifier.parse

        def counting_parse(self, utterance):
            calls.append(utterance)
            return parse(self, utterance)

        monkeypatch.setattr(QueryClassifier, "parse", counting_parse)
        neural_saccs.answer("find me a restaurant with really quick service")
        assert len(calls) == 1
        calls.clear()
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            for utterance in ("find me a place with a romantic ambiance", "a table in lyon"):
                runtime.search_utterance(utterance)
                assert calls == [utterance]
                calls.clear()

    def test_extraction_does_not_wait_for_the_facade_lock(self, neural_saccs):
        """A subjective /search is extracted on the request thread while
        another thread holds the facade lock; it ranks once the lock frees."""
        utterance = "somewhere with really delicious food"
        assert neural_saccs.dialog.recognizer.parse(utterance).route == "subjective"
        expected = neural_saccs.answer(utterance)
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            responses = []
            request = threading.Thread(
                target=lambda: responses.append(runtime.search_utterance(utterance))
            )
            runtime._facade_lock.acquire()
            try:
                request.start()
                deadline = time.monotonic() + 5.0
                while (
                    runtime.metrics.counter("extract.sentences") < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                extracted = runtime.metrics.counter("extract.sentences")
            finally:
                runtime._facade_lock.release()
            request.join(timeout=30.0)
        assert extracted == 1
        assert [list(response.results) for response in responses] == [expected]

    def test_repeated_objective_turn_is_served_from_the_ranking_cache(self, neural_saccs):
        """Objective turns take the queued path with no tags, so the
        ranking cache answers a repeat."""
        utterance = "a table in montreal"
        assert neural_saccs.dialog.recognizer.parse(utterance).route == "objective"
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            first = runtime.search_utterance(utterance)
            second = runtime.search_utterance(utterance)
        assert first.cached is False and first.batch_size >= 1
        assert second.cached is True
        assert second.results == first.results
        assert list(first.results) == neural_saccs.answer(utterance)

    def test_each_search_is_counted_once(self, neural_saccs):
        utterance = "find me a place with a romantic ambiance"
        assert neural_saccs.dialog.recognizer.parse(utterance).route == "subjective"
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            runtime.search_utterance(utterance)
            second = runtime.search_utterance(utterance)
            counters = runtime.metrics_snapshot()["counters"]
        assert second.cached is True
        assert counters.get("requests.search", 0) == 0
        assert counters["requests.search_utterance"] == 2

    def test_session_turn_extracts_through_the_engine(self, neural_saccs):
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            turn = runtime.say("s1", self.UTTERANCES[0]).turn
            assert turn.route == "subjective"
            assert runtime.metrics.counter("extract.sentences") == 1

    def test_session_turn_does_not_wait_for_the_facade_lock(self, neural_saccs):
        """A subjective turn is understood and extracted while another
        thread holds the facade lock; it ranks once the lock frees."""
        utterance = self.UTTERANCES[0]
        oracle = ConversationSession(neural_saccs, top_k=ServeConfig().session_top_k)
        expected = oracle.say(utterance)
        assert expected.route == "subjective"
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            responses = []
            turn = threading.Thread(
                target=lambda: responses.append(runtime.say("s1", utterance))
            )
            runtime._facade_lock.acquire()
            try:
                turn.start()
                deadline = time.monotonic() + 5.0
                while (
                    runtime.metrics.counter("extract.sentences") < 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                extracted = runtime.metrics.counter("extract.sentences")
            finally:
                runtime._facade_lock.release()
            turn.join(timeout=30.0)
        assert extracted == 1
        assert [response.turn.results for response in responses] == [expected.results]
        assert responses[0].state_summary == oracle.state_summary()

    def test_sessions_share_the_ranking_cache(self, neural_saccs):
        """Two sessions asking the same query at one generation rank once."""
        utterance = "a table in montreal"
        assert neural_saccs.dialog.recognizer.parse(utterance).route == "objective"
        with SaccsRuntime(neural_saccs, ServeConfig(cache_size=64)) as runtime:
            first = runtime.say("a", utterance)
            assert runtime.metrics.counter("cache.ranking.hit") == 0
            second = runtime.say("b", utterance)
            assert runtime.metrics.counter("cache.ranking.hit") == 1
        assert first.generation == second.generation
        assert second.turn.results == first.turn.results

    TRANSCRIPTS = [
        UTTERANCES,
        ["a place in lyon with really quick service", "it should be quiet", "thanks, goodbye"],
        ["somewhere with really delicious food", "and a friendly staff", "a table for two in montreal"],
        ["I want a restaurant in montreal with delicious food", "start over", "a restaurant with a beautiful view"],
    ]

    def test_concurrent_sessions_match_their_sequential_oracles(self, neural_saccs):
        """Sessions served concurrently (their rankings free to share worker
        batches) answer exactly as one sequential session per transcript."""
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        served = {}
        failures = []
        start = threading.Barrier(len(self.TRANSCRIPTS))

        def client(name, transcript):
            try:
                start.wait(timeout=10.0)
                served[name] = [
                    _post(f"{server.url}/session/{name}/say", {"utterance": utterance})
                    for utterance in transcript
                ]
            except BaseException as exc:  # noqa: BLE001 - reraised below
                failures.append(exc)

        with SaccsHttpServer(runtime) as server:
            clients = [
                threading.Thread(target=client, args=(f"c{i}", transcript))
                for i, transcript in enumerate(self.TRANSCRIPTS)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60.0)
        assert failures == []
        for i, transcript in enumerate(self.TRANSCRIPTS):
            name = f"c{i}"
            oracle = ConversationSession(neural_saccs, top_k=runtime.config.session_top_k)
            expected = []
            for utterance in transcript:
                turn = oracle.say(utterance)
                expected.append(
                    SayResponse(
                        session_id=name,
                        turn=turn,
                        state_summary=oracle.state_summary(),
                        generation=neural_saccs.index_generation,
                    ).to_payload()
                )
            assert served[name] == json.loads(json.dumps(expected)), name

    def test_say_is_stamped_with_the_generation_it_ranked_under(self, neural_saccs):
        """A reindex landing after a turn's ranking must not relabel it.

        Runs last in the class: the reindex folds the tag history into the
        shared index.
        """
        runtime = SaccsRuntime(neural_saccs, ServeConfig(cache_size=64))
        with SaccsHttpServer(runtime) as server:
            before = runtime.generation
            with runtime.sessions.checkout("erin") as session:
                summarise = session.state_summary

                def reindex_then_summarise():
                    runtime.reindex()
                    return summarise()

                session.state_summary = reindex_then_summarise
            served = _post(
                f"{server.url}/session/erin/say", {"utterance": self.UTTERANCES[0]}
            )
        assert runtime.generation == before + 1
        assert served["generation"] == before


class TestTelemetryEndpoints:
    """`/debug/timeseries`, `/debug/profile`, `/debug/slo` and query params."""

    @pytest.fixture(scope="class")
    def server(self, world):
        from repro.obs import TraceStore, Tracer

        tracer = Tracer(store=TraceStore(slow_threshold_seconds=0.0))
        runtime = SaccsRuntime(
            _oracle_saccs(world),
            ServeConfig(cache_size=64, collector_interval_seconds=0.02),
            tracer=tracer,
        )
        with SaccsHttpServer(runtime) as server:
            for query in QUERIES[:3]:
                _post(f"{server.url}/search", {"tags": query})
            yield server

    @staticmethod
    def _envelope(excinfo):
        return json.loads(excinfo.value.read())["error"]

    def _wait_for_points(self, server, minimum=1, searches=0, deadline=10.0):
        """Poll until there are ``minimum`` points and the newest counts at
        least ``searches`` searches: the collector samples on its own clock,
        so under load its newest point can still predate the fixture's posts."""
        import time

        end = time.monotonic() + deadline
        while time.monotonic() < end:
            payload = _get(f"{server.url}/debug/timeseries")
            points = payload["points"]
            if len(points) >= minimum and (
                points[-1]["counters"].get("requests.search", 0) >= searches
            ):
                return payload
            time.sleep(0.02)
        raise AssertionError(
            f"collector produced < {minimum} points counting {searches} searches"
            f" in {deadline}s"
        )

    def test_timeseries_points_carry_rates_and_slo_states(self, server):
        payload = self._wait_for_points(server, searches=3)
        assert payload["enabled"] is True
        assert payload["retention"] == 512
        point = payload["points"][-1]
        assert set(point) >= {
            "t", "interval_seconds", "counters", "rates", "ratios",
            "histograms", "slo",
        }
        assert point["counters"]["requests.search"] >= 3
        assert sorted(point["slo"]) == ["availability", "search-latency"]
        assert point["slo"]["availability"]["state"] == "ok"

    def test_timeseries_limit_keeps_newest(self, server):
        self._wait_for_points(server, minimum=2)
        payload = _get(f"{server.url}/debug/timeseries?limit=1")
        assert len(payload["points"]) == 1
        assert payload["appended"] >= 2

    @pytest.mark.parametrize("query", ["limit=0", "limit=abc", "limit=999999999"])
    def test_bad_limit_rejected_with_envelope(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/debug/timeseries?{query}")
        assert excinfo.value.code == 400
        error = self._envelope(excinfo)
        assert error["code"] == "bad_query"
        assert "limit" in error["message"]

    def test_bad_flag_rejected_with_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(f"{server.url}/debug/traces?slow_only=maybe")
        assert excinfo.value.code == 400
        assert self._envelope(excinfo)["code"] == "bad_query"

    def test_traces_limit_and_slow_only_filters(self, server):
        full = _get(f"{server.url}/debug/traces")
        assert len(full["recent"]) >= 3
        limited = _get(f"{server.url}/debug/traces?limit=1")
        assert len(limited["recent"]) == 1
        # threshold 0 marks every trace slow; slow_only drops the recent ring
        slow = _get(f"{server.url}/debug/traces?slow_only=true")
        assert slow["recent"] == [] and len(slow["slow"]) >= 1
        bare = _get(f"{server.url}/debug/traces?slow_only")
        assert bare["recent"] == []  # bare flag reads as true

    def test_slo_snapshot_over_http(self, server):
        payload = _get(f"{server.url}/debug/slo")
        assert payload["collector_enabled"] is True
        assert payload["warn_burn"] == 2.0 and payload["page_burn"] == 10.0
        by_name = {slo["name"]: slo for slo in payload["slos"]}
        assert by_name["search-latency"]["objective"] == "latency"
        assert by_name["availability"]["objective"] == "availability"
        assert all(slo["state"] == "ok" for slo in payload["slos"])

    def test_profile_aggregates_the_trace_window(self, server):
        payload = _get(f"{server.url}/debug/profile")
        assert payload["enabled"] is True
        assert payload["traces"] >= 3
        assert "serve.search" in payload["stages"]
        assert payload["window"]["source"] == "recent"
        slow = _get(f"{server.url}/debug/profile?slow_only=true")
        assert slow["window"]["source"] == "slow"

    def test_profile_diff_splits_the_window(self, server):
        payload = _get(f"{server.url}/debug/profile?diff=1")
        assert sorted(payload) == ["after", "before", "diff", "enabled"]
        assert payload["after"]["traces"] == 1
        assert payload["before"]["traces"] >= 2
        assert "stages" in payload["diff"]

    def test_profile_404s_without_tracing(self, world):
        runtime = SaccsRuntime(
            _oracle_saccs(world), ServeConfig(cache_size=4, collector_enabled=False)
        )
        with SaccsHttpServer(runtime) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server.url}/debug/profile")
        assert excinfo.value.code == 404
        assert self._envelope(excinfo)["code"] == "tracing_disabled"
