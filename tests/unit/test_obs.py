"""Unit tests for the ``repro.obs`` tracing/logging subsystem.

Every test drives the tracer with an injected tick clock (one tick per
read), so span timestamps, durations, and ids are exactly predictable —
no sleeps, no wallclock.
"""

import io
import json
import threading

import pytest

from repro.obs import (
    NullTracer,
    StructuredLogger,
    TraceStore,
    Tracer,
    build_span_tree,
    collapsed_stack_values,
    get_logger,
    render_trace,
    to_collapsed_stacks,
    trace_summary,
    tracing,
)
from repro.utils.timing import StageTimings


class TickClock:
    """Monotonic fake clock: every read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def make_tracer(**kwargs):
    kwargs.setdefault("store", TraceStore(slow_threshold_seconds=1e9))
    kwargs.setdefault("clock", TickClock())
    return Tracer(**kwargs)


# ------------------------------------------------------------------ tracer


class TestTracer:
    def test_trace_ids_are_deterministic_counters(self):
        tracer = make_tracer()
        ids = []
        for _ in range(3):
            with tracer.trace("serve.search") as root:
                ids.append(root.trace_id)
        assert ids == ["t000001", "t000002", "t000003"]

    def test_nested_spans_build_parent_links_and_tick_durations(self):
        tracer = make_tracer()
        with tracer.trace("root", kind="tags"):
            with tracing.span("outer"):
                with tracing.span("inner", depth=2):
                    pass
        trace = tracer.store.recent(1)[0]
        spans = {item["name"]: item for item in trace["spans"]}
        assert [item["span_id"] for item in trace["spans"]] == [1, 2, 3]
        assert spans["root"]["parent_id"] is None
        assert spans["outer"]["parent_id"] == spans["root"]["span_id"]
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["root"]["attributes"] == {"kind": "tags"}
        assert spans["inner"]["attributes"] == {"depth": 2}
        # Tick clock: root opens at 1; inner 3→4; outer 2→5; root ends at 6.
        assert spans["inner"]["duration_seconds"] == pytest.approx(1.0)
        assert spans["outer"]["duration_seconds"] == pytest.approx(3.0)
        assert trace["duration_seconds"] == pytest.approx(5.0)

    def test_exception_stamps_error_attribute_and_still_publishes(self):
        tracer = make_tracer()
        with pytest.raises(ValueError):
            with tracer.trace("root"):
                with tracing.span("child"):
                    raise ValueError("boom")
        trace = tracer.store.recent(1)[0]
        spans = {item["name"]: item for item in trace["spans"]}
        assert spans["child"]["attributes"]["error"] == "ValueError"
        assert spans["root"]["attributes"]["error"] == "ValueError"

    def test_record_adds_duration_known_child_ending_now(self):
        tracer = make_tracer()
        with tracer.trace("root"):
            tracing.record("shim.stage", 0.5, source="legacy")
            tracing.record("shim.negative", -3.0)  # clamped to zero length
        trace = tracer.store.recent(1)[0]
        spans = {item["name"]: item for item in trace["spans"]}
        stage = spans["shim.stage"]
        assert stage["parent_id"] == spans["root"]["span_id"]
        assert stage["duration_seconds"] == pytest.approx(0.5)
        assert stage["attributes"] == {"source": "legacy"}
        assert spans["shim.negative"]["duration_seconds"] == pytest.approx(0.0)

    def test_annotate_and_current_span_inside_and_outside(self):
        tracer = make_tracer()
        assert tracing.current_span() is None
        assert tracing.current_group() == ()
        with tracer.trace("root") as root:
            assert tracing.current_span() is root
            tracing.annotate(cache="miss")
        assert tracing.current_span() is None
        trace = tracer.store.recent(1)[0]
        assert trace["spans"][0]["attributes"] == {"cache": "miss"}

    def test_metrics_fold_observes_stage_histograms(self):
        observed = []

        class FakeMetrics:
            def observe(self, name, value):
                observed.append((name, value))

        tracer = make_tracer(metrics=FakeMetrics())
        with tracer.trace("serve.search"):
            with tracing.span("serve.batch"):
                pass
        names = [name for name, _ in observed]
        assert names == ["stage.serve.search_seconds", "stage.serve.batch_seconds"]
        assert all(value >= 0.0 for _, value in observed)

    def test_head_sampling_traces_first_of_every_n(self):
        tracer = make_tracer(sample_every=3)
        recorded = []
        for _ in range(7):
            with tracer.trace("serve.search"):
                recorded.append(tracing.current_span() is not None)
        assert recorded == [True, False, False, True, False, False, True]
        assert tracer.store.recorded == 3
        # Ids stay dense over the *sampled* traces.
        assert [t["trace_id"] for t in tracer.store.recent()] == [
            "t000003",
            "t000002",
            "t000001",
        ]

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            make_tracer(sample_every=0)

    def test_slow_trace_emits_structured_warning(self):
        stream = io.StringIO()
        logger = StructuredLogger("test", stream=stream, clock=lambda: 0.0)
        tracer = make_tracer(
            store=TraceStore(slow_threshold_seconds=0.0), logger=logger
        )
        with tracer.trace("serve.search"):
            pass
        record = json.loads(stream.getvalue())
        assert record["message"] == "slow trace"
        assert record["level"] == "warning"
        assert record["trace_id"] == "t000001"
        assert record["root"] == "serve.search"


class TestGroupFanOut:
    def test_span_and_record_fan_out_to_every_member(self):
        tracer = make_tracer()
        roots = [tracer.begin("serve.search"), tracer.begin("serve.search")]
        with tracing.scope(roots):
            with tracing.span("serve.batch", batch_size=2):
                tracing.record("extract.encode", 0.25)
                tracing.annotate(cache="miss")
        payloads = [tracer.finish(root) for root in roots]
        assert [p["trace_id"] for p in payloads] == ["t000001", "t000002"]
        for payload in payloads:
            names = [item["name"] for item in payload["spans"]]
            assert names == ["serve.search", "serve.batch", "extract.encode"]
            spans = {item["name"]: item for item in payload["spans"]}
            assert spans["serve.batch"]["parent_id"] == 1
            assert spans["serve.batch"]["attributes"] == {
                "batch_size": 2,
                "cache": "miss",
            }
            assert spans["extract.encode"]["parent_id"] == spans["serve.batch"]["span_id"]
            assert spans["extract.encode"]["duration_seconds"] == pytest.approx(0.25)
        # The work was measured once: both members share timestamps.
        starts = [p["spans"][1]["start"] for p in payloads]
        assert starts[0] == starts[1]

    def test_scope_filters_untraced_members_and_empty_is_noop(self):
        tracer = make_tracer()
        root = tracer.begin("serve.search")
        with tracing.scope([None, root, None]):
            assert tracing.current_group() == (root,)
        with tracing.scope([None, None]):
            assert tracing.current_span() is None
        tracer.finish(root)

    def test_late_writes_after_finalize_are_noops(self):
        tracer = make_tracer()
        root = tracer.begin("serve.search")
        payload = tracer.finish(root)
        root.add_child("late", 0.0, 1.0)
        root.set(late=True)
        assert len(payload["spans"]) == 1
        assert "late" not in payload["spans"][0]["attributes"]


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False and tracer.store is None
        with tracer.trace("anything", key="value") as handle:
            handle.set(more="attrs")
            assert tracing.current_span() is None
            with tracing.span("child"):
                pass
            tracing.record("stage", 1.0)
            tracing.annotate(k=1)
        assert tracer.begin("x") is None
        assert tracer.finish(None) is None
        tracer.bind_metrics(object())
        assert tracer.metrics is None


# ------------------------------------------------------------------- store


class TestTraceStore:
    @staticmethod
    def _trace(trace_id, duration):
        return {
            "trace_id": trace_id,
            "name": "serve.search",
            "start": 0.0,
            "duration_seconds": duration,
            "spans": [
                {
                    "span_id": 1,
                    "parent_id": None,
                    "name": "serve.search",
                    "start": 0.0,
                    "end": duration,
                    "duration_seconds": duration,
                    "attributes": {"kind": "tags"},
                }
            ],
        }

    def test_recent_ring_evicts_oldest(self):
        store = TraceStore(capacity=2, slow_threshold_seconds=1e9)
        for index in range(3):
            store.add(self._trace(f"t{index}", 0.001))
        assert len(store) == 2
        assert [t["trace_id"] for t in store.recent()] == ["t2", "t1"]
        assert store.get("t0") is None
        assert store.recorded == 3

    def test_slow_exemplar_survives_recent_eviction(self):
        store = TraceStore(capacity=1, slow_threshold_seconds=0.05)
        slow = store.add(self._trace("slow", 0.2))
        assert slow["slow"] is True
        fast = store.add(self._trace("fast", 0.001))
        assert fast["slow"] is False
        assert store.get("slow") is slow  # fell off recent, kept in slow ring
        assert [t["trace_id"] for t in store.recent()] == ["fast"]
        assert [t["trace_id"] for t in store.slow()] == ["slow"]

    def test_slow_listing_is_sorted_slowest_first(self):
        store = TraceStore(slow_threshold_seconds=0.0)
        for trace_id, duration in [("a", 0.1), ("b", 0.3), ("c", 0.2)]:
            store.add(self._trace(trace_id, duration))
        assert [t["trace_id"] for t in store.slow()] == ["b", "c", "a"]

    def test_snapshot_shape_and_summary(self):
        store = TraceStore(capacity=8, slow_capacity=4, slow_threshold_seconds=0.05)
        store.add(self._trace("t1", 0.2))
        snapshot = store.snapshot()
        assert snapshot["capacity"] == 8
        assert snapshot["slow_capacity"] == 4
        assert snapshot["recorded"] == 1
        summary = snapshot["recent"][0]
        assert summary == {
            "trace_id": "t1",
            "name": "serve.search",
            "duration_seconds": 0.2,
            "slow": True,
            "spans": 1,
            "attributes": {"kind": "tags"},
        }
        assert snapshot["slow"][0]["trace_id"] == "t1"

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)
        with pytest.raises(ValueError):
            TraceStore(slow_capacity=-1)
        with pytest.raises(ValueError):
            TraceStore(slow_threshold_seconds=-0.1)

    def test_trace_summary_handles_missing_spans(self):
        summary = trace_summary(
            {"trace_id": "x", "name": "n", "duration_seconds": 0.0}
        )
        assert summary["spans"] == 0 and summary["attributes"] == {}


# ------------------------------------------------------------------ logger


class TestStructuredLogger:
    def test_json_line_with_sorted_keys_and_fields(self):
        stream = io.StringIO()
        logger = StructuredLogger("repro.test", stream=stream, clock=lambda: 12.3456789)
        logger.info("reindex complete", generation=3, full=False)
        line = stream.getvalue()
        assert line.endswith("\n")
        record = json.loads(line)
        assert record == {
            "ts": 12.345679,
            "level": "info",
            "logger": "repro.test",
            "message": "reindex complete",
            "generation": 3,
            "full": False,
        }
        keys = list(json.loads(line))
        assert keys == sorted(keys)

    def test_trace_and_span_ids_stamped_when_active(self):
        stream = io.StringIO()
        logger = StructuredLogger("repro.test", stream=stream, clock=lambda: 0.0)
        tracer = make_tracer()
        with tracer.trace("root"):
            with tracing.span("child"):
                logger.info("inside")
        logger.info("outside")
        inside, outside = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert inside["trace_id"] == "t000001"
        assert inside["span_id"] == 2  # the child span, not the root
        assert "trace_id" not in outside and "span_id" not in outside

    def test_level_threshold_filters_and_validates(self):
        stream = io.StringIO()
        logger = StructuredLogger("t", stream=stream, level="warning")
        logger.debug("dropped")
        logger.info("dropped")
        logger.error("kept")
        assert [json.loads(l)["level"] for l in stream.getvalue().splitlines()] == [
            "error"
        ]
        with pytest.raises(ValueError):
            StructuredLogger("t", level="loud")

    def test_get_logger_caches_by_name_unless_configured(self):
        assert get_logger("repro.cache-test") is get_logger("repro.cache-test")
        pinned = get_logger("repro.cache-test", stream=io.StringIO())
        assert pinned is not get_logger("repro.cache-test")

    def test_unserialisable_fields_fall_back_to_repr(self):
        stream = io.StringIO()
        logger = StructuredLogger("t", stream=stream, clock=lambda: 0.0)
        logger.info("obj", payload=object())
        assert "object object" in json.loads(stream.getvalue())["payload"]


# ---------------------------------------------------------- timing shims


class TestTimingShims:
    def test_stage_timings_absorb_into_active_trace(self):
        tracer = make_tracer()
        timings = StageTimings(span_prefix="extract.")
        with tracer.trace("root"):
            timings.add("encode", 0.125)
        timings.add("decode", 0.5)  # outside any trace: folded but unspanned
        assert timings.as_dict()["encode"]["calls"] == 1
        assert timings.as_dict()["decode"]["calls"] == 1
        trace = tracer.store.recent(1)[0]
        names = [item["name"] for item in trace["spans"]]
        assert names == ["root", "extract.encode"]
        spans = {item["name"]: item for item in trace["spans"]}
        assert spans["extract.encode"]["duration_seconds"] == pytest.approx(0.125)

    def test_stage_timings_without_prefix_never_touch_traces(self):
        tracer = make_tracer()
        timings = StageTimings()
        with tracer.trace("root"):
            timings.add("encode", 0.125)
        assert [s["name"] for s in tracer.store.recent(1)[0]["spans"]] == ["root"]

    def test_stage_timings_threadsafe_add(self):
        timings = StageTimings()
        workers = [
            threading.Thread(target=lambda: timings.add("stage", 0.001))
            for _ in range(8)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert timings.as_dict()["stage"]["calls"] == 8


# ------------------------------------------------------------------ render


def sample_trace():
    """root(0..10) -> a(1..4), b(4..9 -> b1(5..7))."""

    def span(span_id, parent_id, name, start, end, **attributes):
        return {
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start": start,
            "end": end,
            "duration_seconds": end - start,
            "attributes": attributes,
        }

    return {
        "trace_id": "t000007",
        "name": "serve.search",
        "start": 0.0,
        "duration_seconds": 10.0,
        "slow": True,
        "spans": [
            span(1, None, "serve.search", 0.0, 10.0, kind="tags"),
            span(3, 2, "b1", 5.0, 7.0),
            span(2, 1, "b", 4.0, 9.0),
            span(4, 1, "a", 1.0, 4.0),
        ],
    }


class TestRender:
    def test_build_span_tree_orders_children_by_start(self):
        root = build_span_tree(sample_trace())
        assert root["name"] == "serve.search"
        assert [child["name"] for child in root["children"]] == ["a", "b"]
        assert [child["name"] for child in root["children"][1]["children"]] == ["b1"]

    def test_orphan_spans_attach_to_root(self):
        trace = sample_trace()
        trace["spans"].append(
            {
                "span_id": 9,
                "parent_id": 42,  # parent lost to a finalize race
                "name": "orphan",
                "start": 9.5,
                "end": 9.6,
                "duration_seconds": 0.1,
                "attributes": {},
            }
        )
        root = build_span_tree(trace)
        assert [child["name"] for child in root["children"]] == ["a", "b", "orphan"]

    def test_build_span_tree_rejects_degenerate_traces(self):
        with pytest.raises(ValueError):
            build_span_tree({"trace_id": "x", "spans": []})
        with pytest.raises(ValueError):
            build_span_tree(
                {
                    "trace_id": "x",
                    "spans": [
                        {
                            "span_id": 1,
                            "parent_id": 1,
                            "name": "cycle",
                            "start": 0.0,
                            "end": 1.0,
                            "duration_seconds": 1.0,
                            "attributes": {},
                        }
                    ],
                }
            )

    def test_render_trace_tree_text(self):
        text = render_trace(sample_trace())
        lines = text.splitlines()
        assert lines[0] == "trace t000007  serve.search  10000.000ms  (4 spans, slow)"
        assert lines[1] == "serve.search  10000.000ms  [kind=tags]"
        assert lines[2] == "├─ a  3000.000ms"
        assert lines[3] == "└─ b  5000.000ms"
        assert lines[4] == "   └─ b1  2000.000ms"

    def test_collapsed_stacks_exclusive_times(self):
        lines = to_collapsed_stacks(sample_trace()).splitlines()
        assert lines == [
            "serve.search 2000000",  # 10s - (3s + 5s) exclusive
            "serve.search;a 3000000",
            "serve.search;b 3000000",  # 5s - 2s child
            "serve.search;b;b1 2000000",
        ]

    def test_collapsed_stack_values_match_the_text_form(self):
        pairs = collapsed_stack_values(sample_trace())
        assert pairs == [
            ("serve.search", 2_000_000),
            ("serve.search;a", 3_000_000),
            ("serve.search;b", 3_000_000),
            ("serve.search;b;b1", 2_000_000),
        ]
        assert to_collapsed_stacks(sample_trace()) == "\n".join(
            f"{stack} {value}" for stack, value in pairs
        )

    def test_collapsed_stacks_sibling_ties_break_on_span_id(self):
        # Two siblings share start=1.0: pre-order must follow span_id, so
        # the pair sequence is identical however the span list is shuffled.
        def span(span_id, parent_id, name, start, end):
            return {
                "span_id": span_id,
                "parent_id": parent_id,
                "name": name,
                "start": start,
                "end": end,
                "duration_seconds": end - start,
                "attributes": {},
            }

        spans = [
            span(1, None, "root", 0.0, 10.0),
            span(3, 1, "second", 1.0, 3.0),
            span(2, 1, "first", 1.0, 2.0),
        ]
        expected = [
            ("root", 7_000_000),
            ("root;first", 1_000_000),
            ("root;second", 2_000_000),
        ]
        for shuffled in (spans, spans[::-1]):
            trace = {"trace_id": "t1", "spans": list(shuffled)}
            assert collapsed_stack_values(trace) == expected

    def test_collapsed_stacks_reject_empty_trace(self):
        with pytest.raises(ValueError, match="no spans"):
            to_collapsed_stacks({"trace_id": "empty", "spans": []})

    def test_collapsed_stacks_single_span(self):
        trace = {
            "trace_id": "t1",
            "spans": [
                {
                    "span_id": 1,
                    "parent_id": None,
                    "name": "serve.search",
                    "start": 0.0,
                    "end": 0.25,
                    "duration_seconds": 0.25,
                    "attributes": {},
                }
            ],
        }
        assert to_collapsed_stacks(trace) == "serve.search 250000"

    def test_collapsed_stacks_clamp_overlong_children_to_zero(self):
        # A child reporting more time than its parent (clock skew between
        # writers) must clamp the parent's exclusive time at zero, never
        # emit a negative weight.
        trace = {
            "trace_id": "t1",
            "spans": [
                {
                    "span_id": 1,
                    "parent_id": None,
                    "name": "root",
                    "start": 0.0,
                    "end": 1.0,
                    "duration_seconds": 1.0,
                    "attributes": {},
                },
                {
                    "span_id": 2,
                    "parent_id": 1,
                    "name": "child",
                    "start": 0.0,
                    "end": 2.0,
                    "duration_seconds": 2.0,
                    "attributes": {},
                },
            ],
        }
        assert collapsed_stack_values(trace) == [
            ("root", 0),
            ("root;child", 2_000_000),
        ]
