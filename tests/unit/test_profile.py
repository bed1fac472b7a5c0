"""Unit tests for ``repro.obs.profile`` and the ``repro top`` dashboard.

Trace payloads are hand-built plain dicts (the same shape the tracer
finalizes), so the aggregate math is exact: spans carry round durations
and the expected exclusive microseconds are computed by eye.
"""

import pytest

from repro.obs import (
    diff_profiles,
    merge_traces,
    profile_from_store,
    render_profile,
    render_profile_diff,
)
from repro.obs.dashboard import render_dashboard, sparkline
from repro.obs.store import TraceStore


def span(span_id, name, start, duration, parent=None, **attributes):
    return {
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start": start,
        "duration_seconds": duration,
        "attributes": attributes,
    }


def trace(trace_id, spans, name="serve.search"):
    duration = spans[0]["duration_seconds"] if spans else 0.0
    return {
        "trace_id": trace_id,
        "name": name,
        "duration_seconds": duration,
        "slow": False,
        "spans": spans,
    }


def search_trace(trace_id, extract=0.003, execute=0.002, total=0.010):
    """Root (10ms) with two stage children → root exclusive = total-extract-execute."""
    return trace(
        trace_id,
        [
            span("s1", "serve.search", 0.0, total),
            span("s2", "serve.extract", 1.0, extract, parent="s1"),
            span("s3", "serve.execute", 2.0, execute, parent="s1"),
        ],
    )


# ------------------------------------------------------------------- merge


class TestMergeTraces:
    def test_sums_exclusive_time_per_stack(self):
        profile = merge_traces([search_trace("t1"), search_trace("t2")])
        assert profile["traces"] == 2
        assert profile["stacks"] == {
            "serve.search": 10_000,  # 2 × (10ms − 3ms − 2ms)
            "serve.search;serve.extract": 6_000,
            "serve.search;serve.execute": 4_000,
        }
        assert profile["total_us"] == 20_000

    def test_stage_attribution_keys_off_depth_one_frame(self):
        profile = merge_traces([search_trace("t1")])
        # Root-exclusive time lands under the root's own name.
        assert profile["stages"] == {
            "serve.search": 5_000,
            "serve.extract": 3_000,
            "serve.execute": 2_000,
        }

    def test_deep_stacks_still_attribute_to_stage(self):
        deep = trace(
            "t1",
            [
                span("s1", "serve.search", 0.0, 0.010),
                span("s2", "serve.extract", 1.0, 0.004, parent="s1"),
                span("s3", "bert.encode", 2.0, 0.003, parent="s2"),
            ],
        )
        profile = merge_traces([deep])
        assert profile["stacks"]["serve.search;serve.extract;bert.encode"] == 3_000
        # bert.encode's time attributes to its stage (serve.extract).
        assert profile["stages"]["serve.extract"] == 1_000 + 3_000

    def test_spanless_traces_are_skipped_not_fatal(self):
        profile = merge_traces([trace("empty", []), search_trace("t1")])
        assert profile["traces"] == 1

    def test_zero_exclusive_frames_are_dropped(self):
        # Child exactly covers the root: the root's exclusive time is 0.
        covered = trace(
            "t1",
            [
                span("s1", "serve.search", 0.0, 0.005),
                span("s2", "serve.extract", 1.0, 0.005, parent="s1"),
            ],
        )
        profile = merge_traces([covered])
        assert profile["stacks"] == {"serve.search;serve.extract": 5_000}

    def test_merge_is_deterministic(self):
        traces = [search_trace(f"t{index}") for index in range(5)]
        assert merge_traces(traces) == merge_traces(traces)

    def test_empty_input(self):
        profile = merge_traces([])
        assert profile == {"traces": 0, "total_us": 0, "stacks": {}, "stages": {}}


class TestProfileFromStore:
    def test_recent_window_with_limit(self):
        store = TraceStore(capacity=16, slow_threshold_seconds=1e9)
        for index in range(4):
            store.add(search_trace(f"t{index}"))
        profile = profile_from_store(store, limit=2)
        assert profile["traces"] == 2
        assert profile["window"] == {"source": "recent", "limit": 2}

    def test_slow_only_reads_the_slow_ring(self):
        store = TraceStore(capacity=16, slow_threshold_seconds=0.005)
        store.add(search_trace("fast", total=0.004, extract=0.001, execute=0.001))
        store.add(search_trace("slow", total=0.050))
        profile = profile_from_store(store, slow_only=True)
        assert profile["traces"] == 1
        assert profile["window"]["source"] == "slow"
        assert profile["stacks"]["serve.search"] == 45_000


# -------------------------------------------------------------------- diff


class TestDiffProfiles:
    def test_normalises_per_trace_before_subtracting(self):
        before = merge_traces([search_trace(f"b{i}") for i in range(4)])
        after = merge_traces([search_trace("a1", extract=0.005)])
        diff = diff_profiles(before, after)
        assert diff["before_traces"] == 4
        assert diff["after_traces"] == 1
        # extract went 3ms → 5ms per trace (+2000µs); execute unchanged
        # (dropped); root exclusive shrank by the same 2ms.
        assert diff["stages"]["serve.extract"] == pytest.approx(2_000.0)
        assert "serve.execute" not in diff["stages"]
        assert diff["stages"]["serve.search"] == pytest.approx(-2_000.0)

    def test_frames_unique_to_one_window_survive(self):
        before = merge_traces([search_trace("b1")])
        gone = trace("a1", [span("s1", "serve.say", 0.0, 0.002)], name="serve.say")
        after = merge_traces([gone])
        diff = diff_profiles(before, after)
        assert diff["stages"]["serve.say"] == pytest.approx(2_000.0)
        assert diff["stages"]["serve.extract"] == pytest.approx(-3_000.0)

    def test_empty_windows_yield_empty_diff(self):
        diff = diff_profiles(merge_traces([]), merge_traces([]))
        assert diff == {
            "before_traces": 0,
            "after_traces": 0,
            "stacks": {},
            "stages": {},
        }


# ------------------------------------------------------------------ render


class TestRenderers:
    def test_render_profile_lists_stages_then_stacks(self):
        text = render_profile(merge_traces([search_trace("t1")]), top=2)
        lines = text.splitlines()
        assert lines[0].startswith("aggregate profile  1 traces")
        assert any("per-stage attribution" in line for line in lines)
        assert any("serve.extract" in line and "30.0%" in line for line in lines)
        assert any("hottest stacks (top 2 of 3)" in line for line in lines)

    def test_render_profile_empty_window(self):
        text = render_profile(merge_traces([]))
        assert "(no traces in window)" in text

    def test_render_diff_orders_regressions_first(self):
        before = merge_traces([search_trace("b1")])
        after = merge_traces([search_trace("a1", extract=0.006, execute=0.001)])
        text = render_profile_diff(diff_profiles(before, after))
        stage_lines = [
            line for line in text.splitlines() if line.lstrip().startswith("+")
        ]
        assert stage_lines and "serve.extract" in stage_lines[0]

    def test_render_diff_no_change(self):
        same = merge_traces([search_trace("t1")])
        text = render_profile_diff(diff_profiles(same, same))
        assert "(no per-stage change)" in text


# --------------------------------------------------------------- dashboard


class TestSparkline:
    def test_scales_to_window_max(self):
        line = sparkline([0.0, 4.0, 8.0], width=8)
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"

    def test_keeps_newest_when_overflowing_width(self):
        line = sparkline(list(range(10)), width=4)
        assert len(line) == 4
        assert line[-1] == "█"

    def test_flat_when_all_zero_or_empty(self):
        assert set(sparkline([0.0, 0.0, 0.0])) == {"▁"}
        assert sparkline([]) == ""


class TestRenderDashboard:
    def health(self):
        return {
            "status": "ok",
            "generation": 3,
            "index_tags": 18,
            "sessions": 2,
            "queue_depth": 0,
        }

    def timeseries(self, n=4):
        return {
            "points": [
                {
                    "rates": {"requests.search": 10.0 + index},
                    "ratios": {"cache.ranking": 0.5},
                    "histograms": {
                        "latency.search_seconds": {"p50": 0.001, "p99": 0.002}
                    },
                }
                for index in range(n)
            ]
        }

    def slo(self):
        return {
            "slos": [
                {
                    "name": "search-latency",
                    "state": "warn",
                    "fast_burn": 2.5,
                    "slow_burn": 2.2,
                    "budget_remaining_frac": 0.4,
                }
            ]
        }

    def test_renders_all_sections(self):
        text = render_dashboard(self.health(), self.timeseries(), self.slo())
        assert "status=ok" in text and "generation=3" in text
        assert "search" in text and "13.0" in text  # newest rate
        assert "cache.ranking" in text and "50.0%" in text
        assert "p99 trend" in text
        assert "▲ warn" in text and "2.50x" in text and "40.0%" in text

    def test_unreachable_and_disabled_degrade_explicitly(self):
        text = render_dashboard(None, None, None)
        assert "healthz unreachable" in text
        assert "no collector samples" in text
        assert "monitoring disabled" in text
