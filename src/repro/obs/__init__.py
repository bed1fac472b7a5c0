"""Observability: tracing, structured logs, and continuous telemetry.

``repro.obs`` is the per-request complement to the aggregate
``repro.serve.metrics`` registry: span trees attribute one request's
latency to batching wait vs. encoder forward vs. similarity kernel vs.
filtering, a bounded :class:`TraceStore` retains recent traces plus slow
exemplars, and :mod:`repro.obs.log` emits JSON records stamped with the
active trace/span ids.  Everything is off by default (:class:`NullTracer`)
and zero-cost when off.

On top of that sit the time-aware layers: :mod:`repro.obs.timeseries`
(a background :class:`MetricsCollector` turning the registry into rates
and windowed percentiles), :mod:`repro.obs.profile` (merging a window of
traces into one weighted flamegraph) and :mod:`repro.obs.slo` (error
budgets, burn rates and the ok→warn→page alert state machine).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "log": ("StructuredLogger", "get_logger", "set_default_stream"),
        "profile": (
            "diff_profiles",
            "merge_traces",
            "profile_from_store",
            "render_profile",
            "render_profile_diff",
        ),
        "render": (
            "build_span_tree",
            "collapsed_stack_values",
            "render_trace",
            "to_collapsed_stacks",
        ),
        "slo": ("SLOMonitor", "SLOSpec", "default_slos"),
        "store": ("TraceStore", "trace_summary"),
        "timeseries": ("MetricsCollector", "TimeSeriesStore"),
        "tracing": (
            "ActiveSpan",
            "NullTracer",
            "Tracer",
            "annotate",
            "current_group",
            "current_span",
            "record",
            "scope",
            "span",
        ),
    },
)
