"""Run the end-to-end benchmark: ``python -m benchmarks.e2e --seed 7``.

Each workload gets fresh server processes: five cold starts (``setup_s`` is
their median), then the last one serves the probes, 100 warm-up requests,
the open-loop phase and the closed-loop phase, all beside the load
generator's idle spinners (:class:`~benchmarks.e2e.loadgen.IdleSpinners`).
``--trace 1`` follows each
untraced run with a traced one that records spans instead of running the
closed loop, prints the per-layer table, and reports the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` the traced runs' per-layer ones).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import build, layers, oracle, stats, workloads
from benchmarks.e2e.compare import UNGATED
from benchmarks.e2e.loadgen import IdleSpinners, LoadClient, Sample
from benchmarks.e2e.process import ServerProcess

__all__ = ["main", "run_workload"]

ROOT = Path(__file__).resolve().parents[2]
SETUP_STARTS = 5
TAIL_Q = 90.0
IDLE_REINDEXES = 3
IDLE_GAP_S = 0.1
#: loadgen.oversleep_p99_ms above this marks the run's timing invalid (the
#: outputs may still be correct, so ``correct`` does not depend on it).
OVERSLEEP_LIMIT_MS = 2.0


def catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _generations_monotonic(samples: Sequence[Sample]) -> bool:
    last: Dict[int, int] = {}
    for sample in sorted(samples, key=lambda s: (s.conn, s.sent)):
        generation = (sample.payload or {}).get("generation")
        if generation is None:
            continue
        if generation < last.get(sample.conn, generation):
            return False
        last[sample.conn] = generation
    return True


def _cheap_layers(metrics: dict, open_samples: Sequence[Sample]) -> Dict[str, float]:
    """Per-layer numbers read from the client clock and ``/metrics``."""
    counters = metrics.get("counters", {})
    ratios = metrics.get("ratios", {})
    routes = {
        route: counters.get(f"conv.route.{route}", 0)
        for route in ("subjective", "objective", "chitchat")
    }
    idle = [(s.sent - s.due) * 1000.0 for s in open_samples if s.idle]
    return {
        "http.header_gap_ms": _mean([s.header_gap_ms for s in open_samples if s.ok]),
        "runtime.batch_size": metrics.get("histograms", {}).get("batch.size", {}).get("mean", 0.0),
        "cache.ranking_hit_ratio": ratios.get("cache.ranking", 0.0),
        "cache.tags_hit_ratio": ratios.get("cache.tags", 0.0),
        "conv.subjective_frac": _ratio(routes["subjective"], sum(routes.values())),
        "conv.coref_hit_ratio": ratios.get("conv.coref", 0.0),
        "extract.sentences_per_call": _ratio(
            counters.get("extract.sentences", 0), counters.get("extract.batches", 0)
        ),
        "loadgen.oversleep_p99_ms": stats.percentile(idle, 99.0) if idle else 0.0,
    }


def _traced_layers(spans_file: Path, window: Sequence[Sample]) -> Dict[str, object]:
    with open(spans_file, encoding="utf-8") as handle:
        recorded = json.load(handle)
    spans = [tuple(span) for span in recorded["spans"]]
    rows, mean = layers.layer_table(spans, [s.service_ms for s in window])
    per_request = 1000.0 / len(window)
    counts = recorded["counts"]
    values: Dict[str, float] = {layers.ROWS[name]: value for name, value in rows.items()}
    for stage, seconds in recorded["engine_seconds"].items():
        values[f"extract.{stage}_ms"] = seconds * per_request
    utterances = counts.get("extract.utterances", 0)
    values["extract.tags_per_utterance"] = _ratio(counts.get("extract.tags", 0), utterances)
    values["extract.zero_tag_frac"] = _ratio(counts.get("extract.zero_tag", 0), utterances)
    known, unknown = counts.get("index.known", 0), counts.get("index.unknown", 0)
    values["index.unknown_tag_frac"] = _ratio(unknown, known + unknown)
    values["trace.mean_ms"] = mean
    return {"values": values, "rows": rows, "mean_ms": mean}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    model_dir: Path,
    expected: List[dict],
) -> dict:
    """One run of one workload against fresh server processes."""
    wall_started = time.perf_counter()
    plan = workloads.plan(name, seed, seconds)
    reads = sum(1 for request in plan.open_requests if request.is_read)
    stats.check_tail(reads, TAIL_Q)
    slo_ms = build.serve_defaults().slo_latency_ms
    run_dir = ROOT / ".bench_build" / "e2e" / "runs" / f"{name}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans_file = run_dir / "spans.json"
    gc.collect()
    gc.freeze()

    with IdleSpinners():
        setups, phases = [], []
        for start in range(SETUP_STARTS):
            serving = start == SETUP_STARTS - 1
            server = ServerProcess(
                ROOT, model_dir, run_dir / "server.log", spans=spans_file if traced and serving else None
            ).start()
            setups.append(server.setup_s)
            phases.append(server.phases)
            if not serving:
                server.stop()

        with server, LoadClient(server.port) as client:
            probes = client.sequential(workloads.PROBES)
            idle_reindexes: List[Sample] = []
            if name != "reindex_mixed":
                for _ in range(IDLE_REINDEXES):
                    # Idle past the client's delayed-ACK window first, so the
                    # rebuild is timed without the transport stall and its
                    # timer-tick granularity (the stall shows everywhere else).
                    time.sleep(IDLE_GAP_S)
                    idle_reindexes += client.sequential([workloads.reindex_request()])
            warmup = client.drain(plan.warmup)
            cpu_before = server.thread_cpu()
            open_samples = client.open_loop(plan.open_requests, plan.open_offsets)
            open_cpu_s = server.cpu_seconds_between(cpu_before, server.thread_cpu())
            closed: List[Sample] = []
            closed_elapsed = 0.0
            if not traced:
                closed, closed_elapsed = client.closed_loop(
                    plan.closed, seconds * (1.0 - workloads.OPEN_SHARE)
                )
            server_metrics = server.get("/metrics")
            rss_mb = server.peak_rss_mb()

    everything = probes + idle_reindexes + warmup + open_samples + closed
    diffs = oracle.compare(
        expected, [s.payload if s.ok else {"status": s.status} for s in probes]
    )
    monotonic = _generations_monotonic(everything)
    open_reads = [s for s in open_samples if s.request.is_read]
    latencies = [s.latency_ms for s in open_reads]
    reindexes = [s.latency_ms for s in open_samples + idle_reindexes if not s.request.is_read]
    values: Dict[str, float] = {
        "setup_s": stats.median(setups),
        "p50_ms": stats.percentile(latencies, 50.0),
        "p90_ms": stats.percentile(latencies, TAIL_Q),
        "slo_frac": sum(s.ok and s.latency_ms <= slo_ms for s in open_reads) / len(open_reads),
        "cpu_ms_per_req": open_cpu_s * 1000.0 / max(1, sum(s.ok for s in open_samples)),
        "rss_mb": rss_mb,
        "reindex_ms": stats.median(reindexes),
    }
    if not traced:
        values["throughput_rps"] = sum(s.ok for s in closed) / closed_elapsed
    values.update(_cheap_layers(server_metrics, open_samples))
    for phase in phases[0]:
        values[f"setup.{phase}_s"] = stats.median([p[phase] for p in phases])
    table = None
    if traced:
        table = _traced_layers(spans_file, probes + idle_reindexes + warmup + open_samples)
        values.update(table["values"])
    shutil.rmtree(run_dir)
    invalid = values["loadgen.oversleep_p99_ms"] > OVERSLEEP_LIMIT_MS
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": not diffs and monotonic,
        "diffs": diffs,
        "generations_monotonic": monotonic,
        "invalid": invalid,
        "attempted": len(everything),
        "failed": sum(not s.ok for s in everything),
        "open_requests": len(open_reads),
        "closed_requests": len(closed),
        "open_mean_ms": _mean([s.service_ms for s in open_reads]),
        "values": values,
        "layer_rows": table["rows"] if table else None,
        "wall_s": time.perf_counter() - wall_started,
    }


def environment() -> Dict[str, object]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _report(result: dict, metric_specs: Sequence[dict]) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"\n== {result['workload']}  seed {result['seed']}  ({mode}, "
        f"{result['seconds']:g} s measured, {result['wall_s']:.1f} s wall)"
    )
    if result["diffs"]:
        print(f"  PROBE MISMATCH ({len(result['diffs'])}):")
        for line in result["diffs"]:
            print(f"  {line}")
    else:
        print(f"  probes: {len(workloads.PROBES)}/{len(workloads.PROBES)} match the oracle")
    if not result["generations_monotonic"]:
        print("  GENERATION WENT BACKWARDS on a connection")
    if result["invalid"]:
        print(
            f"  INVALID RUN: load generator overslept "
            f"{result['values']['loadgen.oversleep_p99_ms']:.2f} ms at p99 "
            f"(limit {OVERSLEEP_LIMIT_MS} ms)"
        )
    for spec in metric_specs:
        value = result["values"][spec["name"]]
        gate = "" if result["traced"] or "bound" in spec else "  (no bound)"
        print(f"  {spec['name']:<28}{value:>12.4f} {spec['unit']}{gate}")
    print(
        f"  ({result['open_requests']} open-loop reads, "
        f"{stats.beyond(result['open_requests'], TAIL_Q)} beyond p{TAIL_Q:g}; "
        f"{result['closed_requests']} closed-loop; {result['failed']} failed of "
        f"{result['attempted']} attempted)"
    )
    if result["layer_rows"] is not None:
        print("  per-layer self time, every request of the traced run:")
        for line in layers.render_table(result["layer_rows"], result["values"]["trace.mean_ms"]):
            print(line)


def _append_records(out: Path, results: Sequence[dict]) -> None:
    """Append one JSON line per run to ``out/records.jsonl``."""
    out.mkdir(parents=True, exist_ok=True)
    path = out / "records.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        for result in results:
            record = {key: value for key, value in result.items() if key != "diffs"}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"appended {len(results)} records to {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = catalog()
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(workloads.RATES), help="run only this workload (default: all four)"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"], help="measured seconds per run"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: follow each run with a traced one; print layers and tracing overhead",
    )
    parser.add_argument("--out", type=Path, help="write result records into this directory")
    options = parser.parse_args(argv)

    # Unwind on SIGTERM so the server processes are stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = [options.workload] if options.workload else list(workloads.RATES)
    modes = [False, True] if options.trace else [False]
    # A short switch interval lets a load thread that wakes for a due
    # request take the interpreter from the other one promptly.
    sys.setswitchinterval(0.0005)
    model_dir = build.ensure_model(ROOT)
    expected = oracle.cached_expected(workloads.PROBES, model_dir)
    env = environment()
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    # An untraced run prints the end-to-end metrics and the ungated ones.
    untraced_specs = spec["end_to_end"] + [m for m in spec["per_layer"] if m["name"] in UNGATED]
    results = []
    for name in names:
        for traced in modes:
            result = run_workload(name, options.seed, options.seconds, traced, model_dir, expected)
            result["environment"] = env
            _report(result, spec["per_layer"] if traced else untraced_specs)
            results.append(result)
    if options.trace:
        print("\ntracing overhead, traced vs untraced open loop (same requests, same rate):")
        print(f"  {'workload':<18}{'mean ms':>25}{'p50 ms':>25}{'server cpu ms/req':>25}")
        for name in names:
            plain, traced = (r for r in results if r["workload"] == name)
            pairs = [
                (plain["open_mean_ms"], traced["open_mean_ms"]),
                (plain["values"]["p50_ms"], traced["values"]["p50_ms"]),
                (plain["values"]["cpu_ms_per_req"], traced["values"]["cpu_ms_per_req"]),
            ]
            cells = "".join(f"{a:>8.3f} -> {b:>6.3f} {b / a - 1:+6.1%}" for a, b in pairs)
            print(f"  {name:<18}{cells}")
    correct = all(r["correct"] for r in results)
    if options.out is not None and correct:
        _append_records(options.out, results)

    # The end-to-end metrics, or with --trace 1 the traced runs' per-layer ones.
    reported = [r for r in results if r["traced"] == bool(options.trace)]
    metrics = {}
    for result in reported:
        for metric in spec["per_layer" if result["traced"] else "end_to_end"]:
            key = metric["name"] if len(reported) == 1 else f"{result['workload']}/{metric['name']}"
            metrics[key] = {"value": result["values"][metric["name"]], "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1
