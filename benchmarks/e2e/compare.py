"""Compare two sets of result records: ``python -m benchmarks.e2e.compare A/ B/``.

``A`` is the baseline (the parent commit), ``B`` the candidate.  Each is a
directory of ``*.jsonl`` records written by ``python -m benchmarks.e2e
--out DIR``.  For every workload x end-to-end metric this prints each
side's median and interquartile range and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound (and the
  spread is within the bound, or every B run is worse than every A run);
* ``unresolved``: the run-to-run spread (IQR / median, the wider side) is
  wider than the bound, so the data cannot tell;
* ``better``: B wins at least nine tenths of the runs paired by seed (ties
  count for neither) and the medians differ by more than A's IQR; sides
  with no seed in common have no pairs, so nothing reads ``better``;
* ``within bound``: none of the above.

The :data:`UNGATED` metrics follow, with no bound: they read ``better`` by
the same paired-wins rule and ``not gated`` otherwise.

Traced records are skipped, and so are records marked ``invalid`` (the load
generator ran late); the command says how many it dropped.  It exits 1
when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import stats

__all__ = ["UNGATED", "load_records", "main", "verdict"]

ROOT = Path(__file__).resolve().parents[2]
#: share of paired runs B must win for a "better" verdict.
WIN_SHARE = 0.9
#: the served turn's CPU-bound metrics.  The host's CPU speed moves them by
#: more than 10% between runs (README, "Noise on this host"), so
#: BENCHMARK.json lists them with the per-layer metrics, without a bound.
UNGATED = ("p50_ms", "cpu_ms_per_req", "reindex_ms")

Series = Dict[int, float]  # seed -> value


def load_records(directory: Path) -> Tuple[Dict[Tuple[str, str], Series], int]:
    """``((workload, metric) -> {seed: value}, invalid runs dropped)``.

    Only untraced records count, and of those only the valid ones.
    """
    series: Dict[Tuple[str, str], Series] = {}
    invalid = 0
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record["traced"]:
                continue
            if record["invalid"]:
                invalid += 1
                continue
            for metric, value in record["values"].items():
                series.setdefault((record["workload"], metric), {})[record["seed"]] = value
    return series, invalid


def _pairs(a: Series, b: Series) -> List[Tuple[float, float]]:
    """Runs paired by seed, over the seeds both sides ran."""
    return [(a[seed], b[seed]) for seed in sorted(set(a) & set(b))]


def verdict(
    a: Series, b: Series, bound: Optional[float], better: str
) -> Tuple[str, Dict[str, float]]:
    """The verdict for one workload x metric (``bound`` None: not gated)."""
    sign = 1.0 if better == "lower" else -1.0
    a_values, b_values = list(a.values()), list(b.values())
    a_median, b_median = stats.median(a_values), stats.median(b_values)
    worsening = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    spread = max(stats.iqr_frac(a_values), stats.iqr_frac(b_values))
    improves = [sign * (y - x) < 0 for x, y in _pairs(a, b)]
    worsens = [sign * (y - x) > 0 for x, y in _pairs(a, b)]
    all_better = max(sign * v for v in b_values) < min(sign * v for v in a_values)
    all_worse = min(sign * v for v in b_values) > max(sign * v for v in a_values)
    a_q1, a_q3 = stats.quartiles(a_values)
    numbers = {
        "a_median": a_median,
        "b_median": b_median,
        "change": (b_median - a_median) / abs(a_median) if a_median else 0.0,
        "spread": spread,
        "wins": sum(improves),
        "losses": sum(worsens),
        "pairs": len(improves),
    }
    if bound is not None:
        if worsening > bound and (spread <= bound or all_worse):
            return "worse", numbers
        if spread > bound and not all_better:
            return "unresolved", numbers
    if (
        improves
        and sum(improves) >= WIN_SHARE * len(improves)
        and abs(b_median - a_median) > a_q3 - a_q1
    ):
        return "better", numbers
    return ("within bound" if bound is not None else "not gated"), numbers


def _iqr(values: Sequence[float]) -> str:
    q1, q3 = stats.quartiles(values)
    return f"[{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.compare", description=__doc__.split("\n")[0])
    parser.add_argument("baseline", type=Path, help="directory of records (A, the parent)")
    parser.add_argument("candidate", type=Path, help="directory of records (B, the change)")
    options = parser.parse_args(argv)

    catalog = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = catalog["end_to_end"] + [m for m in catalog["per_layer"] if m["name"] in UNGATED]
    a_series, a_invalid = load_records(options.baseline)
    b_series, b_invalid = load_records(options.candidate)
    print(f"dropped invalid runs (load generator late): A {a_invalid}, B {b_invalid}")
    workloads = sorted({workload for workload, _ in a_series} & {w for w, _ in b_series})
    if not workloads:
        print("no workload has valid records on both sides", file=sys.stderr)
        return 2
    worse = 0
    print(
        f"{'workload':<18}{'metric':<16}{'A median':>11} {'A IQR':<20}{'B median':>11} "
        f"{'B IQR':<20}{'change':>8}{'spread':>8}{'bound':>7}  verdict"
    )
    for workload in workloads:
        for metric in metrics:
            key = (workload, metric["name"])
            if key not in a_series or key not in b_series:
                continue
            a, b = a_series[key], b_series[key]
            bound = metric.get("bound")
            outcome, numbers = verdict(a, b, bound, metric["better"])
            worse += outcome == "worse"
            detail = ""
            if outcome == "better":
                detail = f" ({numbers['wins']}/{numbers['pairs']} paired wins)"
            elif not numbers["pairs"]:
                detail = " (no seed run on both sides: no paired wins)"
            bound_cell = f"{bound * 100:>6.1f}%" if bound is not None else f"{'-':>7}"
            print(
                f"{workload:<18}{metric['name']:<16}{numbers['a_median']:>11.4g} "
                f"{_iqr(list(a.values())):<20}{numbers['b_median']:>11.4g} "
                f"{_iqr(list(b.values())):<20}{numbers['change'] * 100:>7.2f}%"
                f"{numbers['spread'] * 100:>7.2f}%{bound_cell}  {outcome}{detail}"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
