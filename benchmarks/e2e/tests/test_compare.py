"""``compare`` verdicts on hand-made records."""

import json

import pytest

from benchmarks.e2e import compare

SEEDS = range(1, 11)


def _series(values):
    return dict(zip(SEEDS, values))


BASE = _series([50.0, 50.5, 49.5, 50.2, 49.8, 50.1, 49.9, 50.3, 49.7, 50.0])


def test_better_needs_paired_wins_and_a_gap_beyond_the_spread():
    faster = _series([v * 0.9 for v in BASE.values()])
    outcome, numbers = compare.verdict(BASE, faster, 0.05, "lower")
    assert outcome == "better"
    assert numbers["wins"] == 10


def test_eight_of_ten_wins_is_not_better():
    mixed = _series([v * 0.97 for v in BASE.values()])
    mixed[1], mixed[2] = 51.0, 51.0  # two losses
    assert compare.verdict(BASE, mixed, 0.05, "lower")[0] == "within bound"


def test_worse_beyond_the_bound():
    slower = _series([v * 1.08 for v in BASE.values()])
    assert compare.verdict(BASE, slower, 0.05, "lower")[0] == "worse"


def test_small_worsening_is_within_bound():
    slower = _series([v * 1.02 for v in BASE.values()])
    assert compare.verdict(BASE, slower, 0.05, "lower")[0] == "within bound"


def test_higher_is_better_metrics_flip_the_sign():
    throughput = _series([40.0 + 0.1 * i for i in range(10)])
    lower = _series([v * 0.9 for v in throughput.values()])
    higher = _series([v * 1.1 for v in throughput.values()])
    assert compare.verdict(throughput, lower, 0.05, "higher")[0] == "worse"
    assert compare.verdict(throughput, higher, 0.05, "higher")[0] == "better"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = _series([40.0, 60.0, 45.0, 55.0, 42.0, 58.0, 50.0, 47.0, 53.0, 50.0])
    assert compare.verdict(BASE, noisy, 0.05, "lower")[0] == "unresolved"


def test_noisy_but_every_run_better_is_not_unresolved():
    noisy_fast = _series([30.0, 40.0, 33.0, 38.0, 31.0, 39.0, 35.0, 34.0, 36.0, 32.0])
    assert compare.verdict(BASE, noisy_fast, 0.05, "lower")[0] == "better"


def test_ungated_metrics_are_never_worse_but_can_be_better():
    slower = _series([v * 1.3 for v in BASE.values()])
    faster = _series([v * 0.9 for v in BASE.values()])
    assert compare.verdict(BASE, slower, None, "lower")[0] == "not gated"
    assert compare.verdict(BASE, faster, None, "lower")[0] == "better"


def test_sides_without_common_seeds_are_never_better():
    faster = {seed + 100: v * 0.9 for seed, v in BASE.items()}
    outcome, numbers = compare.verdict(BASE, faster, 0.05, "lower")
    assert outcome == "within bound"
    assert numbers["pairs"] == 0


def _write(directory, workload, series, metric="p90_ms", traced=False, invalid=False):
    directory.mkdir(exist_ok=True)
    with open(directory / "records.jsonl", "a", encoding="utf-8") as handle:
        for seed, value in series.items():
            record = {
                "workload": workload,
                "seed": seed,
                "traced": traced,
                "invalid": invalid,
                "values": {metric: value},
            }
            handle.write(json.dumps(record) + "\n")


def test_invalid_runs_are_dropped_and_counted(tmp_path):
    _write(tmp_path, "tag_search", BASE)
    _write(tmp_path, "tag_search", {11: 500.0, 12: 1.0}, invalid=True)
    series, invalid = compare.load_records(tmp_path)
    assert invalid == 2
    assert series[("tag_search", "p90_ms")] == BASE


def test_main_exits_nonzero_only_on_a_worse_verdict(tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _write(a, "tag_search", BASE)
    _write(a, "tag_search", _series([1.0] * 10), traced=True)  # traced records are ignored
    _write(b, "tag_search", _series([v * 0.999 for v in BASE.values()]))
    # Kept, these would replace B's runs of the same seeds and read "worse".
    _write(b, "tag_search", _series([v * 1.3 for v in BASE.values()]), invalid=True)
    _write(c, "tag_search", _series([v * 1.3 for v in BASE.values()]))
    assert compare.main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "within bound" in out and "A 0, B 10" in out
    assert compare.main([str(a), str(c)]) == 1
    assert "worse" in capsys.readouterr().out
