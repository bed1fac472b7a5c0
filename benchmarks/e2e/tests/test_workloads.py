"""Workload streams are a pure function of the seed; sessions keep turn order; spinners stop."""

import itertools
import json
import os
import threading
import time

from benchmarks.e2e import workloads
from benchmarks.e2e.loadgen import CONNECTIONS, IdleSpinners, LoadClient
from repro.data import restaurant_dimensions


def _stream(plan, closed_items=40):
    def rows(requests):
        return [(r.kind, r.path, r.body, r.conn) for r in requests]

    # A shared closed-loop source appears once per connection; draw it once.
    closed = list({id(stream): stream for stream in plan.closed}.values())
    return (
        rows(plan.warmup),
        rows(plan.open_requests),
        plan.open_offsets,
        [rows(itertools.islice(stream, closed_items)) for stream in closed],
    )


def test_same_seed_gives_byte_identical_streams():
    for name in workloads.RATES:
        first = _stream(workloads.plan(name, 11, 18))
        again = _stream(workloads.plan(name, 11, 18))
        other = _stream(workloads.plan(name, 12, 18))
        assert first == again, name
        assert first[1] != other[1], name


def test_open_loop_sizes_follow_rate_and_seconds():
    plan = workloads.plan("tag_search", 3, 18)
    reads = [r for r in plan.open_requests if r.is_read]
    assert len(reads) == round(workloads.RATES["tag_search"] * workloads.OPEN_SHARE * 18)
    assert plan.open_offsets == sorted(plan.open_offsets)
    mixed = workloads.plan("reindex_mixed", 3, 18)
    reindex_at = [t for t, r in zip(mixed.open_offsets, mixed.open_requests) if not r.is_read]
    assert reindex_at == [2.0 * k for k in range(1, len(reindex_at) + 1)]


def test_stratified_arrivals_share_their_gaps_across_seeds():
    a = workloads._arrivals(1, 18.0, 200)
    b = workloads._arrivals(2, 18.0, 200)
    gaps = lambda t: sorted(round(y - x, 12) for x, y in zip([0.0] + t[:-1], t))
    assert gaps(a) == gaps(b)
    assert a != b
    assert abs(a[-1] - 200 / 18.0) / (200 / 18.0) < 0.01


def test_search_requests_are_distinct_and_disjoint_from_warmup():
    for name in ("utterance_search", "tag_search"):
        plan = workloads.plan(name, 5, 18)
        bodies = [r.body for r in plan.warmup + plan.open_requests]
        assert len(set(bodies)) == len(bodies), name


def test_tag_variants_are_never_index_tags():
    pool = workloads._variant_pool()
    names = {d.name for d in restaurant_dimensions()}
    assert pool and not set(pool) & names
    assert all(tag.split()[0] in workloads.MODIFIERS for tag in pool)


class _FakeConnection:
    """Answers instantly and records what it was sent, in order."""

    def __init__(self, log, index):
        self.log, self.index = log, index

    def send(self, request):
        now = time.perf_counter()
        self.log.append((self.index, request.path, json.loads(request.body)["utterance"]))
        time.sleep(0.0005)
        end = time.perf_counter()
        return now, end, end, 200, {"generation": 1}

    def close(self):
        pass


def test_idle_spinners_run_at_idle_priority_and_are_gone_after_the_block():
    with IdleSpinners() as spinners:
        procs = list(spinners._procs)
        assert len(procs) == len(os.sched_getaffinity(0))
        deadline = time.monotonic() + 10.0
        while os.sched_getscheduler(procs[-1].pid) != os.SCHED_IDLE:
            assert time.monotonic() < deadline, "spinner never reached SCHED_IDLE"
            time.sleep(0.01)
    assert all(proc.poll() is not None for proc in procs)


def test_pinned_sessions_keep_their_turn_order():
    plan = workloads.plan("session_chat", 9, 18)
    requests = plan.open_requests[:96]
    log = []
    lock = threading.Lock()

    class Logged(_FakeConnection):
        def send(self, request):
            with lock:
                return super().send(request)

    client = LoadClient(0, connections=[Logged(log, i) for i in range(CONNECTIONS)])
    samples = client.open_loop(requests, [0.0] * len(requests))
    assert all(sample.ok for sample in samples)
    sent_by_session = {}
    for conn, path, utterance in log:
        sent_by_session.setdefault(path, []).append((conn, utterance))
    planned = {}
    for request in requests:
        planned.setdefault(request.path, []).append(
            (request.conn, json.loads(request.body)["utterance"])
        )
    assert sent_by_session == planned
    assert {conn for turns in planned.values() for conn, _ in turns} == {0, 1}
