"""Self-time and residual arithmetic of the per-layer table, on synthetic spans."""

import pytest

from benchmarks.e2e.layers import layer_table, self_times

HANDLER_T, WORKER_T = 1, 2


def _spans():
    """Two requests: a tag search served by a worker, and a say turn.

    Times in seconds; client latencies below are 12 ms and 20 ms.
    """
    return [
        # request 1: handler 0-10 ms, runtime.search 1-9 ms waiting on a worker
        (1, -1, "http.handler", HANDLER_T, 0.000, 0.010),
        (2, 1, "runtime", HANDLER_T, 0.001, 0.009),
        (3, -1, "index.similar", WORKER_T, 0.003, 0.006),
        (4, -1, "rank", WORKER_T, 0.006, 0.007),
        # request 2: handler 20-38 ms; say runs its layers on the handler thread
        (5, -1, "http.handler", HANDLER_T, 0.020, 0.038),
        (6, 5, "runtime", HANDLER_T, 0.021, 0.037),
        (7, 6, "sessions.checkout_wait", HANDLER_T, 0.021, 0.022),
        (8, 6, "conv.analyze", HANDLER_T, 0.022, 0.025),
        (9, 6, "extract", HANDLER_T, 0.025, 0.033),
        (10, 6, "index.lookup", HANDLER_T, 0.033, 0.034),
        (11, 6, "rank", HANDLER_T, 0.034, 0.036),
    ]


def test_self_time_subtracts_same_thread_children():
    selfs = self_times(_spans())
    assert selfs[1] == pytest.approx(0.002)  # handler 10 ms minus runtime 8 ms
    assert selfs[2] == pytest.approx(0.008)  # worker spans are other-thread: not children
    assert selfs[6] == pytest.approx(0.016 - 0.015)


def test_rows_are_per_request_and_sum_to_the_mean():
    rows, mean = layer_table(_spans(), [12.0, 20.0])
    assert mean == pytest.approx(16.0)
    assert rows["http.transport"] == pytest.approx(16.0 - (10 + 18) / 2)
    assert rows["http.handler"] == pytest.approx((2 + 2) / 2)
    # runtime self: 8 ms (search) + 1 ms (say); minus 4 ms of worker spans
    assert rows["runtime.wait"] == pytest.approx((8 + 1 - 4) / 2)
    assert rows["rank"] == pytest.approx((1 + 2) / 2)
    assert rows["extract"] == pytest.approx(4.0)
    assert rows["rebuild.prepare"] == 0.0
    assert sum(rows.values()) == pytest.approx(mean)


def test_child_longer_than_parent_is_rejected():
    spans = _spans()
    spans[8] = (9, 6, "extract", HANDLER_T, 0.025, 0.050)
    with pytest.raises(ValueError, match="negative self time"):
        layer_table(spans, [12.0, 20.0])


def test_cross_thread_parent_is_rejected():
    spans = _spans()
    spans[2] = (3, 2, "index.similar", WORKER_T, 0.003, 0.006)
    with pytest.raises(ValueError, match="different threads"):
        self_times(spans)


def test_handler_count_must_match_requests():
    with pytest.raises(ValueError, match="2 handler spans for 3"):
        layer_table(_spans(), [12.0, 20.0, 5.0])


def test_client_faster_than_server_is_a_negative_residual():
    with pytest.raises(ValueError, match="negative residual"):
        layer_table(_spans(), [5.0, 5.0])


def test_unknown_span_names_are_rejected():
    spans = _spans() + [(12, -1, "mystery", WORKER_T, 0.0, 0.001)]
    with pytest.raises(ValueError, match="unknown span"):
        layer_table(spans, [12.0, 20.0])
