"""Self-tests of the benchmark's pure helpers.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import socket
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    Outcome, Span, Tracer, classify, failure_table, percentile,
    ranked_latencies, samples_beyond, self_times, windowed_percentile,
)
from verify import reply_matches, result_diffs  # noqa: E402


def test_failures_rank_over_the_limit():
    outcomes = [Outcome("a", 0.001 * i) for i in range(1, 9)]
    outcomes += [Outcome("a", 0.0001, "wrong_reply"), Outcome("a", 0.0002, "timeout")]
    ranked = ranked_latencies(outcomes, limit_s=0.5)
    # A quick failure never reads faster than a success: both failures
    # sort last and read the limit.
    assert ranked[-2:] == [0.5, 0.5]
    assert percentile(ranked, 100) == 0.5
    assert percentile(ranked, 0) == 0.001
    # A failure slower than the limit keeps its own elapsed time.
    slow = ranked_latencies([Outcome("a", 2.0, "timeout")], limit_s=0.5)
    assert slow == [2.0]


def test_percentile_interpolates_and_counts_tail():
    ranked = [1.0, 2.0, 3.0, 4.0]
    assert percentile(ranked, 50) == 2.5
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(20000, 99.9) == 20
    with pytest.raises(ValueError):
        percentile([], 50)


def test_windowed_percentile_is_the_median_window():
    outcomes = []
    for window, latency in enumerate([0.010, 0.020, 0.900]):
        outcomes += [
            Outcome("k", latency, None, window + i / 1000) for i in range(1000)
        ]
    # One disturbed window (0.9 s) does not set the figure.
    assert windowed_percentile(outcomes, 1.0, 99, 1.0) == pytest.approx(0.020)
    with pytest.raises(ValueError):
        windowed_percentile(outcomes[:50], 1.0, 99, 1.0)


def test_failure_table_splits_kind_and_class():
    table = failure_table([
        Outcome("identify", 0.1, "timeout"),
        Outcome("identify", 0.1),
        Outcome("logicnet", 0.1, "serving_error.7"),
    ])
    assert table == {
        "identify": {"attempted": 2, "timeout": 1},
        "logicnet": {"attempted": 1, "serving_error.7": 1},
    }


def test_classify_error_classes():
    class ServingError(Exception):
        code = 7

    class ConnectionLostError(ServingError):
        pass

    assert classify(socket.timeout("timed out")) == "timeout"
    assert classify(ConnectionLostError()) == "connection_lost"
    assert classify(ServingError()) == "serving_error.7"
    assert classify(ConnectionResetError()) == "connection_lost"
    with pytest.raises(KeyError):
        classify(KeyError("a benchmark bug is not a server failure"))


def test_self_time_subtracts_merged_children():
    spans = [
        Span(1, "op", 0.0, 10.0, None, 1),
        Span(2, "client", 1.0, 4.0, 1, 1),
        Span(3, "client", 3.0, 6.0, 1, 1),  # overlaps span 2
        Span(4, "verify", 9.0, 12.0, 1, 1),  # clipped to the parent
        Span(5, "inner", 1.5, 2.0, 2, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[5] == pytest.approx(0.5)


def test_tracer_records_parent_and_request():
    tracer = Tracer(True)
    with tracer.span("op", request=7):
        with tracer.span("client"):
            pass
    child, parent = tracer.spans
    assert child.parent == parent.span_id and child.request == 7
    off = Tracer(False)
    with off.span("op"):
        pass
    assert off.spans == []


def test_verifier_rejects_a_corrupted_reply():
    expected = {
        "popcounts": np.arange(6, dtype=np.int64).reshape(2, 3),
        "checksums": np.array([5, 9], dtype=np.uint64),
    }
    good = SimpleNamespace(
        popcounts=expected["popcounts"].copy(),
        checksums=expected["checksums"].copy(),
    )
    assert reply_matches(good, expected)
    flipped = SimpleNamespace(
        popcounts=good.popcounts, checksums=good.checksums ^ np.uint64(1)
    )
    assert not reply_matches(flipped, expected)
    short = SimpleNamespace(popcounts=good.popcounts[:1], checksums=good.checksums)
    assert not reply_matches(short, expected)


def test_result_diffs_skip_wall_times_only():
    want = {"a": [1.0, float("nan")], "wall_seconds": 1.0, "b": {"c": 2}}
    same = {"a": [1.0, float("nan")], "wall_seconds": 9.0, "b": {"c": 2}}
    assert result_diffs(want, same) == []
    drifted = {"a": [1.0, float("nan")], "wall_seconds": 1.0, "b": {"c": 3}}
    assert result_diffs(want, drifted) == ["/b/c: 3 != 2"]
    assert result_diffs(want, {"a": [1.0]}) != []
