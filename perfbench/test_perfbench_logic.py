"""Tests of the benchmark's own logic: percentiles, self time, due-time
accounting, the SLO ladder rule, the top-k oracle and the tracer."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

import driver
import spans


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (100, 90), (200, 95), (999, 98), (1000, 99), (100_000, 99)],
)
def test_supported_percentile_leaves_ten_samples_beyond(count, expected):
    assert driver.supported_percentile(count) == expected
    if expected is not None:
        assert count * (100 - expected) / 100 >= driver.MIN_SAMPLES_BEYOND


def _span(span_id, parent, start, end, leaf=0.0, name="x"):
    return spans.Span(span_id, name, parent, 1, start, end, leaf_seconds=leaf)


def test_self_time_subtracts_union_of_children_and_leaf_time():
    tree = [
        _span(1, None, 0.0, 10.0, leaf=1.0),
        # Two children on other threads overlap on [2, 3]: covered once.
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0, leaf=0.5),
        # A child outliving its parent is clipped to the parent's interval.
        _span(4, 1, 9.0, 12.0),
        _span(5, 3, 2.5, 3.5),
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - (4.0 + 1.0) - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3.0)
    assert spans.union_length([]) == 0.0


class _StallingHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_seconds = 0.3

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        body = json.loads(self.rfile.read(length))
        if body.get("stall"):
            time.sleep(self.stall_seconds)
        status = 500 if body.get("fail") else 200
        payload = json.dumps({"ok": status == 200}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def stalling_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_latency_is_timed_from_the_due_instant_behind_a_stall(stalling_server):
    stall = _StallingHandler.stall_seconds
    ops = [
        driver.Op("a", "POST", "/", {"stall": True}, due=0.0),
        driver.Op("b", "POST", "/", {}, due=0.05),
        driver.Op("c", "POST", "/", {"fail": True}, due=0.10),
    ]
    result = driver.run_open_loop(ops, "127.0.0.1", stalling_server, connections=1)
    first, second, third = result.ops
    # One connection: the second request is stuck behind the stall, and the
    # wait before it could be sent counts in its latency.
    assert first.latency_ms >= stall * 1000
    assert second.wait_ms >= (stall - 0.05) * 1000 - 5
    assert second.latency_ms >= second.wait_ms
    assert second.latency_ms > (second.done - second.sent) * 1000 + 100
    # The generator itself kept time even though the connection did not.
    assert max(op.lateness_ms for op in result.ops) < 50
    assert (first.ok, second.ok, third.ok) == (True, True, False)
    assert third.status == 500 and result.failed == 1 and result.attempted == 3


def test_refused_connection_counts_as_failed_not_lost():
    with ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler) as probe:
        port = probe.server_address[1]
    ops = [driver.Op("a", "POST", "/", {}, due=0.0)]
    result = driver.run_open_loop(ops, "127.0.0.1", port, connections=1, timeout=2.0)
    assert result.attempted == 1 and result.failed == 1
    assert result.ops[0].error is not None


def _rung(rate, latencies, waits=None, failed=0):
    waits = waits if waits is not None else [0.1] * len(latencies)
    return driver.RungSummary(rate, tuple(latencies), tuple(waits), failed)


def test_ladder_takes_the_passing_prefix():
    limit = 100.0
    steady = [10.0] * 200
    rungs = [
        _rung(10, steady),
        _rung(20, steady),
        _rung(40, [10.0] * 150 + [500.0] * 50),  # tail beyond the limit
        _rung(60, steady),  # passes, but above a failing rung
    ]
    assert driver.max_rate_at_slo(rungs, limit) == 20
    assert driver.max_rate_at_slo(list(reversed(rungs)), limit) == 20


def test_ladder_rejects_a_growing_backlog_even_within_the_latency_limit():
    limit = 100.0
    latencies = [60.0] * 200
    growing = list(range(200))  # waits climb 0 -> 199 ms across the rung
    rung = _rung(30, latencies, waits=growing)
    assert rung.tail_ms <= limit
    assert rung.backlog_growing(limit)
    assert not rung.meets_slo(limit)
    assert driver.max_rate_at_slo([_rung(15, latencies), rung], limit) == 15


def test_ladder_rejects_failures_and_too_few_samples():
    limit = 100.0
    assert not _rung(10, [1.0] * 200, failed=1).meets_slo(limit)
    assert not _rung(10, [1.0] * 10).meets_slo(limit)
    assert driver.max_rate_at_slo([_rung(10, [1.0] * 200, failed=1)], limit) == 0.0


def test_summarize_rung_orders_by_due_and_keeps_failures_out_of_latency():
    ops = []
    for i in range(40):
        op = driver.Op("s", "POST", "/", None, due=float(40 - i))
        op.sent, op.done = op.due + 0.001 * i, op.due + 0.002 * i + 0.01
        op.status = 200 if i % 10 else 503
        ops.append(op)
    rung = driver.summarize_rung(5.0, ops)
    assert rung.failed == 4
    assert len(rung.latencies_ms) == 36
    assert list(rung.waits_ms) == sorted(rung.waits_ms, reverse=True)


# -- tests that drive the program (need ``src`` on the path) -------------------------

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workloads():
    pytest.importorskip("repro")
    import workloads as module

    return module


def test_oracle_accepts_either_side_of_a_tie_and_rejects_wrong_answers(workloads):
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(50, 8)).astype(np.float32)
    query = rng.normal(size=8).astype(np.float32)
    corpus = workloads.normalized64(rows)
    exact = 2.0 - 2.0 * (corpus @ workloads.normalized64(query[None, :])[0])
    order = np.argsort(exact)
    # Duplicate the 3rd-best row under a new id: it ties at k = 3.
    rows = np.vstack([rows, rows[order[2]]])
    ids = np.arange(rows.shape[0]) + 100
    corpus = workloads.normalized64(rows)
    exact = 2.0 - 2.0 * (corpus @ workloads.normalized64(query[None, :])[0])
    best_two = [int(ids[order[0]]), int(ids[order[1]])]
    tied = [int(ids[order[2]]), int(ids[-1])]
    for pick in tied:
        answer = best_two + [pick]
        distances = [float(exact[i - 100]) for i in answer]
        assert workloads.topk_matches(corpus, ids, query, answer, distances, k=3)
    answer = best_two + [int(ids[order[3]])]
    distances = [float(exact[i - 100]) for i in answer]
    assert not workloads.topk_matches(corpus, ids, query, answer, distances, k=3)
    answer = best_two + [tied[0]]
    assert not workloads.topk_matches(
        corpus, ids, query, answer, [float(exact[i - 100]) + 0.01 for i in answer], k=3
    )
    assert not workloads.topk_matches(corpus, ids, query, [best_two[0]] * 3, [0.0] * 3, k=3)


def test_tracer_wraps_every_binding_and_restores_them(workloads):
    from repro.vdms import distance
    from repro.vdms.index import hnsw

    original = distance.pairwise_distances
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        assert distance.pairwise_distances is not original
        assert hnsw.pairwise_distances is distance.pairwise_distances
    assert distance.pairwise_distances is original
    assert hnsw.pairwise_distances is original


def test_traced_search_records_nested_spans_and_kernel_calls(workloads):
    from repro.vdms.server import VectorDBServer

    rng = np.random.default_rng(1)
    server = VectorDBServer()
    collection = server.create_collection("t", 8)
    collection.insert(rng.normal(size=(2000, 8)).astype(np.float32))
    collection.flush()
    collection.create_index("FLAT", {})
    recorder = spans.Recorder()
    with spans.Tracer(recorder):
        server.search("t", rng.normal(size=(1, 8)).astype(np.float32), 5)
    names = [span.name for span in recorder.spans]
    assert names.count("vdms.server_search") == 1 and names.count("vdms.search") == 1
    assert names.count("index.search") == collection.num_sealed_segments
    metrics, self_ms = spans.summarize(recorder, [], 1.0, 1, overhead=1.0, extra={})
    assert metrics["vdms.index_calls_per_search"] == collection.num_sealed_segments
    assert metrics["distance.calls_per_search"] >= collection.num_sealed_segments
    assert self_ms["vdms.distance"] > 0 and self_ms["serving.server"] == 0


def test_reported_metric_names_match_the_benchmark_declaration(workloads):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = spans.summarize(spans.Recorder(), [], 0.0, 1, overhead=1.0, extra={})
    assert sorted(metrics) == sorted(m["name"] for m in declared["per_layer"])
    assert all(spans.unit_of(m["name"]) == m["unit"] for m in declared["per_layer"])
    end_to_end, _ = workloads.latency_metrics([0.1], 1.0, [1.0] * 30)
    assert sorted(end_to_end) == sorted(m["name"] for m in declared["end_to_end"])
    assert all(end_to_end[m["name"]][1] == m["unit"] for m in declared["end_to_end"])


def test_tail_is_p90_or_the_highest_supported_percentile_below_it(workloads):
    values = [float(v) for v in range(1000)]
    metrics, note = workloads.latency_metrics([0.1], 1.0, values)
    assert metrics["tail_ms"][0] == pytest.approx(np.percentile(values, 90))
    assert note.startswith("tail_ms is p90 ")
    _, note = workloads.latency_metrics([0.1], 1.0, values[:46])
    assert note.startswith("tail_ms is p78 ")
