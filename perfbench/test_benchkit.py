"""Tests for the benchmark's own helpers (collected by plain ``pytest``)."""

import asyncio
import json
import sys
import threading

import pytest

from benchkit import hermetic, layers, panels, service
from benchkit.spans import Span, SpanRecorder, children_of, coverage, self_time, union_length
from benchkit.stats import FailureCounter, percentile, summarize, tail_percentile

if str(hermetic.SRC) not in sys.path:
    sys.path.insert(0, str(hermetic.SRC))


def _span(span_id, start, end, parent=None, name="x", thread=1):
    return Span(span_id, name, start, end, parent, thread)


# ----------------------------------------------------------------- spans
def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_nested_children_once():
    root = _span(1, 0.0, 10.0)
    spans = [
        root,
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 3.0, 5.0, parent=1),  # overlaps its sibling: counted once
        _span(4, 2.0, 3.0, parent=2),  # grandchild: already inside span 2
    ]
    children = children_of(spans)
    assert self_time(root, children) == pytest.approx(6.0)
    assert self_time(spans[1], children) == pytest.approx(2.0)
    assert coverage(root, children) == pytest.approx(0.4)


def test_self_time_clips_children_to_the_parent_interval():
    root = _span(1, 0.0, 4.0)
    children = children_of([root, _span(2, 3.0, 9.0, parent=1)])
    assert self_time(root, children) == pytest.approx(3.0)


def test_recorder_nests_per_thread():
    recorder = SpanRecorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    seen = {}

    def other_thread():
        span = recorder.open("worker")
        seen["parent"] = span.parent
        recorder.close(span)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.id
    assert seen["parent"] is None  # another thread's open spans are not parents
    assert {span.name for span in recorder.spans} == {"outer", "inner", "worker"}


def test_layer_metrics_panel_self_time_and_coverage():
    spans = [
        _span(1, 0.0, 10.0, name=layers.ROOT_SPAN),
        _span(2, 0.0, 9.5, parent=1, name="robustness.evaluate"),
        Span(3, "axnn.panel_forward", 1.0, 5.0, None, 2, {"rows": 32.0}),
        Span(4, "axnn.kernel.percode", 1.5, 4.0, 3, 2, {"macs": 2e9}),
        Span(5, "axnn.kernel.native", 4.0, 4.5, 3, 2, {"macs": 1e9}),
    ]
    metrics = layers.layer_metrics(spans)
    assert set(metrics) == set(layers.LAYER_METRICS)
    assert metrics["axnn.panel_self_s"] == pytest.approx(1.0)
    assert metrics["axnn.panel_rows_per_call"] == 32.0
    assert metrics["axnn.kernel_s.percode"] == pytest.approx(2.5)
    assert metrics["axnn.kernel_gmacs"] == pytest.approx(3.0)
    assert metrics["axnn.kernel_gmac_per_s"] == pytest.approx(1.0)
    assert metrics["trace.coverage"] == pytest.approx(0.95)
    assert metrics["experiments.session.self_s"] == pytest.approx(0.5)
    assert metrics["nn.fit_s"] == 0.0


def test_install_wraps_and_restores_every_layer():
    from repro.axnn.kernels import PerCodeBLASKernel
    from repro.experiments import session
    from repro.robustness import sweep

    originals = (session.Session.run, PerCodeBLASKernel.matmul, session.grid_from_suite)
    undo = layers.install(SpanRecorder())
    try:
        assert session.Session.run is not originals[0]
        assert PerCodeBLASKernel.matmul is not originals[1]
        assert session.grid_from_suite is not originals[2]
        assert session.grid_from_suite is sweep.grid_from_suite
    finally:
        undo()
    assert (session.Session.run, PerCodeBLASKernel.matmul, session.grid_from_suite) == originals


def test_importing_run_py_runs_nothing(monkeypatch):
    """The attack engine's spawn pool re-imports the crafting process's
    main module, so loading ``run.py`` under another name must do nothing."""
    import runpy

    existed = hermetic.WORK_DIR.exists()
    monkeypatch.setattr(sys, "argv", ["run.py", "--not-an-option"])
    namespace = runpy.run_path(str(hermetic.BENCH_DIR / "run.py"), run_name="__mp_main__")
    assert callable(namespace["main"])
    assert hermetic.WORK_DIR.exists() == existed


# ------------------------------------------------------------ statistics
def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0  # rank 990: ten samples beyond
    assert tail_percentile(999) == 95.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = list(range(1, 1001))
    assert percentile(values, 99.0) == 990
    assert sum(value > 990 for value in values) == 10


def test_summarize_falls_back_to_max_for_small_samples():
    small = summarize([3.0, 1.0, 2.0])
    assert (small.p50, small.tail, small.tail_pct) == (2.0, 3.0, None)
    large = summarize([float(v) for v in range(100)])
    assert large.tail_pct == 90.0
    assert large.tail == percentile(range(100), large.tail_pct)


def test_failure_counter_counts_reasons():
    failures = FailureCounter()
    failures.record(True)
    failures.record(False, "bad grid")
    failures.record(False, "bad grid")
    failures.record(False)
    assert (failures.attempted, failures.failed) == (4, 3)
    assert failures.ratio == 0.75
    assert failures.reasons == {"bad grid": 2, "unspecified": 1}


# ---------------------------------------------------------------- checks
def test_compare_grid_flags_a_wrong_zero_row_and_a_wrong_cell():
    epsilons = [0.0, 0.1, 0.2]
    values = [[90.0, 80.0], [50.0, 40.0], [10.0, 5.0]]
    clean = {"M1": 90.0, "M2": 80.0}
    unfused = {0.1: {"M1": 50.0, "M2": 40.0}}
    assert panels.compare_grid(values, epsilons, ["M1", "M2"], clean, unfused) == []
    tampered = [row[:] for row in values]
    tampered[0][1] = 81.0
    tampered[1][0] = 50.000000001
    problems = panels.compare_grid(tampered, epsilons, ["M1", "M2"], clean, unfused)
    assert problems == [
        "M2: eps=0.0 grid 81.0 != clean accuracy 80.0",
        "M1: eps=0.1 grid 50.000000001 != unfused 50.0",
    ]


def test_check_budgets_adds_the_most_diverse_row_to_the_seeded_one():
    epsilons = [0.0, 0.1, 0.2, 0.3]
    values = [[90.0, 90.0], [70.0, 70.0], [60.0, 40.0], [0.0, 0.0]]
    assert panels.check_budgets(epsilons, values, seed=0) == [0.1, 0.2]
    assert panels.check_budgets(epsilons, values, seed=1) == [0.2]
    assert panels.check_budgets(epsilons, values, seed=5) == [0.2, 0.3]


def test_repetitions_count_a_grid_that_drifts_as_failed():
    reps = panels.Repetitions(seconds=0.0, trace=True, min_repetitions=2)
    assert reps.needs_full_check and not reps.next_traced()
    reps.record(1.0, [[90.0]], [])
    assert not reps.done() and reps.next_traced()
    reps.record(1.1, [[90.0]], [], layer_values=dict.fromkeys(layers.LAYER_METRICS, 0.0))
    assert not reps.done()  # two untraced repetitions at least
    reps.record(1.2, [[89.0]], [])
    assert reps.done()
    assert (reps.failures.attempted, reps.failures.failed) == (3, 1)
    outcome = reps.outcome(setup_s=0.5, peak_rss_mb=10.0)
    assert outcome["latencies_ms"] == [1000.0, 1200.0]
    assert outcome["layers"]["trace.overhead_ratio"] == pytest.approx(1.1 / 1.1)


def test_check_answer_rejects_wrong_predictions_and_errors():
    expected = {"M1": [3, 4], "M2": [3, 5]}
    source = [3, 4]
    good = {"predictions": {"M1": 4, "M2": 5}, "source_prediction": 4}
    assert service.check_answer(200, good, 1, expected, source) == ""
    wrong = dict(good, predictions={"M1": 4, "M2": 4})
    assert "predictions" in service.check_answer(200, wrong, 1, expected, source)
    assert "source" in service.check_answer(
        200, dict(good, source_prediction=0), 1, expected, source
    )
    assert "status 500" in service.check_answer(500, good, 1, expected, source)


def test_a_failed_check_makes_the_run_incorrect(capsys):
    import run

    failures = FailureCounter()
    failures.record(True)
    failures.record(False, "M1: eps=0 row differs")
    outcome = {
        "failures": failures,
        "latencies_ms": [10.0, 12.0],
        "setup_s": 1.0,
        "peak_rss_mb": 100.0,
        "layers": None,
    }
    result = run.report("lenet-cold", outcome, trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)
    traced = run.report("lenet-cold", outcome, trace=True)
    assert set(traced["metrics"]) == set(layers.LAYER_METRICS)
    assert "failed_ratio=0.5000" in capsys.readouterr().out


# ------------------------------------------------------------- open loop
def test_schedule_is_seeded_and_at_a_fixed_rate():
    plan = service.schedule(7, rate=10.0, seconds=2.0, n_samples=50)
    assert len(plan) == 20
    assert [offset for offset, _ in plan][:3] == [0.0, 0.1, 0.2]
    assert plan == service.schedule(7, rate=10.0, seconds=2.0, n_samples=50)
    assert plan != service.schedule(8, rate=10.0, seconds=2.0, n_samples=50)


def test_open_loop_times_latency_from_the_due_time():
    stall_s = 0.3

    async def scenario():
        async def handle(reader, writer):
            request = await reader.read(65536)
            body = json.loads(request.partition(b"\r\n\r\n")[2])
            if body["sample_index"] == 0:
                await asyncio.sleep(stall_s)
            payload = json.dumps({"echo": body["sample_index"]}).encode()
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(payload) + payload
            )
            await writer.drain()
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        plan = [(0.0, 0), (0.05, 1), (0.10, 2)]
        try:
            return await service.open_loop(
                "127.0.0.1",
                port,
                plan,
                lambda index: json.dumps({"sample_index": index}).encode(),
                concurrency=1,
            )
        finally:
            server.close()
            await server.wait_closed()

    records = asyncio.run(scenario())
    assert [r.payload["echo"] for r in records] == [0, 1, 2]
    # the stalled first answer holds the only connection, so the later
    # queries wait for it and their latency counts that wait from when they
    # were due, not from when they were finally sent
    assert records[0].latency_ms >= stall_s * 1000
    assert records[1].latency_ms >= (stall_s - 0.05) * 1000
    assert records[1].sent - records[1].due >= stall_s - 0.05 - 0.01
    # the generator itself dispatched each query on time
    assert all(r.late < 0.25 for r in records)


def test_service_metrics_are_deltas_over_the_timed_phase():
    before = service.parse_metrics(
        "# TYPE repro_query_batches_total counter\n"
        "repro_query_batches_total 5\n"
        "repro_query_batch_latency_seconds_sum 0.5\n"
        "repro_query_batch_latency_seconds_count 5\n"
        'repro_query_batch_size_sum{le="x"} 5\n'
        "repro_query_batch_size_count 5\n"
    )
    after = dict(before)
    after.update(
        {
            "repro_query_batches_total": 15.0,
            "repro_query_batch_latency_seconds_sum": 0.7,
            "repro_query_batch_latency_seconds_count": 15.0,
            "repro_query_batch_size_sum": 25.0,
            "repro_query_batch_size_count": 15.0,
        }
    )
    record = service.QueryRecord(0, 0.0, 0.0, 0.0, 0.05, 200, {})
    metrics = service.service_metrics(before, after, [record])
    assert metrics["service.batches"] == 10.0
    assert metrics["service.batch_ms_mean"] == pytest.approx(20.0)
    assert metrics["service.batch_rows_mean"] == pytest.approx(2.0)
    assert metrics["service.outside_batch_ms"] == pytest.approx(30.0)
    assert metrics["service.target_builds"] == 0.0
