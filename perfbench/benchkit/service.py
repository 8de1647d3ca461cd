"""The ``service-query`` workload: an open-loop generator against ``repro serve``.

Independent users send single-sample ``POST /v1/query`` requests, so the
generator is an open loop: requests fall due on a fixed schedule whether or
not earlier ones have been answered, and each latency runs from the
request's due time, so a stall is charged to every request it delays.  The
generator is one asyncio thread holding at most ``nproc`` connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from benchkit import hermetic, layers
from benchkit.panels import LENET_VICTIMS, lenet_model
from benchkit.spans import read_spans, write_spans
from benchkit.stats import FailureCounter, percentile

#: queries per second: about half the closed-loop capacity with nproc
#: clients, measured on the seed state (see perfbench/README.md)
QUERY_RATE_PER_S = 34.0

#: server starts timed per run; the last one serves the timed phase
SERVER_STARTS = 3

#: a generator whose p99 dispatch lag exceeds this fell behind its schedule
#: and measured itself, not the server: the run is invalid
LATE_LIMIT_MS = 100.0

SERVER_READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

_SERVING = re.compile(r"serving on (\S+):(\d+)")


class InvalidRun(RuntimeError):
    """The measurement itself failed; the run yields no result."""


@dataclass
class QueryRecord:
    sample_index: int
    due: float
    late: float
    sent: float
    done: float
    status: int
    payload: Optional[dict]

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the moment the request was due to its answer."""
        return (self.done - self.due) * 1000.0


# --------------------------------------------------------------- client
async def http_request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the server closes it)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + body)
        await writer.drain()
        response = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    header, _, content = response.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, content


def query_body(model_spec, victim_spec, sample_index: int) -> bytes:
    return json.dumps(
        {
            "model": model_spec.to_dict(),
            "victims": victim_spec.to_dict(),
            "sample_index": sample_index,
        }
    ).encode("utf-8")


def schedule(seed: int, rate: float, seconds: float, n_samples: int) -> List[Tuple[float, int]]:
    """``(due offset in s, sample_index)`` at a fixed rate, seeded indices."""
    import numpy as np

    count = max(1, int(rate * seconds))
    indices = np.random.default_rng(seed).integers(0, n_samples, size=count)
    return [(position / rate, int(index)) for position, index in enumerate(indices)]


async def open_loop(
    host: str,
    port: int,
    plan: Sequence[Tuple[float, int]],
    body_for,
    concurrency: int,
) -> List[QueryRecord]:
    """Send every planned query at its due time; at most ``concurrency`` open."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(concurrency)

    async def one(index: int, due: float, late: float) -> QueryRecord:
        async with slots:
            sent = loop.time()
            try:
                status, content = await asyncio.wait_for(
                    http_request(host, port, "POST", "/v1/query", body_for(index)),
                    REQUEST_TIMEOUT_S,
                )
                payload = json.loads(content)
            except (OSError, asyncio.TimeoutError, ValueError, IndexError):
                status, payload = 0, None
            return QueryRecord(index, due, late, sent, loop.time(), status, payload)

    tasks = []
    start = loop.time() + 0.05
    for offset, index in plan:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(index, due, loop.time() - due)))
    return list(await asyncio.gather(*tasks))


def check_answer(
    status: int,
    payload: Optional[dict],
    index: int,
    expected: Dict[str, list],
    source: list,
) -> str:
    """Why an answer is wrong, or ``""`` when it matches the direct predictions."""
    if status != 200 or payload is None:
        return f"sample {index}: status {status}"
    want = {name: int(values[index]) for name, values in expected.items()}
    if payload.get("predictions") != want:
        return f"sample {index}: predictions {payload.get('predictions')} != {want}"
    if payload.get("source_prediction") != int(source[index]):
        return f"sample {index}: source prediction differs"
    return ""


def parse_metrics(text: str) -> Dict[str, float]:
    """Prometheus text to ``{metric name: value summed over label sets}``."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def service_metrics(
    before: Dict[str, float], after: Dict[str, float], records: Sequence[QueryRecord]
) -> Dict[str, float]:
    """Server-side batch figures over the timed phase, from /metrics deltas."""

    def delta(name: str) -> float:
        return after.get(f"repro_{name}", 0.0) - before.get(f"repro_{name}", 0.0)

    batches = delta("query_batches_total")
    latency_count = delta("query_batch_latency_seconds_count")
    size_count = delta("query_batch_size_count")
    batch_ms = (
        delta("query_batch_latency_seconds_sum") / latency_count * 1000.0
        if latency_count
        else 0.0
    )
    client_ms = statistics.mean((r.done - r.sent) * 1000.0 for r in records)
    return {
        "service.batch_ms_mean": batch_ms,
        "service.batch_rows_mean": (
            delta("query_batch_size_sum") / size_count if size_count else 0.0
        ),
        "service.batches": batches,
        "service.outside_batch_ms": client_ms - batch_ms,
        "service.target_builds": delta("query_target_builds_total"),
    }


# --------------------------------------------------------------- server
class Server:
    """A ``repro serve`` subprocess on a fixed store, bound to a free port."""

    def __init__(self, store: str, work_dir: str, spans_path: Optional[str]) -> None:
        handle, self.log_path = tempfile.mkstemp(prefix="serve-", suffix=".log", dir=work_dir)
        if spans_path is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(hermetic.BENCH_DIR / "serve_traced.py"), spans_path]
        command += ["--store", store, "--port", "0"]
        self._log = os.fdopen(handle, "w")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT
        )
        try:
            self.host, self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + SERVER_READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise InvalidRun(f"server exited early; see {self.log_path}")
            with open(self.log_path) as handle:
                match = _SERVING.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.01)
        raise InvalidRun("server did not start listening in time")

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        return asyncio.run(http_request(self.host, self.port, method, path, body))

    def metrics(self) -> Dict[str, float]:
        status, content = self.request("GET", "/metrics")
        if status != 200:
            raise InvalidRun(f"/metrics answered {status}")
        return parse_metrics(content.decode("utf-8"))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


# ------------------------------------------------------------- workload
def run_service_query(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    from repro.experiments.session import Session
    from repro.experiments.spec import VictimSpec

    model_spec = lenet_model(seed)
    victim_spec = VictimSpec(multipliers=LENET_VICTIMS)
    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)

    # the answers every query must reproduce, computed directly from the store
    session = Session(store=store, workers="auto")
    trained = session.resolve_model(model_spec)
    test_images = trained.dataset.test.images
    expected = {
        name: victim.predict_classes(test_images).tolist()
        for name, victim in session.build_victims(trained, victim_spec).items()
    }
    source = trained.model.predict_classes(test_images).tolist()
    n_test = len(test_images)
    del session, trained

    def body_for(index: int) -> bytes:
        return query_body(model_spec, victim_spec, index)

    spans_path = os.path.join(work_dir, "server-spans.json") if trace else None
    setup_s: List[float] = []
    server = None
    try:
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
            began = time.monotonic()
            server = Server(store, work_dir, spans_path)
            status, content = server.request("POST", "/v1/query", body_for(0))
            setup_s.append(time.monotonic() - began)
            problem = check_answer(status, json.loads(content), 0, expected, source)
            if problem:
                raise InvalidRun(f"priming query failed: {problem}")

        plan = schedule(seed, QUERY_RATE_PER_S, seconds, n_test)
        concurrency = len(os.sched_getaffinity(0))
        before = server.metrics()
        phase_start = time.monotonic()
        records = asyncio.run(
            open_loop(server.host, server.port, plan, body_for, concurrency)
        )
        phase_end = time.monotonic()
        after = server.metrics()
        peak_rss = hermetic.process_peak_rss_mb(server.process.pid)
    finally:
        if server is not None:
            server.stop()

    failures = FailureCounter()
    for record in records:
        problem = check_answer(
            record.status, record.payload, record.sample_index, expected, source
        )
        failures.record(not problem, problem)
        if problem:
            print(f"# check failed: {problem}", file=sys.stderr)
    late_p99_ms = percentile([r.late for r in records], 99.0) * 1000.0
    if late_p99_ms > LATE_LIMIT_MS:
        raise InvalidRun(
            f"generator fell behind its schedule (p99 dispatch lag {late_p99_ms:.1f} ms)"
        )
    served = service_metrics(before, after, records)
    if served["service.target_builds"]:
        raise InvalidRun("the primed target was rebuilt during the timed phase")

    layer_values = None
    if trace:
        spans = [
            span
            for span in read_spans(spans_path)
            if phase_start <= span.start and span.end <= phase_end
        ]
        write_spans(spans, hermetic.trace_path("service-query"))
        layer_values = layers.layer_metrics(spans)
        layer_values.update(served)
        layer_values["loadgen.late_ms_p99"] = late_p99_ms
    return {
        "failures": failures,
        "latencies_ms": [record.latency_ms for record in records],
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss,
        "layers": layer_values,
        "detail": dict(served, **{"loadgen.late_ms_p99": late_p99_ms}),
    }
