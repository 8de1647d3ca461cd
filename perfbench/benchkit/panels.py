"""The two figure-panel workloads and their off-the-clock output checks.

``lenet-cold`` runs each repetition in a fresh process on an empty store
(see :func:`child_panel`), the way a figure benchmark regenerates Fig. 4a from
nothing.  ``alexnet-warm-eval`` trains and crafts once during set-up, then
times repetitions that find the model and suite in the store and only
evaluate, the way a Fig. 7 re-run after a kernel change does.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from benchkit import hermetic, layers
from benchkit.spans import SpanRecorder, write_spans
from benchkit.stats import FailureCounter

LENET_VICTIMS = tuple(f"M{index}" for index in range(1, 10))
ALEXNET_VICTIMS = tuple(f"A{index}" for index in range(1, 9))

#: wall-clock cap on one fresh-process repetition
CHILD_TIMEOUT_S = 150.0

#: fresh-process set-up samples taken per lenet-cold run, beyond the
#: one every repetition yields
EXTRA_SETUP_SAMPLES = 2

#: lenet-cold repetitions per run at least: a cold panel's attack pool
#: start-up swings by seconds from one process to the next
LENET_MIN_REPETITIONS = 2


def lenet_model(seed: int):
    from repro.experiments.spec import ModelSpec

    return ModelSpec(
        architecture="lenet5",
        dataset="mnist",
        n_train=1500,
        n_test=400,
        epochs=4,
        seed=seed,
    )


def lenet_spec(seed: int):
    """Fig. 4a shape: LeNet-5, BIM-linf, M1-M9, 10 budgets x 60 samples."""
    from repro.experiments.spec import panel_spec

    return panel_spec(
        "lenet-cold",
        ["BIM_linf"],
        LENET_VICTIMS,
        model=lenet_model(seed),
        n_samples=60,
        seed=seed,
    )


def alexnet_spec(seed: int):
    """Fig. 7 shape: AlexNet, RAU-linf, A1-A8, 10 budgets x 32 samples."""
    from repro.experiments.spec import ModelSpec, panel_spec

    return panel_spec(
        "alexnet-warm-eval",
        ["RAU_linf"],
        ALEXNET_VICTIMS,
        model=ModelSpec(
            architecture="alexnet",
            dataset="cifar10",
            n_train=750,
            n_test=200,
            epochs=6,
            seed=seed,
        ),
        n_samples=32,
        seed=seed,
        calibration_samples=96,
    )


# --------------------------------------------------------------- checks
def compare_grid(
    values: Sequence[Sequence[float]],
    epsilons: Sequence[float],
    victim_labels: Sequence[str],
    clean_percent: Dict[str, float],
    unfused_percent: Dict[float, Dict[str, float]],
) -> List[str]:
    """Every way the grid disagrees with the independent evaluations.

    ``clean_percent`` is each victim's accuracy on the suite's clean
    images, which the eps=0 row must equal; ``unfused_percent`` maps a
    checked budget to each victim's robustness evaluated one victim at a
    time, which the fused grid must match bit for bit.
    """
    problems = []
    rows = {0.0: clean_percent, **unfused_percent}
    for epsilon, expected in rows.items():
        row = values[list(epsilons).index(epsilon)]
        for column, label in enumerate(victim_labels):
            if row[column] != expected[label]:
                problems.append(
                    f"{label}: eps={epsilon} grid {row[column]!r} != "
                    f"{'clean accuracy' if epsilon == 0.0 else 'unfused'} "
                    f"{expected[label]!r}"
                )
    return problems


def check_budgets(epsilons: Sequence[float], values, seed: int) -> List[float]:
    """The non-zero budgets re-evaluated unfused: one seeded, plus the one
    whose grid row holds the most distinct values (where swapped or
    misrouted victims are likeliest to show)."""
    nonzero = [index for index, eps in enumerate(epsilons) if eps != 0.0]
    seeded = nonzero[seed % len(nonzero)]
    diverse = max(nonzero, key=lambda index: (len(set(values[index])), -index))
    return [epsilons[index] for index in sorted({seeded, diverse})]


def panel_inputs(session, spec):
    """The spec's victims and adversarial suite, served from the store."""
    trained = session.resolve_model(spec.model)
    victims = session.build_victims(trained, spec.victims)
    suite = session.resolve_suite(
        spec.model, spec.attacks[0], spec.sweep, seed=spec.seed, trained=trained
    )
    return victims, suite


def check_panel(victims, suite, result, seed: int) -> List[str]:
    """Re-evaluate the grid's checked rows one victim at a time, off the clock.

    At each checked budget the fused panel's per-sample predictions must
    also equal every victim's own, so a fault that leaves the accuracies
    unchanged (two victims swapped, say) still shows.
    """
    import numpy as np

    from repro.axnn.panel import VictimPanel
    from repro.nn.metrics import accuracy_percent

    grid = result.grids[0]
    values = grid.values.tolist()
    panel = VictimPanel(victims)
    problems: List[str] = []
    clean = {
        label: accuracy_percent(victim.predict_classes(suite.images), suite.labels)
        for label, victim in victims.items()
    }
    unfused: Dict[float, Dict[str, float]] = {}
    for epsilon in check_budgets(grid.epsilons, values, seed):
        images = suite.adversarial[epsilon]
        fused = panel.predict_classes(images)
        unfused[epsilon] = {}
        for label, victim in victims.items():
            predicted = victim.predict_classes(images)
            unfused[epsilon][label] = accuracy_percent(predicted, suite.labels)
            if not np.array_equal(predicted, fused[label]):
                problems.append(f"{label}: eps={epsilon} fused predictions differ")
    return problems + compare_grid(values, grid.epsilons, grid.victim_labels, clean, unfused)


def shutdown_pools() -> None:
    """Stop the attack engine's cached spawn pool and wait for its workers."""
    import multiprocessing

    from repro.nn.runtime import ProcessShardPool

    ProcessShardPool.shutdown_all()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


class Repetitions:
    """Timed repetitions of one panel workload, and their checks.

    Repetitions continue until ``seconds`` have passed and at least
    ``min_repetitions`` untraced ones ran; a traced run alternates untraced
    and traced repetitions (at least one traced), so the overhead ratio
    compares neighbours in time.  The first repetition
    gets the full output check; every later one must reproduce its grid
    bit for bit (the spec and seed are fixed, so the grid is too).
    """

    def __init__(self, seconds: float, trace: bool, min_repetitions: int = 1) -> None:
        self.seconds = seconds
        self.trace = trace
        self.min_repetitions = min_repetitions
        self.failures = FailureCounter()
        self.panel_s: List[float] = []
        self.traced_panel_s: List[float] = []
        self.traced_layers: List[Dict[str, float]] = []
        self.first_grid: Optional[list] = None
        self.began = time.perf_counter()

    @property
    def needs_full_check(self) -> bool:
        return self.first_grid is None

    def next_traced(self) -> bool:
        return self.trace and len(self.panel_s) > len(self.traced_panel_s)

    def done(self) -> bool:
        if len(self.panel_s) < self.min_repetitions:
            return False
        if self.trace and not self.traced_panel_s:
            return False
        return time.perf_counter() - self.began >= self.seconds

    def record(self, panel_s: float, grid: list, problems: List[str], layer_values=None):
        if self.first_grid is None:
            self.first_grid = grid
        elif grid != self.first_grid:
            problems = problems + ["grid differs from the first repetition's"]
        self.failures.record(not problems, "; ".join(problems))
        for problem in problems:
            print(f"# check failed: {problem}", file=sys.stderr)
        if layer_values is not None:
            self.traced_panel_s.append(panel_s)
            self.traced_layers.append(layer_values)
        else:
            self.panel_s.append(panel_s)

    def outcome(self, setup_s: float, peak_rss_mb: float) -> dict:
        layer_values = None
        if self.traced_layers:
            layer_values = layers.median_metrics(self.traced_layers)
            layer_values["trace.overhead_ratio"] = statistics.median(
                self.traced_panel_s
            ) / statistics.median(self.panel_s)
        return {
            "failures": self.failures,
            "latencies_ms": [value * 1000.0 for value in self.panel_s],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "layers": layer_values,
        }


# ------------------------------------------------------------ lenet-cold
def child_panel(seed: int, store: str, trace: bool, full_check: bool, out: str) -> int:
    """One lenet-cold repetition inside a fresh process (``run.py --child``).

    Writes a JSON document with the monotonic time set-up finished, the
    panel wall clock, the grid, peak RSS, check problems and (traced)
    layer metrics.
    """
    from repro.experiments.session import Session

    spec = lenet_spec(seed)
    session = Session(store=store, workers="auto")
    recorder = SpanRecorder()
    uninstall = layers.install(recorder) if trace else None
    ready = time.monotonic()
    start = time.perf_counter()
    try:
        result = session.run(spec)
        panel_s = time.perf_counter() - start
    finally:
        if uninstall is not None:
            uninstall()
    if trace:
        write_spans(recorder.spans, hermetic.trace_path("lenet-cold"))
    problems: List[str] = []
    try:
        if full_check:
            victims, suite = panel_inputs(session, spec)
            problems = check_panel(victims, suite, result, seed)
    finally:
        shutdown_pools()
    doc = {
        "ready_monotonic": ready,
        "panel_s": panel_s,
        "grid": result.grids[0].values.tolist(),
        "peak_rss_mb": hermetic.peak_rss_mb(),
        "problems": problems,
        "layers": layers.layer_metrics(recorder.spans) if trace else None,
    }
    with open(out, "w") as handle:
        json.dump(doc, handle)
    return 0


def child_setup_probe(seed: int, store: str, out: str) -> int:
    """Set-up only: import, build the spec and session, report readiness."""
    from repro.experiments.session import Session

    lenet_spec(seed)
    Session(store=store, workers="auto")
    with open(out, "w") as handle:
        json.dump({"ready_monotonic": time.monotonic()}, handle)
    return 0


def _spawn_child(
    role: str, seed: int, work_dir: str, trace: bool = False, full_check: bool = False
) -> dict:
    """Run ``run.py --child <role>`` on a fresh empty store; returns its doc
    plus ``setup_s`` measured from just before the process was started."""
    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    out = store + ".json"
    command = [
        sys.executable,
        str(hermetic.BENCH_DIR / "run.py"),
        "--child", role,
        "--seed", str(seed),
        "--trace", str(int(trace)),
        "--check", str(int(full_check)),
        "--store", store,
        "--out", out,
    ]
    started = time.monotonic()
    try:
        completed = subprocess.run(
            command, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
        )
        if completed.returncode != 0:
            raise RuntimeError(f"{role} child exited with {completed.returncode}")
        with open(out) as handle:
            doc = json.load(handle)
    finally:
        shutil.rmtree(store, ignore_errors=True)
        if os.path.exists(out):
            os.unlink(out)
    doc["setup_s"] = doc["ready_monotonic"] - started
    return doc


def run_lenet_cold(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    reps = Repetitions(seconds, trace, LENET_MIN_REPETITIONS)
    setup_s: List[float] = []
    rss: List[float] = []
    while not reps.done():
        traced = reps.next_traced()
        doc = _spawn_child(
            "panel", seed, work_dir, trace=traced, full_check=reps.needs_full_check
        )
        reps.record(doc["panel_s"], doc["grid"], doc["problems"], doc["layers"])
        setup_s.append(doc["setup_s"])
        if not traced:
            rss.append(doc["peak_rss_mb"])
    for _ in range(EXTRA_SETUP_SAMPLES):
        setup_s.append(_spawn_child("setup", seed, work_dir)["setup_s"])
    return reps.outcome(statistics.median(setup_s), max(rss))


# ------------------------------------------------------ alexnet-warm-eval
def run_alexnet_warm(seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    from repro.experiments.session import Session

    spec = alexnet_spec(seed)
    store = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    started = time.perf_counter()
    session = Session(store=store, workers="auto")
    # trains, crafts, and leaves the per-process multiplier analysis warm;
    # the victims it builds are the ones the first check evaluates
    victims, suite = panel_inputs(session, spec)
    setup_s = time.perf_counter() - started
    shutdown_pools()

    reps = Repetitions(seconds, trace)
    digest = spec.content_hash()
    while not reps.done():
        traced = reps.next_traced()
        session.store.evict("result", digest)
        recorder = SpanRecorder()
        uninstall = layers.install(recorder) if traced else None
        start = time.perf_counter()
        try:
            result = Session(store=store, workers="auto").run(spec)
            panel_s = time.perf_counter() - start
        finally:
            if uninstall is not None:
                uninstall()
        if result.from_cache:
            raise RuntimeError("the evicted result was served from the store")
        if traced:
            write_spans(recorder.spans, hermetic.trace_path("alexnet-warm-eval"))
        problems = check_panel(victims, suite, result, seed) if reps.needs_full_check else []
        reps.record(
            panel_s,
            result.grids[0].values.tolist(),
            problems,
            layers.layer_metrics(recorder.spans) if traced else None,
        )
    return reps.outcome(setup_s, hermetic.peak_rss_mb())
