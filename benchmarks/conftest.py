"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
figure drivers are *declarative*: each builds an
:class:`repro.experiments.ExperimentSpec` and runs it through the shared
:class:`repro.experiments.Session`, so every expensive artifact — trained
model weights, crafted adversarial suites, finished grids — is cached in
the content-addressed artifact store (``$REPRO_ARTIFACT_DIR`` or
``~/.cache/repro``).  The first run pays for training and crafting once;
re-running any figure with unchanged knobs is a pure cache hit (zero
training, zero adversarial crafting).

Scale knobs (environment variables):

``REPRO_BENCH_SAMPLES``
    Number of MNIST-like test images evaluated per grid cell (default 60).
``REPRO_BENCH_SAMPLES_CIFAR``
    Number of CIFAR-like test images per cell (default 32).
``REPRO_BENCH_TRAIN``
    Training-set size for the accurate models (default 1500).
``REPRO_BENCH_EPOCHS``
    Training epochs for the accurate models (default 4).
``REPRO_BENCH_WORKERS``
    Worker count for the figure sweeps (default ``auto`` = one per core;
    results are invariant to this knob).  Training and victim evaluation
    shard their batches across that many threads; adversarial-example
    generation always runs in the calling process (see
    ``repro.attacks.engine`` for why).
``REPRO_REQUIRE_CACHED``
    When set, any benchmark step that would train or craft fails instead —
    the hook CI uses to assert that a repeated run is served entirely from
    the artifact store.

The measured grids are also written as JSON to ``benchmarks/results/`` so the
paper-vs-measured record in EXPERIMENTS.md can be regenerated.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Sequence

import numpy as np
import pytest

from repro.analysis import format_robustness_grid
from repro.attacks import PAPER_EPSILONS
from repro.benchmarking import Suite, record_report
from repro.config import env_int, env_str
from repro.experiments import (
    ExperimentSpec,
    ModelSpec,
    Session,
    atomic_write_json,
    panel_spec,
)
from repro.robustness import RobustnessGrid, build_victims

#: directory where benchmark reports and result grids are recorded;
#: ``python -m repro.benchmarking run --results-dir`` points it elsewhere
RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS_DIR") or os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results"
)

N_MNIST_SAMPLES = env_int("REPRO_BENCH_SAMPLES", 60, minimum=1)
N_CIFAR_SAMPLES = env_int("REPRO_BENCH_SAMPLES_CIFAR", 32, minimum=1)
N_TRAIN = env_int("REPRO_BENCH_TRAIN", 1500, minimum=1)
N_EPOCHS = env_int("REPRO_BENCH_EPOCHS", 4, minimum=1)

#: worker threads used by every figure sweep (grids are invariant to this)
BENCH_WORKERS = env_str("REPRO_BENCH_WORKERS", "auto")

#: the scale knobs stamped into every report's environment fingerprint, so
#: the compare engine can tell a knob change from a regression
BENCH_KNOBS = {
    "bench_samples": N_MNIST_SAMPLES,
    "bench_samples_cifar": N_CIFAR_SAMPLES,
    "bench_train": N_TRAIN,
    "bench_epochs": N_EPOCHS,
}

#: the full epsilon sweep used by every figure of the paper
EPSILONS: List[float] = list(PAPER_EPSILONS)

#: paper labels of the LeNet-5 and AlexNet multiplier sets
LENET_LABELS = [f"M{i}" for i in range(1, 10)]
ALEXNET_LABELS = [f"A{i}" for i in range(1, 9)]

#: source-model specs shared by every figure (the bundle configurations)
LENET_MODEL = ModelSpec(
    architecture="lenet5", dataset="mnist", n_train=N_TRAIN, n_test=400, epochs=N_EPOCHS
)
ALEXNET_MODEL = ModelSpec(
    architecture="alexnet",
    dataset="cifar10",
    n_train=max(N_TRAIN // 2, 400),
    n_test=200,
    epochs=N_EPOCHS + 2,
)
FFNN_MODEL = ModelSpec(
    architecture="ffnn", dataset="mnist", n_train=N_TRAIN, n_test=400, epochs=N_EPOCHS
)


def lenet_panel_spec(
    name: str,
    attack_keys: Sequence[str],
    multipliers: Sequence[str] = None,
    n_samples: int = None,
) -> ExperimentSpec:
    """A LeNet-5/MNIST robustness-panel spec (the Fig. 1/4/5/6 shape)."""
    return panel_spec(
        name,
        attacks=attack_keys,
        multipliers=multipliers if multipliers is not None else LENET_LABELS,
        model=LENET_MODEL,
        epsilons=EPSILONS,
        n_samples=n_samples if n_samples is not None else N_MNIST_SAMPLES,
    )


def alexnet_panel_spec(name: str, attack_keys: Sequence[str]) -> ExperimentSpec:
    """An AlexNet/CIFAR-10 robustness-panel spec (the Fig. 7 shape)."""
    return panel_spec(
        name,
        attacks=attack_keys,
        multipliers=ALEXNET_LABELS,
        model=ALEXNET_MODEL,
        epsilons=EPSILONS,
        n_samples=N_CIFAR_SAMPLES,
        calibration_samples=96,
    )


@pytest.fixture(scope="session")
def experiment_session():
    """The shared Session every figure driver runs through (store-cached)."""
    return Session(workers=BENCH_WORKERS)


@pytest.fixture(scope="module")
def suite(request):
    """One :class:`repro.benchmarking.Suite` per driver module.

    The suite is named after the module (``bench_training`` -> ``training``)
    and its collected metrics are recorded as ``BENCH_<suite>.json`` under
    the results dir at module teardown — through the lease-locked, atomic
    :func:`repro.benchmarking.record_report` path, so concurrent pytest
    shards recording the same suite serialize instead of clobbering each
    other.
    """
    module = request.module.__name__.rsplit(".", 1)[-1]
    name = module[len("bench_"):] if module.startswith("bench_") else module
    bench_suite = Suite(name, env_extra=BENCH_KNOBS)
    yield bench_suite
    if bench_suite.results:
        record_report(bench_suite.report(), RESULTS_DIR)


def timed_panel(benchmark, suite: Suite, name: str, fn: Callable[[], object]):
    """Run one figure panel through pytest-benchmark *and* the suite report.

    Panels run once (``rounds=1``): the artifact store makes a second run a
    cache hit, so best-of-N would time the cache, not the work.  The wall
    clock lands in the report as ``<name>.panel_s``.
    """
    return benchmark.pedantic(
        lambda: suite.timed(f"{name}.panel_s", fn), rounds=1, iterations=1
    )


def save_grid(name: str, grid: RobustnessGrid) -> None:
    """Persist a measured grid (JSON) under the results dir, atomically."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    atomic_write_json(os.path.join(RESULTS_DIR, f"{name}.json"), grid.to_dict())


def save_payload(name: str, payload: dict) -> None:
    """Persist an arbitrary JSON payload under the results dir, atomically."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    atomic_write_json(os.path.join(RESULTS_DIR, f"{name}.json"), payload)


def report_grid(name: str, grid: RobustnessGrid, extra_info: Dict) -> None:
    """Print the grid, persist it and attach summary numbers to the benchmark."""
    print()
    print(format_robustness_grid(grid, title=name))
    save_grid(name, grid)
    extra_info[f"{name}_baseline"] = grid.baseline_row().tolist()
    extra_info[f"{name}_final_row"] = grid.values[-1, :].tolist()


def _bundle(session: Session, model_spec: ModelSpec, labels, calibration, samples):
    trained = session.resolve_model(model_spec)
    dataset = trained.dataset
    calibration_batch = dataset.train.images[:calibration]
    victims = (
        build_victims(trained.model, labels, calibration_batch) if labels else {}
    )
    return {
        "trained": trained,
        "model": trained.model,
        "dataset": dataset,
        "calibration": calibration_batch,
        "victims": victims,
        "x": dataset.test.images[:samples],
        "y": dataset.test.labels[:samples],
    }


@pytest.fixture(scope="session")
def lenet_bundle(experiment_session):
    """Trained accurate LeNet-5 (AccL5), its dataset, victims and eval split."""
    return _bundle(
        experiment_session, LENET_MODEL, LENET_LABELS, 128, N_MNIST_SAMPLES
    )


@pytest.fixture(scope="session")
def alexnet_bundle(experiment_session):
    """Trained accurate AlexNet (AccAlx), its dataset, victims and eval split."""
    return _bundle(
        experiment_session, ALEXNET_MODEL, ALEXNET_LABELS, 96, N_CIFAR_SAMPLES
    )


@pytest.fixture(scope="session")
def ffnn_bundle(experiment_session):
    """Trained accurate FFNN for the motivational case study (Fig. 1)."""
    return _bundle(experiment_session, FFNN_MODEL, None, 128, N_MNIST_SAMPLES)
