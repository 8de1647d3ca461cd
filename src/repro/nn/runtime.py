"""Parallel inference runtime: multi-core batch sharding for prediction.

PR 1 made single-batch AxDNN latency BLAS-bound; the remaining lever for the
figure sweeps (which evaluate every victim on every adversarial batch) is
running *batches* concurrently.  This module provides the shared machinery:

:func:`run_sharded`
    Split an input array into fixed-size batches, evaluate a forward
    callable over them — serially or across a thread pool — and concatenate
    the per-batch outputs in input order.  The slicing is identical for
    every worker count, and each batch is an independent deterministic
    computation, so results are bit-identical regardless of ``workers``.

:func:`resolve_workers`
    Normalise a ``workers`` argument: a positive int, ``"auto"`` (one worker
    per available core), or ``None`` (the ``REPRO_DEFAULT_WORKERS``
    environment variable when set, else 1 — the hook the CI matrix uses to
    run the whole suite through the sharded path).

Threads are the only vehicle: the dominant kernels release the GIL inside
BLAS (the percode / error-correction / exact paths) and inside most NumPy
ufuncs, and worker threads share the process-wide read-only LUT cache
(:mod:`repro.multipliers.base`) and the per-layer bound kernels for free,
with no pickling of models or tables.  scipy.sparse products (the sparse
kernel) hold the GIL, so sharded speedups are largest for BLAS-kernel
models.  Attack crafting does not shard here at all: it runs its shards in
order in the calling process (see :mod:`repro.attacks.engine` for the
measurements behind that).  Forward passes run under
:func:`repro.nn.layers.base.no_grad_cache`, where layers neither store nor
keep activation-sized caches, so concurrent shards of one ``predict`` call
do not contend on layer state.  Layer cache *slots* are shared instance
attributes, however: do not run gradient work (attacks, training) on the
same model object concurrently with a sharded ``predict`` — shards clear
the backward caches the gradient thread relies on.  The sequential drivers
in this repo never do.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from inspect import signature
from typing import Callable, List, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.layers.base import no_grad_cache

#: environment variable supplying the default worker count (CI matrix hook)
WORKERS_ENV_VAR = "REPRO_DEFAULT_WORKERS"

WorkerSpec = Union[None, int, str]


def available_workers() -> int:
    """Number of usable cores (affinity-aware when the platform exposes it)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: WorkerSpec = None) -> int:
    """Resolve a ``workers`` argument to a concrete positive worker count.

    ``None`` reads :data:`WORKERS_ENV_VAR` (defaulting to 1), ``"auto"``
    resolves to :func:`available_workers`, and a positive integer (or its
    string spelling, for the environment variable) passes through.
    """
    if workers is None:
        workers = os.environ.get(WORKERS_ENV_VAR) or 1
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == "auto":
            return available_workers()
        try:
            workers = int(text)
        except ValueError:
            raise ConfigurationError(
                f"workers must be a positive int or 'auto', got {workers!r}"
            ) from None
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ConfigurationError(
            f"workers must be a positive int or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return int(workers)


def validate_batch_size(batch_size) -> int:
    """Check that ``batch_size`` is a positive integer and return it."""
    if isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer)):
        raise ConfigurationError(
            f"batch_size must be a positive int, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)


def batch_slices(n_samples: int, batch_size: int) -> List[slice]:
    """Contiguous batch slices covering ``n_samples`` rows.

    The final slice carries the remainder when ``n_samples`` is not a
    multiple of ``batch_size``.  The slicing depends only on
    ``(n_samples, batch_size)`` — never on the worker count — which is what
    makes sharded prediction bit-identical to the serial loop.
    """
    batch_size = validate_batch_size(batch_size)
    return [
        slice(start, min(start + batch_size, n_samples))
        for start in range(0, n_samples, batch_size)
    ]


def run_sharded(
    forward: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    batch_size: int,
    workers: WorkerSpec = None,
    grad_free: bool = True,
) -> np.ndarray:
    """Evaluate ``forward`` over batches of ``x`` and concatenate the outputs.

    With ``workers > 1`` the batches are distributed over a thread pool;
    outputs are always concatenated in input order.  ``grad_free`` wraps the
    evaluation of *each shard* in :func:`no_grad_cache` — the context is
    thread-local, so every worker enters it itself and concurrent gradient
    work in other threads is unaffected.  ``x`` must be non-empty — callers
    handle the empty-input case, whose output shape they know and this
    function does not.
    """
    x = np.asarray(x)
    if x.shape[0] == 0:
        raise ConfigurationError("run_sharded requires a non-empty input batch")
    slices = batch_slices(x.shape[0], batch_size)
    workers = resolve_workers(workers)

    def run_shard(shard: slice) -> np.ndarray:
        with no_grad_cache() if grad_free else nullcontext():
            return forward(x[shard])

    if workers == 1 or len(slices) == 1:
        outputs = [run_shard(s) for s in slices]
    else:
        pool_size = min(workers, len(slices))
        with ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-shard"
        ) as pool:
            outputs = list(pool.map(run_shard, slices))
    return np.concatenate(outputs, axis=0)


class ProcessShardPool:
    """Exists only for the benchmark harness; goes in its next change.

    The harness calls :meth:`shutdown_all` after each panel.  Nothing in the
    package starts a process pool.
    """

    @staticmethod
    def shutdown_all() -> None:
        """No-op: there are no pooled worker processes to stop."""


def call_with_workers(method: Callable, *args, workers: WorkerSpec = None, **kwargs):
    """Invoke a prediction method, forwarding ``workers`` when it accepts it.

    The robustness drivers evaluate "any object exposing
    ``predict_classes``" — float models, AxDNNs, defense wrappers.  Only the
    first two understand ``workers``; this helper forwards the argument to
    methods that declare it and silently drops it otherwise, so wrapped
    victims keep working unchanged.  An explicit ``workers`` value is always
    forwarded — ``workers=1`` must force serial execution even when
    ``REPRO_DEFAULT_WORKERS`` would resolve ``None`` to something larger.
    """
    if workers is not None and _accepts_workers(method):
        return method(*args, workers=workers, **kwargs)
    return method(*args, **kwargs)


def _accepts_workers(method: Callable) -> bool:
    try:
        return "workers" in signature(method).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/C callables
        return False
