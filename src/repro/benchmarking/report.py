"""Machine-readable benchmark results: :class:`BenchmarkResult` and
:class:`BenchmarkReport`.

Every benchmark driver in ``benchmarks/`` emits one schema-versioned
:class:`BenchmarkReport` per suite under ``benchmarks/results/`` (through
the artifact store's atomic write path, so an interrupted run can never
leave a torn baseline behind).  A report carries everything the regression
gate needs to decide whether two runs are comparable:

* the producing **commit** and a **timestamp**;
* an **environment fingerprint** — python/numpy versions, platform,
  *core count*, hostname, kernel backend and BLAS — because wall-clock
  metrics recorded on a 1-core container are not comparable to a 4-core
  CI runner;
* per-metric **value + unit + direction** (``higher_is_better``) plus the
  ``min_cores`` gate of the repo's "assert speedup only on >= 4 cores"
  convention.

The schema is versioned (:data:`REPORT_SCHEMA_VERSION`); loading a report
written by a *newer* schema raises instead of silently misreading it.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.experiments.store import atomic_write_json

#: current schema version of serialized benchmark reports
REPORT_SCHEMA_VERSION = 1

#: units whose values are dimensionless and therefore machine-portable —
#: a speedup ratio measured on one host is comparable to the same ratio on
#: another, while raw seconds are not (see :func:`repro.benchmarking.compare`)
PORTABLE_UNITS = frozenset({"ratio", "x", "percent", "count"})


def current_commit() -> str:
    """The current git commit hash, or ``"unknown"`` outside a checkout.

    ``GITHUB_SHA`` (set by CI even in shallow/detached checkouts) wins over
    asking git, which wins over giving up.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if proc.returncode != 0:
        return "unknown"
    return proc.stdout.strip() or "unknown"


#: thread-count getters exported by the OpenBLAS builds numpy wheels bundle
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_libraries() -> List[Path]:
    """OpenBLAS shared objects bundled with the numpy wheel, if any."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(libs.glob("*openblas*")) if libs.is_dir() else []


def _blas_threads():
    """The live OpenBLAS thread count, or ``"unknown"`` without OpenBLAS.

    Opening a library numpy already loaded returns the loaded instance, so
    the count reflects ``OPENBLAS_NUM_THREADS`` and any runtime change.
    """
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def blas_fingerprint() -> dict:
    """Name, version and live thread count of the BLAS numpy uses.

    Every field a host cannot report (no build metadata, a BLAS other than
    OpenBLAS) reads ``"unknown"``; this never raises.
    """
    import numpy as np

    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        config = {}
    return {
        "blas": str(config.get("name") or "unknown"),
        "blas_version": str(config.get("version") or "unknown"),
        "blas_threads": _blas_threads(),
    }


def env_fingerprint(extra: Optional[dict] = None) -> dict:
    """The measuring machine's fingerprint recorded with every report.

    ``cores`` is the load-bearing field: the compare engine refuses to gate
    wall-clock metrics across differing core counts and applies the
    ``min_cores`` convention with it.  The kernel-backend fields
    (``kernel_backend`` / ``kernel_backend_env``) record whether the
    compiled C tier produced the numbers, so baseline comparisons never
    silently mix a native run against a pure-NumPy one.  The BLAS fields
    (``blas`` / ``blas_version`` / ``blas_threads``, see
    :func:`blas_fingerprint`) do the same for the float64 GEMMs the LUT
    kernels run on.  ``extra`` merges in run-specific knobs (e.g. the
    ``REPRO_BENCH_*`` scale settings).
    """
    import numpy as np

    from repro.axnn.native import native_fingerprint

    fingerprint = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cores": os.cpu_count() or 1,
        "hostname": socket.gethostname(),
    }
    fingerprint.update(native_fingerprint())
    fingerprint.update(blas_fingerprint())
    if extra:
        fingerprint.update(extra)
    return fingerprint


@dataclass(frozen=True)
class BenchmarkResult:
    """One measured metric: value, unit and how to judge a change.

    ``higher_is_better`` orients the regression check (throughput and
    speedup ratios improve upward, wall-clock times downward);
    ``min_cores`` marks metrics that only carry signal on multi-core hosts
    (sharding speedups record parity on 1 core by design, so the gate
    skips them there); ``extra`` is free-form context that is stored but
    never compared.
    """

    name: str
    value: float
    unit: str = "s"
    higher_is_better: bool = False
    min_cores: int = 0
    extra: Optional[dict] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(f"metric name must be a string, got {self.name!r}")
        if not isinstance(self.value, (int, float)) or isinstance(self.value, bool):
            raise ConfigurationError(
                f"metric {self.name}: value must be a number, got {self.value!r}"
            )
        if not math.isfinite(self.value):
            raise ConfigurationError(
                f"metric {self.name}: value must be finite, got {self.value!r}"
            )
        if not self.unit or not isinstance(self.unit, str):
            raise ConfigurationError(f"metric {self.name}: unit must be a string")
        if not isinstance(self.min_cores, int) or self.min_cores < 0:
            raise ConfigurationError(
                f"metric {self.name}: min_cores must be an int >= 0"
            )

    @property
    def portable(self) -> bool:
        """Whether the metric is dimensionless (comparable across hosts)."""
        return self.unit in PORTABLE_UNITS

    def to_dict(self) -> dict:
        payload = {
            "name": self.name,
            "value": float(self.value),
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "min_cores": self.min_cores,
        }
        if self.extra:
            payload["extra"] = self.extra
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchmarkResult":
        if not isinstance(payload, dict):
            raise ConfigurationError(f"benchmark result must be a dict, got {payload!r}")
        unknown = set(payload) - {
            "name", "value", "unit", "higher_is_better", "min_cores", "extra"
        }
        if unknown:
            raise ConfigurationError(
                f"benchmark result has unknown keys: {sorted(unknown)}"
            )
        return cls(
            name=payload.get("name"),
            value=payload.get("value"),
            unit=payload.get("unit", "s"),
            higher_is_better=bool(payload.get("higher_is_better", False)),
            min_cores=int(payload.get("min_cores", 0)),
            extra=payload.get("extra"),
        )


@dataclass
class BenchmarkReport:
    """One suite's measured metrics plus the provenance to compare them.

    Results are keyed by metric name — :meth:`add` replaces an existing
    metric of the same name (last measurement wins), so re-running a
    single test updates its metrics without disturbing the rest of the
    suite's recorded baseline.
    """

    suite: str
    results: List[BenchmarkResult] = field(default_factory=list)
    schema_version: int = REPORT_SCHEMA_VERSION
    commit: str = field(default_factory=current_commit)
    timestamp: float = field(default_factory=time.time)
    env: dict = field(default_factory=env_fingerprint)

    def __post_init__(self) -> None:
        if not self.suite or not isinstance(self.suite, str):
            raise ConfigurationError(f"suite must be a name, got {self.suite!r}")

    # --------------------------------------------------------------- metrics
    def add(self, result: BenchmarkResult) -> BenchmarkResult:
        """Add (or replace, by name) one metric; returns it."""
        self.results = [r for r in self.results if r.name != result.name]
        self.results.append(result)
        return result

    def metric(self, name: str) -> Optional[BenchmarkResult]:
        """The named metric, or ``None``."""
        for result in self.results:
            if result.name == name:
                return result
        return None

    def metric_names(self) -> Tuple[str, ...]:
        return tuple(result.name for result in self.results)

    def merge(self, incoming: "BenchmarkReport") -> "BenchmarkReport":
        """Fold a newer report of the same suite into this one (in place).

        Incoming metrics win by name; untouched metrics survive — this is
        how concurrent CI matrix entries each contribute their section of
        one suite file without clobbering the others (the recorder holds a
        file lock around the read-merge-write).  Provenance (commit,
        timestamp, env) follows the incoming run.
        """
        if incoming.suite != self.suite:
            raise ConfigurationError(
                f"cannot merge suite {incoming.suite!r} into {self.suite!r}"
            )
        for result in incoming.results:
            self.add(result)
        self.commit = incoming.commit
        self.timestamp = incoming.timestamp
        self.env = dict(incoming.env)
        return self

    # ----------------------------------------------------------------- (de)ser
    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "commit": self.commit,
            "timestamp": self.timestamp,
            "env": dict(self.env),
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchmarkReport":
        if not isinstance(payload, dict):
            raise ConfigurationError(f"benchmark report must be a dict, got {payload!r}")
        version = payload.get("schema_version")
        if not isinstance(version, int):
            raise ConfigurationError(
                "not a benchmark report: missing integer schema_version"
            )
        if version > REPORT_SCHEMA_VERSION:
            raise ConfigurationError(
                f"benchmark report schema v{version} is newer than this code "
                f"understands (v{REPORT_SCHEMA_VERSION}); refusing to misread it"
            )
        report = cls(
            suite=payload.get("suite"),
            results=[BenchmarkResult.from_dict(r) for r in payload.get("results", [])],
            schema_version=version,
            commit=payload.get("commit", "unknown"),
            timestamp=float(payload.get("timestamp", 0.0)),
            env=dict(payload.get("env", {})),
        )
        return report

    def save(self, path: str) -> str:
        """Write the report atomically (temp + replace); returns the path."""
        atomic_write_json(path, self.to_dict())
        return path

    @classmethod
    def load(cls, path: str) -> "BenchmarkReport":
        """Load a report; raises on unreadable files or unknown schemas."""
        import json

        with open(path) as handle:
            try:
                payload = json.load(handle)
            except ValueError as exc:
                raise ConfigurationError(
                    f"benchmark report {path} is not valid JSON: {exc}"
                ) from exc
        return cls.from_dict(payload)
