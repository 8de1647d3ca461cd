"""Hermetic run set-up: scrubbed environment, private scratch space, and a
record of the runtime configuration every result was measured under."""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import tempfile
from pathlib import Path

#: the checkout the benchmark runs from (``perfbench/benchkit/..``/..)
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"

#: compiled kernels and the last trace of each workload persist across runs
BUILD_DIR = ROOT / ".perfbench_build"
#: per-run scratch (stores, logs); removed when the run ends
WORK_DIR = ROOT / ".perfbench_work"


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def scrub_environment(work_dir: str) -> None:
    """Drop inherited ``REPRO_*`` knobs and pin the ones the benchmark owns.

    Applied to this process's ``os.environ`` so every child inherits it:
    the artifact store defaults into the run's scratch directory (never
    ``~/.cache/repro``), compiled kernels cache under the build directory,
    and temporary files stay inside the checkout.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ARTIFACT_DIR"] = os.path.join(work_dir, "default-store")
    os.environ["REPRO_NATIVE_CACHE"] = str(BUILD_DIR / "native")
    os.environ["TMPDIR"] = work_dir
    os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    tempfile.tempdir = work_dir


def make_work_dir() -> str:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=str(WORK_DIR))


def remove_work_dir(work_dir: str) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


def trace_path(workload: str) -> str:
    """Where a traced run leaves its spans (the latest traced repetition's)."""
    directory = BUILD_DIR / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    return str(directory / f"{workload}.json")


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live child process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _blas_threads() -> object:
    """OpenBLAS's live thread count, read from the library numpy loaded."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    candidates = sorted(libs.glob("*openblas*")) if libs.is_dir() else []
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return "unknown"


def runtime_record() -> dict:
    """Resolved workers, attack backend, kernel backend and BLAS of this run."""
    import numpy as np

    from repro.attacks.engine import resolve_backend
    from repro.benchmarking.report import env_fingerprint
    from repro.nn.runtime import resolve_workers

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    blas["threads"] = _blas_threads()
    return {
        "workers": resolve_workers("auto"),
        "attack_backend": resolve_backend(None),
        "env": env_fingerprint(),
        "blas": blas,
    }
