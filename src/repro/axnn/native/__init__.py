"""Optional compiled backend for the three remaining hot loops.

The approximate-DNN reproduction keeps pure NumPy as its always-available
reference implementation; this package layers a *native* tier on top: a
tiny C extension (:mod:`repro.axnn.native.cext`) compiled on first use with
the host's C compiler and called through ctypes (GIL released for the whole
call).

Backend choice is governed by ``REPRO_KERNEL_BACKEND``:

* ``auto`` (default) — the C extension when it builds, else pure NumPy;
* ``numpy`` — force the reference implementations (native tier disabled).

Resolution happens once, on first use, behind a lock (the double-checked
pattern shared with :class:`repro.axnn.kernels.MultiplierKernelProfile`),
so first-touch compilation is safe under threaded prediction shards.
``reset_backend()`` drops the cached resolution — it is invoked from
:func:`repro.axnn.kernels.clear_profile_cache` so tests can flip the
environment variable and re-resolve.

This module must stay importable from :mod:`repro.nn.functional` without
creating a cycle, so it imports nothing from the :mod:`repro.axnn`
namespace — only stdlib, NumPy, :mod:`repro.config` and :mod:`repro.errors`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from repro.config import env_str
from repro.errors import ConfigurationError

#: environment variable selecting the kernel backend
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

#: recognised values for the env var
BACKEND_CHOICES = ("auto", "numpy")


@dataclass(frozen=True)
class NativeBackend:
    """A resolved compiled backend: a name plus the two kernel entry points.

    ``lut_matmul(codes_u8, index_u16, lut_signed, kc, out_i64)`` writes
    the signed LUT product into every element of ``out`` (all arrays
    C-contiguous).  ``lut_signed`` is the pre-signed ``(C, 2C + 1)`` table
    (columns ``LUT``, ``-LUT``, then one zero column; int16 or int32) and
    ``index`` folds each weight's sign into its magnitude as a column of it;
    the loop accumulates in int32 and flushes to int64 every ``kc``
    k-steps.  ``col2im_add(cols, out, kh, kw, stride, out_h, out_w)``
    scatter-adds an im2col patch matrix into the pre-zeroed padded image
    ``out``.  Both are bit-identical to their NumPy references.
    """

    name: str
    lut_matmul: Callable
    col2im_add: Callable


_STATE_LOCK = threading.Lock()
_RESOLVED = False
_BACKEND: Optional[NativeBackend] = None


def requested_backend() -> str:
    """The backend named by ``REPRO_KERNEL_BACKEND`` (unset or empty: ``auto``).

    Raises :class:`ConfigurationError` for unrecognised values — a typo in
    the env var should fail loudly, not silently run the slow path.
    """
    return env_str(BACKEND_ENV_VAR, "auto", choices=BACKEND_CHOICES)


def _resolve() -> Optional[NativeBackend]:
    if requested_backend() == "numpy":
        return None
    from repro.axnn.native import cext

    try:
        lib = cext.load_library()
    except cext.NativeBuildError:
        return None
    return NativeBackend(
        name="cext",
        lut_matmul=lambda codes, index, lut, kc, out: cext.lut_matmul(
            lib, codes, index, lut, kc, out
        ),
        col2im_add=lambda cols, out, kh, kw, stride, oh, ow: cext.col2im_add(
            lib, cols, out, kh, kw, stride, oh, ow
        ),
    )


def get_backend() -> Optional[NativeBackend]:
    """The resolved native backend, or ``None`` for pure NumPy.

    First call resolves (possibly compiling) under a lock; later calls
    return the cached result.  Safe to call from shard worker threads.
    """
    global _RESOLVED, _BACKEND
    if _RESOLVED:
        return _BACKEND
    with _STATE_LOCK:
        if not _RESOLVED:
            _BACKEND = _resolve()
            _RESOLVED = True
    return _BACKEND


def reset_backend() -> None:
    """Forget the resolved backend so the next use re-reads the env var."""
    global _RESOLVED, _BACKEND
    with _STATE_LOCK:
        _RESOLVED = False
        _BACKEND = None


def backend_name() -> str:
    """Resolved backend name: ``cext`` or ``numpy``."""
    backend = get_backend()
    return backend.name if backend is not None else "numpy"


def native_fingerprint() -> dict:
    """Backend facts for :func:`repro.benchmarking.report.env_fingerprint`.

    Records both the request (env var) and the resolution, so recorded
    baselines can never silently mix kernel backends.
    """
    try:
        resolved = backend_name()
    except ConfigurationError:
        resolved = "invalid"
    return {
        "kernel_backend": resolved,
        "kernel_backend_env": os.environ.get(BACKEND_ENV_VAR, "auto"),
    }


__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV_VAR",
    "NativeBackend",
    "backend_name",
    "get_backend",
    "native_fingerprint",
    "requested_backend",
    "reset_backend",
]
