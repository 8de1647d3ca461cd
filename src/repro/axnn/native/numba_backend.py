"""Numba njit mirrors of the C kernels in ``kernels.c``.

Importing this module raises :class:`ImportError` when Numba is absent; the
backend resolver (:mod:`repro.axnn.native`) catches that and falls through
to the ctypes/C backend or the NumPy reference.  The kernels are compiled
lazily on first call (``cache=True`` persists the machine code in Numba's
on-disk cache) and run with ``nogil=True`` so the threaded inference runtime
shards batches over them with real parallelism, exactly like the ctypes
path.

The loop structure intentionally mirrors ``kernels.c`` line for line —
the LUT matmul gathers from the pre-signed ``(C, 2C + 1)`` LUT through the
uint16 sign-folded index, two code rows per pass, accumulating in int32
and flushing to int64 every ``kc`` k-steps (``kc * max|LUT| < 2**31``, so
no partial sum overflows and the result is exact), and col2im keeps the
ascending (i, j) per-element addition order (which is what makes the float
path bit-identical to the NumPy reference loop).
"""

from __future__ import annotations

import numba  # noqa: F401 - presence check; ImportError gates this backend
import numpy as np
from numba import njit

#: column-block width, matching LUT_MATMUL_NB in kernels.c
_BLOCK = 128


@njit(cache=True, nogil=True)
def _lut_matmul_rows(codes, index, lut, kc, out, m, rows, n0, n1, acc):
    # pragma: no cover - jitted
    k_dim = codes.shape[1]
    for r in range(rows):
        for j in range(n0, n1):
            out[m + r, j] = 0
    for k0 in range(0, k_dim, kc):
        k1 = min(k0 + kc, k_dim)
        acc[:rows, : n1 - n0] = 0
        for k in range(k0, k1):
            code0 = codes[m, k]
            code1 = codes[m + rows - 1, k]
            for j in range(n0, n1):
                column = index[k, j]
                acc[0, j - n0] += lut[code0, column]
                if rows == 2:
                    acc[1, j - n0] += lut[code1, column]
        for r in range(rows):
            for j in range(n0, n1):
                out[m + r, j] += acc[r, j - n0]


@njit(cache=True, nogil=True)
def lut_matmul(codes, index, lut, kc, out):  # pragma: no cover - jitted
    m_dim = codes.shape[0]
    n_dim = out.shape[1]
    acc = np.zeros((2, _BLOCK), dtype=np.int32)
    for n0 in range(0, n_dim, _BLOCK):
        n1 = min(n0 + _BLOCK, n_dim)
        m = 0
        while m + 1 < m_dim:
            _lut_matmul_rows(codes, index, lut, kc, out, m, 2, n0, n1, acc)
            m += 2
        if m < m_dim:
            _lut_matmul_rows(codes, index, lut, kc, out, m, 1, n0, n1, acc)
    return out


@njit(cache=True, nogil=True)
def col2im_add(cols, out, kernel_h, kernel_w, stride, out_h, out_w):
    # pragma: no cover - jitted
    batch, padded_h, padded_w, channels = out.shape
    for b in range(batch):
        for hp in range(padded_h):
            for i in range(kernel_h):
                oh_num = hp - i
                if oh_num < 0 or oh_num % stride:
                    continue
                oh = oh_num // stride
                if oh >= out_h:
                    continue
                for wp in range(padded_w):
                    for j in range(kernel_w):
                        ow_num = wp - j
                        if ow_num < 0 or ow_num % stride:
                            continue
                        ow = ow_num // stride
                        if ow >= out_w:
                            continue
                        base = (i * kernel_w + j) * channels
                        for c in range(channels):
                            out[b, hp, wp, c] += cols[b, oh, ow, base + c]
    return out


def numba_version() -> str:
    """Version string of the Numba runtime backing these kernels."""
    return numba.__version__
