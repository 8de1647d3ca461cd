"""Quantization schemes: affine (asymmetric) and symmetric fixed point.

An affine scheme maps a real value ``x`` to an unsigned integer ``q`` via

    q = clip(round(x / scale) + zero_point, 0, 2**bits - 1)

and back via ``x ≈ (q - zero_point) * scale``.  A symmetric scheme maps to a
signed integer without a zero point.  Both are per-tensor, matching the
fixed-point quantization used by the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CalibrationError, ConfigurationError


def _scaled(x: np.ndarray, scale: float) -> np.ndarray:
    """``x / scale`` as a fresh writable float64 array (0-d for scalars)."""
    return np.asarray(np.asarray(x, dtype=np.float64) / scale)


def _codes(q: np.ndarray) -> np.ndarray:
    """Rounded, clipped values as int64 codes; 0-d input gives a scalar."""
    codes = q.astype(np.int64)
    return codes if codes.ndim else codes[()]


@dataclass(frozen=True)
class AffineQuantization:
    """Per-tensor affine (asymmetric, unsigned) quantization."""

    scale: float
    zero_point: int
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 1 <= self.bits <= 16:
            raise ConfigurationError(f"bits must be in [1, 16], got {self.bits}")
        if not 0 <= self.zero_point <= self.qmax:
            raise ConfigurationError(
                f"zero_point must be in [0, {self.qmax}], got {self.zero_point}"
            )

    @property
    def qmax(self) -> int:
        """Largest quantized code."""
        return (1 << self.bits) - 1

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float array to integer codes (int64).

        One division allocates the working array; rounding (half to even,
        as ``np.round``), the zero-point shift and the clip then run in
        place on it.
        """
        q = _scaled(x, self.scale)
        np.rint(q, out=q)
        q += self.zero_point
        np.clip(q, 0, self.qmax, out=q)
        return _codes(q)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Map integer codes back to floats."""
        return (np.asarray(q, dtype=np.float64) - self.zero_point) * self.scale

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize then dequantize (the fixed-point projection of ``x``)."""
        return self.dequantize(self.quantize(x))


@dataclass(frozen=True)
class SymmetricQuantization:
    """Per-tensor symmetric (signed, no zero point) quantization."""

    scale: float
    bits: int = 8

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        if not 2 <= self.bits <= 16:
            raise ConfigurationError(f"bits must be in [2, 16], got {self.bits}")

    @property
    def qmax(self) -> int:
        """Largest positive quantized code (magnitude bound)."""
        return (1 << (self.bits - 1)) - 1

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize a float array to signed integer codes (int64).

        Same in-place rounding and clip as :meth:`AffineQuantization.quantize`.
        """
        q = _scaled(x, self.scale)
        np.rint(q, out=q)
        np.clip(q, -self.qmax, self.qmax, out=q)
        return _codes(q)

    def dequantize(self, q: np.ndarray) -> np.ndarray:
        """Map signed integer codes back to floats."""
        return np.asarray(q, dtype=np.float64) * self.scale

    def round_trip(self, x: np.ndarray) -> np.ndarray:
        """Quantize then dequantize (the fixed-point projection of ``x``)."""
        return self.dequantize(self.quantize(x))


@dataclass
class QuantizedTensor:
    """An integer tensor together with the scheme that produced it."""

    codes: np.ndarray
    scheme: object

    @property
    def shape(self) -> tuple:
        return self.codes.shape

    def dequantize(self) -> np.ndarray:
        """Recover the float approximation of the original tensor."""
        return self.scheme.dequantize(self.codes)


def calibrate_affine(
    x: np.ndarray, bits: int = 8, min_range: float = 1e-8
) -> AffineQuantization:
    """Min/max calibration of an affine scheme over a float tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise CalibrationError("cannot calibrate on an empty tensor")
    lo = float(min(x.min(), 0.0))
    hi = float(max(x.max(), 0.0))
    span = max(hi - lo, min_range)
    qmax = (1 << bits) - 1
    scale = span / qmax
    zero_point = int(np.clip(np.round(-lo / scale), 0, qmax))
    return AffineQuantization(scale=scale, zero_point=zero_point, bits=bits)


def calibrate_symmetric(
    x: np.ndarray, bits: int = 8, min_range: float = 1e-8
) -> SymmetricQuantization:
    """Max-abs calibration of a symmetric scheme over a float tensor."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise CalibrationError("cannot calibrate on an empty tensor")
    amax = max(float(np.abs(x).max()), min_range)
    qmax = (1 << (bits - 1)) - 1
    return SymmetricQuantization(scale=amax / qmax, bits=bits)
