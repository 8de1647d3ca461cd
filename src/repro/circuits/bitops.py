"""Vectorised bit-manipulation helpers used by the circuit models.

All functions operate on NumPy integer arrays of arbitrary shape.  Bits are
0/1 integer arrays, and every gate is written with ``&``, ``|`` and ``^``
only, so a gate's output keeps its inputs' dtype: the multiplier circuits
run on ``uint8`` lanes (one byte per operand pair), and 0/1 arrays of any
other integer dtype behave identically.  Bit vectors are stored
least-significant-bit first along the last axis.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


def to_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Decompose unsigned integers into a bit array (LSB first).

    Parameters
    ----------
    values:
        Array of non-negative integers.
    width:
        Number of bits to extract.  Values must fit in ``width`` bits.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``values.shape + (width,)`` with entries in
        {0, 1}.
    """
    values = np.asarray(values)
    if width <= 0:
        raise ShapeError(f"bit width must be positive, got {width}")
    if np.any(values < 0):
        raise ShapeError("to_bits expects non-negative integers")
    if np.any(values >= (1 << width)):
        raise ShapeError(f"values do not fit in {width} bits")
    shifts = np.arange(width, dtype=np.int64)
    return ((values[..., None].astype(np.int64) >> shifts) & 1).astype(np.uint8)


def from_bits(bits: np.ndarray) -> np.ndarray:
    """Recompose a bit array (LSB first along the last axis) into ``int64``."""
    bits = np.asarray(bits)
    weights = np.int64(1) << np.arange(bits.shape[-1], dtype=np.int64)
    return np.sum(bits * weights, axis=-1)


def bit_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical AND of two bit arrays."""
    return np.asarray(a) & np.asarray(b)


def bit_or(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical OR of two bit arrays."""
    return np.asarray(a) | np.asarray(b)


def bit_xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Logical XOR of two bit arrays."""
    return np.asarray(a) ^ np.asarray(b)


def bit_not(a: np.ndarray) -> np.ndarray:
    """Logical NOT of a bit array (``a ^ 1``)."""
    return np.asarray(a) ^ 1


def majority(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Majority vote of three bit arrays: ``(a & b) | (c & (a | b))``."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (a & b) | (np.asarray(c) & (a | b))
