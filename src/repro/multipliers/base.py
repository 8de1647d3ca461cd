"""Base interface for 8-bit (and general N-bit) unsigned multipliers.

Every multiplier exposes two evaluation paths:

* :meth:`Multiplier.multiply` — vectorised behavioural evaluation; and
* :meth:`Multiplier.lut` — a cached ``(2**n, 2**n)`` look-up table, which is
  what the approximate inference engine (:mod:`repro.axnn`) consumes.  The
  LUT path is the exact mechanism used by TFApprox in the paper.

Error metrics (MAE, WCE, ...) are computed by :mod:`repro.multipliers.metrics`
directly from the LUT, so behavioural models and circuit-backed models are
characterised identically.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: process-wide LUT store keyed by multiplier identity (class, name,
#: bit width and scalar configuration).  Tables are built once per process
#: (a circuit-backed one in tens of milliseconds) and shared read-only
#: between every instance of the same multiplier, surviving per-instance
#: ``clear_cache`` calls.
_GLOBAL_LUT_CACHE: Dict[Tuple, np.ndarray] = {}

#: serialises first-touch LUT construction: the parallel inference runtime
#: shards batches across threads, and concurrent first touches of the same
#: multiplier must yield one shared table, not racing duplicate builds
_GLOBAL_LUT_LOCK = threading.Lock()


def clear_global_lut_cache() -> None:
    """Drop every process-wide cached LUT (forces true rebuilds)."""
    _GLOBAL_LUT_CACHE.clear()


def global_lut_cache_size() -> int:
    """Number of LUTs currently held in the process-wide cache."""
    return len(_GLOBAL_LUT_CACHE)


class Multiplier(ABC):
    """An unsigned ``bit_width x bit_width -> 2*bit_width`` multiplier."""

    def __init__(self, name: str, bit_width: int = 8) -> None:
        if bit_width <= 0 or bit_width > 12:
            raise ConfigurationError(
                f"bit_width must be in [1, 12] (LUT memory), got {bit_width}"
            )
        self.name = name
        self.bit_width = bit_width
        self._lut: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ API
    @property
    def operand_max(self) -> int:
        """Largest representable operand value (``2**bit_width - 1``)."""
        return (1 << self.bit_width) - 1

    @property
    def product_max(self) -> int:
        """Largest exact product (``operand_max ** 2``)."""
        return self.operand_max * self.operand_max

    @abstractmethod
    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Compute products for unsigned integer arrays ``a`` and ``b``."""

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two unsigned integer arrays element-wise.

        Inputs are validated to be within ``[0, operand_max]``; the result is
        an ``int64`` array of approximate products.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.any(a < 0) or np.any(b < 0):
            raise ConfigurationError(f"{self.name}: operands must be non-negative")
        if np.any(a > self.operand_max) or np.any(b > self.operand_max):
            raise ConfigurationError(
                f"{self.name}: operands exceed {self.bit_width}-bit range"
            )
        return np.asarray(self._compute(a, b), dtype=np.int64)

    def _lut_cache_key(self) -> Optional[Tuple]:
        """Key identifying this multiplier in the process-wide LUT cache.

        The key combines the class name with every scalar public attribute
        (name, bit width, truncation amounts, seeds, ...), so differently
        parameterised instances of the same family do not collide.  Return
        ``None`` to opt out of process-wide sharing.
        """
        scalars = tuple(
            (key, value)
            for key, value in sorted(vars(self).items())
            if not key.startswith("_") and isinstance(value, (bool, int, float, str))
        )
        return (type(self).__name__,) + scalars

    def lut(self) -> np.ndarray:
        """Return (building and caching on first use) the full product LUT.

        The table has shape ``(2**bit_width, 2**bit_width)`` and dtype
        ``int32``; entry ``[a, b]`` is the multiplier's output for operands
        ``a`` and ``b``.  Tables are shared process-wide between instances
        with the same :meth:`_lut_cache_key` and are therefore read-only;
        they survive per-instance :meth:`clear_cache` calls (use
        :func:`clear_global_lut_cache` to force a rebuild).  First-touch
        construction is serialised behind a lock, so concurrent calls from
        inference worker threads all receive the same shared table.
        """
        if self._lut is None:
            key = self._lut_cache_key()
            with _GLOBAL_LUT_LOCK:
                table = _GLOBAL_LUT_CACHE.get(key) if key is not None else None
                if table is None:
                    n = 1 << self.bit_width
                    a, b = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
                    table = self.multiply(a, b).astype(np.int32)
                    table.setflags(write=False)
                    if key is not None:
                        _GLOBAL_LUT_CACHE[key] = table
            self._lut = table
        return self._lut

    def clear_cache(self) -> None:
        """Drop this instance's LUT reference.

        The process-wide cache entry (if any) is kept, so a later
        :meth:`lut` call re-attaches the shared table instead of rebuilding
        it; :func:`clear_global_lut_cache` drops the shared entries too.
        """
        self._lut = None

    # ------------------------------------------------------------ utilities
    def exact_lut(self) -> np.ndarray:
        """The exact product table with the same shape/dtype as :meth:`lut`."""
        n = 1 << self.bit_width
        a, b = np.meshgrid(
            np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), indexing="ij"
        )
        return (a * b).astype(np.int32)

    def error_lut(self) -> np.ndarray:
        """Signed error table ``approx - exact`` (int32)."""
        return self.lut().astype(np.int64).astype(np.int32) - self.exact_lut()

    def is_exact(self) -> bool:
        """True when the multiplier reproduces every exact product."""
        return bool(np.array_equal(self.lut(), self.exact_lut()))

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.multiply(a, b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, bit_width={self.bit_width})"


class LUTMultiplier(Multiplier):
    """A multiplier defined directly by a product look-up table."""

    def __init__(self, name: str, table: np.ndarray) -> None:
        table = np.asarray(table)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ConfigurationError("LUT must be a square 2-D array")
        size = table.shape[0]
        bit_width = int(size).bit_length() - 1
        if (1 << bit_width) != size:
            raise ConfigurationError(f"LUT size {size} is not a power of two")
        super().__init__(name, bit_width)
        self._table = table.astype(np.int32)
        self._lut = self._table

    def _lut_cache_key(self) -> Optional[Tuple]:
        # The table is caller-supplied: two LUTMultipliers may share a name
        # but not a table, and there is nothing to save by sharing anyway.
        return None

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._table[a, b]


def _config_token(obj, depth: int = 2):
    """Hashable structural description of a configuration object.

    Captures the class name and scalar public attributes, recursing one
    level into nested component objects (approximate adder cells,
    compressors, ...) so that two circuits of the same class but different
    composition produce different tokens.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    token = [type(obj).__name__]
    if depth > 0:
        try:
            attrs = vars(obj)
        except TypeError:
            attrs = {}
        for key, value in sorted(attrs.items()):
            if key.startswith("_"):
                continue
            token.append((key, _config_token(value, depth - 1)))
    return tuple(token)


class CircuitMultiplier(Multiplier):
    """Adapter exposing a :mod:`repro.circuits` multiplier circuit as a Multiplier."""

    def __init__(self, name: str, circuit, bit_width: int = 8) -> None:
        super().__init__(name, bit_width)
        if getattr(circuit, "width", bit_width) != bit_width:
            raise ConfigurationError(
                f"circuit width {getattr(circuit, 'width', None)} does not match "
                f"bit_width {bit_width}"
            )
        self.circuit = circuit

    def _lut_cache_key(self) -> Optional[Tuple]:
        # The circuit is the behaviour: same-named adapters around different
        # circuits must not share a LUT, so the key includes the circuit's
        # structural description (class + parameters + component cells).
        base_key = super()._lut_cache_key()
        return None if base_key is None else base_key + (_config_token(self.circuit),)

    def _compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.circuit.multiply(a, b)
