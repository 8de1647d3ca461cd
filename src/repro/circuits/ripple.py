"""Ripple-carry adders assembled from one-bit adder cells.

A :class:`RippleCarryAdder` chains ``width`` one-bit cells; each bit position
can use a different cell, which is how lower-part approximate adders (e.g.
the Guesmi-style mirror-adder array multiplier, or LOA adders) are modelled:
the ``k`` least-significant positions use an approximate cell and the rest
use the exact full adder.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.adders import AdderCell, ExactFullAdder, LowerOrCell
from repro.circuits.bitops import from_bits, to_bits
from repro.errors import ConfigurationError


class RippleCarryAdder:
    """A ``width``-bit ripple-carry adder with per-bit configurable cells.

    Parameters
    ----------
    width:
        Number of bit positions.
    cells:
        Either a single :class:`AdderCell` used for every position, or a
        sequence of ``width`` cells ordered LSB first.
    """

    def __init__(
        self,
        width: int,
        cells: Union[AdderCell, Sequence[AdderCell], None] = None,
    ) -> None:
        if width <= 0:
            raise ConfigurationError(f"adder width must be positive, got {width}")
        self.width = width
        if cells is None:
            cells = ExactFullAdder()
        if isinstance(cells, AdderCell):
            cell_list: List[AdderCell] = [cells] * width
        else:
            cell_list = list(cells)
            if len(cell_list) != width:
                raise ConfigurationError(
                    f"expected {width} adder cells, got {len(cell_list)}"
                )
        self.cells = cell_list

    @classmethod
    def with_approximate_lower_bits(
        cls,
        width: int,
        approx_cell: AdderCell,
        approx_bits: int,
        exact_cell: Optional[AdderCell] = None,
    ) -> "RippleCarryAdder":
        """Build an adder whose ``approx_bits`` LSB positions use ``approx_cell``."""
        if not 0 <= approx_bits <= width:
            raise ConfigurationError(
                f"approx_bits must be in [0, {width}], got {approx_bits}"
            )
        exact = exact_cell if exact_cell is not None else ExactFullAdder()
        cells = [approx_cell] * approx_bits + [exact] * (width - approx_bits)
        return cls(width, cells)

    def add_bits(
        self, a_bits: np.ndarray, b_bits: np.ndarray, cin: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Add two bit arrays of shape ``(..., width)``; return ``(sum_bits, cout)``."""
        a_bits = np.asarray(a_bits)
        b_bits = np.asarray(b_bits)
        if a_bits.shape != b_bits.shape or a_bits.shape[-1] != self.width:
            raise ConfigurationError(
                "operand bit arrays must both have last dimension "
                f"{self.width}; got {a_bits.shape} and {b_bits.shape}"
            )
        carry = (
            np.zeros(a_bits.shape[:-1], dtype=a_bits.dtype)
            if cin is None
            else np.asarray(cin)
        )
        sum_bits = np.zeros_like(a_bits)
        for position, cell in enumerate(self.cells):
            s, carry = cell.add(a_bits[..., position], b_bits[..., position], carry)
            sum_bits[..., position] = s
        return sum_bits, carry

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Add two unsigned integer arrays, returning ``width + 1``-bit results."""
        a_bits = to_bits(np.asarray(a), self.width)
        b_bits = to_bits(np.asarray(b), self.width)
        sum_bits, cout = self.add_bits(a_bits, b_bits)
        return from_bits(sum_bits) + (cout.astype(np.int64) << self.width)


class LowerPartOrAdder(RippleCarryAdder):
    """Lower-part OR adder (LOA): OR cells in the LSBs, exact adders above."""

    def __init__(self, width: int, approx_bits: int) -> None:
        if not 0 <= approx_bits <= width:
            raise ConfigurationError(
                f"approx_bits must be in [0, {width}], got {approx_bits}"
            )
        cells = [LowerOrCell()] * approx_bits + [ExactFullAdder()] * (width - approx_bits)
        super().__init__(width, cells)
        self.approx_bits = approx_bits
