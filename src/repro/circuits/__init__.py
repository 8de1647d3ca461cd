"""Bit-level, vectorised circuit models.

This package provides behavioural gate-level models of the arithmetic
circuits that the paper's approximate multipliers are built from:

* one-bit adder cells — the exact mirror adder and the approximate mirror
  adders (AMA1..AMA5) used by the "defensive approximation" baseline of
  Guesmi et al. (ASPLOS 2021), plus a lower-OR cell;
* ripple-carry adders assembled from per-bit cells;
* 4:2 compressors (exact and approximate) for compressor-tree multipliers;
* unsigned array multipliers whose internal adders can be swapped for
  approximate cells column-by-column.

All circuits operate on NumPy 0/1 integer arrays and are fully vectorised:
every gate is a bitwise ``&``/``|``/``^`` expression that keeps its inputs'
dtype, and the multipliers run on ``uint8`` lanes, so a complete 256x256
look-up table for an 8-bit multiplier is a single call over all 65,536
operand pairs (tens of milliseconds).
"""

from repro.circuits.bitops import (
    bit_and,
    bit_not,
    bit_or,
    bit_xor,
    from_bits,
    to_bits,
)
from repro.circuits.adders import (
    AdderCell,
    ExactFullAdder,
    ApproximateMirrorAdder1,
    ApproximateMirrorAdder2,
    ApproximateMirrorAdder3,
    ApproximateMirrorAdder4,
    ApproximateMirrorAdder5,
    LowerOrCell,
    ADDER_CELLS,
)
from repro.circuits.ripple import RippleCarryAdder, LowerPartOrAdder
from repro.circuits.compressors import (
    Compressor42,
    ExactCompressor42,
    ApproximateCompressor42A,
    ApproximateCompressor42B,
)
from repro.circuits.array_multiplier import (
    ArrayMultiplierCircuit,
    CompressorTreeMultiplierCircuit,
)

__all__ = [
    "bit_and",
    "bit_not",
    "bit_or",
    "bit_xor",
    "from_bits",
    "to_bits",
    "AdderCell",
    "ExactFullAdder",
    "ApproximateMirrorAdder1",
    "ApproximateMirrorAdder2",
    "ApproximateMirrorAdder3",
    "ApproximateMirrorAdder4",
    "ApproximateMirrorAdder5",
    "LowerOrCell",
    "ADDER_CELLS",
    "RippleCarryAdder",
    "LowerPartOrAdder",
    "Compressor42",
    "ExactCompressor42",
    "ApproximateCompressor42A",
    "ApproximateCompressor42B",
    "ArrayMultiplierCircuit",
    "CompressorTreeMultiplierCircuit",
]
