"""One-bit adder cells: exact and approximate mirror adders.

The approximate mirror adders (AMA) follow the style introduced by Gupta et
al. ("Low-Power Digital Signal Processing Using Approximate Adders", IEEE
TCAD 2013) and used by the defensive-approximation baseline of Guesmi et al.
(ASPLOS 2021): each cell removes transistors from the exact mirror adder,
which manifests behaviourally as a handful of wrong rows in the 8-row truth
table.  The exact truth tables implemented here are documented per class and
verified by the test-suite; they are behavioural stand-ins for the published
netlists (see DESIGN.md, substitution table).

Every cell is a stateless object exposing ``add(a, b, cin) -> (sum, cout)``
on vectorised bit arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from repro.circuits.bitops import bit_and, bit_not, bit_or, bit_xor, majority


class AdderCell(ABC):
    """Interface for a one-bit (full) adder cell."""

    #: short, registry-friendly identifier
    name: str = "adder"

    @abstractmethod
    def add(
        self, a: np.ndarray, b: np.ndarray, cin: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(sum, carry_out)`` for bit arrays ``a``, ``b``, ``cin``."""

    def truth_table(self) -> np.ndarray:
        """Return the 8x5 truth table ``[a, b, cin, sum, cout]`` of the cell."""
        rows = []
        for a in (0, 1):
            for b in (0, 1):
                for cin in (0, 1):
                    s, cout = self.add(
                        np.array([a]), np.array([b]), np.array([cin])
                    )
                    rows.append([a, b, cin, int(s[0]), int(cout[0])])
        return np.array(rows, dtype=np.int64)

    def error_count(self) -> Tuple[int, int]:
        """Number of wrong (sum, carry) rows relative to the exact adder."""
        exact = ExactFullAdder().truth_table()
        approx = self.truth_table()
        sum_errors = int(np.sum(exact[:, 3] != approx[:, 3]))
        carry_errors = int(np.sum(exact[:, 4] != approx[:, 4]))
        return sum_errors, carry_errors

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ExactFullAdder(AdderCell):
    """The exact (mirror) full adder: ``sum = a^b^cin``, ``cout = maj(a,b,cin)``."""

    name = "exact"

    def add(self, a, b, cin):
        s = bit_xor(bit_xor(a, b), cin)
        cout = majority(a, b, cin)
        return s, cout


class ApproximateMirrorAdder1(AdderCell):
    """AMA1: exact carry, ``sum = NOT(cout)``.

    Truth-table errors: sum wrong for inputs 000 and 111 (2 of 8 rows);
    carry exact.
    """

    name = "ama1"

    def add(self, a, b, cin):
        cout = majority(a, b, cin)
        s = bit_not(cout)
        return s, cout


class ApproximateMirrorAdder2(AdderCell):
    """AMA2: ``sum = NOT(a)``, ``cout = a``.

    Truth-table errors: sum wrong for 4 of 8 rows, carry wrong for 2 of 8
    rows (inputs 011 and 100).
    """

    name = "ama2"

    def add(self, a, b, cin):
        return bit_not(a), np.array(a)


class ApproximateMirrorAdder3(AdderCell):
    """AMA3: ``sum = cin``, ``cout = a``.

    Truth-table errors: sum wrong for 4 of 8 rows, carry wrong for 2 of 8
    rows.  Compared with AMA2 the sum error has the opposite sign bias.
    """

    name = "ama3"

    def add(self, a, b, cin):
        return np.array(cin), np.array(a)


class ApproximateMirrorAdder4(AdderCell):
    """AMA4: ``sum = b``, ``cout = a``.

    A very aggressive approximation that ignores the carry input entirely.
    """

    name = "ama4"

    def add(self, a, b, cin):
        return np.array(b), np.array(a)


class ApproximateMirrorAdder5(AdderCell):
    """AMA5: exact sum, ``cout = a OR (b AND cin)``.

    Carry wrong for input 011 only (1 of 8 rows); sum exact.  This is the
    mildest approximate cell in the family.
    """

    name = "ama5"

    def add(self, a, b, cin):
        s = bit_xor(bit_xor(a, b), cin)
        cout = bit_or(a, bit_and(b, cin))
        return s, cout


class LowerOrCell(AdderCell):
    """Lower-part OR adder cell: ``sum = a OR b``, ``cout = 0``.

    Used for the least-significant columns of lower-part-OR adders (LOA) and
    OR-compressed multiplier columns.
    """

    name = "lower_or"

    def add(self, a, b, cin):
        s = bit_or(a, b)
        cout = np.zeros_like(s)
        return s, cout


#: registry of available adder cells keyed by their short name
ADDER_CELLS: Dict[str, AdderCell] = {
    cell.name: cell
    for cell in (
        ExactFullAdder(),
        ApproximateMirrorAdder1(),
        ApproximateMirrorAdder2(),
        ApproximateMirrorAdder3(),
        ApproximateMirrorAdder4(),
        ApproximateMirrorAdder5(),
        LowerOrCell(),
    )
}


def get_adder_cell(name: str) -> AdderCell:
    """Look up an adder cell by name (see :data:`ADDER_CELLS`)."""
    try:
        return ADDER_CELLS[name]
    except KeyError as exc:
        known = ", ".join(sorted(ADDER_CELLS))
        raise KeyError(f"unknown adder cell {name!r}; known cells: {known}") from exc
