"""Order statistics and failure counting for benchmark reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

#: percentiles a tail may be reported at, lowest first
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: samples that must lie beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` % at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {pct!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least ten samples beyond it.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    best = None
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * count - 1e-9))
        if count - rank >= TAIL_MIN_BEYOND:
            best = pct
    return best


@dataclass(frozen=True)
class Summary:
    """Median and tail of one latency sample."""

    count: int
    p50: float
    tail: float
    tail_pct: Optional[float]

    def describe(self, unit: str) -> str:
        tail = f"p{self.tail_pct:g}" if self.tail_pct is not None else "max"
        return (
            f"p50={self.p50:.4f}{unit} {tail}={self.tail:.4f}{unit} n={self.count}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Median plus the tail rule; a sample too small for any tail reports its max."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    pct = tail_percentile(len(values))
    tail = percentile(values, pct) if pct is not None else max(values)
    return Summary(
        count=len(values),
        p50=statistics.median(values),
        tail=tail,
        tail_pct=pct,
    )


class FailureCounter:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            key = reason or "unspecified"
            self.reasons[key] = self.reasons.get(key, 0) + 1

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
