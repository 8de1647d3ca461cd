"""Error-resilience-based multiplier selection.

Section IV.A of the paper describes how the multiplier sets were chosen:
"The approximate multipliers are employed in AxL5 and AxAlx according to
their error resilience towards the MNIST and CIFAR-10 classification ...
approximate multipliers having accuracy less than 90% in AxL5 and 75% in
AxAlx are discarded."

:func:`select_resilient_multipliers` reproduces that screening step: it
builds an AxDNN per candidate multiplier, measures its clean accuracy on a
held-out split and keeps the candidates above the threshold.  The full
screening report is returned so the rejected candidates are visible too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.multipliers.library import get_multiplier, resolve_name
from repro.multipliers.metrics import mean_absolute_error
from repro.nn.model import Sequential


@dataclass(frozen=True)
class MultiplierScreeningResult:
    """Clean-accuracy screening outcome for one candidate multiplier."""

    name: str
    mae_percent: float
    clean_accuracy_percent: float
    accepted: bool


@dataclass
class MultiplierScreeningReport:
    """Full screening report: accepted and rejected candidates."""

    threshold_percent: float
    results: List[MultiplierScreeningResult]

    @property
    def accepted(self) -> List[str]:
        """Names of the candidates that met the accuracy threshold."""
        return [result.name for result in self.results if result.accepted]

    @property
    def rejected(self) -> List[str]:
        """Names of the candidates that fell below the threshold."""
        return [result.name for result in self.results if not result.accepted]

    def as_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "threshold_percent": self.threshold_percent,
            "results": [
                {
                    "name": result.name,
                    "mae_percent": result.mae_percent,
                    "clean_accuracy_percent": result.clean_accuracy_percent,
                    "accepted": result.accepted,
                }
                for result in self.results
            ],
        }


def select_resilient_multipliers(
    model: Sequential,
    candidates: Sequence[str],
    calibration_data: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    accuracy_threshold_percent: float = 90.0,
    bits: int = 8,
    always_keep: Optional[Sequence[str]] = None,
    workers=None,
) -> MultiplierScreeningReport:
    """Screen candidate multipliers by the clean accuracy of their AxDNNs.

    Parameters
    ----------
    model:
        The trained accurate float model.
    candidates:
        Multiplier names or paper labels to screen.
    calibration_data:
        Images used to calibrate activation quantization.
    images, labels:
        Held-out evaluation split for the clean-accuracy measurement.
    accuracy_threshold_percent:
        Candidates whose AxDNN accuracy falls below this are rejected
        (90% for LeNet-5/MNIST, 75% for AlexNet/CIFAR-10 in the paper).
    always_keep:
        Names kept regardless of the threshold (the accurate multiplier by
        default would pass anyway, but the option mirrors the paper keeping
        the exact design as the reference).
    workers:
        Worker threads for each candidate's clean-accuracy inference
        (``repro.nn.runtime.WorkerSpec``: a positive int, ``"auto"`` or
        ``None``); the report is invariant to it.
    """
    if not candidates:
        raise ConfigurationError("at least one candidate multiplier is required")
    if not 0.0 <= accuracy_threshold_percent <= 100.0:
        raise ConfigurationError(
            f"accuracy_threshold_percent must be in [0, 100], got "
            f"{accuracy_threshold_percent}"
        )
    # imported lazily: repro.axnn depends on repro.multipliers, so a module-
    # level import here would create an import cycle
    from repro.axnn.engine import build_axdnn, calibrate_activations
    from repro.nn.runtime import call_with_workers

    keep = {resolve_name(name) for name in (always_keep or [])}
    # one float calibration forward serves every candidate
    schemes = calibrate_activations(model, calibration_data, bits)
    results: List[MultiplierScreeningResult] = []
    for candidate in candidates:
        resolved = resolve_name(candidate)
        multiplier = get_multiplier(resolved)
        axdnn = build_axdnn(
            model, multiplier, calibration_data, bits=bits, activation_schemes=schemes
        )
        accuracy = call_with_workers(
            axdnn.accuracy_percent, images, labels, workers=workers
        )
        accepted = accuracy >= accuracy_threshold_percent or resolved in keep
        results.append(
            MultiplierScreeningResult(
                name=resolved,
                mae_percent=mean_absolute_error(multiplier),
                clean_accuracy_percent=accuracy,
                accepted=accepted,
            )
        )
    return MultiplierScreeningReport(
        threshold_percent=accuracy_threshold_percent, results=results
    )


def rank_by_energy_at_accuracy(
    report: MultiplierScreeningReport,
    energy_lookup: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Rank the accepted multipliers by energy per MAC (cheapest first).

    ``energy_lookup`` defaults to the library's hardware-cost model; the
    result is the order in which an energy-constrained accelerator designer
    would pick multipliers that already meet the accuracy bar.
    """
    from repro.multipliers.energy import energy_per_mac_pj

    def energy(name: str) -> float:
        if energy_lookup is not None and name in energy_lookup:
            return energy_lookup[name]
        return energy_per_mac_pj(name)

    return sorted(report.accepted, key=energy)
