"""Per-layer approximation sensitivity analysis (extension beyond the paper).

The paper applies one approximate multiplier to every convolution of the
network.  A natural follow-up — and the kind of analysis an accelerator
designer needs — is *which layer's* approximation is responsible for the
accuracy and robustness loss.  This module approximates one compute layer at
a time (all other layers keep the exact multiplier) and reports, per layer,
the clean accuracy and the robustness under a chosen attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.axnn.engine import build_axdnn, calibrate_activations
from repro.errors import ConfigurationError
from repro.multipliers.library import ACCURATE_MULTIPLIER
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.model import Sequential
from repro.nn.runtime import WorkerSpec


@dataclass(frozen=True)
class LayerSensitivity:
    """Impact of approximating a single compute layer."""

    layer_name: str
    layer_kind: str
    clean_accuracy_percent: float
    attacked_accuracy_percent: Optional[float]

    @property
    def robustness_gap_percent(self) -> Optional[float]:
        """Clean minus attacked accuracy (None when no attack was evaluated)."""
        if self.attacked_accuracy_percent is None:
            return None
        return self.clean_accuracy_percent - self.attacked_accuracy_percent


def compute_layer_names(model: Sequential) -> List[str]:
    """Names of the compute (Conv2D / Dense) layers of a float model."""
    return [
        layer.name
        for layer in model.layers
        if isinstance(layer, (Conv2D, Dense))
    ]


def layer_sensitivity_analysis(
    model: Sequential,
    multiplier: str,
    calibration_data: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
    attack: Optional[Attack] = None,
    epsilon: float = 0.1,
    layers: Optional[Sequence[str]] = None,
    bits: int = 8,
    workers: WorkerSpec = "auto",
) -> List[LayerSensitivity]:
    """Approximate one compute layer at a time and measure the impact.

    Parameters
    ----------
    model:
        Trained accurate float model.
    multiplier:
        Multiplier (name or paper label) applied to the layer under test;
        every other compute layer keeps the accurate multiplier.
    calibration_data:
        Activation-calibration batch.
    images, labels:
        Evaluation split.
    attack, epsilon:
        Optional attack evaluated on adversarial examples crafted on the
        float model (per the paper's threat model).  When omitted only clean
        accuracy is reported.
    layers:
        Subset of compute-layer names to analyse (default: all of them).
    workers:
        Worker count (threads) for the per-victim accuracy evaluations;
        ``"auto"`` = one per core.  Results are invariant to it.
    """
    all_layers = compute_layer_names(model)
    if not all_layers:
        raise ConfigurationError("the model has no compute layers to approximate")
    selected = list(layers) if layers is not None else all_layers
    unknown = sorted(set(selected) - set(all_layers))
    if unknown:
        raise ConfigurationError(
            f"unknown compute layers {unknown}; available: {all_layers}"
        )

    adversarial = None
    if attack is not None:
        adversarial = attack.generate(model, images, labels, epsilon)

    kind_by_name = {
        layer.name: type(layer).__name__
        for layer in model.layers
        if isinstance(layer, (Conv2D, Dense))
    }
    # one float calibration forward serves every single-layer victim
    schemes = calibrate_activations(model, calibration_data, bits)
    results: List[LayerSensitivity] = []
    for layer_name in selected:
        victim = build_axdnn(
            model,
            ACCURATE_MULTIPLIER,
            calibration_data,
            bits=bits,
            per_layer_multipliers={layer_name: multiplier},
            name=f"ax_{model.name}_only_{layer_name}",
            activation_schemes=schemes,
        )
        clean = victim.accuracy_percent(images, labels, workers=workers)
        attacked = (
            victim.accuracy_percent(adversarial, labels, workers=workers)
            if adversarial is not None
            else None
        )
        results.append(
            LayerSensitivity(
                layer_name=layer_name,
                layer_kind=kind_by_name[layer_name],
                clean_accuracy_percent=clean,
                attacked_accuracy_percent=attacked,
            )
        )
    return results


def most_sensitive_layer(results: Sequence[LayerSensitivity]) -> LayerSensitivity:
    """The layer whose approximation costs the most clean accuracy."""
    if not results:
        raise ConfigurationError("layer sensitivity results are empty")
    return min(results, key=lambda result: result.clean_accuracy_percent)
