"""Multiplier x perturbation-budget robustness sweeps (the paper's heat-maps).

Each of the paper's Figures 4-7 is a grid with perturbation budgets on the
rows and multipliers (M1..M9 or the AlexNet set) on the columns, holding the
percentage robustness of the corresponding AxDNN.  :func:`multiplier_sweep`
produces exactly that grid for one attack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.axnn.engine import AxModel, build_axdnn, calibrate_activations
from repro.errors import ConfigurationError
from repro.nn.model import Sequential
from repro.nn.runtime import WorkerSpec
from repro.robustness.evaluator import AdversarialSuite


@dataclass
class RobustnessGrid:
    """A (budgets x victims) grid of percentage robustness values."""

    attack_key: str
    dataset_name: str
    epsilons: List[float]
    victim_labels: List[str]
    values: np.ndarray  # shape (len(epsilons), len(victim_labels))
    metadata: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (len(self.epsilons), len(self.victim_labels))
        if self.values.shape != expected:
            raise ConfigurationError(
                f"grid values have shape {self.values.shape}, expected {expected}"
            )

    # -------------------------------------------------------------- access
    def column(self, victim_label: str) -> np.ndarray:
        """Robustness of one victim across all budgets."""
        index = self.victim_labels.index(victim_label)
        return self.values[:, index]

    def row(self, epsilon: float) -> np.ndarray:
        """Robustness of every victim at one budget."""
        index = self.epsilons.index(epsilon)
        return self.values[index, :]

    def baseline_row(self) -> np.ndarray:
        """The eps = 0 row (clean accuracies)."""
        return self.row(0.0) if 0.0 in self.epsilons else self.values[0, :]

    def accuracy_loss(self) -> np.ndarray:
        """Accuracy loss relative to the eps = 0 row, same shape as values."""
        return self.baseline_row()[None, :] - self.values

    def to_dict(self) -> dict:
        """JSON-friendly representation."""
        return {
            "attack": self.attack_key,
            "dataset": self.dataset_name,
            "epsilons": list(self.epsilons),
            "victims": list(self.victim_labels),
            "values": self.values.tolist(),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RobustnessGrid":
        """Inverse of :meth:`to_dict`."""
        return cls(
            attack_key=payload["attack"],
            dataset_name=payload["dataset"],
            epsilons=[float(eps) for eps in payload["epsilons"]],
            victim_labels=list(payload["victims"]),
            values=np.asarray(payload["values"], dtype=np.float64),
            metadata=dict(payload.get("metadata", {})),
        )


def build_victims(
    model: Sequential,
    multiplier_labels: Sequence[str],
    calibration_data: np.ndarray,
    bits: int = 8,
    convolution_only: bool = False,
    kernel: str = "auto",
    on_build: Optional[Callable[[str], None]] = None,
) -> Dict[str, AxModel]:
    """Build one AxDNN per multiplier label (M1..M9 / A1..A8 / library names).

    The float calibration forward runs once for the whole set: every victim
    shares one set of activation schemes, so each is bit-identical to a
    :func:`build_axdnn` call of its own.  ``on_build(label)`` is called just
    before each victim is built (progress reporting).
    """
    schemes = calibrate_activations(model, calibration_data, bits)
    victims: Dict[str, AxModel] = {}
    for label in multiplier_labels:
        if on_build is not None:
            on_build(label)
        victims[label] = build_axdnn(
            model,
            label,
            calibration_data,
            bits=bits,
            convolution_only=convolution_only,
            name=f"ax_{model.name}_{label}",
            kernel=kernel,
            activation_schemes=schemes,
        )
    return victims


def _panel_or_none(victims: Dict[str, "AxModel"], fused: Optional[bool]):
    """Build a fused :class:`VictimPanel` when requested/possible.

    ``fused=None`` (auto) fuses whenever there are at least two
    lockstep-compatible AxModels — exactly the panels the figures build
    from one source model.  ``fused=True`` requires compatibility (raising
    otherwise); ``fused=False`` always evaluates per victim.
    """
    if fused is False or (fused is None and len(victims) < 2):
        return None
    from repro.axnn.panel import VictimPanel

    models = list(victims.values())
    eligible = all(isinstance(model, AxModel) for model in models) and (
        VictimPanel.compatible(models)
    )
    if not eligible:
        if fused:
            raise ConfigurationError(
                "fused=True requires lockstep-compatible AxModel victims"
            )
        return None
    return VictimPanel(victims)


def grid_from_suite(
    suite: AdversarialSuite,
    victims: Dict[str, "AxModel"],
    dataset_name: str = "dataset",
    source_name: str = "source",
    workers: WorkerSpec = "auto",
    fused: Optional[bool] = None,
) -> RobustnessGrid:
    """Robustness grid of every victim on a pre-generated adversarial suite.

    This is the evaluation half of :func:`multiplier_sweep`: the expensive
    crafting step is already done (or was served from the artifact store —
    see :mod:`repro.experiments`), so only victim inference is paid here.
    Victim evaluation shards prediction batches across worker *threads*; the
    grid is bit-identical for every worker count.

    ``fused`` controls the multi-victim fusion (see :func:`_panel_or_none`):
    by default panels of two or more compatible AxDNNs are evaluated in one
    fused pass per budget, sharing each batch's im2col and quantization
    across victims.  The fused grid is bit-identical to per-victim
    evaluation — fusion only removes recomputation of identical values.
    """
    if not victims:
        raise ConfigurationError("at least one victim AxDNN is required")
    victim_labels = list(victims)
    values = np.zeros((len(suite.epsilons), len(victim_labels)), dtype=np.float64)
    panel = _panel_or_none(victims, fused)
    if panel is not None:
        panel_results = suite.evaluate_panel(panel, workers=workers)
        for column, label in enumerate(victim_labels):
            for row, result in enumerate(panel_results[label]):
                values[row, column] = result.robustness_percent
    else:
        for column, label in enumerate(victim_labels):
            results = suite.evaluate(victims[label], label, workers=workers)
            for row, result in enumerate(results):
                values[row, column] = result.robustness_percent
    return RobustnessGrid(
        attack_key=suite.attack_key,
        dataset_name=dataset_name,
        epsilons=list(suite.epsilons),
        victim_labels=victim_labels,
        values=values,
        metadata={
            "source_model": source_name,
            "n_samples": str(suite.labels.shape[0]),
        },
    )


def multiplier_sweep(
    source_model: Sequential,
    victims: Dict[str, AxModel],
    attack: Attack,
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    dataset_name: str = "dataset",
    workers: WorkerSpec = "auto",
    seed: int = None,
    fused: Optional[bool] = None,
) -> RobustnessGrid:
    """Robustness grid of every victim under one attack over a budget sweep.

    Adversarial examples are generated once on the source model and shared by
    all victims, exactly as in Algorithm 1 (the adversary never sees the
    approximate inference engine).  Generation runs the whole budget sweep
    in one amortised engine pass; victim evaluation shards prediction
    batches across ``workers`` threads (default one per core), and the grid
    is bit-identical for every worker count.  ``seed`` overrides the
    attack's own crafting seed (the hook the declarative experiment API
    uses for artifact determinism).
    """
    if not victims:
        raise ConfigurationError("at least one victim AxDNN is required")
    suite = AdversarialSuite.generate(
        source_model, attack, images, labels, epsilons, seed=seed
    )
    return grid_from_suite(
        suite,
        victims,
        dataset_name=dataset_name,
        source_name=source_model.name,
        workers=workers,
        fused=fused,
    )


def attack_panel(
    source_model: Sequential,
    victims: Dict[str, AxModel],
    attacks: Sequence[Attack],
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    dataset_name: str = "dataset",
    workers: WorkerSpec = "auto",
) -> List[RobustnessGrid]:
    """One grid per attack — a full figure panel (e.g. Fig. 4a-d)."""
    return [
        multiplier_sweep(
            source_model,
            victims,
            attack,
            images,
            labels,
            epsilons,
            dataset_name,
            workers=workers,
        )
        for attack in attacks
    ]
