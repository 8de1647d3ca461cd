"""Algorithm 1 of the paper: percentage-robustness evaluation.

The evaluation pipeline is exactly the paper's:

1. adversarial examples are generated on the *source* model (the accurate
   float DNN with accurate multipliers) for every perturbation budget;
2. each victim model (the 8-bit quantized accurate DNN or an AxDNN) is
   evaluated on those adversarial examples;
3. the percentage robustness for a budget is the share of samples the victim
   still classifies correctly, ``(1 - adv / |D|) * 100`` (Algorithm 1,
   line 15).

Adversarial example generation is the expensive part and is independent of
the victim, so :class:`AdversarialSuite` materialises the examples once per
(attack, epsilon) and every victim re-uses them.  Generation runs through
:class:`repro.attacks.engine.AttackEngine`: the whole budget sweep is
crafted in one amortised pass (epsilon-independent gradients and noise
draws are shared across budgets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.engine import AttackEngine
from repro.errors import ConfigurationError
from repro.nn.metrics import accuracy_percent
from repro.nn.model import Sequential
from repro.nn.runtime import WorkerSpec, call_with_workers


@dataclass(frozen=True)
class RobustnessResult:
    """Robustness of one victim under one attack at one perturbation budget."""

    victim: str
    attack: str
    epsilon: float
    robustness_percent: float
    n_samples: int


@dataclass
class AdversarialSuite:
    """Adversarial examples for one attack over a sweep of budgets."""

    attack_key: str
    epsilons: List[float]
    images: np.ndarray
    labels: np.ndarray
    adversarial: Dict[float, np.ndarray] = field(default_factory=dict)

    @classmethod
    def generate(
        cls,
        source_model: Sequential,
        attack: Attack,
        images: np.ndarray,
        labels: np.ndarray,
        epsilons: Sequence[float],
        engine: Optional[AttackEngine] = None,
        seed: int = None,
    ) -> "AdversarialSuite":
        """Craft adversarial examples on the source model for every budget.

        The full sweep runs in one :meth:`AttackEngine.generate_sweep` pass:
        bit-identical to one ``generate`` call per budget, but shared work
        (single-step gradients, noise draws) is paid once.  Pass a
        pre-configured ``engine`` to override the shard size.
        ``seed`` overrides the attack's own seed for this crafting pass —
        the declarative experiment API threads its experiment seed through
        here so identical specs always produce identical cached artifacts.
        """
        if len(epsilons) == 0:
            raise ConfigurationError("epsilons must contain at least one budget")
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        suite = cls(
            attack_key=attack.key(),
            epsilons=[float(eps) for eps in epsilons],
            images=images,
            labels=labels,
        )
        if engine is None:
            engine = AttackEngine(source_model)
        suite.adversarial.update(
            engine.generate_sweep(attack, images, labels, suite.epsilons, seed=seed)
        )
        return suite

    def evaluate(
        self, victim, victim_name: str, workers: WorkerSpec = None
    ) -> List[RobustnessResult]:
        """Percentage robustness of a victim model for every budget.

        ``victim`` is any object exposing ``predict_classes(images)`` — both
        :class:`repro.nn.Sequential` (float models) and
        :class:`repro.axnn.AxModel` qualify.  ``workers`` shards the victim's
        prediction batches across threads when the victim supports it
        (results are invariant to the worker count); victims without a
        ``workers`` parameter are called unchanged.
        """
        results = []
        for epsilon in self.epsilons:
            adversarial = self.adversarial[epsilon]
            predictions = call_with_workers(
                victim.predict_classes, adversarial, workers=workers
            )
            robustness = accuracy_percent(predictions, self.labels)
            results.append(
                RobustnessResult(
                    victim=victim_name,
                    attack=self.attack_key,
                    epsilon=epsilon,
                    robustness_percent=robustness,
                    n_samples=int(self.labels.shape[0]),
                )
            )
        return results


    def evaluate_panel(
        self, panel, workers: WorkerSpec = None
    ) -> Dict[str, List[RobustnessResult]]:
        """Percentage robustness of a fused victim panel for every budget.

        ``panel`` is a :class:`repro.axnn.panel.VictimPanel` (or anything
        whose ``predict_classes`` returns a dict of per-victim labels).
        One fused pass per budget replaces one full pass per victim — the
        shared im2col/quantization work of each batch is paid once for the
        whole panel — and the per-victim results are bit-identical to
        calling :meth:`evaluate` on each victim separately.
        """
        results: Dict[str, List[RobustnessResult]] = {}
        for epsilon in self.epsilons:
            adversarial = self.adversarial[epsilon]
            predictions = call_with_workers(
                panel.predict_classes, adversarial, workers=workers
            )
            for name, predicted in predictions.items():
                results.setdefault(name, []).append(
                    RobustnessResult(
                        victim=name,
                        attack=self.attack_key,
                        epsilon=epsilon,
                        robustness_percent=accuracy_percent(predicted, self.labels),
                        n_samples=int(self.labels.shape[0]),
                    )
                )
        return results


def evaluate_robustness(
    source_model: Sequential,
    victim,
    attack: Attack,
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    victim_name: str = "victim",
    workers: WorkerSpec = None,
) -> List[RobustnessResult]:
    """One-shot convenience wrapper: generate the suite and evaluate one victim."""
    suite = AdversarialSuite.generate(source_model, attack, images, labels, epsilons)
    return suite.evaluate(victim, victim_name, workers=workers)


def accuracy_loss(results: Sequence[RobustnessResult]) -> Dict[float, float]:
    """Accuracy loss (vs the eps=0 row) per budget, as reported in the paper."""
    by_eps = {result.epsilon: result.robustness_percent for result in results}
    if 0.0 not in by_eps:
        raise ConfigurationError("accuracy_loss requires an epsilon = 0 baseline row")
    baseline = by_eps[0.0]
    return {eps: baseline - value for eps, value in sorted(by_eps.items())}
