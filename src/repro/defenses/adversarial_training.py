"""Adversarial training for the accurate float models.

Every mini-batch is augmented with adversarial examples generated on the
current model state (FGM or PGD, configurable), following the standard
adversarial-training recipe.  The hardened float model can then be quantized
and approximated with :func:`repro.axnn.build_axdnn` exactly like a normally
trained model, which is how the "does adversarial training survive
approximation?" follow-up question can be studied with this package.

The training step runs on the same runtime as :class:`repro.nn.trainer.
Trainer`: workspace-arena buffers, the fused ``value_and_gradient`` loss
path (one shifted-exp pass instead of three, one shared loss object instead
of per-call instances) and the fused flat optimizer step — all bit-identical
to the allocating loop they replace.  Attack crafting runs *outside* the
workspace scope, so the perturbation search never aliases training buffers.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.attacks.fgm import FGMLinf
from repro.errors import ConfigurationError
from repro.nn.engine import (
    FlatParameterView,
    Workspace,
    ensure_training_engine,
    fused_training_step,
)
from repro.nn.losses import CrossEntropyLoss, Loss
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Optimizer
from repro.nn.trainer import TrainingHistory


class AdversarialTrainer:
    """Mini-batch adversarial training.

    Parameters
    ----------
    model:
        The float model to harden (built).
    attack:
        Attack used to craft the training-time adversarial examples
        (default: linf FGM, the fast single-step recipe).
    epsilon:
        Perturbation budget used during training.
    adversarial_ratio:
        Fraction of each batch replaced by adversarial examples (0.5 is the
        classic half-clean / half-adversarial mix).
    """

    def __init__(
        self,
        model: Sequential,
        attack: Optional[Attack] = None,
        epsilon: float = 0.1,
        adversarial_ratio: float = 0.5,
        loss: Optional[Loss] = None,
        optimizer: Optional[Optimizer] = None,
        seed: int = 0,
    ) -> None:
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
        if not 0.0 <= adversarial_ratio <= 1.0:
            raise ConfigurationError(
                f"adversarial_ratio must be in [0, 1], got {adversarial_ratio}"
            )
        self.model = model
        self.attack = attack if attack is not None else FGMLinf()
        self.epsilon = epsilon
        self.adversarial_ratio = adversarial_ratio
        self.loss = loss if loss is not None else CrossEntropyLoss()
        self.optimizer = optimizer if optimizer is not None else SGD(0.01, momentum=0.9)
        self._rng = np.random.default_rng(seed)
        self._arena: Optional[Workspace] = None
        self._flat: Optional[FlatParameterView] = None

    def _augment_batch(
        self, images: np.ndarray, labels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Replace a fraction of the batch with adversarial examples."""
        if self.epsilon == 0 or self.adversarial_ratio == 0:
            return images, labels
        count = int(round(images.shape[0] * self.adversarial_ratio))
        if count == 0:
            return images, labels
        indices = self._rng.choice(images.shape[0], size=count, replace=False)
        # the engine reseeds per crafting call, so stochastic attacks (PGD
        # starts, noise draws) need a fresh seed per minibatch — drawn from
        # the trainer's own RNG to keep the whole run deterministic.
        adversarial = self.attack.generate(
            self.model,
            images[indices],
            labels[indices],
            self.epsilon,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        augmented = images.copy()
        augmented[indices] = adversarial
        return augmented, labels

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 5,
        batch_size: int = 64,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Adversarially train the model; returns the training history."""
        if epochs <= 0:
            raise ConfigurationError(f"epochs must be positive, got {epochs}")
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        history = TrainingHistory()
        n_samples = x.shape[0]
        self._arena, self._flat = ensure_training_engine(
            self.model, self._arena, self._flat
        )
        try:
            for _ in range(epochs):
                order = np.arange(n_samples)
                if shuffle:
                    self._rng.shuffle(order)
                losses = []
                correct = 0
                for start in range(0, n_samples, batch_size):
                    batch_idx = order[start : start + batch_size]
                    # crafting differentiates through the model outside the
                    # workspace scope: gradients it holds across attack
                    # steps must not alias reusable training buffers
                    xb, yb = self._augment_batch(x[batch_idx], y[batch_idx])
                    value, n_correct = fused_training_step(
                        self.model,
                        self.loss,
                        self.optimizer,
                        self._arena,
                        self._flat,
                        xb,
                        yb,
                    )
                    losses.append(value)
                    correct += n_correct
                history.train_loss.append(float(np.mean(losses)))
                history.train_accuracy.append(correct / n_samples)
        finally:
            Workspace.unbind(self.model)
        return history

    def robust_accuracy(
        self, x: np.ndarray, y: np.ndarray, epsilon: Optional[float] = None
    ) -> float:
        """Accuracy of the model on adversarial examples of the given budget."""
        budget = self.epsilon if epsilon is None else epsilon
        adversarial = self.attack.generate(self.model, x, y, budget)
        return accuracy(self.model.predict_classes(adversarial), np.asarray(y))
