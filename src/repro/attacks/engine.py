"""Unified batched attack runtime: epsilon-sweep amortization, in-process.

The paper's pipeline (Algorithm 1) crafts every adversarial example on the
source model before any victim is evaluated, so attack generation is on the
critical path of every cold figure sweep.  :class:`AttackEngine` owns the
whole crafting loop — input validation, RNG seeding, the epsilon sweep,
final clipping — and drives the declarative hooks attacks describe
themselves with (see :class:`repro.attacks.base.Attack`).

**Sweep amortization.**  :meth:`AttackEngine.generate_sweep` crafts every
budget of a sweep in one pass.  Epsilon-independent work runs once and is
shared: single-gradient attacks (the FGM family) evaluate the input
gradient exactly once and scale it per budget; BIM's first step (taken at
the clean images for every budget) shares one gradient; decision noise
attacks draw each repeat's unit-scale noise once for all budgets; contrast
reduction computes its perturbation direction once.  Iterative trajectories
that diverge per budget (PGD after the random start, BIM from step two,
DeepFool) still run per budget — exactly the work a per-epsilon loop would
do, never more.

**Why crafting runs in the calling process.**  Shards run one after
another on the caller's model object.  Crafting is gradient-bound, and its
large GEMMs already run on every core through the multi-threaded BLAS, so
extra workers mostly compete with it.  Measured on the Fig. 4a craft
(LeNet-5, BIM-linf, 60 samples x 10 budgets, two 32-sample shards; a
2-core x86-64 VM, OpenBLAS on 2 threads; median of three fresh
processes), the stage took 2.9 s serially, 3.8 s on two thread replicas
of the model and 5.6 s on two spawn-started worker processes, most of
which was interpreter start-up.

Reproducibility contract: results are bit-identical between per-budget
:meth:`generate` calls and one :meth:`generate_sweep`, and across repeated
calls with equal inputs.  The shard decomposition depends only on
``(n_samples, shard_size)``, and each shard's RNG is spawned from a root
:class:`numpy.random.SeedSequence` keyed by the attack's seed, so shard *i*
always sees the same stream, and hooks consume it only in
epsilon-independent positions.  ``shard_size`` is therefore part of a
seeded attack's semantics.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.attacks.base import (
    PIXEL_MAX,
    PIXEL_MIN,
    Attack,
    AttackContext,
)
from repro.errors import ConfigurationError
from repro.nn.model import Sequential
from repro.nn.runtime import batch_slices, validate_batch_size

#: samples per shard; with the attack's seed it fixes every shard's RNG stream
DEFAULT_SHARD_SIZE = 32


def resolve_backend(backend: str = None) -> str:
    """Exists only for the benchmark harness; goes in its next change.

    The harness records the value in its runtime line.  Crafting has one
    backend, in-process, so this is always ``"serial"``.
    """
    return "serial"


def _sweep_shard(
    attack: Attack,
    model: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    epsilons: Sequence[float],
    seed_seq: np.random.SeedSequence,
) -> Dict[float, np.ndarray]:
    """Craft every budget for one shard of the batch (the engine's core loop)."""
    ctx = AttackContext(
        model=model,
        images=images,
        labels=labels,
        rng=np.random.default_rng(seed_seq),
        loss=attack._loss,
    )
    out: Dict[float, np.ndarray] = {}
    positive: List[float] = []
    for epsilon in epsilons:
        if epsilon == 0.0:
            out[0.0] = images.copy()
        elif epsilon not in positive:
            positive.append(epsilon)
    if positive:
        prep = attack.prepare(ctx)
        states = [attack.init(ctx, prep, epsilon) for epsilon in positive]
        for step in range(attack.num_steps()):
            active = [state for state in states if not state.done]
            if not active:
                break
            payload = attack.step_payload(ctx, prep, step)
            for state in active:
                attack.perturb(ctx, state, prep, payload)
                state.step += 1
        for state in states:
            out[state.epsilon] = np.clip(state.adversarial, PIXEL_MIN, PIXEL_MAX)
    return out


class AttackEngine:
    """Batched attack runtime bound to one source model.

    Parameters
    ----------
    model:
        The source model adversarial examples are crafted on (the accurate
        float DNN, per the paper's threat model).
    shard_size:
        Samples per shard; shards run in order in the calling process.
        Part of the attack semantics for seeded attacks (each shard draws
        from its own spawned stream), so it is fixed by configuration.
    """

    def __init__(self, model: Sequential, shard_size: int = None) -> None:
        self.model = model
        self.shard_size = validate_batch_size(
            DEFAULT_SHARD_SIZE if shard_size is None else shard_size
        )

    # ------------------------------------------------------------------ API
    def generate(
        self,
        attack: Attack,
        images: np.ndarray,
        labels: np.ndarray,
        epsilon: float,
        seed: int = None,
    ) -> np.ndarray:
        """Craft adversarial examples for a single perturbation budget."""
        sweep = self.generate_sweep(attack, images, labels, [epsilon], seed=seed)
        return sweep[float(epsilon)]

    def generate_sweep(
        self,
        attack: Attack,
        images: np.ndarray,
        labels: np.ndarray,
        epsilons: Sequence[float],
        seed: int = None,
    ) -> Dict[float, np.ndarray]:
        """Craft adversarial examples for every budget in one amortised pass.

        ``seed`` overrides the attack's own seed for this call only.  The
        engine reseeds per call (regeneration with equal inputs is
        bit-identical), so callers that *want* fresh randomness per call —
        adversarial training drawing new PGD starts every minibatch — must
        supply a varying seed.
        """
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.shape[0] != labels.shape[0]:
            raise ConfigurationError(
                f"images and labels disagree on sample count: {images.shape[0]} vs "
                f"{labels.shape[0]}"
            )
        epsilons = [float(epsilon) for epsilon in epsilons]
        if not epsilons:
            raise ConfigurationError("epsilons must contain at least one budget")
        for epsilon in epsilons:
            if epsilon < 0:
                raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
        if images.shape[0] == 0:
            # a well-formed empty result per budget, with no gradient or RNG
            # work (mirrors the empty-input validation on predict)
            return {epsilon: images.copy() for epsilon in epsilons}

        slices = batch_slices(images.shape[0], self.shard_size)
        if seed is None:
            seed = attack.seed
        root = np.random.SeedSequence(0 if seed is None else seed)
        shard_results = [
            _sweep_shard(
                attack, self.model, images[shard], labels[shard], epsilons, stream
            )
            for shard, stream in zip(slices, root.spawn(len(slices)))
        ]
        return {
            epsilon: np.concatenate(
                [result[epsilon] for result in shard_results], axis=0
            )
            for epsilon in epsilons
        }
