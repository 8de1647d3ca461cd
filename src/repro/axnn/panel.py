"""Fused multi-victim evaluation: one shared code matrix feeding every victim.

The paper's robustness figures (Fig. 4-8) evaluate ~9 victim AxDNNs on
*identical* adversarial inputs.  Run naively, every victim pays the full
activation quantization and patch extraction (im2col) of every layer, even
though those stages are pure functions of the layer input and the layer
scheme/geometry — which the victims share wherever their activations have
not yet diverged.

:class:`VictimPanel` walks all victims through the network in lockstep and
maintains a *partition* of the victims into groups whose current activation
is provably identical:

* every victim starts in one group (they all see the same input batch);
* a float passthrough layer wrapping the same underlying layer object
  keeps its group intact and is evaluated once per group;
* an Ax compute layer builds its activation codes **once per distinct
  activation scheme** — quantize the layer input to narrow (uint8 for
  8-bit) codes, then, for a conv, pad with the zero-point code and extract
  patches from the codes, so im2col moves bytes rather than float64s — and
  evaluates the LUT product once per distinct ``(multiplier, weights,
  scheme)``, which is where the victims finally diverge, each continuing in
  its own (sub)group.

Because the partition refines purely on static layer structure, the whole
plan is computed once at construction; per batch only the fused compute
runs.  Every shared stage computes exactly the value the per-victim path
would (``input_codes`` / ``forward_from_codes`` are the same functions
``AxLayer.forward`` composes), so panel outputs are bit-identical to
evaluating each victim independently — the property
``tests/test_victim_panel.py`` asserts against every robustness grid.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.axnn.engine import AxModel
from repro.axnn.layers import AxConv2D, AxDense, PassthroughLayer
from repro.errors import ConfigurationError
from repro.nn.runtime import WorkerSpec, run_sharded, validate_batch_size

#: a group is a tuple of victim indices whose activations are identical
_Group = Tuple[int, ...]


def _same_compute(a, b) -> bool:
    """Whether two Ax layers produce identical outputs from identical codes.

    Kernel strategy is deliberately ignored: all strategies are
    bit-identical, so two layers differing only in kernel still share.
    """
    if a.multiplier is not b.multiplier:
        return False
    if a.activation_scheme != b.activation_scheme:
        return False
    if a.weight_scale != b.weight_scale:
        return False
    if not np.array_equal(a.weight_sign, b.weight_sign):
        return False
    if not np.array_equal(a.weight_magnitude, b.weight_magnitude):
        return False
    if (a.bias is None) != (b.bias is None):
        return False
    return a.bias is None or np.array_equal(a.bias, b.bias)


def _refine(members: _Group, layers, same) -> List[_Group]:
    """Partition ``members`` into runs equivalent under ``same`` (stable)."""
    subgroups: List[List[int]] = []
    reps: List = []
    for member, layer in zip(members, layers):
        for index, rep in enumerate(reps):
            if same(rep, layer):
                subgroups[index].append(member)
                break
        else:
            reps.append(layer)
            subgroups.append([member])
    return [tuple(group) for group in subgroups]


class VictimPanel:
    """A set of victim AxDNNs evaluated together on shared inputs.

    ``victims`` maps victim name to :class:`AxModel`; insertion order is
    preserved everywhere.  All victims must be *lockstep-compatible*: same
    layer count and same per-sample output shape (true for any set built
    from one source model, which is how every figure builds its panel).
    Check :meth:`compatible` first when the victim set is arbitrary.
    """

    def __init__(self, victims: Mapping[str, AxModel]) -> None:
        self.victims: Dict[str, AxModel] = dict(victims)
        if not self.victims:
            raise ConfigurationError("VictimPanel requires at least one victim")
        self._names = list(self.victims)
        self._models = list(self.victims.values())
        if not self.compatible(self._models):
            raise ConfigurationError(
                "panel victims are not lockstep-compatible (layer counts or "
                "output shapes differ); evaluate them individually instead"
            )
        self.output_shape = self._models[0].output_shape
        self._plan = self._build_plan()

    # ------------------------------------------------------------- planning
    @staticmethod
    def compatible(models: Sequence[AxModel]) -> bool:
        """Whether ``models`` can be walked in lockstep."""
        if not models:
            return False
        first = models[0]
        return all(
            len(m.layers) == len(first.layers)
            and m.output_shape == first.output_shape
            for m in models
        )

    def _build_plan(self):
        """Static per-layer fusion plan via partition refinement.

        Each plan entry is a list of steps ``(mode, group, extra)``:

        * ``("shared", group, None)`` — one float passthrough forward for
          the whole group;
        * ``("conv", group, scheme_splits)`` / ``("dense", group,
          scheme_splits)`` — one code matrix (quantize, then for a conv
          patch extraction) per scheme subgroup, one LUT product per
          compute subgroup; ``scheme_splits`` is a list of
          ``(scheme_subgroup, [compute_subgroups...])``;
        * ``("solo", (v,), None)`` — plain per-victim forward.
        """
        models = self._models
        groups: List[_Group] = [tuple(range(len(models)))]
        plan = []
        for layer_index in range(len(models[0].layers)):
            steps = []
            next_groups: List[_Group] = []
            for group in groups:
                layers = [models[v].layers[layer_index] for v in group]
                first = layers[0]
                if isinstance(first, PassthroughLayer) and all(
                    isinstance(l, PassthroughLayer) and l.layer is first.layer
                    for l in layers
                ):
                    steps.append(("shared", group, None))
                    next_groups.append(group)
                    continue
                fused_type = None
                if all(isinstance(l, AxConv2D) for l in layers) and all(
                    l.geometry == first.geometry for l in layers
                ):
                    fused_type = "conv"
                elif all(isinstance(l, AxDense) for l in layers):
                    fused_type = "dense"
                if fused_type is not None:
                    scheme_splits = []
                    for scheme_group in _refine(
                        group,
                        layers,
                        lambda a, b: a.activation_scheme == b.activation_scheme,
                    ):
                        scheme_layers = [
                            models[v].layers[layer_index] for v in scheme_group
                        ]
                        compute_groups = _refine(
                            scheme_group, scheme_layers, _same_compute
                        )
                        scheme_splits.append((scheme_group, compute_groups))
                        next_groups.extend(compute_groups)
                    steps.append((fused_type, group, scheme_splits))
                    continue
                # heterogeneous group (mixed layer kinds / geometries):
                # fall back to per-victim evaluation from here on
                for victim in group:
                    steps.append(("solo", (victim,), None))
                    next_groups.append((victim,))
            plan.append(steps)
            groups = next_groups
        return plan

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Logits for one batch, keyed by victim name (bit-identical to
        running each victim's ``forward`` on ``x``)."""
        x = np.asarray(x, dtype=np.float64)
        models = self._models
        activations: Dict[_Group, np.ndarray] = {
            tuple(range(len(models))): x
        }
        for layer_index, steps in enumerate(self._plan):
            layers = [model.layers[layer_index] for model in models]
            next_activations: Dict[_Group, np.ndarray] = {}
            for mode, group, extra in steps:
                value = activations[group]
                if mode == "shared" or mode == "solo":
                    next_activations[group] = layers[group[0]].forward(value)
                    continue
                # conv / dense: codes once per scheme subgroup, then one
                # product per compute subgroup
                for scheme_group, compute_groups in extra:
                    codes = layers[scheme_group[0]].input_codes(value)
                    for compute_group in compute_groups:
                        next_activations[compute_group] = layers[
                            compute_group[0]
                        ].forward_from_codes(codes)
            activations = next_activations
        by_victim: Dict[str, np.ndarray] = {}
        for group, value in activations.items():
            for victim in group:
                by_victim[self._names[victim]] = value
        return {name: by_victim[name] for name in self._names}

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Panel logits stacked to ``(batch, n_victims, *output_shape)`` so
        the sharded runtime can concatenate shard results along axis 0."""
        outputs = self.forward(x)
        return np.stack([outputs[name] for name in self._names], axis=1)

    def predict(
        self, x: np.ndarray, batch_size: int = 64, workers: WorkerSpec = None
    ) -> Dict[str, np.ndarray]:
        """Batched panel inference returning logits per victim.

        Same sharding contract as :meth:`AxModel.predict`: gradient-free,
        batch slicing independent of the worker count, results
        bit-identical for every ``workers`` value.
        """
        validate_batch_size(batch_size)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            empty = np.zeros((0,) + self.output_shape, dtype=np.float64)
            return {name: empty.copy() for name in self._names}
        stacked = run_sharded(self._forward_stacked, x, batch_size, workers=workers)
        return {
            name: stacked[:, index]
            for index, name in enumerate(self._names)
        }

    def predict_classes(
        self, x: np.ndarray, batch_size: int = 64, workers: WorkerSpec = None
    ) -> Dict[str, np.ndarray]:
        """Predicted class labels per victim."""
        logits = self.predict(x, batch_size=batch_size, workers=workers)
        return {name: np.argmax(value, axis=-1) for name, value in logits.items()}

    # ------------------------------------------------------------ reporting
    def fusion_report(self) -> List[str]:
        """One line per layer describing how much work the panel shares."""
        lines = []
        n = len(self._models)
        for layer_index, steps in enumerate(self._plan):
            parts = []
            for mode, group, extra in steps:
                if mode in ("shared", "solo"):
                    parts.append(f"{mode}x{len(group)}")
                else:
                    quantizations = len(extra)
                    products = sum(len(cg) for _, cg in extra)
                    stages = f"{quantizations} extract, " if mode == "conv" else ""
                    parts.append(
                        f"{mode}[{len(group)} victims, {stages}"
                        f"{quantizations} quantize, {products} products]"
                    )
            name = self._models[0].layers[layer_index].name
            lines.append(f"{name}: {' + '.join(parts)}")
        lines.append(f"panel: {n} victims, {len(self._plan)} layers")
        return lines

    def __len__(self) -> int:
        return len(self._models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VictimPanel(victims={self._names!r})"
