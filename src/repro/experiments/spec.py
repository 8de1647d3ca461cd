"""Declarative experiment specifications.

Every runnable unit of the reproduction — a figure panel, the Fig. 8
quantization study, a Table II transferability table — is described by a
frozen :class:`ExperimentSpec` tree:

``ModelSpec``
    Which architecture is trained on which synthetic dataset, with which
    training budget and seed.
``VictimSpec``
    Which multipliers become AxDNN victims, at what bit width, with which
    kernel strategy and calibration-batch size.
``AttackSpec``
    One attack-registry entry plus its construction parameters.
``SweepSpec``
    The perturbation budgets and the evaluated test-sample count.
``ExperimentSpec``
    The whole experiment: a model, a victim set, one or more attacks and a
    sweep, plus the experiment ``kind`` (``"panel"``, ``"quantization"`` or
    ``"transfer"``).

Specs are *data*: they serialise to canonical JSON (sorted keys, no
whitespace) and every node has a stable SHA-256 content hash.  The hash is
the key of the content-addressed artifact store
(:mod:`repro.experiments.store`) — two specs that hash equal are guaranteed
to describe the same computation, so their artifacts (trained weights,
adversarial suites, finished grids) are interchangeable.  Anything that does
*not* change results — worker counts, attack backends, progress callbacks —
is deliberately kept out of the spec and therefore out of the hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError, SpecValidationError
from repro.version import __version__

#: version of the spec wire format; bump when the JSON layout changes
SPEC_SCHEMA_VERSION = 1

#: architectures the model zoo can build
ARCHITECTURES = ("ffnn", "lenet5", "alexnet")

#: synthetic dataset families
DATASETS = ("mnist", "cifar10")

#: experiment kinds understood by :class:`repro.experiments.session.Session`
EXPERIMENT_KINDS = ("panel", "quantization", "transfer")

_DATASET_ALIASES = {
    "mnist": "mnist",
    "synthetic-mnist": "mnist",
    "cifar10": "cifar10",
    "cifar-10": "cifar10",
    "synthetic-cifar10": "cifar10",
}


def canonical_json(payload: Any) -> str:
    """Canonical JSON text: sorted keys, minimal separators, no NaN."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def content_hash(payload: Any, kind: str) -> str:
    """Stable SHA-256 digest of a JSON payload, namespaced by node kind.

    The digest is salted with the package version: an artifact is only
    valid for the code that produced it, so releases that change numerical
    behaviour must bump ``repro.version.__version__`` to invalidate stale
    stores (CI additionally scopes its shared store to the source tree —
    see ``.github/workflows/ci.yml``).
    """
    body = canonical_json(
        {
            "kind": kind,
            "schema": SPEC_SCHEMA_VERSION,
            "code": __version__,
            "payload": payload,
        }
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _require_positive_int(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SpecValidationError(
            f"{name} must be a positive int, got {value!r}", path=name
        )


def _require_int(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(f"{name} must be an int, got {value!r}", path=name)


def _reject_unknown_keys(cls, payload: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecValidationError(
            f"unknown {cls.__name__} field(s) {unknown}; known fields: {sorted(known)}",
            path=unknown[0],
        )


@contextmanager
def _spec_scope(prefix: str):
    """Re-anchor validation failures inside a nested spec under ``prefix``.

    Any :class:`SpecValidationError` escaping the block gets ``prefix``
    prepended to its field path; a plain :class:`ConfigurationError` is
    upgraded to a :class:`SpecValidationError` anchored *at* ``prefix`` —
    so every failure surfacing from :meth:`ExperimentSpec.from_dict` names
    the exact offending field (``"model.n_train"``, ``"attacks[1].attack"``).
    """
    try:
        yield
    except SpecValidationError as exc:
        raise exc.at(prefix) from None
    except ConfigurationError as exc:
        raise SpecValidationError(str(exc), path=prefix) from exc


class _SpecNode:
    """Shared canonical-JSON / content-hash behaviour of every spec node."""

    _hash_kind = "spec"

    def to_dict(self) -> dict:
        raise NotImplementedError

    def canonical_json(self) -> str:
        """The node as canonical JSON text."""
        return canonical_json(self.to_dict())

    def content_hash(self) -> str:
        """Stable SHA-256 content hash of this node."""
        return content_hash(self.to_dict(), self._hash_kind)


@dataclass(frozen=True)
class ModelSpec(_SpecNode):
    """A trained accurate source model: architecture, dataset and budget."""

    architecture: str = "lenet5"
    dataset: str = "mnist"
    n_train: int = 1500
    n_test: int = 300
    epochs: int = 4
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    _hash_kind = "model"

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise SpecValidationError(
                f"unknown architecture {self.architecture!r}; "
                f"known: {list(ARCHITECTURES)}",
                path="architecture",
            )
        normalized = _DATASET_ALIASES.get(str(self.dataset).lower())
        if normalized is None:
            raise SpecValidationError(
                f"unknown dataset {self.dataset!r}; known: {list(DATASETS)}",
                path="dataset",
            )
        object.__setattr__(self, "dataset", normalized)
        _require_positive_int("n_train", self.n_train)
        _require_positive_int("n_test", self.n_test)
        _require_positive_int("epochs", self.epochs)
        _require_positive_int("batch_size", self.batch_size)
        _require_int("seed", self.seed)
        if not isinstance(self.learning_rate, (int, float)) or self.learning_rate <= 0:
            raise SpecValidationError(
                f"learning_rate must be positive, got {self.learning_rate!r}",
                path="learning_rate",
            )
        object.__setattr__(self, "learning_rate", float(self.learning_rate))

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "dataset": self.dataset,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ModelSpec":
        _reject_unknown_keys(cls, payload)
        return cls(**payload)


@dataclass(frozen=True)
class VictimSpec(_SpecNode):
    """The AxDNN victim set built from the source model."""

    multipliers: Tuple[str, ...] = ("M1",)
    bits: int = 8
    convolution_only: bool = False
    kernel: str = "auto"
    calibration_samples: int = 128

    _hash_kind = "victims"

    def __post_init__(self) -> None:
        # the library imports are deferred to avoid a module-import cycle
        from repro.axnn.kernels import normalize_strategy
        from repro.errors import UnknownComponentError
        from repro.multipliers.library import resolve_name

        multipliers = tuple(str(label) for label in self.multipliers)
        if not multipliers:
            raise SpecValidationError(
                "victims require at least one multiplier label", path="multipliers"
            )
        for index, label in enumerate(multipliers):
            try:
                resolve_name(label)
            except UnknownComponentError as exc:
                raise SpecValidationError(
                    f"unknown multiplier label {label!r}: {exc}",
                    path=f"multipliers[{index}]",
                ) from exc
        object.__setattr__(self, "multipliers", multipliers)
        _require_positive_int("bits", self.bits)
        _require_positive_int("calibration_samples", self.calibration_samples)
        if not isinstance(self.convolution_only, bool):
            raise SpecValidationError(
                f"convolution_only must be a bool, got {self.convolution_only!r}",
                path="convolution_only",
            )
        if not isinstance(self.kernel, str) or not self.kernel:
            raise SpecValidationError(
                f"kernel must be a non-empty str, got {self.kernel!r}", path="kernel"
            )
        # aliases of one strategy compute the same thing, so they must hash
        # (and share store entries) as its canonical name
        try:
            kernel = normalize_strategy(self.kernel)
        except ConfigurationError as exc:
            raise SpecValidationError(str(exc), path="kernel") from exc
        object.__setattr__(self, "kernel", kernel)

    def to_dict(self) -> dict:
        return {
            "multipliers": list(self.multipliers),
            "bits": self.bits,
            "convolution_only": self.convolution_only,
            "kernel": self.kernel,
            "calibration_samples": self.calibration_samples,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "VictimSpec":
        _reject_unknown_keys(cls, payload)
        payload = dict(payload)
        if "multipliers" in payload:
            payload["multipliers"] = tuple(payload["multipliers"])
        return cls(**payload)


@dataclass(frozen=True)
class AttackSpec(_SpecNode):
    """One attack-registry entry plus its construction parameters."""

    attack: str = "FGM_linf"
    params: Tuple[Tuple[str, Any], ...] = ()

    _hash_kind = "attack"

    def __post_init__(self) -> None:
        # the registry import is deferred to avoid a module-import cycle
        from repro.attacks import available_attacks

        if self.attack not in available_attacks():
            raise SpecValidationError(
                f"unknown attack {self.attack!r}; known: {available_attacks()}",
                path="attack",
            )
        try:
            params = tuple(sorted((str(k), v) for k, v in dict(self.params).items()))
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"attack params must be a mapping or key/value pairs, got "
                f"{self.params!r}",
                path="params",
            ) from None
        object.__setattr__(self, "params", params)

    @classmethod
    def create(cls, attack: str, **params: Any) -> "AttackSpec":
        """Build an :class:`AttackSpec` from keyword parameters."""
        return cls(attack=attack, params=tuple(sorted(params.items())))

    def build(self):
        """Instantiate the attack from the registry."""
        from repro.attacks import get_attack

        return get_attack(self.attack, **dict(self.params))

    def to_dict(self) -> dict:
        return {"attack": self.attack, "params": {k: v for k, v in self.params}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AttackSpec":
        _reject_unknown_keys(cls, payload)
        return cls.create(payload.get("attack", "FGM_linf"), **payload.get("params", {}))


@dataclass(frozen=True)
class SweepSpec(_SpecNode):
    """The perturbation budgets and the evaluated sample count."""

    epsilons: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0, 1.5, 2.0)
    n_samples: int = 60

    _hash_kind = "sweep"

    def __post_init__(self) -> None:
        try:
            epsilons = tuple(float(eps) for eps in self.epsilons)
        except (TypeError, ValueError):
            raise SpecValidationError(
                f"epsilons must be a sequence of numbers, got {self.epsilons!r}",
                path="epsilons",
            ) from None
        if not epsilons:
            raise SpecValidationError(
                "sweep requires at least one epsilon", path="epsilons"
            )
        if any(eps < 0 for eps in epsilons):
            raise SpecValidationError(
                f"epsilons must be >= 0, got {list(epsilons)}", path="epsilons"
            )
        if len(set(epsilons)) != len(epsilons):
            raise SpecValidationError(
                f"epsilons contain duplicates: {list(epsilons)}", path="epsilons"
            )
        object.__setattr__(self, "epsilons", epsilons)
        _require_positive_int("n_samples", self.n_samples)

    def to_dict(self) -> dict:
        return {"epsilons": list(self.epsilons), "n_samples": self.n_samples}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepSpec":
        _reject_unknown_keys(cls, payload)
        payload = dict(payload)
        if "epsilons" in payload:
            payload["epsilons"] = tuple(payload["epsilons"])
        return cls(**payload)


@dataclass(frozen=True)
class ExperimentSpec(_SpecNode):
    """A whole experiment: model, victims, attacks and sweep.

    ``kind`` selects how the :class:`repro.experiments.session.Session`
    interprets the spec:

    ``"panel"``
        One :class:`repro.robustness.RobustnessGrid` per attack — the
        Fig. 1 and Fig. 4-7 shape.
    ``"quantization"``
        The Fig. 8 float-vs-quantized study over every attack; the victim
        set is ignored except for ``bits`` and ``calibration_samples``.
    ``"transfer"``
        A Table II transferability table.  ``transfer_sources`` lists the
        additional source architectures (trained on the same dataset), the
        first victim multiplier is applied to every source, and the sweep
        must hold exactly one non-zero budget.
    """

    name: str = "experiment"
    model: ModelSpec = field(default_factory=ModelSpec)
    victims: VictimSpec = field(default_factory=VictimSpec)
    attacks: Tuple[AttackSpec, ...] = (AttackSpec(),)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    kind: str = "panel"
    transfer_sources: Tuple[ModelSpec, ...] = ()
    seed: int = 0

    _hash_kind = "experiment"

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name.strip():
            raise SpecValidationError(
                "experiment name must be a non-empty string", path="name"
            )
        if self.kind not in EXPERIMENT_KINDS:
            raise SpecValidationError(
                f"unknown experiment kind {self.kind!r}; known: {list(EXPERIMENT_KINDS)}",
                path="kind",
            )
        attacks = tuple(self.attacks)
        if not attacks:
            raise SpecValidationError(
                "experiment requires at least one attack", path="attacks"
            )
        if not all(isinstance(attack, AttackSpec) for attack in attacks):
            raise SpecValidationError(
                "attacks must be AttackSpec instances", path="attacks"
            )
        object.__setattr__(self, "attacks", attacks)
        sources = tuple(self.transfer_sources)
        object.__setattr__(self, "transfer_sources", sources)
        _require_int("seed", self.seed)
        if self.kind == "transfer":
            if len(attacks) != 1:
                raise SpecValidationError(
                    "transfer experiments take exactly one attack, got "
                    f"{len(attacks)}",
                    path="attacks",
                )
            if len(self.sweep.epsilons) != 1:
                raise SpecValidationError(
                    "transfer experiments take exactly one epsilon, got "
                    f"{list(self.sweep.epsilons)}",
                    path="sweep.epsilons",
                )
            for index, source in enumerate(sources):
                if not isinstance(source, ModelSpec):
                    raise SpecValidationError(
                        "transfer_sources must be ModelSpec instances",
                        path=f"transfer_sources[{index}]",
                    )
                if source.dataset != self.model.dataset:
                    raise SpecValidationError(
                        "every transfer source must share the primary model's "
                        f"dataset ({self.model.dataset!r}), got {source.dataset!r}",
                        path=f"transfer_sources[{index}].dataset",
                    )
                if source.n_test != self.model.n_test or source.seed != self.model.seed:
                    raise SpecValidationError(
                        "transfer sources must share the primary model's "
                        "n_test and seed so every source crafts on the same "
                        "test split",
                        path=f"transfer_sources[{index}]",
                    )
        elif sources:
            raise SpecValidationError(
                "transfer_sources are only valid for kind='transfer'",
                path="transfer_sources",
            )

    # ----------------------------------------------------------------- hash
    def content_hash(self) -> str:
        """Content hash of the *computation* the spec describes.

        ``name`` is presentation metadata — two specs that differ only in
        name describe the same computation and share artifacts, so the name
        is excluded from the hash.
        """
        payload = self.to_dict()
        payload.pop("name")
        return content_hash(payload, self._hash_kind)

    # --------------------------------------------------------- derived specs
    def with_seed(self, seed: int) -> "ExperimentSpec":
        """A copy of the spec with a different experiment seed."""
        return replace(self, seed=seed)

    def source_models(self) -> Tuple[ModelSpec, ...]:
        """Every source model the experiment trains (primary first)."""
        return (self.model,) + self.transfer_sources

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "model": self.model.to_dict(),
            "victims": self.victims.to_dict(),
            "attacks": [attack.to_dict() for attack in self.attacks],
            "sweep": self.sweep.to_dict(),
            "transfer_sources": [source.to_dict() for source in self.transfer_sources],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        _reject_unknown_keys(cls, payload)
        payload = dict(payload)
        kwargs: Dict[str, Any] = {
            key: payload[key] for key in ("name", "kind", "seed") if key in payload
        }
        if "model" in payload:
            with _spec_scope("model"):
                kwargs["model"] = ModelSpec.from_dict(payload["model"])
        if "victims" in payload:
            with _spec_scope("victims"):
                kwargs["victims"] = VictimSpec.from_dict(payload["victims"])
        if "attacks" in payload:
            attacks = []
            for index, attack in enumerate(payload["attacks"]):
                with _spec_scope(f"attacks[{index}]"):
                    attacks.append(AttackSpec.from_dict(attack))
            kwargs["attacks"] = tuple(attacks)
        if "sweep" in payload:
            with _spec_scope("sweep"):
                kwargs["sweep"] = SweepSpec.from_dict(payload["sweep"])
        if "transfer_sources" in payload:
            transfer_sources = []
            for index, source in enumerate(payload["transfer_sources"]):
                with _spec_scope(f"transfer_sources[{index}]"):
                    transfer_sources.append(ModelSpec.from_dict(source))
            kwargs["transfer_sources"] = tuple(transfer_sources)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """The spec as a versioned JSON document."""
        return json.dumps(
            {"spec_version": SPEC_SCHEMA_VERSION, "experiment": self.to_dict()},
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a document produced by :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(
                f"spec document is not valid JSON: {exc}"
            ) from exc
        if not isinstance(payload, Mapping):
            raise SpecValidationError(
                f"spec document must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("spec_version")
        if version != SPEC_SCHEMA_VERSION:
            raise SpecValidationError(
                f"unsupported spec_version {version!r}; this build reads version "
                f"{SPEC_SCHEMA_VERSION}",
                path="spec_version",
            )
        if "experiment" not in payload:
            raise SpecValidationError(
                "spec document is missing the 'experiment' object", path="experiment"
            )
        return cls.from_dict(payload["experiment"])

    def save(self, path: str) -> None:
        """Write the spec as JSON (creating parent directories)."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        """Load a spec saved by :meth:`save`."""
        if not os.path.exists(path):
            raise ConfigurationError(f"spec file {path!r} does not exist")
        with open(path) as handle:
            return cls.from_json(handle.read())


def panel_spec(
    name: str,
    attacks: Sequence[str],
    multipliers: Sequence[str],
    model: ModelSpec = None,
    epsilons: Sequence[float] = None,
    n_samples: int = 60,
    seed: int = 0,
    **victim_kwargs: Any,
) -> ExperimentSpec:
    """Convenience constructor for the common robustness-panel shape."""
    sweep_kwargs: Dict[str, Any] = {"n_samples": n_samples}
    if epsilons is not None:
        sweep_kwargs["epsilons"] = tuple(epsilons)
    return ExperimentSpec(
        name=name,
        model=model if model is not None else ModelSpec(),
        victims=VictimSpec(multipliers=tuple(multipliers), **victim_kwargs),
        attacks=tuple(AttackSpec(attack=key) for key in attacks),
        sweep=SweepSpec(**sweep_kwargs),
        kind="panel",
        seed=seed,
    )
