"""The :class:`Session` facade: run declarative experiments with caching.

``Session.run(spec)`` resolves the spec's dependency DAG

    dataset -> trained model -> victims
                    \\-> adversarial suite -> result

reusing every expensive artifact the content-addressed store already holds:
trained weights are keyed by the :class:`~repro.experiments.spec.ModelSpec`
hash, crafted adversarial suites by the (model, attack, sweep, seed) hash,
and finished results by the full :class:`~repro.experiments.spec.
ExperimentSpec` hash.  Re-running a figure with an unchanged spec therefore
performs zero training and zero adversarial crafting; changing one attack
re-crafts only that attack's suite while the model weights and the other
suites stay cached.

Everything that does not change results — worker counts, the attack
backend, progress callbacks — lives on the session, not the spec, so it
never perturbs a cache key.  Setting ``REPRO_REQUIRE_CACHED=1`` (or
``require_cached=True``) turns any would-be training or crafting step into
a :class:`~repro.errors.MissingArtifactError`, which is how CI asserts that
a second run is served entirely from the store.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.axnn.engine import AxModel, build_axdnn, build_quantized_accurate
from repro.datasets import Dataset, load_synthetic_cifar10, load_synthetic_mnist
from repro.errors import ConfigurationError, MissingArtifactError
from repro.experiments.spec import (
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
    content_hash,
)
from repro.experiments.store import ArtifactStore, Lease, TrainingCheckpointer
from repro.models.architectures import build_architecture
from repro.models.zoo import TrainedModel
from repro.nn import Adam, Trainer
from repro.nn.model import Sequential
from repro.nn.runtime import WorkerSpec, call_with_workers
from repro.resilience import Deadline
from repro.robustness.evaluator import AdversarialSuite
from repro.robustness.quantization_analysis import (
    QuantizationComparison,
    QuantizationStudy,
)
from repro.robustness.report import ExperimentRecord
from repro.robustness.sweep import RobustnessGrid, build_victims, grid_from_suite
from repro.robustness.transferability import (
    TransferabilityCell,
    TransferabilityTable,
)

#: environment variable that forbids training/crafting (cache-only mode)
REQUIRE_CACHED_ENV_VAR = "REPRO_REQUIRE_CACHED"

#: environment variable setting the default checkpoint cadence (epochs)
CHECKPOINT_EVERY_ENV_VAR = "REPRO_CHECKPOINT_EVERY"

#: environment variable toggling speculative prefetch ("0"/"false" disables;
#: default: enabled whenever the store has a remote backend)
PREFETCH_ENV_VAR = "REPRO_PREFETCH"

#: version tag written into stored result payloads
RESULT_VERSION = 1

#: paper names of sources and AxDNN victims per architecture
ARCH_SOURCE_NAMES = {"ffnn": "AccFF", "lenet5": "AccL5", "alexnet": "AccAlx"}
ARCH_VICTIM_NAMES = {"ffnn": "AxFF", "lenet5": "AxL5", "alexnet": "AxAlx"}

#: sentinel npz key carrying the trained model's test accuracy
_ACCURACY_KEY = "_meta_test_accuracy"

logger = logging.getLogger("repro.experiments.session")

ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification emitted during :meth:`Session.run`.

    ``stage`` is one of ``"model"``, ``"train"`` (one event per training
    epoch, carrying loss/accuracy in ``detail``), ``"suite"``,
    ``"victims"``, ``"evaluate"``, ``"result"`` or ``"prefetch"``
    (speculative remote→local warming); ``status`` is ``"hit"`` (served
    from the store), ``"compute"`` (paid for), ``"store"`` (written
    back), ``"resume"`` (training restarted from a checkpoint), ``"wait"``
    (blocked on another writer's training lease) or ``"degraded"`` (a
    read missed the local cache while the remote backend's circuit
    breaker was open — the stage recomputes instead).

    ``seq`` is a per-session monotonic sequence number (1-based, gap-free
    across all stages, assigned under a lock so concurrent runs on one
    session never share a number) and ``timestamp`` the wall-clock emit
    time — together they let a streaming consumer (the robustness service's
    SSE feed) order, resume and age events without trusting arrival order.
    """

    stage: str
    status: str
    detail: str
    seq: int = 0
    timestamp: float = 0.0

    def to_dict(self) -> dict:
        """The event as a JSON-friendly payload (for event streams)."""
        return {
            "stage": self.stage,
            "status": self.status,
            "detail": self.detail,
            "seq": self.seq,
            "timestamp": self.timestamp,
        }


@dataclass
class ExperimentResult:
    """Typed result of one :meth:`Session.run` call."""

    spec: ExperimentSpec
    grids: List[RobustnessGrid] = field(default_factory=list)
    study: Optional[QuantizationStudy] = None
    table: Optional[TransferabilityTable] = None
    source_accuracies: Dict[str, float] = field(default_factory=dict)
    from_cache: bool = False
    elapsed_s: float = 0.0

    def grid(self, attack_key: str) -> RobustnessGrid:
        """Look up the grid of one attack (panel results)."""
        for grid in self.grids:
            if grid.attack_key == attack_key:
                return grid
        raise ConfigurationError(
            f"result holds no grid for attack {attack_key!r}; "
            f"available: {[grid.attack_key for grid in self.grids]}"
        )

    def to_dict(self) -> dict:
        """JSON-friendly representation (the stored result payload)."""
        return {
            "result_version": RESULT_VERSION,
            "name": self.spec.name,
            "kind": self.spec.kind,
            "spec_hash": self.spec.content_hash(),
            "grids": [grid.to_dict() for grid in self.grids],
            "study": self.study.to_dict() if self.study is not None else None,
            "table": self.table.to_dict() if self.table is not None else None,
            "source_accuracies": dict(self.source_accuracies),
        }

    @classmethod
    def from_dict(cls, payload: dict, spec: ExperimentSpec) -> "ExperimentResult":
        """Rebuild a result stored by :meth:`to_dict`."""
        version = payload.get("result_version")
        if version != RESULT_VERSION:
            raise ConfigurationError(
                f"unsupported result_version {version!r}; this build reads "
                f"version {RESULT_VERSION}"
            )
        study = None
        if payload.get("study") is not None:
            study = QuantizationStudy()
            for comparison in payload["study"].values():
                study.add(
                    QuantizationComparison(
                        attack_key=comparison["attack"],
                        epsilons=[float(eps) for eps in comparison["epsilons"]],
                        float_robustness=[float(v) for v in comparison["float"]],
                        quantized_robustness=[float(v) for v in comparison["quantized"]],
                    )
                )
        table = None
        if payload.get("table") is not None:
            table_payload = payload["table"]
            table = TransferabilityTable(
                attack_key=table_payload["attack"],
                epsilon=float(table_payload["epsilon"]),
                cells=[
                    TransferabilityCell(
                        source=cell["source"],
                        victim=cell["victim"],
                        dataset=cell["dataset"],
                        accuracy_before=float(cell["before"]),
                        accuracy_after=float(cell["after"]),
                    )
                    for cell in table_payload["cells"]
                ],
            )
        return cls(
            spec=spec,
            grids=[RobustnessGrid.from_dict(grid) for grid in payload.get("grids", [])],
            study=study,
            table=table,
            source_accuracies={
                key: float(value)
                for key, value in payload.get("source_accuracies", {}).items()
            },
        )

    def to_record(self, description: str = "") -> ExperimentRecord:
        """The result as a :class:`repro.robustness.report.ExperimentRecord`."""
        record = ExperimentRecord(
            experiment_id=self.spec.name,
            description=description or f"{self.spec.kind} experiment {self.spec.name}",
            grids=list(self.grids),
        )
        record.extra["spec"] = self.spec.to_dict()
        record.extra["source_accuracies"] = dict(self.source_accuracies)
        if self.study is not None:
            record.extra["quantization_study"] = self.study.to_dict()
        if self.table is not None:
            record.extra["transferability"] = self.table.to_dict()
        return record


def _source_name(model_spec: ModelSpec) -> str:
    """Paper name of a source model (AccL5 / AccAlx / AccFF)."""
    return ARCH_SOURCE_NAMES.get(
        model_spec.architecture, f"Acc_{model_spec.architecture}"
    )


def _escape(key: str) -> str:
    # '/' -> '__' is only reversible when the raw key holds no '__'; a
    # user-named layer like "fc__out" would round-trip to "fc/out/weight",
    # fail load_state_dict on every cache read and silently retrain every
    # run — refuse loudly instead.  (Auto-named layers are positional
    # ("dense_3") and never contain '__'.)
    if "__" in key:
        raise ConfigurationError(
            f"parameter key {key!r} contains '__', which collides with the "
            f"artifact store's '/'-escape; rename the layer without double "
            f"underscores"
        )
    return key.replace("/", "__")


def _unescape(key: str) -> str:
    return key.replace("__", "/")


class Session:
    """Facade for running :class:`ExperimentSpec` pipelines with caching.

    Parameters
    ----------
    store:
        An :class:`ArtifactStore`, a root directory path, or ``None`` for
        the default root (``$REPRO_ARTIFACT_DIR`` or ``~/.cache/repro``).
    workers:
        Default worker spec (threads) for training and victim evaluation;
        overridable per :meth:`run` call.  Attack crafting always runs in
        the calling process.  Results are invariant to it.
    progress:
        Optional callback receiving :class:`ProgressEvent` notifications.
    require_cached:
        When true, any step that would train or craft raises
        :class:`MissingArtifactError` instead.  Defaults to the
        ``REPRO_REQUIRE_CACHED`` environment variable.
    checkpoint_every:
        Epoch cadence for training checkpoints written into the store
        (``None`` disables checkpointing).  Defaults to the
        ``REPRO_CHECKPOINT_EVERY`` environment variable.  When set, an
        interrupted :meth:`resolve_model` resumes from the latest valid
        checkpoint with byte-identical final weights.
    lease_training:
        Claim a single-writer lease before training (default true).  When
        another live writer holds the claim, this session polls the store
        for the winner's artifact instead of duplicating the training run.
    lease_timeout_s / lease_poll_s:
        How long to wait on another writer before training anyway, and the
        poll interval while waiting.
    store_url:
        Remote backend URL (``file://``, ``mem://``, ``sim://``) attached
        to the store when ``store`` is a root path or ``None``; defaults
        to ``$REPRO_STORE_URL``.  Ignored when ``store`` is already an
        :class:`ArtifactStore`.
    prefetch:
        Speculatively warm the artifacts the spec DAG needs next (model
        weights, adversarial suites) remote→local on a background thread
        while the current stage computes.  Defaults to the
        ``REPRO_PREFETCH`` environment variable, else to "on whenever the
        store has a remote backend".  Results are invariant to it.
    """

    def __init__(
        self,
        store=None,
        workers: WorkerSpec = None,
        progress: Optional[ProgressCallback] = None,
        require_cached: Optional[bool] = None,
        checkpoint_every: Optional[int] = None,
        lease_training: bool = True,
        lease_timeout_s: float = 600.0,
        lease_poll_s: float = 0.5,
        store_url: Optional[str] = None,
        prefetch: Optional[bool] = None,
    ) -> None:
        if isinstance(store, ArtifactStore):
            self.store = store
        else:
            self.store = ArtifactStore(store, store_url=store_url)
        if prefetch is None:
            raw = os.environ.get(PREFETCH_ENV_VAR, "").strip().lower()
            if raw in ("0", "false", "no"):
                prefetch = False
            elif raw:
                prefetch = True
            else:
                prefetch = self.store.remote is not None
        self.prefetch = bool(prefetch)
        self._prefetch_threads: List[threading.Thread] = []
        self.workers = workers
        self.progress = progress
        if require_cached is None:
            require_cached = os.environ.get(
                REQUIRE_CACHED_ENV_VAR, ""
            ).strip().lower() not in ("", "0", "false", "no")
        self.require_cached = bool(require_cached)
        if checkpoint_every is None:
            raw = os.environ.get(CHECKPOINT_EVERY_ENV_VAR, "").strip()
            if raw:
                try:
                    checkpoint_every = int(raw)
                except ValueError:
                    raise ConfigurationError(
                        f"{CHECKPOINT_EVERY_ENV_VAR} must be an integer epoch "
                        f"cadence, got {raw!r}"
                    ) from None
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be a positive int, got {checkpoint_every!r}"
            )
        self.checkpoint_every = checkpoint_every
        self.lease_training = bool(lease_training)
        if lease_timeout_s < 0 or lease_poll_s <= 0:
            raise ConfigurationError(
                "lease_timeout_s must be >= 0 and lease_poll_s > 0, got "
                f"{lease_timeout_s!r} / {lease_poll_s!r}"
            )
        self.lease_timeout_s = float(lease_timeout_s)
        self.lease_poll_s = float(lease_poll_s)
        self._progress_lock = threading.Lock()
        self._progress_seq = 0

    # -------------------------------------------------------------- plumbing
    def _emit(self, stage: str, status: str, detail: str) -> None:
        if self.progress is None:
            return
        with self._progress_lock:
            self._progress_seq += 1
            seq = self._progress_seq
        event = ProgressEvent(
            stage=stage, status=status, detail=detail, seq=seq, timestamp=time.time()
        )
        try:
            self.progress(event)
        except Exception:
            # a broken subscriber must never kill the run it is watching —
            # progress is observability, not control flow
            logger.warning(
                "progress callback raised on %s:%s (%s); event dropped",
                stage,
                status,
                detail,
                exc_info=True,
            )

    def _cached_arrays(self, kind: str, digest: str) -> Optional[Dict[str, np.ndarray]]:
        """``store.get_arrays`` that treats a degraded-backend miss as a miss.

        When the store's remote backend is degraded (circuit open) a local
        miss raises :class:`MissingArtifactError` with ``backend_degraded``
        set.  A session can always recompute the artifact bit-identically
        from the spec, so outside cache-only mode the degradation is
        reported as progress and the miss falls through to the compute
        path; under ``require_cached`` the error propagates, because there
        recomputing is exactly what the caller forbade.
        """
        try:
            return self.store.get_arrays(kind, digest)
        except MissingArtifactError as exc:
            if not getattr(exc, "backend_degraded", False) or self.require_cached:
                raise
            self._emit(kind, "degraded", f"{digest[:12]} recomputing locally")
            return None

    def _cached_json(self, kind: str, digest: str) -> Optional[dict]:
        """``store.get_json`` with the same degraded-miss policy as above."""
        try:
            return self.store.get_json(kind, digest)
        except MissingArtifactError as exc:
            if not getattr(exc, "backend_degraded", False) or self.require_cached:
                raise
            self._emit(kind, "degraded", f"{digest[:12]} recomputing locally")
            return None

    # ------------------------------------------------------------- prefetch
    def _prefetch(self, keys: Sequence[Tuple[str, str]]) -> None:
        """Warm ``(kind, digest)`` artifacts remote→local in the background.

        Fire-and-forget: runs on a daemon thread, never raises into the run,
        and is a no-op when prefetch is disabled or the store has no remote
        backend.  Purely a latency optimisation — results are bit-identical
        with or without it.
        """
        if not self.prefetch or self.store.remote is None or not keys:
            return
        batch = list(keys)
        self._emit("prefetch", "compute", f"warming {len(batch)} artifacts")

        def _warm() -> None:
            for kind, digest in batch:
                self.store.warm(kind, digest)

        thread = threading.Thread(
            target=_warm, name="repro-prefetch", daemon=True
        )
        thread.start()
        self._prefetch_threads.append(thread)

    def wait_for_prefetch(self, timeout_s: Optional[float] = None) -> None:
        """Block until outstanding prefetch threads finish (tests/shutdown)."""
        threads, self._prefetch_threads = self._prefetch_threads, []
        for thread in threads:
            thread.join(timeout=timeout_s)

    def _forbid_compute(
        self,
        what: str,
        detail: str,
        kind: Optional[str] = None,
        digest: Optional[str] = None,
        max_epoch: Optional[int] = None,
    ) -> None:
        if not self.require_cached:
            return
        path = None
        checkpoint_epoch = None
        clauses = [
            f"cache-only session would have to {what} ({detail}); "
            f"unset {REQUIRE_CACHED_ENV_VAR} or warm the store first"
        ]
        if kind is not None and digest is not None:
            path = self.store._path(kind, digest, ".npz")
            clauses.append(f"spec hash {digest}")
            clauses.append(f"probed {path}")
            if max_epoch is not None:
                checkpoint_epoch = TrainingCheckpointer(
                    self.store, digest
                ).latest_epoch(max_epoch)
                if checkpoint_epoch is not None:
                    clauses.append(
                        f"nearest checkpoint: epoch {checkpoint_epoch}/{max_epoch}"
                    )
                else:
                    clauses.append("no checkpoints found")
        raise MissingArtifactError(
            "; ".join(clauses),
            kind=kind,
            digest=digest,
            path=path,
            checkpoint_epoch=checkpoint_epoch,
        )

    # -------------------------------------------------------------- datasets
    def resolve_dataset(self, model_spec: ModelSpec) -> Dataset:
        """Deterministically synthesise the dataset of a model spec.

        Synthesis is cheap and fully determined by ``(dataset, n_train,
        n_test, seed)``, so datasets are regenerated rather than stored.
        """
        if model_spec.dataset == "mnist":
            return load_synthetic_mnist(
                n_train=model_spec.n_train,
                n_test=model_spec.n_test,
                seed=model_spec.seed,
            )
        return load_synthetic_cifar10(
            n_train=model_spec.n_train,
            n_test=model_spec.n_test,
            seed=model_spec.seed,
        )

    # ---------------------------------------------------------------- models
    def resolve_model(
        self,
        model_spec: ModelSpec,
        use_cache: bool = True,
        workers: WorkerSpec = None,
    ) -> TrainedModel:
        """Load the trained model from the store, or train and store it.

        The spec seed drives dataset synthesis, parameter initialisation and
        the trainer's shuffling, so one spec hash always maps to one set of
        weights.  ``workers`` shards the training-time validation and test
        evaluation passes; trained weights (and hence the stored artifact)
        are bit-identical for every value.
        """
        dataset = self.resolve_dataset(model_spec)
        model = build_architecture(
            model_spec.architecture,
            input_shape=dataset.image_shape,
            seed=model_spec.seed,
        )
        if use_cache:
            # fail on unstorable parameter keys *before* paying for training
            for layer in model.layers:
                for pname in layer.params:
                    _escape(f"{layer.name}/{pname}")
        digest = model_spec.content_hash()
        if use_cache:
            trained = self._load_cached_model(model_spec, model, dataset, digest)
            if trained is not None:
                return trained
        self._forbid_compute(
            "train",
            f"{model_spec.architecture} on {model_spec.dataset}",
            kind="model",
            digest=digest,
            max_epoch=model_spec.epochs,
        )
        lease: Optional[Lease] = None
        if use_cache and self.lease_training:
            lease, trained = self._claim_training(model_spec, model, dataset, digest)
            if trained is not None:
                return trained
        try:
            self._emit("model", "compute", f"training {model_spec.architecture}")
            workers = workers if workers is not None else self.workers

            def on_epoch(epoch: int, metrics: Dict[str, float]) -> None:
                if lease is not None:
                    lease.refresh()
                if self.progress is not None:
                    self._emit(
                        "train",
                        "compute",
                        f"epoch {epoch}/{model_spec.epochs} "
                        f"loss={metrics['train_loss']:.4f} "
                        f"acc={metrics['train_accuracy']:.4f}",
                    )

            checkpointer = None
            if use_cache and self.checkpoint_every is not None:
                checkpointer = TrainingCheckpointer(
                    self.store,
                    digest,
                    every=self.checkpoint_every,
                    meta=model_spec.to_dict(),
                )
                resume_epoch = checkpointer.latest_epoch(model_spec.epochs)
                if resume_epoch:
                    self._emit(
                        "model",
                        "resume",
                        f"epoch {resume_epoch}/{model_spec.epochs} {digest[:12]}",
                    )
            trainer = Trainer(
                model, optimizer=Adam(model_spec.learning_rate), seed=model_spec.seed
            )
            trainer.fit(
                dataset.train.images,
                dataset.train.labels,
                epochs=model_spec.epochs,
                batch_size=model_spec.batch_size,
                shuffle=True,
                workers=workers,
                on_epoch=(
                    on_epoch
                    if (self.progress is not None or lease is not None)
                    else None
                ),
                checkpoint=checkpointer,
            )
            accuracy = trainer.evaluate(
                dataset.test.images, dataset.test.labels, workers=workers
            )
            if use_cache:
                arrays = {
                    _escape(key): value for key, value in model.state_dict().items()
                }
                arrays[_ACCURACY_KEY] = np.float64(accuracy)
                self.store.put_arrays(
                    "model", digest, arrays, meta=model_spec.to_dict()
                )
                self._emit("model", "store", digest[:12])
            return TrainedModel(model=model, dataset=dataset, test_accuracy=accuracy)
        finally:
            if lease is not None:
                lease.release()

    def _load_cached_model(
        self,
        model_spec: ModelSpec,
        model: Sequential,
        dataset: Dataset,
        digest: str,
    ) -> Optional[TrainedModel]:
        """Load the stored weights into ``model``, or ``None`` on a miss."""
        arrays = self._cached_arrays("model", digest)
        if arrays is None:
            return None
        try:
            accuracy = float(arrays.pop(_ACCURACY_KEY))
            model.load_state_dict(
                {_unescape(key): value for key, value in arrays.items()}
            )
        except Exception:
            # weights written by an incompatible build (e.g. changed
            # layer shapes) are a miss, not a crash: evict, retrain
            self.store.evict("model", digest)
            return None
        self._emit("model", "hit", f"{model_spec.architecture} {digest[:12]}")
        return TrainedModel(model=model, dataset=dataset, test_accuracy=accuracy)

    def _claim_training(
        self,
        model_spec: ModelSpec,
        model: Sequential,
        dataset: Dataset,
        digest: str,
    ) -> Tuple[Optional[Lease], Optional[TrainedModel]]:
        """Claim the single-writer training lease on *(model, digest)*.

        Returns ``(lease, None)`` when this session won the claim,
        ``(None, trained)`` when another writer finished first (its artifact
        was loaded from the store while waiting), and ``(None, None)`` when
        the wait timed out — the caller then trains leaseless, which
        duplicates work but stays correct (last atomic write wins and both
        writers produce identical bytes).
        """
        lease = self.store.lease("model", digest)
        if lease.acquire():
            # a writer that stored and released between our cache miss and
            # this claim leaves its artifact behind: use it, do not retrain
            trained = self._load_cached_model(model_spec, model, dataset, digest)
            if trained is not None:
                lease.release()
                return None, trained
            return lease, None
        holder = lease.holder() or {}
        self._emit(
            "model",
            "wait",
            f"{digest[:12]} leased by {holder.get('owner', 'unknown')}",
        )
        deadline = Deadline(self.lease_timeout_s)
        while not deadline.expired():
            time.sleep(min(self.lease_poll_s, deadline.remaining() or 0.0) or 0.001)
            trained = self._load_cached_model(model_spec, model, dataset, digest)
            if trained is not None:
                return None, trained
            if lease.acquire():
                # the other writer crashed or released without storing an
                # artifact: take over the claim and train here
                return lease, None
        self._emit(
            "model", "wait", f"lease wait timed out; training {digest[:12]} anyway"
        )
        return None, None

    # ---------------------------------------------------------------- suites
    @staticmethod
    def suite_digest(
        model_spec: ModelSpec,
        attack_spec: AttackSpec,
        epsilons: Sequence[float],
        n_samples: int,
        seed: int,
    ) -> str:
        """Content hash identifying one adversarial suite."""
        return content_hash(
            {
                "model": model_spec.to_dict(),
                "attack": attack_spec.to_dict(),
                "epsilons": [float(eps) for eps in epsilons],
                "n_samples": int(n_samples),
                "seed": int(seed),
            },
            "suite",
        )

    def resolve_suite(
        self,
        model_spec: ModelSpec,
        attack_spec: AttackSpec,
        sweep: SweepSpec,
        seed: int = 0,
        trained: Optional[TrainedModel] = None,
        workers: WorkerSpec = None,
        use_cache: bool = True,
    ) -> AdversarialSuite:
        """Load a crafted adversarial suite from the store, or craft and store it."""
        epsilons = [float(eps) for eps in sweep.epsilons]
        digest = self.suite_digest(
            model_spec, attack_spec, epsilons, sweep.n_samples, seed
        )
        if use_cache:
            arrays = self._cached_arrays("suite", digest)
            if arrays is not None:
                try:
                    suite = AdversarialSuite(
                        attack_key=str(arrays["attack_key"]),
                        epsilons=epsilons,
                        images=arrays["images"],
                        labels=arrays["labels"],
                        adversarial={
                            eps: arrays[f"adv_{index}"]
                            for index, eps in enumerate(epsilons)
                        },
                    )
                except KeyError:
                    self.store.evict("suite", digest)
                else:
                    self._emit("suite", "hit", f"{attack_spec.attack} {digest[:12]}")
                    return suite
        self._forbid_compute(
            "craft",
            f"{attack_spec.attack} x{sweep.n_samples}",
            kind="suite",
            digest=digest,
        )
        if trained is None:
            trained = self.resolve_model(
                model_spec, use_cache=use_cache, workers=workers
            )
        test = trained.dataset.test
        if sweep.n_samples > len(test):
            raise ConfigurationError(
                f"sweep requests {sweep.n_samples} samples but the model spec "
                f"only holds {len(test)} test samples"
            )
        self._emit("suite", "compute", f"crafting {attack_spec.attack}")
        suite = AdversarialSuite.generate(
            trained.model,
            attack_spec.build(),
            test.images[: sweep.n_samples],
            test.labels[: sweep.n_samples],
            epsilons,
            seed=seed,
        )
        if use_cache:
            arrays = {
                "attack_key": np.asarray(suite.attack_key),
                "images": suite.images,
                "labels": suite.labels,
            }
            for index, eps in enumerate(epsilons):
                arrays[f"adv_{index}"] = suite.adversarial[eps]
            self.store.put_arrays(
                "suite",
                digest,
                arrays,
                meta={
                    "model": model_spec.to_dict(),
                    "attack": attack_spec.to_dict(),
                    "epsilons": epsilons,
                    "n_samples": sweep.n_samples,
                    "seed": seed,
                },
            )
            self._emit("suite", "store", digest[:12])
        return suite

    # --------------------------------------------------------------- victims
    def build_victims(
        self, trained: TrainedModel, victims: VictimSpec
    ) -> Dict[str, AxModel]:
        """Build the AxDNN victim set of a spec from a trained source model.

        Delegates to :func:`repro.robustness.sweep.build_victims` (one
        shared calibration) and emits a ``victims`` progress event per label.
        """
        return build_victims(
            trained.model,
            victims.multipliers,
            trained.dataset.train.images[: victims.calibration_samples],
            bits=victims.bits,
            convolution_only=victims.convolution_only,
            kernel=victims.kernel,
            on_build=lambda label: self._emit("victims", "compute", label),
        )

    # ------------------------------------------------------------------- run
    def run(
        self,
        spec: ExperimentSpec,
        workers: WorkerSpec = None,
        use_cache: bool = True,
    ) -> ExperimentResult:
        """Run an experiment spec, reusing cached artifacts at every level.

        ``use_cache=False`` bypasses the store entirely (nothing is read or
        written) — the escape hatch for measuring cold-path timings.
        """
        if not isinstance(spec, ExperimentSpec):
            raise ConfigurationError(
                f"Session.run expects an ExperimentSpec, got {type(spec).__name__}"
            )
        start = time.perf_counter()
        workers = workers if workers is not None else self.workers
        digest = spec.content_hash()
        if use_cache:
            payload = self._cached_json("result", digest)
            if payload is not None:
                try:
                    result = ExperimentResult.from_dict(payload, spec=spec)
                except (ConfigurationError, KeyError, TypeError, ValueError):
                    # a result written by an incompatible build is a miss,
                    # not a crash: evict it and recompute below
                    self.store.evict("result", digest)
                else:
                    self._emit("result", "hit", f"{spec.name} {digest[:12]}")
                    result.from_cache = True
                    result.elapsed_s = time.perf_counter() - start
                    return result
        if spec.kind == "panel":
            result = self._run_panel(spec, workers, use_cache)
        elif spec.kind == "quantization":
            result = self._run_quantization(spec, workers, use_cache)
        else:
            result = self._run_transfer(spec, workers, use_cache)
        if use_cache:
            self.store.put_json("result", digest, result.to_dict(), meta=spec.to_dict())
            self._emit("result", "store", f"{spec.name} {digest[:12]}")
        result.elapsed_s = time.perf_counter() - start
        return result

    def _suite_keys(self, spec: ExperimentSpec, model_spec: ModelSpec) -> List[Tuple[str, str]]:
        """The ``("suite", digest)`` store keys a spec's sweep will read."""
        epsilons = [float(eps) for eps in spec.sweep.epsilons]
        return [
            (
                "suite",
                self.suite_digest(
                    model_spec, attack_spec, epsilons, spec.sweep.n_samples, spec.seed
                ),
            )
            for attack_spec in spec.attacks
        ]

    def _run_panel(
        self, spec: ExperimentSpec, workers: WorkerSpec, use_cache: bool
    ) -> ExperimentResult:
        if use_cache:
            self._prefetch(
                [("model", spec.model.content_hash())]
                + self._suite_keys(spec, spec.model)
            )
        trained = self.resolve_model(spec.model, use_cache=use_cache, workers=workers)
        victims = self.build_victims(trained, spec.victims)
        grids: List[RobustnessGrid] = []
        for attack_spec in spec.attacks:
            suite = self.resolve_suite(
                spec.model,
                attack_spec,
                spec.sweep,
                seed=spec.seed,
                trained=trained,
                workers=workers,
                use_cache=use_cache,
            )
            self._emit(
                "evaluate", "compute", f"{attack_spec.attack} x{len(victims)} victims"
            )
            # fused=None: panels of >= 2 lockstep-compatible victims (every
            # figure's panel — one source model, many multipliers) evaluate
            # in one fused pass per budget, sharing im2col/quantization
            # across victims; the grid is bit-identical either way, so
            # cached results stay valid.
            grids.append(
                grid_from_suite(
                    suite,
                    victims,
                    dataset_name=trained.dataset.name,
                    source_name=trained.model.name,
                    workers=workers,
                    fused=None,
                )
            )
        return ExperimentResult(
            spec=spec,
            grids=grids,
            source_accuracies={_source_name(spec.model): trained.test_accuracy},
        )

    def _run_quantization(
        self, spec: ExperimentSpec, workers: WorkerSpec, use_cache: bool
    ) -> ExperimentResult:
        if use_cache:
            self._prefetch(
                [("model", spec.model.content_hash())]
                + self._suite_keys(spec, spec.model)
            )
        trained = self.resolve_model(spec.model, use_cache=use_cache, workers=workers)
        calibration = trained.dataset.train.images[
            : spec.victims.calibration_samples
        ]
        quantized = build_quantized_accurate(
            trained.model, calibration, bits=spec.victims.bits
        )
        study = QuantizationStudy()
        for attack_spec in spec.attacks:
            suite = self.resolve_suite(
                spec.model,
                attack_spec,
                spec.sweep,
                seed=spec.seed,
                trained=trained,
                workers=workers,
                use_cache=use_cache,
            )
            self._emit("evaluate", "compute", attack_spec.attack)
            float_results = suite.evaluate(trained.model, "float", workers=workers)
            quant_results = suite.evaluate(quantized, "quantized", workers=workers)
            study.add(
                QuantizationComparison(
                    attack_key=suite.attack_key,
                    epsilons=list(suite.epsilons),
                    float_robustness=[r.robustness_percent for r in float_results],
                    quantized_robustness=[r.robustness_percent for r in quant_results],
                )
            )
        return ExperimentResult(
            spec=spec,
            study=study,
            source_accuracies={_source_name(spec.model): trained.test_accuracy},
        )

    def _run_transfer(
        self, spec: ExperimentSpec, workers: WorkerSpec, use_cache: bool
    ) -> ExperimentResult:
        epsilon = float(spec.sweep.epsilons[0])
        attack_spec = spec.attacks[0]
        multiplier = spec.victims.multipliers[0]
        if use_cache:
            keys: List[Tuple[str, str]] = []
            for model_spec in spec.source_models():
                keys.append(("model", model_spec.content_hash()))
                keys.extend(self._suite_keys(spec, model_spec))
            self._prefetch(keys)
        sources: List[Tuple[str, ModelSpec, TrainedModel]] = []
        seen: Dict[str, int] = {}
        for model_spec in spec.source_models():
            base = _source_name(model_spec)
            seen[base] = seen.get(base, 0) + 1
            name = base if seen[base] == 1 else f"{base}#{seen[base]}"
            sources.append(
                (
                    name,
                    model_spec,
                    self.resolve_model(
                        model_spec, use_cache=use_cache, workers=workers
                    ),
                )
            )
        primary = sources[0][2]
        calibration = primary.dataset.train.images[: spec.victims.calibration_samples]
        victims: Dict[str, AxModel] = {}
        victim_seen: Dict[str, int] = {}
        for name, model_spec, trained in sources:
            base = ARCH_VICTIM_NAMES.get(
                model_spec.architecture, f"Ax_{model_spec.architecture}"
            )
            victim_seen[base] = victim_seen.get(base, 0) + 1
            victim_name = base if victim_seen[base] == 1 else f"{base}#{victim_seen[base]}"
            self._emit("victims", "compute", victim_name)
            victims[victim_name] = build_axdnn(
                trained.model,
                multiplier,
                calibration,
                bits=spec.victims.bits,
                convolution_only=spec.victims.convolution_only,
                name=f"ax_{trained.model.name}_{multiplier}",
                kernel=spec.victims.kernel,
            )
        cells: List[TransferabilityCell] = []
        dataset_name = primary.dataset.name
        # the clean 'before' accuracy is source-independent (every source
        # shares the primary test split by spec validation) — pay it once
        clean_before: Dict[str, float] = {}
        for name, model_spec, trained in sources:
            suite = self.resolve_suite(
                model_spec,
                attack_spec,
                spec.sweep,
                seed=spec.seed,
                trained=trained,
                workers=workers,
                use_cache=use_cache,
            )
            adversarial = suite.adversarial[epsilon]
            self._emit("evaluate", "compute", f"{attack_spec.attack} from {name}")
            for victim_name, victim in victims.items():
                if victim_name not in clean_before:
                    clean_before[victim_name] = call_with_workers(
                        victim.accuracy_percent,
                        suite.images,
                        suite.labels,
                        workers=workers,
                    )
                after = call_with_workers(
                    victim.accuracy_percent, adversarial, suite.labels, workers=workers
                )
                cells.append(
                    TransferabilityCell(
                        source=name,
                        victim=victim_name,
                        dataset=dataset_name,
                        accuracy_before=clean_before[victim_name],
                        accuracy_after=after,
                    )
                )
        table = TransferabilityTable(
            attack_key=attack_spec.attack, epsilon=epsilon, cells=cells
        )
        return ExperimentResult(
            spec=spec,
            table=table,
            source_accuracies={
                name: trained.test_accuracy for name, _, trained in sources
            },
        )
