"""Wrap the public calls of each ``repro`` layer in spans, and reduce spans
to the benchmark's per-layer metrics.

Nothing in ``src/`` is edited: :func:`install` replaces class attributes and
module-level function references at run time and returns a callable that
restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from benchkit.spans import Span, SpanRecorder, children_of, coverage, self_time

#: kernel strategies, in the order the metrics are reported
KERNEL_STRATEGIES = ("native", "percode", "errorcorrection", "exact", "gather", "sparse")

ROOT_SPAN = "experiments.session.run"

#: every per-layer metric the traced run prints, with its unit
LAYER_METRICS: Dict[str, str] = {
    "datasets.synthesize_s": "s",
    "nn.fit_s": "s",
    "nn.fit_samples_per_s": "1/s",
    "nn.evaluate_s": "s",
    "attacks.craft_s": "s",
    "attacks.adv_per_s": "1/s",
    "axnn.build_s": "s",
    "axnn.build_calls": "count",
    "robustness.evaluate_s": "s",
    "axnn.panel_forward_s": "s",
    "axnn.panel_calls": "count",
    "axnn.panel_rows_per_call": "rows",
    "axnn.panel_self_s": "s",
    **{f"axnn.kernel_s.{name}": "s" for name in KERNEL_STRATEGIES},
    **{f"axnn.kernel_calls.{name}": "count" for name in KERNEL_STRATEGIES},
    "axnn.kernel_gmacs": "Gmac",
    "axnn.kernel_gmac_per_s": "Gmac/s",
    "experiments.store.put_s": "s",
    "experiments.store.put_bytes": "B",
    "experiments.store.put_calls": "count",
    "experiments.store.get_s": "s",
    "experiments.store.get_bytes": "B",
    "experiments.store.get_calls": "count",
    "experiments.store.hit_ratio": "ratio",
    "experiments.session.self_s": "s",
    "service.batch_ms_mean": "ms",
    "service.batch_rows_mean": "rows",
    "service.batches": "count",
    "service.outside_batch_ms": "ms",
    "service.target_builds": "count",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
    "loadgen.late_ms_p99": "ms",
}


def _payload_bytes(value) -> int:
    """In-memory size of a store payload: array bytes, or JSON text length."""
    if value is None:
        return 0
    if isinstance(value, dict) and all(hasattr(v, "nbytes") for v in value.values()):
        return int(sum(v.nbytes for v in value.values()))
    return len(json.dumps(value))


def _wrap(recorder: SpanRecorder, name: str, func: Callable, describe=None) -> Callable:
    """``func`` timed in a span; ``describe(bound_args, result)`` adds attrs."""
    signature = inspect.signature(func) if describe is not None else None

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            recorder.close(span)
            if describe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(describe(bound.arguments, result))

    return wrapper


def _fit_attrs(arguments, result):
    return {"samples": float(len(arguments["x"]) * arguments["epochs"])}


def _craft_attrs(arguments, result):
    return {"adversarial": float(len(arguments["images"]) * len(arguments["epsilons"]))}


def _panel_attrs(arguments, result):
    return {"rows": float(len(arguments["x"]))}


def _kernel_attrs(arguments, result):
    kernel = arguments["self"]
    rows = len(arguments["activation_codes"])
    return {"macs": float(rows) * kernel.inner * kernel.outputs}


def _put_attrs(arguments, result):
    return {"bytes": float(os.path.getsize(result))}


def _get_attrs(arguments, result):
    return {"bytes": float(_payload_bytes(result)), "hit": float(result is not None)}


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer boundary the benchmark times; returns the undo."""
    from repro.attacks.engine import AttackEngine
    from repro.axnn import engine as axnn_engine
    from repro.axnn import kernels
    from repro.axnn.panel import VictimPanel
    from repro.experiments.session import Session
    from repro.experiments.store import ArtifactStore
    from repro.nn.trainer import Trainer
    from repro.robustness import sweep

    patches: List[Tuple[object, str, Callable]] = []

    def patch_method(cls, attr: str, name: str, describe=None) -> None:
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, _wrap(recorder, name, original, describe))

    def patch_function(original: Callable, name: str) -> None:
        wrapper = _wrap(recorder, name, original)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    patch_method(Session, "run", ROOT_SPAN)
    patch_method(Session, "resolve_dataset", "datasets.synthesize")
    patch_method(Trainer, "fit", "nn.fit", _fit_attrs)
    patch_method(Trainer, "evaluate", "nn.evaluate")
    patch_method(AttackEngine, "generate_sweep", "attacks.craft", _craft_attrs)
    patch_function(axnn_engine.build_axdnn, "axnn.build")
    patch_function(sweep.grid_from_suite, "robustness.evaluate")
    patch_method(VictimPanel, "forward", "axnn.panel_forward", _panel_attrs)
    for strategy in KERNEL_STRATEGIES:
        patch_method(
            kernels._KERNEL_CLASSES[strategy],
            "matmul",
            f"axnn.kernel.{strategy}",
            _kernel_attrs,
        )
    patch_method(ArtifactStore, "put_arrays", "experiments.store.put", _put_attrs)
    patch_method(ArtifactStore, "put_json", "experiments.store.put", _put_attrs)
    patch_method(ArtifactStore, "get_arrays", "experiments.store.get", _get_attrs)
    patch_method(ArtifactStore, "get_json", "experiments.store.get", _get_attrs)

    def uninstall() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        patches.clear()

    return uninstall


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer metrics of the spans of one repetition.

    Layers the repetition never called report 0.  ``trace.coverage`` is the
    share of the root (``Session.run``) span covered by its direct
    children, 0 without a root.  The service and trace-ratio metrics are
    filled in by the workload that measures them.
    """
    children = children_of(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def seconds(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, []))

    def calls(name: str) -> float:
        return float(len(by_name.get(name, [])))

    def attr(name: str, key: str) -> float:
        return sum(span.attrs.get(key, 0.0) for span in by_name.get(name, []))

    metrics = dict.fromkeys(LAYER_METRICS, 0.0)
    metrics["datasets.synthesize_s"] = seconds("datasets.synthesize")
    metrics["nn.fit_s"] = seconds("nn.fit")
    metrics["nn.fit_samples_per_s"] = _ratio(attr("nn.fit", "samples"), seconds("nn.fit"))
    metrics["nn.evaluate_s"] = seconds("nn.evaluate")
    metrics["attacks.craft_s"] = seconds("attacks.craft")
    metrics["attacks.adv_per_s"] = _ratio(
        attr("attacks.craft", "adversarial"), seconds("attacks.craft")
    )
    metrics["axnn.build_s"] = seconds("axnn.build")
    metrics["axnn.build_calls"] = calls("axnn.build")
    metrics["robustness.evaluate_s"] = seconds("robustness.evaluate")

    panel = "axnn.panel_forward"
    metrics["axnn.panel_forward_s"] = seconds(panel)
    metrics["axnn.panel_calls"] = calls(panel)
    metrics["axnn.panel_rows_per_call"] = _ratio(attr(panel, "rows"), calls(panel))
    metrics["axnn.panel_self_s"] = sum(
        self_time(span, children) for span in by_name.get(panel, [])
    )

    kernel_seconds = macs = 0.0
    for strategy in KERNEL_STRATEGIES:
        name = f"axnn.kernel.{strategy}"
        metrics[f"axnn.kernel_s.{strategy}"] = seconds(name)
        metrics[f"axnn.kernel_calls.{strategy}"] = calls(name)
        kernel_seconds += seconds(name)
        macs += attr(name, "macs")
    metrics["axnn.kernel_gmacs"] = macs / 1e9
    metrics["axnn.kernel_gmac_per_s"] = _ratio(macs / 1e9, kernel_seconds)

    for verb in ("put", "get"):
        name = f"experiments.store.{verb}"
        metrics[f"{name}_s"] = seconds(name)
        metrics[f"{name}_bytes"] = attr(name, "bytes")
        metrics[f"{name}_calls"] = calls(name)
    metrics["experiments.store.hit_ratio"] = _ratio(
        attr("experiments.store.get", "hit"), calls("experiments.store.get")
    )

    roots = by_name.get(ROOT_SPAN, [])
    metrics["experiments.session.self_s"] = sum(
        self_time(root, children) for root in roots
    )
    if roots:
        metrics["trace.coverage"] = statistics.median(
            coverage(root, children) for root in roots
        )
    return metrics


def median_metrics(runs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over repetitions."""
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}
