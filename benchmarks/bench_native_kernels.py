"""Micro-benchmarks of the native (compiled) kernel tier.

Not a paper figure — these measure what the PR 8 native tier buys over the
pure-NumPy reference paths it shadows, on the exact shapes the sweeps run:

* **native vs sparse LUT product** — the compiled LUT matmul against the
  sparse one-hot kernel (the previous best for full-rank LUTs such as M6)
  at the LeNet dense shape and an AlexNet conv shape, plus the int16-packed
  LUT variant.  Bit-identity is asserted on every comparison; only the
  clock moves.
* **native vs reference col2im** — the single-pass compiled scatter-add
  against the ``kh * kw`` strided read-modify-write sweeps, at a LeNet
  conv-backward shape, and the same comparison end-to-end through a full
  training epoch (the arena runtime hands ``col2im`` its workspace
  buffers, so the native path engages with no call-site changes).
* **fused panel vs per-victim** — a :class:`repro.axnn.VictimPanel` over
  four multipliers against four separate ``predict`` calls on the same
  batch (shared im2col + quantization, identical logits).

Every comparison is measured as paired per-round ratios with alternating
call order (:meth:`repro.benchmarking.Suite.paired`) so machine drift
cancels, and recorded into ``benchmarks/results/BENCH_native_kernels.json``
for the regression gate.  All native kernels here are single-threaded, so
the ratios carry no ``min_cores`` gate — they travel to any host.  The
whole module skips when no compiled backend resolves (`REPRO_KERNEL_BACKEND
=numpy`, or no C compiler present): there is nothing to compare against.
"""

import os

import numpy as np
import pytest

from repro.axnn import VictimPanel, build_axdnn, clear_profile_cache, make_kernel
from repro.axnn.native import BACKEND_ENV_VAR, backend_name, get_backend, reset_backend
from repro.datasets import load_synthetic_mnist
from repro.models.architectures import build_lenet5
from repro.multipliers import LUTMultiplier, get_multiplier
from repro.nn import Adam, Trainer
from repro.nn.functional import col2im, im2col

pytestmark = pytest.mark.skipif(
    get_backend() is None,
    reason="no native backend resolved (no C compiler, "
    "or REPRO_KERNEL_BACKEND=numpy)",
)


def _kernel_problem(m, k, n, seed=0):
    """Random operands for a kernel benchmark (uniform codes, dense weights)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(m, k))
    weights = rng.integers(-255, 256, size=(k, n))
    return codes, np.sign(weights), np.abs(weights)


@pytest.fixture()
def backend_env():
    """Restore ``REPRO_KERNEL_BACKEND`` (and the resolved state) after a test
    that toggles backends inside its measurement closures."""
    saved = os.environ.get(BACKEND_ENV_VAR)
    yield
    if saved is None:
        os.environ.pop(BACKEND_ENV_VAR, None)
    else:
        os.environ[BACKEND_ENV_VAR] = saved
    clear_profile_cache()  # also resets the native backend state


def _paired_native_vs_sparse(suite, name, multiplier, m, k, n, seed):
    codes, sign, magnitude = _kernel_problem(m, k, n, seed=seed)
    sparse = make_kernel(multiplier, sign, magnitude, "sparse")
    native = make_kernel(multiplier, sign, magnitude, "native")
    stats = suite.paired(
        name, lambda: sparse.matmul(codes), lambda: native.matmul(codes), rounds=10
    )
    assert np.array_equal(native.matmul(codes), sparse.matmul(codes))
    return native, codes, stats


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_lenet(benchmark, suite):
    """Acceptance check: native LUT matmul beats sparse one-hot on the
    full-rank LeNet dense shape (128 x 256 @ 256 x 64, M6).

    M6's compressor-tree LUT has no low-rank structure, so before the
    native tier this shape was bound by the sparse kernel's 256 one-hot
    dgemms; the compiled loop replaces them with one cache-blocked pass.
    """
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_lenet", get_multiplier("M6"), 128, 256, 64, seed=2
    )
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))
    assert stats["ratio_median"] >= 1.05, (
        f"native kernel ({native.describe()}) only {stats['ratio_median']:.2f}x "
        f"the sparse kernel on the LeNet shape"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_alexnet(benchmark, suite):
    """Native vs sparse at an AlexNet conv shape (64 x 1152 @ 1152 x 256, M6).

    The deeper contraction amortises the LUT-pack setup completely — this
    is where the compiled tier pays off hardest (order-of-magnitude on the
    recording host).
    """
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_alexnet", get_multiplier("M6"), 64, 1152, 256, seed=3
    )
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))
    assert stats["ratio_median"] >= 1.5, (
        f"native kernel ({native.describe()}) only {stats['ratio_median']:.2f}x "
        f"the sparse kernel on the AlexNet shape"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_lut_product_int16_pack(benchmark, suite):
    """The int16-packed LUT path (tables whose peak product fits 15 bits)
    halves the cache footprint of the hot table — recorded for that regime
    at the AlexNet shape, where the deep contraction keeps the ratio far
    from the noise floor; identity asserted, the ratio is informational."""
    rng = np.random.default_rng(4)
    table = rng.integers(0, 2**15, size=(256, 256), dtype=np.int64)
    native, codes, stats = _paired_native_vs_sparse(
        suite, "lut_int16", LUTMultiplier("bench-int16", table), 64, 1152, 256, seed=4
    )
    assert "int16 lut" in native.describe()
    benchmark.extra_info.update(stats)
    benchmark.extra_info["kernel"] = native.describe()
    benchmark(lambda: native.matmul(codes))


@pytest.mark.benchmark(group="native-kernels")
def test_native_col2im(benchmark, suite, backend_env):
    """Acceptance check: the compiled col2im scatter-add beats the strided
    reference at a LeNet conv-backward shape (32 x 14 x 14 x 32, 5x5/s1/p2).

    Each closure pins the backend through the public env knob and re-resolves,
    so the paired rounds genuinely alternate implementations of the same
    ``col2im`` call.
    """
    shape = (32, 14, 14, 32)
    kernel, stride, padding = 5, 1, 2
    rng = np.random.default_rng(5)
    cols = im2col(rng.standard_normal(shape), kernel, kernel, stride, padding)

    def run(backend):
        os.environ[BACKEND_ENV_VAR] = backend
        reset_backend()
        return col2im(cols, shape, kernel, kernel, stride, padding)

    stats = suite.paired(
        "col2im", lambda: run("numpy"), lambda: run("auto"), rounds=10
    )
    assert np.array_equal(run("auto"), run("numpy"))
    benchmark.extra_info.update(stats)
    benchmark(lambda: run("auto"))
    assert stats["ratio_median"] >= 1.2, (
        f"native col2im only {stats['ratio_median']:.2f}x the strided reference"
    )


@pytest.mark.benchmark(group="native-kernels")
def test_native_training_epoch(benchmark, suite, backend_env):
    """Full arena training epoch (LeNet-5, 512 images) with and without the
    native col2im underneath — the end-to-end view of the same swap.

    The conv backward pass hands ``col2im`` its arena workspace, so the
    native path engages with no call-site changes.  Weights must come out
    bit-identical; col2im is one slice of the epoch, so only parity-or-better
    is asserted and the measured ratio is what lands in the report.
    """
    dataset = load_synthetic_mnist(n_train=512, n_test=64, seed=0)
    images, labels = dataset.train.images, dataset.train.labels
    trainers = {
        backend: Trainer(build_lenet5(seed=0), optimizer=Adam(2e-3), seed=0)
        for backend in ("numpy", "auto")
    }

    def run(backend):
        os.environ[BACKEND_ENV_VAR] = backend
        reset_backend()
        trainers[backend].fit(
            images, labels, epochs=1, batch_size=64, runtime="arena"
        )

    stats = suite.paired(
        "training_epoch", lambda: run("numpy"), lambda: run("auto"), rounds=6
    )
    # both trainers have seen the same number of epochs at this point
    reference_state = trainers["numpy"].model.state_dict()
    native_state = trainers["auto"].model.state_dict()
    assert all(
        np.array_equal(reference_state[key], native_state[key])
        for key in reference_state
    )
    benchmark.extra_info.update(stats)
    benchmark.pedantic(lambda: run("auto"), rounds=1, iterations=1)
    assert stats["ratio_median"] >= 0.95, (
        f"native col2im made the training epoch slower "
        f"({stats['ratio_median']:.3f}x)"
    )


@pytest.mark.benchmark(group="native-panel")
def test_fused_panel_vs_per_victim(benchmark, suite):
    """Fused multi-victim panel vs four separate predicts on the same batch.

    The panel shares one im2col and one quantization per Ax conv layer per
    batch across all victims; the LUT products (the dominant cost) stay
    per-victim, so the fusion margin is the extract+quantize share of the
    pipeline.  Logits are bit-identical by contract.
    """
    dataset = load_synthetic_mnist(n_train=256, n_test=96, seed=1)
    model = build_lenet5(seed=1)
    victims = {
        label: build_axdnn(model, get_multiplier(label), dataset.train.images[:128])
        for label in ("M4", "M6", "M8", "M9")
    }
    panel = VictimPanel(victims)
    x = dataset.test.images[:64]

    def per_victim():
        return {
            label: victim.predict(x, batch_size=32, workers=1)
            for label, victim in victims.items()
        }

    def fused():
        return panel.predict(x, batch_size=32, workers=1)

    stats = suite.paired("panel_lenet", per_victim, fused, rounds=8)
    separate, shared = per_victim(), fused()
    for label in victims:
        assert np.array_equal(separate[label], shared[label])
    benchmark.extra_info.update(stats)
    benchmark.extra_info["fusion"] = "; ".join(panel.fusion_report())
    benchmark(fused)
    assert stats["ratio_median"] >= 0.95, (
        f"fused panel slower than per-victim ({stats['ratio_median']:.3f}x)"
    )
