"""Tests for the pluggable BLAS-backed LUT kernel engine (repro.axnn.kernels).

Every kernel strategy must produce bit-identical integer accumulators to the
legacy chunked gather loop, for every multiplier family — that equivalence is
what lets the engine swap kernels freely for throughput.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axnn import build_axdnn
from repro.axnn.approx_ops import (
    approx_dot_general,
    approx_matmul,
    zero_point_correction_vector,
)
from repro.axnn.kernels import (
    KERNEL_STRATEGIES,
    ErrorCorrectionKernel,
    ExactBLASKernel,
    GatherKernel,
    PerCodeBLASKernel,
    SparseOneHotKernel,
    integer_low_rank_factors,
    make_kernel,
    multiplier_kernel_profile,
    normalize_strategy,
    select_strategy,
)
from repro.errors import ConfigurationError, ShapeError
from repro.multipliers import get_multiplier, list_multipliers
from repro.multipliers.base import clear_global_lut_cache, global_lut_cache_size
from repro.multipliers.behavioral import (
    DrumMultiplier,
    ExactMultiplier,
    MitchellLogMultiplier,
    NoisyLSBMultiplier,
    OperandTruncationMultiplier,
    PartialProductTruncationMultiplier,
)

RNG = np.random.default_rng(42)

#: one representative per behavioural family (exact, truncation x2, Mitchell,
#: DRUM, noisy LSB) — the set named by the kernel-equivalence requirement
FAMILY_MULTIPLIERS = [
    ExactMultiplier("kernel-exact"),
    OperandTruncationMultiplier("kernel-optrunc", truncate_a=2, truncate_b=2),
    PartialProductTruncationMultiplier("kernel-pptrunc", cut_columns=3),
    MitchellLogMultiplier("kernel-mitchell"),
    DrumMultiplier("kernel-drum", k=4),
    NoisyLSBMultiplier("kernel-noisy", max_error=31),
]

ALL_STRATEGIES = ["gather", "percode", "errorcorrection", "sparse"]


def random_problem(rng, m=9, k=17, n=7):
    codes = rng.integers(0, 256, size=(m, k))
    weights = rng.integers(-255, 256, size=(k, n))
    return codes, np.sign(weights), np.abs(weights)


class TestKernelEquivalence:
    @pytest.mark.parametrize(
        "multiplier", FAMILY_MULTIPLIERS, ids=lambda m: m.name
    )
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_bit_identical_to_gather_reference(self, multiplier, strategy):
        codes, sign, mag = random_problem(np.random.default_rng(7))
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        kernel = make_kernel(multiplier, sign, mag, strategy)
        assert kernel.matmul(codes).dtype == np.int64
        assert np.array_equal(kernel.matmul(codes), reference)

    @pytest.mark.parametrize(
        "label", ["M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9",
                  "A2", "A3", "A4", "A5", "A6", "A7", "A8"]
    )
    def test_registry_multipliers_all_strategies(self, label):
        multiplier = get_multiplier(label)
        codes, sign, mag = random_problem(np.random.default_rng(11), m=6, k=12, n=5)
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        strategies = list(ALL_STRATEGIES) + ["auto"]
        if multiplier.is_exact():
            strategies.append("exact")
        for strategy in strategies:
            kernel = make_kernel(multiplier, sign, mag, strategy)
            assert np.array_equal(kernel.matmul(codes), reference), (
                f"{label}: {strategy} ({kernel.describe()}) diverged from gather"
            )

    def test_exact_kernel_requires_exact_multiplier(self):
        _, sign, mag = random_problem(np.random.default_rng(3))
        with pytest.raises(ConfigurationError):
            make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, "exact")

    def test_kernel_rejects_shape_mismatch(self):
        multiplier = FAMILY_MULTIPLIERS[1]
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(multiplier, sign, mag, "percode")
        with pytest.raises(ShapeError):
            kernel.matmul(codes[:, :-1])

    def test_prebuilt_kernel_passthrough(self):
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, "gather")
        assert make_kernel(FAMILY_MULTIPLIERS[1], sign, mag, kernel) is kernel


@settings(max_examples=25, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    k=st.integers(1, 12),
    n=st.integers(1, 5),
    mult_index=st.integers(0, len(FAMILY_MULTIPLIERS) - 1),
    strategy=st.sampled_from(ALL_STRATEGIES),
)
def test_kernel_equivalence_property(data, m, k, n, mult_index, strategy):
    """Property: every strategy equals the gather reference on any operands."""
    codes = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=m * k, max_size=m * k))
    ).reshape(m, k)
    weights = np.array(
        data.draw(st.lists(st.integers(-255, 255), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    sign, mag = np.sign(weights), np.abs(weights)
    multiplier = FAMILY_MULTIPLIERS[mult_index]
    reference = approx_matmul(codes, sign, mag, multiplier.lut())
    kernel = make_kernel(multiplier, sign, mag, strategy)
    assert np.array_equal(kernel.matmul(codes), reference)


#: registry labels spanning both figure sets, including every full-rank
#: family (M6/M9/A4/A8 compressor trees) the sparse kernel exists for
REGISTRY_LABELS = [f"M{i}" for i in range(1, 10)] + [f"A{i}" for i in range(2, 9)]


class TestSparseOneHotKernel:
    def test_stacked_path_description(self):
        _, sign, mag = random_problem(np.random.default_rng(2))
        kernel = make_kernel(get_multiplier("M6"), sign, mag, "sparse")
        assert isinstance(kernel, SparseOneHotKernel)
        assert "stacked" in kernel.describe()

    def test_grouped_path_bit_identical(self, monkeypatch):
        """Over-budget shapes chunk over present codes, still bit-identical.

        The batch is larger than ``2 * 2**bits`` rows so the call takes the
        real grouped-rebuild path rather than the small-batch gather
        fallback.
        """
        import repro.axnn.kernels as kernels_module

        codes, sign, mag = random_problem(np.random.default_rng(23), m=530, k=9, n=4)
        multiplier = get_multiplier("M9")
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        monkeypatch.setattr(
            kernels_module, "_SPARSE_STACK_BUDGET_BYTES", 9 * 4 * 4 * 10
        )
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        assert "grouped" in kernel.describe()
        assert codes.shape[0] >= 2 * kernel.codes_total
        assert np.array_equal(kernel.matmul(codes), reference)

    def test_small_batch_fallback_bit_identical(self, monkeypatch):
        """Below the amortisation point, over-budget shapes stay bit-identical."""
        import repro.axnn.kernels as kernels_module

        codes, sign, mag = random_problem(np.random.default_rng(29), m=7, k=9, n=4)
        multiplier = get_multiplier("M9")
        reference = approx_matmul(codes, sign, mag, multiplier.lut())
        monkeypatch.setattr(
            kernels_module, "_SPARSE_STACK_BUDGET_BYTES", 9 * 4 * 4 * 10
        )
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        assert np.array_equal(kernel.matmul(codes), reference)

    def test_result_dtype_is_int64(self):
        codes, sign, mag = random_problem(np.random.default_rng(3))
        kernel = make_kernel(get_multiplier("A4"), sign, mag, "sparse")
        assert kernel.matmul(codes).dtype == np.int64

    def test_rejects_out_of_range_codes(self):
        codes, sign, mag = random_problem(np.random.default_rng(5))
        kernel = make_kernel(get_multiplier("M6"), sign, mag, "sparse")
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes + 256)
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes - 300)

    def test_single_row_single_column(self):
        """The degenerate 1x1 weight shape stays bit-identical."""
        multiplier = get_multiplier("M6")
        codes = np.array([[255]])
        sign = np.array([[-1]])
        mag = np.array([[255]])
        kernel = make_kernel(multiplier, sign, mag, "sparse")
        expected = approx_matmul(codes, sign, mag, multiplier.lut())
        assert np.array_equal(kernel.matmul(codes), expected)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 7),
    k=st.integers(1, 13),
    n=st.integers(1, 5),
    label=st.sampled_from(REGISTRY_LABELS),
)
def test_sparse_bit_identity_property_registry(data, m, k, n, label):
    """Property: sparse == gather for every registry multiplier, odd shapes."""
    codes = np.array(
        data.draw(st.lists(st.integers(0, 255), min_size=m * k, max_size=m * k))
    ).reshape(m, k)
    weights = np.array(
        data.draw(st.lists(st.integers(-255, 255), min_size=k * n, max_size=k * n))
    ).reshape(k, n)
    sign, mag = np.sign(weights), np.abs(weights)
    multiplier = get_multiplier(label)
    reference = approx_matmul(codes, sign, mag, multiplier.lut())
    kernel = make_kernel(multiplier, sign, mag, "sparse")
    assert np.array_equal(kernel.matmul(codes), reference)


#: every registry label whose product LUT has an exact integer rank
#: factorisation (ranks 1-8); the rest (M6, M9, A4, A8) are full rank
LOW_RANK_LABELS = [
    "M1", "M2", "M3", "M4", "M5", "M7", "M8",
    "A1", "A2", "A3", "A5", "A6", "A7",
]


class TestInterleavedLowRankLayout:
    """The one-gather low-rank product (interleaved ``(K*r, N)`` weight
    factors) against the gather reference, bit for bit."""

    def test_low_rank_labels_are_exactly_the_factorisable_registry(self):
        labels = [f"M{i}" for i in range(1, 10)] + [f"A{i}" for i in range(1, 9)]
        factorisable = [
            label
            for label in labels
            if multiplier_kernel_profile(get_multiplier(label)).lut_rank is not None
        ]
        assert factorisable == LOW_RANK_LABELS
        ranks = {
            multiplier_kernel_profile(get_multiplier(label)).lut_rank
            for label in LOW_RANK_LABELS
        }
        assert min(ranks) == 1 and max(ranks) == 8

    @pytest.mark.parametrize("label", LOW_RANK_LABELS)
    @pytest.mark.parametrize("strategy", ["percode", "errorcorrection"])
    def test_registry_low_rank_matches_gather(self, label, strategy):
        multiplier = get_multiplier(label)
        codes, sign, mag = random_problem(np.random.default_rng(31), m=13, k=40, n=9)
        kernel = make_kernel(multiplier, sign, mag, strategy)
        assert "low-rank" in kernel.describe()
        reference = GatherKernel(multiplier, sign, mag).matmul(codes)
        assert np.array_equal(kernel.matmul(codes), reference)

    @pytest.mark.parametrize("strategy", ["percode", "errorcorrection"])
    @pytest.mark.parametrize("m, k, n", [(0, 6, 4), (5, 1, 4), (5, 6, 1), (0, 1, 1)])
    def test_edge_shapes(self, strategy, m, k, n):
        multiplier = get_multiplier("M5")  # rank 8 LUT, rank 7 error table
        codes, sign, mag = random_problem(np.random.default_rng(37), m=m, k=k, n=n)
        kernel = make_kernel(multiplier, sign, mag, strategy)
        assert "low-rank" in kernel.describe()
        result = kernel.matmul(codes)
        assert result.shape == (m, n) and result.dtype == np.int64
        reference = GatherKernel(multiplier, sign, mag).matmul(codes)
        assert np.array_equal(result, reference)

    @pytest.mark.parametrize("strategy", ["percode", "errorcorrection"])
    def test_row_blocks_with_a_short_tail(self, strategy, monkeypatch):
        """Batches taller than one gather block are taken block by block."""
        import repro.axnn.kernels as kernels_module

        multiplier = get_multiplier("A3")  # rank 6 LUT, rank 5 error table
        codes, sign, mag = random_problem(np.random.default_rng(47), m=23, k=10, n=5)
        # 8 bytes x K x r per gathered row: 5-row blocks at r=6, 6-row at
        # r=5; either way 23 rows end in a short block
        monkeypatch.setattr(kernels_module, "_LOW_RANK_BLOCK_BYTES", 8 * 10 * 6 * 5)
        kernel = make_kernel(multiplier, sign, mag, strategy)
        reference = GatherKernel(multiplier, sign, mag).matmul(codes)
        assert np.array_equal(kernel.matmul(codes), reference)

    @pytest.mark.parametrize("strategy", ["percode", "errorcorrection"])
    @pytest.mark.parametrize("label", ["M4", "M8"])
    def test_non_contiguous_codes(self, strategy, label):
        multiplier = get_multiplier(label)
        rng = np.random.default_rng(41)
        wide, sign, mag = random_problem(rng, m=22, k=34, n=6)
        codes = wide[::2, ::2]
        sign, mag = sign[::2], mag[::2]
        assert not codes.flags.c_contiguous
        kernel = make_kernel(multiplier, sign, mag, strategy)
        reference = GatherKernel(multiplier, sign, mag).matmul(
            np.ascontiguousarray(codes)
        )
        assert np.array_equal(kernel.matmul(codes), reference)


def _fresh_result_cases():
    """(strategy, label) pairs covering all six strategies; ``exact`` needs
    the bit-exact M1, the others also run on a low-rank and a full-rank LUT."""
    cases = [("exact", "M1")]
    for strategy in ("gather", "percode", "errorcorrection", "sparse", "native"):
        cases += [(strategy, label) for label in ("M1", "M3", "M6")]
    return cases


class TestKernelResultsAreFresh:
    """``MatmulKernel.matmul`` returns a fresh writable int64 array, which
    the Ax-layers' in-place epilogue relies on."""

    @pytest.mark.parametrize("strategy, label", _fresh_result_cases())
    def test_mutating_a_result_leaves_the_next_unchanged(self, strategy, label):
        if strategy == "native":
            from repro.axnn.native import get_backend

            if get_backend() is None:
                pytest.skip("no native backend on this host")
        multiplier = get_multiplier(label)
        codes, sign, mag = random_problem(np.random.default_rng(43), m=11, k=14, n=6)
        kernel = make_kernel(multiplier, sign, mag, strategy)
        first = kernel.matmul(codes)
        assert first.dtype == np.int64 and first.flags.writeable
        for operand in (codes, sign, mag):
            assert not np.shares_memory(first, operand)
        expected = first.copy()
        first += 12345
        first[0, 0] = -1
        second = kernel.matmul(codes)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, expected)


def _narrow_code_cases():
    """Every strategy on an exact (M1), a low-rank (M3) and a full-rank (M6)
    LUT; ``exact`` only takes the bit-exact M1."""
    return [
        (strategy, label)
        for strategy in KERNEL_STRATEGIES
        for label in ("M1", "M3", "M6")
        if strategy != "exact" or label == "M1"
    ]


class TestNarrowCodes:
    """The Ax layers hand kernels uint8 (or uint16) codes as they are; any
    integer dtype holding the same codes must give the same int64 result."""

    @pytest.mark.parametrize("strategy, label", _narrow_code_cases())
    @pytest.mark.parametrize("m, strided", [(0, False), (11, False), (11, True)])
    def test_code_dtypes_agree(self, strategy, label, m, strided):
        if strategy == "native":
            from repro.axnn.native import get_backend

            if get_backend() is None:
                pytest.skip("no native backend on this host")
        multiplier = get_multiplier(label)
        wide, sign, mag = random_problem(np.random.default_rng(53), m=m, k=58, n=6)
        # K = 29: a code times K wraps in uint8, so a kernel that does
        # arithmetic on the codes without widening them fails here
        sign, mag = sign[::2], mag[::2]
        kernel = make_kernel(multiplier, sign, mag, strategy)
        reference = GatherKernel(multiplier, sign, mag).matmul(
            np.ascontiguousarray(wide[:, ::2])
        )
        for dtype in (np.uint8, np.uint16, np.int64):
            codes = wide.astype(dtype)[:, ::2]
            if not strided:
                codes = np.ascontiguousarray(codes)
            result = kernel.matmul(codes)
            assert result.dtype == np.int64
            assert np.array_equal(result, reference), dtype


class TestIntegerLowRankFactors:
    def test_zero_table_has_rank_zero(self):
        factors = integer_low_rank_factors(np.zeros((8, 8), dtype=np.int64))
        assert factors is not None
        assert len(factors[0]) == 0

    def test_exact_product_table_is_rank_one(self):
        table = np.outer(np.arange(16), np.arange(16))
        factors = integer_low_rank_factors(table)
        assert factors is not None and len(factors[0]) == 1

    def test_reconstruction_is_exact(self):
        multiplier = DrumMultiplier("drum-recon", k=4)
        factors = integer_low_rank_factors(multiplier.lut())
        assert factors is not None
        fs, gs = factors
        reconstructed = sum(np.outer(f, g) for f, g in zip(fs, gs))
        assert np.array_equal(reconstructed, multiplier.lut().astype(np.int64))

    def test_full_rank_noise_returns_none(self):
        rng = np.random.default_rng(0)
        table = rng.integers(-50, 50, size=(32, 32))
        factors = integer_low_rank_factors(table, max_rank=8)
        if factors is not None:  # extremely unlikely; keep the assert honest
            fs, gs = factors
            assert np.array_equal(
                sum(np.outer(f, g) for f, g in zip(fs, gs)), table
            )

    def test_truncation_families_have_expected_ranks(self):
        assert multiplier_kernel_profile(get_multiplier("M4")).lut_rank == 1
        assert multiplier_kernel_profile(get_multiplier("M7")).lut_rank == 1
        profile_m2 = multiplier_kernel_profile(get_multiplier("M2"))
        assert profile_m2.lut_rank == 3
        assert profile_m2.error_rank == 2


class TestStrategySelection:
    def test_exact_multiplier_selects_exact(self):
        assert select_strategy(get_multiplier("M1")) == "exact"

    def test_low_rank_lut_selects_percode(self):
        assert select_strategy(get_multiplier("M4")) == "percode"
        kernel = make_kernel(
            get_multiplier("M4"), *random_problem(np.random.default_rng(1))[1:], "auto"
        )
        assert isinstance(kernel, PerCodeBLASKernel)
        assert "low-rank" in kernel.describe()

    def test_unstructured_lut_selects_native_or_sparse(self):
        # compressor-tree circuits and the noisy-LSB family are full rank:
        # no factorisation exists, so a non-gather full-rank strategy takes
        # over — the native compiled kernel when a backend resolved, the
        # sparse one-hot kernel otherwise
        from repro.axnn.native import get_backend

        expected = "native" if get_backend() is not None else "sparse"
        assert select_strategy(get_multiplier("M6")) == expected
        assert select_strategy(get_multiplier("mul8s_L1G")) == expected

    def test_unstructured_lut_selects_sparse_without_native(self, monkeypatch):
        # with the native tier disabled the pre-existing selection holds
        import repro.axnn.kernels as kernels_module

        monkeypatch.setattr(
            kernels_module, "_native_strategy_available", lambda multiplier: False
        )
        assert select_strategy(get_multiplier("M6")) == "sparse"
        assert select_strategy(get_multiplier("mul8s_L1G")) == "sparse"

    def test_every_registry_multiplier_leaves_the_gather_path(self):
        # the acceptance criterion for the sparse kernel: under "auto", no
        # registry multiplier is left on the reference gather loop
        for name in list_multipliers():
            strategy = select_strategy(get_multiplier(name))
            assert strategy != "gather", name
            assert strategy in KERNEL_STRATEGIES, name

    def test_strategy_aliases(self):
        assert normalize_strategy("per-code-BLAS") == "percode"
        assert normalize_strategy("error-correction") == "errorcorrection"
        assert normalize_strategy("sparse-one-hot") == "sparse"
        assert normalize_strategy("one_hot") == "sparse"
        with pytest.raises(ConfigurationError):
            normalize_strategy("definitely-not-a-kernel")

    def test_strategy_names_exported(self):
        assert set(ALL_STRATEGIES) <= set(KERNEL_STRATEGIES)


class TestDotGeneralIntegration:
    def test_kernel_param_matches_legacy_path(self):
        multiplier = FAMILY_MULTIPLIERS[1]
        codes, sign, mag = random_problem(np.random.default_rng(13))
        legacy = approx_dot_general(codes, sign, mag, multiplier, zero_point=7)
        for strategy in ALL_STRATEGIES + ["auto"]:
            routed = approx_dot_general(
                codes, sign, mag, multiplier, zero_point=7, kernel=strategy
            )
            assert np.array_equal(routed, legacy)

    def test_precomputed_zero_point_correction(self):
        multiplier = FAMILY_MULTIPLIERS[4]
        codes, sign, mag = random_problem(np.random.default_rng(17))
        correction = zero_point_correction_vector(sign, mag)
        assert np.array_equal(correction, (sign * mag).sum(axis=0))
        assert np.array_equal(
            approx_dot_general(codes, sign, mag, multiplier, zero_point=5),
            approx_dot_general(
                codes, sign, mag, multiplier, zero_point=5,
                zero_point_correction=correction,
            ),
        )


class TestEngineKernelSelection:
    def test_build_axdnn_kernels_bit_identical(self, tiny_cnn, calibration_batch, mnist_small):
        x = mnist_small.test.images[:8]
        reference = build_axdnn(
            tiny_cnn, "M4", calibration_batch, kernel="gather"
        ).predict(x)
        for strategy in ["percode", "errorcorrection", "sparse", "auto"]:
            ax = build_axdnn(tiny_cnn, "M4", calibration_batch, kernel=strategy)
            assert np.array_equal(ax.predict(x), reference), strategy

    def test_kernel_report_names_every_compute_layer(self, tiny_cnn, calibration_batch):
        ax = build_axdnn(tiny_cnn, "M4", calibration_batch, kernel="auto")
        report = ax.kernel_report()
        assert set(report) == {layer.name for layer in ax.compute_layers()}
        assert all("low-rank" in entry for entry in report.values())
        assert ax.kernel == "auto"

    def test_build_axdnn_rejects_unknown_kernel(self, tiny_cnn, calibration_batch):
        with pytest.raises(ConfigurationError):
            build_axdnn(tiny_cnn, "M4", calibration_batch, kernel="warp-drive")

    def test_layer_kernels_use_strategy_classes(self, tiny_cnn, calibration_batch):
        gather_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="gather")
        assert all(
            isinstance(layer.kernel, GatherKernel)
            for layer in gather_model.compute_layers()
        )
        ec_model = build_axdnn(
            tiny_cnn, "M2", calibration_batch, kernel="error-correction"
        )
        assert all(
            isinstance(layer.kernel, ErrorCorrectionKernel)
            for layer in ec_model.compute_layers()
        )
        exact_model = build_axdnn(tiny_cnn, "M1", calibration_batch, kernel="auto")
        assert all(
            isinstance(layer.kernel, ExactBLASKernel)
            for layer in exact_model.compute_layers()
        )
        from repro.axnn.kernels import NativeLUTKernel
        from repro.axnn.native import get_backend

        full_rank_class = (
            NativeLUTKernel if get_backend() is not None else SparseOneHotKernel
        )
        auto_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="auto")
        assert all(
            isinstance(layer.kernel, full_rank_class)
            for layer in auto_model.compute_layers()
        )
        sparse_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="sparse")
        assert all(
            isinstance(layer.kernel, SparseOneHotKernel)
            for layer in sparse_model.compute_layers()
        )


class TestProcessWideLUTCache:
    def test_same_object_across_instances(self):
        first = OperandTruncationMultiplier("cache-shared", 2, 2)
        second = OperandTruncationMultiplier("cache-shared", 2, 2)
        assert first.lut() is second.lut()

    def test_survives_instance_clear_cache(self):
        multiplier = OperandTruncationMultiplier("cache-survivor", 1, 1)
        table = multiplier.lut()
        multiplier.clear_cache()
        assert multiplier.lut() is table

    def test_different_parameters_do_not_collide(self):
        mild = OperandTruncationMultiplier("cache-params", 1, 1)
        harsh = OperandTruncationMultiplier("cache-params", 4, 4)
        assert not np.array_equal(mild.lut(), harsh.lut())

    def test_shared_tables_are_read_only(self):
        multiplier = OperandTruncationMultiplier("cache-frozen", 2, 2)
        with pytest.raises(ValueError):
            multiplier.lut()[0, 0] = 1

    def test_global_clear_forces_rebuild(self):
        multiplier = OperandTruncationMultiplier("cache-rebuild", 3, 3)
        table = multiplier.lut()
        assert global_lut_cache_size() > 0
        multiplier.clear_cache()
        clear_global_lut_cache()
        rebuilt = multiplier.lut()
        assert rebuilt is not table
        assert np.array_equal(rebuilt, table)

    def test_same_named_circuit_multipliers_do_not_collide(self):
        from repro.circuits.adders import (
            ApproximateMirrorAdder1,
            ApproximateMirrorAdder2,
        )
        from repro.circuits.array_multiplier import ArrayMultiplierCircuit
        from repro.multipliers.base import CircuitMultiplier

        first = CircuitMultiplier(
            "cache-circuit",
            ArrayMultiplierCircuit(
                width=8, approx_cell=ApproximateMirrorAdder1(), approx_columns=8
            ),
        )
        second = CircuitMultiplier(
            "cache-circuit",
            ArrayMultiplierCircuit(
                width=8, approx_cell=ApproximateMirrorAdder2(), approx_columns=6
            ),
        )
        assert first._lut_cache_key() != second._lut_cache_key()
        assert not np.array_equal(first.lut(), second.lut())

    def test_library_clear_cache_drops_kernel_profiles(self):
        from repro.multipliers import clear_cache, get_multiplier

        profile = multiplier_kernel_profile(get_multiplier("M4"))
        assert multiplier_kernel_profile(get_multiplier("M4")) is profile
        clear_cache()
        assert multiplier_kernel_profile(get_multiplier("M4")) is not profile


class TestInferenceCacheRelease:
    def test_predict_releases_conv_cols_cache(self, tiny_cnn, mnist_small):
        from repro.nn.layers.conv import Conv2D

        x = mnist_small.test.images[:4]
        tiny_cnn.predict(x)
        conv_layers = [l for l in tiny_cnn.layers if isinstance(l, Conv2D)]
        assert conv_layers
        assert all(l._cols_cache is None for l in conv_layers)

    def test_predict_releases_activation_and_pool_caches(self, mnist_small):
        from repro.nn import MaxPool2D, Sequential
        from repro.nn.layers.activations import ReLU

        model = Sequential(
            [ReLU(), MaxPool2D(pool_size=2)], input_shape=(28, 28, 1), seed=0
        )
        x = mnist_small.test.images[:4]
        model.predict(x)
        relu, pool = model.layers
        assert relu._mask is None
        assert pool._argmax is None
        # a plain forward (attack-gradient path) keeps the caches
        model.forward(x, training=False)
        assert relu._mask is not None
        assert pool._argmax is not None

    def test_input_gradient_still_works_after_predict(self, tiny_cnn, mnist_small):
        x = mnist_small.test.images[:4]
        y = mnist_small.test.labels[:4]
        tiny_cnn.predict(x)
        grad = tiny_cnn.input_gradient(x, y)
        assert grad.shape == x.shape
        assert np.any(grad != 0)
