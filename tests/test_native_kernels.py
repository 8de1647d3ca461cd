"""Tests for the compiled kernel tier (repro.axnn.native).

The native backend must be a drop-in for the pure-NumPy reference: the LUT
matmul and the col2im scatter-add must be *bit-identical* across dtypes,
shapes, strides and empty batches, ``kernel="auto"`` must degrade cleanly
when the C extension cannot be built, and backend resolution must be
thread-safe and resettable.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axnn import native
from repro.axnn.kernels import (
    NativeLUTKernel,
    _native_lut_peak,
    clear_profile_cache,
    make_kernel,
    normalize_strategy,
    select_strategy,
)
from repro.axnn.native import (
    BACKEND_ENV_VAR,
    backend_name,
    get_backend,
    native_fingerprint,
    requested_backend,
    reset_backend,
)
from repro.errors import ConfigurationError
from repro.multipliers import LUTMultiplier, get_multiplier
from repro.nn.functional import col2im, im2col
from repro.quantization.schemes import AffineQuantization

pytestmark = pytest.mark.skipif(
    get_backend() is None,
    reason="no native backend available on this host (no C compiler)",
)

RNG = np.random.default_rng(11)


@pytest.fixture
def clean_backend_state(monkeypatch):
    """Restore the resolved backend after tests that poke env/module state."""
    yield monkeypatch
    reset_backend()


def reference_matmul(codes, sign, mag, lut):
    lut64 = np.asarray(lut, dtype=np.int64)
    out = np.zeros((codes.shape[0], sign.shape[1]), dtype=np.int64)
    for m in range(codes.shape[0]):
        out[m] = (sign * lut64[codes[m][:, None], mag]).sum(axis=0)
    return out


def lut_problem(rng, m, k, n, lut_range):
    codes = rng.integers(0, 256, (m, k), dtype=np.int64)
    sign = rng.integers(-1, 2, (k, n), dtype=np.int64)
    mag = rng.integers(0, 256, (k, n), dtype=np.int64)
    table = rng.integers(-lut_range, lut_range + 1, (256, 256), dtype=np.int64)
    return codes, sign, mag, table


class TestNativeLUTMatmul:
    @given(
        m=st.integers(0, 17),
        k=st.integers(0, 40),
        n=st.integers(0, 300),
        seed=st.integers(0, 2**31),
        wide=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_across_shapes_and_lut_dtypes(self, m, k, n, seed, wide):
        # `wide` flips between int16-packable and int32-only LUT magnitudes,
        # covering both native entry points; m/k/n of 0 cover empty batches,
        # empty reductions and empty outputs
        rng = np.random.default_rng(seed)
        lut_range = 2_000_000 if wide else 30_000
        codes, sign, mag, table = lut_problem(rng, m, k, n, lut_range)
        multiplier = LUTMultiplier(f"native-prop-{seed}-{wide}", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        expected_bits = 32 if wide else 16
        assert f"int{expected_bits}" in kernel.describe()
        result = kernel.matmul(codes)
        assert result.dtype == np.int64
        assert np.array_equal(result, reference_matmul(codes, sign, mag, table))

    def test_bit_identity_on_strided_codes(self):
        # the kernel must cope with non-contiguous activation views (every
        # other row/column of a larger batch)
        codes, sign, mag, table = lut_problem(RNG, 24, 32, 48, 60_000)
        multiplier = LUTMultiplier("native-strided", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        strided = codes[::2]
        assert not strided.flags["C_CONTIGUOUS"] or strided.base is not None
        assert np.array_equal(
            kernel.matmul(strided), reference_matmul(strided, sign, mag, table)
        )

    def test_matches_gather_for_registry_multipliers(self):
        codes = RNG.integers(0, 256, (13, 29))
        sign = RNG.integers(-1, 2, (29, 21))
        mag = RNG.integers(0, 256, (29, 21))
        for label in ("M6", "M9", "A4", "mul8s_L1G"):
            multiplier = get_multiplier(label)
            nat = make_kernel(multiplier, sign, mag, "native")
            ref = make_kernel(multiplier, sign, mag, "gather")
            assert np.array_equal(nat.matmul(codes), ref.matmul(codes)), label

    def test_concurrent_matmul_is_deterministic(self):
        codes, sign, mag, table = lut_problem(RNG, 16, 24, 40, 50_000)
        multiplier = LUTMultiplier("native-threads", table)
        kernel = make_kernel(multiplier, sign, mag, "native")
        expected = reference_matmul(codes, sign, mag, table)
        results = [None] * 8
        threads = [
            threading.Thread(
                target=lambda i=i: results.__setitem__(i, kernel.matmul(codes))
            )
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert np.array_equal(result, expected)

    def test_rejects_out_of_range_codes(self):
        codes, sign, mag, table = lut_problem(RNG, 4, 8, 6, 100)
        kernel = make_kernel(LUTMultiplier("native-range", table), sign, mag, "native")
        bad = codes.copy()
        bad[0, 0] = 300
        with pytest.raises(ConfigurationError):
            kernel.matmul(bad)

    def test_wide_operands_are_never_native(self):
        # a 9-bit multiplier does not pack to uint8 codes: "auto" must pass
        # it over, and an explicit request must fail with the same message
        # the shared eligibility rule gives
        rng = np.random.default_rng(23)
        wide = LUTMultiplier("native-9bit", rng.integers(-1000, 1000, (512, 512)))
        assert select_strategy(wide) != "native"
        with pytest.raises(ConfigurationError) as rule:
            _native_lut_peak(wide)
        assert "packs operands to 8 bits" in str(rule.value)
        sign = rng.integers(-1, 2, (6, 4))
        mag = rng.integers(0, 512, (6, 4))
        with pytest.raises(ConfigurationError) as request:
            make_kernel(wide, sign, mag, "native")
        assert str(request.value) == str(rule.value)

    def test_strategy_aliases(self):
        assert normalize_strategy("native") == "native"
        assert normalize_strategy("compiled") == "native"


class TestNativeEdgeCases:
    """The pre-signed int32-accumulating loop at the edges of its layout:
    flush interval, two-row tail, column blocks, sign 0, narrow codes."""

    @pytest.mark.parametrize("peak, kc", [((1 << 31) - 1, 1), ((1 << 30) - 1, 2)])
    def test_flushes_before_int32_overflow(self, peak, kc):
        # every product near +peak and every sign +1: a sum of more than kc
        # products overflows int32, so only the flush keeps it exact
        rng = np.random.default_rng(13)
        codes = rng.integers(0, 256, (5, 37))
        table = rng.integers(peak - 1000, peak + 1, (256, 256))
        table[:, 0] = -peak
        sign = np.ones((37, 9), dtype=np.int64)
        mag = rng.integers(1, 256, (37, 9))
        kernel = make_kernel(LUTMultiplier("native-peak", table), sign, mag, "native")
        assert kernel._kc == kc
        result = kernel.matmul(codes)
        assert np.abs(result).max() >= 1 << 31
        assert np.array_equal(result, reference_matmul(codes, sign, mag, table))

    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("n", [5, 128, 300])
    def test_odd_rows_and_wide_outputs(self, m, n):
        # odd M ends in the one-row tail of the two-row loop; N > 128
        # spans several column blocks, the last one short
        codes, sign, mag, table = lut_problem(RNG, m, 23, n, 70_000)
        kernel = make_kernel(LUTMultiplier("native-tail", table), sign, mag, "native")
        assert np.array_equal(
            kernel.matmul(codes), reference_matmul(codes, sign, mag, table)
        )

    def test_sign_zero_contributes_nothing(self):
        # no LUT entry is zero, so a sign-0 weight may only read the zero
        # column of the pre-signed LUT
        rng = np.random.default_rng(17)
        codes = rng.integers(0, 256, (6, 31))
        table = rng.integers(1, 5_000, (256, 256))
        sign = rng.integers(-1, 2, (31, 12))
        sign[:, :4] = 0
        mag = rng.integers(0, 256, (31, 12))
        kernel = make_kernel(LUTMultiplier("native-sign0", table), sign, mag, "native")
        result = kernel.matmul(codes)
        assert np.array_equal(result, reference_matmul(codes, sign, mag, table))
        assert not result[:, :4].any()

    def test_uint8_codes_are_range_checked_below_8_bits(self):
        # a 4-bit multiplier takes codes 0..15: uint8 codes can exceed that,
        # so they must be checked rather than passed straight to the loop
        rng = np.random.default_rng(19)
        table = rng.integers(-500, 500, (16, 16))
        sign = rng.integers(-1, 2, (10, 7))
        mag = rng.integers(0, 16, (10, 7))
        kernel = make_kernel(LUTMultiplier("native-4bit", table), sign, mag, "native")
        codes = rng.integers(0, 16, (4, 10)).astype(np.uint8)
        assert np.array_equal(
            kernel.matmul(codes), reference_matmul(codes, sign, mag, table)
        )
        codes[2, 3] = 16
        with pytest.raises(ConfigurationError):
            kernel.matmul(codes)


class TestNativeCol2Im:
    @given(
        batch=st.integers(0, 4),
        size=st.integers(4, 12),
        channels=st.integers(1, 4),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        padding=st.integers(0, 3),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identity_across_geometries(
        self, batch, size, channels, kernel, stride, padding, seed
    ):
        if size + 2 * padding < kernel:
            return
        rng = np.random.default_rng(seed)
        out_size = (size + 2 * padding - kernel) // stride + 1
        cols = rng.standard_normal(
            (batch, out_size, out_size, kernel * kernel * channels)
        )
        shape = (batch, size, size, channels)
        with_native = col2im(cols, shape, kernel, kernel, stride, padding)
        reference = _reference_col2im(cols, shape, kernel, kernel, stride, padding)
        assert np.array_equal(with_native, reference)

    def test_roundtrip_with_im2col(self):
        x = RNG.standard_normal((3, 10, 10, 2))
        cols = im2col(x, 3, 3, 1, 1)
        ones = np.ones_like(cols)
        counts = col2im(ones, x.shape, 3, 3, 1, 1)
        # interior pixels are covered by all 9 kernel offsets
        assert np.all(counts[:, 2:-2, 2:-2, :] == 9.0)

    def test_out_hook_uses_native_and_matches(self):
        # the arena path hands in a preallocated padded buffer; the native
        # scatter must fill it and return the same unpadded view contract
        cols = RNG.standard_normal((2, 5, 5, 3 * 3 * 4))
        shape = (2, 9, 9, 4)
        out = np.full((2, 11, 11, 4), 7.0)  # dirty buffer: col2im must zero it
        result = col2im(cols, shape, 3, 3, 2, 1, out=out)
        assert result.base is out or result is out
        assert np.array_equal(
            result, _reference_col2im(cols, shape, 3, 3, 2, 1)
        )

    def test_non_contiguous_cols_fall_back_and_match(self):
        cols_wide = RNG.standard_normal((2, 4, 4, 2 * 2 * 3 * 2))
        cols = cols_wide[..., : 2 * 2 * 3]  # non-contiguous trailing slice
        assert not cols.flags["C_CONTIGUOUS"]
        shape = (2, 8, 8, 3)
        assert np.array_equal(
            col2im(cols, shape, 2, 2, 2, 0),
            _reference_col2im(cols, shape, 2, 2, 2, 0),
        )


def _reference_col2im(cols, input_shape, kernel_h, kernel_w, stride, padding):
    """The pure-NumPy scatter loop, inlined so the test cannot be fooled by
    the production dispatch."""
    batch, height, width, channels = input_shape
    out_h = cols.shape[1]
    out_w = cols.shape[2]
    x_padded = np.zeros(
        (batch, height + 2 * padding, width + 2 * padding, channels),
        dtype=cols.dtype,
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            offset = (i * kernel_w + j) * channels
            x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ] += cols[..., offset : offset + channels]
    if padding == 0:
        return x_padded
    return x_padded[:, padding:-padding, padding:-padding, :]


class TestBackendResolution:
    def test_requested_backend_normalisation(self, clean_backend_state):
        monkeypatch = clean_backend_state
        for raw, expected in (("auto", "auto"), ("", "auto"), ("numpy", "numpy")):
            monkeypatch.setenv(BACKEND_ENV_VAR, raw)
            assert requested_backend() == expected

    def test_invalid_backend_fails_loudly(self, clean_backend_state):
        monkeypatch = clean_backend_state
        for raw in ("warp-drive", "numba", "cext", "off"):
            monkeypatch.setenv(BACKEND_ENV_VAR, raw)
            reset_backend()
            with pytest.raises(ConfigurationError):
                get_backend()

    def test_numpy_backend_disables_native(self, clean_backend_state):
        monkeypatch = clean_backend_state
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        reset_backend()
        assert get_backend() is None
        assert backend_name() == "numpy"
        assert select_strategy(get_multiplier("M6")) in ("sparse", "gather")
        with pytest.raises(ConfigurationError):
            make_kernel(
                get_multiplier("M6"),
                RNG.integers(-1, 2, (8, 4)),
                RNG.integers(0, 256, (8, 4)),
                "native",
            )

    def test_auto_degrades_to_numpy_when_everything_is_absent(
        self, clean_backend_state
    ):
        # the C extension refuses to build: "auto" must resolve to the
        # reference path and kernels must still work
        monkeypatch = clean_backend_state
        from repro.axnn.native import cext

        def refuse(path=None):
            raise cext.NativeBuildError("simulated: no compiler")

        monkeypatch.setattr(cext, "load_library", refuse)
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        reset_backend()
        assert get_backend() is None
        assert select_strategy(get_multiplier("M6")) in ("sparse", "gather")
        sign = RNG.integers(-1, 2, (12, 6))
        mag = RNG.integers(0, 256, (12, 6))
        codes = RNG.integers(0, 256, (5, 12))
        auto_kernel = make_kernel(get_multiplier("M6"), sign, mag, "auto")
        gather = make_kernel(get_multiplier("M6"), sign, mag, "gather")
        assert np.array_equal(auto_kernel.matmul(codes), gather.matmul(codes))

    def test_first_touch_resolution_is_thread_safe(self, clean_backend_state):
        monkeypatch = clean_backend_state
        calls = []
        original = native._resolve

        def counting_resolve():
            calls.append(threading.get_ident())
            return original()

        monkeypatch.setattr(native, "_resolve", counting_resolve)
        reset_backend()
        barrier = threading.Barrier(8)
        results = [None] * 8

        def resolve(index):
            barrier.wait()
            results[index] = get_backend()

        threads = [
            threading.Thread(target=resolve, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert all(result is results[0] for result in results)

    def test_clear_profile_cache_resets_native_state(self, clean_backend_state):
        monkeypatch = clean_backend_state
        assert get_backend() is not None
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        # still cached: env change alone must not flip the resolved backend
        assert get_backend() is not None
        clear_profile_cache()
        assert get_backend() is None

    def test_native_fingerprint_keys(self):
        fingerprint = native_fingerprint()
        assert fingerprint["kernel_backend"] in ("cext", "numpy")
        assert set(fingerprint) == {"kernel_backend", "kernel_backend_env"}

    def test_env_fingerprint_includes_backend(self):
        from repro.benchmarking.report import env_fingerprint

        fingerprint = env_fingerprint()
        assert fingerprint["kernel_backend"] in ("cext", "numpy")
        assert fingerprint["kernel_backend"] == backend_name()
        assert "kernel_backend_env" in fingerprint
        assert "numba" not in fingerprint


class TestNativeEndToEnd:
    def test_axdnn_predictions_match_reference_backend(
        self, tiny_cnn, calibration_batch, mnist_small, clean_backend_state
    ):
        from repro.axnn import build_axdnn

        monkeypatch = clean_backend_state
        x = mnist_small.test.images[:32]
        native_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="native")
        native_logits = native_model.predict(x)
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        clear_profile_cache()
        reference_model = build_axdnn(tiny_cnn, "M6", calibration_batch, kernel="auto")
        assert np.array_equal(reference_model.predict(x), native_logits)

    def test_quantize_matches_scheme(self):
        # the packed uint8 codes the native kernel consumes are exactly the
        # scheme's int64 codes (the kernel validates the range first)
        scheme = AffineQuantization(scale=0.037, zero_point=3, bits=8)
        x = RNG.standard_normal((6, 9))
        codes = scheme.quantize(x)
        assert codes.min() >= 0 and codes.max() <= 255
