"""Tests for the approximate inference engine (approx ops, layers, engine)."""

import numpy as np
import pytest

from repro.axnn import (
    AxConv2D,
    AxDense,
    AxModel,
    approx_dot_general,
    approx_matmul,
    build_axdnn,
    build_quantized_accurate,
    exact_matmul,
    quantize_weights_sign_magnitude,
)
from repro.axnn.layers import PassthroughLayer
from repro.errors import ConfigurationError, ShapeError
from repro.multipliers import get_multiplier
from repro.multipliers.behavioral import ExactMultiplier, OperandTruncationMultiplier
from repro.nn import Conv2D, Dense, Flatten, ReLU, Sequential
from repro.nn.functional import im2col_strided
from repro.quantization.schemes import AffineQuantization

RNG = np.random.default_rng(0)


class TestWeightQuantization:
    def test_roundtrip_error_bounded(self):
        weights = RNG.normal(scale=0.2, size=(20, 10))
        sign, magnitude, scale = quantize_weights_sign_magnitude(weights)
        recovered = sign * magnitude * scale
        assert np.abs(recovered - weights).max() <= scale / 2 + 1e-12

    def test_magnitude_range(self):
        weights = RNG.normal(size=(50, 5))
        _, magnitude, _ = quantize_weights_sign_magnitude(weights, bits=8)
        assert magnitude.min() >= 0
        assert magnitude.max() <= 255

    def test_sign_values(self):
        sign, _, _ = quantize_weights_sign_magnitude(np.array([[-1.0, 0.0, 1.0]]))
        assert set(np.unique(sign)).issubset({-1, 0, 1})

    def test_zero_weights(self):
        sign, magnitude, scale = quantize_weights_sign_magnitude(np.zeros((3, 3)))
        assert not np.any(magnitude)
        assert scale > 0


class TestApproxMatmul:
    def test_exact_lut_matches_integer_matmul(self):
        multiplier = ExactMultiplier()
        a = RNG.integers(0, 256, size=(7, 12))
        w = RNG.integers(-255, 256, size=(12, 5))
        sign, magnitude = np.sign(w), np.abs(w)
        via_lut = approx_matmul(a, sign, magnitude, multiplier.lut())
        assert np.array_equal(via_lut, a @ w)

    def test_exact_fastpath_matches_lut_path(self):
        a = RNG.integers(0, 256, size=(4, 9))
        w = RNG.integers(-255, 256, size=(9, 3))
        sign, magnitude = np.sign(w), np.abs(w)
        assert np.array_equal(
            exact_matmul(a, sign, magnitude),
            approx_matmul(a, sign, magnitude, ExactMultiplier().lut()),
        )

    def test_chunking_does_not_change_result(self):
        multiplier = ExactMultiplier()
        a = RNG.integers(0, 256, size=(40, 16))
        w = RNG.integers(-255, 256, size=(16, 8))
        sign, magnitude = np.sign(w), np.abs(w)
        full = approx_matmul(a, sign, magnitude, multiplier.lut())
        chunked = approx_matmul(a, sign, magnitude, multiplier.lut(), chunk_elements=64)
        assert np.array_equal(full, chunked)

    def test_approximate_multiplier_changes_products(self):
        multiplier = OperandTruncationMultiplier("t33", 3, 3)
        a = RNG.integers(0, 256, size=(6, 20))
        w = RNG.integers(-255, 256, size=(20, 4))
        sign, magnitude = np.sign(w), np.abs(w)
        approx = approx_matmul(a, sign, magnitude, multiplier.lut())
        assert not np.array_equal(approx, a @ w)

    def test_zero_point_correction(self):
        multiplier = ExactMultiplier()
        a = RNG.integers(0, 256, size=(5, 8))
        w = RNG.integers(-255, 256, size=(8, 3))
        sign, magnitude = np.sign(w), np.abs(w)
        zero_point = 7
        corrected = approx_dot_general(a, sign, magnitude, multiplier, zero_point)
        assert np.array_equal(corrected, (a - zero_point) @ w)

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            approx_matmul(
                np.zeros((2, 3), dtype=int),
                np.zeros((4, 2), dtype=int),
                np.zeros((4, 2), dtype=int),
                ExactMultiplier().lut(),
            )


class TestAxLayers:
    def _dense_pair(self):
        layer = Dense(4)
        layer.build((6,), np.random.default_rng(0))
        scheme = AffineQuantization(scale=1.0 / 255.0, zero_point=0, bits=8)
        return layer, scheme

    def test_axdense_close_to_float_with_exact_multiplier(self):
        layer, scheme = self._dense_pair()
        ax = AxDense(layer, ExactMultiplier(), scheme)
        x = RNG.random((5, 6))
        float_out = layer.forward(x)
        ax_out = ax.forward(x)
        assert np.abs(float_out - ax_out).max() < 0.05

    def test_axdense_rejects_bad_rank(self):
        layer, scheme = self._dense_pair()
        ax = AxDense(layer, ExactMultiplier(), scheme)
        with pytest.raises(ShapeError):
            ax.forward(np.zeros((2, 3, 2)))

    def test_axconv_close_to_float_with_exact_multiplier(self):
        conv = Conv2D(3, kernel_size=3)
        conv.build((6, 6, 2), np.random.default_rng(0))
        scheme = AffineQuantization(scale=1.0 / 255.0, zero_point=0, bits=8)
        ax = AxConv2D(conv, ExactMultiplier(), scheme)
        x = RNG.random((2, 6, 6, 2))
        assert np.abs(conv.forward(x) - ax.forward(x)).max() < 0.1

    def test_axconv_preserves_geometry(self):
        conv = Conv2D(5, kernel_size=3, stride=2, padding="same")
        conv.build((8, 8, 3), np.random.default_rng(0))
        scheme = AffineQuantization(scale=1.0 / 255.0, zero_point=0, bits=8)
        ax = AxConv2D(conv, ExactMultiplier(), scheme)
        x = RNG.random((2, 8, 8, 3))
        assert ax.forward(x).shape == conv.forward(x).shape

    def test_passthrough_wraps_float_layer(self):
        relu = ReLU()
        wrapped = PassthroughLayer(relu)
        x = RNG.normal(size=(3, 4))
        assert np.array_equal(wrapped.forward(x), np.maximum(x, 0.0))


class TestInputCodes:
    """The layers quantize before extracting patches and keep the codes in
    the narrowest dtype holding the scheme's range."""

    @pytest.mark.parametrize(
        "kernel_size, padding", [(3, "valid"), (3, "same"), (5, "same")]
    )
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("bits, dtype", [(8, np.uint8), (10, np.uint16)])
    def test_conv_codes_are_quantized_float_patches(
        self, kernel_size, padding, stride, bits, dtype
    ):
        # pad 0 / 1 / 2; inputs straddle zero, so zero_point > 0 and a
        # zero-padded border must come out as the zero-point code
        conv = Conv2D(4, kernel_size=kernel_size, stride=stride, padding=padding)
        conv.build((9, 9, 3), np.random.default_rng(1))
        qmax = (1 << bits) - 1
        scheme = AffineQuantization(scale=3.0 / qmax, zero_point=qmax // 3, bits=bits)
        ax = AxConv2D(conv, ExactMultiplier(), scheme)
        x = np.random.default_rng(2).normal(size=(2, 9, 9, 3))
        codes = ax.input_codes(x)
        expected = scheme.quantize(
            im2col_strided(x, kernel_size, kernel_size, stride, conv.pad_amount)
        )
        assert codes.dtype == dtype
        assert codes.shape == expected.shape
        assert np.array_equal(codes, expected)

    @pytest.mark.parametrize("bits, dtype", [(8, np.uint8), (12, np.uint16)])
    def test_dense_codes_are_narrow(self, bits, dtype):
        layer = Dense(4)
        layer.build((6,), np.random.default_rng(0))
        qmax = (1 << bits) - 1
        scheme = AffineQuantization(scale=2.0 / qmax, zero_point=qmax // 2, bits=bits)
        ax = AxDense(layer, ExactMultiplier(), scheme)
        x = RNG.normal(size=(5, 6))
        codes = ax.input_codes(x)
        assert codes.dtype == dtype
        assert np.array_equal(codes, scheme.quantize(x))


class TestEngine:
    def test_quantized_accurate_close_to_float(self, tiny_cnn, mnist_small, calibration_batch):
        quantized = build_quantized_accurate(tiny_cnn, calibration_batch)
        x = mnist_small.test.images[:40]
        y = mnist_small.test.labels[:40]
        float_acc = np.mean(tiny_cnn.predict_classes(x) == y)
        quant_acc = quantized.accuracy(x, y)
        assert abs(float_acc - quant_acc) <= 0.1

    def test_low_error_axdnn_close_to_quantized(self, tiny_cnn, mnist_small, calibration_batch):
        ax = build_axdnn(tiny_cnn, "M2", calibration_batch)
        quantized = build_quantized_accurate(tiny_cnn, calibration_batch)
        x = mnist_small.test.images[:40]
        y = mnist_small.test.labels[:40]
        assert abs(ax.accuracy(x, y) - quantized.accuracy(x, y)) <= 0.1

    def test_high_error_axdnn_degrades(self, tiny_cnn, mnist_small, calibration_batch, approx_tiny_m8):
        quantized = build_quantized_accurate(tiny_cnn, calibration_batch)
        x = mnist_small.test.images[:60]
        y = mnist_small.test.labels[:60]
        assert approx_tiny_m8.accuracy(x, y) <= quantized.accuracy(x, y) + 0.05

    def test_accepts_multiplier_instances_and_labels(self, tiny_cnn, calibration_batch):
        by_label = build_axdnn(tiny_cnn, "M4", calibration_batch)
        by_instance = build_axdnn(tiny_cnn, get_multiplier("M4"), calibration_batch)
        assert by_label.multiplier.name == by_instance.multiplier.name

    def test_compute_layers_replaced(self, tiny_cnn, calibration_batch):
        ax = build_axdnn(tiny_cnn, "M4", calibration_batch)
        n_compute_float = sum(
            isinstance(l, (Conv2D, Dense)) for l in tiny_cnn.layers
        )
        assert len(ax.compute_layers()) == n_compute_float
        assert len(ax.layers) == len(tiny_cnn.layers)

    def test_convolution_only_mode_keeps_dense_exact(self, tiny_cnn, calibration_batch):
        ax = build_axdnn(tiny_cnn, "M8", calibration_batch, convolution_only=True)
        dense_layers = [l for l in ax.compute_layers() if isinstance(l, AxDense)]
        conv_layers = [l for l in ax.compute_layers() if isinstance(l, AxConv2D)]
        assert all(l.multiplier.is_exact() for l in dense_layers)
        assert all(not l.multiplier.is_exact() for l in conv_layers)

    def test_per_layer_override(self, tiny_cnn, calibration_batch):
        first_conv = next(l for l in tiny_cnn.layers if isinstance(l, Conv2D))
        ax = build_axdnn(
            tiny_cnn,
            "M1",
            calibration_batch,
            per_layer_multipliers={first_conv.name: "M8"},
        )
        ax_first = next(l for l in ax.compute_layers() if l.name == f"ax_{first_conv.name}")
        assert not ax_first.multiplier.is_exact()

    def test_predict_batching_consistent(self, approx_tiny_m8, mnist_small):
        x = mnist_small.test.images[:30]
        a = approx_tiny_m8.predict(x, batch_size=7)
        b = approx_tiny_m8.predict(x, batch_size=30)
        assert np.allclose(a, b)

    def test_accuracy_percent_scaling(self, quantized_tiny, mnist_small):
        x = mnist_small.test.images[:20]
        y = mnist_small.test.labels[:20]
        assert quantized_tiny.accuracy_percent(x, y) == pytest.approx(
            quantized_tiny.accuracy(x, y) * 100.0
        )

    def test_requires_calibration_data(self, tiny_cnn):
        with pytest.raises(ConfigurationError):
            build_axdnn(tiny_cnn, "M1", np.empty((0, 28, 28, 1)))

    def test_axmodel_repr_mentions_multiplier(self, approx_tiny_m8):
        assert "mul8u" in repr(approx_tiny_m8)
        assert isinstance(approx_tiny_m8, AxModel)
