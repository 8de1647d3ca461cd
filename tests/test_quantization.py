"""Tests for fixed-point quantization schemes and calibration."""

import numpy as np
import pytest

from repro.errors import CalibrationError, ConfigurationError
from repro.quantization import (
    ActivationObserver,
    AffineQuantization,
    LayerQuantizationConfig,
    QuantizationConfig,
    SymmetricQuantization,
    calibrate_affine,
    calibrate_symmetric,
)


class TestAffineQuantization:
    def test_quantize_bounds(self):
        scheme = AffineQuantization(scale=1 / 255, zero_point=0, bits=8)
        codes = scheme.quantize(np.array([0.0, 0.5, 1.0, 2.0, -1.0]))
        assert codes.min() >= 0
        assert codes.max() <= 255

    def test_roundtrip_error_bounded_by_half_scale(self):
        scheme = AffineQuantization(scale=0.01, zero_point=10, bits=8)
        values = np.linspace(-0.05, 2.0, 200)
        recovered = scheme.round_trip(values)
        in_range = (values >= scheme.dequantize(0)) & (values <= scheme.dequantize(255))
        assert np.all(np.abs(recovered[in_range] - values[in_range]) <= 0.005 + 1e-12)

    def test_zero_point_maps_zero(self):
        scheme = AffineQuantization(scale=0.02, zero_point=17, bits=8)
        assert scheme.quantize(np.array([0.0]))[0] == 17
        assert scheme.dequantize(np.array([17]))[0] == pytest.approx(0.0)

    def test_qmax(self):
        assert AffineQuantization(scale=1.0, zero_point=0, bits=4).qmax == 15

    def test_rejects_bad_scale(self):
        with pytest.raises(ConfigurationError):
            AffineQuantization(scale=0.0, zero_point=0)

    def test_rejects_bad_zero_point(self):
        with pytest.raises(ConfigurationError):
            AffineQuantization(scale=1.0, zero_point=300, bits=8)


class TestSymmetricQuantization:
    def test_quantize_symmetric_range(self):
        scheme = SymmetricQuantization(scale=0.1, bits=8)
        codes = scheme.quantize(np.array([-100.0, 0.0, 100.0]))
        assert codes.min() == -127
        assert codes.max() == 127

    def test_roundtrip_small_error(self):
        scheme = SymmetricQuantization(scale=0.01, bits=8)
        values = np.linspace(-1.2, 1.2, 100)
        recovered = scheme.round_trip(values)
        clipped = np.clip(values, -1.27, 1.27)
        assert np.all(np.abs(recovered - clipped) <= 0.005 + 1e-12)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            SymmetricQuantization(scale=1.0, bits=1)


def _old_affine_quantize(scheme, x):
    """The allocate-per-step formula ``quantize`` replaced; the reference."""
    q = np.round(np.asarray(x, dtype=np.float64) / scheme.scale) + scheme.zero_point
    return np.clip(q, 0, scheme.qmax).astype(np.int64)


def _old_symmetric_quantize(scheme, x):
    q = np.round(np.asarray(x, dtype=np.float64) / scheme.scale)
    return np.clip(q, -scheme.qmax, scheme.qmax).astype(np.int64)


#: power-of-two scales keep ``x / scale`` exact, so the tie inputs really
#: land on ``k + 0.5``
SCHEMES = [
    (AffineQuantization(scale=0.125, zero_point=3), _old_affine_quantize),
    (AffineQuantization(scale=1.0, zero_point=7, bits=4), _old_affine_quantize),
    (SymmetricQuantization(scale=0.0625), _old_symmetric_quantize),
    (SymmetricQuantization(scale=1.0, bits=4), _old_symmetric_quantize),
]


def test_scalar_quantize_returns_numpy_int64():
    assert AffineQuantization(0.1, 3).quantize(0.5) == np.int64(8)
    assert isinstance(AffineQuantization(0.1, 3).quantize(0.5), np.int64)
    assert isinstance(SymmetricQuantization(0.1).quantize(-0.5), np.int64)


@pytest.mark.parametrize(
    "scheme, reference", SCHEMES, ids=lambda v: getattr(v, "__name__", repr(v))
)
class TestQuantizeMatchesReferenceFormula:
    """The in-place ``quantize`` (divide once, then ``rint``/shift/``clip``
    in place) returns what the old formula returned, dtype and type too."""

    def _check(self, scheme, reference, x):
        got = scheme.quantize(x)
        expected = reference(scheme, x)
        assert type(got) is type(expected)
        assert got.dtype == np.int64
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)
        return got

    def test_python_scalar(self, scheme, reference):
        for value in (0.5, -0.35, 0.0, 3, 1e9):
            got = self._check(scheme, reference, value)
            assert isinstance(got, np.int64)

    def test_zero_dim_array(self, scheme, reference):
        got = self._check(scheme, reference, np.asarray(0.25))
        assert isinstance(got, np.int64)

    def test_empty_input(self, scheme, reference):
        for x in (np.array([]), np.zeros((0, 5)), []):
            self._check(scheme, reference, x)

    def test_half_way_ties_round_to_even(self, scheme, reference):
        ties = np.arange(-6, 7) + 0.5
        halves = ties * scheme.scale
        assert np.array_equal(halves / scheme.scale, ties)
        got = self._check(scheme, reference, halves)
        even = np.array([-6, -4, -4, -2, -2, 0, 0, 2, 2, 4, 4, 6, 6])  # half to even
        shift = getattr(scheme, "zero_point", 0)
        lower = 0 if hasattr(scheme, "zero_point") else -scheme.qmax
        assert np.array_equal(got, np.clip(even + shift, lower, scheme.qmax))

    def test_values_outside_code_range(self, scheme, reference):
        x = np.array([-1e6, -50.0, -1.0, 0.0, 1.0, 50.0, 1e6, np.inf, -np.inf])
        got = self._check(scheme, reference, x.reshape(3, 3))
        assert got.min() >= (0 if hasattr(scheme, "zero_point") else -scheme.qmax)
        assert got.max() <= scheme.qmax

    def test_input_is_not_modified(self, scheme, reference):
        x = np.linspace(-2.0, 30.0, 24).reshape(4, 6)
        before = x.copy()
        self._check(scheme, reference, x)
        assert np.array_equal(x, before)


class TestCalibration:
    def test_affine_covers_range(self):
        rng = np.random.default_rng(0)
        data = rng.uniform(0.0, 3.0, size=1000)
        scheme = calibrate_affine(data, bits=8)
        codes = scheme.quantize(data)
        assert codes.max() == 255 or data.max() < scheme.dequantize(255)
        assert np.all(np.abs(scheme.round_trip(data) - data) <= scheme.scale)

    def test_affine_includes_zero(self):
        data = np.array([1.0, 2.0, 3.0])
        scheme = calibrate_affine(data)
        # zero must be representable (activations after ReLU include 0)
        assert scheme.dequantize(scheme.quantize(np.array([0.0])))[0] == pytest.approx(
            0.0, abs=scheme.scale
        )

    def test_symmetric_covers_negative(self):
        data = np.array([-4.0, 2.0])
        scheme = calibrate_symmetric(data)
        assert np.abs(scheme.round_trip(data) - data).max() <= scheme.scale

    def test_empty_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_affine(np.array([]))
        with pytest.raises(CalibrationError):
            calibrate_symmetric(np.array([]))

    def test_constant_zero_tensor(self):
        scheme = calibrate_affine(np.zeros(10))
        assert scheme.quantize(np.zeros(3)).tolist() == [scheme.zero_point] * 3


class TestActivationObserver:
    def test_tracks_min_max_over_batches(self):
        observer = ActivationObserver()
        observer.update(np.array([0.1, 0.5]))
        observer.update(np.array([0.9, 0.2]))
        scheme = observer.affine_scheme(bits=8)
        assert scheme.dequantize(255) >= 0.9 - 1e-9
        assert observer.observed_batches == 2

    def test_unseen_observer_raises(self):
        with pytest.raises(CalibrationError):
            ActivationObserver().affine_scheme()

    def test_empty_update_ignored(self):
        observer = ActivationObserver()
        observer.update(np.array([]))
        assert observer.observed_batches == 0


class TestModelConfig:
    def test_layer_config_calibrate(self):
        config = LayerQuantizationConfig.calibrate(
            activations=np.array([0.0, 1.0]), weights=np.array([-0.5, 0.5])
        )
        assert config.activation.bits == 8
        assert config.weight.bits == 8

    def test_quantization_config_lookup(self):
        config = QuantizationConfig()
        layer = LayerQuantizationConfig.calibrate(np.array([0.0, 1.0]), np.array([0.3]))
        config.add_layer("conv1", layer)
        assert "conv1" in config
        assert len(config) == 1
        assert config.layer("conv1") is layer

    def test_missing_layer_raises(self):
        with pytest.raises(CalibrationError):
            QuantizationConfig().layer("missing")
