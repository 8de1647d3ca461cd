"""Inference-only layers of the approximate DNN (AxDNN).

An AxDNN is built from a trained float model by
:func:`repro.axnn.engine.build_axdnn`: compute layers (convolutions and dense
layers) become :class:`AxConv2D` / :class:`AxDense`, which quantize their
inputs and weights to 8-bit fixed point and evaluate every product through
the configured approximate multiplier; all other layers (activations,
pooling, flatten, dropout, batch-norm) keep their float behaviour in
evaluation mode via :class:`PassthroughLayer`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.axnn.approx_ops import (
    quantize_weights_sign_magnitude,
    zero_point_correction_vector,
)
from repro.axnn.kernels import KernelSpec, make_kernel
from repro.errors import ShapeError
from repro.multipliers.base import Multiplier
from repro.nn.functional import im2col_strided
from repro.nn.layers.base import Layer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.quantization.schemes import AffineQuantization


def _narrow_codes(scheme: AffineQuantization, x: np.ndarray) -> np.ndarray:
    """``scheme.quantize(x)`` in the smallest unsigned dtype holding every
    code ``0 .. scheme.qmax`` (uint8 for 8 bits, uint16 up to 16)."""
    dtype = np.uint8 if scheme.qmax <= np.iinfo(np.uint8).max else np.uint16
    return scheme.quantize(x).astype(dtype)


class AxLayer:
    """Base class for inference-only AxDNN layers."""

    def __init__(self, name: str) -> None:
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class _KernelLayer(AxLayer):
    """Shared epilogue of the compute layers (:class:`AxDense`,
    :class:`AxConv2D`)."""

    def _dequantize_accumulator(self, codes: np.ndarray) -> np.ndarray:
        """Float pre-bias output ``(M, N)`` for activation codes ``(M, K)``.

        The kernel hands back a fresh int64 accumulator (see
        :meth:`repro.axnn.kernels.MatmulKernel.matmul`), so the zero-point
        correction is subtracted in place; the scale multiply allocates the
        float64 result the caller then finishes in place.
        """
        accumulator = self.kernel.matmul(codes)
        zero_point = self.activation_scheme.zero_point
        if zero_point:
            accumulator -= zero_point * self._zero_point_correction
        return accumulator * (self.activation_scheme.scale * self.weight_scale)


class PassthroughLayer(AxLayer):
    """Wraps a float layer, evaluated in inference mode."""

    def __init__(self, layer: Layer) -> None:
        super().__init__(layer.name)
        self.layer = layer

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.layer.forward(x, training=False)


class AxDense(_KernelLayer):
    """Quantized dense layer evaluated through an approximate multiplier."""

    def __init__(
        self,
        source: Dense,
        multiplier: Multiplier,
        activation_scheme: AffineQuantization,
        weight_bits: int = 8,
        kernel: KernelSpec = "auto",
    ) -> None:
        super().__init__(f"ax_{source.name}")
        self.multiplier = multiplier
        self.activation_scheme = activation_scheme
        weight = source.params["weight"]
        self.weight_sign, self.weight_magnitude, self.weight_scale = (
            quantize_weights_sign_magnitude(weight, bits=weight_bits)
        )
        self.bias = source.params.get("bias")
        self.units = source.units
        # Bound kernel and zero-point correction are built once per layer:
        # the weights are constant during inference, so every per-weight
        # table (per-code factors, signed-weight BLAS operand, correction
        # vector) is paid for here instead of on every forward call.
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )

    def input_codes(self, x: np.ndarray) -> np.ndarray:
        """Narrow activation codes ``(B, K)`` for ``x`` — shareable across
        panel victims whose layers use the same quantization scheme."""
        if x.ndim != 2:
            raise ShapeError(f"{self.name}: expected 2-D input, got {x.shape}")
        return _narrow_codes(self.activation_scheme, x)

    def forward_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Evaluate the layer from precomputed activation codes.

        ``forward`` is exactly ``forward_from_codes(input_codes(x))``; the
        split lets :class:`repro.axnn.panel.VictimPanel` quantize once and
        feed every victim's LUT product from the shared codes.
        """
        y = self._dequantize_accumulator(codes)
        if self.bias is not None:
            y += self.bias
        return y

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_from_codes(self.input_codes(x))


class AxConv2D(_KernelLayer):
    """Quantized 2-D convolution evaluated through an approximate multiplier."""

    def __init__(
        self,
        source: Conv2D,
        multiplier: Multiplier,
        activation_scheme: AffineQuantization,
        weight_bits: int = 8,
        kernel: KernelSpec = "auto",
    ) -> None:
        super().__init__(f"ax_{source.name}")
        self.multiplier = multiplier
        self.activation_scheme = activation_scheme
        self.kernel_size = source.kernel_size
        self.stride = source.stride
        self.pad_amount = source.pad_amount
        self.filters = source.filters
        flattened = source.flattened_weight()  # (kh*kw*cin, filters)
        self.weight_sign, self.weight_magnitude, self.weight_scale = (
            quantize_weights_sign_magnitude(flattened, bits=weight_bits)
        )
        self.bias = source.params.get("bias")
        self.kernel = make_kernel(
            multiplier, self.weight_sign, self.weight_magnitude, kernel
        )
        self._zero_point_correction = zero_point_correction_vector(
            self.weight_sign, self.weight_magnitude
        )

    @property
    def geometry(self) -> tuple:
        """Patch-extraction geometry; victims with equal geometry and scheme
        share one code-patch matrix per batch."""
        return (self.kernel_size, self.stride, self.pad_amount)

    def input_codes(self, x: np.ndarray) -> np.ndarray:
        """The narrow code-patch matrix ``(B, OH, OW, K)`` for ``x``.

        Quantizes the ``(B, H, W, C)`` input first, pads with the code
        ``zero_point`` and only then extracts patches, so im2col copies one
        or two bytes per element instead of eight.  Element for element this
        is ``quantize(im2col_strided(x, ...))``: im2col only copies
        elements, and ``quantize(0.0) == zero_point`` for the zero padding.
        """
        if x.ndim != 4:
            raise ShapeError(f"{self.name}: expected NHWC input, got {x.shape}")
        codes = _narrow_codes(self.activation_scheme, x)
        pad = self.pad_amount
        if pad:
            batch, height, width, channels = codes.shape
            padded = np.full(
                (batch, height + 2 * pad, width + 2 * pad, channels),
                self.activation_scheme.zero_point,
                dtype=codes.dtype,
            )
            padded[:, pad:-pad, pad:-pad] = codes
            codes = padded
        return im2col_strided(
            codes, self.kernel_size, self.kernel_size, self.stride, 0
        )

    def forward_from_codes(self, codes: np.ndarray) -> np.ndarray:
        """Evaluate the layer from a precomputed code-patch matrix.

        ``forward`` is exactly ``forward_from_codes(input_codes(x))``; the
        split is what the fused multi-victim panel exploits.
        """
        batch, out_h, out_w, patch = codes.shape
        y = self._dequantize_accumulator(codes.reshape(-1, patch))
        y = y.reshape(batch, out_h, out_w, self.filters)
        if self.bias is not None:
            y += self.bias
        return y

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_from_codes(self.input_codes(x))
