"""Low-level tensor operations shared by the layers.

All image tensors use the NHWC layout ``(batch, height, width, channels)``.
``im2col``/``col2im`` are implemented with small Python loops over the kernel
offsets (at most ``kh * kw`` iterations), which keeps them simple, exactly
invertible, and fast enough for the model sizes used in the paper.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ShapeError


def _checked_out(out: np.ndarray, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """Validate a caller-provided output buffer (shape and dtype must match)."""
    if out.shape != tuple(shape) or out.dtype != np.dtype(dtype):
        raise ShapeError(
            f"out buffer has shape {out.shape} dtype {out.dtype}, expected "
            f"{tuple(shape)} {np.dtype(dtype)}"
        )
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def pad_nhwc(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the spatial dimensions of an NHWC tensor."""
    if padding == 0:
        return x
    return np.pad(
        x, ((0, 0), (padding, padding), (padding, padding), (0, 0)), mode="constant"
    )


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Extract convolution patches from an NHWC tensor.

    Returns an array of shape ``(N, OH, OW, kernel_h * kernel_w * C)`` whose
    last axis is ordered kernel-row-major then channel (matching the weight
    flattening used by :class:`repro.nn.layers.conv.Conv2D`).  ``out``, when
    given, receives the patches in place (the training runtime passes a
    workspace buffer); every element is written, so its prior contents never
    leak through.
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects an NHWC tensor, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    x_padded = pad_nhwc(x, padding)
    shape = (batch, out_h, out_w, kernel_h * kernel_w * channels)
    if out is None:
        cols = np.empty(shape, dtype=x.dtype)
    else:
        cols = _checked_out(out, shape, x.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            patch = x_padded[
                :, i : i + out_h * stride : stride, j : j + out_w * stride : stride, :
            ]
            offset = (i * kernel_w + j) * channels
            cols[..., offset : offset + channels] = patch
    return cols


def im2col_strided(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
    padded: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fused single-copy :func:`im2col` (bit-identical).

    Instead of ``kernel_h * kernel_w`` strided slice copies, the patch
    matrix is materialised in one multi-dimensional strided copy from a
    sliding-window view — a pure reordering of the same elements, so the
    result is bit-identical to the loop.  ``out``, when given, receives the
    patches (the training arena passes a workspace buffer); ``padded``,
    when given, receives the zero-padded input (its border bands are
    re-zeroed here, replacing the ``np.pad`` allocation and full copy).
    """
    if x.ndim != 4:
        raise ShapeError(f"im2col expects an NHWC tensor, got shape {x.shape}")
    batch, height, width, channels = x.shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    shape = (batch, out_h, out_w, kernel_h * kernel_w * channels)
    if out is None:
        cols = np.empty(shape, dtype=x.dtype)
    else:
        cols = _checked_out(out, shape, x.dtype)
    if padding == 0 or padded is None:
        x_padded = pad_nhwc(x, padding)
    else:
        pad = padding
        x_padded = _checked_out(
            padded,
            (batch, height + 2 * pad, width + 2 * pad, channels),
            x.dtype,
        )
        x_padded[:, :pad].fill(0.0)
        x_padded[:, -pad:].fill(0.0)
        x_padded[:, pad:-pad, :pad].fill(0.0)
        x_padded[:, pad:-pad, -pad:].fill(0.0)
        np.copyto(x_padded[:, pad:-pad, pad:-pad, :], x)
    windows = np.lib.stride_tricks.sliding_window_view(
        x_padded, (kernel_h, kernel_w), axis=(1, 2)
    )[:, ::stride, ::stride]
    # target layout of the last cols axis is (kernel row, kernel col,
    # channel); the window view carries (channel, kernel row, kernel col)
    np.copyto(
        cols.reshape(batch, out_h, out_w, kernel_h, kernel_w, channels),
        windows.transpose(0, 1, 2, 4, 5, 3),
    )
    return cols


def col2im(
    cols: np.ndarray,
    input_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Scatter-add patches back into an NHWC tensor (the adjoint of im2col).

    ``out``, when given, must have the *padded* spatial shape
    ``(N, H + 2p, W + 2p, C)``; it is zeroed here before the scatter-add,
    and the returned array is the unpadded view into it.

    When a compiled backend resolved (see :mod:`repro.axnn.native`) and both
    arrays are C-contiguous float64 — which is what the training arena's
    ``out=`` workspaces always hand in — the scatter-add runs as one native
    pass over the padded image instead of ``kh * kw`` strided
    read-modify-write sweeps.  The native formulation adds each output
    element's contributions in the same ascending kernel-offset order as
    the loop below, so the result is bit-identical.
    """
    batch, height, width, channels = input_shape
    out_h = conv_output_size(height, kernel_h, stride, padding)
    out_w = conv_output_size(width, kernel_w, stride, padding)
    expected = (batch, out_h, out_w, kernel_h * kernel_w * channels)
    if cols.shape != expected:
        raise ShapeError(f"col2im expects shape {expected}, got {cols.shape}")
    padded_shape = (batch, height + 2 * padding, width + 2 * padding, channels)
    if out is None:
        x_padded = np.zeros(padded_shape, dtype=cols.dtype)
    else:
        x_padded = _checked_out(out, padded_shape, cols.dtype)
        x_padded.fill(0.0)
    backend = None
    if (
        cols.dtype == np.float64
        and x_padded.dtype == np.float64
        and cols.flags["C_CONTIGUOUS"]
        and x_padded.flags["C_CONTIGUOUS"]
    ):
        # imported lazily: repro.axnn.native depends only on numpy and
        # repro.errors, so this cannot cycle back into repro.nn
        from repro.axnn.native import get_backend

        backend = get_backend()
    if backend is not None:
        backend.col2im_add(
            cols, x_padded, kernel_h, kernel_w, stride, out_h, out_w
        )
    else:
        for i in range(kernel_h):
            for j in range(kernel_w):
                offset = (i * kernel_w + j) * channels
                x_padded[
                    :,
                    i : i + out_h * stride : stride,
                    j : j + out_w * stride : stride,
                    :,
                ] += cols[..., offset : offset + channels]
    if padding == 0:
        return x_padded
    return x_padded[:, padding:-padding, padding:-padding, :]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_cross_entropy(
    logits: np.ndarray,
    targets: np.ndarray,
    normalizer: Optional[int] = None,
    grad_out: Optional[np.ndarray] = None,
) -> Tuple[float, np.ndarray]:
    """Fused softmax cross-entropy: loss value and logits gradient together.

    One shifted-exp pass replaces the three the unfused pair pays
    (``log_softmax`` for the value, ``softmax`` + ``one_hot`` for the
    gradient), and the results are bit-identical to
    ``CrossEntropyLoss.value``/``gradient``: the same float64 operations run
    in the same order per element — ``x - 0.0`` is exact, so subtracting the
    one-hot target is realised as a fancy-indexed decrement, and dividing
    after the subtraction preserves the unfused ``(probs - one_hot) / n``
    rounding.

    ``normalizer`` overrides the averaging denominator (the data-parallel
    trainer normalises each micro-batch by the full mini-batch size, so the
    canonical-order sum over micro-batches reproduces the batch loss and
    gradient).  The returned value is ``-sum(log p_target) / normalizer``.
    ``grad_out``, when given, receives the gradient in place.
    """
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D (N, classes), got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ShapeError(
            f"targets must be a length-{logits.shape[0]} vector, got {targets.shape}"
        )
    n, num_classes = logits.shape
    if np.any(targets < 0) or np.any(targets >= num_classes):
        raise ShapeError(f"labels must lie in [0, {num_classes - 1}]")
    if normalizer is None:
        normalizer = n
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sum_exp = np.sum(exp, axis=-1, keepdims=True)
    rows = np.arange(n)
    picked = shifted[rows, targets] - np.log(sum_exp)[rows, 0]
    value = float(-(picked.sum() / normalizer))
    if grad_out is None:
        grad = np.divide(exp, sum_exp, out=exp)
    else:
        grad = np.divide(exp, sum_exp, out=_checked_out(grad_out, logits.shape, exp.dtype))
    grad[rows, targets] -= 1.0
    np.divide(grad, normalizer, out=grad)
    return value, grad


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """One-hot encode an integer label vector."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be a 1-D vector, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ShapeError(f"labels must lie in [0, {num_classes - 1}]")
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded
