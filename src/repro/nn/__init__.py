"""A from-scratch NumPy deep-learning framework.

This is the substitute for the paper's TensorFlow training stack: it provides
exactly what the methodology requires — training the accurate float models,
batched inference, and input gradients for gradient-based attacks.
"""

from repro.nn.engine import (
    FlatParameterView,
    Workspace,
    micro_batch_slices,
    training_replicas,
    validate_data_parallel,
)
from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
    log_softmax,
    one_hot,
    softmax,
    softmax_cross_entropy,
)
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    Layer,
    MaxPool2D,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, Loss, MeanSquaredError
from repro.nn.metrics import accuracy, accuracy_percent, confusion_matrix, top_k_accuracy
from repro.nn.model import Sequential
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.runtime import (
    available_workers,
    batch_slices,
    resolve_workers,
    run_sharded,
    validate_batch_size,
)
from repro.nn.serialization import load_weights, save_weights
from repro.nn.trainer import Trainer, TrainingHistory

__all__ = [
    "im2col",
    "col2im",
    "conv_output_size",
    "softmax",
    "log_softmax",
    "one_hot",
    "softmax_cross_entropy",
    "Workspace",
    "FlatParameterView",
    "micro_batch_slices",
    "training_replicas",
    "validate_data_parallel",
    "Layer",
    "Conv2D",
    "Dense",
    "AvgPool2D",
    "MaxPool2D",
    "GlobalAvgPool2D",
    "Flatten",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "Softmax",
    "Dropout",
    "BatchNorm",
    "Loss",
    "CrossEntropyLoss",
    "MeanSquaredError",
    "Optimizer",
    "SGD",
    "Adam",
    "Sequential",
    "Trainer",
    "TrainingHistory",
    "accuracy",
    "accuracy_percent",
    "confusion_matrix",
    "top_k_accuracy",
    "save_weights",
    "load_weights",
    "available_workers",
    "batch_slices",
    "resolve_workers",
    "run_sharded",
    "validate_batch_size",
]
