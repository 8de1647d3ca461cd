"""Model serialization: ``.npz`` weight archives.

:func:`save_weights` / :func:`load_weights` persist *parameters only* to
disk, keyed by layer name (the model zoo's cache format).
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.model import Sequential


def save_weights(model: Sequential, path: str) -> None:
    """Write the model's parameters to an ``.npz`` archive."""
    state = model.state_dict()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # '/' is not a valid npz key separator on all platforms; escape it.
    np.savez(path, **{key.replace("/", "__"): value for key, value in state.items()})


def load_weights(model: Sequential, path: str) -> None:
    """Load parameters saved by :func:`save_weights` into a built model."""
    if not os.path.exists(path):
        raise ConfigurationError(f"weight file {path!r} does not exist")
    with np.load(path) as archive:
        state: Dict[str, np.ndarray] = {
            key.replace("__", "/"): archive[key] for key in archive.files
        }
    model.load_state_dict(state)
