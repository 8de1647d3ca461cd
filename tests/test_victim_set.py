"""A victim set calibrates once and equals per-label ``build_axdnn`` builds.

:func:`repro.robustness.sweep.build_victims` (and ``Session.build_victims``,
which delegates to it) computes the activation schemes with one float
forward and shares them between every victim.  Each victim must still be
bit-identical to a ``build_axdnn`` call of its own, which calibrates alone.
"""

import numpy as np
import pytest

from repro.axnn import engine
from repro.axnn.engine import build_axdnn, calibrate_activations
from repro.errors import ConfigurationError
from repro.multipliers.selection import select_resilient_multipliers
from repro.robustness import layer_sensitivity, sweep
from repro.robustness.sweep import build_victims

LABELS = ("M1", "M4", "M6", "M8", "M9")


@pytest.fixture
def calibration_counter(monkeypatch):
    """Count the float calibration forwards, whoever runs them."""
    calls = []
    original = engine.calibrate_activations

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "calibrate_activations", counting)
    monkeypatch.setattr(sweep, "calibrate_activations", counting)
    monkeypatch.setattr(layer_sensitivity, "calibrate_activations", counting)
    return calls


def _schemes(model):
    return [
        (layer.name, layer.activation_scheme, layer.multiplier.name)
        for layer in model.compute_layers()
    ]


def test_victim_set_is_bit_identical_to_per_label_builds(
    tiny_cnn, calibration_batch, mnist_small
):
    images = mnist_small.test.images[:48]
    victims = build_victims(tiny_cnn, LABELS, calibration_batch)
    assert list(victims) == list(LABELS)
    for label in LABELS:
        alone = build_axdnn(
            tiny_cnn, label, calibration_batch, name=f"ax_{tiny_cnn.name}_{label}"
        )
        shared = victims[label]
        assert shared.name == alone.name
        assert _schemes(shared) == _schemes(alone)
        assert shared.kernel_report() == alone.kernel_report()
        np.testing.assert_array_equal(shared.predict(images), alone.predict(images))


def test_victim_set_calibrates_once(tiny_cnn, calibration_batch, calibration_counter):
    build_victims(tiny_cnn, LABELS, calibration_batch)
    assert calibration_counter == [tiny_cnn.name]


def test_build_axdnn_alone_calibrates_itself(
    tiny_cnn, calibration_batch, calibration_counter
):
    build_axdnn(tiny_cnn, "M4", calibration_batch)
    assert calibration_counter == [tiny_cnn.name]


def test_shared_schemes_match_a_fresh_calibration(tiny_cnn, calibration_batch):
    schemes = calibrate_activations(tiny_cnn, calibration_batch)
    built = build_axdnn(
        tiny_cnn, "M8", calibration_batch, activation_schemes=schemes
    )
    assert [scheme for _, scheme, _ in _schemes(built)] == list(schemes.values())


def test_multiplier_screening_calibrates_once(
    tiny_cnn, calibration_batch, mnist_small, calibration_counter
):
    select_resilient_multipliers(
        tiny_cnn,
        LABELS,
        calibration_batch,
        mnist_small.test.images[:16],
        mnist_small.test.labels[:16],
    )
    assert calibration_counter == [tiny_cnn.name]


def test_layer_sensitivity_calibrates_once(
    tiny_cnn, calibration_batch, mnist_small, calibration_counter
):
    results = layer_sensitivity.layer_sensitivity_analysis(
        tiny_cnn,
        "M8",
        calibration_batch,
        mnist_small.test.images[:16],
        mnist_small.test.labels[:16],
        workers=1,
    )
    assert len(results) == 4
    assert calibration_counter == [tiny_cnn.name]


def test_victim_set_rejects_an_empty_calibration_batch(tiny_cnn):
    with pytest.raises(ConfigurationError):
        build_victims(tiny_cnn, ["M1"], np.empty((0, 28, 28, 1)))


def test_session_victim_set_delegates_and_reports_progress(
    tmp_path, tiny_cnn, mnist_small, calibration_counter
):
    from repro.experiments.session import Session
    from repro.experiments.spec import VictimSpec
    from repro.models.zoo import TrainedModel

    events = []
    session = Session(store=str(tmp_path), progress=events.append)
    trained = TrainedModel(model=tiny_cnn, dataset=mnist_small, test_accuracy=0.0)
    spec = VictimSpec(multipliers=("M1", "M8"), calibration_samples=32)
    victims = session.build_victims(trained, spec)

    assert calibration_counter == [tiny_cnn.name]
    assert [(e.stage, e.status, e.detail) for e in events] == [
        ("victims", "compute", "M1"),
        ("victims", "compute", "M8"),
    ]
    calibration = mnist_small.train.images[:32]
    images = mnist_small.test.images[:32]
    for label in spec.multipliers:
        alone = build_axdnn(tiny_cnn, label, calibration)
        assert _schemes(victims[label]) == _schemes(alone)
        np.testing.assert_array_equal(
            victims[label].predict(images), alone.predict(images)
        )
