"""Tests for the fused multi-victim panel (repro.axnn.panel).

The panel's contract is absolute: fusing victims must never change a
single logit — grids produced through the fused path must be bit-identical
to per-victim evaluation, for every worker count and batch size.
"""

import numpy as np
import pytest

from repro.attacks import FGMLinf
from repro.axnn import build_axdnn
from repro.axnn.panel import VictimPanel
from repro.errors import ConfigurationError
from repro.robustness import build_victims, grid_from_suite
from repro.robustness.evaluator import AdversarialSuite

VICTIM_LABELS = ["M4", "M6", "M8", "mul8u_1JFF"]


@pytest.fixture(scope="module")
def victims(tiny_cnn, calibration_batch):
    return build_victims(
        tiny_cnn, VICTIM_LABELS, calibration_batch, convolution_only=True
    )


@pytest.fixture(scope="module")
def panel(victims):
    return VictimPanel(victims)


class TestPanelForward:
    def test_bit_identical_to_per_victim(self, panel, victims, mnist_small):
        x = mnist_small.test.images[:48]
        fused = panel.predict(x, batch_size=16)
        for label, victim in victims.items():
            assert np.array_equal(fused[label], victim.predict(x, batch_size=16))

    def test_worker_count_invariance(self, panel, mnist_small):
        x = mnist_small.test.images[:40]
        serial = panel.predict(x, batch_size=8, workers=1)
        sharded = panel.predict(x, batch_size=8, workers=4)
        for label in serial:
            assert np.array_equal(serial[label], sharded[label])

    def test_empty_batch(self, panel, mnist_small):
        empty = panel.predict(mnist_small.test.images[:0])
        for value in empty.values():
            assert value.shape == (0, 10)

    def test_predict_classes_matches(self, panel, victims, mnist_small):
        x = mnist_small.test.images[:32]
        fused = panel.predict_classes(x)
        for label, victim in victims.items():
            assert np.array_equal(fused[label], victim.predict_classes(x))

    def test_first_conv_is_fully_fused(self, panel):
        # all victims share the input batch, so the first Ax conv must do
        # exactly one patch extraction and one quantization for the panel
        first_compute = next(
            line for line in panel.fusion_report() if "conv[" in line
        )
        assert f"conv[{len(VICTIM_LABELS)} victims" in first_compute
        assert "1 extract, 1 quantize" in first_compute

    def test_requires_lockstep_compatibility(self, victims, tiny_cnn):
        class Stub:
            layers = [None]
            output_shape = (10,)

        broken = dict(victims)
        broken["stub"] = Stub()
        assert not VictimPanel.compatible(list(broken.values()))
        with pytest.raises(ConfigurationError):
            VictimPanel(broken)

    def test_empty_panel_rejected(self):
        with pytest.raises(ConfigurationError):
            VictimPanel({})


class TestFusedGrids:
    @pytest.fixture(scope="class")
    def suite(self, tiny_cnn, mnist_small):
        return AdversarialSuite.generate(
            tiny_cnn,
            FGMLinf(),
            mnist_small.test.images[:40],
            mnist_small.test.labels[:40],
            epsilons=[0.0, 0.1, 0.2],
        )

    def test_grid_identical_fused_vs_per_victim(self, suite, victims):
        fused = grid_from_suite(suite, victims, fused=True, workers=1)
        separate = grid_from_suite(suite, victims, fused=False, workers=1)
        assert fused.victim_labels == separate.victim_labels
        assert fused.epsilons == separate.epsilons
        assert np.array_equal(fused.values, separate.values)

    def test_auto_fusion_default_matches(self, suite, victims):
        auto = grid_from_suite(suite, victims, workers=1)
        separate = grid_from_suite(suite, victims, fused=False, workers=1)
        assert np.array_equal(auto.values, separate.values)

    def test_single_victim_skips_fusion(self, suite, victims):
        only = {"M6": victims["M6"]}
        grid = grid_from_suite(suite, only, workers=1)
        reference = grid_from_suite(suite, only, fused=False, workers=1)
        assert np.array_equal(grid.values, reference.values)

    def test_fused_true_rejects_incompatible_victims(self, suite, victims, tiny_cnn):
        mixed = dict(victims)
        mixed["float"] = tiny_cnn  # a Sequential, not an AxModel
        with pytest.raises(ConfigurationError):
            grid_from_suite(suite, mixed, fused=True, workers=1)
        # but auto mode degrades to per-victim evaluation (floats expose
        # predict_classes too) instead of failing
        grid = grid_from_suite(suite, mixed, workers=1)
        assert grid.victim_labels == list(mixed)

    def test_evaluate_panel_matches_evaluate(self, suite, victims, panel):
        panel_results = suite.evaluate_panel(panel, workers=1)
        for label, victim in victims.items():
            solo = suite.evaluate(victim, label, workers=1)
            assert [r.robustness_percent for r in panel_results[label]] == [
                r.robustness_percent for r in solo
            ]
            assert [r.epsilon for r in panel_results[label]] == [
                r.epsilon for r in solo
            ]
