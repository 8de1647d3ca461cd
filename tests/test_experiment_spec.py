"""Tests for the declarative experiment specs: round-trips, hashing, validation."""

import json
import subprocess
import sys

import pytest

from repro.axnn.kernels import KERNEL_STRATEGIES
from repro.errors import ConfigurationError, SpecValidationError
from repro.experiments import (
    SPEC_SCHEMA_VERSION,
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
    canonical_json,
    content_hash,
    panel_spec,
)


def tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        model=ModelSpec(
            architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
        ),
        victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=32),
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_content_hash_is_stable_and_namespaced(self):
        payload = {"x": 1}
        assert content_hash(payload, "model") == content_hash(payload, "model")
        assert content_hash(payload, "model") != content_hash(payload, "suite")


class TestRoundTrips:
    def test_json_spec_json_round_trip(self):
        spec = tiny_spec()
        text = spec.to_json()
        again = ExperimentSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_dict_round_trip_every_node(self):
        model = ModelSpec(architecture="alexnet", dataset="cifar10", seed=3)
        assert ModelSpec.from_dict(model.to_dict()) == model
        victims = VictimSpec(multipliers=("M2",), kernel="gather", bits=7)
        assert VictimSpec.from_dict(victims.to_dict()) == victims
        attack = AttackSpec.create("BIM_linf")
        assert AttackSpec.from_dict(attack.to_dict()) == attack
        sweep = SweepSpec(epsilons=(0.0, 0.25), n_samples=5)
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_save_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ExperimentSpec.load(str(tmp_path / "nope.json"))

    def test_unknown_spec_version_rejected(self):
        payload = json.loads(tiny_spec().to_json())
        payload["spec_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="spec_version"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_unknown_field_rejected(self):
        payload = json.loads(tiny_spec().to_json())
        payload["experiment"]["model"]["optimizer"] = "adam"
        with pytest.raises(ConfigurationError, match="unknown ModelSpec field"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")


class TestContentHash:
    def test_identical_specs_hash_equal(self):
        assert tiny_spec().content_hash() == tiny_spec().content_hash()

    def test_every_field_perturbs_the_hash(self):
        base = tiny_spec()
        variants = [
            tiny_spec(model=ModelSpec(n_train=64, n_test=32, epochs=2)),
            tiny_spec(model=ModelSpec(n_train=64, n_test=32, epochs=1, seed=7)),
            tiny_spec(victims=VictimSpec(multipliers=("M1",))),
            tiny_spec(attacks=(AttackSpec(attack="BIM_linf"),)),
            tiny_spec(sweep=SweepSpec(epsilons=(0.0, 0.2), n_samples=8)),
            tiny_spec(seed=11),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_name_is_presentation_only(self):
        # renaming an experiment must not orphan its cached artifacts
        assert (
            tiny_spec(name="a").content_hash() == tiny_spec(name="b").content_hash()
        )

    def test_hash_stable_across_process_restarts(self):
        # the digest must be a pure function of the spec content: a fresh
        # interpreter reconstructing the spec from its JSON must agree
        spec = tiny_spec()
        code = (
            "import sys, json\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_json(sys.stdin.read())\n"
            "print(spec.content_hash())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == spec.content_hash()

    def test_hash_is_salted_with_the_code_version(self, monkeypatch):
        # an artifact is only valid for the code that produced it: bumping
        # the package version must invalidate every stored digest
        import repro.experiments.spec as spec_module

        before = tiny_spec().content_hash()
        monkeypatch.setattr(spec_module, "__version__", "999.0.0")
        assert tiny_spec().content_hash() != before

    def test_dataset_aliases_normalise_to_one_hash(self):
        a = ModelSpec(dataset="mnist")
        b = ModelSpec(dataset="synthetic-mnist")
        assert a.content_hash() == b.content_hash()

    def test_kernel_aliases_normalise_to_one_hash(self):
        spellings = ("per-code", "percode", "Per_Code BLAS", "blas")
        victims = [VictimSpec(kernel=kernel) for kernel in spellings]
        assert {spec.kernel for spec in victims} == {"percode"}
        assert len({spec.content_hash() for spec in victims}) == 1

    def test_canonical_kernel_names_keep_their_hash(self):
        # the stored payload of a canonical spelling is what it was before
        # kernel names were normalised, so existing store entries stay valid
        for kernel in KERNEL_STRATEGIES + ("auto",):
            payload = {
                "multipliers": ["M1"],
                "bits": 8,
                "convolution_only": False,
                "kernel": kernel,
                "calibration_samples": 128,
            }
            assert VictimSpec(kernel=kernel).content_hash() == content_hash(
                payload, "victims"
            )


class TestValidation:
    def test_unknown_architecture(self):
        with pytest.raises(ConfigurationError, match="architecture"):
            ModelSpec(architecture="resnet")

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            ModelSpec(dataset="imagenet")

    def test_nonpositive_budgets(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(n_train=0)
        with pytest.raises(ConfigurationError):
            ModelSpec(epochs=-1)
        with pytest.raises(ConfigurationError):
            ModelSpec(learning_rate=0.0)

    def test_empty_victims(self):
        with pytest.raises(ConfigurationError, match="multiplier"):
            VictimSpec(multipliers=())

    def test_unknown_multiplier_label_fails_fast(self):
        # a typo must surface at spec construction, not after training
        with pytest.raises(ConfigurationError, match="multiplier label"):
            VictimSpec(multipliers=("M1", "M44"))

    def test_unknown_kernel_fails_fast(self):
        # a typo must surface at spec construction, not inside Session.run
        with pytest.raises(SpecValidationError, match="warp-drive") as info:
            VictimSpec(kernel="warp-drive")
        assert info.value.path == "kernel"

    def test_unknown_attack(self):
        with pytest.raises(ConfigurationError, match="unknown attack"):
            AttackSpec(attack="DeepFool_l7")

    def test_bad_epsilons(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=())
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=(-0.1,))
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=(0.1, 0.1))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            tiny_spec(kind="grid")

    def test_transfer_requires_single_attack_and_epsilon(self):
        with pytest.raises(ConfigurationError, match="one attack"):
            tiny_spec(
                kind="transfer",
                attacks=(AttackSpec("FGM_linf"), AttackSpec("BIM_linf")),
                sweep=SweepSpec(epsilons=(0.1,), n_samples=8),
            )
        with pytest.raises(ConfigurationError, match="one epsilon"):
            tiny_spec(kind="transfer")

    def test_transfer_sources_must_share_eval_split(self):
        primary = ModelSpec(n_train=64, n_test=32, epochs=1)
        mismatched = ModelSpec(
            architecture="ffnn", n_train=64, n_test=64, epochs=1
        )
        with pytest.raises(ConfigurationError, match="n_test and seed"):
            ExperimentSpec(
                name="t",
                kind="transfer",
                model=primary,
                transfer_sources=(mismatched,),
                victims=VictimSpec(multipliers=("M4",)),
                attacks=(AttackSpec("BIM_linf"),),
                sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
            )

    def test_transfer_sources_forbidden_for_panels(self):
        with pytest.raises(ConfigurationError, match="transfer_sources"):
            tiny_spec(transfer_sources=(ModelSpec(),))


class TestHelpers:
    def test_panel_spec_builder(self):
        spec = panel_spec(
            "p",
            attacks=["FGM_linf", "BIM_linf"],
            multipliers=["M1", "M2"],
            epsilons=[0.0, 0.1],
            n_samples=4,
        )
        assert spec.kind == "panel"
        assert [attack.attack for attack in spec.attacks] == ["FGM_linf", "BIM_linf"]
        assert spec.victims.multipliers == ("M1", "M2")
        assert spec.sweep.epsilons == (0.0, 0.1)

    def test_with_seed(self):
        spec = tiny_spec()
        reseeded = spec.with_seed(5)
        assert reseeded.seed == 5
        assert reseeded.model == spec.model
        assert reseeded.content_hash() != spec.content_hash()

    def test_attack_spec_params_sorted_and_buildable(self):
        spec = AttackSpec.create("FGM_linf")
        attack = spec.build()
        assert attack.key() == "FGM_linf"

    def test_source_models_order(self):
        primary = ModelSpec(n_train=64, n_test=32, epochs=1)
        extra = ModelSpec(architecture="ffnn", n_train=64, n_test=32, epochs=1)
        spec = ExperimentSpec(
            name="t",
            kind="transfer",
            model=primary,
            transfer_sources=(extra,),
            victims=VictimSpec(multipliers=("M4",)),
            attacks=(AttackSpec("BIM_linf"),),
            sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
        )
        assert spec.source_models() == (primary, extra)


class TestStructuredValidationErrors:
    """SpecValidationError carries a machine-readable field path."""

    def _tiny_document(self):
        return tiny_spec().to_dict()

    def test_nested_model_field_path(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["model"]["n_train"] = 0
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path == "model.n_train"
        assert "n_train" in excinfo.value.reason
        payload = excinfo.value.to_dict()
        assert payload["error"] == "invalid_spec"
        assert payload["path"] == "model.n_train"

    def test_indexed_attack_path(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["attacks"].append({"attack": "NOPE_linf"})
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("attacks[1]")

    def test_sweep_and_victims_paths(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["sweep"]["epsilons"] = []
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("sweep")

        document = self._tiny_document()
        document["victims"]["multipliers"] = ["M1", "NOT_A_MULT"]
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("victims")

    def test_top_level_json_error_path(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_json("not json at all")
        assert excinfo.value.path == ""

    def test_validation_error_is_still_a_configuration_error(self):
        from repro.errors import SpecValidationError

        assert issubclass(SpecValidationError, ConfigurationError)
