"""Tests for the unified attack runtime (repro.attacks.engine).

The engine's contract is bit-for-bit reproducibility: per-budget
``generate`` vs one amortised ``generate_sweep``, a fixed shard
decomposition (pinned by golden digests), and shard-size invariance for the
attacks that draw no random numbers — plus the amortization guarantee that
an FGM-family epsilon sweep costs exactly one gradient evaluation.
"""

import hashlib
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    AttackEngine,
    FGML2,
    FGMLinf,
    BIMLinf,
    PGDL2,
    PGDLinf,
    available_attacks,
    get_attack,
)
from repro.attacks.engine import DEFAULT_SHARD_SIZE, _sweep_shard, resolve_backend
from repro.attacks.extended import EXTENDED_ATTACKS, get_extended_attack
from repro.benchmarking.report import blas_fingerprint
from repro.errors import ConfigurationError
from repro.nn import Sequential, batch_slices
from repro.nn.runtime import ProcessShardPool
from repro.robustness import AdversarialSuite

ALL_KEYS = sorted(available_attacks()) + sorted(EXTENDED_ATTACKS)

#: attacks whose crafting consumes the per-call RNG stream
SEEDED_KEYS = ["PGD_linf", "PGD_l2", "RAG_l2", "RAU_l2", "RAU_linf",
               "SAP_l0", "AGN_l2", "BUN_l2"]

#: attacks whose crafting draws no random numbers
UNSEEDED_KEYS = [key for key in ALL_KEYS if key not in SEEDED_KEYS]

SWEEP_EPSILONS = [0.0, 0.05, 0.1, 0.2, 0.3]


def _make_attack(key):
    if key in EXTENDED_ATTACKS:
        return get_extended_attack(key)
    return get_attack(key)


@pytest.fixture(scope="module")
def engine_data(mnist_small):
    return mnist_small.test.images[:12], mnist_small.test.labels[:12]


class _GradientSpy:
    """Counts Sequential.input_gradient calls without changing results."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = Sequential.input_gradient
        spy = self

        def counting(model_self, *args, **kwargs):
            spy.calls += 1
            return original(model_self, *args, **kwargs)

        monkeypatch.setattr(Sequential, "input_gradient", counting)


class TestSweepMatchesGenerate:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_bit_identical_per_budget(self, key, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = _make_attack(key).generate_sweep(tiny_cnn, x, y, SWEEP_EPSILONS)
        assert set(sweep) == set(SWEEP_EPSILONS)
        for epsilon in SWEEP_EPSILONS:
            single = _make_attack(key).generate(tiny_cnn, x, y, epsilon)
            assert np.array_equal(sweep[epsilon], single), (key, epsilon)

    def test_zero_epsilon_entry_is_clean(self, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, [0.0, 0.1])
        assert np.array_equal(sweep[0.0], x)

    def test_duplicate_budgets_collapse(self, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, [0.1, 0.1, 0.2])
        assert set(sweep) == {0.1, 0.2}


def _sweep_digest(sweep):
    """SHA-256 over a sweep's float64 bytes, in ascending budget order."""
    digest = hashlib.sha256()
    for epsilon in sorted(sweep):
        array = np.ascontiguousarray(sweep[epsilon], dtype=np.float64)
        digest.update(array.tobytes())
    return digest.hexdigest()


#: ``generate_sweep`` digests over SWEEP_EPSILONS on the tiny_cnn/engine_data
#: fixtures at shard_size=5 (three shards).  Recorded when crafting could
#: still run on worker processes, where both backends gave these bytes.
GOLDEN_SWEEP_DIGESTS = {
    "BIM_linf": "33f74fa8c5efc2931d52d0330dcc437115a01ce18b58ee2b6fba7844a6bee502",
    "PGD_linf": "ea75fd5a6e268531242aafcc48cb17f1ff96ae1488996809ba2fe734727095a8",
    "RAU_linf": "b95051497b7f5560fa682b8b3a32223ce726e43bb7830cb4748097630f58968e",
}

#: the numeric stack the digests were recorded on; float64 GEMM rounding
#: (and with it every trained weight and crafted byte) depends on it
GOLDEN_STACK = ("2.4.6", "scipy-openblas", "0.3.31.188.0")


def _numeric_stack():
    blas = blas_fingerprint()
    return (np.__version__, blas["blas"], blas["blas_version"])


class TestGoldenDigests:
    @pytest.mark.skipif(
        _numeric_stack() != GOLDEN_STACK,
        reason="golden digests are recorded for one numpy/BLAS build",
    )
    @pytest.mark.parametrize("key", sorted(GOLDEN_SWEEP_DIGESTS))
    def test_crafted_bytes_unchanged(self, key, tiny_cnn, engine_data):
        x, y = engine_data
        sweep = AttackEngine(tiny_cnn, shard_size=5).generate_sweep(
            get_attack(key), x, y, SWEEP_EPSILONS
        )
        assert _sweep_digest(sweep) == GOLDEN_SWEEP_DIGESTS[key]


class TestShardDecomposition:
    @pytest.mark.parametrize("key", SEEDED_KEYS)
    def test_shards_draw_independent_spawned_streams(self, key, tiny_cnn, engine_data):
        # shard i of a sweep is the core loop run alone on shard i's rows
        # with the i-th stream spawned from the attack's seed
        x, y = engine_data
        attack = _make_attack(key)
        sweep = AttackEngine(tiny_cnn, shard_size=5).generate_sweep(
            attack, x, y, [0.25]
        )
        slices = batch_slices(x.shape[0], 5)
        root = np.random.SeedSequence(0 if attack.seed is None else attack.seed)
        pieces = [
            _sweep_shard(attack, tiny_cnn, x[s], y[s], [0.25], stream)[0.25]
            for s, stream in zip(slices, root.spawn(len(slices)))
        ]
        assert np.array_equal(sweep[0.25], np.concatenate(pieces)), key

    @pytest.mark.parametrize("key", UNSEEDED_KEYS)
    def test_unseeded_shard_is_core_loop_on_its_rows(self, key, tiny_cnn, engine_data):
        # an attack that draws no random numbers crafts each shard from its
        # rows alone, whatever stream the shard is handed
        x, y = engine_data
        attack = _make_attack(key)
        sweep = AttackEngine(tiny_cnn, shard_size=5).generate_sweep(
            attack, x, y, [0.25]
        )
        pieces = [
            _sweep_shard(
                attack, tiny_cnn, x[s], y[s], [0.25], np.random.SeedSequence(99)
            )[0.25]
            for s in batch_slices(x.shape[0], 5)
        ]
        assert np.array_equal(sweep[0.25], np.concatenate(pieces)), key

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_multi_shard_sweep_matches_per_budget_generate(
        self, key, tiny_cnn, engine_data
    ):
        # the amortised sweep and the per-budget loop split the batch into
        # the same shards and hand each the same stream
        x, y = engine_data
        engine = AttackEngine(tiny_cnn, shard_size=5)
        sweep = engine.generate_sweep(_make_attack(key), x, y, SWEEP_EPSILONS)
        for epsilon in SWEEP_EPSILONS:
            single = engine.generate(_make_attack(key), x, y, epsilon)
            assert np.array_equal(sweep[epsilon], single), (key, epsilon)

    @pytest.mark.parametrize("key", ["BIM_linf", "CR_l2", "FGM_linf"])
    def test_unseeded_attacks_invariant_to_shard_size(
        self, key, tiny_cnn, engine_data
    ):
        # attacks that draw no random numbers and use at most the gradient's
        # sign craft the same bytes however the batch is split; the l2
        # attacks normalise a batch-mean gradient, whose 1/N scale rounds
        # differently per shard size
        x, y = engine_data
        reference = AttackEngine(tiny_cnn, shard_size=x.shape[0]).generate_sweep(
            get_attack(key), x, y, SWEEP_EPSILONS
        )
        for shard_size in (1, 5, 7):
            split = AttackEngine(tiny_cnn, shard_size=shard_size).generate_sweep(
                get_attack(key), x, y, SWEEP_EPSILONS
            )
            for epsilon in SWEEP_EPSILONS:
                assert np.array_equal(reference[epsilon], split[epsilon]), (
                    key, shard_size, epsilon
                )

    def test_decision_attack_on_non_sequential_source(
        self, quantized_tiny, engine_data
    ):
        # decision attacks accept any source exposing predict_classes, and
        # shard it like a float model
        x, y = engine_data
        attack = get_attack("RAU_linf")
        sharded = AttackEngine(quantized_tiny, shard_size=5).generate(
            attack, x, y, 0.4
        )
        again = AttackEngine(quantized_tiny, shard_size=5).generate(
            attack, x, y, 0.4
        )
        assert sharded.shape == x.shape
        assert np.array_equal(sharded, again)


class TestSweepAmortization:
    @pytest.mark.parametrize("attack_cls", [FGMLinf, FGML2])
    def test_fgm_family_sweep_costs_one_gradient(
        self, attack_cls, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, shard_size=x.shape[0])
        sweep = engine.generate_sweep(
            attack_cls(), x, y, [0.05, 0.1, 0.15, 0.2, 0.25]
        )
        assert len(sweep) == 5
        assert spy.calls == 1

    def test_fgm_per_budget_loop_costs_one_gradient_each(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, shard_size=x.shape[0])
        for epsilon in [0.05, 0.1, 0.15, 0.2, 0.25]:
            engine.generate(FGMLinf(), x, y, epsilon)
        assert spy.calls == 5

    def test_bim_sweep_shares_first_step_gradient(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        steps, budgets = 4, [0.1, 0.2, 0.3]
        engine = AttackEngine(tiny_cnn, shard_size=x.shape[0])
        engine.generate_sweep(BIMLinf(steps=steps), x, y, budgets)
        # one shared first-step gradient + (steps - 1) per budget
        assert spy.calls == 1 + (steps - 1) * len(budgets)

    def test_gradient_count_scales_with_shards(
        self, tiny_cnn, engine_data, monkeypatch
    ):
        x, y = engine_data
        spy = _GradientSpy(monkeypatch)
        engine = AttackEngine(tiny_cnn, shard_size=4)
        engine.generate_sweep(FGMLinf(), x, y, [0.05, 0.1, 0.15, 0.2, 0.25])
        assert spy.calls == 3  # 12 samples / shard_size 4


class TestEmptyBatch:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_empty_batch_returns_well_formed_empty(self, key, tiny_cnn, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("gradient evaluated on an empty batch")

        monkeypatch.setattr(Sequential, "input_gradient", boom)
        monkeypatch.setattr(Sequential, "predict_classes", boom)
        x = np.zeros((0, 28, 28, 1))
        y = np.zeros((0,), dtype=np.int64)
        adversarial = _make_attack(key).generate(tiny_cnn, x, y, 0.3)
        assert adversarial.shape == x.shape
        assert adversarial.dtype == np.float64

    def test_empty_batch_sweep(self, tiny_cnn):
        x = np.zeros((0, 28, 28, 1))
        y = np.zeros((0,), dtype=np.int64)
        sweep = FGMLinf().generate_sweep(tiny_cnn, x, y, SWEEP_EPSILONS)
        assert set(sweep) == set(SWEEP_EPSILONS)
        assert all(value.shape == x.shape for value in sweep.values())


class TestRNGReproducibility:
    @pytest.mark.parametrize("key", SEEDED_KEYS)
    def test_consecutive_calls_on_one_instance_are_identical(
        self, key, tiny_cnn, engine_data
    ):
        # regression: PGD/noise attacks used to keep a mutable self._rng, so
        # regenerating on the same instance gave different adversarials
        x, y = engine_data
        attack = _make_attack(key)
        first = attack.generate(tiny_cnn, x, y, 0.25)
        second = attack.generate(tiny_cnn, x, y, 0.25)
        assert np.array_equal(first, second), key

    def test_different_seeds_differ(self, tiny_cnn, engine_data):
        x, y = engine_data
        a = PGDL2(seed=1).generate(tiny_cnn, x, y, 0.5)
        b = PGDL2(seed=2).generate(tiny_cnn, x, y, 0.5)
        assert not np.array_equal(a, b)

    def test_per_call_seed_override(self, tiny_cnn, engine_data):
        # callers that want fresh randomness per call (adversarial training
        # drawing new PGD starts every minibatch) pass a varying seed
        x, y = engine_data
        attack = PGDLinf(seed=0)
        base = attack.generate(tiny_cnn, x, y, 0.25)
        overridden = attack.generate(tiny_cnn, x, y, 0.25, seed=123)
        repeated = attack.generate(tiny_cnn, x, y, 0.25, seed=123)
        assert not np.array_equal(base, overridden)
        assert np.array_equal(overridden, repeated)
        # the override is per-call: the attack's own seed is untouched
        assert np.array_equal(base, attack.generate(tiny_cnn, x, y, 0.25))

    def test_adversarial_trainer_varies_draws_per_batch(self, tiny_cnn, engine_data):
        # regression for the engine refactor: the trainer must not feed
        # byte-identical PGD starts to every minibatch of every epoch
        from repro.defenses.adversarial_training import AdversarialTrainer

        x, y = engine_data
        trainer = AdversarialTrainer(
            tiny_cnn, attack=PGDLinf(seed=0), epsilon=0.2,
            adversarial_ratio=1.0, seed=4,
        )
        first, _ = trainer._augment_batch(x, y)
        second, _ = trainer._augment_batch(x, y)
        assert not np.array_equal(first, second)

    def test_shard_size_is_part_of_seeded_semantics(self, tiny_cnn, engine_data):
        # per-shard streams are spawned per shard index, so the shard size
        # legitimately changes seeded draws
        x, y = engine_data
        one_shard = AttackEngine(tiny_cnn, shard_size=12).generate(
            PGDLinf(), x, y, 0.25
        )
        three_shards = AttackEngine(tiny_cnn, shard_size=4).generate(
            PGDLinf(), x, y, 0.25
        )
        assert one_shard.shape == three_shards.shape
        assert not np.array_equal(one_shard, three_shards)


class TestSuiteIntegration:
    def test_suite_generation_matches_per_budget_calls(self, tiny_cnn, engine_data):
        x, y = engine_data
        suite = AdversarialSuite.generate(tiny_cnn, PGDLinf(), x, y, SWEEP_EPSILONS)
        for epsilon in SWEEP_EPSILONS:
            expected = PGDLinf().generate(tiny_cnn, x, y, epsilon)
            assert np.array_equal(suite.adversarial[epsilon], expected)

    def test_suite_accepts_preconfigured_engine(self, tiny_cnn, engine_data):
        x, y = engine_data
        engine = AttackEngine(tiny_cnn, shard_size=4)
        suite = AdversarialSuite.generate(
            tiny_cnn, FGMLinf(), x, y, [0.0, 0.1], engine=engine
        )
        assert set(suite.adversarial) == {0.0, 0.1}


class TestValidation:
    def test_empty_epsilons_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate_sweep(FGMLinf(), x, y, [])

    def test_negative_epsilon_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate_sweep(FGMLinf(), x, y, [0.1, -0.2])

    def test_mismatched_labels_rejected(self, tiny_cnn, engine_data):
        x, y = engine_data
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn).generate(FGMLinf(), x, y[:-1], 0.1)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_invalid_shard_size_rejected(self, bad, tiny_cnn):
        with pytest.raises(ConfigurationError):
            AttackEngine(tiny_cnn, shard_size=bad)

    def test_default_shard_size(self, tiny_cnn):
        assert AttackEngine(tiny_cnn).shard_size == DEFAULT_SHARD_SIZE


class TestBenchmarkHarnessShims:
    """The two names the frozen benchmark harness still imports."""

    def test_resolve_backend_reports_in_process_crafting(self):
        assert resolve_backend(None) == "serial"

    def test_shutdown_all_is_a_no_op(self, tiny_cnn, engine_data):
        x, y = engine_data
        AttackEngine(tiny_cnn, shard_size=4).generate(PGDLinf(), x, y, 0.25)
        assert ProcessShardPool.shutdown_all() is None
        assert multiprocessing.active_children() == []


class TestSweepProperties:
    """Hypothesis: sweep/generate equality holds for arbitrary budget lists."""

    @pytest.fixture(scope="class")
    def small_model(self):
        from repro.nn import Dense, Flatten, ReLU

        return Sequential(
            [Flatten(), Dense(12), ReLU(), Dense(10)],
            input_shape=(6, 6, 1),
            name="engine_prop",
            seed=11,
        )

    @settings(max_examples=12, deadline=None)
    @given(
        epsilons=st.lists(
            st.floats(0.0, 2.0, allow_nan=False), min_size=1, max_size=4
        ),
        shard_size=st.integers(1, 9),
        seed=st.integers(0, 5),
    )
    def test_sweep_equals_per_budget_generate(
        self, small_model, epsilons, shard_size, seed
    ):
        rng = np.random.default_rng(seed)
        x = rng.random((7, 6, 6, 1))
        y = rng.integers(0, 10, size=7)
        engine = AttackEngine(small_model, shard_size=shard_size)
        attack = PGDLinf(steps=2, seed=seed)
        sweep = engine.generate_sweep(attack, x, y, epsilons)
        for epsilon in epsilons:
            single = engine.generate(PGDLinf(steps=2, seed=seed), x, y, epsilon)
            assert np.array_equal(sweep[float(epsilon)], single)
