"""Chaos suite: scripted faults against the real recovery paths.

Every test here drives production code through
:class:`repro.resilience.FaultInjector` fault plans — no monkeypatched IO,
no hand-rolled failure doubles.  The repo's determinism contract turns
fault tolerance into a checkable invariant: a retried write or a resumed
training run must produce *byte-identical* artifacts, so most tests end by
comparing hashes against a fault-free control run.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    FaultInjectionError,
    LeaseHeldError,
    MissingArtifactError,
)
from repro.experiments import (
    ArtifactStore,
    Lease,
    ModelSpec,
    Session,
    TrainingCheckpointer,
)
from repro.nn import Adam, Dense, Dropout, Flatten, ReLU, Sequential, Trainer
from repro.resilience import (
    FAULT_PLAN_ENV_VAR,
    MAX_RETRIES_ENV_VAR,
    RETRY_BACKOFF_ENV_VAR,
    Deadline,
    FaultInjector,
    FaultRule,
    RetryPolicy,
    corrupt_file,
    fault_plan,
    run_with_deadline,
)

DIGEST = "ab" * 32


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    FaultInjector.deactivate()
    yield
    FaultInjector.deactivate()


def _no_sleep(_seconds):
    pass


def _fast_policy(**overrides):
    settings = {"max_attempts": 3, "backoff_s": 0.0, "sleep": _no_sleep}
    settings.update(overrides)
    return RetryPolicy(**settings)


def _fast_store(tmp_path, **overrides):
    return ArtifactStore(str(tmp_path / "store"), retry=_fast_policy(**overrides))


# --------------------------------------------------------------- RetryPolicy
class TestRetryPolicy:
    def test_retries_transient_until_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("disk hiccup")
            return "ok"

        assert _fast_policy().run(flaky) == "ok"
        assert len(calls) == 3

    def test_backoff_schedule_is_deterministic(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=4, backoff_s=0.05, backoff_factor=2.0, sleep=slept.append
        )
        attempts = []

        def always_fails():
            attempts.append(1)
            raise OSError("nope")

        with pytest.raises(OSError):
            policy.run(always_fails)
        assert len(attempts) == 4
        assert slept == [0.05, 0.1, 0.2]

    def test_backoff_is_capped(self):
        policy = RetryPolicy(backoff_s=1.0, backoff_factor=10.0, max_backoff_s=2.5)
        assert [policy.delay_s(a) for a in (1, 2, 3)] == [1.0, 2.5, 2.5]

    def test_fatal_errors_are_not_retried(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("a bug, not a flake")

        with pytest.raises(ValueError):
            _fast_policy().run(broken)
        assert len(calls) == 1

    def test_on_retry_callback_counts_attempts(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise OSError("x")
            return 1

        _fast_policy().run(flaky, on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [1, 2]

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "5")
        monkeypatch.setenv(RETRY_BACKOFF_ENV_VAR, "0.25")
        policy = RetryPolicy.from_env()
        assert policy.max_attempts == 5
        assert policy.backoff_s == 0.25

    def test_from_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(MAX_RETRIES_ENV_VAR, "many")
        with pytest.raises(ConfigurationError):
            RetryPolicy.from_env()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)


# ------------------------------------------------------------------ deadlines
class TestDeadlines:
    def test_none_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()

    def test_expiry(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        with pytest.raises(DeadlineExceededError):
            deadline.check("unit test")

    def test_run_with_deadline_passes_result_through(self):
        assert run_with_deadline(lambda: 42, timeout_s=5.0) == 42

    def test_run_with_deadline_times_out(self):
        with pytest.raises(DeadlineExceededError):
            run_with_deadline(lambda: time.sleep(5.0), timeout_s=0.05)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ConfigurationError):
            run_with_deadline(lambda: 1, timeout_s=0.0)


# ------------------------------------------------------------ fault injector
class TestFaultInjector:
    def test_inactive_consult_is_a_noop(self):
        assert FaultInjector.consult("store.write") is None
        assert not FaultInjector.active()

    def test_rule_fires_on_scripted_ordinal_only(self):
        with fault_plan([FaultRule(point="p", index=1, error="RuntimeError")]):
            assert FaultInjector.consult("p") is None  # ordinal 0
            with pytest.raises(RuntimeError):
                FaultInjector.consult("p")  # ordinal 1
            assert FaultInjector.consult("p") is None  # ordinal 2
            assert [(point, ordinal) for point, ordinal, _ in FaultInjector.fired()] == [
                ("p", 1)
            ]
        assert not FaultInjector.active()

    def test_counters_are_per_point(self):
        with fault_plan([FaultRule(point="a", index=0)]):
            assert FaultInjector.consult("b") is None
            with pytest.raises(OSError):
                FaultInjector.consult("a")

    def test_count_covers_consecutive_ordinals(self):
        with fault_plan([FaultRule(point="p", index=0, count=2)]):
            for _ in range(2):
                with pytest.raises(OSError):
                    FaultInjector.consult("p")
            assert FaultInjector.consult("p") is None

    def test_delay_action_continues(self):
        with fault_plan([FaultRule(point="p", action="delay", delay_s=0.0)]):
            rule = FaultInjector.consult("p")
        assert rule is not None and rule.action == "delay"

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(FaultInjectionError):
            FaultRule.from_dict({"point": "p", "surprise": 1})

    def test_rule_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultRule(point="p", action="explode")
        with pytest.raises(FaultInjectionError):
            FaultRule(point="p", error="NoSuchError")
        with pytest.raises(FaultInjectionError):
            FaultRule(point="p", count=0)

    def test_env_plan_is_loaded_once(self, monkeypatch):
        plan = [{"point": "env.point", "index": 0, "error": "RuntimeError"}]
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, json.dumps(plan))
        monkeypatch.setattr(FaultInjector, "_env_loaded", False)
        monkeypatch.setattr(FaultInjector, "_plan", None)
        try:
            with pytest.raises(RuntimeError):
                FaultInjector.consult("env.point")
        finally:
            FaultInjector.deactivate()

    def test_env_plan_garbage_raises(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV_VAR, "not json")
        monkeypatch.setattr(FaultInjector, "_env_loaded", False)
        monkeypatch.setattr(FaultInjector, "_plan", None)
        with pytest.raises(FaultInjectionError):
            FaultInjector.consult("anything")

    def test_corrupt_file_is_self_inverse_and_bounded(self, tmp_path):
        path = str(tmp_path / "blob")
        with open(path, "wb") as handle:
            handle.write(b"abcdef")
        assert corrupt_file(path, offset=4, n_bytes=100) == 2
        corrupt_file(path, offset=4, n_bytes=100)
        with open(path, "rb") as handle:
            assert handle.read() == b"abcdef"
        with pytest.raises(FaultInjectionError):
            corrupt_file(path, offset=6)


# ------------------------------------------------------------- store hardening
class TestStoreResilience:
    def test_write_retries_transient_os_error_bit_identically(self, tmp_path):
        arrays = {"x": np.arange(12.0).reshape(3, 4)}
        control = _fast_store(tmp_path / "control")
        control.put_arrays("model", DIGEST, arrays)
        expected = control.get_meta("model", DIGEST)["payload_sha256"]

        store = _fast_store(tmp_path / "chaos")
        with fault_plan([FaultRule(point="store.write", index=0)]):
            store.put_arrays("model", DIGEST, arrays)
        assert store.stats.retries == 1
        assert store.get_meta("model", DIGEST)["payload_sha256"] == expected
        assert np.array_equal(store.get_arrays("model", DIGEST)["x"], arrays["x"])

    def test_nth_write_fault_semantics(self, tmp_path):
        # index 1 hits the *second* write attempt (the meta sidecar)
        store = _fast_store(tmp_path)
        with fault_plan([FaultRule(point="store.write", index=1)]):
            store.put_arrays("model", DIGEST, {"x": np.ones(3)})
        assert store.stats.retries == 1
        assert store.get_meta("model", DIGEST) is not None

    def test_exhausted_write_retries_propagate(self, tmp_path):
        store = _fast_store(tmp_path, max_attempts=2)
        with fault_plan([FaultRule(point="store.write", index=0, count=10)]):
            with pytest.raises(OSError):
                store.put_arrays("model", DIGEST, {"x": np.ones(3)})
        assert store.get_arrays("model", DIGEST) is None

    def test_read_retries_transient_os_error(self, tmp_path):
        store = _fast_store(tmp_path)
        store.put_arrays("model", DIGEST, {"x": np.arange(3.0)})
        with fault_plan([FaultRule(point="store.read", index=0)]):
            arrays = store.get_arrays("model", DIGEST)
        assert np.array_equal(arrays["x"], np.arange(3.0))
        assert store.stats.retries == 1

    def test_scripted_corruption_quarantines_and_recomputes(self, tmp_path):
        store = _fast_store(tmp_path)
        arrays = {"x": np.arange(8.0)}
        with fault_plan(
            [FaultRule(point="store.corrupt", action="corrupt", corrupt_bytes=16)]
        ):
            store.put_arrays("model", DIGEST, arrays)
        # the corrupted entry is quarantined, not deleted; without a remote
        # it reads as a miss, with one the clean write-through copy (pushed
        # before the scripted local rot) restores it in the same read
        if store.remote is not None:
            assert np.array_equal(
                store.get_arrays("model", DIGEST)["x"], arrays["x"]
            )
        else:
            assert store.get_arrays("model", DIGEST) is None
            assert not store.has("model", DIGEST)
        assert store.stats.quarantined == 1
        quarantine = tmp_path / "store" / ".quarantine" / "model"
        assert any(quarantine.iterdir())
        # the "recompute" writes the same bytes back and everything heals
        store.put_arrays("model", DIGEST, arrays)
        assert np.array_equal(store.get_arrays("model", DIGEST)["x"], arrays["x"])
        assert store.verify() == []

    def test_verify_detects_hash_mismatch(self, tmp_path):
        store = _fast_store(tmp_path)
        path = store.put_arrays("model", DIGEST, {"x": np.arange(6.0)})
        corrupt_file(path, offset=0, n_bytes=4)
        findings = store.verify(repair=False)
        assert len(findings) == 1
        assert "hash mismatch" in findings[0].problem
        assert not findings[0].quarantined
        assert store.has("model", DIGEST)  # no-repair leaves the entry alone
        findings = store.verify(repair=True)
        assert findings[0].quarantined
        assert not store.has("model", DIGEST)

    def test_verify_detects_truncation(self, tmp_path):
        store = _fast_store(tmp_path)
        path = store.put_json("result", DIGEST, {"value": 1})
        with open(path, "r+b") as handle:
            handle.truncate(3)
        findings = store.verify()
        assert len(findings) == 1
        if store.remote is not None:
            assert store.get_json("result", DIGEST) == {"value": 1}
        else:
            assert store.get_json("result", DIGEST) is None

    def test_verify_sweeps_stale_tmp_files_and_expired_leases(self, tmp_path):
        store = _fast_store(tmp_path)
        store.put_json("result", DIGEST, {"value": 1})
        debris = os.path.join(store.root, "result", DIGEST[:2], ".tmp-crashed")
        with open(debris, "w") as handle:
            handle.write("partial")
        os.utime(debris, (1, 1))
        lease = store.lease("result", DIGEST, ttl_s=0.01)
        assert lease.acquire()
        time.sleep(0.02)
        assert store.verify() == []
        assert not os.path.exists(debris)
        assert not os.path.exists(lease.path)

    def test_corrupted_json_read_quarantines(self, tmp_path):
        store = _fast_store(tmp_path)
        path = store.put_json("result", DIGEST, {"value": 1})
        with open(path, "w") as handle:
            handle.write("{broken")
        if store.remote is not None:
            assert store.get_json("result", DIGEST) == {"value": 1}
        else:
            assert store.get_json("result", DIGEST) is None
        assert store.stats.quarantined == 1

    def test_prune_skips_entries_touched_after_scan(self, tmp_path, monkeypatch):
        store = _fast_store(tmp_path)
        old = "aa" * 32
        new = "bb" * 32
        store.put_arrays("model", old, {"x": np.zeros(4)})
        store.put_arrays("model", new, {"x": np.ones(4)})
        for index, entry in enumerate(store.entries()):
            os.utime(entry.path, (index + 1, index + 1))
        stale = store.entries()
        assert [e.digest for e in stale] == [old, new]
        # a concurrent writer refreshes the oldest entry between the scan
        # and the unlink: prune must notice the re-stat mismatch and skip it
        store.put_arrays("model", old, {"x": np.zeros(4)})
        monkeypatch.setattr(store, "entries", lambda: stale)
        evicted = store.prune(0)
        assert [e.digest for e in evicted] == [new]
        assert store.has("model", old)


# ----------------------------------------------------------------------- leases
class TestLease:
    def test_mutual_exclusion_and_release(self, tmp_path):
        store = _fast_store(tmp_path)
        first = store.lease("model", DIGEST, ttl_s=30.0)
        second = store.lease("model", DIGEST, ttl_s=30.0)
        assert first.acquire()
        assert not second.acquire()
        first.release()
        assert second.acquire()
        second.release()

    def test_expired_lease_is_taken_over(self, tmp_path):
        store = _fast_store(tmp_path)
        crashed = store.lease("model", DIGEST, ttl_s=0.01)
        assert crashed.acquire()
        time.sleep(0.02)
        successor = store.lease("model", DIGEST, ttl_s=30.0)
        assert successor.acquire()
        # the crashed holder cannot refresh a lease it no longer owns
        assert not crashed.refresh()
        successor.release()

    def test_refresh_extends_expiry(self, tmp_path):
        store = _fast_store(tmp_path)
        lease = store.lease("model", DIGEST, ttl_s=30.0)
        assert lease.acquire()
        before = lease.holder()["expires"]
        time.sleep(0.01)
        assert lease.refresh()
        assert lease.holder()["expires"] > before
        lease.release()

    def test_context_manager_raises_when_held(self, tmp_path):
        store = _fast_store(tmp_path)
        with store.lease("model", DIGEST, ttl_s=30.0):
            with pytest.raises(LeaseHeldError):
                with store.lease("model", DIGEST, ttl_s=30.0):
                    pass
        assert not os.path.exists(store.lease("model", DIGEST).path)

    def test_racing_claimants_have_one_winner(self, tmp_path):
        # a claimant that met a lease file still empty used to take it over
        # as unreadable, so both racers held the lease
        for round_index in range(50):
            path = str(tmp_path / f"race-{round_index}.lease")
            barrier = threading.Barrier(4)
            winners = []

            def claim():
                lease = Lease(path, ttl_s=30.0)
                barrier.wait(timeout=10)
                if lease.acquire():
                    winners.append(lease)

            threads = [threading.Thread(target=claim) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(winners) == 1, round_index

    def test_claims_leave_no_temporary_files(self, tmp_path):
        path = str(tmp_path / "leases" / "key.lease")
        crashed = Lease(path, ttl_s=0.01)
        assert crashed.acquire()
        time.sleep(0.02)
        rival = Lease(path, ttl_s=30.0)
        successor = Lease(path, ttl_s=30.0)
        assert successor.acquire()  # take-over
        assert not rival.acquire()  # live lease
        assert successor.refresh()
        assert os.listdir(str(tmp_path / "leases")) == ["key.lease"]
        successor.release()
        assert os.listdir(str(tmp_path / "leases")) == []

    def test_leases_are_invisible_to_entries(self, tmp_path):
        store = _fast_store(tmp_path)
        store.put_json("result", DIGEST, {"v": 1})
        lease = store.lease("result", DIGEST)
        assert lease.acquire()
        assert [entry.digest for entry in store.entries()] == [DIGEST]
        lease.release()


# --------------------------------------------------------- checkpoint / resume
def _dropout_model():
    model = Sequential(
        [Flatten(), Dense(16), ReLU(), Dropout(0.25, seed=7), Dense(4)],
        name="chaos_mlp",
    )
    model.build((3, 5, 5))
    return model


class _MemoryCheckpointer:
    """Duck-typed checkpointer keeping epoch states in a dict."""

    def __init__(self, every=1):
        self.every = every
        self.saved = {}

    def save(self, epoch, arrays):
        self.saved[epoch] = {key: np.copy(value) for key, value in arrays.items()}

    def load_latest(self, max_epoch):
        for epoch in range(int(max_epoch), 0, -1):
            if epoch in self.saved:
                return epoch, self.saved[epoch]
        return None


class TestTrainerCheckpointResume:
    def _data(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(96, 3, 5, 5))
        y = rng.integers(0, 4, size=96)
        return x, y

    def test_interrupt_then_resume_is_bit_identical(self):
        x, y = self._data()
        epochs = 4

        control = _dropout_model()
        Trainer(control, optimizer=Adam(0.01), seed=5).fit(
            x, y, epochs=epochs, batch_size=32
        )

        checkpointer = _MemoryCheckpointer()
        interrupted = _dropout_model()
        with fault_plan(
            [FaultRule(point="trainer.epoch", index=1, error="RuntimeError")]
        ):
            with pytest.raises(RuntimeError):
                Trainer(interrupted, optimizer=Adam(0.01), seed=5).fit(
                    x, y, epochs=epochs, batch_size=32, checkpoint=checkpointer
                )
        assert sorted(checkpointer.saved) == [1, 2]

        resumed = _dropout_model()
        history = Trainer(resumed, optimizer=Adam(0.01), seed=5).fit(
            x, y, epochs=epochs, batch_size=32, checkpoint=checkpointer
        )
        # the resumed run's history covers all epochs (restored + trained)...
        assert len(history.train_loss) == epochs
        # ...and every parameter matches the uninterrupted control exactly,
        # which requires restoring the optimizer slots, the shuffle RNG and
        # the Dropout layer's RNG — not just the weights
        for key, value in control.state_dict().items():
            assert np.array_equal(value, resumed.state_dict()[key]), key

    def test_unusable_checkpoint_falls_back_to_fresh_start(self):
        x, y = self._data()
        control = _dropout_model()
        Trainer(control, optimizer=Adam(0.01), seed=5).fit(
            x, y, epochs=2, batch_size=32
        )

        checkpointer = _MemoryCheckpointer()
        checkpointer.saved[1] = {"flat_params": np.zeros(3)}  # wrong size, no RNG
        model = _dropout_model()
        Trainer(model, optimizer=Adam(0.01), seed=5).fit(
            x, y, epochs=2, batch_size=32, checkpoint=checkpointer
        )
        for key, value in control.state_dict().items():
            assert np.array_equal(value, model.state_dict()[key]), key

    def test_checkpoint_cadence_validation(self):
        x, y = self._data()
        trainer = Trainer(_dropout_model(), optimizer=Adam(0.01), seed=5)
        with pytest.raises(ConfigurationError):
            trainer.fit(x, y, epochs=1, checkpoint_every=1)  # no checkpointer
        with pytest.raises(ConfigurationError):
            trainer.fit(
                x,
                y,
                epochs=1,
                checkpoint=_MemoryCheckpointer(),
                runtime="legacy",
            )

    def test_cadence_skips_intermediate_epochs(self):
        x, y = self._data()
        checkpointer = _MemoryCheckpointer(every=2)
        Trainer(_dropout_model(), optimizer=Adam(0.01), seed=5).fit(
            x, y, epochs=5, batch_size=32, checkpoint=checkpointer
        )
        # every 2nd epoch plus the final one
        assert sorted(checkpointer.saved) == [2, 4, 5]


MODEL_SPEC = ModelSpec(
    architecture="ffnn",
    dataset="mnist",
    n_train=96,
    n_test=48,
    epochs=3,
    batch_size=32,
)


class TestSessionResilience:
    def test_interrupted_training_resumes_bit_identically(self, tmp_path):
        digest = MODEL_SPEC.content_hash()
        control = Session(store=str(tmp_path / "control"), checkpoint_every=1)
        control.resolve_model(MODEL_SPEC)
        expected = control.store.get_meta("model", digest)["payload_sha256"]

        # force local-only stores: a shared env remote (the CI chaos job)
        # would serve the control's model to the cold session and bypass
        # the checkpoint/resume path under test
        chaos_root = str(tmp_path / "chaos")
        chaos = Session(store=chaos_root, store_url="", checkpoint_every=1)
        with fault_plan(
            [FaultRule(point="trainer.epoch", index=1, error="RuntimeError")]
        ):
            with pytest.raises(RuntimeError):
                chaos.resolve_model(MODEL_SPEC)
        assert not chaos.store.has("model", digest)
        # no lease may survive the crash's finally block
        assert not os.path.exists(chaos.store.lease("model", digest).path)

        events = []
        resumed = Session(
            store=chaos_root,
            store_url="",
            checkpoint_every=1,
            progress=lambda event: events.append((event.stage, event.status)),
        )
        resumed.resolve_model(MODEL_SPEC)
        assert ("model", "resume") in events
        actual = resumed.store.get_meta("model", digest)["payload_sha256"]
        assert actual == expected

    def test_corrupt_model_artifact_self_heals(self, tmp_path):
        session = Session(store=str(tmp_path))
        trained = session.resolve_model(MODEL_SPEC)
        digest = MODEL_SPEC.content_hash()
        expected = session.store.get_meta("model", digest)["payload_sha256"]
        corrupt_file(session.store._path("model", digest, ".npz"), 0, 16)

        healed = Session(store=str(tmp_path))
        again = healed.resolve_model(MODEL_SPEC)
        assert healed.store.stats.quarantined == 1
        assert healed.store.get_meta("model", digest)["payload_sha256"] == expected
        assert again.test_accuracy == trained.test_accuracy

    def test_missing_artifact_error_reports_key_path_and_checkpoint(self, tmp_path):
        session = Session(
            store=str(tmp_path), require_cached=True, checkpoint_every=1
        )
        digest = MODEL_SPEC.content_hash()
        TrainingCheckpointer(session.store, digest).save(
            2, {"flat_params": np.zeros(3)}
        )
        with pytest.raises(MissingArtifactError) as excinfo:
            session.resolve_model(MODEL_SPEC)
        error = excinfo.value
        assert error.kind == "model"
        assert error.digest == digest
        assert error.path and digest in error.path
        assert error.checkpoint_epoch == 2
        assert digest in str(error)
        assert "epoch 2" in str(error)

    def test_waiter_adopts_other_writers_artifact(self, tmp_path):
        digest = MODEL_SPEC.content_hash()
        control = Session(store=str(tmp_path / "control"))
        trained = control.resolve_model(MODEL_SPEC)

        # local-only: an env remote would serve the control's model before
        # the waiter ever reaches the lease-wait path under test
        shared = ArtifactStore(str(tmp_path / "shared"), store_url="")
        other_writer = shared.lease("model", digest, ttl_s=30.0)
        assert other_writer.acquire()

        def finish_training():
            time.sleep(0.15)
            arrays = control.store.get_arrays("model", digest)
            shared.put_arrays("model", digest, arrays)
            other_writer.release()

        thread = threading.Thread(target=finish_training)
        thread.start()
        try:
            events = []
            waiter = Session(
                store=shared,
                lease_timeout_s=10.0,
                lease_poll_s=0.05,
                progress=lambda event: events.append((event.stage, event.status)),
            )
            adopted = waiter.resolve_model(MODEL_SPEC)
        finally:
            thread.join()
        assert ("model", "wait") in events
        assert ("model", "hit") in events
        assert adopted.test_accuracy == trained.test_accuracy

    def test_waiter_takes_over_crashed_writers_lease(self, tmp_path):
        digest = MODEL_SPEC.content_hash()
        store = ArtifactStore(str(tmp_path))
        crashed = store.lease("model", digest, ttl_s=0.1)
        assert crashed.acquire()
        session = Session(store=store, lease_timeout_s=10.0, lease_poll_s=0.05)
        trained = session.resolve_model(MODEL_SPEC)
        assert trained.test_accuracy > 0.0
        assert store.has("model", digest)

    def test_store_write_fault_during_session_is_retried(self, tmp_path):
        store = _fast_store(tmp_path)
        session = Session(store=store)
        with fault_plan([FaultRule(point="store.write", index=0)]):
            session.resolve_model(MODEL_SPEC)
        assert store.stats.retries >= 1
        assert store.has("model", MODEL_SPEC.content_hash())


# ------------------------------------------------------------------------- CLI
class TestVerifyCli:
    def test_verify_clean_store(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(str(tmp_path))
        store.put_json("result", DIGEST, {"v": 1})
        assert main(["verify", "--store", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_verify_quarantines_corruption(self, tmp_path, capsys):
        from repro.cli import main

        store = ArtifactStore(str(tmp_path))
        path = store.put_arrays("model", DIGEST, {"x": np.ones(4)})
        corrupt_file(path, 0, 8)
        assert main(["verify", "--store", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "quarantined" in out
        assert not store.has("model", DIGEST)
