"""Tests for the continuous benchmark harness (:mod:`repro.benchmarking`).

Covers the four behaviours the harness exists to guarantee:

* schema-versioned result round-trips (a report written today is readable
  tomorrow, and a report from a *newer* schema is refused, not misread);
* the compare engine's threshold, direction, core-gating and portability
  rules — including the acceptance criterion that identical back-to-back
  runs pass and a synthetic 30% slowdown fails;
* crash-safe recording: an interrupted write (driven through the
  ``store.write`` fault point and a mid-write exception) never leaves a
  torn baseline behind;
* race-free merging: two writers recording sections of one suite
  concurrently both land, and a corrupt history is warned about and
  rebuilt instead of silently discarded.
"""

import json
import logging
import os
import threading

import pytest

from repro.benchmarking import (
    COMPARE_MODES,
    PORTABLE_UNITS,
    REPORT_SCHEMA_VERSION,
    BenchmarkReport,
    BenchmarkResult,
    Suite,
    best_of,
    comparable_envs,
    compare,
    load_report,
    load_reports,
    paired_ratios,
    record_report,
    report_path,
)
from repro.config import env_float, env_int, env_str
from repro.errors import ConfigurationError
from repro.experiments.store import (
    Lease,
    _lease_expired,
    atomic_write_json,
    _atomic_write_with,
)
from repro.resilience import FaultRule, RetryPolicy, fault_plan


def _env(cores=1, machine="x86_64"):
    return {"cores": cores, "machine": machine, "python": "3.11"}


def _report(suite="demo", metrics=(), cores=1, machine="x86_64"):
    report = BenchmarkReport(
        suite=suite, commit="abc123", timestamp=1.0, env=_env(cores, machine)
    )
    for metric in metrics:
        report.add(metric)
    return report


# --------------------------------------------------------------------- schema
class TestResultRoundTrip:
    def test_result_round_trip(self):
        result = BenchmarkResult(
            name="kernel.speedup",
            value=5.5,
            unit="ratio",
            higher_is_better=True,
            min_cores=4,
            extra={"shape": "128x256"},
        )
        assert BenchmarkResult.from_dict(result.to_dict()) == result

    def test_result_defaults_round_trip(self):
        result = BenchmarkResult(name="epoch_s", value=0.25)
        clone = BenchmarkResult.from_dict(result.to_dict())
        assert clone.unit == "s" and not clone.higher_is_better
        assert clone.min_cores == 0 and clone.extra is None

    def test_result_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            BenchmarkResult.from_dict({"name": "m", "value": 1.0, "speed": 2})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "fast", None])
    def test_result_rejects_non_finite_values(self, value):
        with pytest.raises(ConfigurationError):
            BenchmarkResult(name="m", value=value)

    def test_portable_units(self):
        assert BenchmarkResult(name="m", value=2.0, unit="ratio").portable
        assert not BenchmarkResult(name="m", value=2.0, unit="s").portable
        assert "percent" in PORTABLE_UNITS

    def test_report_round_trip_via_file(self, tmp_path):
        report = _report(
            metrics=[
                BenchmarkResult(name="a", value=1.0),
                BenchmarkResult(name="b", value=2.0, unit="ratio", higher_is_better=True),
            ]
        )
        path = str(tmp_path / "BENCH_demo.json")
        report.save(path)
        loaded = BenchmarkReport.load(path)
        assert loaded.suite == "demo"
        assert loaded.schema_version == REPORT_SCHEMA_VERSION
        assert loaded.commit == "abc123"
        assert loaded.env["cores"] == 1
        assert loaded.metric_names() == ("a", "b")
        assert loaded.metric("b").higher_is_better

    def test_report_refuses_newer_schema(self, tmp_path):
        payload = _report().to_dict()
        payload["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="newer than this code"):
            BenchmarkReport.from_dict(payload)

    def test_report_rejects_unversioned_payload(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            BenchmarkReport.from_dict({"suite": "demo", "results": []})

    def test_add_replaces_by_name(self):
        report = _report(metrics=[BenchmarkResult(name="m", value=1.0)])
        report.add(BenchmarkResult(name="m", value=2.0))
        assert len(report.results) == 1
        assert report.metric("m").value == 2.0

    def test_merge_incoming_wins_and_keeps_untouched(self):
        base = _report(
            metrics=[
                BenchmarkResult(name="kept", value=1.0),
                BenchmarkResult(name="updated", value=1.0),
            ]
        )
        incoming = _report(metrics=[BenchmarkResult(name="updated", value=9.0)])
        incoming.commit = "def456"
        base.merge(incoming)
        assert base.metric("kept").value == 1.0
        assert base.metric("updated").value == 9.0
        assert base.commit == "def456"

    def test_merge_rejects_suite_mismatch(self):
        with pytest.raises(ConfigurationError, match="merge"):
            _report(suite="a").merge(_report(suite="b"))


# -------------------------------------------------------------------- compare
class TestCompareEngine:
    def _metrics(self):
        return [
            BenchmarkResult(name="epoch_s", value=1.0),
            BenchmarkResult(
                name="speedup", value=2.0, unit="ratio", higher_is_better=True
            ),
        ]

    def test_identical_runs_pass(self):
        baseline = _report(metrics=self._metrics())
        candidate = _report(metrics=self._metrics())
        outcome = compare(baseline, candidate)
        assert outcome.ok
        assert outcome.mode == "strict"  # same cores + machine -> strict
        assert {m.status for m in outcome.metrics} == {"ok"}

    def test_thirty_percent_slowdown_fails(self):
        baseline = _report(metrics=self._metrics())
        candidate = _report(
            metrics=[
                BenchmarkResult(name="epoch_s", value=1.3),  # 30% slower
                BenchmarkResult(
                    name="speedup", value=1.4, unit="ratio", higher_is_better=True
                ),  # 30% less speedup
            ]
        )
        outcome = compare(baseline, candidate, threshold_percent=15.0)
        assert not outcome.ok
        assert len(outcome.regressions) == 2
        worse = {m.name: m.worse_percent for m in outcome.metrics}
        assert worse["epoch_s"] == pytest.approx(30.0)
        assert worse["speedup"] == pytest.approx(30.0)

    def test_movement_inside_threshold_is_ok(self):
        baseline = _report(metrics=[BenchmarkResult(name="epoch_s", value=1.0)])
        candidate = _report(metrics=[BenchmarkResult(name="epoch_s", value=1.1)])
        assert compare(baseline, candidate, threshold_percent=15.0).ok

    def test_improvement_reported_not_failed(self):
        baseline = _report(metrics=[BenchmarkResult(name="epoch_s", value=1.0)])
        candidate = _report(metrics=[BenchmarkResult(name="epoch_s", value=0.5)])
        outcome = compare(baseline, candidate)
        assert outcome.ok
        assert outcome.metrics[0].status == "improved"

    def test_per_metric_threshold_patterns(self):
        baseline = _report(
            metrics=[
                BenchmarkResult(name="kernel.lut_s", value=1.0),
                BenchmarkResult(name="training.epoch_s", value=1.0),
            ]
        )
        candidate = _report(
            metrics=[
                BenchmarkResult(name="kernel.lut_s", value=1.3),
                BenchmarkResult(name="training.epoch_s", value=1.3),
            ]
        )
        outcome = compare(
            baseline, candidate, threshold_percent=15.0, thresholds={"kernel.*": 50.0}
        )
        statuses = {m.name: m.status for m in outcome.metrics}
        assert statuses["kernel.lut_s"] == "ok"  # loosened budget
        assert statuses["training.epoch_s"] == "regression"

    def test_min_cores_metric_skipped_on_small_host(self):
        metric = BenchmarkResult(
            name="shard.speedup", value=2.0, unit="ratio",
            higher_is_better=True, min_cores=4,
        )
        baseline = _report(metrics=[metric], cores=1)
        candidate = _report(
            metrics=[BenchmarkResult(
                name="shard.speedup", value=0.9, unit="ratio",
                higher_is_better=True, min_cores=4,
            )],
            cores=1,
        )
        outcome = compare(baseline, candidate)
        assert outcome.ok
        assert outcome.metrics[0].status == "skipped-cores"

    def test_min_cores_metric_gates_on_large_host(self):
        metric = BenchmarkResult(
            name="shard.speedup", value=2.0, unit="ratio",
            higher_is_better=True, min_cores=4,
        )
        baseline = _report(metrics=[metric], cores=8)
        candidate = _report(
            metrics=[BenchmarkResult(
                name="shard.speedup", value=0.9, unit="ratio",
                higher_is_better=True, min_cores=4,
            )],
            cores=8,
        )
        outcome = compare(baseline, candidate)
        assert not outcome.ok

    def test_auto_mode_goes_portable_across_machines(self):
        baseline = _report(metrics=self._metrics(), cores=1)
        candidate = _report(
            metrics=[
                BenchmarkResult(name="epoch_s", value=5.0),  # 5x "slower" host
                BenchmarkResult(
                    name="speedup", value=2.0, unit="ratio", higher_is_better=True
                ),
            ],
            cores=8,
        )
        assert not comparable_envs(baseline, candidate)
        outcome = compare(baseline, candidate)
        assert outcome.mode == "portable"
        statuses = {m.name: m.status for m in outcome.metrics}
        assert statuses["epoch_s"] == "skipped-env"  # seconds don't travel
        assert statuses["speedup"] == "ok"  # ratios do
        assert outcome.ok

    def test_portable_ratio_regression_still_fails_across_machines(self):
        baseline = _report(
            metrics=[BenchmarkResult(
                name="speedup", value=2.0, unit="ratio", higher_is_better=True
            )],
            cores=1,
        )
        candidate = _report(
            metrics=[BenchmarkResult(
                name="speedup", value=1.0, unit="ratio", higher_is_better=True
            )],
            cores=8,
        )
        assert not compare(baseline, candidate).ok

    def test_missing_candidate_metric_fails(self):
        baseline = _report(metrics=self._metrics())
        candidate = _report(metrics=self._metrics()[:1])
        outcome = compare(baseline, candidate)
        assert not outcome.ok
        assert outcome.regressions[0].status == "missing-candidate"

    def test_new_candidate_metric_is_informational(self):
        baseline = _report(metrics=self._metrics()[:1])
        candidate = _report(
            metrics=self._metrics()
            + [BenchmarkResult(name="fresh", value=1.0)][:1]
        )
        outcome = compare(baseline, candidate)
        assert outcome.ok
        assert {m.status for m in outcome.metrics} == {"ok", "new"}

    def test_suite_mismatch_and_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="different suites"):
            compare(_report(suite="a"), _report(suite="b"))
        with pytest.raises(ConfigurationError, match="mode"):
            compare(_report(), _report(), mode="loose")
        assert "auto" in COMPARE_MODES

    def test_format_names_failures(self):
        baseline = _report(metrics=[BenchmarkResult(name="epoch_s", value=1.0)])
        candidate = _report(metrics=[BenchmarkResult(name="epoch_s", value=2.0)])
        text = compare(baseline, candidate).format()
        assert "FAIL" in text and "epoch_s" in text and "REGRESSION" in text


# ---------------------------------------------------------------------- suite
class TestSuite:
    def test_measure_and_record(self):
        suite = Suite("demo", env_extra={"knob": 3})
        seconds = suite.measure("sleepless_s", lambda: None, repeats=2)
        suite.record("speedup", 2.0, unit="ratio", higher_is_better=True, min_cores=4)
        report = suite.report()
        assert report.suite == "demo"
        assert report.env["knob"] == 3
        assert report.metric("sleepless_s").value == seconds
        assert report.metric("speedup").min_cores == 4

    def test_timed_returns_value(self):
        suite = Suite("demo")
        assert suite.timed("call_s", lambda: 42) == 42
        assert suite.report().metric("call_s").value >= 0.0

    def test_paired_records_four_metrics(self):
        suite = Suite("demo")
        stats = suite.paired("pair", lambda: None, lambda: None, rounds=3)
        names = set(suite.report().metric_names())
        assert names == {
            "pair.speedup_median",
            "pair.speedup_min",
            "pair.baseline_best_s",
            "pair.candidate_best_s",
        }
        assert stats["ratio_median"] > 0

    def test_paired_ratios_protocol(self):
        stats = paired_ratios(lambda: None, lambda: None, rounds=4)
        assert set(stats) == {"ratio_median", "ratio_min", "a_best_s", "b_best_s"}
        with pytest.raises(ConfigurationError):
            paired_ratios(lambda: None, lambda: None, rounds=0)

    def test_best_of_validates_repeats(self):
        assert best_of(lambda: None, repeats=1, warmup=0) >= 0.0
        with pytest.raises(ConfigurationError):
            best_of(lambda: None, repeats=0)


# ------------------------------------------------------------ atomic recording
class TestAtomicRecording:
    def test_fault_at_store_write_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "BENCH_demo.json")
        rule = FaultRule(point="store.write", action="raise", error="RuntimeError")
        with fault_plan([rule]):
            with pytest.raises(RuntimeError):
                _report().save(path)
        assert not os.path.exists(path)
        assert list(tmp_path.iterdir()) == []  # no temp debris either

    def test_fault_at_store_write_preserves_old_baseline(self, tmp_path):
        path = str(tmp_path / "BENCH_demo.json")
        original = _report(metrics=[BenchmarkResult(name="m", value=1.0)])
        original.save(path)
        # crash every write attempt: the recorded baseline must survive intact
        rule = FaultRule(
            point="store.write", action="raise", error="RuntimeError", count=10
        )
        with fault_plan([rule]):
            with pytest.raises(RuntimeError):
                _report(metrics=[BenchmarkResult(name="m", value=9.0)]).save(path)
        assert BenchmarkReport.load(path).metric("m").value == 1.0

    def test_crash_mid_write_leaves_valid_or_absent_file(self, tmp_path):
        """A writer dying after partial output never tears the target file."""
        path = str(tmp_path / "BENCH_demo.json")
        atomic_write_json(path, {"state": "good"})

        def partial_then_crash(handle):
            handle.write(b'{"state": "tor')  # truncated JSON
            handle.flush()
            raise OSError("disk gone")

        policy = RetryPolicy(max_attempts=2, backoff_s=0.0)
        with pytest.raises(OSError):
            _atomic_write_with(path, partial_then_crash, retry=policy)
        with open(path) as handle:
            assert json.load(handle) == {"state": "good"}
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_demo.json"]

    def test_transient_write_fault_is_retried(self, tmp_path):
        path = str(tmp_path / "BENCH_demo.json")
        rule = FaultRule(point="store.write", action="raise", error="OSError")
        with fault_plan([rule]):
            _atomic_write_with(
                path,
                lambda handle: handle.write(b"{}"),
                retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
            )
        with open(path) as handle:
            assert json.load(handle) == {}


# ------------------------------------------------------------------- recorder
class TestRecorder:
    def test_report_path_convention(self, tmp_path):
        assert report_path(str(tmp_path), "training").endswith("BENCH_training.json")
        with pytest.raises(ConfigurationError):
            report_path(str(tmp_path), "../evil")

    def test_record_and_load_round_trip(self, tmp_path):
        path = record_report(_report(), str(tmp_path))
        assert load_report(path).suite == "demo"
        assert list(load_reports(str(tmp_path))) == ["demo"]

    def test_load_reports_ignores_non_report_json(self, tmp_path):
        record_report(_report(), str(tmp_path))
        (tmp_path / "fig4a_grid.json").write_text("{}")  # measured grid, no prefix
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        assert list(load_reports(str(tmp_path))) == ["demo"]

    def test_sequential_merge_accumulates_sections(self, tmp_path):
        record_report(
            _report(metrics=[BenchmarkResult(name="lenet.s", value=1.0)]),
            str(tmp_path),
        )
        record_report(
            _report(metrics=[BenchmarkResult(name="alexnet.s", value=2.0)]),
            str(tmp_path),
        )
        merged = load_report(report_path(str(tmp_path), "demo"))
        assert set(merged.metric_names()) == {"lenet.s", "alexnet.s"}

    def test_replace_mode_drops_history(self, tmp_path):
        record_report(
            _report(metrics=[BenchmarkResult(name="old.s", value=1.0)]), str(tmp_path)
        )
        record_report(
            _report(metrics=[BenchmarkResult(name="new.s", value=1.0)]),
            str(tmp_path),
            merge=False,
        )
        assert load_report(
            report_path(str(tmp_path), "demo")
        ).metric_names() == ("new.s",)

    def test_corrupt_history_warned_and_rebuilt(self, tmp_path, caplog):
        path = report_path(str(tmp_path), "demo")
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write('{"schema_version": 1, "suite"')  # torn write from old code
        with caplog.at_level(logging.WARNING, logger="repro.benchmarking"):
            record_report(
                _report(metrics=[BenchmarkResult(name="m", value=1.0)]), str(tmp_path)
            )
        assert any("unreadable" in r.message for r in caplog.records)
        assert load_report(path).metric("m").value == 1.0

    def test_concurrent_writers_both_land(self, tmp_path):
        """Two threads recording different sections must not clobber each other.

        This is the read-modify-write race of the old ``_merge_results``:
        without the lock one writer's section vanished.
        """
        barrier = threading.Barrier(2)
        errors = []

        def write(name):
            try:
                barrier.wait(timeout=10)
                report = _report(
                    metrics=[BenchmarkResult(name=f"{name}.s", value=1.0)]
                )
                record_report(report, str(tmp_path))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(name,)) for name in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        merged = load_report(report_path(str(tmp_path), "demo"))
        assert set(merged.metric_names()) == {"a.s", "b.s"}

    def test_many_concurrent_writers_all_land(self, tmp_path):
        names = [f"w{index}" for index in range(6)]
        barrier = threading.Barrier(len(names))
        errors = []

        def write(name):
            try:
                barrier.wait(timeout=10)
                report = _report(
                    metrics=[BenchmarkResult(name=f"{name}.s", value=1.0)]
                )
                record_report(report, str(tmp_path))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=write, args=(name,)) for name in names]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        merged = load_report(report_path(str(tmp_path), "demo"))
        assert set(merged.metric_names()) == {f"{name}.s" for name in names}

    def test_held_lock_times_out_with_warning(self, tmp_path, caplog):
        path = report_path(str(tmp_path), "demo")
        os.makedirs(str(tmp_path), exist_ok=True)
        holder = Lease(path + ".lock", ttl_s=300.0)
        assert holder.acquire()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.benchmarking"):
                record_report(_report(), str(tmp_path), lock_wait_s=0.2)
            assert any("without the lock" in r.message for r in caplog.records)
            assert load_report(path) is not None  # still recorded, atomically
        finally:
            holder.release()


# ------------------------------------------------------------------ lease skew
class TestLeaseSkew:
    def test_long_ttl_lease_tolerates_small_skew(self):
        now = 1000.0
        doc = {"acquired": now - 901.0, "expires": now - 1.0, "ttl_s": 900.0}
        assert not _lease_expired(doc, now)  # expired 1s ago: inside the margin
        assert _lease_expired(doc, now + 10.0)  # well past the margin

    def test_short_ttl_lease_stays_promptly_stealable(self):
        now = 1000.0
        doc = {"acquired": now - 0.11, "expires": now - 0.1, "ttl_s": 0.01}
        assert _lease_expired(doc, now)

    def test_negative_remaining_ttl_is_expired(self):
        # expires before acquired: the writer's own clocks disagree
        doc = {"acquired": 1000.0, "expires": 900.0, "ttl_s": 900.0}
        assert _lease_expired(doc, 500.0)

    def test_malformed_docs_are_expired(self):
        assert _lease_expired(None, 0.0)
        assert _lease_expired({}, 0.0)
        assert _lease_expired({"expires": "soon"}, 0.0)

    def test_remaining_s_never_negative(self, tmp_path):
        lease = Lease(str(tmp_path / "x.lease.json"), ttl_s=0.01)
        assert lease.acquire()
        try:
            assert lease.remaining_s() >= 0.0
        finally:
            lease.release()
        assert lease.remaining_s() == 0.0


# ------------------------------------------------------------------------ CLI
class TestCli:
    def _record(self, directory, value=1.0):
        record_report(
            _report(metrics=[BenchmarkResult(name="epoch_s", value=value)]),
            str(directory),
        )

    def test_compare_ok_on_identical_runs(self, tmp_path, capsys):
        from repro.benchmarking.cli import main

        base, cand = tmp_path / "base", tmp_path / "cand"
        self._record(base)
        self._record(cand)
        assert main(["compare", str(base), str(cand)]) == 0
        assert "benchmark regression gate: OK" in capsys.readouterr().out

    def test_compare_fails_on_injected_slowdown(self, tmp_path, capsys):
        from repro.benchmarking.cli import main

        base, cand = tmp_path / "base", tmp_path / "cand"
        self._record(base, value=1.0)
        self._record(cand, value=1.3)  # synthetic 30% slowdown
        assert main(["compare", str(base), str(cand)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_missing_suite_fails(self, tmp_path, capsys):
        from repro.benchmarking.cli import main

        base, cand = tmp_path / "base", tmp_path / "cand"
        self._record(base)
        os.makedirs(str(cand), exist_ok=True)
        assert main(["compare", str(base), str(cand)]) == 1
        assert "MISSING" in capsys.readouterr().out

    def test_compare_usage_errors_exit_two(self, tmp_path):
        from repro.benchmarking.cli import main

        base = tmp_path / "base"
        self._record(base)
        assert main(["compare", str(tmp_path / "void"), str(base)]) == 2
        assert main(
            ["compare", str(base), str(base), "--metric-threshold", "oops"]
        ) == 2

    def test_record_and_list(self, tmp_path, capsys):
        from repro.benchmarking.cli import main

        source = tmp_path / "incoming.json"
        _report(metrics=[BenchmarkResult(name="m", value=1.0)]).save(str(source))
        results = tmp_path / "results"
        assert main(["record", str(source), "--results-dir", str(results)]) == 0
        assert main(["list", str(results), "-v"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out and "m = 1" in out


# --------------------------------------------------------------- config knobs
class TestEnvKnobHelpers:
    def test_env_int_default_and_parse(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert env_int("REPRO_TEST_KNOB", 7) == 42
        monkeypatch.setenv("REPRO_TEST_KNOB", "")
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_env_int_error_names_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "lots")
        with pytest.raises(ConfigurationError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 7)

    def test_env_int_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(ConfigurationError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 7, minimum=1)

    def test_env_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0.25")
        assert env_float("REPRO_TEST_KNOB", 1.0) == 0.25
        monkeypatch.setenv("REPRO_TEST_KNOB", "fast")
        with pytest.raises(ConfigurationError, match="REPRO_TEST_KNOB"):
            env_float("REPRO_TEST_KNOB", 1.0)

    def test_env_str_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "thread")
        assert env_str("REPRO_TEST_KNOB", "auto") == "thread"
        with pytest.raises(ConfigurationError, match="REPRO_TEST_KNOB"):
            env_str("REPRO_TEST_KNOB", "auto", choices=("auto", "process"))


class TestBlasFingerprint:
    def test_env_fingerprint_records_blas(self):
        from repro.benchmarking.report import env_fingerprint

        fingerprint = env_fingerprint()
        assert isinstance(fingerprint["blas"], str) and fingerprint["blas"]
        assert isinstance(fingerprint["blas_version"], str)
        threads = fingerprint["blas_threads"]
        assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)
        json.dumps(fingerprint)  # stays serialisable into a report

    def test_host_without_openblas_reports_unknown(self, monkeypatch):
        import numpy as np

        from repro.benchmarking import report

        def no_build_metadata(*args, **kwargs):
            raise TypeError("show_config() got an unexpected keyword 'mode'")

        monkeypatch.setattr(report, "_openblas_libraries", lambda: [])
        monkeypatch.setattr(np, "show_config", no_build_metadata)
        assert report.blas_fingerprint() == {
            "blas": "unknown",
            "blas_version": "unknown",
            "blas_threads": "unknown",
        }
        assert report.env_fingerprint()["blas_threads"] == "unknown"

    def test_unloadable_library_is_skipped(self, monkeypatch, tmp_path):
        from repro.benchmarking import report

        bogus = tmp_path / "libopenblas-broken.so"
        bogus.write_bytes(b"not a shared object")
        monkeypatch.setattr(report, "_openblas_libraries", lambda: [bogus])
        assert report.blas_fingerprint()["blas_threads"] == "unknown"
