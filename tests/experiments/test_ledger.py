"""Tests for the JSONL run ledger and the runner's fault tolerance.

Covers the acceptance criteria of the checkpoint/ledger PR:

* every ledger event is durable and parseable (torn tails tolerated),
* ``run_one`` emits a run_started / generation / run_finished trace,
* ``run_many`` with an injected per-seed fault completes the remaining
  seeds, records the failure, and retries up to the configured limit,
* ``resume_run`` continues a crashed ``run_one`` to a byte-identical
  result.
"""

import json

import numpy as np
import pytest

from repro.core.callbacks import RunTimeoutError, WallClockTimeout
from repro.core.checkpoint import CheckpointCallback
from repro.core.nsga2 import NSGA2
from repro.experiments.ledger import (
    LedgerCallback,
    RunLedger,
    format_event,
    format_summary,
    read_ledger,
    summarize_ledger,
    tail_events,
)
from repro.experiments.runner import Scale, resume_run, run_many, run_one
from repro.problems.synthetic import ClusteredFeasibility
from repro.utils.serialization import result_to_dict

TINY = Scale(population=16, generations=5, n_mc=2, n_seeds=1, label="tiny")
SWEEP = Scale(population=16, generations=5, n_mc=2, n_seeds=3, label="tiny")


def serialized(result):
    return json.dumps(
        result_to_dict(result, include_timing=False), sort_keys=True
    ).encode()


class Boom(RuntimeError):
    pass


class FaultInjector:
    """Callback that crashes the first *n_failures* run attempts.

    Counts run attempts by watching for the generation-0 callback, then
    raises at *at_generation* while the budget of injected faults lasts.
    """

    def __init__(self, n_failures: int, at_generation: int = 2):
        self.n_failures = n_failures
        self.at_generation = at_generation
        self.runs_seen = 0

    def __call__(self, generation, population):
        if generation == 0:
            self.runs_seen += 1
        if generation == self.at_generation and self.runs_seen <= self.n_failures:
            raise Boom(f"injected fault (run {self.runs_seen})")


class KillAt:
    def __init__(self, generation: int):
        self.generation = generation

    def __call__(self, generation, population):
        if generation == self.generation:
            raise Boom(f"killed at generation {generation}")


# ------------------------------------------------------------ ledger sink


class TestRunLedger:
    def test_emit_appends_parseable_lines(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        ledger.emit("run_started", run="a", seed=7)
        ledger.emit("run_finished", run="a", wall_time=1.25)
        events = read_ledger(ledger.path)
        assert [e["event"] for e in events] == ["run_started", "run_finished"]
        assert events[0]["run"] == "a" and events[0]["seed"] == 7
        for e in events:
            assert "ts" in e and "elapsed_s" in e

    def test_creates_parent_directories(self, tmp_path):
        ledger = RunLedger(tmp_path / "deep" / "nested" / "trace.jsonl")
        ledger.emit("sweep_started")
        assert len(read_ledger(ledger.path)) == 1

    def test_sanitizes_nonfinite_and_numpy(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        ledger.emit(
            "run_finished",
            hv=float("inf"),
            nan_score=float("nan"),
            count=np.int64(3),
            nested={"x": np.float64(1.5), "bad": float("-inf")},
            seq=[np.float32(2.0), float("nan")],
        )
        (event,) = read_ledger(ledger.path)
        assert event["hv"] is None
        assert event["nan_score"] is None
        assert event["count"] == 3
        assert event["nested"] == {"x": 1.5, "bad": None}
        assert event["seq"] == [2.0, None]

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        ledger = RunLedger(path)
        ledger.emit("run_started", run="a")
        ledger.emit("generation", run="a", generation=3)
        with path.open("a") as fh:
            fh.write('{"event": "generation", "run": "a", "gener')  # crash mid-write
        events = read_ledger(path)
        assert [e["event"] for e in events] == ["run_started", "generation"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "a"}\nnot json at all\n{"event": "b"}\n')
        with pytest.raises(ValueError, match="corrupt ledger line 2"):
            read_ledger(path)

    def test_tail_events(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        for i in range(5):
            ledger.emit("generation", generation=i)
        tail = tail_events(ledger.path, 2)
        assert [e["generation"] for e in tail] == [3, 4]
        assert tail_events(ledger.path, 0) == []
        assert len(tail_events(ledger.path, 100)) == 5

    def test_tail_events_streams_from_file_end(self, tmp_path):
        """Multi-MB ledger: the tail must come from seeking backwards, not
        a full-file parse, and must match read_ledger's view exactly."""
        path = tmp_path / "big.jsonl"
        pad = "x" * 200
        n = 20000
        with path.open("w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(
                    json.dumps({"event": "generation", "generation": i, "pad": pad})
                    + "\n"
                )
        assert path.stat().st_size > 4 * 1024 * 1024
        tail = tail_events(path, 5)
        assert [e["generation"] for e in tail] == list(range(n - 5, n))
        assert tail == read_ledger(path)[-5:]

    def test_tail_events_with_tiny_blocks_and_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        ledger = RunLedger(path)
        for i in range(30):
            ledger.emit("generation", generation=i)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "generation", "gener')  # crash mid-write
        # block_size smaller than one line exercises the backward loop and
        # the partial-first-line drop on every block boundary.
        tail = tail_events(path, 4, block_size=16)
        assert [e["generation"] for e in tail] == [26, 27, 28, 29]

    def test_tail_events_corrupt_line_in_window_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event": "a"}\nnot json at all\n{"event": "b"}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="corrupt ledger line"):
            tail_events(path, 10)


class TestSummarize:
    def _events(self):
        return [
            {"event": "sweep_started", "ts": "t0"},
            {"event": "run_started", "run": "e/a/seed0"},
            {"event": "generation", "run": "e/a/seed0", "generation": 4},
            {"event": "run_finished", "run": "e/a/seed0", "wall_time": 2.0},
            {"event": "run_started", "run": "e/a/seed1"},
            {"event": "run_failed", "run": "e/a/seed1", "error": "Boom: x"},
            {"event": "retry", "run": "e/a/seed1", "attempt": 1},
            {"event": "run_started", "run": "e/a/seed1"},
            {"event": "run_failed", "run": "e/a/seed1", "error": "Boom: x"},
            {"event": "seed_abandoned", "run": "e/a/seed1"},
            {"event": "sweep_finished", "ts": "t1"},
        ]

    def test_statuses_and_counts(self):
        summary = summarize_ledger(self._events())
        assert summary["n_events"] == 11
        assert summary["event_counts"]["run_failed"] == 2
        runs = summary["runs"]
        assert runs["e/a/seed0"]["status"] == "finished"
        assert runs["e/a/seed0"]["last_generation"] == 4
        assert runs["e/a/seed0"]["wall_time"] == 2.0
        assert runs["e/a/seed1"]["status"] == "abandoned"
        assert runs["e/a/seed1"]["failures"] == 2
        assert summary["n_runs_finished"] == 1
        assert summary["n_runs_failed"] == 1
        assert summary["first_ts"] == "t0" and summary["last_ts"] == "t1"

    def test_empty_trace(self):
        summary = summarize_ledger([])
        assert summary["n_events"] == 0
        assert summary["runs"] == {}

    def test_wall_clock_fallback_for_crash_torn_ledger(self):
        """A run that never logged run_finished still gets a wall-clock
        figure, reconstructed from the span of its event timestamps."""
        events = [
            {"event": "run_started", "run": "r", "elapsed_s": 1.0},
            {"event": "generation", "run": "r", "generation": 1, "elapsed_s": 2.5},
            {"event": "generation", "run": "r", "generation": 2, "elapsed_s": 4.0},
        ]
        info = summarize_ledger(events)["runs"]["r"]
        assert info["status"] == "running"
        assert info["wall_time"] == pytest.approx(3.0)
        assert info["wall_time_source"] == "events"
        assert "_first_elapsed" not in info and "_last_elapsed" not in info

    def test_run_finished_wall_time_wins_over_fallback(self):
        events = [
            {"event": "run_started", "run": "r", "elapsed_s": 0.0},
            {"event": "run_finished", "run": "r", "wall_time": 9.0, "elapsed_s": 5.0},
        ]
        info = summarize_ledger(events)["runs"]["r"]
        assert info["wall_time"] == 9.0
        assert info["wall_time_source"] == "run_finished"

    def test_no_timestamps_means_no_wall_time(self):
        info = summarize_ledger([{"event": "run_started", "run": "r"}])["runs"]["r"]
        assert "wall_time" not in info

    def test_format_summary_flags_reconstructed_wall_clock(self):
        events = [
            {"event": "run_started", "run": "r", "elapsed_s": 1.0},
            {"event": "generation", "run": "r", "generation": 3, "elapsed_s": 4.0},
        ]
        text = format_summary(summarize_ledger(events))
        assert "wall=~3.00s" in text

    def test_format_event_and_summary_smoke(self):
        events = self._events()
        line = format_event(events[2])
        assert "generation" in line and "run=e/a/seed0" in line
        text = format_summary(summarize_ledger(events))
        assert "finished=1" in text
        assert "abandoned" in text
        assert "Boom" in text


# ------------------------------------------------------- optimizer wiring


class TestLedgerCallback:
    def test_generation_events_from_real_run(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        algo.add_callback(LedgerCallback(ledger, algo, run_id="unit/run"))
        algo.run(4)
        events = read_ledger(ledger.path)
        # generations 0..4 inclusive, every=1
        assert [e["generation"] for e in events] == [0, 1, 2, 3, 4]
        for e in events:
            assert e["event"] == "generation"
            assert e["run"] == "unit/run"
            assert e["population_size"] == 16
            assert 0 <= e["n_feasible"] <= 16
        # evaluation counters are cumulative and monotone
        counts = [e["n_evaluations"] for e in events]
        assert counts == sorted(counts)

    def test_every_skips_generations(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        algo.add_callback(LedgerCallback(ledger, algo, every=2))
        algo.run(5)
        gens = [e["generation"] for e in read_ledger(ledger.path)]
        assert gens == [0, 2, 4]

    def test_invalid_every(self, tmp_path):
        ledger = RunLedger(tmp_path / "trace.jsonl")
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        with pytest.raises(ValueError, match="every"):
            LedgerCallback(ledger, algo, every=0)


class TestLedgerCallbackSanitization:
    """Degenerate populations and telemetry extras serialize NaN-free."""

    @staticmethod
    def _fake_optimizer():
        from types import SimpleNamespace

        return SimpleNamespace(
            backend=SimpleNamespace(stats=SimpleNamespace(eval_time=0.0)),
            _n_evaluations=0,
        )

    @staticmethod
    def _population(size, n_feasible=0):
        from types import SimpleNamespace

        feasible = np.zeros(size, dtype=bool)
        feasible[:n_feasible] = True
        return SimpleNamespace(size=size, feasible=feasible)

    def test_empty_population_emits_null_ratio(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        cb = LedgerCallback(ledger, self._fake_optimizer(), run_id="r")
        cb(0, self._population(0))
        text = ledger.path.read_text(encoding="utf-8")
        assert "NaN" not in text  # json.dumps would spell it exactly so
        (event,) = read_ledger(ledger.path)
        assert event["feasible_ratio"] is None
        assert event["n_feasible"] == 0
        assert event["population_size"] == 0

    def test_zero_feasible_population_is_ratio_zero(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        cb = LedgerCallback(ledger, self._fake_optimizer(), run_id="r")
        cb(1, self._population(8, n_feasible=0))
        (event,) = read_ledger(ledger.path)
        assert event["feasible_ratio"] == 0.0

    def test_extras_fn_values_are_sanitized(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        extras = {"temperature": float("nan"), "gate_probability_1": 0.5}
        cb = LedgerCallback(
            ledger, self._fake_optimizer(), run_id="r", extras_fn=lambda: extras
        )
        cb(1, self._population(4, n_feasible=2))
        (event,) = read_ledger(ledger.path)
        assert event["telemetry"]["temperature"] is None
        assert event["telemetry"]["gate_probability_1"] == 0.5

    def test_empty_extras_are_omitted(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        cb = LedgerCallback(
            ledger, self._fake_optimizer(), run_id="r", extras_fn=dict
        )
        cb(0, self._population(4, n_feasible=4))
        (event,) = read_ledger(ledger.path)
        assert "telemetry" not in event


class TestRunOneLedger:
    def test_trace_of_successful_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run_one("tpg", "ledger-test", scale=TINY, ledger=str(path))
        events = read_ledger(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert kinds.count("generation") == TINY.generations + 1
        started = events[0]
        assert started["run"] == "ledger-test/tpg/seed0"
        assert started["generations"] == TINY.generations
        assert started["resumed"] is False
        finished = events[-1]
        assert finished["n_evaluations"] == 16 * 6
        assert "backend_stats" in finished
        assert finished["backend_stats"]["n_evaluations"] == 16 * 6

    def test_failed_run_recorded_and_reraised(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(Boom):
            run_one(
                "tpg", "ledger-test", scale=TINY,
                ledger=str(path), callbacks=[KillAt(2)],
            )
        events = read_ledger(path)
        assert events[-1]["event"] == "run_failed"
        assert "Boom" in events[-1]["error"]
        assert "killed at generation 2" in events[-1]["error"]

    def test_timeout_recorded(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RunTimeoutError):
            run_one(
                "tpg", "ledger-test", scale=TINY,
                ledger=str(path), timeout_s=1e-9,
            )
        events = read_ledger(path)
        assert events[-1]["event"] == "run_failed"
        assert "RunTimeoutError" in events[-1]["error"]


class TestWallClockTimeout:
    def test_raises_past_budget(self):
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        algo.add_callback(WallClockTimeout(1e-9))
        with pytest.raises(RunTimeoutError):
            algo.run(5)

    def test_generous_budget_is_noop(self):
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        algo.add_callback(WallClockTimeout(3600.0))
        result = algo.run(3)
        assert result.n_generations == 3

    def test_invalid_budget(self):
        with pytest.raises(ValueError, match="timeout_s"):
            WallClockTimeout(0.0)


# ------------------------------------------------------ sweep fault model


class TestRunManyFaultTolerance:
    def test_retry_up_to_limit_then_succeed(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # Seed 0's first two attempts crash; the third succeeds.
        injector = FaultInjector(n_failures=2)
        summaries = run_many(
            "tpg", "sweep-test", scale=SWEEP, retries=2,
            ledger=str(path), callbacks=[injector],
        )
        assert len(summaries) == SWEEP.n_seeds
        events = read_ledger(path)
        counts = summarize_ledger(events)["event_counts"]
        assert counts["run_failed"] == 2
        assert counts["retry"] == 2
        assert counts["run_finished"] == 3
        assert "seed_abandoned" not in counts
        retry = next(e for e in events if e["event"] == "retry")
        assert retry["run"] == "sweep-test/tpg/seed0"
        assert retry["max_retries"] == 2
        finished = [e for e in events if e["event"] == "sweep_finished"]
        assert finished[-1]["n_succeeded"] == 3
        assert finished[-1]["n_abandoned"] == 0

    def test_abandoned_seed_does_not_kill_sweep(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        # Seed 0 fails on both its attempts (1 retry); seeds 1, 2 complete.
        injector = FaultInjector(n_failures=2)
        summaries = run_many(
            "tpg", "sweep-test", scale=SWEEP, retries=1,
            ledger=str(path), callbacks=[injector],
        )
        assert len(summaries) == SWEEP.n_seeds - 1
        seeds_done = {s.seed for s in summaries}
        assert len(seeds_done) == 2
        events = read_ledger(path)
        abandoned = [e for e in events if e["event"] == "seed_abandoned"]
        assert len(abandoned) == 1
        assert abandoned[0]["run"] == "sweep-test/tpg/seed0"
        assert abandoned[0]["attempts"] == 2
        assert "Boom" in abandoned[0]["error"]
        finished = [e for e in events if e["event"] == "sweep_finished"]
        assert finished[-1]["n_succeeded"] == 2
        assert finished[-1]["n_abandoned"] == 1

    def test_skip_failures_without_retries(self, tmp_path):
        injector = FaultInjector(n_failures=1)
        summaries = run_many(
            "tpg", "sweep-test", scale=SWEEP, skip_failures=True,
            ledger=str(tmp_path / "t.jsonl"), callbacks=[injector],
        )
        assert len(summaries) == SWEEP.n_seeds - 1

    def test_strict_default_propagates_first_failure(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        injector = FaultInjector(n_failures=1)
        with pytest.raises(Boom):
            run_many(
                "tpg", "sweep-test", scale=SWEEP,
                ledger=str(path), callbacks=[injector],
            )
        counts = summarize_ledger(read_ledger(path))["event_counts"]
        assert counts["run_failed"] == 1
        assert "retry" not in counts and "seed_abandoned" not in counts

    def test_timeout_fault_is_retried(self, tmp_path):
        # A hung seed (modelled by the cooperative timeout) is treated
        # like any other per-seed fault: abandoned, sweep continues.
        summaries = run_many(
            "tpg", "sweep-test",
            scale=Scale(population=16, generations=5, n_mc=2, n_seeds=2, label="tiny"),
            skip_failures=True, timeout_s=1e-9,
            ledger=str(tmp_path / "t.jsonl"),
        )
        assert summaries == []
        counts = summarize_ledger(read_ledger(tmp_path / "t.jsonl"))["event_counts"]
        assert counts["seed_abandoned"] == 2

    def test_invalid_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_many("tpg", "sweep-test", scale=SWEEP, retries=-1)


# --------------------------------------------------------- resume round trip


class TestResumeRun:
    def test_crash_resume_is_byte_identical(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        baseline = run_one("tpg", "resume-test", scale=TINY)
        with pytest.raises(Boom):
            run_one(
                "tpg", "resume-test", scale=TINY,
                checkpoint_path=str(ckpt), checkpoint_every=2,
                callbacks=[KillAt(3)],
            )
        assert ckpt.exists()
        resumed = resume_run(str(ckpt))
        assert serialized(resumed.result) == serialized(baseline.result)
        assert resumed.seed == baseline.seed

    def test_resume_ignores_removed_backend_and_kernel_keys(self, tmp_path):
        """A checkpoint written while the evaluation backend and kernel
        were still options resumes byte-identically: its context keys
        and its pool/cache counters are ignored."""
        from repro.core.checkpoint import load_checkpoint, save_checkpoint

        ckpt = tmp_path / "run.ckpt"
        baseline = run_one("tpg", "resume-test", scale=TINY)
        with pytest.raises(Boom):
            run_one(
                "tpg", "resume-test", scale=TINY,
                checkpoint_path=str(ckpt), checkpoint_every=2,
                callbacks=[KillAt(3)],
            )
        payload = load_checkpoint(str(ckpt))
        payload["context"].update(
            backend="shm", workers=2, cache_size=64, kernel="reference"
        )
        payload["backend_stats"].update(
            cache_hits=5, bytes_shared=4096, bytes_pickled=512
        )
        save_checkpoint(payload, str(ckpt))
        resumed = resume_run(str(ckpt))
        assert serialized(resumed.result) == serialized(baseline.result)

    def test_resume_emits_resumed_flag_and_checkpoints_onward(self, tmp_path):
        ckpt = tmp_path / "run.ckpt"
        path = tmp_path / "trace.jsonl"
        with pytest.raises(Boom):
            run_one(
                "tpg", "resume-test", scale=TINY,
                checkpoint_path=str(ckpt), checkpoint_every=2,
                callbacks=[KillAt(3)],
            )
        resume_run(str(ckpt), ledger=str(path))
        events = read_ledger(path)
        started = next(e for e in events if e["event"] == "run_started")
        assert started["resumed"] is True
        # checkpointing continued to the same file: generation 4 overwrote
        # the generation-2 checkpoint we resumed from.
        from repro.core.checkpoint import load_checkpoint

        assert load_checkpoint(str(ckpt))["generation"] == 4

    def test_resume_requires_runner_context(self, tmp_path):
        ckpt = tmp_path / "bare.ckpt"
        algo = NSGA2(ClusteredFeasibility(n_var=4), population_size=16, seed=3)
        algo.add_callback(CheckpointCallback(algo, str(ckpt), every=2))
        algo.run(4)
        with pytest.raises(ValueError, match="no runner context"):
            resume_run(str(ckpt))


class TestMonotonicTimestamps:
    def test_emit_records_carry_mono(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        record = ledger.emit("run_started", run="r")
        assert isinstance(record["mono"], float)
        (read,) = read_ledger(ledger.path)
        assert read["mono"] == record["mono"]

    def test_bound_fields_on_every_event(self, tmp_path):
        ledger = RunLedger(
            tmp_path / "t.jsonl",
            bound={"trace_id": "t1", "job_id": "j1", "worker": "w0", "attempt": 1},
        )
        ledger.emit("run_started", run="r")
        ledger.emit("generation", run="r", generation=0)
        for event in read_ledger(ledger.path):
            assert event["trace_id"] == "t1"
            assert event["job_id"] == "j1"
            assert event["worker"] == "w0"
            assert event["attempt"] == 1

    def test_event_fields_win_over_bound(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl", bound={"attempt": 1})
        ledger.emit("retry", run="r", attempt=2)
        (event,) = read_ledger(ledger.path)
        assert event["attempt"] == 2

    def test_monotonic_preferred_over_elapsed_across_attempts(self):
        # elapsed_s resets when a resumed attempt creates a fresh
        # RunLedger; absolute monotonic stamps span both attempts.
        events = [
            {"event": "run_started", "run": "r", "elapsed_s": 0.0, "mono": 100.0},
            {"event": "generation", "run": "r", "generation": 1,
             "elapsed_s": 5.0, "mono": 105.0},
            {"event": "resumed", "run": "r", "elapsed_s": 0.0, "mono": 106.0},
            {"event": "generation", "run": "r", "generation": 2,
             "elapsed_s": 1.0, "mono": 107.0},
        ]
        info = summarize_ledger(events)["runs"]["r"]
        assert info["wall_time"] == pytest.approx(7.0)
        assert info["wall_time_source"] == "monotonic"
        assert "_first_mono" not in info and "_last_mono" not in info

    def test_wall_clock_step_does_not_corrupt_duration(self):
        # The wall clock ("ts") stepping backwards mid-run must not
        # matter: durations come from mono, never from parsing ts.
        events = [
            {"event": "run_started", "run": "r",
             "ts": "2026-08-08T12:00:00+00:00", "elapsed_s": 0.0, "mono": 50.0},
            {"event": "generation", "run": "r", "generation": 1,
             "ts": "2026-08-08T11:00:00+00:00",  # NTP stepped us back an hour
             "elapsed_s": 2.0, "mono": 53.0},
        ]
        info = summarize_ledger(events)["runs"]["r"]
        assert info["wall_time"] == pytest.approx(3.0)
        assert info["wall_time_source"] == "monotonic"

    def test_legacy_events_without_mono_still_summarize(self):
        events = [
            {"event": "run_started", "run": "r", "elapsed_s": 1.0},
            {"event": "generation", "run": "r", "generation": 1, "elapsed_s": 4.0},
        ]
        info = summarize_ledger(events)["runs"]["r"]
        assert info["wall_time"] == pytest.approx(3.0)
        assert info["wall_time_source"] == "events"

    def test_format_summary_tildes_monotonic_reconstruction(self):
        events = [
            {"event": "run_started", "run": "r", "mono": 10.0},
            {"event": "generation", "run": "r", "generation": 1, "mono": 12.5},
        ]
        assert "wall=~2.50s" in format_summary(summarize_ledger(events))

    def test_format_event_hides_mono_detail(self, tmp_path):
        ledger = RunLedger(tmp_path / "t.jsonl")
        record = ledger.emit("generation", run="r", generation=3)
        line = format_event(record)
        assert "mono=" not in line
        assert "generation" in line
