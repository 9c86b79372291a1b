"""Spans: the in-memory aggregate, JSON-lines export, cross-process stitching."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.obs.records import read_records
from repro.obs.tracing import (
    NULL_TRACE_RECORDER,
    NullTraceRecorder,
    TRACE_FILE_SUFFIX,
    TraceRecorder,
    check_trace_id,
    collect_trace,
    format_profile,
    format_trace_tree,
    mint_trace_id,
    safe_process_name,
    stitch_trace,
)
from tests.obs.strict_json import strict_lines


class TestTraceIds:
    def test_mint_is_unique_and_valid(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert check_trace_id(trace_id) == trace_id

    def test_check_accepts_w3c_style(self):
        assert check_trace_id("0af7651916cd43dd8448eb211c80319c") is not None
        assert check_trace_id("job-42.attempt:1") is not None

    @pytest.mark.parametrize(
        "bad", ["", ".hidden", "has space", "a" * 129, 'quo"te', "new\nline", None, 7]
    )
    def test_check_rejects(self, bad):
        with pytest.raises(ValueError, match="invalid trace id"):
            check_trace_id(bad)

    def test_safe_process_name(self):
        assert safe_process_name("worker/3:a b") == "worker-3-a-b"
        assert safe_process_name("///") == "process"


class TestTraceRecorder:
    def test_span_writes_start_and_end(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="server")
        with rec.span("submit", trace_id="t1", job_id="j1"):
            pass
        start, end = read_records(rec.path)
        assert start["phase"] == "start" and end["phase"] == "end"
        assert start["span_id"] == end["span_id"]
        assert start["trace_id"] == end["trace_id"] == "t1"
        assert start["job_id"] == "j1"
        assert end["status"] == "ok"
        assert end["duration_s"] >= 0.0
        assert {"wall", "mono", "pid", "process"} <= set(start)

    def test_nested_spans_inherit_trace_and_parent(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with rec.span("outer", trace_id="t1") as outer:
            with rec.span("inner") as inner:
                assert inner.trace_id == "t1"
        events = read_records(rec.path)
        inner_start = [e for e in events if e["name"] == "inner"][0]
        assert inner_start["parent_id"] == outer.span_id
        assert inner_start["trace_id"] == "t1"

    def test_exception_marks_error_status(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with pytest.raises(RuntimeError):
            with rec.span("boom", trace_id="t1"):
                raise RuntimeError("kaput")
        end = read_records(rec.path)[-1]
        assert end["status"] == "error"
        assert "RuntimeError: kaput" in end["error"]

    def test_annotate_lands_on_end_record(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with rec.span("register", trace_id="t1") as span:
            span.annotate(version=3)
        end = read_records(rec.path)[-1]
        assert end["version"] == 3

    def test_thread_local_stacks_do_not_cross(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        seen = {}

        def other():
            with rec.span("b", trace_id="tb") as span:
                seen["parent"] = span.record["parent_id"]

        with rec.span("a", trace_id="ta"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert seen["parent"] is None  # thread B never saw thread A's span

    def test_for_process_names_file_by_process_and_pid(self, tmp_path):
        rec = TraceRecorder.for_process(tmp_path, "worker/1")
        assert rec.path.parent == tmp_path
        assert rec.path.name.startswith("worker-1-")
        assert rec.path.name.endswith(TRACE_FILE_SUFFIX)

    def test_null_recorder_writes_nothing(self, tmp_path):
        rec = NullTraceRecorder()
        with rec.span("anything", trace_id="t1") as span:
            span.annotate(x=1)
        assert isinstance(NULL_TRACE_RECORDER, TraceRecorder)
        assert rec.path is None
        assert rec.profile() == []

    def test_annotate_dict_and_non_finite_write_strict_json(self, tmp_path):
        # Regression: a dict field was written as its Python repr, and a
        # non-finite float as a bare -Infinity token.
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with rec.span("s", trace_id="t1", shape=np.array([2, 3])) as span:
            span.annotate(info={"k": np.int64(3)}, hv=float("-inf"))
        start, end = strict_lines(rec.path)
        assert start["shape"] == [2, 3]
        assert end["info"] == {"k": 3}
        assert type(end["info"]["k"]) is int
        assert end["hv"] is None


class TestReaders:
    def test_collect_filters_by_trace_id_across_files(self, tmp_path):
        a = TraceRecorder.for_process(tmp_path, "server")
        b = TraceRecorder(tmp_path / f"worker-99{TRACE_FILE_SUFFIX}", process="worker")
        with a.span("submit", trace_id="t1"):
            pass
        with b.span("attempt", trace_id="t1"):
            pass
        with b.span("attempt", trace_id="other"):
            pass
        events = collect_trace(tmp_path, trace_id="t1")
        assert {e["name"] for e in events} == {"submit", "attempt"}
        assert all(e["trace_id"] == "t1" for e in events)
        assert len(collect_trace(tmp_path)) == 6


class TestSpanAggregation:
    def test_repeated_spans_merge_into_one_node(self):
        rec = TraceRecorder()
        for _ in range(3):
            with rec.span("generation"):
                with rec.span("evaluate"):
                    pass
        (gen,) = rec.profile()
        assert gen["name"] == "generation"
        assert gen["count"] == 3
        (child,) = gen["children"]
        assert child["name"] == "evaluate"
        assert child["count"] == 3

    def test_same_name_under_different_parents_stays_separate(self):
        rec = TraceRecorder()
        with rec.span("rank"):
            with rec.span("kernel"):
                pass
        with rec.span("migrate"):
            with rec.span("kernel"):
                pass
        profile = rec.profile()
        assert [node["name"] for node in profile] == ["rank", "migrate"]
        assert [node["children"][0]["count"] for node in profile] == [1, 1]

    def test_self_time_excludes_children(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        (outer,) = rec.profile()
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - outer["children"][0]["total_s"]
        )
        assert outer["self_s"] >= 0.0

    def test_exception_unwinds_stack_and_records_time(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("run"):
                with rec.span("generation"):
                    raise RuntimeError("boom")
        assert rec._thread_stack() == []
        (run,) = rec.profile()
        assert run["count"] == 1
        assert run["children"][0]["count"] == 1
        # Recorder still usable after the unwind.
        with rec.span("run"):
            pass
        (run,) = rec.profile()
        assert run["count"] == 2

    def test_file_recorder_aggregates_too(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with rec.span("worker:attempt", trace_id="t1"):
            with rec.span("worker:run"):
                pass
        (attempt,) = rec.profile()
        assert attempt["children"][0]["name"] == "worker:run"
        assert len(read_records(rec.path)) == 4

    def test_threads_aggregate_like_sequential_spans(self):
        n_threads = 8

        def work(rec, rounds=200):
            for _ in range(rounds):
                with rec.span("generation"):
                    with rec.span("evaluate"):
                        pass
                    with rec.span("rank"):
                        with rec.span("kernel"):
                            pass

        def shape(nodes):
            return sorted(
                (n["name"], n["count"], shape(n["children"])) for n in nodes
            )

        sequential = TraceRecorder()
        for _ in range(n_threads):
            work(sequential)
        threaded = TraceRecorder()
        barrier = threading.Barrier(n_threads)

        def run():
            barrier.wait()
            work(threaded)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force interleaving inside span()/_finish()
        try:
            threads = [threading.Thread(target=run) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert shape(threaded.profile()) == shape(sequential.profile())


class TestFormatting:
    def _recorder(self):
        rec = TraceRecorder()
        with rec.span("run"):
            for _ in range(2):
                with rec.span("generation"):
                    with rec.span("evaluate"):
                        pass
        return rec

    def test_format_profile_lists_every_span(self):
        text = format_profile(self._recorder().profile())
        assert "run" in text
        assert "  generation" in text
        assert "    evaluate" in text
        assert "2x" in text

    def test_format_profile_round_trips_through_json(self):
        profile = json.loads(json.dumps(self._recorder().profile()))
        assert "generation" in format_profile(profile)

    def test_empty_profile(self):
        assert format_profile([]) == "(no spans recorded)"
        assert format_profile(TraceRecorder().profile()) == "(no spans recorded)"


class TestNullRecorder:
    def test_shared_noop_span(self):
        assert NullTraceRecorder().span("a") is NULL_TRACE_RECORDER.span("b")
        with NULL_TRACE_RECORDER.span("anything", trace_id="t") as span:
            span.annotate(x=1)
            assert span.span_id is None
        assert NULL_TRACE_RECORDER.profile() == []


class TestStitching:
    def _make_events(self):
        # Server submits; worker attempt 1 dies mid-span (start only, clock
        # skewed ahead); worker attempt 2 completes.
        return [
            {"phase": "start", "span_id": "s1", "parent_id": None, "name": "server:submit",
             "process": "server", "trace_id": "t1", "wall": 100.0, "mono": 5.0},
            {"phase": "end", "span_id": "s1", "parent_id": None, "name": "server:submit",
             "process": "server", "trace_id": "t1", "wall": 100.0, "mono": 5.0,
             "duration_s": 0.01, "status": "ok"},
            {"phase": "start", "span_id": "w1", "parent_id": None, "name": "worker:attempt",
             "process": "worker-a", "trace_id": "t1", "wall": 900.0, "mono": 1.0,
             "attempt": 1},
            {"phase": "start", "span_id": "w2", "parent_id": None, "name": "worker:attempt",
             "process": "worker-b", "trace_id": "t1", "wall": 101.0, "mono": 2.0,
             "attempt": 2},
            {"phase": "start", "span_id": "w2f", "parent_id": "w2", "name": "worker:finish",
             "process": "worker-b", "trace_id": "t1", "wall": 101.5, "mono": 2.5},
            {"phase": "end", "span_id": "w2f", "parent_id": "w2", "name": "worker:finish",
             "process": "worker-b", "trace_id": "t1", "wall": 101.5, "mono": 2.5,
             "duration_s": 0.001, "status": "ok"},
            {"phase": "end", "span_id": "w2", "parent_id": None, "name": "worker:attempt",
             "process": "worker-b", "trace_id": "t1", "wall": 101.0, "mono": 2.0,
             "duration_s": 1.0, "status": "ok", "attempt": 2},
        ]

    def test_stitch_merges_and_flags_in_progress(self):
        roots = stitch_trace(self._make_events())
        by_id = {r["span_id"]: r for r in roots}
        assert set(by_id) == {"s1", "w1", "w2"}
        assert by_id["w1"]["in_progress"] is True  # killed attempt
        assert by_id["w2"]["in_progress"] is False
        assert by_id["w2"]["children"][0]["span_id"] == "w2f"

    def test_roots_order_by_wall_clock(self):
        roots = stitch_trace(self._make_events())
        assert [r["span_id"] for r in roots] == ["s1", "w2", "w1"]

    def test_format_tree_shows_both_attempts_and_processes(self):
        text = format_trace_tree(stitch_trace(self._make_events()), trace_id="t1")
        assert text.splitlines()[0] == "trace t1"
        assert "(unfinished)" in text
        assert "attempt=1" in text and "attempt=2" in text
        assert "processes: server, worker-a, worker-b" in text

    def test_orphan_parent_becomes_root(self):
        events = [
            {"phase": "start", "span_id": "x", "parent_id": "gone", "name": "n",
             "process": "p", "trace_id": "t", "wall": 1.0, "mono": 1.0},
        ]
        roots = stitch_trace(events)
        assert [r["span_id"] for r in roots] == ["x"]


class TestEndToEndFiles:
    def test_two_recorders_stitch_into_one_tree(self, tmp_path):
        trace_id = mint_trace_id()
        server = TraceRecorder.for_process(tmp_path, "server")
        worker = TraceRecorder(
            tmp_path / f"worker-1-777{TRACE_FILE_SUFFIX}", process="worker-1"
        )
        with server.span("server:submit", trace_id=trace_id, job_id="j1"):
            pass
        with worker.span(
            "worker:attempt", trace_id=trace_id, job_id="j1", attempt=1
        ) as attempt:
            with worker.span("worker:run"):
                pass
            with worker.span("worker:finish", parent_id=attempt.span_id):
                pass
        roots = stitch_trace(collect_trace(tmp_path, trace_id=trace_id))
        names = {r["name"] for r in roots}
        assert names == {"server:submit", "worker:attempt"}
        attempt_node = [r for r in roots if r["name"] == "worker:attempt"][0]
        assert [c["name"] for c in attempt_node["children"]] == [
            "worker:run",
            "worker:finish",
        ]
        text = format_trace_tree(roots, trace_id=trace_id)
        assert "job_id=j1" in text

    def test_records_are_compact_sorted_json(self, tmp_path):
        rec = TraceRecorder(tmp_path / "t.trace.jsonl", process="w")
        with rec.span("s", trace_id="t1"):
            pass
        first = rec.path.read_text(encoding="utf-8").splitlines()[0]
        assert first == json.dumps(json.loads(first), sort_keys=True,
                                   separators=(",", ":"))
