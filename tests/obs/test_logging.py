"""Structured logging: sinks, levels, context binding, env activation."""

import io
import json

import numpy as np
import pytest

from repro.obs.logging import (
    LEVELS,
    LogSink,
    StructuredLogger,
    configure_logging,
    disable_logging,
    get_logger,
    logging_configured,
)
from repro.obs.records import read_records
from tests.obs.strict_json import strict_lines


@pytest.fixture(autouse=True)
def _silent_after(monkeypatch):
    """Leave the process-wide sink disabled after every test."""
    monkeypatch.delenv("REPRO_LOG", raising=False)
    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    yield
    disable_logging()


class TestSink:
    def test_file_sink_appends_json_lines(self, tmp_path):
        log_path = tmp_path / "logs" / "serve.log"
        configure_logging(path=log_path)
        get_logger("serve.http").info("request", status=200)
        get_logger("serve.http").info("request", status=404)
        records = read_records(log_path)
        assert [r["status"] for r in records] == [200, 404]
        assert all(r["component"] == "serve.http" for r in records)
        assert all({"ts", "mono", "pid", "level", "message"} <= set(r) for r in records)

    def test_stream_sink(self):
        stream = io.StringIO()
        configure_logging(stream=stream, level="debug")
        get_logger("x").debug("hello")
        record = json.loads(stream.getvalue())
        assert record["message"] == "hello"
        assert record["level"] == "debug"

    def test_silent_by_default(self, tmp_path):
        disable_logging()
        assert not logging_configured()
        get_logger("x").error("dropped")  # must not raise or write anywhere

    def test_threshold_filters(self):
        stream = io.StringIO()
        configure_logging(stream=stream, level="warning")
        log = get_logger("x")
        log.debug("no")
        log.info("no")
        log.warning("yes")
        log.error("yes")
        lines = stream.getvalue().splitlines()
        assert [json.loads(l)["level"] for l in lines] == ["warning", "error"]

    def test_path_and_stream_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            LogSink(path=tmp_path / "x.log", stream=io.StringIO())

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging(stream=io.StringIO(), level="verbose")
        assert set(LEVELS) == {"debug", "info", "warning", "error"}


class TestBinding:
    def test_bind_layers_additively(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        log = get_logger("serve.worker", worker="w1")
        job_log = log.bind(job_id="j1", trace_id="t1")
        job_log.info("claimed")
        record = json.loads(stream.getvalue())
        assert record["worker"] == "w1"
        assert record["job_id"] == "j1"
        assert record["trace_id"] == "t1"
        # parent unchanged
        assert log.bound == {"worker": "w1"}

    def test_call_fields_win_over_bound(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("x", state="old").info("msg", state="new")
        assert json.loads(stream.getvalue())["state"] == "new"

    def test_non_scalar_fields_stringified(self, tmp_path):
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("x").info("msg", path=tmp_path, nested={"k": [1, 2]})
        record = json.loads(stream.getvalue())
        assert record["path"] == str(tmp_path)
        assert record["nested"] == {"k": [1, 2]}

    def test_numpy_and_non_finite_fields_are_strict_json(self, tmp_path):
        # Regression: nan was written as a bare NaN token and np.int64 as
        # the string "3".
        log_path = tmp_path / "strict.log"
        configure_logging(path=log_path)
        get_logger("x", bound_nan=float("nan")).info(
            "msg", score=float("nan"), count=np.int64(3), ok=np.bool_(True)
        )
        (record,) = strict_lines(log_path)
        assert record["score"] is None and record["bound_nan"] is None
        assert record["count"] == 3 and type(record["count"]) is int
        assert record["ok"] is True


class TestEnvActivation:
    def test_repro_log_path_enables_logging(self, tmp_path, monkeypatch):
        import repro.obs.logging as mod

        log_path = tmp_path / "env.log"
        monkeypatch.setenv("REPRO_LOG", str(log_path))
        monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
        monkeypatch.setattr(mod, "_sink", None)
        monkeypatch.setattr(mod, "_env_checked", False)
        get_logger("x").debug("from-env")
        assert read_records(log_path)[0]["message"] == "from-env"

    def test_env_ignored_once_configured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", str(tmp_path / "ignored.log"))
        stream = io.StringIO()
        configure_logging(stream=stream)  # explicit config wins
        get_logger("x").info("msg")
        assert not (tmp_path / "ignored.log").exists()
        assert "msg" in stream.getvalue()
