"""The one JSON-lines record path: converter, writer and torn-tail readers.

The run ledger, the span trace files and the structured log all write
through :func:`append_record` and read back through :func:`read_records`
/ :func:`tail_records`, so the reader rules are tested once here for
every stream.
"""

import io
import json

import numpy as np
import pytest

from repro.obs.records import append_record, jsonable, read_records, tail_records
from tests.obs.strict_json import strict_lines


def _write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


WHOLE = ['{"n": 1}', '{"n": 2}', '{"n": 3}']


@pytest.mark.parametrize(
    "reader",
    [read_records, lambda path: tail_records(path, 100)],
    ids=["read_records", "tail_records"],
)
class TestReaders:
    def test_torn_tail_is_dropped(self, tmp_path, reader):
        path = tmp_path / "r.jsonl"
        _write_lines(path, *WHOLE)
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"n": 4, "to')  # kill -9 mid-append
        assert [r["n"] for r in reader(path)] == [1, 2, 3]

    def test_interior_corruption_raises(self, tmp_path, reader):
        path = tmp_path / "r.jsonl"
        _write_lines(path, WHOLE[0], "not json at all", WHOLE[1])
        with pytest.raises(ValueError, match="corrupt record"):
            reader(path)

    def test_blank_lines_are_skipped(self, tmp_path, reader):
        path = tmp_path / "r.jsonl"
        _write_lines(path, WHOLE[0], "", "   ", WHOLE[1], "")
        assert [r["n"] for r in reader(path)] == [1, 2]

    def test_missing_file_raises(self, tmp_path, reader):
        with pytest.raises(FileNotFoundError):
            reader(tmp_path / "absent.jsonl")


class TestReadRecords:
    def test_corrupt_line_number_counts_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _write_lines(path, WHOLE[0], "", "garbage", WHOLE[1])
        with pytest.raises(ValueError, match="at line 3"):
            read_records(path)

    def test_torn_line_before_trailing_blank_lines_is_dropped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        _write_lines(path, WHOLE[0], '{"n": 2', "")
        assert read_records(path) == [{"n": 1}]


class TestTailRecords:
    def test_last_n(self, tmp_path):
        path = tmp_path / "r.jsonl"
        for i in range(5):
            append_record(path, {"generation": i})
        tail = tail_records(path, 2)
        assert [r["generation"] for r in tail] == [3, 4]
        assert tail_records(path, 0) == []
        assert len(tail_records(path, 100)) == 5

    def test_streams_from_file_end(self, tmp_path):
        """Multi-MB file: the tail must come from seeking backwards, not
        a full-file parse, and must match read_records' view exactly."""
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
        tail = tail_records(path, 5)
        assert [r["generation"] for r in tail] == list(range(n - 5, n))
        assert tail == read_records(path)[-5:]

    def test_tiny_blocks_and_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        for i in range(30):
            append_record(path, {"event": "generation", "generation": i})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"event": "generation", "gener')  # crash mid-write
        # block_size smaller than one line exercises the backward loop and
        # the partial-first-line drop on every block boundary.
        tail = tail_records(path, 4, block_size=16)
        assert [r["generation"] for r in tail] == [26, 27, 28, 29]


class TestJsonable:
    """Arrays and non-finite floats are covered through the job store
    (tests/serve/test_store.py::TestJsonable) and the ledger."""

    def test_numpy_scalars_become_native(self):
        for value, expected in [
            (np.int64(3), 3),
            (np.int32(7), 7),
            (np.float32(2.0), 2.0),
            (np.bool_(True), True),
        ]:
            converted = jsonable(value)
            assert converted == expected
            assert type(converted) is type(expected)

    def test_keys_become_str_and_other_values_str(self, tmp_path):
        assert jsonable({1: (2, 3)}) == {"1": [2, 3]}
        assert jsonable(tmp_path) == str(tmp_path)
        assert jsonable(None) is None


class TestAppendRecord:
    def test_compact_sorted_strict_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        written = append_record(path, {"b": float("nan"), "a": np.int64(1)})
        assert written == {"a": 1, "b": None}
        assert path.read_text(encoding="utf-8") == '{"a":1,"b":null}\n'
        assert strict_lines(path) == [written]

    def test_stream_gets_the_same_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        stream = io.StringIO()
        record = {"z": [np.float32(0.5)], "a": "x"}
        append_record(path, record)
        append_record(stream, record)
        assert stream.getvalue() == path.read_text(encoding="utf-8")
        assert not stream.closed
