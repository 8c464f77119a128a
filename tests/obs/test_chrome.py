"""Chrome trace-event export and validation tests (acceptance gate)."""

import io
import json

import pytest

from repro.errors import ObsError
from repro.obs import TraceRecorder, to_chrome, validate, write_chrome
from repro.obs.chrome import REQUIRED_KEYS, validate_file


def small_trace():
    rec = TraceRecorder()
    rec.complete("addl", ts=0, dur=1, pid="isa", tid="cpu",
                 args={"eip": 0x8048000})
    rec.instant("page-fault", ts=3, pid="vm", tid="mmu")
    rec.counter("cache", {"hits": 2, "misses": 1}, ts=4,
                pid="memory", tid="L1")
    rec.begin("map", ts=5, pid="mp", tid="pool")
    rec.end("map", ts=9, pid="mp", tid="pool")
    return rec


class TestToChrome:
    def test_document_shape(self):
        doc = to_chrome(small_trace())
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["dropped_events"] == 0

    def test_every_event_has_required_keys(self):
        doc = to_chrome(small_trace())
        for ev in doc["traceEvents"]:
            for key in REQUIRED_KEYS:
                assert key in ev, f"{ev} missing {key}"

    def test_track_metadata_names_every_lane(self):
        doc = to_chrome(small_trace())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        procs = {e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert procs == {"isa", "vm", "memory", "mp"}
        assert threads == {"cpu", "mmu", "L1", "pool"}

    def test_same_track_gets_same_ids(self):
        rec = TraceRecorder()
        rec.instant("a", ts=0, pid="isa", tid="cpu")
        rec.instant("b", ts=1, pid="isa", tid="cpu")
        doc = to_chrome(rec)
        a, b = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert (a["pid"], a["tid"]) == (b["pid"], b["tid"])

    def test_complete_events_carry_dur(self):
        doc = to_chrome(small_trace())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs and all("dur" in e for e in xs)

    def test_json_serialisable(self):
        json.dumps(to_chrome(small_trace()))


class TestValidate:
    def test_good_trace_counts_events(self):
        doc = to_chrome(small_trace())
        assert validate(doc) == len(doc["traceEvents"])

    def test_missing_key_rejected(self):
        doc = to_chrome(small_trace())
        del doc["traceEvents"][-1]["name"]
        with pytest.raises(ObsError, match="missing required key"):
            validate(doc)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ObsError, match="unknown phase"):
            validate({"traceEvents": [
                {"ph": "Z", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]})

    def test_non_numeric_ts_rejected(self):
        with pytest.raises(ObsError, match="ts must be a number"):
            validate({"traceEvents": [
                {"ph": "i", "ts": "soon", "pid": 1, "tid": 1, "name": "x"}]})

    def test_x_without_dur_rejected(self):
        with pytest.raises(ObsError, match="dur"):
            validate({"traceEvents": [
                {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]})

    def test_negative_dur_rejected(self):
        with pytest.raises(ObsError, match="negative dur"):
            validate({"traceEvents": [
                {"ph": "X", "ts": 0, "dur": -2, "pid": 1, "tid": 1,
                 "name": "x"}]})

    def test_unmatched_begin_rejected(self):
        rec = TraceRecorder()
        rec.begin("span", ts=0)
        with pytest.raises(ObsError, match="never closed"):
            validate(to_chrome(rec))

    def test_stray_end_rejected(self):
        rec = TraceRecorder()
        rec.end("span", ts=0)
        with pytest.raises(ObsError, match="closes nothing"):
            validate(to_chrome(rec))

    def test_misnamed_end_rejected(self):
        rec = TraceRecorder()
        rec.begin("outer", ts=0)
        rec.end("inner", ts=1)
        with pytest.raises(ObsError, match="is open"):
            validate(to_chrome(rec))

    def test_begin_end_matched_per_track(self):
        rec = TraceRecorder()
        rec.begin("span", ts=0, tid="t1")
        rec.begin("span", ts=1, tid="t2")
        rec.end("span", ts=2, tid="t2")
        rec.end("span", ts=3, tid="t1")
        validate(to_chrome(rec))


class TestWriteChrome:
    def test_writes_valid_json_to_path(self, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome(small_trace(), str(out))
        doc = json.loads(out.read_text())
        assert validate(doc) == count

    def test_writes_to_file_object(self):
        buf = io.StringIO()
        count = write_chrome(small_trace(), buf)
        assert validate(json.loads(buf.getvalue())) == count


class TestValidateFile:
    """The file-level validator behind ``python -m repro trace validate``."""

    def test_valid_file_with_lanes(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "trace.json"
        count = write_chrome(small_trace(), str(out))
        assert validate_file(str(out), ["cpu", "L1"]) == count
        assert main(["trace", "validate", str(out),
                     "--lane", "cpu", "--lane", "L1"]) == 0
        assert f"{count} events valid" in capsys.readouterr().out

    def test_missing_lane_fails(self, tmp_path, capsys):
        from repro.__main__ import main
        out = tmp_path / "trace.json"
        write_chrome(small_trace(), str(out))
        with pytest.raises(ObsError, match="node1"):
            validate_file(str(out), ["cpu", "node1"])
        assert main(["trace", "validate", str(out), "--lane", "node1"]) == 1
        assert "no thread_name lane 'node1'" in capsys.readouterr().out

    def test_invalid_document_fails(self, tmp_path, capsys):
        from repro.__main__ import main
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x"}]}))
        with pytest.raises(ObsError, match="needs a numeric dur"):
            validate_file(str(bad))
        assert main(["trace", "validate", str(bad)]) == 1
        assert "needs a numeric dur" in capsys.readouterr().out
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        with pytest.raises(ObsError, match="cannot read trace"):
            validate_file(str(garbled))
