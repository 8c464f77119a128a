"""Process-backend recorder hooks: dispatch/wait spans, unchanged results."""

from repro.core.backends import ProcessBackend, burn
from repro.obs import TraceRecorder


class TestWorkerPoolTracing:
    def test_map_records_phase_spans_and_results_match(self):
        items = [2000] * 8
        with ProcessBackend(2) as plain:
            expected = plain.map(burn, items)
        rec = TraceRecorder()
        with ProcessBackend(2, recorder=rec) as traced:
            assert traced.map(burn, items) == expected
        spans = {e.name for e in rec.events() if e.ph == "X"}
        # a cold first call pays spawn; dispatch and wait always appear
        assert {"spawn", "dispatch", "wait"} <= spans
        for ev in rec.events():
            assert ev.pid == "mp" and ev.tid == "pool"
            assert ev.dur >= 0

    def test_warm_call_skips_spawn_span(self):
        rec = TraceRecorder()
        with ProcessBackend(2, recorder=rec) as pool:
            pool.map(burn, [100] * 4)
            rec.clear()
            pool.map(burn, [100] * 4)
        spans = [e.name for e in rec.events() if e.ph == "X"]
        assert "spawn" not in spans
        assert spans == ["dispatch", "wait"]

    def test_no_recorder_records_nothing(self):
        with ProcessBackend(2) as pool:
            pool.map(burn, [100] * 4)
            assert pool.recorder.events() == []
