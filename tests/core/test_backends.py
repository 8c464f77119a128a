"""Executor backends: protocol conformance, probing, graceful fallback.

Correctness (identical results, order, breakdown invariants) holds on
any host; *speed* claims live in benchmarks/test_bench_gil.py where
they are gated on the host's actual capabilities.
"""

import sys

import pytest

from repro.core.backends import (
    BACKEND_NAMES,
    BackendCapability,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    SubinterpreterBackend,
    ThreadBackend,
    _interpreters_module,
    burn,
    get_backend,
    gil_enabled,
    probe_backends,
)
from repro.core.partition import CHUNK_MODES
from repro.errors import ReproError

ITEMS = list(range(17))
EXPECTED = [burn(x) for x in ITEMS]

HAS_INTERPRETERS = _interpreters_module() is not None


def in_process_backends():
    return [SerialBackend(), ThreadBackend(2)]


class TestProtocol:
    @pytest.mark.parametrize("cls", [SerialBackend, ThreadBackend,
                                     ProcessBackend])
    def test_satisfies_protocol(self, cls):
        backend = cls(2)
        try:
            assert isinstance(backend, ExecutorBackend)
            assert backend.name in BACKEND_NAMES
        finally:
            backend.shutdown()

    def test_results_identical_across_backends(self):
        for backend in in_process_backends():
            with backend:
                assert backend.map(burn, ITEMS) == EXPECTED

    @pytest.mark.parametrize("mode", CHUNK_MODES)
    def test_thread_backend_all_chunk_modes_ordered(self, mode):
        with ThreadBackend(2) as backend:
            assert backend.map(burn, ITEMS, chunk_mode=mode) == EXPECTED

    def test_empty_input(self):
        for backend in in_process_backends():
            with backend:
                assert backend.map(burn, []) == []

    def test_bad_chunk_mode_rejected_everywhere(self):
        for backend in in_process_backends():
            with backend:
                with pytest.raises(ReproError):
                    backend.map(burn, [1, 2], chunk_mode="hash")

    def test_worker_validation(self):
        with pytest.raises(ReproError):
            ThreadBackend(0)

    def test_breakdown_invariant(self):
        """spawn + dispatch + compute/k + sync ≈ wall — the same model
        the process-backend regression pins, on the thread backend."""
        with ThreadBackend(2) as backend:
            backend.map(burn, [200_000] * 4)
            bd = backend.last_breakdown
            assert bd.wall > 0.0
            model = bd.spawn + bd.dispatch + bd.compute / 2 + bd.sync
            # under the GIL compute/k understates elapsed compute, so
            # sync absorbs the serialization; the model may only *over*
            # estimate wall via double-counted slop, never undershoot
            # by more than timer noise
            assert model >= bd.wall * 0.5

    def test_thread_backend_lazy_and_warm(self):
        with ThreadBackend(2) as backend:
            assert not backend.is_alive
            backend.map(burn, [10, 20, 30])
            assert backend.is_alive
            assert backend.spawn_count == 1
            backend.map(burn, [40, 50])
            assert backend.spawn_count == 1
            assert backend.last_breakdown.spawn == 0.0


class TestSerialBackend:
    def test_single_worker_and_pure_compute(self):
        backend = SerialBackend()
        assert backend.workers == 1
        backend.map(burn, [1000, 2000])
        bd = backend.last_breakdown
        assert bd.wall == bd.compute > 0.0
        assert bd.spawn == bd.dispatch == bd.sync == 0.0


class TestProbe:
    def test_probe_covers_all_names_and_never_raises(self):
        caps = probe_backends()
        assert [c.name for c in caps] == list(BACKEND_NAMES)
        assert all(isinstance(c, BackendCapability) for c in caps)
        # serial and thread always exist; process exists on CPython
        by_name = {c.name: c for c in caps}
        assert by_name["serial"].available
        assert by_name["thread"].available
        assert by_name["process"].available

    def test_probe_reflects_host_interpreters(self):
        by_name = {c.name: c for c in probe_backends()}
        assert by_name["subinterpreter"].available == HAS_INTERPRETERS
        if not HAS_INTERPRETERS:
            assert "interpreters" in by_name["subinterpreter"].detail

    def test_gil_enabled_matches_sys_probe(self):
        probe = getattr(sys, "_is_gil_enabled", None)
        if probe is None:
            assert gil_enabled() is True
        else:
            assert gil_enabled() == bool(probe())

    def test_thread_parallelism_tracks_gil(self):
        by_name = {c.name: c for c in probe_backends()}
        assert by_name["thread"].parallel == (not gil_enabled())


class TestGetBackend:
    def test_unknown_name_lists_valid(self):
        with pytest.raises(ReproError) as err:
            get_backend("gpu")
        for name in BACKEND_NAMES:
            assert name in str(err.value)

    def test_by_name(self):
        for name, cls in [("serial", SerialBackend),
                          ("thread", ThreadBackend),
                          ("process", ProcessBackend)]:
            backend = get_backend(name, 2)
            try:
                assert type(backend) is cls
            finally:
                backend.shutdown()

    @pytest.mark.skipif(HAS_INTERPRETERS,
                        reason="host has an interpreters API")
    def test_subinterpreter_strict_raises_without_api(self):
        with pytest.raises(ReproError, match="subinterpreter"):
            get_backend("subinterpreter", 2, strict=True)

    @pytest.mark.skipif(HAS_INTERPRETERS,
                        reason="host has an interpreters API")
    def test_subinterpreter_falls_back_to_process(self):
        backend = get_backend("subinterpreter", 2)
        try:
            assert type(backend) is ProcessBackend
        finally:
            backend.shutdown()

    @pytest.mark.skipif(not HAS_INTERPRETERS,
                        reason="host lacks an interpreters API")
    def test_subinterpreter_constructs_and_maps(self):
        with get_backend("subinterpreter", 2, strict=True) as backend:
            assert type(backend) is SubinterpreterBackend
            assert backend.map(burn, ITEMS) == EXPECTED


class TestParallelMapBackendParam:
    """Selecting a backend by name and mapping on it (these once went
    through a ``parallel_map(..., backend=name)`` wrapper)."""

    def test_backend_selection(self):
        for name in ("serial", "thread"):
            with get_backend(name, 2) as backend:
                out = backend.map(burn, ITEMS)
                assert out == EXPECTED
                assert backend.last_breakdown.wall > 0.0

    def test_backend_none_is_process_path(self):
        with get_backend("process", 1) as backend:
            assert backend.map(burn, [3, 4]) == [burn(3), burn(4)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            get_backend("gpu", 2)


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_same_bad_argument_same_error_on_every_backend(name):
    """A bad worker count is a ReproError and a keyword the backend does
    not take is a TypeError — on every backend, including the
    subinterpreter one whether it is available or falls back."""
    for workers in (0, -2):
        with pytest.raises(ReproError, match="workers must be positive"):
            get_backend(name, workers)
    with pytest.raises(TypeError):
        get_backend(name, 2, start_mehtod="spawn")
