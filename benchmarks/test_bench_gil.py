"""E19 — the GIL ablation: simulated lock vs simulated pthreads vs
every real backend this host supports.

Three views of the same story:

* **simulated Life curve** (primary, deterministic): the Lab 10 program
  on the simulated machine with and without the interpreter lock. The
  no-GIL arm is the paper's near-linear curve (E3); the GIL arm
  flattens at ≈1× — the quantitative answer to "why not just use
  Python threads for Lab 10".
* **microworkload grid**: cpu-bound and io-bound thread programs across
  thread counts, GIL on/off — cpu-bound doesn't scale, io-bound does,
  because blocking I/O releases the lock.
* **measured backends** (secondary, host-bounded): the identical
  pure-Python kernel on the serial / thread / process (/subinterpreter
  where supported) executors. On a GIL-ful build the thread arm stays
  ≈1× no matter how many cores the host has; the process arm is bounded
  by physical cores only.

``E19_N`` caps the simulated grid for CI smoke runs (default 128).
"""

import os
import time

from benchmarks._harness import BENCH_JSON, emit, emit_json
from repro.core import GilConfig, IoWait, SimMachine, SyncCosts, Work
from repro.core.backends import (
    available_cores,
    burn,
    get_backend,
    gil_enabled,
    probe_backends,
)
from repro.life import (
    GameOfLife,
    random_grid,
    run_parallel_backend,
    run_serial_cycles,
    simulated_scaling,
)

THREADS = [1, 2, 4]
E19_N = int(os.environ.get("E19_N", "128"))
ROUNDS = 3
GIL = GilConfig(switch_interval_cycles=100, acquire_cost=5)
FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)


def test_bench_simulated_gil_life_curve(benchmark):
    """The acceptance row: simulated-GIL cpu-bound speedup ≤ 1.1 at 4
    threads while the simulated no-GIL arm exceeds 2× on the same
    curve."""
    grid = random_grid(E19_N, E19_N, seed=19)

    def run():
        return (simulated_scaling(grid, ROUNDS, THREADS, sync_costs=FREE),
                simulated_scaling(grid, ROUNDS, THREADS, sync_costs=FREE,
                                  gil=GIL))

    nogil, withgil = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = run_serial_cycles(grid, ROUNDS)

    emit(f"E19 simulated Life curve, {E19_N}x{E19_N} grid, {ROUNDS} "
         "rounds: interpreter lock vs pthreads model",
         ["threads", "no-GIL cycles", "no-GIL speedup",
          "GIL cycles", "GIL speedup"],
         [(k, f"{nogil[k]:,.0f}", f"{serial / nogil[k]:.2f}",
           f"{withgil[k]:,.0f}", f"{serial / withgil[k]:.2f}")
          for k in THREADS],
         align_right=[True] * 5)

    emit_json(BENCH_JSON, [
        {"bench": "gil", "arm": arm, "workload": "life",
         "grid": E19_N, "rounds": ROUNDS, "threads": k,
         "cycles": times[k], "speedup": serial / times[k]}
        for arm, times in (("simulated-nogil", nogil),
                           ("simulated-gil", withgil))
        for k in THREADS])

    assert serial / withgil[4] <= 1.1
    assert serial / nogil[4] > 2.0


def _spin(n):
    yield Work(n)


def _io_prog(rounds, work, wait):
    for _ in range(rounds):
        yield Work(work)
        yield IoWait(wait)


def test_bench_simulated_microworkloads(benchmark):
    """cpu-bound vs io-bound across thread counts, GIL on/off."""
    work = 10_000.0
    io_args = (4, 100.0, 2000.0)

    def makespan(body, args, k, gil):
        m = SimMachine(k, costs=FREE, gil=gil)
        for _ in range(k):
            m.spawn(body, *args)
        m.run()
        return m.makespan

    def run():
        rows = []
        for label, body, args, serial_one in [
                ("cpu", _spin, (work,), work),
                ("io", _io_prog, io_args,
                 (io_args[1] + io_args[2]) * io_args[0])]:
            for k in THREADS:
                serial = serial_one * k
                rows.append((label, k,
                             serial / makespan(body, args, k, GIL),
                             serial / makespan(body, args, k, None)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    emit("E19 microworkload grid (speedup vs one thread doing all "
         "the work)",
         ["workload", "threads", "GIL speedup", "no-GIL speedup"],
         [(label, k, f"{g:.2f}", f"{n:.2f}") for label, k, g, n in rows],
         align_right=[False, True, True, True])
    emit_json(BENCH_JSON, [
        {"bench": "gil", "arm": "microworkload", "workload": label,
         "threads": k, "gil_speedup": g, "nogil_speedup": n}
        for label, k, g, n in rows])

    by_key = {(label, k): (g, n) for label, k, g, n in rows}
    # cpu-bound: flat under the lock, linear without
    assert by_key[("cpu", 4)][0] <= 1.1
    assert by_key[("cpu", 4)][1] > 3.9
    # io-bound: overlaps fine under the lock too
    assert by_key[("io", 4)][0] > 2.0


def test_bench_measured_backends(benchmark):
    """The measured side: one pure-Python kernel, every backend the
    probe reports available. Correctness always; speed assertions are
    gated on what the host can actually show."""
    host_cores = available_cores()
    caps = {c.name: c for c in probe_backends()}
    n_items, work = 8, 120_000
    items = [work] * n_items

    t0 = time.perf_counter()
    expected = [burn(x) for x in items]
    serial_time = time.perf_counter() - t0

    names = [name for name in ("thread", "process", "subinterpreter")
             if caps[name].available]
    times: dict[str, float] = {}
    for name in names:
        with get_backend(name, 4, strict=True) as backend:
            backend.map(burn, items)              # warm the executor
            t0 = time.perf_counter()
            assert backend.map(burn, items) == expected
            times[name] = time.perf_counter() - t0

    benchmark.pedantic(lambda: parallel_thread_once(items), rounds=1,
                       iterations=1)

    rows = [("serial", f"{serial_time * 1000:.1f}", "1.00", "baseline")]
    rows += [(name, f"{times[name] * 1000:.1f}",
              f"{serial_time / times[name]:.2f}", caps[name].detail)
             for name in names]
    emit(f"E19 measured backends, burn({work}) x {n_items} at 4 workers "
         f"(host: {host_cores} core(s), GIL "
         f"{'on' if gil_enabled() else 'off'})",
         ["backend", "ms", "speedup", "capability"], rows,
         align_right=[False, True, True, False])
    emit_json(BENCH_JSON, [
        {"bench": "gil", "arm": "measured", "backend": name,
         "workers": 4, "host_cores": host_cores,
         "gil_enabled": gil_enabled(), "seconds": times[name],
         "speedup": serial_time / times[name]}
        for name in names])

    if gil_enabled():
        # real threads cannot beat serial on pure-Python cpu-bound work
        # while the GIL is on, regardless of cores (1.5 allows timer
        # noise on loaded CI hosts, not parallelism)
        assert serial_time / times["thread"] < 1.5
    if host_cores >= 2:
        # processes are the arm that actually scales on multicore
        assert serial_time / times["process"] > 1.2


def parallel_thread_once(items):
    with get_backend("thread", 4) as backend:
        return backend.map(burn, items)


def test_bench_life_backend_correctness(benchmark):
    """Every available backend computes the same Life evolution (the
    numpy kernel releases the GIL in ufuncs, so no thread-speed claim
    is made here — that contrast belongs to the pure-Python kernel
    above)."""
    grid = random_grid(48, 48, seed=19)
    serial = GameOfLife(grid.copy())
    serial.run(2)
    available = [c.name for c in probe_backends() if c.available]

    def run():
        return {name: run_parallel_backend(grid, 2, workers=2,
                                           backend=name, strict=True)
                for name in available}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, result in results.items():
        assert (result == serial.grid).all(), name
