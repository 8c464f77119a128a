"""E3 — the §III-A speedup claim: parallel Game of Life scaling.

"The assignment ... allow[s] them to measure near linear speedup up to
16 threads on multicore machines." Reproduced two ways:

* **simulated** (primary): the Lab 10 program on the deterministic
  simulated multicore machine, threads ∈ {1, 2, 4, 8, 16}, one core per
  thread (the lab-machine setup). This carries the claim's shape on any
  host.
* **measured** (secondary): the two real-parallel host engines'
  wall-clock on this host — a per-round map on the process backend
  (the grid pickled every round) and resident shared-memory workers —
  reported but only sanity-checked: speedup is bounded by physical
  cores (a single-core CI host shows ≈1×).
"""

import time

from benchmarks._harness import BENCH_JSON, emit, emit_json
from repro.core import is_near_linear, scaling_table
from repro.core.backends import available_cores
from repro.life import (
    random_grid,
    run_parallel_backend,
    run_parallel_shm,
    run_serial_cycles,
    simulated_scaling,
    step,
)

THREADS = [1, 2, 4, 8, 16]
#: the paper's lab uses 512x512 and ~100 rounds on 16-core machines; a
#: 256x256 x 5-round run keeps the bench fast while leaving enough work
#: per synchronization to show the same near-linear shape
GRID = 256
ROUNDS = 5


def test_bench_simulated_speedup(benchmark):
    grid = random_grid(GRID, GRID, seed=31)

    def run():
        return simulated_scaling(grid, ROUNDS, THREADS)

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    serial = run_serial_cycles(grid, ROUNDS)
    rows = scaling_table(serial, times)

    emit(f"simulated speedup, {GRID}x{GRID} grid, {ROUNDS} rounds "
         "(Lab 10 on the simulated multicore)",
         ["threads", "cycles", "speedup", "efficiency"],
         [(p.workers, f"{p.time:,.0f}", f"{p.speedup:.2f}",
           f"{p.efficiency:.3f}") for p in rows],
         align_right=[True, True, True, True])

    # the paper's claim shape: near linear up to 16 threads
    assert is_near_linear(rows, efficiency_floor=0.85)
    assert rows[-1].speedup > 13


def test_bench_measured_multiprocessing(benchmark):
    """Pickling vs zero-copy shared memory at 2 workers (bench E12's
    companion measurement on the flagship application).

    On a ≥2-core host this runs the paper-scale workload (512×512, 100
    generations) and asserts the shared-memory engine strictly beats the
    pickling one; on a single-core host it runs a small smoke workload
    and only asserts correctness — the documented CI degrade.
    """
    host_cores = available_cores()
    multicore = host_cores >= 2
    size, rounds = (512, 100) if multicore else (96, 3)
    grid = random_grid(size, size, seed=31)

    t0 = time.perf_counter()
    serial_result = grid
    for _ in range(rounds):
        serial_result = step(serial_result)
    serial_time = time.perf_counter() - t0

    engines = {
        "pickled": lambda n: run_parallel_backend(grid, n, workers=2,
                                                  backend="process"),
        "shared": lambda n: run_parallel_shm(grid, n, workers=2),
    }
    times = {}
    for method, run in engines.items():
        t0 = time.perf_counter()
        result = run(rounds)
        times[method] = time.perf_counter() - t0
        assert (result == serial_result).all()

    benchmark.pedantic(lambda: engines["shared"](1), rounds=1,
                       iterations=1)

    rows = [("serial", f"{serial_time * 1000:.1f}", "1.00")]
    rows += [(m, f"{times[m] * 1000:.1f}", f"{serial_time / times[m]:.2f}")
             for m in ("pickled", "shared")]
    emit(f"measured Life wall-clock, {size}x{size} grid, {rounds} rounds, "
         f"2 workers (host has {host_cores} core(s); speedup bounded by "
         "that — see EXPERIMENTS.md)",
         ["engine", "ms", "speedup vs serial"], rows,
         align_right=[False, True, True])

    emit_json(BENCH_JSON, [
        {"bench": "speedup_life", "engine": m, "workers": 2,
         "grid": size, "rounds": rounds, "host_cores": host_cores,
         "seconds": times[m], "serial_seconds": serial_time,
         "speedup": serial_time / times[m]}
        for m in ("pickled", "shared")])

    if multicore:
        # the acceptance bar: zero-copy strictly beats per-round pickling
        assert times["shared"] < times["pickled"]
