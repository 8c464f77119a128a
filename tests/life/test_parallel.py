"""Unit + property tests for the Lab 10 parallel engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    GilConfig,
    RaceDetector,
    SyncCosts,
    is_near_linear,
    scaling_table,
)
from repro.errors import ReproError
from repro.life import (
    GameOfLife,
    ParallelLife,
    grids_equal,
    make,
    random_grid,
    run_parallel_backend,
    run_parallel_shm,
    run_serial_cycles,
    simulated_scaling,
    step,
)

FREE = SyncCosts(lock=0, unlock=0, barrier=0, cond=0, sem=0, spawn=0)


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("orientation", ["row", "col"])
    def test_parallel_equals_serial(self, threads, orientation):
        grid = random_grid(24, 20, seed=7)
        serial = GameOfLife(grid.copy())
        serial.run(5)
        game = ParallelLife(grid, threads=threads, orientation=orientation)
        result = game.run(5)
        assert grids_equal(result, serial.grid)

    def test_population_history_matches_serial(self):
        grid = random_grid(16, 16, seed=1)
        serial = GameOfLife(grid.copy())
        serial.run(4)
        game = ParallelLife(grid, threads=4)
        game.run(4)
        assert game.round_populations == serial.population_history[1:]

    def test_bounded_mode(self):
        grid = random_grid(12, 12, seed=9)
        expected = step(step(grid, "bounded"), "bounded")
        game = ParallelLife(grid, threads=3, mode="bounded")
        assert grids_equal(game.run(2), expected)

    def test_zero_rounds(self):
        grid = make("glider")
        game = ParallelLife(grid, threads=2)
        assert grids_equal(game.run(0), grid)

    def test_validation(self):
        with pytest.raises(ReproError):
            ParallelLife(make("block"), threads=0)
        with pytest.raises(ReproError):
            ParallelLife(make("block"), threads=2, stat_locking="per-cell")
        game = ParallelLife(make("block"), threads=1)
        with pytest.raises(ReproError):
            game.run(-1)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5000),
           threads=st.integers(min_value=1, max_value=6))
    def test_property_any_partitioning_is_correct(self, seed, threads):
        grid = random_grid(15, 11, density=0.35, seed=seed)
        expected = step(step(grid))
        game = ParallelLife(grid, threads=threads)
        assert grids_equal(game.run(2), expected)


class TestSpeedupShape:
    def test_near_linear_to_16_threads(self):
        """The §III-A claim: near linear speedup up to 16 threads."""
        grid = random_grid(64, 64, seed=2)
        rounds = 4
        times = simulated_scaling(grid, rounds, [1, 2, 4, 8, 16],
                                  sync_costs=FREE)
        serial = run_serial_cycles(grid, rounds)
        rows = scaling_table(serial, times)
        assert is_near_linear(rows, efficiency_floor=0.9)
        assert rows[-1].speedup > 14

    def test_sync_overhead_reduces_speedup(self):
        grid = random_grid(32, 32, seed=2)
        free = simulated_scaling(grid, 3, [8], sync_costs=FREE)[8]
        costly = simulated_scaling(grid, 3, [8])[8]
        assert costly > free

    def test_uneven_grid_still_correct_and_balanced(self):
        grid = random_grid(17, 13, seed=5)
        game = ParallelLife(grid, threads=4)
        expected = step(grid)
        assert grids_equal(game.run(1), expected)


class TestRaceDemo:
    def test_with_barrier_no_races(self):
        det = RaceDetector()
        game = ParallelLife(random_grid(12, 12, seed=3), threads=3,
                            race_detector=det)
        game.run(2)
        # grid accesses are barrier-ordered; stats writes are lock-guarded
        assert det.race_count == 0

    def test_without_barrier_races_detected(self):
        det = RaceDetector()
        game = ParallelLife(random_grid(12, 12, seed=3), threads=3,
                            use_barrier=False, race_detector=det)
        game.run(2)
        assert det.race_count > 0

    def test_stat_locking_none_with_barrier_clean(self):
        det = RaceDetector()
        game = ParallelLife(random_grid(8, 8, seed=3), threads=2,
                            stat_locking="none", race_detector=det)
        game.run(2)
        assert det.race_count == 0


class TestLockGranularityAblation:
    def test_finer_locking_is_slower(self):
        """Bench E9's shape: per-row locking costs more wall-clock."""
        grid = random_grid(32, 32, seed=4)
        coarse = ParallelLife(grid, threads=4, stat_locking="per-round")
        coarse.run(3)
        fine = ParallelLife(grid.copy(), threads=4, stat_locking="per-row")
        fine.run(3)
        assert fine.makespan > coarse.makespan

    def test_no_locking_fastest(self):
        grid = random_grid(32, 32, seed=4)
        none = ParallelLife(grid, threads=4, stat_locking="none")
        none.run(3)
        coarse = ParallelLife(grid.copy(), threads=4,
                              stat_locking="per-round")
        coarse.run(3)
        assert none.makespan <= coarse.makespan


class TestMultiprocessing:
    def test_mp_matches_serial(self):
        grid = random_grid(20, 20, seed=6)
        serial = GameOfLife(grid.copy())
        serial.run(3)
        result = run_parallel_shm(grid, 3, workers=2)
        assert grids_equal(result, serial.grid)

    def test_mp_single_worker_path(self):
        grid = random_grid(10, 10, seed=6)
        assert grids_equal(run_parallel_shm(grid, 2, workers=1),
                           step(step(grid)))

    def test_mp_validation(self):
        with pytest.raises(ReproError):
            run_parallel_shm(make("block"), 1, workers=0)


class TestGilArm:
    """ParallelLife under the simulated interpreter lock (E19)."""

    def test_gil_run_still_correct(self):
        grid = random_grid(16, 16, seed=9)
        serial = GameOfLife(grid.copy())
        serial.run(3)
        game = ParallelLife(grid, threads=4, sync_costs=FREE,
                            gil=GilConfig(switch_interval_cycles=64,
                                          acquire_cost=0))
        game.run(3)
        assert grids_equal(game.current, serial.grid)

    def test_gil_flattens_the_speedup_curve(self):
        grid = random_grid(32, 32, seed=9)
        nogil = simulated_scaling(grid, 2, [1, 4], sync_costs=FREE)
        gil = simulated_scaling(grid, 2, [1, 4], sync_costs=FREE,
                                gil=GilConfig(switch_interval_cycles=128,
                                              acquire_cost=0))
        assert nogil[1] / nogil[4] > 3.0          # near-linear without
        assert gil[1] / gil[4] <= 1.1             # flat with the lock


class TestBackendRunner:
    def test_backend_matches_serial(self):
        grid = random_grid(20, 20, seed=6)
        serial = GameOfLife(grid.copy())
        serial.run(3)
        for backend in ("serial", "thread"):
            result = run_parallel_backend(grid, 3, workers=2,
                                          backend=backend)
            assert grids_equal(result, serial.grid)

    def test_thread_method_matches_serial(self):
        grid = random_grid(18, 18, seed=2)
        serial = GameOfLife(grid.copy())
        serial.run(2)
        result = run_parallel_backend(grid, 2, workers=2, backend="thread")
        assert grids_equal(result, serial.grid)

    def test_zero_rounds_is_identity(self):
        grid = random_grid(8, 8, seed=1)
        assert grids_equal(run_parallel_backend(grid, 0, workers=2,
                                                backend="thread"), grid)

    def test_validation(self):
        grid = make("block")
        with pytest.raises(ReproError):
            run_parallel_backend(grid, 1, workers=0)
        with pytest.raises(ReproError):
            run_parallel_backend(grid, -1, workers=2)
        with pytest.raises(ReproError):
            run_parallel_backend(grid, 1, workers=2, backend="gpu")
