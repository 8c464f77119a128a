"""Shared-memory parallelism (CS 31 §III-A, *Shared Memory Parallelism*).

The paper's primary PDC content as an executable system: a deterministic
simulated multicore machine running pthread-style thread programs; mutex
/barrier/condition-variable/semaphore primitives with misuse detection;
data-race (lockset + barrier epochs) and deadlock (wait-for graph)
detection; speedup/efficiency/Amdahl metrics; partitioning helpers; the
producer-consumer bounded buffer; and real executor backends (threads,
processes, subinterpreters) for actual parallel execution — processes
being the GIL workaround.
"""

from repro.core.machine import (
    Access,
    AtomicOp,
    BarrierWait,
    CondBroadcast,
    CondSignal,
    CondWait,
    GilConfig,
    GilStats,
    IoWait,
    Join,
    Lock,
    SemPost,
    SemWait,
    SimMachine,
    SimThread,
    SyncCosts,
    Unlock,
    Work,
    run_threads,
)
from repro.core.sync import Barrier, ConditionVariable, Mutex, Semaphore
from repro.core.thread_api import Pthreads, measure_scaling
from repro.core.metrics import (
    OverheadBreakdown,
    ScalingPoint,
    amdahl_limit,
    amdahl_speedup,
    efficiency,
    gustafson_speedup,
    is_near_linear,
    karp_flatt,
    scaling_table,
    speedup,
)
from repro.core.partition import (
    CHUNK_MODES,
    GridRegion,
    balance_ratio,
    block_partition,
    chunk_indices,
    cyclic_partition,
    dynamic_chunks,
    guided_chunks,
    partition_grid,
    schedule_makespan,
)
from repro.core.patterns import (
    BoundedBuffer,
    ProducerConsumerResult,
    SemBoundedBuffer,
    SharedCounter,
    parallel_map_cycles,
    run_producer_consumer,
    run_producer_consumer_sem,
)
from repro.core.reduction import (
    ReductionResult,
    parallel_reduce,
    reduction_scaling,
)
from repro.core.race import Race, RaceDetector, RecordedAccess
from repro.core.deadlock import WaitForGraph, lock_order_violations
from repro.core.timeline import (
    core_utilization,
    render_gantt,
    thread_spans,
    utilization_table,
)
from repro.core.backends import (
    BACKEND_NAMES,
    BackendCapability,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    SubinterpreterBackend,
    ThreadBackend,
    get_backend,
    gil_enabled,
    probe_backends,
)

__all__ = [
    "SimMachine", "SimThread", "SyncCosts", "run_threads",
    "GilConfig", "GilStats", "IoWait",
    "Work", "Lock", "Unlock", "BarrierWait", "CondWait", "CondSignal",
    "CondBroadcast", "SemWait", "SemPost", "Join", "Access", "AtomicOp",
    "Mutex", "Barrier", "ConditionVariable", "Semaphore",
    "Pthreads", "measure_scaling",
    "speedup", "efficiency", "amdahl_speedup", "amdahl_limit",
    "gustafson_speedup", "karp_flatt", "scaling_table", "ScalingPoint",
    "is_near_linear", "OverheadBreakdown",
    "block_partition", "cyclic_partition", "partition_grid", "GridRegion",
    "balance_ratio", "CHUNK_MODES", "chunk_indices", "dynamic_chunks",
    "guided_chunks", "schedule_makespan",
    "BACKEND_NAMES", "BackendCapability", "ExecutorBackend",
    "SerialBackend", "ThreadBackend", "ProcessBackend",
    "SubinterpreterBackend", "get_backend", "gil_enabled",
    "probe_backends",
    "BoundedBuffer", "run_producer_consumer", "ProducerConsumerResult",
    "SemBoundedBuffer", "run_producer_consumer_sem",
    "SharedCounter", "parallel_map_cycles",
    "parallel_reduce", "reduction_scaling", "ReductionResult",
    "RaceDetector", "Race", "RecordedAccess",
    "WaitForGraph", "lock_order_violations",
    "render_gantt", "core_utilization", "utilization_table",
    "thread_spans",
]
