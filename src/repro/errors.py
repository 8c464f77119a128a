"""Exception hierarchy shared by every repro subsystem.

Each simulated subsystem raises errors rooted at :class:`ReproError` so
callers (examples, homework checkers, the shell) can catch simulation
failures without accidentally swallowing real Python bugs.

The naming deliberately mirrors what a CS 31 student would see on real
hardware/tools: a wild pointer dereference is a :class:`SegmentationFault`,
a Valgrind finding is a :class:`MemcheckError`, a blown assembler parse is
an :class:`AssemblerError`, and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Binary representation / arithmetic
# ---------------------------------------------------------------------------

class BinaryError(ReproError):
    """Invalid binary/hex/decimal conversion or malformed bit pattern."""


class RangeError(BinaryError):
    """A value does not fit in the requested fixed-width representation."""


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------

class CircuitError(ReproError):
    """Structural circuit problem (bad wiring, width mismatch, cycles)."""


class WidthMismatch(CircuitError):
    """Connected wires/components disagree on bit width."""


# ---------------------------------------------------------------------------
# ISA / assembly
# ---------------------------------------------------------------------------

class IsaError(ReproError):
    """Base for assembler/machine errors."""


class AssemblerError(IsaError):
    """Syntax or semantic error while assembling source text."""


class IllegalInstruction(IsaError):
    """The machine fetched or was asked to execute an unknown instruction."""


class MachineFault(IsaError):
    """Runtime fault in the ISA machine (bad memory access, stack blowout)."""


# ---------------------------------------------------------------------------
# C memory model
# ---------------------------------------------------------------------------

class CMemoryError(ReproError):
    """Base for address-space/heap errors."""


class SegmentationFault(CMemoryError):
    """Access to an unmapped or protected address."""

    def __init__(self, address: int, note: str = "") -> None:
        self.address = address
        msg = f"segmentation fault at address {address:#x}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)


class HeapError(CMemoryError):
    """Invalid malloc/free usage (double free, free of non-heap pointer)."""


class MemcheckError(CMemoryError):
    """A Valgrind-style memcheck finding promoted to an error."""


# ---------------------------------------------------------------------------
# Memory hierarchy / caches / VM
# ---------------------------------------------------------------------------

class CacheConfigError(ReproError):
    """Cache geometry is invalid (non-power-of-two sizes, etc.)."""


class VmError(ReproError):
    """Virtual memory configuration or translation failure."""


class ProtectionFault(VmError):
    """Access violated page protection bits."""


# ---------------------------------------------------------------------------
# OS simulation
# ---------------------------------------------------------------------------

class OsError_(ReproError):
    """Base for simulated-kernel errors (trailing underscore: stdlib clash)."""


class NoSuchProcess(OsError_):
    """Operation on a PID that does not exist."""


class InvalidSyscall(OsError_):
    """A program invoked a syscall incorrectly."""


class ShellError(OsError_):
    """Shell/parser usage error."""


# ---------------------------------------------------------------------------
# Runaway programs
# ---------------------------------------------------------------------------

class StepLimitExceeded(MachineFault, OsError_):
    """A run hit its step or scheduling-unit limit (infinite loop?).

    One type for every execution path — the machine's step limit on the
    flat and cached buses, the kernel's unit limit on the virtual bus —
    that ``except MachineFault`` and ``except OsError_`` both catch.
    """


# ---------------------------------------------------------------------------
# Shared-memory parallelism
# ---------------------------------------------------------------------------

class ConcurrencyError(ReproError):
    """Base for thread-machine errors."""


class DeadlockError(ConcurrencyError):
    """The machine proved that every runnable thread is blocked."""


class SyncUsageError(ConcurrencyError):
    """Misuse of a synchronization primitive (unlock of unowned mutex...)."""


class RaceError(ConcurrencyError):
    """A data race detected by the race checker, promoted to an error."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class ObsError(ReproError):
    """Tracing misuse or an invalid exported trace (unmatched spans...)."""


# ---------------------------------------------------------------------------
# Full-system bus
# ---------------------------------------------------------------------------

class BusError(ReproError):
    """Memory-bus misconfiguration (unknown kind, missing pid/process...)."""


# ---------------------------------------------------------------------------
# Cluster / simulated network
# ---------------------------------------------------------------------------

class ClusterError(ReproError):
    """Cluster misuse: bad rank, recv with no matching message, bad shard."""
