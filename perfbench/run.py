"""Benchmark of the CS 31 stack: one workload, one seed, one run.

    python3 perfbench/run.py --workload procs-virtual --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``./src`` and nowhere else. The run

1. sets up (imports the modules, builds the warm-up input, runs the
   warm-up op) and times that;
2. runs ops for ``--seconds``, timing each call into the program alone
   (on ``life-lab`` that call includes starting and stopping the
   process backend's worker pool: ``run_parallel_backend`` opens a new
   pool on every call, so no pool outlives an op), and times a fixed
   calibration loop between ops so op times can also be given relative
   to the host's speed at that moment;
3. checks every op against references computed outside the window;
4. with ``--trace 0`` re-times set-up in fresh interpreters and prints
   the end-to-end metrics; with ``--trace 1`` the timed ops run under
   the module-boundary wrappers of ``tracer.py``, the same ops run again
   untraced, and the per-module metrics are printed.

The second-to-last stdout line is a ``{"report": ...}`` object with
every metric, its unit and sample count, the tail percentile and the
provenance; the last line is the result object. Both are also written
to ``perfbench/out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import suite

PERFBENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Set-up is timed this many times per run (this process + fresh ones).
SETUP_SAMPLES = 5
#: Ops needed beyond the tail percentile.
TAIL_BEYOND = 10
REFERENCE_WORKERS = 2


class BenchError(Exception):
    """The run cannot give a valid result (no program, a missed boundary)."""


def import_program() -> None:
    """Put ``./src`` first on the path and prove ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no src/repro under {ROOT}; run from the root "
                         "of a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"repro was imported from {where}, not {SRC}")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def set_up(workload, seed: int, tracer=None) -> float:
    """Import, build the warm-up input, run the warm-up op; seconds taken.

    The warm-up op pays every first-call cost (lazy tables, imports
    made on first use) and is not a sample. It starts and stops a
    process pool like every other ``life-lab`` op, so pool start is in
    ``setup_s`` and in every op's time alike.
    """
    import importlib
    t0 = perf_counter()
    import_program()
    for module in workload.modules:
        importlib.import_module(module)
    if tracer is not None:
        tracer.install()
    workload.run(workload.make(seed + suite.WARM_SEED, 0))
    return perf_counter() - t0


def fresh_setup_seconds(workload_name: str, seed: int, scale: str) -> float:
    """Time set-up in a new interpreter, as a command-line user pays it."""
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed),
         "--scale", scale],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# The timed window
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Record:
    """One attempted op: its input, what it produced, how long it took."""
    index: int
    input: object
    outcome: suite.Outcome | None
    error: str | None
    seconds: float
    problems: list[str]
    key: str              # identity of the input, to measure repeats
    calibration: float = 0.0   # calibration loop seconds beside the op


def run_op(workload, index: int, inp, tracer=None) -> Record:
    """One op, timed around the call into the program only.

    The op is checked against its mirror or oracle straight away,
    outside the timed call and untraced, so large outputs need not be
    kept until the window ends.
    """
    if tracer is not None:
        tracer.op = index
        span = tracer.begin("op")
    t0 = perf_counter()
    try:
        outcome, error = workload.run(inp), None
    except Exception as exc:      # a fault is a failed op, not a crash
        outcome, error = None, f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
        tracer.active = False
    problems = [error] if error else suite.check(workload, inp, outcome)
    if tracer is not None:
        tracer.active = True
    key = (inp.source if workload.isa
           else hashlib.sha1(inp.grid.tobytes()).hexdigest())
    if not workload.isa:
        # checked: drop the grids so memory stays flat over the run
        inp = None
        if outcome is not None:
            outcome = suite.Outcome(cells=outcome.cells)
    return Record(index, inp, outcome, error, seconds, problems, key)


def make_input(workload, seed: int, index: int, mutate=None):
    inp = workload.make(seed, index)
    return inp if mutate is None else mutate(inp)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x, self.y = x, y

    def step(self, k: int) -> "_Point":
        return _Point(self.y, (self.x + k) & 0xFFFF)


def calibration_seconds() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    About 8 ms of three kinds of interpreter work, mixed so that it
    slows with the host as the simulators do: dict updates and integer
    arithmetic, building and sorting a list and a dict, and method calls
    that allocate objects. It is the benchmark's own code, so no change
    to the program moves it.
    """
    t0 = perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(10_000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    data = [(i * 7919) % 100_003 for i in range(6_000)]
    where = {x: i for i, x in enumerate(data)}
    data.sort()
    for x in data:
        total += where[x]
    point = _Point(1, 2)
    for k in range(4_000):
        point = point.step(k)
        total += point.x
    return perf_counter() - t0


def timed_window(workload, seed: int, seconds: float, tracer=None,
                 mutate=None) -> list[Record]:
    """Ops back to back (a closed loop, one client) for ``seconds``.

    The calibration loop runs between ops, outside their timing, and
    each op keeps the mean of the passes just before and after it.
    """
    records = []
    gc.collect()
    deadline = perf_counter() + seconds
    index = 0
    before = calibration_seconds()
    while True:
        inp = make_input(workload, seed, index, mutate)
        record = run_op(workload, index, inp, tracer)
        after = calibration_seconds()
        record.calibration = (before + after) / 2
        before = after
        records.append(record)
        index += 1
        if perf_counter() >= deadline:
            return records


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def reference_map(workload, records: list[Record]) -> dict[int, dict]:
    """jit=False counters per checked op, computed in worker processes."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    todo = [r for r in records if r.outcome is not None]
    if not todo:
        return {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(REFERENCE_WORKERS, mp_context=context) as pool:
        futures = {r.index: pool.submit(
            suite.reference_counters, r.input.source, workload.bus,
            workload.procs, workload.opt) for r in todo}
        out = {}
        for index, future in futures.items():
            try:
                out[index] = future.result()
            except Exception as exc:
                out[index] = {"reference failed": repr(exc)}
        return out


def check(workload, records: list[Record]) -> dict[int, list[str]]:
    """Failures per op index; an op fails on any problem, never aborts."""
    references = reference_map(workload, records) if workload.isa else {}
    failures = {}
    for r in records:
        problems = list(r.problems)
        if r.index in references:
            problems += suite.check_counters(r.outcome, references[r.index])
        if problems:
            failures[r.index] = problems
    return failures


def untraced_problems(again: Record, traced: Record) -> list[str]:
    """An op re-run without the wrappers must behave identically."""
    problems = [f"untraced re-run: {p}" for p in again.problems]
    if problems or traced.outcome is None:
        return problems
    same = (again.outcome.exit_statuses == traced.outcome.exit_statuses
            and again.outcome.counters == traced.outcome.counters
            and again.outcome.cells == traced.outcome.cells)
    return [] if same else ["untraced re-run differs from the traced op"]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def metric(value: float, unit: str, samples: int, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def tail(times_ms: list[float]) -> tuple[float, str, int]:
    """Op time at the highest percentile with ``TAIL_BEYOND`` ops beyond.

    Ranks run 0..n-1 over the sorted times, rank r being percentile
    100 r / (n - 1); the tail is the op with exactly ten slower ones.
    Below 21 ops that rank falls under the median, which is no tail, so
    the median is reported instead (labelled p50).
    """
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND
    if 2 * rank < n - 1:
        return statistics.median(ordered), "p50", n // 2
    return ordered[rank], f"p{100.0 * rank / (n - 1):.1f}", TAIL_BEYOND


def end_to_end(workload, records, failures, setup_samples,
               peak_mb: float) -> dict:
    times = [1000.0 * r.seconds for r in records]
    n = len(records)
    tail_ms, label, beyond = tail(times)
    relative = [r.seconds / r.calibration for r in records]
    tail_x, label_x, beyond_x = tail(relative)
    ok = [r for r in records if r.index not in failures]
    busy = sum(r.seconds for r in ok) or float("inf")
    out = {
        "op_cal.p50": metric(statistics.median(relative), "x", n),
        "op_cal.tail": metric(tail_x, "x", n, percentile=label_x,
                              beyond=beyond_x),
        "op_ms.p50": metric(statistics.median(times), "ms", n),
        "op_ms.tail": metric(tail_ms, "ms", n, percentile=label,
                             beyond=beyond),
        "calibration_ms": metric(
            1000.0 * statistics.median(r.calibration for r in records),
            "ms", n),
        "setup_s": metric(statistics.median(setup_samples), "s",
                          len(setup_samples)),
        "peak_rss_mb": metric(peak_mb, "MiB", 1),
        "fail_ratio": metric(len(failures) / n, "ratio", n),
    }
    if workload.isa:
        instructions = sum(r.outcome.instructions for r in ok)
        out["kinstr_per_s"] = metric(instructions / busy / 1e3,
                                     "kinstr/s", len(ok))
    else:
        cells = sum(r.outcome.cells for r in ok)
        out["mcell_per_s"] = metric(cells / busy / 1e6, "Mcells/s",
                                    len(ok))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, MiB.

    Read straight after the timed window, before the reference workers
    and the set-up probes start, so the only children counted are the
    program's own (the process backend's workers on ``life-lab``; the
    ISA workloads start none). Those workers run while this process
    holds its grids, so the two peaks overlap; a forked worker's peak
    also counts the pages it shares with this process.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_module(tracer, records, untraced) -> dict:
    """The per-module metrics of a traced run, per traced op."""
    n = len(records)
    self_ms = tracer.self_ms()
    total_ms = tracer.total_ms()
    calls = tracer.calls()
    counts = tracer.counts
    outcomes = [r.outcome for r in records if r.outcome is not None]
    jit = {}
    for out in outcomes:
        for key, value in (out.jit or {}).items():
            jit[key] = jit.get(key, 0) + value
    instructions = sum(out.instructions for out in outcomes)
    switches = sum((out.kernel or {}).get("context_switches", 0)
                   for out in outcomes)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_op(x, unit):
        return metric(x / n, unit, n)

    validated = counts["analysis.verify.blocks_validated"]
    translated = counts["vm.translate_many_addresses"]
    fallbacks = counts["vm.mmu_access.in"]
    replays = calls["system.bus.replay"]
    traced_s = sum(r.seconds for r in records)
    untraced_s = sum(r.seconds for r in untraced)
    return {
        "isa.ccompiler.self_ms": per_op(self_ms["isa.ccompiler"], "ms/op"),
        "isa.assembler.self_ms": per_op(self_ms["isa.assembler"], "ms/op"),
        "analysis.opt.self_ms": per_op(self_ms["analysis.opt"], "ms/op"),
        "analysis.verify.self_ms": per_op(self_ms["analysis.verify"],
                                          "ms/op"),
        "analysis.opt.accept_ratio": metric(
            ratio(validated - counts["analysis.verify.blocks_rejected"],
                  validated), "ratio", validated),
        "isa.jit.compile_ms": per_op(self_ms["isa.jit.compile"], "ms/op"),
        "isa.jit.blocks_compiled": per_op(jit.get("blocks_compiled", 0),
                                          "count/op"),
        "isa.jit.coverage": metric(ratio(jit.get("jit_steps", 0),
                                         instructions), "ratio", n),
        "isa.jit.side_exit_ratio": metric(
            ratio(jit.get("side_exits", 0), jit.get("entries", 0)),
            "ratio", jit.get("entries", 0)),
        "isa.exec.self_ms": per_op(self_ms["isa.exec"], "ms/op"),
        "system.bus.replay_ms": per_op(self_ms["system.bus.replay"],
                                       "ms/op"),
        "system.bus.replay_calls": per_op(replays, "count/op"),
        "system.bus.accesses_per_replay": metric(
            ratio(counts["system.bus.replay_accesses"], replays),
            "count", replays),
        "system.bus.scalar_accesses": per_op(
            counts["system.bus.scalar.out"], "count/op"),
        "memory.simulate_trace_ms": per_op(
            self_ms["memory.simulate_trace"], "ms/op"),
        "memory.scalar_access_calls": per_op(
            counts["memory.cache_access.out"], "count/op"),
        "vm.translate_many_ms": per_op(self_ms["vm.translate_many"],
                                       "ms/op"),
        "vm.scalar_fallbacks": per_op(fallbacks, "count/op"),
        "vm.batched_ratio": metric(
            ratio(translated - fallbacks,
                  translated + counts["vm.mmu_access.out"]),
            "ratio", translated),
        "ossim.kernel.dispatch_ms": per_op(self_ms["ossim.kernel"],
                                           "ms/op"),
        "ossim.kernel.slices": per_op(counts["ossim.kernel.slices"],
                                      "count/op"),
        "ossim.kernel.context_switches": per_op(switches, "count/op"),
        "core.machine.self_ms": per_op(self_ms["core.machine"], "ms/op"),
        "life.kernel_ms": per_op(self_ms["life.kernel"], "ms/op"),
        "life.cells_ratio": metric(
            ratio(counts["life.neighbor_cells.in"],
                  counts["life.cells_updated"]),
            "ratio", counts["life.cells_updated"]),
        "core.backends.map_ms": per_op(total_ms["core.backends"], "ms/op"),
        **{f"core.backends.{part}_ms": per_op(
            tracer.totals[f"core.backends.{part}_ms"], "ms/op")
           for part in ("spawn", "dispatch", "compute", "sync")},
        "cluster.self_ms": per_op(self_ms["cluster"], "ms/op"),
        "cluster.net.messages": per_op(counts["cluster.net.messages"],
                                       "count/op"),
        "cluster.net.bytes": per_op(counts["cluster.net.bytes"], "B/op"),
        "trace.overhead_ratio": metric(ratio(traced_s, untraced_s),
                                       "ratio", n),
    }


def input_properties(workload, seed: int, records: list[Record]) -> dict:
    """What the run's inputs covered, measured on the inputs themselves."""
    if workload.isa:
        sizes = [r.input.working_set_bytes for r in records]
        done = [r.outcome.instructions for r in records if r.outcome]
        props = {"working_set_bytes": [min(sizes), max(sizes)],
                 "instructions_per_op": (statistics.median(done)
                                         if done else 0)}
    else:
        first = workload.make(seed, 0)
        props = {"grid": list(first.grid.shape), "rounds": first.rounds}
    keys = [r.key for r in records]
    props["repeated_share"] = 1.0 - len(set(keys)) / len(keys)
    return props


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance() -> dict:
    import numpy
    return {
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git (None when absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    """Content hash of the program's sources: the commit, without git."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

def run(workload_name: str, seed: int, seconds: float, trace: bool, *,
        scale: str = "full", setup_samples: int = SETUP_SAMPLES,
        mutate=None) -> dict:
    """Set up, measure, check; the full report of one run.

    ``mutate`` rewrites each generated input before its op runs (the
    self-test uses it to plant a wrong expected result).
    """
    workload = suite.workloads(scale)[workload_name]
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    own_setup = set_up(workload, seed, tracer)

    if tracer is not None:
        tracer.active = True
    records = timed_window(workload, seed, seconds, tracer, mutate)
    peak_mb = peak_rss_mb()
    untraced = []
    if tracer is not None:
        tracer.active = False
        tracer.uninstall()
        untraced = [run_op(workload, r.index,
                           make_input(workload, seed, r.index, mutate))
                    for r in records]
    failures = check(workload, records)
    for r in untraced:
        problems = untraced_problems(r, records[r.index])
        if problems:
            failures.setdefault(r.index, []).extend(problems)

    report = {
        "workload": workload_name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "scale": scale, "why": workload.why,
        "attempted": len(records), "failed": len(failures),
        "failures": {str(i): p for i, p in sorted(failures.items())[:20]},
        "ops_checked_against_jit_off": (
            sum(1 for r in records if r.outcome is not None)
            if workload.isa else 0),
        "inputs": input_properties(workload, seed, records),
        "provenance": provenance(),
        "ops": [[r.index, getattr(r.input, "label", ""),
                 round(1000.0 * r.seconds, 3)] for r in records],
    }
    if tracer is None:
        samples = [own_setup] + [
            fresh_setup_seconds(workload_name, seed, scale)
            for _ in range(setup_samples - 1)]
        report["setup_samples_s"] = samples
        report["metrics"] = end_to_end(workload, records, failures,
                                       samples, peak_mb)
    else:
        missed = sorted(set(workload.required) - tracer.hit())
        if missed:
            raise BenchError(f"traced run never hit: {', '.join(missed)}")
        report["metrics"] = per_module(tracer, records, untraced)
        report["boundaries_hit"] = sorted(tracer.hit())
        report["spans"] = tracer.dump()
    return report


def result_line(report: dict, names: list[str]) -> dict:
    """The contract's last line: the named metrics, value and unit only."""
    metrics = report["metrics"]
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"], "failed": report["failed"],
            "metrics": {name: {"value": metrics[name]["value"],
                               "unit": metrics[name]["unit"]}
                        for name in names}}


def declared_metrics(trace: bool) -> list[str]:
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def write_out(report: dict, final: dict) -> Path:
    out_dir = PERFBENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / (f"{report['workload']}-seed{report['seed']}"
                      f"-trace{report['trace']}.json")
    path.write_text(json.dumps({"report": report, "result": final}))
    return path


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The spawn pool of the reference workers and the process backend's
    shared memory start it, and the standard library leaves it to
    outlive this interpreter. Every other child is joined where it is
    started.
    """
    tracking = sys.modules.get("multiprocessing.resource_tracker")
    if tracking is not None:
        tracking._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true",
                        help="time set-up once in this interpreter")
    args = parser.parse_args(argv)

    if args.workload not in suite.workloads(args.scale):
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(suite.workloads(args.scale))}")
    try:
        if args.setup_probe:
            workload = suite.workloads(args.scale)[args.workload]
            print(json.dumps({"setup_s": set_up(workload, args.seed)}))
            return 0
        names = declared_metrics(bool(args.trace))
        report = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), scale=args.scale)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_resource_tracker()
    final = result_line(report, names)
    write_out(report, final)
    summary = {k: v for k, v in report.items() if k not in ("spans", "ops")}
    print(json.dumps({"report": summary}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
