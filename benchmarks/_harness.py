"""Shared helpers for the benchmark suite.

Every bench regenerates one table/figure from the paper (see DESIGN.md's
experiment index) and prints the rows it reports, so
``pytest benchmarks/ --benchmark-only -s`` reproduces the evaluation
artifacts textually alongside the timing numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro._util import format_table

#: machine-readable perf trajectory for the parallel backend; benches
#: append rows here so future PRs can diff against past numbers
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: perf trajectory for the vectorized trace engines (E14): cache batch
#: simulation, MMU batch translation, and the predecoded ISA fast path
BENCH_MEMORY = Path(__file__).resolve().parent.parent / "BENCH_memory.json"

#: perf trajectory for the observability layer (E15): disabled-path
#: overhead and the cost of recording, per simulator hot loop
BENCH_TRACE = Path(__file__).resolve().parent.parent / "BENCH_trace.json"

#: full-system runs over the memory bus (E16): end-to-end CPI and the
#: miss/fault breakdown per bus configuration
BENCH_SYSTEM = Path(__file__).resolve().parent.parent / "BENCH_system.json"

#: distributed-cluster runs over the simulated network (E20): banded
#: Life scaling with per-node comm/compute attribution
BENCH_CLUSTER = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


def emit(title: str, headers, rows, align_right=None) -> None:
    print(f"\n=== {title} ===")
    print(format_table(headers, rows, align_right=align_right))


def emit_text(title: str, text: str) -> None:
    print(f"\n=== {title} ===")
    print(text)


def emit_json(path, rows: list[dict]) -> None:
    """Append ``rows`` (dicts) to the JSON array file at ``path``.

    Creates the file if missing. A file that is not a JSON array raises
    ``ValueError`` naming it and is left untouched, so a bad file never
    costs the rows already recorded in it.
    """
    path = os.fspath(path)
    existing: list = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            try:
                existing = json.load(f)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON ({exc}); "
                                 f"left untouched") from exc
        if not isinstance(existing, list):
            raise ValueError(f"{path} holds a {type(existing).__name__}, "
                             f"not a JSON array of rows; left untouched")
    existing.extend(rows)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(existing, f, indent=1)
        f.write("\n")
