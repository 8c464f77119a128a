"""Fast self-test of the benchmark on tiny inputs.

Run from the root of a source checkout, either way:

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that every declared metric is emitted with its unit and
sample count, that the tail has ten ops beyond it once a run has
enough ops, that each traced run hits every boundary its workload
names, and that a wrong expected exit status is counted as a failure
rather than raised.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import suite  # noqa: E402

SECONDS = 0.4
WORKLOADS = list(suite.workloads("tiny"))


def spec() -> dict:
    return json.loads((bench.PERFBENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: bool, **kwargs) -> dict:
    return bench.run(workload, seed=3, seconds=SECONDS, trace=trace,
                     scale="tiny", setup_samples=2, **kwargs)


def test_benchmark_json_matches_the_workload_table():
    declared = [w["name"] for w in spec()["workloads"]]
    assert declared == list(suite.workloads("full"))
    for w in spec()["workloads"]:
        assert w["why"] == suite.workloads("full")[w["name"]].why


def test_every_end_to_end_metric_has_unit_and_samples():
    names = bench.declared_metrics(trace=False)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for workload in WORKLOADS:
        report = tiny_run(workload, trace=False)
        metrics = report["metrics"]
        throughput = ("kinstr_per_s" if suite.workloads("tiny")[workload].isa
                      else "mcell_per_s")
        for name in names + ["op_ms.p50", "op_ms.tail", "calibration_ms",
                             "fail_ratio", throughput]:
            assert metrics[name]["unit"], (workload, name)
            assert metrics[name]["samples"] >= 1, (workload, name)
        for name in names:
            assert metrics[name]["unit"] == units[name]
            assert metrics[name]["value"] > 0, (workload, name)
        assert report["failed"] == 0, report["failures"]
        assert metrics["fail_ratio"]["value"] == 0.0
        final = bench.result_line(report, names)
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] is True


def test_tail_has_ten_ops_beyond_it():
    report = bench.run("tiny-opt", seed=5, seconds=3.0, trace=False,
                       scale="tiny", setup_samples=1)
    tail = report["metrics"]["op_ms.tail"]
    assert report["attempted"] >= 21
    assert tail["beyond"] >= 10
    assert tail["percentile"] != "p50"
    assert tail["value"] >= report["metrics"]["op_ms.p50"]["value"]
    assert report["metrics"]["op_cal.tail"]["beyond"] >= 10


def test_tail_rule_on_known_times():
    value, label, beyond = bench.tail([float(i) for i in range(31)])
    assert (value, label, beyond) == (20.0, "p66.7", 10)
    value, label, _ = bench.tail([1.0, 2.0, 3.0])
    assert (value, label) == (2.0, "p50")


def test_traced_run_reports_every_per_layer_metric():
    names = bench.declared_metrics(trace=True)
    for workload in WORKLOADS:
        report = tiny_run(workload, trace=True)
        metrics = report["metrics"]
        assert sorted(metrics) == sorted(names)
        for name in names:
            assert metrics[name]["unit"]
            assert "samples" in metrics[name]
        required = set(suite.workloads("tiny")[workload].required)
        assert required <= set(report["boundaries_hit"])
        assert metrics["trace.overhead_ratio"]["value"] > 0
        assert report["failed"] == 0, report["failures"]
        assert report["spans"], workload


def test_wrong_expected_status_counts_as_failure():
    def plant(op):
        return dataclasses.replace(op, expected=op.expected + 1)
    report = tiny_run("tiny-opt", trace=False, mutate=plant)
    assert report["attempted"] >= 1
    assert report["failed"] == report["attempted"]
    assert report["metrics"]["fail_ratio"]["value"] == 1.0
    final = bench.result_line(report, bench.declared_metrics(trace=False))
    assert final["correct"] is False


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items())
             if name.startswith("test_") and callable(f)]
    for test in tests:
        test()
        print(f"ok  {test.__name__}", flush=True)
    print(f"{len(tests)} passed")
