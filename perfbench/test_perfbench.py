"""Tests of the benchmark itself, on smoke-sized workloads."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_trace
import bench_worker
from bench_workloads import GapScan, ScheduleExport, Simulate

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMOKE = (
    GapScan("smoke_gap", "smoke", (2, 2), (2, 3), ["0.25", "0.5"], ["1", "10"]),
    Simulate("smoke_simulate", "smoke", 2, 2, 0.5, 0.5, 10.0, 2000),
    ScheduleExport("smoke_export", "smoke", 3, 3, 0.5, 0.5, 100.0),
)


def _measure(workload, trace, digest=None, tracer=None):
    cli = bench_worker.load_cli()
    return bench_worker.measure(workload, cli, workload.slices(7), 0.0, trace, digest, tracer)


@pytest.fixture(scope="module")
def benchmark_spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True])
def test_emitted_names_match_pattern_and_spec(workload, trace, benchmark_spec):
    result = _measure(workload, trace)
    assert result["failed"] == 0, result["failures"]
    declared = {m["name"]: m["unit"] for m in benchmark_spec["per_layer" if trace else "end_to_end"]}
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert declared[name] == metric["unit"]
    if trace:
        assert set(result["metrics"]) == set(declared)
    else:
        assert set(result["metrics"]) | {"setup_s"} == set(declared)


def test_spec_names_match_pattern(benchmark_spec):
    names = [w["name"] for w in benchmark_spec["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in benchmark_spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_tampered_digest_fails_every_operation(workload):
    result = _measure(workload, False, digest="0" * 64)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_gap_scan_slices_merge_into_the_whole_grid_output():
    cli = bench_worker.load_cli()
    gap = SMOKE[0]
    whole = bench_worker._call(cli, [
        "gap-scan", "--nt-range", "%d:%d" % gap.nt_range, "--nr-range", "%d:%d" % gap.nr_range,
        "--mu-values", ",".join(gap.mu_values), "--r-values", ",".join(gap.r_values),
    ])
    slices = gap.slices(7)
    assert len(slices) == 4 and slices != gap.slices(8)
    rc, out, _ = gap.merge([bench_worker._call(cli, argv) for argv in slices])
    assert (rc, out) == whole[:2]
    assert out.count("\n") == gap.items() + 1


def test_pinned_digest_lookup():
    table = {"a": {"any": "x"}, "b": {"0": "y"}}
    assert bench_worker.pinned_digest("a", 5, table) == "x"
    assert bench_worker.pinned_digest("b", 0, table) == "y"
    assert bench_worker.pinned_digest("b", 1, table) is None
    assert bench_worker.pinned_digest("c", 0, table) is None


def test_missing_wrapper_target_gives_absent_metrics():
    import fogndt.cli

    original = fogndt.cli.execute_schedule
    targets = [t for t in bench_trace.TARGETS if t.span != "oracle.execute"]
    targets.append(bench_trace.Target("oracle.execute", "fogndt.cli", "no_such_function"))
    result = _measure(SMOKE[1], True, tracer=bench_trace.Tracer(targets))
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert not [name for name in metrics if name.startswith("oracle.")]
    assert metrics["placement.sample_s"]["value"] > 0
    assert fogndt.cli.execute_schedule is original


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_self_times_add_up_and_wrappers_are_removed(workload):
    import fogndt.bounds
    import fogndt.scheduler

    before = (fogndt.bounds.bounds_report, fogndt.scheduler.GroupPlan.__dict__["messages"])
    tracer = bench_trace.Tracer()
    result = _measure(workload, True, tracer=tracer)
    assert result["failed"] == 0, result["failures"]
    for stats in tracer.op_stats():
        assert stats.self_times_consistent()
        children = sum(v for k, v in stats.self.items() if k != bench_trace.ROOT_SPAN)
        assert children <= stats.dur[bench_trace.ROOT_SPAN]
    assert (fogndt.bounds.bounds_report, fogndt.scheduler.GroupPlan.__dict__["messages"]) == before


def test_trace_counts_match_the_workload():
    result = _measure(SMOKE[0], True)
    assert result["metrics"]["bounds.calls"]["value"] == SMOKE[0].items()
    result = _measure(SMOKE[2], True)
    assert result["metrics"]["scheduler.messages"]["value"] == SMOKE[2].items()


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "export_5x5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
