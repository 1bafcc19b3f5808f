"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import program
import run
import tracing
import workloads

SPEC = json.loads((program.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_metrics_the_runs_print():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.CYCLES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.CYCLES))
def test_smoke_run_emits_every_metric(workload, trace):
    limits = {"min_ops": 1, "probes": 1} if trace == 0 else {"min_ops": 1}
    record = run.run_benchmark(workload, 7, 0.0, trace, **limits)
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    if trace:
        assert record["extra"]["report_digest"] == record["extra"]["traced_report_digest"]
        assert result["metrics"]["trace.self_time_share"]["value"] == pytest.approx(1.0)
        assert record["extra"]["missing_targets"] == []


def _report(op):
    cli = program.load()
    status, report, stderr, _ = program.call(cli, op.argv)
    assert status == 0 and not stderr
    return report


@pytest.mark.parametrize("workload, index, line_start", [
    ("verify", 0, "boundary-system residual:"),
    ("verify", 1, "braid residual:"),
    ("verify", 2, "pairwise relation residual:"),
    ("eigen6", 0, "boundary (2,5): residuals"),
    ("eigen6", 2, "delta-gas boundary (1,6): residuals"),
])
def test_one_residual_above_tol_fails_the_op(workload, index, line_start):
    op = workloads.make_op(workload, 3, index)
    report = _report(op)
    assert checks.check_report(op.kind, 0, report, workloads.TOL).ok
    lines = report.splitlines()
    (pos,) = [i for i, line in enumerate(lines) if line.startswith(line_start)]
    lines[pos] = lines[pos].rsplit(" ", 1)[0] + " 3.000e-07"
    verdict = checks.check_report(op.kind, 0, "\n".join(lines) + "\n", workloads.TOL)
    assert not verdict.ok
    assert any("above tol" in p for p in verdict.problems)


def test_scan_misclassification_fails_the_op():
    op = workloads.make_op("scan", 3, 0)
    report = _report(op)
    verdict = checks.check_report(op.kind, 0, report, workloads.TOL)
    assert verdict.ok and 0 < verdict.margin_dec < checks.MARGIN_CAP_DEC
    broken = report.replace("2,0.5,0,0,family2,", "2,0.5,0,0,not_integrable,", 1)
    assert broken != report
    assert not checks.check_report(op.kind, 0, broken, workloads.TOL).ok
    assert not checks.check_report(op.kind, 2, report, workloads.TOL).ok


def test_inputs_are_seeded_flags_with_inline_values():
    for workload in workloads.CYCLES:
        ops = workloads.make_ops(workload, 5, 12)
        assert ops[:4] == workloads.make_ops(workload, 5, 4)
        assert workloads.argv_digest(ops) != workloads.argv_digest(workloads.make_ops(workload, 6, 12))
        for op in ops:
            assert all(arg.startswith("--") and "=" in arg for arg in op.argv[1:])
            flags = dict(arg[2:].split("=", 1) for arg in op.argv[1:])
            if op.kind.endswith("f2"):
                assert abs(float(flags["c"]) * float(flags["lambda"]) - 1.0) < 1e-12
            if "k" in flags:
                k = sorted(map(float, flags["k"].split(",")))
                assert min(b - a for a, b in zip(k, k[1:])) >= workloads.MIN_MOMENTUM_GAP - 1e-6


def test_absent_target_reports_null(monkeypatch):
    monkeypatch.setitem(tracing.TIMED, ("_kernels", "no_such_kernel"), "kernels.no_such_kernel_s")
    monkeypatch.setitem(tracing.COUNTERS, ("_kernels", "no_such_kernel"),
                        [("kernels.no_such_count", lambda a, kw, r: 1)])
    program.load()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["_kernels.no_such_kernel"]
    metrics = tracer.metrics(1)
    assert metrics["kernels.no_such_kernel_s"] is None
    assert metrics["kernels.no_such_count"] is None
    assert metrics["kernels.propagate_table_s"] == 0.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
