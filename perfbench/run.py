"""pointbethe benchmark: closed-loop CLI workloads with checked outputs.

    python3 perfbench/run.py --workload {scan,eigen6,verify} --seed N \\
        --seconds S --trace {0,1}

One client issues ops back to back, each one in-process call of
``pointbethe.cli.main(argv)`` with argv generated from the seed (see
``workloads.py``).  Every op's exit status and report are checked
(``checks.py``).  A run stops at the end of the first whole cycle of op
kinds after ``--seconds`` have passed and at least ``MIN_OPS`` ops have
run.  The first op is rerun at the end and must reproduce its report
byte for byte.

Times are host-adjusted.  The host this was built on slows all code,
pure Python and numpy alike, by up to 2x, in bursts that last from
seconds to minutes and that the guest's steal counter does not show.  A
fixed reference kernel that does not use pointbethe is timed between
every two ops.  Each op's wall time is scaled by ``program.REFERENCE_S``
divided by the mean of the reference times just before and just after
it, and each set-up probe likewise.  On ten 24 s windows of scan ops on
a loaded host this cut the quartile spread of p50 from 0.22 to 0.02 of
the median, and of p90 from 0.09 to 0.05.  Wall times are kept in the
record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a list
of ops untraced, then the same list traced (``tracing.py``), requires
identical reports from both, and reports the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, run metadata included, goes
to ``perfbench/out/``.  Exits 2 without a result when the checkout holds
no pointbethe sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import program
import tracing
import workloads

MIN_OPS = 100          # p90 needs ten samples beyond it; also the fixed
                       # prefix whose residuals set residual_margin_dec
MAX_MEASURE_S = 120.0  # keeps a slow commit's run within its time limit
SETUP_PROBES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "fraction",
    "residual_margin_dec": "dec",
}

RESIDUAL_MAX = {"relation": "residual.relation_max", "oracle": "residual.oracle_max",
                "yb": "residual.yb_max", "boundary": "residual.boundary_max",
                "gauge": "residual.gauge_max"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for metric in tracing.TIMED.values():
        if metric is not None:
            units[metric] = "s/op"
    for counters in tracing.COUNTERS.values():
        for name, _ in counters:
            units[name] = "B/op" if name.endswith("_bytes") else "count/op"
    for module in map(tracing.metric_prefix, tracing.MODULES):
        units[f"{module}.calls"] = "count/op"
        units[f"{module}.errors"] = "count/op"
    units.update({
        "cli.self_s": "s/op",
        "cli.report_bytes": "B/op",
        "permutations.symmetric_group_s": "s",
        "permutations.group_order": "count",
        "residual.scan_margin_dec": "dec",
        **{name: "abs" for name in RESIDUAL_MAX.values()},
        "trace.overhead": "fraction",
        "trace.self_time_share": "fraction",
        "host.ref_kernel_ms": "ms",
        "run.error_rate": "fraction",
    })
    return units


class Phase:
    """Outcome of running a list of ops: timings, verdicts, report digests."""

    def __init__(self):
        self.latencies: list[float] = []
        self.refs: list[float] = [program.reference_kernel_s()]  # around every op
        self.digests: list[str] = []
        self.verdicts: list[checks.Verdict] = []
        self.report_bytes = 0
        self.first_report: str | None = None

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)

    def adjusted(self) -> list[float]:
        """Host-adjusted latencies of the ops that returned."""
        return [t * program.REFERENCE_S / ((a + b) / 2.0)
                for t, a, b in zip(self.latencies, self.refs, self.refs[1:]) if math.isfinite(t)]

    def run_op(self, cli, op: workloads.Op) -> None:
        try:
            status, report, stderr, seconds = program.call(cli, op.argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            verdict = checks.Verdict()
            verdict.fail(f"op {op.index} raised {exc!r}")
            status, report, seconds = -1, "", math.nan
        else:
            verdict = checks.check_report(op.kind, status, report, workloads.TOL)
            if stderr:
                verdict.fail(f"stderr: {stderr.strip()[:200]}")
        if self.first_report is None:
            self.first_report = report
        self.latencies.append(seconds)
        self.refs.append(program.reference_kernel_s())
        self.digests.append(hashlib.sha256(report.encode()).hexdigest())
        self.report_bytes += len(report.encode())
        self.verdicts.append(verdict)


def run_loop(cli, workload: str, seed: int, seconds: float, min_ops: int) -> Phase:
    """Whole cycles of ops until seconds and min_ops are both reached."""
    phase = Phase()
    cycle = len(workloads.CYCLES[workload])
    start = time.perf_counter()
    index = 0
    while True:
        for _ in range(cycle):
            phase.run_op(cli, workloads.make_op(workload, seed, index))
            index += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and index >= min_ops) or elapsed >= MAX_MEASURE_S:
            return phase


def _host_reference_s() -> float:
    return statistics.median(program.reference_kernel_s() for _ in range(5))


def setup_times(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Wall and host-adjusted times of fresh processes doing the full set-up."""
    script = Path(__file__).resolve().parent / "setup_probe.py"
    walls, adjusted = [], []
    for _ in range(probes):
        before = _host_reference_s()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(script), workload, str(seed)],
                              cwd=program.ROOT, capture_output=True, text=True, timeout=150)
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        reference = (before + _host_reference_s()) / 2.0
        adjusted.append(walls[-1] * program.REFERENCE_S / reference)
    return walls, adjusted


def reproducible(cli, op: workloads.Op, phase: Phase) -> bool:
    """The CLI's contract: the same argv gives the same report bytes."""
    status, report, _, _ = program.call(cli, op.argv)
    return status == 0 and report == phase.first_report


def residual_metrics(verdicts) -> dict[str, float]:
    out = {name: 0.0 for name in RESIDUAL_MAX.values()}
    scan_margins = []
    for v in verdicts:
        for category, value in v.residuals.items():
            if category == "scan":
                scan_margins.append(v.margin_dec)
            else:
                name = RESIDUAL_MAX[category]
                out[name] = max(out[name], value)
    out["residual.scan_margin_dec"] = min(scan_margins, default=0.0)
    return out


def percentile_ms(latencies, q: int) -> float:
    if len(latencies) < 2:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def metadata(workload: str, seed: int) -> dict:
    import numpy as np
    import pointbethe
    head = program.ROOT / ".git" / "HEAD"
    revision = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = program.ROOT / ".git" / ref.removeprefix("ref: ")
        revision = ref_file.read_text().strip() if ref.startswith("ref: ") and ref_file.is_file() else ref
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in program.BLAS_THREAD_VARS},
        "nproc": program.cpu_count(),
        "backend": pointbethe.BACKEND,
        "group_orders": {n: math.factorial(n) for n in workloads.GROUP_SIZES[workload]},
        "op_kinds": list(workloads.CYCLES[workload]),
    }


def run_untraced(workload, seed, seconds, min_ops=MIN_OPS, probes=SETUP_PROBES):
    cli, _ = program.setup(workload, seed)
    setup_walls, setups = setup_times(workload, seed, probes)
    phase = run_loop(cli, workload, seed, seconds, min_ops)
    ops = workloads.make_ops(workload, seed, len(phase.verdicts))
    rerun_ok = reproducible(cli, ops[0], phase)
    attempted = len(ops) + 1
    failed = phase.failed + (not rerun_ok)
    lat = phase.adjusted() or [math.nan]
    walls = [t for t in phase.latencies if math.isfinite(t)] or [math.nan]
    metrics = {
        "ops_per_s": len(lat) / math.fsum(lat),
        "op_p50_ms": percentile_ms(lat, 50),
        "op_p90_ms": percentile_ms(lat, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "ok_rate": (attempted - failed) / attempted,
        "residual_margin_dec": min(v.margin_dec for v in phase.verdicts[:min_ops]),
    }
    extra = {
        "op_samples": len(lat),
        "wall_op_p50_ms": percentile_ms(walls, 50),
        "wall_op_p90_ms": percentile_ms(walls, 90),
        "wall_setup_s": setup_walls,
        "host.ref_kernel_ms": 1e3 * statistics.median(phase.refs),
        "error_rate": failed / attempted,
        "rerun_identical": rerun_ok,
        "argv_digest_fixed_prefix": workloads.argv_digest(ops[:min_ops]),
        "report_digest": hashlib.sha256("".join(phase.digests).encode()).hexdigest(),
    }
    return attempted, failed, metrics, extra, phase.verdicts, None


def run_traced(workload, seed, seconds, min_ops=1):
    cli, group_times = program.setup(workload, seed)
    plain = run_loop(cli, workload, seed, seconds / 2.0, min_ops)
    ops = workloads.make_ops(workload, seed, len(plain.verdicts))
    tracer = tracing.Tracer()
    main = cli.main
    tracer.install()
    try:
        def traced_main(argv):
            return tracer.call(tracing.ROOT_SPAN, main, argv)

        cli.main = traced_main
        traced = Phase()
        for op in ops:
            tracer.op_id = op.index
            traced.run_op(cli, op)
    finally:
        cli.main = main
        tracer.uninstall()
    rerun_ok = reproducible(cli, ops[0], plain)
    mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
    attempted = 2 * len(ops) + 1
    failed = plain.failed + traced.failed + mismatched + (not rerun_ok)
    n = len(ops)
    metrics = tracer.metrics(n)
    metrics.update(residual_metrics(traced.verdicts))
    metrics.update({
        "cli.report_bytes": traced.report_bytes / n,
        "permutations.symmetric_group_s": math.fsum(group_times.values()),
        "permutations.group_order": sum(math.factorial(k) for k in group_times),
        "trace.overhead": 1.0 - math.fsum(plain.adjusted()) / math.fsum(traced.adjusted()),
        "host.ref_kernel_ms": 1e3 * statistics.median(plain.refs + traced.refs),
        "run.error_rate": failed / attempted,
    })
    extra = {
        "op_samples": n,
        "traced_reports_identical": mismatched == 0,
        "rerun_identical": rerun_ok,
        "argv_digest": workloads.argv_digest(ops),
        "report_digest": hashlib.sha256("".join(plain.digests).encode()).hexdigest(),
        "traced_report_digest": hashlib.sha256("".join(traced.digests).encode()).hexdigest(),
        "missing_targets": tracer.missing,
    }
    return attempted, failed, metrics, extra, plain.verdicts + traced.verdicts, tracer


def run_benchmark(workload: str, seed: int, seconds: float, trace: int, **limits) -> dict:
    """One run; returns the full record (the printed result is its summary)."""
    run = run_traced if trace else run_untraced
    attempted, failed, metrics, extra, verdicts, tracer = run(workload, seed, seconds, **limits)
    units = per_layer_units() if trace else END_TO_END
    problems = [f"op {i}: {p}" for i, v in enumerate(verdicts) for p in v.problems]
    warnings = [f"op {i}: {w}" for i, v in enumerate(verdicts) for w in v.warnings]
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "extra": extra,
        "problems": problems[:50],
        "warnings": warnings[:50],
        "metadata": metadata(workload, seed),
        "spans": tracer.dump() if tracer else None,
    }


def write_record(record: dict, workload: str, seed: int, trace: int) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    spans = record.pop("spans")
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(spans))
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = write_record(record, args.workload, args.seed, args.trace)
    result = record["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    for name, value in record["extra"].items():
        print(f"# {name} = {value}")
    for line in record["problems"]:
        print(f"# problem: {line}")
    for line in record["warnings"]:
        print(f"# warning: {line}")
    print(f"# record: {path.relative_to(program.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
