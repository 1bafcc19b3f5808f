"""Loading the program from the checkout and running one CLI op in-process.

The program is always imported from ``src/`` of the checkout that holds
this directory, never from an installed copy.  ``load`` caps the BLAS
thread pools at the CPUs this process may use; it has to run before
numpy is first imported.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ProgramMissing(RuntimeError):
    pass


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def load():
    """Import and return ``pointbethe.cli`` from the checkout's sources."""
    if not (SRC / "pointbethe" / "__init__.py").is_file():
        raise ProgramMissing(f"no pointbethe sources under {SRC}")
    limit = cpu_count()
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= limit:
            os.environ[var] = str(limit)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from pointbethe import cli
    return cli


def call(cli, argv) -> tuple[int, str, str, float]:
    """Run ``cli.main(argv)``; return (status, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        status = cli.main(list(argv))
        seconds = time.perf_counter() - start
    return status, out.getvalue(), err.getvalue(), seconds


def build_groups(sizes) -> dict[int, float]:
    """Build symmetric_group(n) for each n; seconds for each first build."""
    from pointbethe.permutations import symmetric_group
    times = {}
    for n in sizes:
        start = time.perf_counter()
        symmetric_group(n)
        times[n] = time.perf_counter() - start
    return times


def setup(workload: str, seed: int):
    """Everything a fresh process pays before steady state.

    Import the program, build the symmetric-group tables for the
    workload's N values and run one untimed op of each kind.  Returns the
    CLI module and the first-build time of each group.
    """
    from workloads import GROUP_SIZES, warmup_ops
    cli = load()
    group_times = build_groups(GROUP_SIZES[workload])
    for op in warmup_ops(workload, seed):
        call(cli, op.argv)
    return cli, group_times


# Host-adjusted times are scaled to a host on which one reference-kernel
# run takes this long.
REFERENCE_S = 4.0e-3


def reference_kernel_s() -> float:
    """Seconds for one run of a fixed kernel that does not use pointbethe.

    It mimics the ops' mix, small-array complex arithmetic and float
    formatting, and is timed next to every op so that host-speed drift
    shows and can be divided out.
    """
    import numpy as np
    u = np.linspace(0.3, 5.0, 100)
    start = time.perf_counter()
    for j in range(150):
        w = u * (1.0 + j * 1e-3)
        np.abs((w + 1j) / (0.5j * w * w - 2.0 * w - 1j)).max()
    text = ",".join(f"{j * 1.2345678901:.17g}" for j in range(6000))
    seconds = time.perf_counter() - start
    if len(text.split(",")) != 6000:
        raise RuntimeError("reference kernel went wrong")
    return seconds
