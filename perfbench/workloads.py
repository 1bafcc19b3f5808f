"""Seeded operation lists for the three benchmark workloads.

Every operation is one argv list for ``pointbethe.cli.main``.  Operation
``i`` of a workload depends only on the workload seed and ``i``, so a
prefix of the list is the same however long a run turns out to be, and
two commits measured with the same seed receive identical inputs.

Values are always written as ``--flag=value``: argparse reads a separate
value that starts with ``-`` (a negative coupling) as an unknown option.

Workloads and why they were chosen:

* ``scan``: the coupling classification on the acceptance 5^4 grid, a
  fresh panel seed per op.  Dominated by the factorization panel kernel;
  touches no permutation tables, no coefficient tables, no wavefunctions.
* ``eigen6``: ``eigen`` in both integrable families and ``gauge`` at
  N = 6, the largest tables the CLI allows (720 x 720).  Dominated by the
  table fill and the boundary residuals; no factorization or oracle work.
* ``verify``: ``coeffs`` at N = 4 (brute-force oracle), ``yb-check`` at
  N = 5 and ``coeffs`` at N = 5 (full-table relation residual and a
  296 kB CSV), couplings alternating between the families.  Dominated by
  the verification layers, with small-N table work where per-call
  overhead outweighs table size.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

TOL = 1e-8
SCAN_GRID = {
    "c": "-2,-1,0.5,1,2",
    "lambda": "-0.5,0,0.5,1,2",
    "gamma": "-1,-0.5,0,0.5,1",
    "eta": "-1,-0.5,0,0.5,1",
}
MIN_MOMENTUM_GAP = 0.3

# Each workload cycles through its kinds; a run stops only at the end of
# a whole cycle so every run has the same mix of kinds.
CYCLES = {
    "scan": ("scan",),
    "eigen6": ("eigen-f1", "eigen-f2", "gauge-f1"),
    # three kinds against two families: six ops cover every pairing
    "verify": ("coeffs4-f1", "yb5-f2", "coeffs5-f1",
               "coeffs4-f2", "yb5-f1", "coeffs5-f2"),
}
# kind -> (CLI command, N, coupling family)
KINDS = {
    "scan": ("scan", None, None),
    "eigen-f1": ("eigen", 6, "f1"),
    "eigen-f2": ("eigen", 6, "f2"),
    "gauge-f1": ("gauge", 6, "f1"),
    "coeffs4-f1": ("coeffs", 4, "f1"),
    "coeffs4-f2": ("coeffs", 4, "f2"),
    "yb5-f1": ("yb-check", 5, "f1"),
    "yb5-f2": ("yb-check", 5, "f2"),
    "coeffs5-f1": ("coeffs", 5, "f1"),
    "coeffs5-f2": ("coeffs", 5, "f2"),
}
# N values whose symmetric-group tables each workload builds in set-up
# (yb-check at N >= 4 also builds the three-particle reference blocks).
GROUP_SIZES = {"scan": (), "eigen6": (6,), "verify": (3, 4, 5)}


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...]


def _couplings(rng: random.Random, family: str) -> list[str]:
    c = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.5)
    c_str = f"{c:.6g}"
    if family == "f1":
        return [f"--c={c_str}", f"--eta={rng.uniform(-1.0, 1.0):.6g}"]
    # lambda derived from the formatted c, so c * lambda - 1 is at roundoff
    return [f"--c={c_str}", f"--lambda={1.0 / float(c_str)!r}"]


def _momenta(rng: random.Random, n: int) -> str:
    steps = [MIN_MOMENTUM_GAP + rng.uniform(0.0, 0.4) for _ in range(n - 1)]
    k = [0.0]
    for s in steps:
        k.append(k[-1] + s)
    shift = k[-1] / 2.0
    k = [v - shift for v in k]
    rng.shuffle(k)
    return ",".join(f"{v:.6f}" for v in k)


def make_op(workload: str, seed: int, index: int) -> Op:
    """Operation ``index`` of ``workload`` for ``seed``."""
    cycle = CYCLES[workload]
    kind = cycle[index % len(cycle)]
    rng = random.Random(f"{workload}:{seed}:{index}")
    op_seed = f"--seed={rng.randrange(2**31)}"
    tol = f"--tol={TOL!r}"
    if kind == "scan":
        argv = ["scan"] + [f"--{k}={v}" for k, v in SCAN_GRID.items()] + [op_seed, tol]
    else:
        command, n, family = KINDS[kind]
        argv = [command] + _couplings(rng, family) + [f"--N={n}"]
        if command != "yb-check":
            argv.append(f"--k={_momenta(rng, n)}")
        argv += [op_seed, tol]
    return Op(index=index, kind=kind, argv=tuple(argv))


def make_ops(workload: str, seed: int, count: int) -> list[Op]:
    return [make_op(workload, seed, i) for i in range(count)]


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """One op of each kind, the first occurrence in the workload's list."""
    return make_ops(workload, seed, len(CYCLES[workload]))


def argv_digest(ops: list[Op]) -> str:
    """sha256 over the argv lists, to show two runs used identical inputs."""
    blob = json.dumps([list(op.argv) for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
