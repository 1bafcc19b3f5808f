"""Verification of the factorization identities and Yang-Baxter relations.

The two-body amplitudes of a consistent multi-particle theory must satisfy
thirteen bilinear/trilinear identities (the factorized-scattering
consistency and associativity conditions).  Six of them hold identically
for every coupling choice; the remaining seven hold exactly on two coupling
families:

    family1:  lam = gamma = 0           (any c, eta)
    family2:  lam = 1/c, gamma = eta = 0

``check_factorization_panel`` evaluates all thirteen residuals; identity
testing is randomized evaluation on a seeded (u, v) panel, which detects
any violation of these rational identities with overwhelming probability.
``scan_couplings`` sweeps a coupling grid and cross-checks the verdict of
``couplings.integrable_family`` against the thresholded residuals.  The
matrix-level relations for the N!-dimensional operators Y_i and the
reduction of their 6x6 invariant blocks to the three-particle matrices
rest on one exact integer check of how each Y_i acts on the orbits of its
transpositions; ``yang_baxter_matrix_check`` then forms the relations on
S_2, S_3 and S_4.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import yang_apply
from .bethe import MAX_N
from .couplings import CouplingParameters, integrable_family
from .errors import PoleAtU, finite_array, whole_number
from .permutations import rank_of, symmetric_group
from .scattering import amplitude_columns

PASS_TOL = 1e-8    # below: point counts as satisfying the identities
FAIL_FLOOR = 1e-3  # above: point counts as violating them


@dataclass(frozen=True)
class FactorizationReport:
    """Per-identity max residuals over the evaluated samples."""

    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def check_factorization_panel(params: CouplingParameters,
                              samples) -> FactorizationReport:
    """All thirteen identity residuals, maxed over a panel of (u, v) pairs.

    Empty or non-finite samples raise ValueError, and a sample where an
    amplitude is not finite (u, v or u + v = 0 at c = 0, or huge couplings)
    raises PoleAtU.
    """
    samples = finite_array(samples, "samples", (None, 2), empty="need at least one (u, v) sample")
    grid = np.array([params.astuple()])
    res = _kernels.factorization_panel(grid, samples[:, 0], samples[:, 1])[0]
    if not np.all(np.isfinite(res)):
        raise PoleAtU(f"amplitude pole inside the sample panel for {params.astuple()}")
    return FactorizationReport(res)


@dataclass(frozen=True)
class GridSpec:
    """Cartesian coupling grid plus the seeded evaluation panel."""

    c_values: tuple[float, ...]
    lam_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    eta_values: tuple[float, ...]
    seed: int = 0
    panel_size: int = 100

    def __post_init__(self):
        for name in ("c_values", "lam_values", "gamma_values", "eta_values"):
            if finite_array(getattr(self, name), f"grid axis {name}", (None,)).size == 0:
                raise ValueError(f"grid axis {name} is empty")
        whole_number(self.panel_size, "panel_size", 1)
        whole_number(self.seed, "seed", 0)

    def points(self):
        return itertools.product(self.c_values, self.lam_values,
                                 self.gamma_values, self.eta_values)


@dataclass(frozen=True)
class ScanRow:
    params: CouplingParameters
    family: str | None  # integrable_family(params)
    max_residual: float

    @property
    def consistent(self) -> bool:
        """Does the thresholded residual agree with the family?"""
        if self.family is None:
            return self.max_residual >= FAIL_FLOOR
        return self.max_residual <= PASS_TOL


def classify(params: CouplingParameters, max_residual: float) -> ScanRow:
    """The scan row of one grid point: its ``integrable_family`` verdict
    beside the largest of its panel residuals.  ``perfbench/tracing.py``
    times the scan's per-row work under this name."""
    return ScanRow(params, integrable_family(params), max_residual)


def scan_couplings(grid: GridSpec) -> list[ScanRow]:
    """Classify every grid point and evaluate its panel residuals.

    The panel is drawn once from the grid seed, so identical grids give
    identical rows.  Rows come back in grid (itertools.product) order.
    """
    panel = _kernels.sample_panel(grid.seed, grid.panel_size)
    points = list(grid.points())
    params_grid = np.array(points, dtype=np.float64)
    maxima = _kernels.factorization_panel(params_grid, panel[:, 0], panel[:, 1]).max(axis=1)
    return [classify(CouplingParameters(*point), max_residual)
            for point, max_residual in zip(points, maxima.tolist())]


def scan_to_csv(rows: list[ScanRow]) -> str:
    """CSV report: c,lambda,gamma,eta,class,max_residual (17 significant digits)."""
    lines = ["c,lambda,gamma,eta,class,max_residual"]
    for r in rows:
        c, lam, gamma, eta = r.params.astuple()
        lines.append(
            f"{c:.17g},{lam:.17g},{gamma:.17g},{eta:.17g},"
            f"{r.family or 'not_integrable'},{r.max_residual:.17g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class YangBaxterReport:
    """Max residuals of the three matrix relation families."""

    unitarity: float   # Y_i(-u) Y_i(u) = 1
    braid: float       # Y_i(v) Y_{i+1}(u+v) Y_i(u) = Y_{i+1}(u) Y_i(u+v) Y_{i+1}(v)
    commute: float     # [Y_i(u), Y_j(v)] = 0 for |i-j| > 1

    @property
    def max_residual(self) -> float:
        return float(np.max((self.unitarity, self.braid, self.commute)))


def _orbit_structure_holds(tables, positions) -> bool:
    """Exact check that each Y_s with s, s+1 among the 0-based ``positions``
    (at S_m positions t, t+1, m = len(positions)) acts on the orbits of the
    transpositions there as S_m's Y_t does.  With ``labels`` the S_m ranks
    of the patterns at ``positions``: (1) ``tmaps[s]`` swaps entries s, s+1,
    so steps stay in their orbit; (2) ``asc[s] == S_m.asc[t][labels]``;
    (3) ``labels[tmaps[s]] == S_m.tmaps[t][labels]``.  Then row Q of their
    products on the orbit-packed identity is row labels[Q] on S_m's, bitwise.
    """
    group = symmetric_group(len(positions))
    labels = rank_of(tables.images[:, positions])
    for t, s in enumerate(positions[:-1]):
        if positions[t + 1] != s + 1:
            continue
        tmap, swap = tables.tmaps[s], np.r_[:s, s + 1, s, s + 2:tables.n]
        if not (np.array_equal(tables.images[tmap], tables.images[:, swap])
                and np.array_equal(tables.asc[s], group.asc[t][labels])
                and np.array_equal(labels[tmap], group.tmaps[t][labels])):
            return False
    return True


def yang_baxter_matrix_check(params: CouplingParameters, n: int,
                             samples) -> YangBaxterReport:
    """Residuals of the N!-dimensional Yang-Baxter relations over samples.

    Unitarity, braid and commute act on m = 2, 3, 4 positions.  Where the
    orbit structure holds at each of a relation's position sets, its N!-row
    products repeat the rows of the S_m products, so the relation is formed
    once, on a stack of S_m identities, one per sample: the same bits as
    forming it sample by sample.  It is inf where the structure fails and
    0.0 for N < m.  The amplitudes at each argument u, -u, v and u+v are
    evaluated for every sample on first use by a relation that runs, so a
    pole raises PoleAtU at the first sample of the first such argument
    that meets it.  Empty or non-finite samples raise ValueError.
    """
    n = whole_number(n, "N", 2, MAX_N)
    us, vs = finite_array(samples, "samples", (None, 2),
                          empty="need at least one (u, v) sample").T
    tables = symmetric_group(n)
    arguments = {"u": us, "-u": -us, "v": vs, "u+v": us + vs}

    @functools.cache
    def columns(w):  # S_R^+, S_R^-, S_T^+, S_T^- at argument w of every sample, (S, 1) each
        return amplitude_columns(params, arguments[w])[..., np.newaxis]

    def product(m, *steps):  # Y_{i_L}(w_L) ... Y_{i_1}(w_1) on the stacked S_m identities
        group = symmetric_group(m)
        out = np.broadcast_to(np.eye(group.order, dtype=np.complex128),
                              (len(us), group.order, group.order))
        for i, w in steps:
            out = yang_apply(_kernels.step_parts(group, i - 1, *columns(w)), out)
        return out

    relations = (
        ([[i - 1, i] for i in range(1, n)],
         lambda: product(2, (1, "u"), (1, "-u")) - product(2)),
        ([[i - 1, i, i + 1] for i in range(1, n - 1)],
         lambda: product(3, (1, "u"), (2, "u+v"), (1, "v"))
         - product(3, (2, "v"), (1, "u+v"), (2, "u"))),
        ([[i - 1, i, j - 1, j] for i in range(1, n) for j in range(i + 2, n)],
         lambda: product(4, (3, "v"), (1, "u")) - product(4, (1, "u"), (3, "v"))),
    )
    maxima = []
    for sets, residual in relations:
        if not all(_orbit_structure_holds(tables, p) for p in sets):
            maxima.append(math.inf)
        else:
            maxima.append(float(np.abs(residual()).max()) if sets else 0.0)
    return YangBaxterReport(*maxima)


def block_reduction_check(n: int, i: int) -> float:
    """Max deviation of the 6x6 invariant blocks of Y_i(u), Y_{i+1}(v) from
    the three-particle Y_1(u), Y_2(v).  Both pick their entries from the same
    four amplitudes by ascent flags, so the blocks match exactly when the
    orbit structure at positions i-1, i, i+1 holds: 0.0 then, inf otherwise,
    whatever the couplings, u and v are.
    """
    n = whole_number(n, "N", 4)
    i = whole_number(i, "site i", 1, n - 2)
    return 0.0 if _orbit_structure_holds(symmetric_group(n), [i - 1, i, i + 1]) else math.inf
