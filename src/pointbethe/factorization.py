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
``scan_couplings`` sweeps a coupling grid as one array, and ``classify``
cross-checks the family conditions of ``couplings.integrable_family``
against the thresholded residuals, on the whole grid at once.  The
matrix-level relations for the N!-dimensional operators Y_i and the
reduction of their 6x6 invariant blocks to the three-particle matrices
rest on one exact integer check of how each Y_i acts on the orbits of its
transpositions; ``yang_baxter_matrix_check`` then forms the relations on
S_2, S_3 and S_4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _kernels
from ._kernels import yang_apply
from .bethe import MAX_N
from .couplings import CouplingParameters, _families
from .errors import PoleAtU, finite_array, whole_number
from .permutations import rank_of, symmetric_group
from .scattering import amplitude_columns

PASS_TOL = 1e-8    # below: point counts as satisfying the identities
FAIL_FLOOR = 1e-3  # above: point counts as violating them
_CSV_CHUNK_ROWS = 256  # scan CSV rows per % call: bounds the Python objects alive at once


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
    panel_size: ClassVar[int] = 100  # (u, v) samples in the panel

    def __post_init__(self):
        for name in ("c_values", "lam_values", "gamma_values", "eta_values"):
            if finite_array(getattr(self, name), f"grid axis {name}", (None,)).size == 0:
                raise ValueError(f"grid axis {name} is empty")
        whole_number(self.seed, "seed", 0)


@dataclass(frozen=True)
class ScanTable:
    """A classified coupling grid: row g of each array is grid point g."""

    couplings: np.ndarray     # (G, 4): c, lambda, gamma, eta
    family: np.ndarray        # "family1", "family2" or "not_integrable"
    max_residual: np.ndarray  # largest panel residual, inf where one is not finite
    consistent: np.ndarray    # does the thresholded residual agree with the family?


def classify(couplings: np.ndarray, max_residual: np.ndarray) -> ScanTable:
    """The table of (G, 4) couplings and their panel maxima: each point's
    family by ``integrable_family``'s conditions, and whether its residual
    is at most PASS_TOL on a family and at least FAIL_FLOOR off both."""
    with np.errstate(over="ignore"):  # c lam of huge couplings is inf, as for Python floats
        family1, family2 = _families(*couplings.T)
    family = np.where(family1, "family1", np.where(family2, "family2", "not_integrable"))
    consistent = np.where(family1 | family2, max_residual <= PASS_TOL, max_residual >= FAIL_FLOOR)
    return ScanTable(couplings, family, max_residual, consistent)


def scan_couplings(grid: GridSpec) -> ScanTable:
    """Every grid point's panel residuals, on one panel drawn from the grid
    seed, classified; rows in grid (itertools.product) order."""
    panel = _kernels.sample_panel(grid.seed, grid.panel_size)
    axes = (grid.c_values, grid.lam_values, grid.gamma_values, grid.eta_values)
    couplings = np.array(np.meshgrid(*axes, indexing="ij"), dtype=np.float64).reshape(4, -1).T
    maxima = _kernels.factorization_panel(couplings, panel[:, 0], panel[:, 1]).max(axis=1)
    return classify(couplings, maxima)


def scan_to_csv(table: ScanTable) -> str:
    """CSV report: c,lambda,gamma,eta,class,max_residual (17 significant
    digits), one ``%`` call per chunk of rows of Python floats and labels."""
    lines = ["c,lambda,gamma,eta,class,max_residual"]
    columns = (table.couplings, table.family[:, None], table.max_residual[:, None])
    for start in range(0, len(table.family), _CSV_CHUNK_ROWS):
        chunk = np.hstack([col[start:start + _CSV_CHUNK_ROWS].astype(object) for col in columns])
        template = "\n".join(["%.17g,%.17g,%.17g,%.17g,%s,%.17g"] * len(chunk))
        lines.append(template % tuple(chunk.ravel().tolist()))
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


@functools.cache
def _orbit_structure_holds(tables, positions: tuple[int, ...]) -> bool:
    """Exact check that each Y_s with s, s+1 among the 0-based ``positions``
    (at S_m positions t, t+1, m = len(positions)) acts on the orbits of the
    transpositions there as S_m's Y_t does.  With ``labels`` the S_m ranks
    of the patterns at ``positions``: (1) ``tmaps[s]`` swaps entries s, s+1,
    so steps stay in their orbit; (2) ``asc[s] == S_m.asc[t][labels]``;
    (3) ``labels[tmaps[s]] == S_m.tmaps[t][labels]``.  Then row Q of their
    products on the orbit-packed identity is row labels[Q] on S_m's, bitwise.
    The verdict depends on the tables and the positions alone, so it is
    formed once per tables object and position tuple.
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
    evaluated for every sample, as one ``amplitude_columns`` stack that
    ``step_parts`` takes whole, on first use by a relation that runs, so a
    pole raises PoleAtU at the first sample of the first such argument
    that meets it.  Empty or non-finite samples, and a sample whose u + v
    is past the float range, raise ValueError.
    """
    n = whole_number(n, "N", 2, MAX_N)
    us, vs = finite_array(samples, "samples", (None, 2),
                          empty="need at least one (u, v) sample").T
    with np.errstate(over="ignore"):
        ws = us + vs
    overflowed = np.flatnonzero(np.isinf(ws))
    if overflowed.size:
        s = overflowed[0]
        raise ValueError(f"sample {s}: u + v of (u, v) = ({us[s]}, {vs[s]}) is past the float range")
    tables = symmetric_group(n)
    arguments = {"u": us, "-u": -us, "v": vs, "u+v": ws}

    @functools.cache
    def columns(w):  # the four amplitudes at argument w of every sample, (4, S, 1)
        return amplitude_columns(params, arguments[w])[..., np.newaxis]

    def product(m, *steps):  # Y_{i_L}(w_L) ... Y_{i_1}(w_1) on the stacked S_m identities
        group = symmetric_group(m)
        out = np.broadcast_to(np.eye(group.order, dtype=np.complex128),
                              (len(us), group.order, group.order))
        for i, w in steps:
            out = yang_apply(_kernels.step_parts(group, i - 1, columns(w)), out)
        return out

    relations = (
        ([(i - 1, i) for i in range(1, n)],
         lambda: product(2, (1, "u"), (1, "-u")) - product(2)),
        ([(i - 1, i, i + 1) for i in range(1, n - 1)],
         lambda: product(3, (1, "u"), (2, "u+v"), (1, "v"))
         - product(3, (2, "v"), (1, "u+v"), (2, "u"))),
        ([(i - 1, i, j - 1, j) for i in range(1, n) for j in range(i + 2, n)],
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
    return 0.0 if _orbit_structure_holds(symmetric_group(n), (i - 1, i, i + 1)) else math.inf
