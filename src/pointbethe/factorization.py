"""Verification of the factorization identities and Yang-Baxter relations.

The two-body amplitudes of a consistent multi-particle theory must satisfy
thirteen bilinear/trilinear identities (the factorized-scattering
consistency and associativity conditions).  Six of them hold identically
for every coupling choice; the remaining seven hold exactly on two coupling
families:

    family1:  lam = gamma = 0           (any c, eta)
    family2:  lam = 1/c, gamma = eta = 0

``check_factorization`` evaluates all thirteen residuals; identity testing
is randomized evaluation on a seeded (u, v) panel, which detects any
violation of these rational identities with overwhelming probability.
``scan_couplings`` sweeps a coupling grid and cross-checks the algebraic
classification against the thresholded residuals.  The matrix-level
relations for the N!-dimensional operators Y_i and the reduction of their
6x6 invariant blocks to the three-particle matrices rest on one exact
integer check of how each Y_i acts on the orbits of its transpositions;
``yang_baxter_matrix_check`` then forms the relations on S_2, S_3 and S_4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import _kernels
from ._kernels import yang_apply
from .bethe import yang_parts
from .couplings import CouplingParameters, integrable_family
from .errors import PoleAtU
from .permutations import rank_of, symmetric_group

N_EQUATIONS = 13
PASS_TOL = 1e-8    # below: point counts as satisfying the identities
FAIL_FLOOR = 1e-3  # above: point counts as violating them
CLASSIFY_TOL = 1e-9


class IntegrabilityTag(Enum):
    FAMILY1 = "family1"
    FAMILY2 = "family2"
    NOT_INTEGRABLE = "not_integrable"


@dataclass(frozen=True)
class IntegrabilityClass:
    tag: IntegrabilityTag
    tolerance: float


def classify(params: CouplingParameters, tol: float = CLASSIFY_TOL) -> IntegrabilityClass:
    """Algebraic classification of the couplings at tolerance tol."""
    family = integrable_family(params, tol)
    tag = {
        "family1": IntegrabilityTag.FAMILY1,
        "family2": IntegrabilityTag.FAMILY2,
        None: IntegrabilityTag.NOT_INTEGRABLE,
    }[family]
    return IntegrabilityClass(tag=tag, tolerance=tol)


@dataclass(frozen=True)
class FactorizationReport:
    """Per-identity max residuals over the evaluated samples.

    ``reduced_condition_residuals`` holds (|gamma|, |lam*(c*lam + eta^2 - 1)|,
    |lam*eta|), the absolute values of the real/imaginary split of the
    reduced solvability conditions; all three vanish exactly on the two
    integrable families.
    """

    params: CouplingParameters
    samples: list[tuple[float, float]]
    residuals: np.ndarray
    reduced_condition_residuals: tuple[float, float, float]

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())


def _reduced_conditions(params: CouplingParameters) -> tuple[float, float, float]:
    c, lam, gamma, eta = params.astuple()
    return (abs(gamma), abs(lam * (c * lam + eta**2 - 1.0)), abs(lam * eta))


def check_factorization_panel(params: CouplingParameters,
                              samples) -> FactorizationReport:
    """All thirteen identity residuals, maxed over a panel of (u, v) pairs."""
    samples = [(float(u), float(v)) for u, v in samples]
    if not samples:
        raise ValueError("need at least one (u, v) sample")
    us = np.array([s[0] for s in samples])
    vs = np.array([s[1] for s in samples])
    grid = np.array([params.astuple()])
    res = _kernels.factorization_panel(grid, us, vs)[0]
    if not np.all(np.isfinite(res)):
        raise PoleAtU(f"amplitude pole inside the sample panel for {params.astuple()}")
    return FactorizationReport(
        params=params, samples=samples, residuals=res,
        reduced_condition_residuals=_reduced_conditions(params),
    )


def check_factorization(params: CouplingParameters, u: float, v: float) -> FactorizationReport:
    """Identity residuals at a single (u, v) point."""
    return check_factorization_panel(params, [(u, v)])


@dataclass(frozen=True)
class GridSpec:
    """Cartesian coupling grid plus the seeded evaluation panel."""

    c_values: tuple[float, ...]
    lam_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    eta_values: tuple[float, ...]
    seed: int = 0
    panel_size: int = 100

    def points(self):
        return itertools.product(self.c_values, self.lam_values,
                                 self.gamma_values, self.eta_values)


@dataclass(frozen=True)
class ScanRow:
    params: CouplingParameters
    classification: IntegrabilityClass
    max_residual: float

    @property
    def consistent(self) -> bool:
        """Does the thresholded residual agree with the classification?"""
        if self.classification.tag is IntegrabilityTag.NOT_INTEGRABLE:
            return self.max_residual >= FAIL_FLOOR
        return self.max_residual <= PASS_TOL


def scan_couplings(grid: GridSpec) -> list[ScanRow]:
    """Classify every grid point and evaluate its panel residuals.

    The panel is drawn once from the grid seed, so identical grids give
    identical rows.  Rows come back in grid (itertools.product) order.
    """
    panel = _kernels.sample_panel(grid.seed, grid.panel_size)
    points = list(grid.points())
    params_grid = np.array(points, dtype=np.float64)
    res = _kernels.factorization_panel(params_grid, panel[:, 0], panel[:, 1])
    rows = []
    for point, point_res in zip(points, res):
        params = CouplingParameters(*point)
        rows.append(ScanRow(
            params=params,
            classification=classify(params),
            max_residual=float(point_res.max()),
        ))
    return rows


def scan_to_csv(rows: list[ScanRow]) -> str:
    """CSV report: c,lambda,gamma,eta,class,max_residual (17 significant digits)."""
    lines = ["c,lambda,gamma,eta,class,max_residual"]
    for r in rows:
        c, lam, gamma, eta = r.params.astuple()
        lines.append(
            f"{c:.17g},{lam:.17g},{gamma:.17g},{eta:.17g},"
            f"{r.classification.tag.value},{r.max_residual:.17g}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class YangBaxterReport:
    """Max residuals of the three matrix relation families."""

    n_particles: int
    unitarity: float   # Y_i(-u) Y_i(u) = 1
    braid: float       # Y_i(v) Y_{i+1}(u+v) Y_i(u) = Y_{i+1}(u) Y_i(u+v) Y_{i+1}(v)
    commute: float     # [Y_i(u), Y_j(v)] = 0 for |i-j| > 1
    samples: list[tuple[float, float]] = field(default_factory=list)

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


def _finite_sample(u, v, name: str = "sample") -> tuple[float, float]:
    """(u, v) as floats; ValueError naming the sample unless both are finite."""
    u, v = float(u), float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"{name} (u, v) = ({u}, {v}) is not finite")
    return u, v


def yang_baxter_matrix_check(params: CouplingParameters, n: int,
                             samples) -> YangBaxterReport:
    """Residuals of the N!-dimensional Yang-Baxter relations over samples.

    Unitarity, braid and commute act on m = 2, 3, 4 positions.  Where the
    orbit structure holds at each of a relation's position sets, its N!-row
    products repeat the rows of the S_m products, so the relation is formed
    once per sample on the m! x m! identity.  It is inf where the structure
    fails and 0.0 for N < m.  Empty or non-finite samples raise ValueError.
    """
    if not 2 <= n <= 6:
        raise ValueError("matrix check supported for 2 <= N <= 6")
    samples = [_finite_sample(u, v, f"sample {index} (0-based)")
               for index, (u, v) in enumerate(samples)]
    if not samples:
        raise ValueError("need at least one (u, v) sample")
    tables = symmetric_group(n)

    def product(m, *steps):  # Y_{i_L}(w_L) ... Y_{i_1}(w_1) on the S_m identity
        out = np.eye(math.factorial(m), dtype=np.complex128)
        for i, w in steps:
            out = yang_apply(yang_parts(params, m, i, w), out)
        return out

    relations = (
        ([[i - 1, i] for i in range(1, n)],
         lambda u, v: product(2, (1, u), (1, -u)) - product(2)),
        ([[i - 1, i, i + 1] for i in range(1, n - 1)],
         lambda u, v: product(3, (1, u), (2, u + v), (1, v))
         - product(3, (2, v), (1, u + v), (2, u))),
        ([[i - 1, i, j - 1, j] for i in range(1, n) for j in range(i + 2, n)],
         lambda u, v: product(4, (3, v), (1, u)) - product(4, (1, u), (3, v))),
    )
    maxima = []
    for sets, residual in relations:
        holds = all(_orbit_structure_holds(tables, p) for p in sets)
        values = [np.abs(residual(u, v)).max() for u, v in samples] if sets and holds else []
        maxima.append(float(np.max(values, initial=0.0)) if holds else math.inf)
    return YangBaxterReport(n, *maxima, samples=samples)


def block_reduction_check(params: CouplingParameters, n: int, i: int,
                          u: float, v: float) -> float:
    """Max deviation of the 6x6 invariant blocks of Y_i(u), Y_{i+1}(v) from
    the three-particle Y_1(u), Y_2(v).  Both pick their entries from the same
    four amplitudes by ascent flags, so the blocks match exactly when the
    orbit structure at positions i-1, i, i+1 holds: 0.0 then, inf otherwise,
    whatever params, u and v are.  A non-finite u or v raises ValueError.
    """
    if n < 4:
        raise ValueError("block reduction needs N >= 4")
    if not 1 <= i <= n - 2:
        raise ValueError(f"need 1 <= i <= N-2, got i={i}, N={n}")
    _finite_sample(u, v)
    return 0.0 if _orbit_structure_holds(symmetric_group(n), [i - 1, i, i + 1]) else math.inf
