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
6x6 invariant blocks to the three-particle matrices are checked by
``yang_baxter_matrix_check`` and ``block_reduction_check``, both on
identities packed onto the orbits of the transpositions involved.
"""

from __future__ import annotations

import itertools
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
        return max(self.unitarity, self.braid, self.commute)


def _orbit_identity(tables, positions):
    """The identity packed onto the orbits of the transpositions at the
    0-based ``positions``, and its column labels: orbit members differ only
    in the S_m rank ``labels[Q]`` of their pattern there, and row Q of the
    (N!, m!) result is 1 at column ``labels[Q]`` (m = len(positions))."""
    group = symmetric_group(len(positions))
    labels = rank_of(group.lehmer_to_index, tables.images[:, positions])
    eye = np.zeros((tables.order, group.order), dtype=np.complex128)
    eye[np.arange(tables.order), labels] = 1.0
    return eye, labels


def yang_baxter_matrix_check(params: CouplingParameters, n: int,
                             samples) -> YangBaxterReport:
    """Residuals of the N!-dimensional Yang-Baxter relations over samples.

    The Y_i of a relation map the orbits of its transpositions to themselves,
    so its products are formed on the identity packed onto those orbits, at
    most (N!, 24): the nonzero entries of the dense products, bit for bit.
    """
    if not 2 <= n <= 6:
        raise ValueError("matrix check supported for 2 <= N <= 6")
    samples = [(float(u), float(v)) for u, v in samples]
    tables = symmetric_group(n)

    def y(i, w):
        return yang_parts(params, n, i, w)

    unitarity = braid = commute = 0.0
    for i in range(1, n):
        eye = _orbit_identity(tables, [i - 1, i])[0]
        for u, v in samples:
            prod = yang_apply(y(i, -u), yang_apply(y(i, u), eye))
            unitarity = max(unitarity, float(np.abs(prod - eye).max()))
    for i in range(1, n - 1):
        eye = _orbit_identity(tables, [i - 1, i, i + 1])[0]
        for u, v in samples:
            lhs = yang_apply(y(i, v), yang_apply(y(i + 1, u + v), yang_apply(y(i, u), eye)))
            rhs = yang_apply(y(i + 1, u), yang_apply(y(i, u + v), yang_apply(y(i + 1, v), eye)))
            braid = max(braid, float(np.abs(lhs - rhs).max()))
    for i in range(1, n):
        for j in range(i + 2, n):
            eye = _orbit_identity(tables, [i - 1, i, j - 1, j])[0]
            for u, v in samples:
                a, b = y(i, u), y(j, v)
                commute = max(commute, float(np.abs(yang_apply(a, yang_apply(b, eye))
                                                    - yang_apply(b, yang_apply(a, eye))).max()))
    return YangBaxterReport(n_particles=n, unitarity=unitarity, braid=braid,
                            commute=commute, samples=samples)


def block_reduction_check(params: CouplingParameters, n: int, i: int,
                          u: float, v: float) -> float:
    """Max deviation of the 6x6 invariant blocks of Y_i, Y_{i+1} from the
    three-particle matrices Y_1(u), Y_2(v).

    The orbit of any wedge Q under right multiplication by T_i, T_{i+1}
    has six elements; listed from its largest element Q' in the order
    Q', Q'T_i, Q'T_{i+1}, Q'T_{i+1}T_i, Q'T_iT_{i+1}, Q'T_iT_{i+1}T_i the
    restriction of Y_i (resp. Y_{i+1}) to the orbit must reproduce the
    N = 3 matrix at site 1 (resp. 2) entry for entry.  That order is the
    order of the orbit labels, so packed row Q must equal N = 3 row labels[Q].
    """
    if n < 4:
        raise ValueError("block reduction needs N >= 4")
    if not 1 <= i <= n - 2:
        raise ValueError(f"need 1 <= i <= N-2, got i={i}, N={n}")
    eye, labels = _orbit_identity(symmetric_group(n), [i - 1, i, i + 1])
    deviation = 0.0
    for site, ref_site, w in ((i, 1, u), (i + 1, 2, v)):
        block = yang_apply(yang_parts(params, n, site, w), eye)
        ref = yang_apply(yang_parts(params, 3, ref_site, w), np.eye(6, dtype=np.complex128))
        deviation = max(deviation, float(np.abs(block - ref[labels]).max()))
    return deviation
