"""Position-space evaluation of Bethe-ansatz eigenfunctions.

Configuration space splits into wedges: Delta_Q is the sector where
x_{Q(1)} < ... < x_{Q(N)}.  Inside a wedge the state is the plane-wave sum
held in the coefficient table; on a coincidence hyperplane values are the
average of the adjacent wedge limits and derivative jumps are constrained
by the contact conditions.  ``boundary_residual`` measures exactly those
constraints, with every derivative taken in closed form from the
plane-wave expansion (finite differences could not tell 1e-10 from 1e-3).

For the lam = 1/c family the identity-wedge eigenfunctions have the
determinant form evaluated by ``determinant_eigenfunction``: the operator
product over pairs j > k of (d/dx_j - d/dx_k + c) applied to the free
determinant det[exp(i k_m x_n)], which expands into the permutation sum

    sum_P sgn(P) prod_{j>k} (i (k_{P(j)} - k_{P(k)}) + c) exp(i k_P . x).

Because that family is permutation invariant, a choice of exchange
statistics extends the identity-wedge function to all of space
(``extend_by_statistics``).  The (c, 0, 0, eta) family is instead related
to the plain delta gas by a step-function phase (``gauge_map``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import _kernels
from .bethe import BetheState, validate_momenta
from .couplings import CouplingParameters, contact_residuals, gauge_data
from .errors import NotGaugeFamily, OnBoundary, WrongWedge
from .permutations import Permutation, rank_of, symmetric_group

COINCIDENCE_TOL = 1e-12
FD_STEP = 1e-4  # default step of schrodinger_fd_residual

Statistics = Literal["boson", "fermion"]


@dataclass(frozen=True)
class Wedge:
    """Ordering sector: the permutation Q with x_{Q(1)} < ... < x_{Q(N)}."""

    ordering: Permutation


def locate_wedge(x, tol: float = COINCIDENCE_TOL) -> Wedge:
    """Wedge containing x; OnBoundary on a tie, ValueError on a non-finite coordinate."""
    x = _single_point(x)
    if closest_gap(x) <= tol:
        raise OnBoundary(f"coordinates {x} coincide within {tol}")
    order = np.argsort(x, kind="stable")
    return Wedge(ordering=Permutation(tuple(int(v) + 1 for v in order)))


def _tie_orderings(x: np.ndarray, tol: float) -> np.ndarray:
    """All sorting orders compatible with x, one row per wedge touching x."""
    order = np.argsort(x, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if x[idx] - x[groups[-1][-1]] <= tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    per_group = [itertools.permutations(g) for g in groups]
    return np.array([sum((list(g) for g in combo), [])
                     for combo in itertools.product(*per_group)])


def closest_gap(points) -> np.ndarray:
    """Smallest distance between two coordinates of each point (inf for N = 1)."""
    return np.diff(np.sort(points, axis=-1), axis=-1).min(axis=-1, initial=np.inf)


def _single_point(x, n: int | None = None) -> np.ndarray:
    """x as a float array of finite coordinates, n of them if n is given;
    ValueError naming the bad shape or the non-finite coordinates."""
    x = np.asarray(x, dtype=np.float64)
    if n is not None and x.shape != (n,):
        raise ValueError(f"need {n} coordinates, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise ValueError(f"x = {x} has non-finite coordinates at 0-based indices {bad.tolist()}")
    return x


def evaluate(state: BetheState, x) -> complex:
    """psi(x); on coincidence hyperplanes, the average of wedge limits.

    Raises ValueError unless x holds N finite coordinates.
    """
    x = _single_point(x, state.n)
    orders = _tie_orderings(x, COINCIDENCE_TOL)
    waves = _kernels.plane_waves(state.k, state.tables.images, x[orders])
    columns = state.table.T[rank_of(orders)]
    return complex(np.mean((columns * waves).sum(axis=1)))


def evaluate_grid(state: BetheState, points) -> np.ndarray:
    """Batched evaluation at generic (tie-free) points via the hot kernel.

    Raises ValueError for non-finite coordinates and OnBoundary for a point
    with two coordinates within COINCIDENCE_TOL; ``evaluate`` handles those.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != state.n:
        raise ValueError(f"need points of shape (M, {state.n}), got {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("evaluate_grid: points hold non-finite coordinates")
    ties = closest_gap(points) <= COINCIDENCE_TOL
    if ties.any():
        raise OnBoundary(f"evaluate_grid: point {points[ties.argmax()]} has coordinates "
                         f"within {COINCIDENCE_TOL}")
    return _kernels.eval_grid(points, state.k, state.table, state.tables.images)


def boundary_samples(n: int, j: int, kk: int, rng: np.random.Generator,
                     count: int = 50, box: float = 3.0, min_gap: float = 0.2) -> list[np.ndarray]:
    """Random points on the hyperplane x_j = x_kk with other coordinates
    generic (kept min_gap away from the common value and each other).

    Candidates are drawn ``count`` at a time; ``rng`` is left as if they
    had been drawn one by one up to the last accepted one, so the samples
    and the generator state match a draw-and-test loop.  Raises
    ValueError unless 1 <= j < kk <= n, and after MAX_DRAWS_PER_SAMPLE * count draws.
    """
    if not 1 <= j < kk <= n:
        raise ValueError(f"need 1 <= j < k <= N, got ({j}, {kk})")
    out = []
    draws = 0
    keep = [a for a in range(n) if a != kk - 1]  # x_kk repeats x_j
    while len(out) < count:
        if draws == _kernels.MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"boundary_samples: {draws} draws in [-box, box]^{n} with box={box} gave "
                f"only {len(out)} of {count} points with gaps above min_gap={min_gap}"
            )
        before = rng.bit_generator.state
        x = rng.uniform(-box, box, (count, n))
        x[:, kk - 1] = x[:, j - 1]
        good = np.flatnonzero(closest_gap(x[:, keep]) > min_gap)[:count - len(out)]
        draws += count
        if len(out) + len(good) == count:
            # rewind and redraw only the rows up to the last one used
            rng.bit_generator.state = before
            rng.uniform(-box, box, (good[-1] + 1, n))
        out.extend(x[good])
    return out


def boundary_residual(state: BetheState, j: int, kk: int, samples) -> tuple[float, float]:
    """Max residuals of the two contact conditions for the pair (j, kk).

    Each sample must lie on x_j = x_kk with the remaining coordinates away
    from the common value.  Limits from the two adjacent wedges and their
    relative derivatives are evaluated analytically and combined with the
    averaged-value regularization, for all samples at once.
    """
    n = state.n
    if not 1 <= j < kk <= n:
        raise ValueError(f"need 1 <= j < k <= N, got ({j}, {kk})")
    if len(samples) == 0:
        raise ValueError("need at least one sample on the plane")
    x = np.asarray(samples, dtype=np.float64).reshape(len(samples), n)
    off = ~np.isfinite(x).all(axis=1) | (np.abs(x[:, j - 1] - x[:, kk - 1]) > COINCIDENCE_TOL)
    if off.any():
        raise ValueError(f"sample {x[off.argmax()]} is not a finite point on x_{j} = x_{kk}")
    # with x_kk dropped, any remaining tie is a third collision or a second plane
    ties = closest_gap(np.delete(x, kk - 1, axis=1)) <= COINCIDENCE_TOL
    if ties.any():
        raise OnBoundary(f"sample {x[ties.argmax()]} sits on a second coincidence plane")

    tables = state.tables
    # wedge Q just below the plane: x_kk pinned to x_j, so the stable sort
    # puts j directly before kk; slot i of j is the site of the crossing
    pinned = x.copy()
    pinned[:, kk - 1] = x[:, j - 1]
    order = np.argsort(pinned, axis=1, kind="stable")
    site = (order == j - 1).argmax(axis=1)  # i - 1
    q_idx = rank_of(order)
    qt_idx = tables.tmaps[site, q_idx]

    waves = _kernels.plane_waves(state.k, tables.images, np.take_along_axis(x, order, axis=1))
    # relative momentum factor i(k_{P(i)} - k_{P(i+1)}) per sample and row P
    k_p = state.k[tables.images]
    du = 1j * (k_p[:, site] - k_p[:, site + 1]).T

    # below the boundary (x_j = x_kk - 0+) the state is the wedge-Q sum;
    # above it the wedge-QT_i sum; at coincidence the exponents agree
    below = state.table.T[q_idx] * waves
    above = state.table.T[qt_idx] * waves
    v_minus = below.sum(axis=1)
    d_minus = (below * du).sum(axis=1)
    v_plus = above.sum(axis=1)
    d_plus = (above * (-du)).sum(axis=1)

    r1, r2 = contact_residuals(state.params, v_minus, d_minus, v_plus, d_plus)
    # hypot gives the bits of the scalar abs(); np.abs on complex arrays
    # can differ from it in the last place
    return float(np.hypot(r1.real, r1.imag).max()), float(np.hypot(r2.real, r2.imag).max())


def determinant_coefficients(k, c: float) -> np.ndarray:
    """Expansion coefficients of the determinant eigenfunction, rank order.

    Coefficient of exp(i k_P . x) is sgn(P) prod_{j>k} (i(k_{P(j)} - k_{P(k)}) + c).
    """
    k = validate_momenta(k)
    tables = symmetric_group(k.size)
    out = np.empty(tables.order, dtype=np.complex128)
    for p_idx in range(tables.order):
        img = tables.images[p_idx]
        val = complex(tables.signs[p_idx])
        for jj in range(k.size):
            for kk in range(jj):
                val *= 1j * (k[img[jj]] - k[img[kk]]) + c
        out[p_idx] = val
    return out


def determinant_eigenfunction(k, c: float, x) -> complex:
    """Identity-wedge eigenfunction of the (c, 1/c, 0, 0) model.

    Evaluates the pair-operator product applied to det[exp(i k_m x_n)]
    through its closed-form permutation expansion, with the normalization
    constant fixed to 1.  Requires finite x strictly inside x_1 < ... < x_N.
    """
    k = validate_momenta(k)
    x = _single_point(x, k.size)
    if np.any(np.diff(x) <= 0):
        raise WrongWedge(f"{x} is not strictly increasing")
    tables = symmetric_group(k.size)
    coeff = determinant_coefficients(k, c)
    phases = (k[tables.images] * x[np.newaxis, :]).sum(axis=1)
    return complex(np.sum(coeff * np.exp(1j * phases)))


def determinant_bethe_state(k, c: float, statistics: Statistics) -> BetheState:
    """The determinant eigenfunction as a full coefficient table.

    Every column equals the determinant coefficients up to the statistics
    sign of the wedge: A_P(Q) = sigma(Q) coeff(P) with sigma = 1 for bosons
    and sgn(Q) for fermions.
    """
    k = validate_momenta(k)
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"unknown statistics {statistics!r}")
    if c == 0:
        raise ValueError("determinant_bethe_state: c = 0 has no lambda = 1/c")
    tables = symmetric_group(k.size)
    coeff = determinant_coefficients(k, c)
    sigma = np.ones(tables.order) if statistics == "boson" else tables.signs.astype(float)
    table = coeff[:, np.newaxis] * sigma[np.newaxis, :]
    params = CouplingParameters(c=c, lam=1.0 / c)
    return BetheState(params=params, k=k, table=table)


def extend_by_statistics(psi_identity: Callable[[np.ndarray], complex],
                         statistics: Statistics, x) -> complex:
    """Extend an identity-wedge function to all of space by statistics.

    psi(x) = sigma(Q) psi_identity(sorted x) with sigma = 1 for bosons and
    sgn(Q) for fermions.  At coincidence points bosons continue smoothly
    and fermions vanish (the two adjacent limits differ by a sign).  A
    non-finite coordinate raises ValueError (through ``locate_wedge``).
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"unknown statistics {statistics!r}")
    x = np.asarray(x, dtype=np.float64)
    try:
        wedge = locate_wedge(x)
    except OnBoundary:
        if statistics == "fermion":
            return 0.0 + 0.0j
        order = np.argsort(x, kind="stable")
        return complex(psi_identity(x[order]))
    order0 = np.array(wedge.ordering.images) - 1
    sigma = 1.0 if statistics == "boson" else float(wedge.ordering.sign)
    return complex(sigma * psi_identity(x[order0]))


def gauge_map(state: BetheState, x) -> complex:
    """Step-phase image of psi(x), mapping (c, 0, 0, eta) to the delta gas.

    Multiplies the state value by exp(-i alpha sum_{j<k} step(x_j - x_k))
    where exp(i alpha) = (1 + i eta)/(1 - i eta).  Raises NotGaugeFamily
    unless lam = gamma = 0, and ValueError unless x holds N finite coordinates.
    """
    gd = gauge_data(state.params)  # raises NotGaugeFamily outside the family
    x = _single_point(x, state.n)
    # the step sum is inv(Q) inside wedge Q; averaged over the wedges that
    # touch x, each tied pair contributes step(0) = 1/2
    orders = _tie_orderings(x, COINCIDENCE_TOL)
    steps = state.tables.inversion_counts[rank_of(orders)].mean()
    return complex(evaluate(state, x) * np.exp(-1j * gd.alpha * steps))


def gauge_transformed_state(state: BetheState) -> BetheState:
    """The gauge-mapped state as a delta-gas Bethe state with c~ = c/(1+eta^2).

    The step phase is constant inside each wedge and equals
    exp(-i alpha inv(Q)), so the transformed table is column-scaled.
    """
    gd = gauge_data(state.params)
    tables = state.tables
    col_phase = np.exp(-1j * gd.alpha * tables.inversion_counts)
    return BetheState(
        params=CouplingParameters(c=gd.c_tilde),
        k=state.k,
        table=state.table * col_phase[np.newaxis, :],
    )


def schrodinger_fd_residual(state: BetheState, x, h: float = FD_STEP) -> float:
    """|FD Laplacian psi + E psi| at an interior point (O(h^2) check).

    Raises ValueError unless h is finite and positive, and OnBoundary when
    two coordinates are within h: the stencil would then reach across a
    coincidence plane, where psi has a derivative jump.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step h={h} must be finite and > 0")
    x = np.asarray(x, dtype=np.float64)
    if closest_gap(x) <= h:
        raise OnBoundary(f"coordinates of {x} lie within the finite-difference step h={h}")
    steps = h * np.eye(state.n)
    vals = evaluate_grid(state, np.vstack([x, x + steps, x - steps]))
    center, plus, minus = vals[0], vals[1:state.n + 1], vals[state.n + 1:]
    lap = np.sum((plus - 2 * center + minus) / h**2)
    return abs(lap + state.energy * center)
