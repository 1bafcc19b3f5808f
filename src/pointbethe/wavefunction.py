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
from .couplings import CouplingParameters, gauge_data
from .errors import NotGaugeFamily, OnBoundary, WrongWedge
from .permutations import Permutation, symmetric_group

COINCIDENCE_TOL = 1e-12

Statistics = Literal["boson", "fermion"]


@dataclass(frozen=True)
class Wedge:
    """Ordering sector: the permutation Q with x_{Q(1)} < ... < x_{Q(N)}."""

    ordering: Permutation


def locate_wedge(x, tol: float = COINCIDENCE_TOL) -> Wedge:
    """Wedge containing x; raises OnBoundary when two coordinates coincide."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    if np.any(np.diff(xs) <= tol):
        raise OnBoundary(f"coordinates {x} coincide within {tol}")
    return Wedge(ordering=Permutation(tuple(int(v) + 1 for v in order)))


def _tie_orderings(x: np.ndarray, tol: float):
    """All sorting orders compatible with x, one per wedge touching x."""
    order = np.argsort(x, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if x[idx] - x[groups[-1][-1]] <= tol:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    per_group = [itertools.permutations(g) for g in groups]
    return [sum((list(g) for g in combo), []) for combo in itertools.product(*per_group)]


def _eval_in_wedge(state: BetheState, x: np.ndarray, order0: list[int]) -> complex:
    tables = state.tables
    q_idx = tables.index[tuple(v + 1 for v in order0)]
    xq = x[order0]
    phases = (state.k[tables.images] * xq[np.newaxis, :]).sum(axis=1)
    return complex(np.sum(state.table[:, q_idx] * np.exp(1j * phases)))


def evaluate(state: BetheState, x) -> complex:
    """psi(x); on coincidence hyperplanes, the average of wedge limits."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (state.n,):
        raise ValueError(f"need {state.n} coordinates, got shape {x.shape}")
    orderings = _tie_orderings(x, COINCIDENCE_TOL)
    vals = [_eval_in_wedge(state, x, o) for o in orderings]
    return complex(np.mean(vals))


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
    ties = (np.diff(np.sort(points, axis=1), axis=1) <= COINCIDENCE_TOL).any(axis=1)
    if ties.any():
        raise OnBoundary(f"evaluate_grid: point {points[ties.argmax()]} has coordinates "
                         f"within {COINCIDENCE_TOL}")
    tables = state.tables
    return _kernels.eval_grid(points, state.k, state.table,
                              tables.images, tables.lehmer_to_index)


def boundary_samples(n: int, j: int, kk: int, rng: np.random.Generator,
                     count: int = 50, box: float = 3.0, min_gap: float = 0.2) -> list[np.ndarray]:
    """Random points on the hyperplane x_j = x_kk with other coordinates
    generic (kept min_gap away from the common value and each other).

    Raises ValueError after MAX_DRAWS_PER_SAMPLE * count draws.
    """
    out = []
    draws = 0
    while len(out) < count:
        if draws == _kernels.MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"boundary_samples: {draws} draws in [-box, box]^{n} with box={box} gave "
                f"only {len(out)} of {count} points with gaps above min_gap={min_gap}"
            )
        draws += 1
        x = rng.uniform(-box, box, n)
        x[kk - 1] = x[j - 1]
        gaps = [abs(x[a] - x[b]) for a in range(n) for b in range(a + 1, n)
                if (a + 1, b + 1) != (j, kk)]
        if not gaps or min(gaps) > min_gap:
            out.append(x)
    return out


def boundary_residual(state: BetheState, j: int, kk: int, samples) -> tuple[float, float]:
    """Max residuals of the two contact conditions for the pair (j, kk).

    Each sample must lie on x_j = x_kk with the remaining coordinates away
    from the common value.  Limits from the two adjacent wedges and their
    relative derivatives are evaluated analytically and combined with the
    averaged-value regularization.
    """
    if not 1 <= j < kk <= state.n:
        raise ValueError(f"need 1 <= j < k <= N, got ({j}, {kk})")
    c, lam, gamma, eta = state.params.astuple()
    tables = state.tables
    k = state.k
    r1_max = r2_max = 0.0
    for x in samples:
        x = np.asarray(x, dtype=np.float64)
        if abs(x[j - 1] - x[kk - 1]) > COINCIDENCE_TOL:
            raise ValueError(f"sample {x} is not on the boundary x_{j} = x_{kk}")
        others = [a for a in range(1, state.n + 1) if a not in (j, kk)]
        t = x[j - 1]
        if any(abs(x[a - 1] - t) <= COINCIDENCE_TOL for a in others):
            raise OnBoundary(f"third coordinate collides with the pair in {x}")
        for a in others:
            for b in others:
                if a < b and abs(x[a - 1] - x[b - 1]) <= COINCIDENCE_TOL:
                    raise OnBoundary(f"sample {x} sits on a second coincidence plane")
        others.sort(key=lambda a: x[a - 1])
        pos = sum(1 for a in others if x[a - 1] < t)
        ordering = others[:pos] + [j, kk] + others[pos:]
        i = pos + 1  # 1-based slot of particle j inside the ordering
        q_idx = tables.index[tuple(ordering)]
        qt_idx = tables.tmaps[i - 1][q_idx]

        xq = x[np.array(ordering) - 1]
        phases = (k[tables.images] * xq[np.newaxis, :]).sum(axis=1)
        waves = np.exp(1j * phases)
        # relative momentum factor i(k_{P(i)} - k_{P(i+1)}) per row P
        du = 1j * (k[tables.images[:, i - 1]] - k[tables.images[:, i]])

        # below the boundary (x_j = x_kk - 0+) the state is the wedge-Q sum;
        # above it the wedge-QT_i sum; at coincidence the exponents agree
        v_minus = np.sum(state.table[:, q_idx] * waves)
        d_minus = np.sum(state.table[:, q_idx] * waves * du)
        v_plus = np.sum(state.table[:, qt_idx] * waves)
        d_plus = np.sum(state.table[:, qt_idx] * waves * (-du))

        v_avg = 0.5 * (v_plus + v_minus)
        d_avg = 0.5 * (d_plus + d_minus)
        r1 = (d_plus - d_minus) - 2 * c * v_avg + 2 * (gamma - 1j * eta) * d_avg
        r2 = (v_plus - v_minus) - 2 * lam * d_avg - 2 * (gamma + 1j * eta) * v_avg
        r1_max = max(r1_max, abs(r1))
        r2_max = max(r2_max, abs(r2))
    return r1_max, r2_max


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
    constant fixed to 1.  Requires x strictly inside x_1 < ... < x_N.
    """
    k = validate_momenta(k)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != k.shape:
        raise ValueError("x and k must have the same length")
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
    and fermions vanish (the two adjacent limits differ by a sign).
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


def _inversion_phase_exponent(x: np.ndarray) -> float:
    """Sum over pairs j < k of the unit step of x_j - x_k, with step(0) = 1/2."""
    n = x.size
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            d = x[a] - x[b]
            if abs(d) <= COINCIDENCE_TOL:
                total += 0.5
            elif d > 0:
                total += 1.0
    return total


def gauge_map(state: BetheState, x) -> complex:
    """Step-phase image of psi(x), mapping (c, 0, 0, eta) to the delta gas.

    Multiplies the state value by exp(-i alpha sum_{j<k} step(x_j - x_k))
    where exp(i alpha) = (1 + i eta)/(1 - i eta).  Raises NotGaugeFamily
    unless lam = gamma = 0.
    """
    gd = gauge_data(state.params)  # raises NotGaugeFamily outside the family
    x = np.asarray(x, dtype=np.float64)
    phase = np.exp(-1j * gd.alpha * _inversion_phase_exponent(x))
    return complex(evaluate(state, x) * phase)


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


def schrodinger_fd_residual(state: BetheState, x, h: float = 1e-4) -> float:
    """|FD Laplacian psi + E psi| at an interior point (O(h^2) check)."""
    x = np.asarray(x, dtype=np.float64)
    lap = 0.0 + 0.0j
    center = evaluate(state, x)
    for jj in range(state.n):
        step = np.zeros_like(x)
        step[jj] = h
        lap += (evaluate(state, x + step) - 2 * center + evaluate(state, x - step)) / h**2
    return abs(lap + state.energy * center)
