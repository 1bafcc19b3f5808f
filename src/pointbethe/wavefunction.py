"""Position-space evaluation of Bethe-ansatz eigenfunctions.

Configuration space splits into wedges: Delta_Q is the sector where
x_{Q(1)} < ... < x_{Q(N)}.  Inside a wedge the state is the plane-wave sum
held in the coefficient table; on a coincidence hyperplane values are the
average of the adjacent wedge limits and derivative jumps are constrained
by the contact conditions.  ``boundary_residual`` measures exactly those
constraints, with every derivative taken in closed form from the
plane-wave expansion (finite differences could not tell 1e-10 from 1e-3).
Every reader here gathers whole wedge columns A_.(Q), and takes them from
``BetheState.columns``, where each is one contiguous row.

For the lam = 1/c family every eigenfunction is a determinant table,
``determinant_bethe_state``.  In the identity wedge it is the operator
product over pairs j > k of (d/dx_j - d/dx_k + c) applied to the free
determinant det[exp(i k_m x_n)], which expands into the permutation sum

    sum_P sgn(P) prod_{j>k} (i (k_{P(j)} - k_{P(k)}) + c) exp(i k_P . x)

(``determinant_coefficients``); the column signs of the table extend it to
all of space with Bose or Fermi statistics, so ``evaluate`` of the table is
psi anywhere.  The (c, 0, 0, eta) family is instead related to the plain
delta gas by the step phase exp(-i alpha sum_{j<k} step(x_j - x_k)), which
is constant inside each wedge: ``gauge_transformed_state`` scales the
table's columns by it.  The tests compare that table against the pointwise
definition in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
import math
from typing import Literal

import numpy as np

from . import _kernels
from .bethe import BetheState, validate_momenta
from .couplings import CouplingParameters, _residuals, gauge_data
from .errors import OnBoundary, finite_array, nan_to_inf, whole_number
from .permutations import rank_of, symmetric_group

COINCIDENCE_TOL = 1e-12
FD_STEP = 1e-4  # step of schrodinger_fd_residual

Statistics = Literal["boson", "fermion"]


def _tie_orderings(x: np.ndarray) -> np.ndarray:
    """All sorting orders compatible with x, one row per wedge touching x;
    coordinates within COINCIDENCE_TOL of their sorted neighbour tie."""
    order = np.argsort(x, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if x[idx] - x[groups[-1][-1]] <= COINCIDENCE_TOL:
            groups[-1].append(int(idx))
        else:
            groups.append([int(idx)])
    per_group = [itertools.permutations(g) for g in groups]
    return np.array([sum((list(g) for g in combo), [])
                     for combo in itertools.product(*per_group)])


def closest_gap(points) -> np.ndarray:
    """Smallest distance between two coordinates of each point (inf for N = 1)."""
    return np.diff(np.sort(points, axis=-1), axis=-1).min(axis=-1, initial=np.inf)


def evaluate(state: BetheState, x) -> complex:
    """psi(x); on coincidence hyperplanes, the average of wedge limits.

    Raises ValueError unless x holds N finite coordinates.
    """
    x = finite_array(x, "point x", (state.n,))
    orders = _tie_orderings(x)
    waves = _kernels.plane_waves(state.k, state.tables.images, x[orders])
    columns = state.columns[rank_of(orders)]
    return complex(np.mean((columns * waves).sum(axis=1)))


def evaluate_grid(state: BetheState, points) -> np.ndarray:
    """Batched evaluation at generic (tie-free) points via the hot kernel.

    Raises ValueError unless points is an (M, N) array of finite values, and
    OnBoundary for coordinates within COINCIDENCE_TOL (see ``evaluate``).
    """
    points = finite_array(points, "points", (None, state.n))
    ties = closest_gap(points) <= COINCIDENCE_TOL
    if ties.any():
        raise OnBoundary(f"evaluate_grid: point {points[ties.argmax()]} has coordinates "
                         f"within {COINCIDENCE_TOL}")
    return _kernels.eval_grid(points, state.k, state.columns, state.tables.images)


def _pair(n, j, kk) -> tuple[int, int]:
    """The plane x_j = x_kk as whole numbers 1 <= j < kk <= n."""
    j = whole_number(j, "pair index j", 1, n - 1)
    return j, whole_number(kk, "pair index k", j + 1, n)


def boundary_samples(n: int, j: int, kk: int, rng: np.random.Generator,
                     count: int = 50) -> np.ndarray:
    """A (count, N) array of random points on the hyperplane x_j = x_kk in
    the box ``_kernels.BOUNDARY_BOX``, with other coordinates kept more than
    ``_kernels.BOUNDARY_MIN_GAP`` away from the common value and each other.

    The rows and the state ``rng`` is left in are those of a
    draw-and-test loop (``_kernels.uniform_accepted``): the test ignores
    x_kk, which is set to x_j after acceptance.  Raises ValueError for an n,
    pair or count that is not whole and in range, and after
    MAX_DRAWS_PER_SAMPLE * count draws.
    """
    n = whole_number(n, "N", 2)
    j, kk = _pair(n, j, kk)
    count = whole_number(count, "count", 1)
    keep = [a for a in range(n) if a != kk - 1]
    box, min_gap = _kernels.BOUNDARY_BOX, _kernels.BOUNDARY_MIN_GAP
    x = _kernels.uniform_accepted(rng, count, n, box, lambda c: closest_gap(c[:, keep]) > min_gap,
                                  "boundary_samples", f"gaps above min_gap={min_gap}")
    x[:, kk - 1] = x[:, j - 1]  # x_kk repeats x_j
    return x


def boundary_residual(state: BetheState, j: int, kk: int, samples) -> tuple[float, float]:
    """Max residuals of the two contact conditions for the pair (j, kk).

    ``samples`` has shape (M, N), M >= 1, and each sample must lie on
    x_j = x_kk with the remaining coordinates away from the common value;
    anything else raises ValueError.  Limits from the two adjacent wedges
    and their relative derivatives are evaluated analytically and combined
    with the averaged-value regularization, for all samples at once: each
    sample reads two contiguous wedge rows of ``state.columns``, its
    C-contiguous plane waves and the relative momenta of its crossing site.
    """
    j, kk = _pair(state.n, j, kk)
    x = finite_array(samples, "samples", (None, state.n),
                     empty="need at least one sample on the plane")
    off = np.abs(x[:, j - 1] - x[:, kk - 1]) > COINCIDENCE_TOL
    if off.any():
        raise ValueError(f"sample {x[off.argmax()]} is not a point on x_{j} = x_{kk}")
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
    k_at = state.k[tables.images.T]  # k_at[i, p] = k_{P(i+1)}
    du = (1j * (k_at[:-1] - k_at[1:]))[site]

    # below the boundary (x_j = x_kk - 0+) the state is the wedge-Q sum;
    # above it the wedge-QT_i sum; at coincidence the exponents agree.
    # The gathered rows are fresh copies, so the products run in place.
    # past the float range the sums read inf or NaN and the residuals inf
    # (nan_to_inf below, so the residuals skip contact_residuals' own
    # guard); the np.errstate is this call's, also on a ``thread_map`` worker
    with np.errstate(over="ignore", invalid="ignore"):
        below = state.columns[q_idx]
        below *= waves
        v_minus = below.sum(axis=1)
        below *= du
        d_minus = below.sum(axis=1)
        above = state.columns[qt_idx]
        above *= waves
        v_plus = above.sum(axis=1)
        above *= du
        d_plus = -above.sum(axis=1)
        r1, r2 = _residuals(state.params, v_minus, d_minus, v_plus, d_plus)
    # hypot gives the bits of the scalar abs(); np.abs on complex arrays
    # can differ from it in the last place
    return (nan_to_inf(np.hypot(r1.real, r1.imag).max()),
            nan_to_inf(np.hypot(r2.real, r2.imag).max()))


def determinant_coefficients(k, c: float) -> np.ndarray:
    """Expansion coefficients of the determinant eigenfunction, rank order.

    Coefficient of exp(i k_P . x) is sgn(P) prod_{j>k} (i(k_{P(j)} - k_{P(k)}) + c).
    A non-finite c, or a coefficient past the float range, raises ValueError.
    """
    k = validate_momenta(k)
    c = float(finite_array(c, "determinant coupling c"))
    tables = symmetric_group(k.size)
    k_at = k[tables.images]  # k_at[p, j] = k_{P(j+1)}
    out = tables.signs.astype(np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # huge inputs read inf or NaN
        for jj in range(k.size):
            for kk in range(jj):
                out *= 1j * (k_at[:, jj] - k_at[:, kk]) + c
    if not np.isfinite(out).all():
        raise ValueError(f"determinant coefficients at momenta {k.tolist()} and c = {c} "
                         "are not finite")
    return out


def determinant_bethe_state(k, c: float, statistics: Statistics) -> BetheState:
    """The determinant eigenfunction as a full coefficient table.

    Every column equals the determinant coefficients up to the statistics
    sign of the wedge: A_P(Q) = sigma(Q) coeff(P) with sigma = 1 for bosons
    and sgn(Q) for fermions (Girardeau's Bose/Fermi mapping).  So psi is
    even or odd under an exchange, and the fermion psi is 0 at a tie.
    """
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"unknown statistics {statistics!r}")
    coeff = determinant_coefficients(k, c)  # refuses bad momenta and a non-finite c
    c = float(c)  # lambda = 1/c in float64
    # 1/c overflows for a tiny c; float division then gives inf without numpy's warning
    if c == 0 or not math.isfinite(1.0 / c):
        raise ValueError(f"determinant coupling c = {c} has no finite lambda = 1/c")
    tables = symmetric_group(np.size(k))
    sigma = np.ones(tables.order) if statistics == "boson" else tables.signs.astype(float)
    table = np.multiply(coeff[:, np.newaxis], sigma[np.newaxis, :], order="F")
    table.flags.writeable = False
    params = CouplingParameters(c=c, lam=1.0 / c)
    return BetheState(params=params, k=k, table=table)


def gauge_transformed_state(state: BetheState) -> BetheState:
    """The gauge-mapped state as a delta-gas Bethe state with c~ = c/(1+eta^2).

    The step phase is constant inside each wedge and equals
    exp(-i alpha inv(Q)), so the transformed table is column-scaled.
    """
    gd = gauge_data(state.params)
    table = state.table * np.exp(-1j * gd.alpha * state.tables.inversion_counts)
    table.flags.writeable = False
    return BetheState(params=CouplingParameters(c=gd.c_tilde), k=state.k, table=table)


def schrodinger_fd_residual(state: BetheState, points) -> np.ndarray:
    """|FD Laplacian psi + E psi| at each interior point of an (M, N)
    batch, with step FD_STEP (an O(FD_STEP^2) check); inf at a point where
    it cannot be formed in floating point.

    The 2N + 1 stencil points of all rows go through one ``evaluate_grid``
    call, which evaluates each row alone.  Raises ValueError unless points
    is an (M, N) array of finite values, and OnBoundary when two
    coordinates of a point are within FD_STEP: the stencil would then
    reach across a coincidence plane, where psi has a derivative jump.
    """
    n = state.n
    points = finite_array(points, "points", (None, n))
    near = closest_gap(points) <= FD_STEP
    if near.any():
        raise OnBoundary(f"coordinates of {points[near.argmax()]} lie within the "
                         f"finite-difference step h={FD_STEP}")
    steps = FD_STEP * np.eye(n)
    stencils = np.concatenate([points[:, np.newaxis], points[:, np.newaxis] + steps,
                               points[:, np.newaxis] - steps], axis=1)
    vals = evaluate_grid(state, stencils.reshape(-1, n)).reshape(len(points), 2 * n + 1)
    center, plus, minus = vals[:, 0], vals[:, 1:n + 1], vals[:, n + 1:]
    with np.errstate(over="ignore", invalid="ignore"):  # huge momenta read inf
        lap = np.sum((plus - 2 * center[:, np.newaxis] + minus) / FD_STEP**2, axis=1)
        z = lap + state.energy * center
        # hypot gives the bits of the scalar abs()
        residual = np.hypot(z.real, z.imag)
    residual[np.isnan(residual)] = np.inf  # an inf energy times psi = 0: not formed
    return residual
