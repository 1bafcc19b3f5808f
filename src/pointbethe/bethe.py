"""Coefficient propagation for the coordinate Bethe ansatz.

An N-particle scattering state is, inside the wedge where the coordinates
are ordered by Q, a sum of plane waves over all momentum assignments P,

    psi(x) = sum_P A_P(Q) exp(i sum_j k_{P(j)} x_{Q(j)}),

so the full state is the table A_P(Q) of N! x N! complex coefficients.
Rows are indexed by P and columns by Q, both in the rank order of
``permutations``.  The contact conditions tie the four coefficients
A_P(Q), A_P(Q T_i), A_{P T_i}(Q), A_{P T_i}(Q T_i) together whenever
Q(i) < Q(i+1):

    A_{P T_i}(Q)     = S_R^+(u) A_P(Q)     + S_T^-(u) A_P(Q T_i)
    A_{P T_i}(Q T_i) = S_R^-(u) A_P(Q T_i) + S_T^+(u) A_P(Q)

with u = k_{P(i)} - k_{P(i+1)}.  Packing the Q index into a vector A_P
turns this into A_{P T_i} = Y_i(u) A_P where Y_i(u) has exactly two
entries per row.  ``propagate`` walks a transposition word for P applying
one Y step at a time, tracking the partial product so each step uses the
momentum difference seen by the particles actually being exchanged.  The
result is word-independent exactly for the integrable coupling families;
for N >= 3 and other couplings ``propagate`` refuses rather than return
an answer that depends on bookkeeping.

``coefficients_bc_oracle`` is the brute-force cross-check: it stacks the
contact conditions into one linear system over all N!^2 unknowns, pins
the A_P(identity wedge) column, and solves by least squares.  It and
``state_relation_residual`` take the conditions from ``_site_contact``
and state each once, as (P, Q) and (P T_i, Q) give the same two
equations: the oracle has (N-1) N!^2 / 2 homogeneous rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .couplings import CouplingParameters, contact_residuals, integrable_family
from .errors import NotIntegrable
from .permutations import Permutation, SymmetricGroupTables, decompose, symmetric_group
from .scattering import amplitudes

MIN_MOMENTUM_GAP = 1e-12
INTEGRABILITY_TOL = 1e-9


def validate_momenta(k) -> np.ndarray:
    """Momenta as a float array; requires finite entries with pairwise gaps above 1e-12."""
    k = np.atleast_1d(np.asarray(k, dtype=np.float64))
    if k.ndim != 1 or k.size < 1:
        raise ValueError("momenta must be a 1D array with at least one entry")
    bad = np.flatnonzero(~np.isfinite(k))
    if bad.size:
        raise ValueError(f"momenta {k} are non-finite at 0-based indices {bad.tolist()}")
    n = k.size
    for a in range(n):
        for b in range(a + 1, n):
            if abs(k[a] - k[b]) <= MIN_MOMENTUM_GAP:
                raise ValueError(f"momenta k[{a}]={k[a]} and k[{b}]={k[b]} coincide")
    return k


def _coefficient_vector(a, order: int, name: str = "coefficient vector") -> np.ndarray:
    """A copy of a as a complex vector of ``order`` finite entries, else a ValueError."""
    a = np.array(a, dtype=np.complex128)
    if a.shape != (order,):
        raise ValueError(f"{name} must have length {order}")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"{name} is non-finite at 0-based indices {bad.tolist()}")
    return a


@dataclass(frozen=True)
class YangMatrix:
    """Dense N! x N! single-step propagation matrix Y_i(u)."""

    n_particles: int
    site: int
    u: float
    matrix: np.ndarray


def yang_parts(params: CouplingParameters, n: int, i: int, u: float):
    """Sparse form of Y_i(u): (diagonal, off-diagonal, column map).

    Row Q holds ``diag[q]`` at column Q and ``off[q]`` at column
    ``tmap[q]`` = rank index of Q T_i; all other entries vanish.  Apply it
    with ``_kernels.yang_apply``.
    """
    if not 1 <= i < n:
        raise ValueError(f"site {i} out of range for N={n}")
    amp = amplitudes(params, u)
    return _kernels.step_parts(symmetric_group(n), i - 1, amp.s_r_plus, amp.s_r_minus,
                               amp.s_t_plus, amp.s_t_minus)


def build_yang_matrix(params: CouplingParameters, n: int, i: int, u: float) -> YangMatrix:
    """Y_i(u) built directly from the pairwise coefficient relations.

    Row Q carries S_R^+(u) on the diagonal and S_T^-(u) at column Q T_i
    when Q(i) < Q(i+1), and S_R^-(u) / S_T^+(u) otherwise.
    """
    diag, off, tmap = yang_parts(params, n, i, u)
    order = diag.shape[0]
    mat = np.zeros((order, order), dtype=np.complex128)
    rows = np.arange(order)
    mat[rows, rows] = diag
    mat[rows, tmap] = off
    return YangMatrix(n_particles=n, site=i, u=float(u), matrix=mat)


def build_s_diagonals_periodic(params: CouplingParameters, n: int, i: int, u: float):
    """The diagonals of S_R^i and S_T^i from their closed index pattern.

    Within each period of length (i+1)!, position j = n'*i! + k (1-based,
    1 <= k <= i!) takes the (S_R^-, S_T^+) pair when k <= n'*(i-1)! and
    the (S_R^+, S_T^-) pair otherwise.  Serves as a cross-check against
    the direct construction in ``build_yang_matrix``.
    """
    if not 1 <= i < n:
        raise ValueError(f"site {i} out of range for N={n}")
    amp = amplitudes(params, u)
    order = math.factorial(n)
    period = math.factorial(i + 1)
    fact_i = math.factorial(i)
    fact_im1 = math.factorial(i - 1)
    s_r = np.empty(order, dtype=np.complex128)
    s_t = np.empty(order, dtype=np.complex128)
    for j0 in range(order):
        j = j0 % period + 1
        n_digit = (j - 1) // fact_i
        k_digit = j - n_digit * fact_i
        if 1 <= k_digit <= n_digit * fact_im1:
            s_r[j0] = amp.s_r_minus
            s_t[j0] = amp.s_t_plus
        else:
            s_r[j0] = amp.s_r_plus
            s_t[j0] = amp.s_t_minus
    return s_r, s_t


def _check_propagation_allowed(params: CouplingParameters, n: int, tol: float) -> None:
    # N = 2 admits no alternative reduced words, so any couplings are safe;
    # the word-independence question only arises from N = 3 up.
    if n >= 3 and integrable_family(params, tol) is None:
        raise NotIntegrable(
            f"couplings {params.astuple()} are outside both integrable families"
        )


def propagate(params: CouplingParameters, k, a_identity, p: Permutation,
              word: list[int] | None = None, tol: float = INTEGRABILITY_TOL) -> np.ndarray:
    """Coefficient vector A_P from A_I by stepping along a word for P.

    ``word`` defaults to the canonical decomposition of p; any word whose
    product is p gives the same result for integrable couplings.  Raises
    NotIntegrable for N >= 3 couplings outside the two families and
    PoleAtU if a needed amplitude is singular.
    """
    k = validate_momenta(k)
    n = k.size
    if p.n != n:
        raise ValueError(f"permutation size {p.n} != number of momenta {n}")
    _check_propagation_allowed(params, n, tol)
    tables = symmetric_group(n)
    a = _coefficient_vector(a_identity, tables.order)
    if word is None:
        word = decompose(p)
    srp, srm, stp, stm = _kernels.pair_amplitude_tables(params, k)
    run = np.arange(n)
    for pos, i in enumerate(word):
        if not 1 <= i < n:
            raise ValueError(f"word letter {i} at 0-based position {pos} is outside 1..{n - 1}")
        s = i - 1
        ka, kb = run[s], run[s + 1]
        parts = _kernels.step_parts(tables, s, srp[ka, kb], srm[ka, kb], stp[ka, kb], stm[ka, kb])
        a = _kernels.yang_apply(parts, a)
        run[s], run[s + 1] = kb, ka
    if tuple(run + 1) != p.images:
        raise ValueError(f"word {word} does not multiply out to {p.images}")
    return a


@dataclass(frozen=True)
class BetheState:
    """Momenta, couplings and the full coefficient table A_P(Q).

    ``table[p, q]`` is A_P(Q) with both indices 0-based in rank order.
    """

    params: CouplingParameters
    k: np.ndarray
    table: np.ndarray

    @property
    def n(self) -> int:
        return self.k.size

    @property
    def energy(self) -> float:
        return float(np.sum(self.k**2))

    @cached_property
    def tables(self) -> SymmetricGroupTables:
        return symmetric_group(self.n)


def bethe_state(params: CouplingParameters, k, a_identity,
                tol: float = INTEGRABILITY_TOL) -> BetheState:
    """Build the full table by propagating A_I to every P in rank order.

    Every row equals ``propagate`` along the canonical word of its P.
    """
    k = validate_momenta(k)
    n = k.size
    _check_propagation_allowed(params, n, tol)
    tables = symmetric_group(n)
    a = _coefficient_vector(a_identity, tables.order)
    srp, srm, stp, stm = _kernels.pair_amplitude_tables(params, k)
    table = _kernels.propagate_table(a, tables, srp, srm, stp, stm)
    return BetheState(params=params, k=k, table=table)


def _site_contact(params: CouplingParameters, u, a_p, a_pt, a_p_t, a_pt_t):
    """Residuals (r1, r2) of the contact conditions on A_P(Q), A_{PT}(Q),
    A_P(QT) and A_{PT}(QT), T = T_i, for Q ascending at site i and
    u = k_{P(i)} - k_{P(i+1)}.  Wedge Q lies below the plane, and the wave
    that gives particle Q(i) the momentum k_{P(i)} has relative derivative iu.
    """
    du = 1j * u
    return contact_residuals(params, a_p + a_pt, du * (a_p - a_pt),
                             a_p_t + a_pt_t, du * (a_pt_t - a_p_t))


def _ascending(tables: SymmetricGroupTables, k: np.ndarray, s: int):
    """Rank indices of the permutations ascending at site s + 1, the rank
    indices of their right products with T_{s+1}, and u = k_{P(s+1)} -
    k_{P(s+2)} for each as a column."""
    asc = np.flatnonzero(tables.asc[s])
    u = k[tables.images[asc, s]] - k[tables.images[asc, s + 1]]
    return asc, tables.tmaps[s, asc], u[:, np.newaxis]


def state_relation_residual(state: BetheState) -> float:
    """Max violation of the contact conditions over the table.

    Zero (to roundoff) for any table produced by ``bethe_state``;
    sensitive to corruption of any single entry.  Works on the table
    entries and the momenta alone, so neither a fault in the shared Y-step
    nor one in the amplitude formula can cancel out of the check.
    """
    a = state.table
    residuals = [0.0]
    for s in range(state.n - 1):
        asc, t, u = _ascending(state.tables, state.k, s)
        r1, r2 = _site_contact(state.params, u, a[np.ix_(asc, asc)], a[np.ix_(t, asc)],
                               a[np.ix_(asc, t)], a[np.ix_(t, t)])
        residuals += [np.abs(r1).max(), np.abs(r2).max()]
    return float(np.max(residuals))


@dataclass(frozen=True)
class OracleResult:
    """Least-squares solution of the full contact-condition system."""

    table: np.ndarray
    residual: float          # max |equation violation| at the solution
    nullity: int             # dimension of the homogeneous solution space
    expected_nullity: int    # N! when the ansatz is consistent

    @property
    def rank_deficient(self) -> bool:
        return self.nullity != self.expected_nullity


def coefficients_bc_oracle(params: CouplingParameters, k, pinned_column) -> OracleResult:
    """Solve the full boundary system with A_P(identity wedge) pinned.

    Assembles, for every site i, every wedge Q with Q(i) < Q(i+1) and
    every P with P(i) < P(i+1), the two contact conditions in the four
    coefficients they couple, appends the N! pins A_P(I) =
    pinned_column[rank(P)], and solves the stacked system by least
    squares.  The equation residual is at roundoff exactly when the
    couplings are integrable (or N = 2).

    Limited to N <= 4: the system has (N-1) N!^2 / 2 + N! rows.
    """
    k = validate_momenta(k)
    n = k.size
    if n > 4:
        raise ValueError("brute-force oracle is limited to N <= 4")
    tables = symmetric_group(n)
    f = tables.order
    pinned_column = _coefficient_vector(pinned_column, f, "pinned column")

    # site s fills f^2 / 2 rows: the (2, f/2, f/2) conditions over (P, Q)
    homogeneous_rows = (n - 1) * f * f // 2
    mat = np.zeros((homogeneous_rows + f, f * f), dtype=np.complex128)
    for s in range(n - 1):
        asc, t, u = _ascending(tables, k, s)
        rows = s * f * f // 2 + np.arange(f * f // 2).reshape(2, f // 2, f // 2)
        # the conditions are linear: column of each coupled coefficient
        for (p, q), unit in zip([(asc, asc), (t, asc), (asc, t), (t, t)], np.eye(4)):
            cols = p[:, np.newaxis] * f + q
            mat[rows[0], cols], mat[rows[1], cols] = _site_contact(params, u, *unit)
    mat[homogeneous_rows + np.arange(f), np.arange(f) * f] = 1.0
    rhs = np.concatenate([np.zeros(homogeneous_rows), pinned_column])

    solution, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.abs(mat @ solution - rhs).max())
    rank = np.linalg.matrix_rank(mat[:homogeneous_rows])
    return OracleResult(
        table=solution.reshape(f, f),
        residual=residual,
        nullity=f * f - int(rank),
        expected_nullity=f,
    )
