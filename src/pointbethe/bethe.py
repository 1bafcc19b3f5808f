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

``coefficients_bc_oracle`` is the brute-force cross-check: it solves the
contact conditions over all N!^2 unknowns with row I, the fill's input
A_I(Q), pinned, which fixes every solution, as each condition at site i
gives row P T_i from row P.  It and ``state_relation_residual`` read the
conditions from tables through one evaluation, ``_site_residuals``, and
state each once, as (P, Q) and (P T_i, Q) give the same two equations:
the system has (N-1) N!^2 / 2 homogeneous rows.  The transpositions of the
odd sites 1, 3, ... commute, and their rows fall apart into blocks of rank
2 per site on the orbits they generate, so the oracle solves them exactly,
one batched 2 x 4 SVD per site, and runs the solve and the rank on the QR
factor of the even sites' residuals on a basis of the odd sites' common
null space, a stack of N!^2 / 2^floor(N/2) tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .couplings import (CouplingParameters, _contact_coefficients, _site_contact,
                        integrable_family)
from .errors import NotIntegrable, finite_array, whole_number
from .permutations import SymmetricGroupTables, rank_of, symmetric_group

MIN_MOMENTUM_GAP = 1e-12
ORACLE_MAX_N = 4  # largest N that coefficients_bc_oracle solves
MAX_N = 6  # largest N of the N! x N! tables the commands and the matrix check build


def validate_momenta(k) -> np.ndarray:
    """Momenta as a fresh float array: at least one, finite, pairwise gaps above 1e-12."""
    k = finite_array(k, "momenta", (None,))
    n = whole_number(k.size, "number of momenta", 1)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(k[a] - k[b]) <= MIN_MOMENTUM_GAP:
                raise ValueError(f"momenta k[{a}]={k[a]} and k[{b}]={k[b]} coincide")
    return k


def _check_propagation_allowed(params: CouplingParameters, n: int) -> None:
    # N = 2 admits no alternative reduced words, so any couplings are safe;
    # the word-independence question only arises from N = 3 up.
    if n >= 3 and integrable_family(params) is None:
        raise NotIntegrable(
            f"couplings {params.astuple()} are outside both integrable families"
        )


def propagate(params: CouplingParameters, k, a_identity, p: int,
              word: list[int] | None = None) -> np.ndarray:
    """Coefficient vector A_P from A_I by stepping along a word for P.

    ``p`` is the 0-based rank index of P, its row of ``bethe_state``'s
    table.  ``word`` defaults to P's canonical word, read from the parent
    tree of ``symmetric_group``, and then the result is that row bit for
    bit; any word whose product is P gives the same result for integrable
    couplings.  Raises NotIntegrable for N >= 3 couplings outside the two
    families and PoleAtU if a needed amplitude is singular.
    """
    k = validate_momenta(k)
    n = k.size
    _check_propagation_allowed(params, n)
    tables = symmetric_group(n)
    p = whole_number(p, "rank index p", 0, tables.order - 1)
    a = finite_array(a_identity, "coefficient vector", (tables.order,), np.complex128)
    if word is None:
        word, q = [], p
        while q > 0:
            s = int(tables.last_site[q])
            word.insert(0, s + 1)
            q = int(tables.tmaps[s, q])
    amps = _kernels.pair_amplitude_tables(params, k)
    run = np.arange(n)
    for pos, i in enumerate(word):
        s = whole_number(i, f"word letter at 0-based position {pos}", 1, n - 1) - 1
        ka, kb = run[s], run[s + 1]
        a = _kernels.yang_apply(_kernels.step_parts(tables, s, *amps[:, ka, kb]), a)
        run[s], run[s + 1] = kb, ka
    if rank_of(run) != p:
        raise ValueError(f"word {word} does not multiply out to rank index {p}")
    return a


@dataclass(frozen=True)
class BetheState:
    """Momenta, couplings and the full coefficient table A_P(Q).

    ``table[p, q]`` is A_P(Q) with both indices 0-based in rank order.
    ``k`` passes ``validate_momenta`` and the table must be N! x N!.  The
    table is a complex, Fortran-ordered, read-only array that owns its
    data: a ``table`` that is not such an array is checked for finite
    entries and copied Fortran-ordered, and ``k`` is always a fresh
    frozen copy.  Nothing is written to a state after ``__post_init__``,
    so threads may share one.  ``columns`` is the table's transpose, a
    C-contiguous view, ``columns[q, p]`` = A_P(Q): the wedge column A_.(Q)
    is one contiguous row.  ``tables`` is ``symmetric_group(N)``, which is
    cached per process.
    """

    params: CouplingParameters
    k: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        k = validate_momenta(self.k)
        k.flags.writeable = False
        object.__setattr__(self, "k", k)
        f = math.factorial(k.size)
        table = self.table
        if not (isinstance(table, np.ndarray) and table.shape == (f, f)
                and table.dtype == np.complex128 and table.flags.f_contiguous
                and table.flags.owndata and not table.flags.writeable):
            table = np.asfortranarray(finite_array(table, "coefficient table", (f, f),
                                                   np.complex128))
            table.flags.writeable = False
            object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.k.size

    @property
    def energy(self) -> float:
        return float(np.sum(self.k**2))

    @property
    def tables(self) -> SymmetricGroupTables:
        return symmetric_group(self.n)

    @property
    def columns(self) -> np.ndarray:
        return self.table.T


def bethe_state(params: CouplingParameters, k, a_identity) -> BetheState:
    """Build the full table by propagating A_I to every P in rank order.

    Every row equals ``propagate`` along the canonical word of its P.
    """
    k = validate_momenta(k)
    n = k.size
    _check_propagation_allowed(params, n)
    tables = symmetric_group(n)
    a = finite_array(a_identity, "coefficient vector", (tables.order,), np.complex128)
    table = _kernels.propagate_table(a, tables, *_kernels.pair_amplitude_tables(params, k))
    table.flags.writeable = False
    return BetheState(params=params, k=k, table=table)


def _ascending(tables: SymmetricGroupTables, k: np.ndarray, s: int):
    """Rank indices of the permutations ascending at site s + 1, the rank
    indices of their right products with T_{s+1}, and u = k_{P(s+1)} -
    k_{P(s+2)} for each as a column."""
    asc = np.flatnonzero(tables.asc[s])
    u = k[tables.images[asc, s]] - k[tables.images[asc, s + 1]]
    return asc, tables.tmaps[s, asc], u[:, np.newaxis]


def _site_residuals(params: CouplingParameters, k: np.ndarray, tables: SymmetricGroupTables,
                    table: np.ndarray, s: int):
    """Residuals (r1, r2) of site s + 1's contact conditions at every P (rows)
    and Q (columns) ascending at the site, read from one N! x N! table or
    from a stack of them along trailing axes, and stacked the same way."""
    asc, t, u = _ascending(tables, k, s)
    u = u.reshape(u.shape + (1,) * (table.ndim - 2))
    return _site_contact(params, u, table[np.ix_(asc, asc)], table[np.ix_(t, asc)],
                         table[np.ix_(asc, t)], table[np.ix_(t, t)])


def _contact_residual(params: CouplingParameters, k: np.ndarray,
                      tables: SymmetricGroupTables, table: np.ndarray) -> float:
    """Max |r1|, |r2| of the contact conditions over every site, every P
    and every Q ascending at the site, read from the table entries."""
    residuals = [0.0]
    for s in range(k.size - 1):
        r1, r2 = _site_residuals(params, k, tables, table, s)
        residuals += [np.abs(r1).max(), np.abs(r2).max()]
    return float(np.max(residuals))


def state_relation_residual(state: BetheState) -> float:
    """Max violation of the contact conditions over the table.

    Zero (to roundoff) for any table produced by ``bethe_state``;
    sensitive to corruption of any single entry.  Works on the table
    entries and the momenta alone, so neither a fault in the shared Y-step
    nor one in the amplitude formula can cancel out of the check.
    """
    return _contact_residual(state.params, state.k, state.tables, state.table)


def _odd_site_null_basis(params: CouplingParameters, tables: SymmetricGroupTables,
                         k: np.ndarray) -> np.ndarray:
    """Orthonormal basis B, shape (N!, N!, N!^2 / 2^m), of the common null
    space of the rows of the m = floor(N/2) odd sites 1, 3, ...: a stack of
    tables, B[P, Q, l] the entry A_P(Q) of the l-th basis vector.

    The transpositions of the odd sites commute, so right products with
    them split S_N into orbits of 2^m.  A base P_0 ascending at every odd
    site heads each orbit, and P_0 T^a is the member with exponent a_s on
    site s.  Site s's two rows at (P_0 T^a, Q_0 T^b) couple only the four
    unknowns that differ in a_s and b_s, with the 2 x 4 block of
    u = k_{P_0(s)} - k_{P_0(s+1)}, the same for every a: on the 4^m
    unknowns of the square (P_0 orbit) x (Q_0 orbit) the site acts as its
    block in the slot j_s = a_s + 2 b_s times the identity on the other
    slots.  The null vectors of each block, the last two right singular
    vectors, tensor into the 2^m columns of B the square owns:
    n_1[i_1][j_1] ... n_m[i_m][j_m] at the unknown A_{P_0 T^a}(Q_0 T^b).
    With P_0 and Q_0 the i-th and j-th of the g = N!/2^m bases, they are
    B[..., (i g + j) 2^m + l], l the binary number i_1 ... i_m.  N = 1 has
    no odd site, and B is the 1 x 1 x 1 identity.
    """
    sites = range(0, k.size - 1, 2)
    f = tables.order
    heads = np.flatnonzero(tables.asc[list(sites)].all(axis=0))
    g, m = heads.size, len(sites)
    # orbit[i, a]: rank of the i-th base times T^a, the first site's exponent the leading bit
    orbit = heads[:, np.newaxis]
    block = np.ones((g, 1, 1), dtype=np.complex128)
    for s in sites:
        orbit = np.stack([orbit, tables.tmaps[s, orbit]], axis=-1).reshape(g, -1)
        u = k[tables.images[heads, s]] - k[tables.images[heads, s + 1]]
        null = np.linalg.svd(_contact_coefficients(params, u))[2][:, 2:].conj()  # (g, 2, 4)
        block = np.einsum("pjl,pik->pjkli", block, null).reshape(
            g, 4 * block.shape[1], 2 * block.shape[2])
    # the block's rows as (b_1, a_1, ..., b_m, a_m), j_s = a_s + 2 b_s; reordered to (a, b)
    block = block.reshape((g,) + (2,) * (2 * m) + (-1,))
    block = block.transpose([0, *range(2, 2 * m + 1, 2), *range(1, 2 * m, 2), 2 * m + 1])
    r = 2 ** m
    block = block.reshape(g, r, r, r)
    basis = np.zeros((f, f, g * g * r), dtype=np.complex128)
    squares = r * np.arange(g * g).reshape(g, g, 1, 1, 1) + np.arange(r)
    basis[orbit[:, np.newaxis, :, np.newaxis, np.newaxis],
          orbit[np.newaxis, :, np.newaxis, :, np.newaxis], squares] = block[:, np.newaxis]
    return basis


@dataclass(frozen=True)
class OracleResult:
    """Solution of the full contact-condition system with row I pinned."""

    table: np.ndarray
    residual: float          # max |equation violation| at the solution, pins included
    nullity: int             # solution-space dimension, N! when the ansatz is consistent


@_kernels.one_blas_thread()
def coefficients_bc_oracle(params: CouplingParameters, k, a_identity) -> OracleResult:
    """Solve the full boundary system with row I, A_I(Q), pinned.

    The system holds, for every site i, every wedge Q with Q(i) < Q(i+1)
    and every P with P(i) < P(i+1), the two contact conditions in the four
    coefficients they couple, plus the N! pins A_I(Q) =
    a_identity[rank(Q)].  Every solution satisfies the rows of the odd
    sites 1, 3, ..., so it is B y for the isometry B of
    ``_odd_site_null_basis``.  The rows of the even sites times B, M, are
    factored once, M = Q R, and as ||M y|| = ||R y|| the pins and R stand
    in for the pins and M.  Each contact condition at site i gives row
    P T_i from row P, so only y = 0 has R y = 0 and B y zero on row I:
    [R; pins] has full column rank, y is its one least-squares solution,
    from one QR and one triangular solve, and the nullity is the width of
    B minus the rank of R, which is M's.  Where the system is consistent
    y solves it, in both families; where it is not, the odd sites' rows
    hold exactly and the rest carry the violation.  The residual is the
    max violation over every row of the full system and the pins, at
    roundoff exactly when the couplings are integrable (or N = 2).

    Why B spans the odd sites' common null space.  One site first: its
    rows at (P, Q) and (P T_1, Q) are the same two equations, so with P
    and Q ascending at site 1 they form one 2 x 4 block M_1 in the square
    {P, P T_1} x {Q, Q T_1}, and the squares partition the unknowns.  M_1
    has rank 2 whenever u = k_{P(1)} - k_{P(2)} != 0: the map from the
    four coefficients to the wedge limits (v-, d-, v+, d+) is invertible,
    and the second condition's d-coefficients (-lam, -lam) are never
    proportional to the first's (-1 + gamma - i eta, 1 + gamma - i eta).
    Sites 1 and 3 together: T_1 and T_3 commute, so the orbits
    {P, P T_1, P T_3, P T_1 T_3} x (the same for Q) split the unknowns into
    blocks of 16, C^4_(a,c) (x) C^4_(b,d), with a, b the T_1 and T_3
    exponents on P and c, d those on Q.  Site 1's coefficients depend on
    P only through u, which T_3 leaves alone, so site 1 acts on the block
    as M_1 (x) I_4 and site 3 likewise as I_4 (x) M_3.  Hence the common
    kernel is ker M_1 (x) ker M_3, of dimension 4, and the block has rank
    12 for every coupling.  The same holds for any number m of odd sites,
    so B has width N!^2 / 2^m: 1, 2, 18 and 144 at N = 1, 2, 3 and 4.

    Limited to N <= ORACLE_MAX_N = 4: the system has (N-1) N!^2 / 2 + N!
    rows; the first QR runs on (N!^2 / 2) floor((N-1)/2) of them, 288 x 144
    at N = 4, the second on R and the pins, 168 x 144.  The whole call runs
    on one OpenBLAS thread (``_kernels.one_blas_thread``): matrices this
    small factor faster so than on several, and the result's bits then do
    not depend on the CPU count.
    """
    k = validate_momenta(k)
    n = whole_number(k.size, "number of oracle momenta N", 1, ORACLE_MAX_N)
    tables = symmetric_group(n)
    f = tables.order
    a_identity = finite_array(a_identity, "pinned row", (f,), np.complex128)

    basis = _odd_site_null_basis(params, tables, k)
    width = basis.shape[2]
    # the rows of the even sites times B are B's residuals, as (P, Q, e)
    # rows; the pins read B's row I
    reduced = [np.empty((0, width), dtype=np.complex128)]
    for s in range(1, n - 1, 2):
        reduced.append(np.stack(_site_residuals(params, k, tables, basis, s),
                                axis=2).reshape(-1, width))
    reduced = np.concatenate(reduced)
    # numpy < 2 factors no empty matrix: N <= 2 has no even site
    rows = np.linalg.qr(reduced, mode="r") if len(reduced) else reduced
    # [R; row-I pins] has full column rank, so y is its unique least-squares solution
    q, r = np.linalg.qr(np.concatenate([rows, basis[0]]))
    y = np.linalg.solve(r, q[len(rows):].conj().T @ a_identity)
    table = basis @ y
    residual = np.max([_contact_residual(params, k, tables, table),
                       np.abs(table[0] - a_identity).max()])
    rank = np.linalg.matrix_rank(rows) if len(rows) else 0
    return OracleResult(table=table, residual=float(residual), nullity=width - int(rank))
