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
gives row P T_i from row P.  Each condition is stated once, as (P, Q) and
(P T_i, Q) give the same two equations: the system has (N-1) N!^2 / 2
homogeneous rows.  The transpositions of the odd sites 1, 3, ... commute,
and their rows fall apart into blocks of rank 2 per site on the orbits
they generate, so the oracle solves them exactly, one batched 2 x 4 SVD
per site, into a basis of their common null space that it keeps in
compact form: one 2^m x 2^m x 2^m block per orbit, m = floor(N/2).  The
even sites' rows on that basis are assigned from the same 2 x 4 rows,
``couplings._contact_coefficients``, and the solve and the rank run on
their QR factor, stacked on the pins.  The solution table is checked as
any table is, by ``_site_residuals``, the one evaluation of the
conditions on table entries that ``state_relation_residual`` reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .couplings import (CouplingParameters, _contact_coefficients, _site_contact,
                        integrable_family)
from .errors import NotIntegrable, finite_array, nan_to_inf, whole_number
from .permutations import SymmetricGroupTables, rank_of, symmetric_group

MIN_MOMENTUM_GAP = 1e-12
ORACLE_MAX_N = 4  # largest N that coefficients_bc_oracle solves
MAX_N = 6  # largest N of the N! x N! tables the commands and the matrix check build


def validate_momenta(k) -> np.ndarray:
    """Momenta as a fresh float array: at least one, finite, pairwise gaps
    above 1e-12 and inside the float range."""
    k = finite_array(k, "momenta", (None,))
    n = whole_number(k.size, "number of momenta", 1)
    values = k.tolist()  # Python floats: a gap past the float range is inf, not a warning
    for a in range(n):
        for b in range(a + 1, n):
            gap = abs(values[a] - values[b])
            if gap <= MIN_MOMENTUM_GAP:
                raise ValueError(f"momenta k[{a}]={k[a]} and k[{b}]={k[b]} coincide")
            if gap == math.inf:
                raise ValueError(f"momenta k[{a}]={k[a]} and k[{b}]={k[b]} differ by "
                                 "more than the float range")
    return k


def _propagation_inputs(params: CouplingParameters, k, a_identity):
    """The checked inputs of ``propagate`` and ``bethe_state``: the momenta,
    ``symmetric_group(N)``, A_I as a complex vector and the pair amplitudes.
    Raises NotIntegrable for N >= 3 couplings outside both families; N = 2
    admits no alternative reduced words, so any couplings are safe there."""
    k = validate_momenta(k)
    if k.size >= 3 and integrable_family(params) is None:
        raise NotIntegrable(
            f"couplings {params.astuple()} are outside both integrable families"
        )
    tables = symmetric_group(k.size)
    a = finite_array(a_identity, "coefficient vector", (tables.order,), np.complex128)
    return k, tables, a, _kernels.pair_amplitude_tables(params, k)


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
    k, tables, a, amps = _propagation_inputs(params, k, a_identity)
    n = k.size
    p = whole_number(p, "rank index p", 0, tables.order - 1)
    if word is None:
        word, q = [], p
        while q > 0:
            s = int(tables.last_site[q])
            word.insert(0, s + 1)
            q = int(tables.tmaps[s, q])
    run = np.arange(n)
    for pos, i in enumerate(word):
        s = whole_number(i, f"word letter at 0-based position {pos}", 1, n - 1) - 1
        ka, kb = run[s], run[s + 1]
        a = _kernels.yang_apply(_kernels.step_parts(tables, s, amps[:, ka, kb]), a)
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
    data: every ``table`` is checked for finite entries, one that is not
    such an array is copied Fortran-ordered, and ``k`` is always a fresh
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
                and table.flags.owndata and not table.flags.writeable
                and np.isfinite(table.T.view(np.float64)).all()):
            table = np.asfortranarray(finite_array(table, "coefficient table", (f, f),
                                                   np.complex128))
            table.flags.writeable = False
            object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.k.size

    @property
    def energy(self) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range
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
    k, tables, a, amps = _propagation_inputs(params, k, a_identity)
    table = _kernels.propagate_table(a, tables, amps)
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
    and Q (columns) ascending at the site, read from one N! x N! table."""
    asc, t, u = _ascending(tables, k, s)
    return _site_contact(params, u, table[np.ix_(asc, asc)], table[np.ix_(t, asc)],
                         table[np.ix_(asc, t)], table[np.ix_(t, t)])


def _contact_residual(params: CouplingParameters, k: np.ndarray,
                      tables: SymmetricGroupTables, table: np.ndarray) -> float:
    """Max |r1|, |r2| of the contact conditions over every site, every P
    and every Q ascending at the site, read from the table entries; inf
    where a residual cannot be formed in floating point."""
    residuals = [0.0]
    for s in range(k.size - 1):
        r1, r2 = _site_residuals(params, k, tables, table, s)
        residuals += [np.abs(r1).max(), np.abs(r2).max()]
    return nan_to_inf(np.max(residuals))


def state_relation_residual(state: BetheState) -> float:
    """Max violation of the contact conditions over the table.

    Zero (to roundoff) for any table produced by ``bethe_state``;
    sensitive to corruption of any single entry.  Works on the table
    entries and the momenta alone, so neither a fault in the shared Y-step
    nor one in the amplitude formula can cancel out of the check.
    """
    return _contact_residual(state.params, state.k, state.tables, state.table)


def _odd_site_null_basis(params: CouplingParameters, tables: SymmetricGroupTables,
                         k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis B of the common null space of the rows of the
    m = floor(N/2) odd sites 1, 3, ..., in the compact form (orbit, block):
    ``orbit`` (g, 2^m) and ``block`` (g, 2^m, 2^m, 2^m), with

        B[orbit[i, a], orbit[j, b], (i g + j) 2^m + l] = block[i, a, b, l],

    B[P, Q, l] the entry A_P(Q) of the l-th of its N!^2 / 2^m columns and
    every other entry zero.

    The transpositions of the odd sites commute, so right products with
    them split S_N into orbits of 2^m.  A base P_0 ascending at every odd
    site heads each orbit, and P_0 T^a is the member with exponent a_s on
    site s.  Site s's two rows at (P_0 T^a, Q_0 T^b) couple only the four
    unknowns that differ in a_s and b_s, with the 2 x 4 block of
    u = k_{P_0(s)} - k_{P_0(s+1)}, the same for every a: on the 4^m
    unknowns of the square (P_0 orbit) x (Q_0 orbit) the site acts as its
    block in the slot j_s = a_s + 2 b_s times the identity on the other
    slots.  The null vectors of each block, the last two right singular
    vectors, tensor into the 2^m columns the square owns:
    n_1[i_1][j_1] ... n_m[i_m][j_m] at the unknown A_{P_0 T^a}(Q_0 T^b).
    With P_0 and Q_0 the i-th and j-th of the g = N!/2^m bases, that is
    block[i, a, b, l], l the binary number i_1 ... i_m: it depends on the
    square through P_0 alone.  N = 1 has no odd site, and B is the
    1 x 1 x 1 identity.
    """
    sites = range(0, k.size - 1, 2)
    heads = np.flatnonzero(tables.asc[list(sites)].all(axis=0))
    g = heads.size
    # orbit[i, a]: rank of the i-th base times T^a, the first site's exponent the leading bit
    orbit = heads[:, np.newaxis]
    # block[base, a, b, l]: the entry A_{P_0 T^a}(Q_0 T^b) of the l-th column
    block = np.ones((g, 1, 1, 1), dtype=np.complex128)
    for s in sites:
        orbit = np.stack([orbit, tables.tmaps[s, orbit]], axis=-1).reshape(g, -1)
        u = k[tables.images[heads, s]] - k[tables.images[heads, s + 1]]
        null = np.linalg.svd(_contact_coefficients(params, u))[2][:, 2:].conj()  # (g, 2, 4)
        # null[base, i_s, b_s, a_s], as j_s = a_s + 2 b_s
        block = np.einsum("pabl,pidc->pacbdli", block, null.reshape(g, 2, 2, 2)).reshape(
            g, 2 * block.shape[1], 2 * block.shape[2], 2 * block.shape[3])
    return orbit, block


def _orbit_coordinates(orbit: np.ndarray):
    """The inverse of ``orbit``: base(P) = i and pos(P) = a where orbit[i, a] = P."""
    base, pos = np.empty((2, orbit.size), dtype=np.intp)
    base[orbit] = np.arange(orbit.shape[0])[:, np.newaxis]
    pos[orbit] = np.arange(orbit.shape[1])
    return base, pos


def _even_site_rows(params: CouplingParameters, k: np.ndarray, tables: SymmetricGroupTables,
                    orbit: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The rows of the even sites 2, 4, ... times the basis B of
    ``_odd_site_null_basis``, read off its (orbit, block): for each even
    site, one row per P and Q ascending there and each of the two
    conditions, in (P, Q, e) order.

    The row couples A_X(Y) at (P, Q), (P T, Q), (P, Q T) and (P T, Q T),
    T = T_i, with the four coefficients of ``_contact_coefficients``.
    T_i of an even site is not in the group the odd sites generate, so P
    and P T, and Q and Q T, lie in different orbits: the four unknowns lie
    in four distinct squares, and each meets the 2^m columns of its square
    at block[base X, pos X, pos Y, :].  So each row has 4 2^m non-zeros,
    assigned, not summed.
    """
    g, r = orbit.shape
    base, pos = _orbit_coordinates(orbit)
    sites = range(1, k.size - 1, 2)
    half = tables.order // 2  # the permutations ascending at a site
    rows = np.zeros((len(sites), half, half, 2, g * g * r), dtype=np.complex128)
    for site, s in zip(rows, sites):
        asc, t, u = _ascending(tables, k, s)
        # the unknowns in _contact_coefficients' order: (P, Q), (P T, Q), (P, Q T), (P T, Q T)
        x = np.stack([asc, t, asc, t], axis=-1)[:, np.newaxis]
        y = np.stack([asc, asc, t, t], axis=-1)[np.newaxis]
        columns = ((base[x] * g + base[y]) * r)[..., np.newaxis] + np.arange(r)  # (P, Q, unknown, l)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle refuses non-finite rows
            values = (_contact_coefficients(params, u[:, 0])[:, np.newaxis, :, :, np.newaxis]
                      * block[base[x], pos[x], pos[y]][:, :, np.newaxis])  # (P, Q, e, unknown, l)
        np.put_along_axis(site, columns.reshape(half, half, 1, -1),
                          values.reshape(half, half, 2, -1), axis=3)
    return rows.reshape(-1, g * g * r)


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
    ``_odd_site_null_basis``, which stays in its compact form: the rows of
    the even sites times B, M (``_even_site_rows``), the pins B_I (B's
    row I) and the table B y are each read off its blocks.  M is factored
    once, M = Q R, and as ||M y|| = ||R y|| the pins and R stand in for the
    pins and M.  Each contact condition at site i gives row P T_i from row
    P, so only y = 0 has R y = 0 and B y zero on row I: [R; B_I] has full
    column rank, y is its one least-squares solution, and the nullity is
    the width of B minus the rank of R, which is M's.  The R factor of
    the augmented system [[R, 0], [B_I, a_identity]] is [R; B_I]'s R
    factor with Q^H (0; a_identity) beside it, so y is one triangular
    solve away and no Q is formed.  Where the system is
    consistent y solves it, in both families; where it is not, the odd
    sites' rows hold exactly and the rest carry the violation.  The
    residual is the max violation over every row of the full system and
    the pins, read from the table by ``_contact_residual``, at roundoff
    exactly when the couplings are integrable (or N = 2), and inf where it
    cannot be formed in floating point.  A system whose rows or solution
    leave the float range raises ValueError.

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
    at N = 4, the second on R and the pins, 168 x 145.  The whole call
    runs on one OpenBLAS thread (``_kernels.one_blas_thread``): matrices
    this small factor faster so than on several, and the result's bits
    then do not depend on the CPU count.
    """
    k = validate_momenta(k)
    n = whole_number(k.size, "number of oracle momenta N", 1, ORACLE_MAX_N)
    tables = symmetric_group(n)
    f = tables.order
    a_identity = finite_array(a_identity, "pinned row", (f,), np.complex128)

    orbit, block = _odd_site_null_basis(params, tables, k)
    g, r = orbit.shape
    width = g * g * r
    base, pos = _orbit_coordinates(orbit)
    reduced = _even_site_rows(params, k, tables, orbit, block)
    # numpy < 2 factors no empty matrix: N <= 2 has no even site
    rows = np.linalg.qr(reduced, mode="r") if len(reduced) else reduced
    # [[R, 0], [B_I, a_identity]]: row I = orbit[base I, pos I] meets the
    # square (base I, base Q) at block[base I, pos I, pos Q]
    top = len(rows)
    augmented = np.zeros((top + f, width + 1), dtype=np.complex128)
    augmented[:top, :width] = rows
    augmented[top + np.arange(f)[:, np.newaxis],
              (base[0] * g + base)[:, np.newaxis] * r + np.arange(r)] = block[base[0], pos[0], pos]
    augmented[top:, width] = a_identity
    # [R; B_I] has full column rank, so y is its unique least-squares solution
    triangle = np.linalg.qr(augmented, mode="r")
    y = np.linalg.solve(triangle[:width, :width], triangle[:width, width]).reshape(g, g, r)
    # table[P, Q] = sum_l block[base P, pos P, pos Q, l] y[base P, base Q, l]
    bp = base[:, np.newaxis]
    table = np.einsum("pql,pql->pq", block[bp, pos[:, np.newaxis], pos], y[bp, base])
    if not (np.isfinite(rows).all() and np.isfinite(table).all()):
        raise ValueError(f"oracle system at couplings {params.astuple()} and momenta "
                         f"{k.tolist()} is past the float range")
    residual = np.max([_contact_residual(params, k, tables, table),
                       np.abs(table[0] - a_identity).max()])
    rank = np.linalg.matrix_rank(rows) if len(rows) else 0
    return OracleResult(table=table, residual=float(residual), nullity=width - int(rank))
