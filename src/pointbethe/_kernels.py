"""Hot numeric kernels in numpy.

Four inner loops dominate runtime at scale: factorization-identity
residual panels (coupling scans evaluate them at every grid point),
plane-wave sums over position batches, the one-step operator Y_i(u)
and filling the full coefficient table over all N! momentum permutations.

``factorization_panel`` broadcasts blocks of coupling-grid rows against
the whole (u, v) panel at once; a block holds at most PANEL_BLOCK_ENTRIES
rows x samples, so memory stays flat in the grid size (64 kB per complex
temporary, 1 MB for a block's sixteen amplitude arrays), and each of the
thirteen identities is reduced to its per-row maximum as soon as it is
formed.  A block takes three ``amplitude_arrays`` calls, at u, v and
u+v, each for both particle orders.  The -u amplitudes are read off u:
for real couplings and real u, D(-u) = -conj D(u), so
(S_T^+, S_R^+, S_T^-, S_R^-)(-u) = conj(S_T^-, S_R^+, S_T^+, S_R^-)(u).
Negation is exact and numpy's complex division is symmetric under
conjugation, so only the sign of a zero can differ from evaluating -u,
and abs hides it.
Products that two identities share are formed once; results are
bit-identical to evaluating one row, one sign, one argument and one
identity at a time.

``plane_waves`` is the one place that forms the waves exp(i k_P . x_Q);
``eval_grid``, ``wavefunction.evaluate`` and ``boundary_residual`` use it.
Each wave is a product of the N^2 phase factors exp(i k_a x_j) of its
point, so M points cost M N^2 exponentials, not M N!.  Every Y step,
the table fill's included, is ``yang_apply`` on ``step_parts``; every
rejection sampler is ``uniform_accepted``; every amplitude array comes
from ``scattering.amplitude_arrays``.  Calls that
are independent of each other and may run at once, such as the boundary
checks of one state's N(N-1)/2 pairs, go through ``thread_map``, which
runs them on one process-wide thread pool and returns what a loop would.
LAPACK calls on small matrices, such as the N <= 4 oracle's, run inside
``one_blas_thread``, which sets the OpenBLAS of numpy's LAPACK extension,
``numpy.linalg._umath_linalg``, to one thread for the calling thread alone.

Layout contracts (all indices 0-based):
* ``images[(F, N)]``: rank-ordered one-line forms, values 0..N-1.
* ``waves[(M, F)]`` from ``plane_waves``: C-contiguous, row m the waves
  of point m, so a product with a stack of wedge rows is unit-stride.
* relative momenta ``[(N-1, F)]``, formed by each ``boundary_residual``
  call: entry (s, p) is 1j * (k_{P(s+1)} - k_{P(s+2)}), the relative
  derivative factor of wave P across site s + 1.
* ``columns[(F, F)]``: the transpose of the Fortran-ordered table, a free
  C-contiguous view, ``columns[q, p]`` = A_P(Q): a wedge's column is one row.
* ``tmaps[(N-1, F)]``, ``asc[(N-1, F)]``: right-multiplication index map
  and ascent flags per transposition site.
* ``last_site[(F,)]``: last letter of each canonical word, -1 for the
  identity.
* amplitudes ``[(4, M)]`` and pair tables ``[(4, N, N)]``: S_T^+, S_R^+,
  S_T^-, S_R^-, the order of ``scattering.amplitude_arrays``; pair entry
  (a, b) is at u = k[a] - k[b].
* Y-step parts ``diag, off[(F,)]`` from ``step_parts``, or ``[(S, F)]``
  for a stack of S steps built from a (4, S, 1) amplitude stack, with
  ``tmap[(F,)]``.  ``yang_apply`` takes a target vector (F,) or matrix
  (F, F) with (F,) parts, and a stack (S, F, F) with (S, F) parts, step
  s acting on matrix s; entry for entry it does what the one-step call
  does, so a stack gives the same bits as S separate calls.
* Panel kernels return np.inf for every residual of a row with a
  residual that is not finite (an amplitude at u = c = 0, or overflow);
  callers translate that to PoleAtU.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os

import numpy as np

from .permutations import SymmetricGroupTables, rank_of
from .scattering import amplitude_arrays, amplitude_columns

BACKEND = "numpy"

# Rejection samplers give up, with a ValueError, after this many draws per
# requested sample.
MAX_DRAWS_PER_SAMPLE = 1000
# The samplers' domains: the box and the least |u|, |v|, |u+v| of sample_panel,
# the box and the least coordinate gap of wavefunction.boundary_samples.
PANEL_BOX = 5.0
PANEL_MIN_SEP = 0.25
BOUNDARY_BOX = 3.0
BOUNDARY_MIN_GAP = 0.2

# A panel call broadcasts a block of grid rows against the whole (u, v)
# sample panel: couplings as (B, 1) columns, samples as (M,) rows.  Blocks
# hold at most PANEL_BLOCK_ENTRIES grid-row x sample entries (at least one
# row), which caps each complex (B, M) temporary at 64 kB, the sixteen
# amplitude arrays of a block at 1 MB and the seven shared identity
# products at 448 kB, whatever the grid size.
PANEL_BLOCK_ENTRIES = 4096

# The table fill writes its rows into a C-ordered block of FILL_BLOCK_ROWS
# rows and copies each full block into the Fortran-ordered table at once.
# A row written straight into that table lands at a stride of N! * 16 B
# (11.5 kB at N = 6); in the block it is one contiguous run, and 93 % of
# the rows at N = 6 find their parent there.  64 was the fastest of 32, 64
# and 128 (BENCH_pr41_fill.json); the block takes 737 kB at N = 6.
FILL_BLOCK_ROWS = 64


def _identities(stp_u, srp_u, stm_u, srm_u, stp_mu, srp_mu, stm_mu, srm_mu,
                stp_v, srp_v, stm_v, srm_v, stp_w, srp_w, stm_w, srm_w):
    """The thirteen factorization identities, one (B, M) residual at a time.

    Each is bilinear or trilinear in the amplitudes at u, -u, v and w = u+v,
    written out explicitly and yielded one by one so the caller can reduce
    each before the next is formed.  A product two identities share is
    formed once, in its left-to-right order, so the bits do not change.
    """
    yield srp_u * srp_mu + stm_u * stp_mu - 1.0
    yield srm_u * srm_mu + stp_u * stm_mu - 1.0
    yield srp_u * stm_mu + stm_u * srm_mu
    yield srm_u * stp_mu + stp_u * srp_mu
    srm_v_srp_w = srm_v * srp_w
    yield srm_v_srp_w * srm_u - srp_u * srm_w * srp_v
    yield srp_v * stp_w * stm_u - stp_u * stm_w * srp_v
    yield srm_v * stm_w * stp_u - stm_u * stp_w * srm_v
    stm_v_srp_w_srm_u = stm_v * srp_w * srm_u
    yield srp_v * srp_w * stm_u + stm_v_srp_w_srm_u - srp_u * stm_w * srp_v
    srm_v_srp_w_stp_u = srm_v_srp_w * stp_u
    srp_u_stp_w = srp_u * stp_w
    yield srm_v_srp_w_stp_u + stp_v * srp_w * srp_u - srp_u_stp_w * srp_v
    stp_v_srm_w_srp_u = stp_v * srm_w * srp_u
    yield srm_v * srm_w * stp_u + stp_v_srm_w_srp_u - srm_u * stp_w * srm_v
    srp_v_srm_w_stm_u = srp_v * srm_w * stm_u
    srm_u_stm_w = srm_u * stm_w
    yield srp_v_srm_w_stm_u + stm_v_srp_w_srm_u - srm_u_stm_w * srp_v
    yield srp_v_srm_w_stm_u + stm_v * srm_w * srm_u - srm_u_stm_w * srm_v
    yield srm_v_srp_w_stp_u + stp_v_srm_w_srp_u - srp_u_stp_w * srm_v


def factorization_panel(params_grid: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Max |residual| of each identity over the (u, v) panel, per grid row.

    A row with any residual that is not finite, from the 0/0 of u = c = 0
    or from couplings that overflow, is inf throughout.
    """
    params_grid = np.atleast_2d(np.asarray(params_grid, dtype=np.float64))
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    vs = np.atleast_1d(np.asarray(vs, dtype=np.float64))
    out = np.empty((params_grid.shape[0], 13), dtype=np.float64)
    step = max(1, PANEL_BLOCK_ENTRIES // max(1, len(us)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, params_grid.shape[0], step):
            c, lam, gamma, eta = params_grid[start:start + step, :, np.newaxis].transpose(1, 0, 2)
            stp, srp, stm, srm = amplitude_arrays(c, lam, gamma, eta, us)
            at_v = amplitude_arrays(c, lam, gamma, eta, vs)
            at_w = amplitude_arrays(c, lam, gamma, eta, us + vs)
            # -u: the conjugates in swapped order
            at_mu = np.conj(stm), np.conj(srp), np.conj(stp), np.conj(srm)
            block = out[start:start + step]
            for e, r in enumerate(_identities(stp, srp, stm, srm, *at_mu, *at_v, *at_w)):
                block[:, e] = np.abs(r).max(axis=1)
    out[~np.isfinite(out).all(axis=1)] = np.inf
    return out


def plane_waves(k, images, xq) -> np.ndarray:
    """exp(i sum_j k[P(j)] xq[m, j]) for every row m of xq and row P of images.

    Returns shape (M, F).  Each wave is the product of N of the N^2 phase
    factors exp(i k[a] xq[m, j]) of its row: M N^2 exponentials and
    (N-1) M N! complex products, not M N! exponentials of summed phases.
    All of it is elementwise, not a matrix product, so a row gives the
    same bits alone or in any batch.  The factors are laid out
    [position, momentum, point], so each gather copies whole rows of M
    points into an (F, M) product, and one transposing copy returns the
    waves C-contiguous: every product with a stack of wedge rows then
    runs at unit stride.  A phase k[a] xq[m, j] past the float range has
    no value and raises ValueError.  The test is on Python floats, so it
    needs no np.errstate, which would not reach a ``thread_map`` worker.
    """
    a = np.abs(k).argmax()
    x = np.abs(xq).max(initial=0.0)
    if math.isinf(abs(float(k[a])) * float(x)):
        raise ValueError(f"plane-wave phase past the float range: momentum k[{a}]={k[a]} "
                         f"at a coordinate of modulus {x}")
    factors = np.exp(1j * (k[np.newaxis, :, np.newaxis] * xq.T[:, np.newaxis, :]))
    waves = factors[0].take(images[:, 0], axis=0)
    for j in range(1, images.shape[1]):
        waves *= factors[j].take(images[:, j], axis=0)
    return waves.T.copy()


def eval_grid(points, k, columns, images) -> np.ndarray:
    """Bethe-ansatz wavefunction on a batch of generic (tie-free) points.

    ``columns`` is the transposed table ``BetheState.columns``: each point
    reads the one contiguous row of its wedge.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    order = np.argsort(points, axis=1, kind="stable")  # wedge images per point
    xq = np.take_along_axis(points, order, axis=1)
    waves = plane_waves(k, images, xq)
    return (columns[rank_of(order)] * waves).sum(axis=1)


def step_parts(tables: SymmetricGroupTables, s: int, amps):
    """Sparse form of Y at 0-based site s: (diagonal, off-diagonal, column map).

    Row Q holds ``diag[q]`` at column Q and ``off[q]`` at column
    ``tmap[q]`` = rank index of Q T_{s+1}: S_R^+ and S_T^- where
    Q(s+1) < Q(s+2), S_R^- and S_T^+ elsewhere.
    """
    st_plus, sr_plus, st_minus, sr_minus = amps
    asc = tables.asc[s]
    return np.where(asc, sr_plus, sr_minus), np.where(asc, st_minus, st_plus), tables.tmaps[s]


def yang_apply(parts, target: np.ndarray) -> np.ndarray:
    """Left-multiply the sparse Y given by ``parts`` onto a vector, a
    matrix or a stack of matrices.

    ``diag`` and ``off`` are (F,), or (S, F) for a stack of S steps; a
    ``target`` with more axes than they have is a matrix (F, F) or a
    stack (S, F, F), and Y acts on each of its columns.  O(N!) per vector
    column, against O(N!^2) for the dense form.
    """
    diag, off, tmap = parts
    if target.ndim > diag.ndim:
        return diag[..., np.newaxis] * target + off[..., np.newaxis] * target[..., tmap, :]
    return diag * target + off * target[tmap]


def propagate_table(a_identity, tables: SymmetricGroupTables, amps) -> np.ndarray:
    """Fill A_P for every P, each row one Y step from its parent row.

    The canonical words of ``permutations`` are prefix-closed: dropping the
    last letter i of the word for P leaves the word for its parent
    P T_i, whose rank is smaller.  So one pass in rank order finds every
    parent row ready, and each row goes through exactly the operations
    of stepping along its whole word.  The plan of the pass (each row's
    parent, site and momentum pair) is read from the tables as Python
    ints first; the parts of each distinct step are built on first use.
    Rows are written to a C-ordered block of FILL_BLOCK_ROWS rows, which
    goes into the Fortran-ordered result in one slice copy when it is full
    and after the pass; a parent is read from the block when it is still
    there and from the result otherwise.  The same operations meet the
    same values, so the table has the bits of a row-by-row fill.
    """
    rows = np.arange(1, tables.order)
    sites = tables.last_site[1:]
    parents = tables.tmaps[sites, rows]
    plan = np.stack([rows, parents, sites, tables.images[parents, sites],
                     tables.images[parents, sites + 1]], axis=1).tolist()
    parts = functools.cache(lambda s, a, b: step_parts(tables, s, amps[:, a, b]))
    out = np.empty((tables.order, tables.order), dtype=np.complex128, order="F")
    block = np.empty((FILL_BLOCK_ROWS, tables.order), dtype=np.complex128)
    block[0] = a_identity
    start = 0  # rank of block's first row
    for p, parent, s, a, b in plan:
        if p - start == FILL_BLOCK_ROWS:
            out[start:p] = block
            start = p
        source = block[parent - start] if parent >= start else out[parent]
        block[p - start] = yang_apply(parts(s, a, b), source)
    out[start:] = block[:tables.order - start]
    return out


def pair_amplitude_tables(params, k) -> np.ndarray:
    """``scattering.amplitude_columns`` at u = k[a] - k[b] in entry
    [:, a, b], a != b, taken in row-major order, so the first pole in that
    order raises; the diagonal is 0 and unused."""
    k = np.asarray(k, dtype=np.float64)
    pairs = ~np.eye(len(k), dtype=bool)
    out = np.zeros((4, len(k), len(k)), dtype=np.complex128)
    out[:, pairs] = amplitude_columns(params, (k[:, np.newaxis] - k)[pairs])
    return out


def uniform_accepted(rng: np.random.Generator, count: int, width: int, box: float,
                     accept, what: str, condition: str) -> np.ndarray:
    """The first ``count`` rows of [-box, box]^width that ``accept`` (a row
    mask of a (B, width) batch) keeps, drawn ``count`` at a time.  The rows
    and the state ``rng`` is left in are those of a draw-and-test loop.
    Raises ValueError after MAX_DRAWS_PER_SAMPLE * count draws."""
    out = np.empty((count, width), dtype=np.float64)
    got = draws = 0
    while got < count:
        if draws == MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"{what}: {draws} draws in [-box, box]^{width} with box={box} gave only "
                f"{got} of {count} points with {condition}"
            )
        before = rng.bit_generator.state
        x = rng.uniform(-box, box, (count, width))
        good = np.flatnonzero(accept(x))[:count - got]
        draws += count
        if got + len(good) == count:
            # rewind and redraw only the rows up to the last one used
            rng.bit_generator.state = before
            rng.uniform(-box, box, (good[-1] + 1, width))
        out[got:got + len(good)] = x[good]
        got += len(good)
    return out


def sample_panel(seed: int, count: int = 100) -> np.ndarray:
    """Reproducible (u, v) panel in [-PANEL_BOX, PANEL_BOX]^2.

    Rejects draws with |u|, |v| or |u+v| below PANEL_MIN_SEP so the identity
    residuals stay well-conditioned for every coupling choice.  The panel
    is the one a draw-and-test loop gives (``uniform_accepted``), which
    raises ValueError after MAX_DRAWS_PER_SAMPLE * count draws.
    """
    def accept(uv):
        return np.abs([uv[:, 0], uv[:, 1], uv[:, 0] + uv[:, 1]]).min(axis=0) >= PANEL_MIN_SEP

    return uniform_accepted(np.random.default_rng(seed), count, 2, PANEL_BOX, accept,
                            "sample_panel", f"|u|, |v|, |u+v| >= min_sep={PANEL_MIN_SEP}")


@functools.cache
def _pool():
    """The process-wide thread pool of ``thread_map``, made on first use,
    with one worker per CPU this process may run on.  concurrent.futures
    is imported here, so a process that never maps pays nothing for it."""
    from concurrent.futures import ThreadPoolExecutor
    if hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # not on every platform
        workers = os.cpu_count() or 1
    return ThreadPoolExecutor(workers, thread_name_prefix="pointbethe")


def thread_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, the calls run on the process-wide pool.

    Results come back in item order.  If calls raise, the exception of
    the first failing item in that order is raised, the one a loop would
    raise first.  The calls run at once, so ``fn`` must not write shared
    state, and must not itself call ``thread_map``.  numpy releases the
    GIL in its array loops, so calls dominated by them run in parallel.
    """
    return list(_pool().map(fn, *iterables))


@functools.cache
def _blas_thread_setter():
    """``openblas_set_num_threads_local`` looked up on the handle of
    numpy's LAPACK extension, which searches only the extension and its
    own dependencies: the OpenBLAS numpy's linalg calls, not another one
    mapped, such as scipy's.  None where there is no such function.  The
    setter takes a thread count for the calling thread alone and returns
    that thread's previous count."""
    try:
        from numpy.linalg import _umath_linalg
        setter = ctypes.CDLL(_umath_linalg.__file__).openblas_set_num_threads_local
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = ctypes.c_int
    return setter


@contextlib.contextmanager
def one_blas_thread():
    """Run the body's BLAS and LAPACK calls on one OpenBLAS thread.

    The setting is OpenBLAS's per-thread one: other threads, the workers of
    ``thread_map`` among them, keep their count, and the previous value is
    restored on leaving, also when the body raises.  Small factorizations
    run faster on one thread, and their bits no longer depend on how many
    CPUs the process has.  Where ``_blas_thread_setter`` finds no setter
    the body runs as it would without the block.
    """
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)
