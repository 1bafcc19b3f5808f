"""Hot numeric kernels in numpy.

Four inner loops dominate runtime at scale: factorization-identity
residual panels (coupling scans evaluate them at every grid point),
plane-wave sums over position batches, the one-step operator Y_i(u)
and filling the full coefficient table over all N! momentum permutations.

``factorization_panel`` broadcasts blocks of coupling-grid rows against
the whole (u, v) panel at once; a block holds at most PANEL_BLOCK_ENTRIES
rows x samples, so memory stays flat in the grid size, and each of the
thirteen identities is reduced to its per-row maximum as soon as it is
formed.  Results are bit-identical to evaluating one row at a time.

``plane_waves`` is the one place that forms the waves exp(i k_P . x_Q);
``eval_grid``, ``wavefunction.evaluate`` and ``boundary_residual`` use it.
Each wave is a product of the N^2 phase factors exp(i k_a x_j) of its
point, so M points cost M N^2 exponentials, not M N!.  ``propagate_table``
builds the parts of every Y step it can take before its rank-order pass.

Layout contracts (all indices 0-based):
* ``images[(F, N)]``: rank-ordered one-line forms, values 0..N-1.
* ``tmaps[(N-1, F)]``, ``asc[(N-1, F)]``: right-multiplication index map
  and ascent flags per transposition site.
* ``last_site[(F,)]``: last letter of each canonical word, -1 for the
  identity.
* amplitude pair tables ``srp, srm, stp, stm[(N, N)]``: entry (a, b) is
  the amplitude at u = k[a] - k[b].
* Panel kernels return np.inf for residuals whose amplitudes hit the
  pole guard; callers translate that to PoleAtU.
"""

from __future__ import annotations

import numpy as np

from .permutations import SymmetricGroupTables, rank_of
from .scattering import amplitude_arrays, amplitudes

BACKEND = "numpy"

# Rejection samplers give up, with a ValueError, after this many draws per
# requested sample.
MAX_DRAWS_PER_SAMPLE = 1000

# A panel call broadcasts a block of grid rows against the whole (u, v)
# sample panel: couplings as (B, 1) columns, samples as (M,) rows.  Blocks
# hold at most PANEL_BLOCK_ENTRIES grid-row x sample entries (at least one
# row), which caps each complex (B, M) temporary at 64 kB, and the sixteen
# amplitude arrays of a block at 1 MB, whatever the grid size.
PANEL_BLOCK_ENTRIES = 4096


def _identities(a):
    """The thirteen factorization identities, one (B, M) residual at a time.

    Each is bilinear or trilinear in the amplitude evaluations at u, -u, v
    and u+v; they are written out explicitly to keep the kernel flat, and
    yielded one by one so the caller can reduce each before the next is
    formed.
    """
    (stp_u, srp_u, stp_mu, srp_mu, stp_v, srp_v, stp_w, srp_w,
     stm_u, srm_u, stm_mu, srm_mu, stm_v, srm_v, stm_w, srm_w) = a
    yield srp_u * srp_mu + stm_u * stp_mu - 1.0
    yield srm_u * srm_mu + stp_u * stm_mu - 1.0
    yield srp_u * stm_mu + stm_u * srm_mu
    yield srm_u * stp_mu + stp_u * srp_mu
    yield srm_v * srp_w * srm_u - srp_u * srm_w * srp_v
    yield srp_v * stp_w * stm_u - stp_u * stm_w * srp_v
    yield srm_v * stm_w * stp_u - stm_u * stp_w * srm_v
    yield srp_v * srp_w * stm_u + stm_v * srp_w * srm_u - srp_u * stm_w * srp_v
    yield srm_v * srp_w * stp_u + stp_v * srp_w * srp_u - srp_u * stp_w * srp_v
    yield srm_v * srm_w * stp_u + stp_v * srm_w * srp_u - srm_u * stp_w * srm_v
    yield srp_v * srm_w * stm_u + stm_v * srp_w * srm_u - srm_u * stm_w * srp_v
    yield srp_v * srm_w * stm_u + stm_v * srm_w * srm_u - srm_u * stm_w * srm_v
    yield srm_v * srp_w * stp_u + stp_v * srm_w * srp_u - srp_u * stp_w * srm_v


def factorization_panel(params_grid: np.ndarray, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Max |residual| of each identity over the (u, v) panel, per grid row.

    Rows whose amplitudes hit the pole guard anywhere on the panel are inf.
    """
    params_grid = np.atleast_2d(np.asarray(params_grid, dtype=np.float64))
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    vs = np.atleast_1d(np.asarray(vs, dtype=np.float64))
    samples = (us, -us, vs, us + vs)
    out = np.empty((params_grid.shape[0], 13), dtype=np.float64)
    step = max(1, PANEL_BLOCK_ENTRIES // max(1, len(us)))
    for start in range(0, params_grid.shape[0], step):
        c, lam, gamma, eta = params_grid[start:start + step, :, np.newaxis].transpose(1, 0, 2)
        amps, ok = [], True
        for sign in (1.0, -1.0):
            for x in samples:
                s_t, s_r, good = amplitude_arrays(c, lam, sign * gamma, sign * eta, x)
                amps += (s_t, s_r)
                ok = ok & good
        block = out[start:start + step]
        for e, r in enumerate(_identities(amps)):
            block[:, e] = np.abs(r).max(axis=1)
        block[~ok.all(axis=1)] = np.inf
    return out


def plane_waves(k, images, xq) -> np.ndarray:
    """exp(i sum_j k[P(j)] xq[m, j]) for every row m of xq and row P of images.

    Returns shape (M, F).  Each wave is the product of N of the N^2 phase
    factors exp(i k[a] xq[m, j]) of its row: M N^2 exponentials and
    (N-1) M N! complex products, not M N! exponentials of summed phases.
    All of it is elementwise, not a matrix product, so a row gives the
    same bits alone or in any batch.
    """
    factors = np.exp(1j * (k[np.newaxis, np.newaxis, :] * xq[:, :, np.newaxis]))
    waves = factors[:, 0, images[:, 0]]
    for j in range(1, images.shape[1]):
        waves *= factors[:, j, images[:, j]]
    return waves


def eval_grid(points, k, table, images) -> np.ndarray:
    """Bethe-ansatz wavefunction on a batch of generic (tie-free) points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    order = np.argsort(points, axis=1, kind="stable")  # wedge images per point
    xq = np.take_along_axis(points, order, axis=1)
    waves = plane_waves(k, images, xq)
    return (table.T[rank_of(order)] * waves).sum(axis=1)


def step_parts(tables: SymmetricGroupTables, s: int, sr_plus, sr_minus, st_plus, st_minus):
    """Sparse form of Y at 0-based site s: (diagonal, off-diagonal, column map).

    Row Q holds ``diag[q]`` at column Q and ``off[q]`` at column
    ``tmap[q]`` = rank index of Q T_{s+1}: S_R^+ and S_T^- where
    Q(s+1) < Q(s+2), S_R^- and S_T^+ elsewhere.  ``s`` may also index
    several sites of ``tables.asc`` and ``tables.tmaps`` at once, with
    amplitudes that broadcast against the selected rows.
    """
    asc = tables.asc[s]
    return np.where(asc, sr_plus, sr_minus), np.where(asc, st_minus, st_plus), tables.tmaps[s]


def yang_apply(parts, target: np.ndarray) -> np.ndarray:
    """Left-multiply the sparse Y given by ``parts`` onto a vector or matrix.

    O(N!) per vector column, against O(N!^2) for the dense form.
    """
    diag, off, tmap = parts
    if target.ndim == 2:
        diag, off = diag[:, np.newaxis], off[:, np.newaxis]
    return diag * target + off * target[tmap]


def propagate_table(a_identity, tables: SymmetricGroupTables,
                    srp, srm, stp, stm) -> np.ndarray:
    """Fill A_P for every P, each row one Y step from its parent row.

    The canonical words of ``decompose`` are prefix-closed: dropping the
    last letter i of the word for P leaves the word for its parent
    P T_i, whose rank is smaller.  So one pass in rank order finds every
    parent row ready, and each row goes through exactly the operations
    of stepping along its whole word.
    """
    # the parts of every step, indexed [site, ka, kb], built at once
    diag, off, _ = step_parts(tables, np.s_[:, np.newaxis, np.newaxis],
                              srp[..., np.newaxis], srm[..., np.newaxis],
                              stp[..., np.newaxis], stm[..., np.newaxis])
    out = np.empty((tables.order, tables.order), dtype=np.complex128)
    out[0] = a_identity
    for p in range(1, tables.order):
        s = tables.last_site[p]
        parent = tables.tmaps[s, p]
        ka, kb = tables.images[parent, s], tables.images[parent, s + 1]
        out[p] = yang_apply((diag[s, ka, kb], off[s, ka, kb], tables.tmaps[s]), out[parent])
    return out


def pair_amplitude_tables(params, k):
    """Amplitude lookup tables over ordered momentum pairs.

    Entry (a, b), a != b, holds the amplitude at u = k[a] - k[b]; the
    diagonal is unused.  Raises PoleAtU via the scalar evaluator.
    """
    k = np.asarray(k, dtype=np.float64)
    n = len(k)
    srp = np.zeros((n, n), dtype=np.complex128)
    srm = np.zeros((n, n), dtype=np.complex128)
    stp = np.zeros((n, n), dtype=np.complex128)
    stm = np.zeros((n, n), dtype=np.complex128)
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            amp = amplitudes(params, k[a] - k[b])
            srp[a, b] = amp.s_r_plus
            srm[a, b] = amp.s_r_minus
            stp[a, b] = amp.s_t_plus
            stm[a, b] = amp.s_t_minus
    return srp, srm, stp, stm


def sample_panel(seed: int, count: int = 100, box: float = 5.0, min_sep: float = 0.25) -> np.ndarray:
    """Reproducible (u, v) panel in [-box, box]^2 avoiding pole bands.

    Rejects draws with |u|, |v| or |u+v| below min_sep so the identity
    residuals stay well-conditioned for every coupling choice.  Raises
    ValueError after MAX_DRAWS_PER_SAMPLE * count draws.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, 2), dtype=np.float64)
    got = draws = 0
    while got < count:
        if draws == MAX_DRAWS_PER_SAMPLE * count:
            raise ValueError(
                f"sample_panel: {draws} draws in [-box, box]^2 with box={box} gave only "
                f"{got} of {count} points with |u|, |v|, |u+v| >= min_sep={min_sep}"
            )
        draws += 1
        u, v = rng.uniform(-box, box, 2)
        if min(abs(u), abs(v), abs(u + v)) < min_sep:
            continue
        out[got] = (u, v)
        got += 1
    return out
