"""Paper-definition references the tests compare the package against: the
contact conditions in U-matrix form with their self-adjointness relation,
S_N as 1-based one-line tuples with their composition, inversion counts,
scalar rank recursion and its transposition words, the right regular
representation, the sparse and the dense N! x N! Y_i(u) at one u, the
periodic pattern of its diagonals, the Yang-Baxter relations formed one
sample at a time, the (u, v) panel drawn one candidate at a time, the
factorization panel formed one particle order at a time, the plane waves
gathered point-major, the boundary residuals with their relative momenta
gathered per call, the finite-difference residual of one point and the
pointwise step-phase gauge map, the oracle's odd-site null basis
scattered into a dense stack of tables, the coefficient CSV of ``coeffs``
formatted one entry at a time, and the ``scan`` report built one grid
point at a time.  No command runs them."""

import itertools
import math

import numpy as np

from pointbethe._kernels import (MAX_DRAWS_PER_SAMPLE, PANEL_BLOCK_ENTRIES,
                                 factorization_panel, sample_panel, step_parts,
                                 yang_apply)
from pointbethe.couplings import (FAMILY_TOL, CouplingParameters,
                                  contact_residuals, gauge_data)
from pointbethe.factorization import FAIL_FLOOR, PASS_TOL, _orbit_structure_holds
from pointbethe.permutations import rank_of, symmetric_group
from pointbethe.scattering import amplitudes
from pointbethe.wavefunction import evaluate, evaluate_grid


J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


def u_pm(params) -> tuple[np.ndarray, np.ndarray]:
    """U_+ and U_- of the contact conditions U_+ (psi'_+, psi_+) =
    U_- (psi'_-, psi_-), psi' = d/2 as in ``contact_residuals``:
    U_pm = [[1 +- (gamma - i eta), -+ c/2], [-+ 2 lam, 1 -+ (gamma + i eta)]].
    The boundary matrix U = (U_+)^{-1} U_- exists only where det U_+ != 0."""
    c, lam, gamma, eta = params.astuple()
    g_minus, g_plus = gamma - 1j * eta, gamma + 1j * eta
    return (np.array([[1 + g_minus, -c / 2], [-2 * lam, 1 - g_plus]]),
            np.array([[1 - g_minus, c / 2], [2 * lam, 1 + g_plus]]))


def symplectic_residual(u) -> float:
    """Max-norm residual of U^dag J U - J; zero for a self-adjoint contact."""
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ J @ u - J).max())


def identity(n: int) -> tuple[int, ...]:
    """One-line form, 1-based values, of the identity of S_n."""
    return tuple(range(1, n + 1))


def right_t(q: tuple[int, ...], i: int) -> tuple[int, ...]:
    """q T_i: the entries at positions i, i+1 of q swapped (1 <= i < len(q))."""
    if not 1 <= i < len(q):
        raise ValueError(f"site {i} out of range for N={len(q)}")
    img = list(q)
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def transposition(n: int, i: int) -> tuple[int, ...]:
    """The adjacent transposition T_i of S_n, swapping i and i+1."""
    return right_t(identity(n), i)


def _cycle_to(n: int, nn: int) -> list[int]:
    """One-line form of C_nn = T_{n-nn} ... T_{n-1} (sends n to n - nn)."""
    out = list(range(1, n + 1))
    if nn:
        out[n - nn - 1 : n] = list(range(n - nn + 1, n + 1)) + [n - nn]
    return out


def _cycle_digits(q: tuple[int, ...]):
    """(m, nn) for m = N..2: the cycle C_nn that places entry m, peeled in turn."""
    images = list(q)
    for m in range(len(q), 1, -1):
        nn = m - images[m - 1]
        yield m, nn
        # left-multiply by the inverse of C_nn: entry m moves back to slot m
        images[:m] = [m if v == m - nn else v - (v > m - nn) for v in images[:m]]


def unrank(n: int, j: int) -> tuple[int, ...]:
    """One-line form, 1-based values, of the permutation of S_n at 1-based
    rank j in the descending total order.

    Every rank 1 <= j <= n! factors uniquely as j = nn (n-1)! + k with
    0 <= nn <= n-1, 1 <= k <= (n-1)!, and the permutation of rank j is
    C_nn composed with the rank-k element of S_{n-1} (embedded with n as a
    fixed point), where C_nn = T_{n-nn} T_{n-nn+1} ... T_{n-1} is the cycle
    sending n to n - nn.
    """
    if not 1 <= j <= math.factorial(n):
        raise ValueError(f"rank {j} out of range [1, {math.factorial(n)}]")
    j -= 1
    digits = []
    for m in range(n, 1, -1):
        nn, j = divmod(j, math.factorial(m - 1))
        digits.append((m, nn))
    # build bottom-up: each cycle is left-composed onto the embedded
    # S_{m-1} result, so the smallest block must be assembled first
    images = list(range(1, n + 1))
    for m, nn in reversed(digits):
        cyc = _cycle_to(m, nn)
        images[:m] = [cyc[v - 1] for v in images[:m]]
    return tuple(images)


def rank(q: tuple[int, ...]) -> int:
    """1-based rank of q, inverse of unrank."""
    return 1 + sum(nn * math.factorial(m - 1) for m, nn in _cycle_digits(q))


def decompose(q: tuple[int, ...]) -> list[int]:
    """Word i_1, ..., i_L with q = T_{i_1} T_{i_2} ... T_{i_L}, from the rank
    recursion: peel the cycle C_nn that places the last entry, then recurse
    on the S_{N-1} remainder."""
    return [i for m, nn in _cycle_digits(q) for i in range(m - nn, m)]


def compose(q: tuple[int, ...], r: tuple[int, ...]) -> tuple[int, ...]:
    """Function composition (q r)(i) = q(r(i)); r acts first."""
    if len(q) != len(r):
        raise ValueError(f"size mismatch: {len(q)} vs {len(r)}")
    return tuple(q[v - 1] for v in r)


def inversions(q: tuple[int, ...]) -> int:
    """Number of position pairs a < b with q(a) > q(b)."""
    n = len(q)
    return sum(1 for a in range(n) for b in range(a + 1, n) if q[a] > q[b])


def regular_rep(r: tuple[int, ...]) -> np.ndarray:
    """Right-regular-representation matrix of r on rank-ordered vectors.

    Entry (Q, Q') is 1 exactly when Q' = Q*r, so the matrix acting on a
    coefficient vector A produces (R_hat A)(Q) = A(Q r).
    """
    tables = symmetric_group(len(r))
    # row Q of images[:, r - 1] is the one-line form of Q*r
    cols = rank_of(tables.images[:, np.array(r) - 1])
    return np.eye(tables.order, dtype=np.int64)[cols]


def yang_parts(params, n: int, i: int, u: float):
    """Sparse form of Y_i(u): (diagonal, off-diagonal, column map).

    Row Q holds ``diag[q]`` at column Q and ``off[q]`` at column
    ``tmap[q]`` = rank index of Q T_i; all other entries vanish.  Apply it
    with ``_kernels.yang_apply``.
    """
    if not 1 <= i < n:
        raise ValueError(f"site {i} out of range for N={n}")
    amp = amplitudes(params, u)
    return step_parts(symmetric_group(n), i - 1,
                      (amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus))


def yang_matrix(params, n: int, i: int, u: float) -> np.ndarray:
    """Dense N! x N! Y_i(u): the sparse step applied to the identity."""
    return yang_apply(yang_parts(params, n, i, u), np.eye(math.factorial(n), dtype=complex))


def yang_baxter_per_sample(params, n: int, samples) -> tuple[float, float, float]:
    """(unitarity, braid, commute) maxima of ``yang_baxter_matrix_check``,
    each relation formed one (u, v) sample at a time on the S_m identity
    with one ``yang_parts`` per step, on (u, v) as Python floats."""
    samples = [(float(u), float(v)) for u, v in samples]
    tables = symmetric_group(n)

    def product(m, *steps):  # Y_{i_L}(w_L) ... Y_{i_1}(w_1) on the S_m identity
        out = np.eye(math.factorial(m), dtype=np.complex128)
        for i, w in steps:
            out = yang_apply(yang_parts(params, m, i, w), out)
        return out

    relations = (
        ([(i - 1, i) for i in range(1, n)],
         lambda u, v: product(2, (1, u), (1, -u)) - product(2)),
        ([(i - 1, i, i + 1) for i in range(1, n - 1)],
         lambda u, v: product(3, (1, u), (2, u + v), (1, v))
         - product(3, (2, v), (1, u + v), (2, u))),
        ([(i - 1, i, j - 1, j) for i in range(1, n) for j in range(i + 2, n)],
         lambda u, v: product(4, (3, v), (1, u)) - product(4, (1, u), (3, v))),
    )
    maxima = []
    for sets, residual in relations:
        holds = all(_orbit_structure_holds(tables, p) for p in sets)
        values = [np.abs(residual(u, v)).max() for u, v in samples] if sets and holds else []
        maxima.append(float(np.max(values, initial=0.0)) if holds else math.inf)
    return tuple(maxima)


def sample_panel_one_by_one(seed: int, count: int = 100, box: float = 5.0,
                            min_sep: float = 0.25) -> np.ndarray:
    """``_kernels.sample_panel`` as a draw-and-test loop, one (u, v)
    candidate per ``rng.uniform`` call."""
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


def _amplitude_arrays_one_sign(c, lam, gamma, eta, u):
    """(S_T, S_R) of one particle order over an array of u: the closed
    form of ``scattering`` with its own denominator."""
    den = 1j * lam * u * u - (gamma * gamma + eta * eta + c * lam + 1.0) * u - 1j * c
    num_t = (gamma * gamma + eta * eta - 2j * eta + c * lam - 1.0) * u
    num_r = 1j * lam * u * u + 2.0 * gamma * u + 1j * c
    return num_t / den, num_r / den


def factorization_panel_per_sign(params_grid, us, vs) -> np.ndarray:
    """``_kernels.factorization_panel`` with one amplitude call per sign and
    argument, and the thirteen identities written out term by term."""
    params_grid = np.atleast_2d(np.asarray(params_grid, dtype=np.float64))
    us = np.atleast_1d(np.asarray(us, dtype=np.float64))
    vs = np.atleast_1d(np.asarray(vs, dtype=np.float64))
    out = np.empty((params_grid.shape[0], 13), dtype=np.float64)
    step = max(1, PANEL_BLOCK_ENTRIES // max(1, len(us)))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, params_grid.shape[0], step):
            c, lam, gamma, eta = params_grid[start:start + step, :, np.newaxis].transpose(1, 0, 2)
            amps = []
            for sign in (1.0, -1.0):
                for x in (us, -us, vs, us + vs):
                    amps += _amplitude_arrays_one_sign(c, lam, sign * gamma, sign * eta, x)
            (stp_u, srp_u, stp_mu, srp_mu, stp_v, srp_v, stp_w, srp_w,
             stm_u, srm_u, stm_mu, srm_mu, stm_v, srm_v, stm_w, srm_w) = amps
            residuals = (
                srp_u * srp_mu + stm_u * stp_mu - 1.0,
                srm_u * srm_mu + stp_u * stm_mu - 1.0,
                srp_u * stm_mu + stm_u * srm_mu,
                srm_u * stp_mu + stp_u * srp_mu,
                srm_v * srp_w * srm_u - srp_u * srm_w * srp_v,
                srp_v * stp_w * stm_u - stp_u * stm_w * srp_v,
                srm_v * stm_w * stp_u - stm_u * stp_w * srm_v,
                srp_v * srp_w * stm_u + stm_v * srp_w * srm_u - srp_u * stm_w * srp_v,
                srm_v * srp_w * stp_u + stp_v * srp_w * srp_u - srp_u * stp_w * srp_v,
                srm_v * srm_w * stp_u + stp_v * srm_w * srp_u - srm_u * stp_w * srm_v,
                srp_v * srm_w * stm_u + stm_v * srp_w * srm_u - srm_u * stm_w * srp_v,
                srp_v * srm_w * stm_u + stm_v * srm_w * srm_u - srm_u * stm_w * srm_v,
                srm_v * srp_w * stp_u + stp_v * srm_w * srp_u - srp_u * stp_w * srm_v,
            )
            block = out[start:start + step]
            for e, r in enumerate(residuals):
                block[:, e] = np.abs(r).max(axis=1)
    out[~np.isfinite(out).all(axis=1)] = np.inf
    return out


def build_s_diagonals_periodic(params, n: int, i: int, u: float):
    """The diagonals of S_R^i and S_T^i from their closed index pattern.

    Within each period of length (i+1)!, position j = n'*i! + k (1-based,
    1 <= k <= i!) takes the (S_R^-, S_T^+) pair when k <= n'*(i-1)! and
    the (S_R^+, S_T^-) pair otherwise.
    """
    if not 1 <= i < n:
        raise ValueError(f"site {i} out of range for N={n}")
    amp = amplitudes(params, u)
    # n' and k - 1 of every position j in its period
    n_digit, k0 = divmod(np.arange(math.factorial(n)) % math.factorial(i + 1), math.factorial(i))
    minus = k0 < n_digit * math.factorial(i - 1)
    return (np.where(minus, amp.s_r_minus, amp.s_r_plus),
            np.where(minus, amp.s_t_plus, amp.s_t_minus))


def gauge_map(state, x) -> complex:
    """psi(x) exp(-i alpha sum_{j<k} step(x_j - x_k)) for a (c, 0, 0, eta)
    state, exp(i alpha) = (1 + i eta)/(1 - i eta), with the steps counted
    from x and step(0) = 1/2.  Raises NotGaugeFamily off the family and
    ValueError unless x holds N finite coordinates (through ``evaluate``)."""
    alpha = gauge_data(state.params).alpha
    value = evaluate(state, x)
    x = np.asarray(x, dtype=np.float64)
    steps = np.triu(np.heaviside(np.subtract.outer(x, x), 0.5), 1).sum()
    return value * np.exp(-1j * alpha * steps)


def plane_waves_point_major(k, images, xq) -> np.ndarray:
    """``_kernels.plane_waves`` with its factors laid out [point, position,
    momentum] and gathered with one fancy index per position, which leaves
    the (M, F) waves Fortran-ordered."""
    factors = np.exp(1j * (k[np.newaxis, np.newaxis, :] * xq[:, :, np.newaxis]))
    waves = factors[:, 0, images[:, 0]]
    for j in range(1, images.shape[1]):
        waves *= factors[:, j, images[:, j]]
    return waves


def boundary_residual_gathered(state, j: int, kk: int, samples) -> tuple[float, float]:
    """``wavefunction.boundary_residual`` on valid samples, with point-major
    plane waves, the relative momenta gathered from the momenta in every
    call, and each product with the wedge rows in a fresh array."""
    x = np.asarray(samples, dtype=np.float64).reshape(len(samples), state.n)
    tables = state.tables
    pinned = x.copy()
    pinned[:, kk - 1] = x[:, j - 1]
    order = np.argsort(pinned, axis=1, kind="stable")
    site = (order == j - 1).argmax(axis=1)
    q_idx = rank_of(order)
    qt_idx = tables.tmaps[site, q_idx]
    waves = plane_waves_point_major(state.k, tables.images, np.take_along_axis(x, order, axis=1))
    k_at = state.k[tables.images.T]
    du = 1j * (k_at[site] - k_at[site + 1])
    below = state.columns[q_idx] * waves
    above = state.columns[qt_idx] * waves
    v_minus = below.sum(axis=1)
    d_minus = (below * du).sum(axis=1)
    v_plus = above.sum(axis=1)
    d_plus = (above * (-du)).sum(axis=1)
    r1, r2 = contact_residuals(state.params, v_minus, d_minus, v_plus, d_plus)
    return float(np.hypot(r1.real, r1.imag).max()), float(np.hypot(r2.real, r2.imag).max())


def schrodinger_fd_residual_one_point(state, x, h: float) -> float:
    """|FD Laplacian psi + E psi| at one valid point x, its 2N + 1 stencil
    points in one ``evaluate_grid`` call and the result a scalar abs()."""
    steps = h * np.eye(state.n)
    vals = evaluate_grid(state, np.vstack([x, x + steps, x - steps]))
    center, plus, minus = vals[0], vals[1:state.n + 1], vals[state.n + 1:]
    lap = np.sum((plus - 2 * center + minus) / h**2)
    return abs(lap + state.energy * center)


def dense_null_basis(orbit, block) -> np.ndarray:
    """The basis of ``bethe._odd_site_null_basis`` as a dense stack of
    tables, shape (N!, N!, g^2 2^m): B[orbit[i, a], orbit[j, b],
    (i g + j) 2^m + l] = block[i, a, b, l] and zero elsewhere."""
    g, r = orbit.shape
    f = orbit.size
    basis = np.zeros((f, f, g * g * r), dtype=np.complex128)
    squares = r * np.arange(g * g).reshape(g, g, 1, 1, 1) + np.arange(r)
    basis[orbit[:, np.newaxis, :, np.newaxis, np.newaxis],
          orbit[np.newaxis, :, np.newaxis, :, np.newaxis], squares] = block[:, np.newaxis]
    return basis


def coefficient_csv_lines(table) -> list[str]:
    """The ``p_rank,q_rank,re_a,im_a`` lines of a table, one ``%`` call per
    entry, P outer and Q inner, both ranks 1-based."""
    return ["%d,%d,%.17g,%.17g" % (p, q, a.real, a.imag)
            for p, row in enumerate(table.tolist(), 1) for q, a in enumerate(row, 1)]


def family_per_point(params) -> str | None:
    """The family rule of ``couplings.integrable_family`` as a chain of
    scalar tests: family 1 first, each condition to within FAMILY_TOL."""
    c, lam, gamma, eta = params.astuple()
    if abs(lam) <= FAMILY_TOL and abs(gamma) <= FAMILY_TOL:
        return "family1"
    if abs(gamma) <= FAMILY_TOL and abs(eta) <= FAMILY_TOL and abs(c * lam - 1.0) <= FAMILY_TOL:
        return "family2"
    return None


def scan_report_per_point(grid) -> tuple[str, str]:
    """``scan_to_csv`` of ``scan_couplings(grid)`` and the summary line of
    ``scan``, one grid point at a time: its ``CouplingParameters``, its
    ``family_per_point`` verdict and one f-string row."""
    panel = sample_panel(grid.seed, grid.panel_size)
    points = list(itertools.product(grid.c_values, grid.lam_values,
                                    grid.gamma_values, grid.eta_values))
    maxima = factorization_panel(np.array(points, dtype=np.float64),
                                 panel[:, 0], panel[:, 1]).max(axis=1)
    lines = ["c,lambda,gamma,eta,class,max_residual"]
    bad = 0
    for point, max_residual in zip(points, maxima.tolist()):
        params = CouplingParameters(*point)
        family = family_per_point(params)
        c, lam, gamma, eta = params.astuple()
        lines.append(f"{c:.17g},{lam:.17g},{gamma:.17g},{eta:.17g},"
                     f"{family or 'not_integrable'},{max_residual:.17g}")
        bad += not (max_residual <= PASS_TOL if family else max_residual >= FAIL_FLOOR)
    return ("\n".join(lines) + "\n",
            f"grid points: {len(points)}, inconsistent classifications: {bad}")
