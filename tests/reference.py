"""Paper-definition references the tests compare the package against: the
scalar rank recursion, the right regular representation, the dense N! x N!
Y_i(u), the periodic pattern of its diagonals and the pointwise step-phase
gauge map.  No command runs them."""

import math

import numpy as np

from pointbethe._kernels import yang_apply
from pointbethe.bethe import yang_parts
from pointbethe.couplings import gauge_data
from pointbethe.permutations import (Permutation, _cycle_digits, rank_of,
                                     symmetric_group)
from pointbethe.scattering import amplitudes
from pointbethe.wavefunction import evaluate


def _cycle_to(n: int, nn: int) -> list[int]:
    """One-line form of C_nn = T_{n-nn} ... T_{n-1} (sends n to n - nn)."""
    out = list(range(1, n + 1))
    if nn:
        out[n - nn - 1 : n] = list(range(n - nn + 1, n + 1)) + [n - nn]
    return out


def unrank(n: int, j: int) -> Permutation:
    """Permutation of S_n at 1-based rank j in the descending total order."""
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
    return Permutation(tuple(images))


def rank(q: Permutation) -> int:
    """1-based rank of q, inverse of unrank."""
    return 1 + sum(nn * math.factorial(m - 1) for m, nn in _cycle_digits(q))


def regular_rep(r: Permutation) -> np.ndarray:
    """Right-regular-representation matrix of r on rank-ordered vectors.

    Entry (Q, Q') is 1 exactly when Q' = Q*r, so the matrix acting on a
    coefficient vector A produces (R_hat A)(Q) = A(Q r).
    """
    tables = symmetric_group(r.n)
    # row Q of images[:, r - 1] is the one-line form of Q*r
    cols = rank_of(tables.images[:, np.array(r.images) - 1])
    return np.eye(tables.order, dtype=np.int64)[cols]


def yang_matrix(params, n: int, i: int, u: float) -> np.ndarray:
    """Dense N! x N! Y_i(u): the sparse step applied to the identity."""
    return yang_apply(yang_parts(params, n, i, u), np.eye(math.factorial(n), dtype=complex))


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
