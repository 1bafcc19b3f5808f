"""Permutations of S_N with the total order used to index coefficient vectors.

Conventions, all of which are load-bearing for the rest of the package:

* One-line notation with 1-based values: ``Permutation((2, 1, 3))`` maps
  1 -> 2, 2 -> 1, 3 -> 3.
* Composition is function composition, ``(Q*R)(i) = Q(R(i))``, so in a
  product the rightmost factor acts first.  Right-multiplying by the
  adjacent transposition ``T_i`` swaps the entries at positions i, i+1 of
  the one-line form.
* Total order: compare the sequences a_m = Q(N-m+1) - Q'(N-m+1) for
  m = 1..N; Q > Q' when the first nonzero a_m is positive, which is the
  lexicographic order of the reversed one-line forms (Q(N), ..., Q(1)).
  Ranks are 1-based and assigned in *descending* order, so the identity
  has rank 1.  For S_3 the rank order is (123), (213), (132), (312),
  (231), (321).
* Every rank 1 <= j <= N! factors uniquely as j = n*(N-1)! + k with
  0 <= n <= N-1, 1 <= k <= (N-1)!, and the permutation of rank j is
  C_n composed with the rank-k element of S_{N-1} (embedded with N as a
  fixed point), where C_n = T_{N-n} T_{N-n+1} ... T_{N-1} is the cycle
  sending N to N-n.  ``decompose`` unrolls this recursion into a word in
  the adjacent transpositions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import whole_number


@dataclass(frozen=True)
class Permutation:
    """Element of S_N in one-line notation (1-based values)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def right_t(self, i: int) -> "Permutation":
        """Right-multiply by the adjacent transposition T_i (1 <= i < N)."""
        whole_number(i, "transposition index i", 1, self.n - 1)
        img = list(self.images)
        img[i - 1], img[i] = img[i], img[i - 1]
        return Permutation(tuple(img))


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def transposition(n: int, i: int) -> Permutation:
    """The adjacent transposition T_i in S_n, swapping i and i+1."""
    return identity(n).right_t(i)


def _cycle_digits(q: Permutation):
    """(m, nn) for m = N..2: the cycle C_nn that places entry m, peeled in turn."""
    images = list(q.images)
    for m in range(q.n, 1, -1):
        nn = m - images[m - 1]
        yield m, nn
        # left-multiply by the inverse of C_nn: entry m moves back to slot m
        images[:m] = [m if v == m - nn else v - (v > m - nn) for v in images[:m]]


def decompose(q: Permutation) -> list[int]:
    """Word i_1, ..., i_L with q = T_{i_1} T_{i_2} ... T_{i_L}.

    Built from the rank recursion: peel the cycle C_n = T_{N-n}...T_{N-1}
    that places the last entry, then recurse on the S_{N-1} remainder.
    The word multiplies out left to right: q = T_{i_1} ... T_{i_L}.
    """
    return [i for m, nn in _cycle_digits(q) for i in range(m - nn, m)]


@dataclass(frozen=True)
class SymmetricGroupTables:
    """Precomputed per-N lookup tables shared by the Bethe machinery.

    Everything is indexed by 0-based rank (rank(Q) - 1), which is the
    position of Q's reversed one-line form in descending lexicographic
    order.  ``images`` holds 0-based one-line forms.  ``tmaps[i-1][q]`` is
    the rank index of Q*T_i.  ``asc[i-1][q]`` is True when Q(i) < Q(i+1).
    ``last_site[q]`` is i-1 for the last letter i of ``decompose(Q)``; the
    canonical words are prefix-closed, so Q*T_i has the word of Q minus
    that letter and a smaller rank.
    """

    n: int
    order: int
    images: np.ndarray          # (order, n) int64, 0-based values
    tmaps: np.ndarray           # (n-1, order) int64
    asc: np.ndarray             # (n-1, order) bool
    signs: np.ndarray           # (order,) int64
    inversion_counts: np.ndarray  # (order,) int64
    last_site: np.ndarray         # (order,) int64, -1 for the identity


def rank_of(orders0) -> np.ndarray:
    """Rank indices of 0-based orderings along the last axis, O(N^2) each:
    N! - 1 minus the lexicographic Lehmer code of the reversed ordering."""
    reversed0 = np.asarray(orders0)[..., ::-1]
    n = reversed0.shape[-1]
    code = np.zeros(reversed0.shape[:-1], dtype=np.int64)
    for j in range(n):
        smaller = (reversed0[..., j + 1:] < reversed0[..., j, np.newaxis]).sum(axis=-1)
        code = code * (n - j) + smaller
    return math.factorial(n) - 1 - code


# typed: 2.0 and True reach the check instead of the entries of 2 and 1
@lru_cache(maxsize=None, typed=True)
def symmetric_group(n: int) -> SymmetricGroupTables:
    """Tables for S_n in rank order.  Cost and memory grow like N!."""
    whole_number(n, "n", 1)
    order = math.factorial(n)
    # permutations of a descending input come in descending lexicographic order
    reversed_forms = np.array(list(itertools.permutations(range(n - 1, -1, -1))), dtype=np.int64)
    images = np.ascontiguousarray(reversed_forms[:, ::-1])

    # swapped[s] holds every one-line form with positions s, s+1 exchanged
    swapped = np.repeat(images[np.newaxis], n - 1, axis=0)
    for s in range(n - 1):
        swapped[s][:, [s, s + 1]] = images[:, [s + 1, s]]
    tmaps = rank_of(swapped)
    asc = np.ascontiguousarray((images[:, :-1] < images[:, 1:]).T)

    inv_counts = np.triu(images[:, :, np.newaxis] > images[:, np.newaxis, :], 1).sum(axis=(1, 2))
    signs = 1 - 2 * (inv_counts % 2)
    # last letter of decompose(Q) = first descent = count of leading ascents
    last_site = asc.cumprod(axis=0).sum(axis=0)
    last_site[0] = -1

    return SymmetricGroupTables(
        n=n, order=order, images=images, tmaps=tmaps, asc=asc, signs=signs,
        inversion_counts=inv_counts, last_site=last_site,
    )
