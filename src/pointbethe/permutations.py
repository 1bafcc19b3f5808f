"""The symmetric group S_N as rank-indexed tables, which index coefficient vectors.

Conventions, all of which are load-bearing for the rest of the package:

* A permutation Q is its one-line form with 0-based values: row q of
  ``images`` is (Q(1) - 1, ..., Q(N) - 1).
* Composition is function composition, ``(Q*R)(i) = Q(R(i))``, so in a
  product the rightmost factor acts first.  Right-multiplying by the
  adjacent transposition ``T_i`` swaps the entries at positions i, i+1 of
  the one-line form; ``tmaps[i-1]`` maps rank indices to those products.
* Total order: compare the sequences a_m = Q(N-m+1) - Q'(N-m+1) for
  m = 1..N; Q > Q' when the first nonzero a_m is positive, which is the
  lexicographic order of the reversed one-line forms (Q(N), ..., Q(1)).
  The 0-based rank index counts down this order, so the identity has rank
  index 0.  For S_3 the rank order is (123), (213), (132), (312), (231),
  (321).  ``rank_of`` maps orderings to rank indices.
* Canonical words: Q other than the identity has the parent Q T_i, i - 1 =
  ``last_site[q]`` its first descent, which has one inversion fewer and a
  smaller rank index.  The word of Q is the word of its parent followed by
  i, so the words are reduced and prefix-closed, and one pass in rank order
  meets every parent before its children.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import whole_number


@dataclass(frozen=True)
class SymmetricGroupTables:
    """Precomputed per-N lookup tables shared by the Bethe machinery.

    Everything is indexed by 0-based rank (rank(Q) - 1), which is the
    position of Q's reversed one-line form in descending lexicographic
    order.  ``images`` holds 0-based one-line forms.  ``tmaps[i-1][q]`` is
    the rank index of Q*T_i.  ``asc[i-1][q]`` is True when Q(i) < Q(i+1).
    ``last_site[q]`` is i-1 for the last letter i of Q's canonical word;
    the words are prefix-closed, so Q*T_i has the word of Q minus that
    letter and a smaller rank.
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
    # last letter of the canonical word = first descent = count of leading ascents
    last_site = asc.cumprod(axis=0).sum(axis=0)
    last_site[0] = -1

    return SymmetricGroupTables(
        n=n, order=order, images=images, tmaps=tmaps, asc=asc, signs=signs,
        inversion_counts=inv_counts, last_site=last_site,
    )
