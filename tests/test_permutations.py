import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe.permutations import rank_of, symmetric_group
from reference import (compose, decompose, identity, inversions, rank,
                       regular_rep, right_t, transposition, unrank)

# the rank order of S_3, largest permutation first
S3_ORDER = [(1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 1, 2), (2, 3, 1), (3, 2, 1)]

T1_HAT = np.array([
    [0, 1, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0],
])

T2_HAT = np.array([
    [0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0],
    [1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0],
])


def test_unrank_s3_table():
    assert [unrank(3, j) for j in range(1, 7)] == S3_ORDER


def test_unrank_s2():
    assert unrank(2, 1) == (1, 2)
    assert unrank(2, 2) == (2, 1)


def test_rank_unrank_roundtrip_s4():
    for j in range(1, 25):
        assert rank(unrank(4, j)) == j


def test_rank_out_of_range():
    with pytest.raises(ValueError):
        unrank(3, 0)
    with pytest.raises(ValueError):
        unrank(3, 7)


@pytest.mark.parametrize("n", range(1, 7))
def test_order_is_descending_and_exhaustive(n):
    perms = [unrank(n, j) for j in range(1, math.factorial(n) + 1)]
    assert set(perms) == set(itertools.permutations(range(1, n + 1)))
    for a, b in zip(perms, perms[1:]):
        assert a[::-1] > b[::-1]


def test_compare_examples():
    # the order sorts reversed one-line forms; the larger permutation has
    # the larger sort key and the smaller rank index
    for big, small in [((1, 2, 3), (3, 2, 1)), ((2, 1, 3), (1, 3, 2))]:
        assert big[::-1] > small[::-1]
        assert rank_of(np.array(big) - 1) < rank_of(np.array(small) - 1)
    q = (2, 3, 1)
    assert rank_of(np.array(q) - 1) == rank(q) - 1


def test_compose_convention():
    t1 = transposition(3, 1)
    t2 = transposition(3, 2)
    q = (2, 3, 1)
    assert compose(identity(3), q) == q
    # q(r(i)): t2 applied after t1 sends 1 -> 3
    assert compose(t2, t1) == (3, 1, 2)
    assert compose(t1, t1) == identity(3)
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_right_t_swaps_positions():
    q = (2, 3, 1)
    assert right_t(q, 1) == (3, 2, 1)
    assert right_t(q, 2) == (2, 1, 3)
    with pytest.raises(ValueError):
        right_t(q, 3)


# the reference recursion's words, which the tree's canonical words must equal
def test_decompose_examples():
    assert decompose(identity(4)) == []
    assert decompose((3, 1, 2)) == [2, 1]
    assert decompose((2, 3, 1)) == [1, 2]


@pytest.mark.parametrize("n", range(2, 6))
def test_decompose_recomposes_exhaustively(n):
    for q in itertools.permutations(range(1, n + 1)):
        acc = identity(n)
        for i in decompose(q):
            acc = compose(acc, transposition(n, i))
        assert acc == q


@pytest.mark.parametrize("n", range(2, 6))
def test_decompose_words_are_reduced(n):
    # the recursion emits one step per inversion, so words are minimal
    for q in itertools.permutations(range(1, n + 1)):
        assert len(decompose(q)) == inversions(q)


def tree_word(tables, p: int) -> list[int]:
    """The canonical word of rank index p, read from the parent tree."""
    word = []
    while p > 0:
        word.insert(0, int(tables.last_site[p]) + 1)
        p = int(tables.tmaps[tables.last_site[p], p])
    return word


@settings(deadline=None)
@given(st.data())
def test_canonical_words_from_the_tree(data):
    # prefix-closed, reduced and equal to the rank recursion's word
    n = data.draw(st.integers(1, 6))
    tables = symmetric_group(n)
    p = data.draw(st.integers(0, tables.order - 1))
    word = tree_word(tables, p)
    assert len(word) == tables.inversion_counts[p]
    run = identity(n)
    for i in word:
        run = right_t(run, i)
    assert run == tuple(tables.images[p] + 1)
    assert word == decompose(unrank(n, p + 1))


def test_regular_rep_identity():
    assert (regular_rep(identity(3)) == np.eye(6)).all()


def test_regular_rep_golden_6x6():
    assert (regular_rep(transposition(3, 1)) == T1_HAT).all()
    assert (regular_rep(transposition(3, 2)) == T2_HAT).all()


@pytest.mark.parametrize("n", range(2, 6))
def test_regular_rep_transpositions_are_involutions(n):
    for i in range(1, n):
        m = regular_rep(transposition(n, i))
        assert (m @ m == np.eye(math.factorial(n))).all()
        # permutation matrix: single 1 per row and column
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()


@pytest.mark.parametrize("n", range(2, 6))
def test_regular_rep_homomorphism(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        r = tuple((rng.permutation(n) + 1).tolist())
        s = tuple((rng.permutation(n) + 1).tolist())
        lhs = regular_rep(r) @ regular_rep(s)
        assert (lhs == regular_rep(compose(r, s))).all()


@pytest.mark.parametrize("n", range(3, 6))
def test_regular_rep_braid_relations(n):
    hats = [regular_rep(transposition(n, i)) for i in range(1, n)]
    for i in range(n - 2):
        lhs = hats[i] @ hats[i + 1] @ hats[i]
        rhs = hats[i + 1] @ hats[i] @ hats[i + 1]
        assert (lhs == rhs).all()
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            assert (hats[i] @ hats[j] == hats[j] @ hats[i]).all()


def test_tables_consistency():
    tables = symmetric_group(4)
    assert tables.order == 24
    for q in range(tables.order):
        p = unrank(4, q + 1)
        assert rank_of(tables.images[q]) == q
        for i in range(1, 4):
            assert tables.tmaps[i - 1, q] == rank(right_t(p, i)) - 1
            assert tables.asc[i - 1, q] == (p[i - 1] < p[i])


@settings(deadline=None)
@given(st.data())
def test_tables_match_the_scalar_recursion(data):
    # every table row against unrank, decompose, inversions and right_t of the reference
    n = data.draw(st.integers(1, 7))
    tables = symmetric_group(n)
    j = data.draw(st.integers(1, tables.order))
    p = unrank(n, j)
    assert (tables.images[j - 1] + 1).tolist() == list(p)
    assert rank_of(tables.images[j - 1]) == j - 1
    assert tables.last_site[j - 1] == (decompose(p)[-1] - 1 if j > 1 else -1)
    assert tables.inversion_counts[j - 1] == inversions(p)
    assert tables.signs[j - 1] == (-1) ** inversions(p)
    for i in range(1, n):
        assert tables.tmaps[i - 1, j - 1] == rank(right_t(p, i)) - 1
        assert tables.asc[i - 1, j - 1] == (p[i - 1] < p[i])
    if j < tables.order:
        assert p[::-1] > unrank(n, j + 1)[::-1]


# the first symmetric_group(6) build can outlast hypothesis's per-example deadline
@settings(deadline=None)
@given(st.integers(1, 6))
def test_rank_of_images_is_the_rank_order(n):
    tables = symmetric_group(n)
    assert (rank_of(tables.images) == np.arange(tables.order)).all()


@settings(deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6, unique=True))
def test_rank_of_argsort_matches_the_scalar_rank(xs):
    # the wedge of x: Q with x_{Q(1)} < ... < x_{Q(N)}
    order = np.argsort(np.array(xs), kind="stable")
    assert rank_of(order) == rank(tuple(int(v) + 1 for v in order)) - 1


@given(st.data())
def test_rank_unrank_bijection(data):
    n = data.draw(st.integers(1, 6))
    j = data.draw(st.integers(1, math.factorial(n)))
    assert rank(unrank(n, j)) == j
    p = tuple(data.draw(st.permutations(range(1, n + 1))))
    assert unrank(n, rank(p)) == p


def test_tables_are_read_only_and_compare_by_identity():
    # the orbit-structure check is memoized per tables object, so tables
    # must not change under it, and a corrupted copy must be a new key
    tables = symmetric_group(4)
    arrays = [getattr(tables, field.name) for field in dataclasses.fields(tables)]
    assert all(not a.flags.writeable for a in arrays if isinstance(a, np.ndarray))
    copy = dataclasses.replace(tables)
    assert copy != tables and len({tables, copy}) == 2
