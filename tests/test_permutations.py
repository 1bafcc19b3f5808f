import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe.permutations import (Permutation, decompose, identity, rank_of,
                                     symmetric_group, transposition)
from reference import compose, inversions, rank, regular_rep, unrank

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


def test_invalid_permutation_rejected():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_unrank_s3_table():
    assert [unrank(3, j).images for j in range(1, 7)] == S3_ORDER


def test_unrank_s2():
    assert unrank(2, 1).images == (1, 2)
    assert unrank(2, 2).images == (2, 1)


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
    assert {p.images for p in perms} == set(itertools.permutations(range(1, n + 1)))
    for a, b in zip(perms, perms[1:]):
        assert a.images[::-1] > b.images[::-1]


def test_compare_examples():
    # the order sorts reversed one-line forms; the larger permutation has
    # the larger sort key and the smaller rank index
    for big, small in [((1, 2, 3), (3, 2, 1)), ((2, 1, 3), (1, 3, 2))]:
        assert big[::-1] > small[::-1]
        assert rank_of(np.array(big) - 1) < rank_of(np.array(small) - 1)
    q = Permutation((2, 3, 1))
    assert rank_of(np.array(q.images) - 1) == rank(q) - 1


def test_compose_convention():
    t1 = transposition(3, 1)
    t2 = transposition(3, 2)
    q = Permutation((2, 3, 1))
    assert compose(identity(3), q) == q
    # q(r(i)): t2 applied after t1 sends 1 -> 3
    assert compose(t2, t1).images == (3, 1, 2)
    assert compose(t1, t1) == identity(3)
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))


def test_right_t_swaps_positions():
    q = Permutation((2, 3, 1))
    assert q.right_t(1).images == (3, 2, 1)
    assert q.right_t(2).images == (2, 1, 3)
    with pytest.raises(ValueError):
        q.right_t(3)


def test_decompose_examples():
    assert decompose(identity(4)) == []
    assert decompose(Permutation((3, 1, 2))) == [2, 1]
    assert decompose(Permutation((2, 3, 1))) == [1, 2]


@pytest.mark.parametrize("n", range(2, 6))
def test_decompose_recomposes_exhaustively(n):
    for images in itertools.permutations(range(1, n + 1)):
        q = Permutation(images)
        acc = identity(n)
        for i in decompose(q):
            acc = compose(acc, transposition(n, i))
        assert acc == q


@pytest.mark.parametrize("n", range(2, 6))
def test_decompose_words_are_reduced(n):
    # the recursion emits one step per inversion, so words are minimal
    for images in itertools.permutations(range(1, n + 1)):
        q = Permutation(images)
        assert len(decompose(q)) == inversions(q)


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
        r = Permutation(tuple(rng.permutation(n) + 1))
        s = Permutation(tuple(rng.permutation(n) + 1))
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
            assert tables.tmaps[i - 1, q] == rank(p.right_t(i)) - 1
            assert tables.asc[i - 1, q] == (p.images[i - 1] < p.images[i])


@settings(deadline=None)
@given(st.data())
def test_tables_match_the_scalar_recursion(data):
    # every table row against unrank, decompose, inversions and right_t
    n = data.draw(st.integers(1, 7))
    tables = symmetric_group(n)
    j = data.draw(st.integers(1, tables.order))
    p = unrank(n, j)
    assert (tables.images[j - 1] + 1).tolist() == list(p.images)
    assert rank_of(tables.images[j - 1]) == j - 1
    assert tables.last_site[j - 1] == (decompose(p)[-1] - 1 if j > 1 else -1)
    assert tables.inversion_counts[j - 1] == inversions(p)
    assert tables.signs[j - 1] == (-1) ** inversions(p)
    for i in range(1, n):
        assert tables.tmaps[i - 1, j - 1] == rank(p.right_t(i)) - 1
        assert tables.asc[i - 1, j - 1] == (p.images[i - 1] < p.images[i])
    if j < tables.order:
        assert p.images[::-1] > unrank(n, j + 1).images[::-1]


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
    assert rank_of(order) == rank(Permutation(tuple(int(v) + 1 for v in order))) - 1


@given(st.data())
def test_rank_unrank_bijection(data):
    n = data.draw(st.integers(1, 6))
    j = data.draw(st.integers(1, math.factorial(n)))
    assert rank(unrank(n, j)) == j
    p = Permutation(tuple(data.draw(st.permutations(range(1, n + 1)))))
    assert unrank(n, rank(p)) == p
