import math

import numpy as np
import pytest

from pointbethe.bethe import (bethe_state, build_s_diagonals_periodic,
                              build_yang_matrix, coefficients_bc_oracle,
                              propagate, state_relation_residual,
                              validate_momenta)
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import NotIntegrable
from pointbethe.permutations import (Permutation, identity, regular_rep,
                                     symmetric_group, transposition)
from pointbethe.scattering import amplitudes

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.3)
FAMILY2 = CouplingParameters(2.0, 0.5)
NONINTEGRABLE = CouplingParameters(1.0, 0.3, 0.2, 0.1)

K3 = np.array([1.1, -0.3, 0.6])


def random_k(n, rng, min_gap=0.25):
    while True:
        k = rng.uniform(-2.5, 2.5, n)
        if min(abs(k[a] - k[b]) for a in range(n) for b in range(a + 1, n)) > min_gap:
            return k


def test_validate_momenta_rejects_coincident():
    with pytest.raises(ValueError):
        validate_momenta([1.0, 1.0 + 1e-14])
    assert validate_momenta([0.5]).shape == (1,)


def test_yang_matrix_appendix_diagonal_patterns():
    # N = 3 diagonal layout in rank order: site 1 alternates +,-; site 2
    # runs +,+,-,+,-,-; the off-diagonal transmission slot pairs oppositely.
    u = 0.9
    amp = amplitudes(FAMILY1, u)
    y1 = build_yang_matrix(FAMILY1, 3, 1, u).matrix
    y2 = build_yang_matrix(FAMILY1, 3, 2, u).matrix
    sr_p, sr_m = amp.s_r_plus, amp.s_r_minus
    st_p, st_m = amp.s_t_plus, amp.s_t_minus
    assert np.allclose(np.diag(y1), [sr_p, sr_m, sr_p, sr_m, sr_p, sr_m])
    assert np.allclose(np.diag(y2), [sr_p, sr_p, sr_m, sr_p, sr_m, sr_m])
    t1 = regular_rep(transposition(3, 1))
    t2 = regular_rep(transposition(3, 2))
    st1 = np.array([st_m, st_p, st_m, st_p, st_m, st_p])
    st2 = np.array([st_m, st_m, st_p, st_m, st_p, st_p])
    assert np.allclose(y1, np.diag(np.diag(y1)) + np.diag(st1) @ t1)
    assert np.allclose(y2, np.diag(np.diag(y2)) + np.diag(st2) @ t2)


@pytest.mark.parametrize("n", range(2, 6))
def test_periodic_diagonals_match_direct_construction(n):
    for i in range(1, n):
        y = build_yang_matrix(FAMILY1, n, i, 0.7).matrix
        s_r, s_t = build_s_diagonals_periodic(FAMILY1, n, i, 0.7)
        assert np.allclose(np.diag(y), s_r, atol=1e-15)
        tmap = symmetric_group(n).tmaps[i - 1]
        assert np.allclose(y[np.arange(len(s_t)), tmap], s_t, atol=1e-15)


def test_yang_matrix_rows_have_two_entries():
    y = build_yang_matrix(FAMILY1, 4, 2, 1.1).matrix
    assert ((np.abs(y) > 0).sum(axis=1) == 2).all()


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
def test_yang_matrix_inverse_identity(params):
    # consequence of the four universal identities, any couplings
    for u in (0.6, -1.7):
        y_p = build_yang_matrix(params, 3, 1, u).matrix
        y_m = build_yang_matrix(params, 3, 1, -u).matrix
        assert np.abs(y_m @ y_p - np.eye(6)).max() <= 1e-10


@pytest.mark.parametrize("n", (3, 4))
def test_yang_limit_matrix_form(n):
    c, u = 1.7, 0.9
    for i in range(1, n):
        y = build_yang_matrix(CouplingParameters(c), n, i, u).matrix
        t_hat = regular_rep(transposition(n, i))
        ref = (1j * u * t_hat + c * np.eye(math.factorial(n))) / (1j * u - c)
        assert np.abs(y - ref).max() <= 1e-12


def test_family2_yang_matrix_diagonal_unimodular():
    y = build_yang_matrix(FAMILY2, 3, 2, 1.3).matrix
    assert np.abs(y - np.diag(np.diag(y))).max() <= 1e-14
    assert np.abs(np.abs(np.diag(y)) - 1.0).max() <= 1e-12


def test_propagate_identity_returns_input():
    rng = np.random.default_rng(0)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    out = propagate(FAMILY1, K3, a, identity(3))
    assert np.array_equal(out, a)


def test_propagate_two_particles_delta():
    c = 1.9
    k = np.array([1.2, -0.4])
    amp = amplitudes(CouplingParameters(c), k[0] - k[1])
    out = propagate(CouplingParameters(c), k, np.array([1.0, 0.0]), transposition(2, 1))
    assert np.allclose(out, [amp.s_r_plus, amp.s_t_plus])


def test_propagate_word_independence():
    rng = np.random.default_rng(1)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = Permutation((3, 2, 1))  # longest element: words [1,2,1] and [2,1,2]
    out1 = propagate(FAMILY1, K3, a, p, word=[1, 2, 1])
    out2 = propagate(FAMILY1, K3, a, p, word=[2, 1, 2])
    assert np.abs(out1 - out2).max() <= 1e-12


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("n", [3, 4])
def test_propagate_random_word_independence(params, n):
    # any word with the right product must give the same coefficients,
    # including non-reduced words passing through T_i T_i = 1
    rng = np.random.default_rng(100 + n)
    k = random_k(n, rng)
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    for _ in range(50):
        word = [int(rng.integers(1, n)) for _ in range(rng.integers(0, 7))]
        p = identity(n)
        for i in word:
            p = p.right_t(i)
        via_word = propagate(params, k, a, p, word=word)
        via_canonical = propagate(params, k, a, p)
        assert np.abs(via_word - via_canonical).max() <= 1e-11


def test_propagate_rejects_wrong_word():
    with pytest.raises(ValueError):
        propagate(FAMILY1, K3, np.zeros(6), Permutation((3, 2, 1)), word=[1, 2])


def test_propagate_refuses_noninteg_for_three_particles():
    with pytest.raises(NotIntegrable):
        propagate(NONINTEGRABLE, K3, np.zeros(6, complex), Permutation((2, 1, 3)))
    # two particles have no alternative reduced words: any couplings allowed
    out = propagate(NONINTEGRABLE, np.array([1.0, -0.5]), np.array([1.0, 0.5j]),
                    transposition(2, 1))
    assert out.shape == (2,)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_bethe_state_rows_match_per_permutation_propagation(params, n):
    # the rank-order fill performs, row for row, the same floating-point
    # steps as walking each canonical word from the identity
    rng = np.random.default_rng(2 + n)
    k = random_k(n, rng)
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    state = bethe_state(params, k, a)
    assert np.array_equal(state.table[0], a)
    for j, p in enumerate(symmetric_group(n).perms):
        assert np.array_equal(state.table[j], propagate(params, k, a, p))
    assert state.energy == pytest.approx(float(np.sum(k**2)))


def test_state_relations_hold_and_detect_corruption():
    rng = np.random.default_rng(3)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = bethe_state(FAMILY1, K3, a)
    assert state_relation_residual(state) <= 1e-13
    corrupted = state.table.copy()
    corrupted[2, 3] += 1e-2
    bad = type(state)(params=state.params, k=state.k, table=corrupted)
    assert state_relation_residual(bad) >= 1e-4


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 0.0, 1.3),
                                    CouplingParameters(1.5, 0.7, 0.2, -0.4)])
def test_oracle_matches_propagation_two_particles(params):
    rng = np.random.default_rng(4)
    k = random_k(2, rng)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = bethe_state(params, k, a)
    oracle = coefficients_bc_oracle(params, k, state.table[:, 0])
    assert oracle.residual <= 1e-9
    assert np.abs(oracle.table - state.table).max() <= 1e-9
    assert oracle.nullity == 2 and not oracle.rank_deficient


def test_oracle_matches_propagation_three_particles_family1():
    rng = np.random.default_rng(5)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = bethe_state(FAMILY1, K3, a)
    oracle = coefficients_bc_oracle(FAMILY1, K3, state.table[:, 0])
    assert oracle.residual <= 1e-9
    assert np.abs(oracle.table - state.table).max() <= 1e-9
    assert oracle.nullity == 6


def test_oracle_family2_consistent_but_column_degenerate():
    # with vanishing transmission the propagation matrices are diagonal, so
    # pinning the identity-wedge column fixes only a rank-one slice; the
    # least-squares table need not match, but the system stays consistent
    # with the expected N! solution dimensions
    rng = np.random.default_rng(6)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = bethe_state(FAMILY2, K3, a)
    oracle = coefficients_bc_oracle(FAMILY2, K3, state.table[:, 0])
    assert oracle.residual <= 1e-9
    assert oracle.nullity == 6


def test_oracle_inconsistent_for_noninteg_three_particles():
    rng = np.random.default_rng(7)
    pinned = rng.normal(size=6) + 1j * rng.normal(size=6)
    oracle = coefficients_bc_oracle(NONINTEGRABLE, K3, pinned)
    assert oracle.residual >= 1e-3
    assert oracle.rank_deficient


def test_oracle_size_guard():
    with pytest.raises(ValueError):
        coefficients_bc_oracle(FAMILY1, np.array([1.0, 0.5, -0.5, -1.0, 2.0]),
                               np.zeros(120))
