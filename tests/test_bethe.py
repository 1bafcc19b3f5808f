import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe import scattering
from pointbethe.bethe import (_ascending, _site_contact, bethe_state,
                              build_s_diagonals_periodic, build_yang_matrix,
                              coefficients_bc_oracle, propagate,
                              state_relation_residual, validate_momenta)
from pointbethe.couplings import CouplingParameters
from pointbethe.errors import NotIntegrable
from pointbethe.permutations import (Permutation, identity, regular_rep,
                                     symmetric_group, transposition, unrank)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_momenta_rejects_non_finite(bad):
    # a NaN gap compares False with the coincidence threshold, so only an
    # explicit check keeps NaN rows out of the table
    with pytest.raises(ValueError, match=r"non-finite at 0-based indices \[1\]"):
        validate_momenta([1.0, bad, 0.3])
    with pytest.raises(ValueError, match=r"non-finite"):
        bethe_state(FAMILY1, [1.0, bad, 0.3], np.eye(6)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_coefficients_are_refused(bad):
    # a NaN in A_I used to come back as NaN rows and a NaN oracle residual
    a = np.eye(6, dtype=complex)[0]
    a[[2, 4]] = bad
    message = r"non-finite at 0-based indices \[2, 4\]"
    with pytest.raises(ValueError, match=message):
        bethe_state(FAMILY1, K3, a)
    with pytest.raises(ValueError, match=message):
        propagate(FAMILY1, K3, a, Permutation((3, 1, 2)))
    with pytest.raises(ValueError, match=message):
        coefficients_bc_oracle(FAMILY1, K3, a)


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


@pytest.mark.parametrize("word, message", [([0], "letter 0 at 0-based position 0"),
                                           ([1, 2], "letter 2 at 0-based position 1")])
def test_propagate_rejects_letters_outside_the_sites(word, message):
    # letter 0 would wrap to the last site through a negative index
    with pytest.raises(ValueError, match=message):
        propagate(FAMILY1, np.array([1.2, -0.4]), np.array([1.0, 0.0]), identity(2), word=word)


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
    for j in range(f):
        assert np.array_equal(state.table[j], propagate(params, k, a, unrank(n, j + 1)))
    assert state.energy == pytest.approx(float(np.sum(k**2)))


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_state_relations_hold_and_detect_corruption(params, n):
    rng = np.random.default_rng(3)
    k = K3 if n == 3 else random_k(n, rng)
    f = math.factorial(n)
    a = rng.normal(size=f) + 1j * rng.normal(size=f)
    state = bethe_state(params, k, a)
    assert state_relation_residual(state) <= 1e-13
    for entry in [(2, 3), (f - 1, f - 2)]:
        corrupted = state.table.copy()
        corrupted[entry] += 1e-2
        bad = type(state)(params=state.params, k=state.k, table=corrupted)
        assert state_relation_residual(bad) >= 1e-4


def test_relation_residual_catches_a_wrong_amplitude_formula(monkeypatch):
    # -2i eta -> +2i eta in the S_T numerator gives, in family 1, the exact
    # amplitudes of (c, 0, 0, -eta): they obey every factorization identity,
    # so a check through the same amplitudes passes the table built from them
    closed_form = scattering._closed_form

    def wrong(c, lam, gamma, eta, u):
        num_t, num_r, den = closed_form(c, lam, gamma, eta, u)
        return num_t + 4j * eta * u, num_r, den

    monkeypatch.setattr(scattering, "_closed_form", wrong)
    rng = np.random.default_rng(8)
    state = bethe_state(FAMILY1, K3, rng.normal(size=6) + 1j * rng.normal(size=6))
    assert state_relation_residual(state) >= 1e-4


def _reference_coefficients(params, u):
    """The two contact conditions at one (P, Q) written out by hand: rows
    derivative jump, value jump; columns A_P(Q), A_PT(Q), A_P(QT), A_PT(QT)."""
    c, lam, gamma, eta = params.astuple()
    iu = 1j * u
    g = (1j * gamma + eta) * u
    lu = 1j * lam * u
    ge = gamma + 1j * eta
    return np.array([[-iu - c + g, iu - c - g, -iu - c - g, iu - c + g],
                     [-1 - lu - ge, -1 + lu - ge, 1 + lu - ge, 1 - lu - ge]])


def _reference_contact_rows(params, k):
    """The hand-expanded system over every site, every P and every Q
    ascending at the site; (P, Q) and (P T, Q) give the same two rows."""
    tables = symmetric_group(len(k))
    f = tables.order
    rows = []
    for s in range(len(k) - 1):
        for q in np.flatnonzero(tables.asc[s]):
            qt = tables.tmaps[s, q]
            for p in range(f):
                pt = tables.tmaps[s, p]
                coeffs = _reference_coefficients(
                    params, k[tables.images[p, s]] - k[tables.images[p, s + 1]])
                for eq in coeffs:
                    row = np.zeros(f * f, dtype=np.complex128)
                    row[[p * f + q, pt * f + q, p * f + qt, pt * f + qt]] = eq
                    rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_site_contact_on_unit_inputs_is_the_hand_expanded_system(params, n):
    k = random_k(n, np.random.default_rng(9 + n))
    tables = symmetric_group(n)
    for s in range(n - 1):
        asc, _, u = _ascending(tables, k, s)
        for col, unit in enumerate(np.eye(4)):
            r1, r2 = _site_contact(params, u, *unit)
            ref = np.array([_reference_coefficients(params, k[tables.images[p, s]]
                                                    - k[tables.images[p, s + 1]])[:, col]
                            for p in asc])
            assert np.array_equal(np.hstack([r1, r2]), ref)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_states_each_contact_equation_once(params, n, monkeypatch):
    k = random_k(n, np.random.default_rng(9 + n))
    f = math.factorial(n)
    seen = []
    matrix_rank = np.linalg.matrix_rank
    monkeypatch.setattr(np.linalg, "matrix_rank", lambda m: seen.append(m) or matrix_rank(m))
    coefficients_bc_oracle(params, k, np.ones(f))
    homogeneous = seen[0] + 0.0  # + 0.0 folds -0.0 into 0.0
    assert homogeneous.shape == ((n - 1) * f * f // 2, f * f)
    reference = {row.tobytes() for row in _reference_contact_rows(params, k) + 0.0}
    assert {row.tobytes() for row in homogeneous} == reference
    assert len(reference) == homogeneous.shape[0]


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


@st.composite
def integrable_states(draw, n):
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.5))
    if draw(st.booleans()):
        params = CouplingParameters(c, 0.0, 0.0, draw(st.floats(-1.0, 1.0)))
    else:
        params = CouplingParameters(c, 1.0 / c)
    gaps = draw(st.lists(st.floats(0.3, 1.5), min_size=n - 1, max_size=n - 1))
    order = draw(st.permutations(range(n)))
    k = (draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))[order]
    f = math.factorial(n)
    polar = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
                          min_size=f, max_size=f))
    a = np.array([r * np.exp(1j * phi) for r, phi in polar])
    return params, k, a


# an N = 4 oracle solve can outlast hypothesis's per-example deadline
@pytest.mark.parametrize("n", [2, 3, 4])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_integrable_tables_satisfy_the_contact_system(n, data):
    params, k, a = data.draw(integrable_states(n))
    state = bethe_state(params, k, a)
    assert state_relation_residual(state) <= 1e-12 * max(1.0, np.abs(state.table).max())
    oracle = coefficients_bc_oracle(params, k, state.table[:, 0])
    assert oracle.nullity == math.factorial(n)
    assert oracle.residual <= 1e-9
