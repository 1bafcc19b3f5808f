import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pointbethe import scattering
from pointbethe.bethe import (_ascending, _even_site_rows,
                              _odd_site_null_basis, bethe_state,
                              coefficients_bc_oracle, propagate,
                              state_relation_residual, validate_momenta)
from pointbethe.couplings import CouplingParameters, _site_contact, integrable_family
from pointbethe.errors import NotIntegrable
from pointbethe.permutations import symmetric_group
from pointbethe.scattering import amplitudes
from reference import (build_s_diagonals_periodic, dense_null_basis, identity,
                       rank, regular_rep, right_t, transposition, yang_matrix)

FAMILY1 = CouplingParameters(2.0, 0.0, 0.0, 1.3)
FAMILY2 = CouplingParameters(2.0, 0.5)
NONINTEGRABLE = CouplingParameters(1.0, 0.3, 0.2, 0.1)

K3 = np.array([1.1, -0.3, 0.6])


def random_k(n, rng, min_gap=0.25):
    while True:
        k = rng.uniform(-2.5, 2.5, n)
        if min((abs(k[a] - k[b]) for a in range(n) for b in range(a + 1, n)),
               default=math.inf) > min_gap:
            return k


def test_validate_momenta_rejects_coincident():
    with pytest.raises(ValueError):
        validate_momenta([1.0, 1.0 + 1e-14])
    assert validate_momenta([0.5]).shape == (1,)


def test_validate_momenta_rejects_a_gap_past_the_float_range():
    big = np.finfo(np.float64).max
    with pytest.raises(ValueError, match=r"^momenta k\[0\]=1.7976931348623157e\+308 and "
                                         r"k\[2\]=-1e\+300 differ by more than the float range$"):
        validate_momenta([big, 0.0, -1e300])
    assert validate_momenta([big, 0.0]).tolist() == [big, 0.0]


def test_residuals_past_the_float_range_read_inf():
    # u = -1.8e308: every derivative term is finite, their sum is not
    state = bethe_state(CouplingParameters(0.0), [0.0, np.finfo(np.float64).max], [1.0, 0.0])
    assert state_relation_residual(state) == math.inf
    oracle = coefficients_bc_oracle(state.params, state.k, state.table[0])
    assert oracle.residual == math.inf
    assert np.abs(oracle.table - state.table).max() < 1e-15


def test_oracle_refuses_a_system_past_the_float_range():
    with pytest.raises(ValueError, match=r"^oracle system at couplings \(1.7976931348623157e\+308, "
                                         r"0.0, 0.0, 0.0\) and momenta \[0.0, 1.0\] is past the float range$"):
        coefficients_bc_oracle(CouplingParameters(np.finfo(np.float64).max), [0.0, 1.0], [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_momenta_rejects_non_finite(bad):
    # a NaN gap compares False with the coincidence threshold, so only an
    # explicit check keeps NaN rows out of the table
    message = r"^momenta must be finite, got non-finite entries at 0-based indices \[1\]$"
    with pytest.raises(ValueError, match=message):
        validate_momenta([1.0, bad, 0.3])
    with pytest.raises(ValueError, match=message):
        bethe_state(FAMILY1, [1.0, bad, 0.3], np.eye(6)[0])
    with pytest.raises(ValueError, match=message):
        propagate(FAMILY1, [1.0, bad, 0.3], np.eye(6)[0], 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_coefficients_are_refused(bad):
    # a NaN in A_I used to come back as NaN rows and a NaN oracle residual
    a = np.eye(6, dtype=complex)[0]
    a[[2, 4]] = bad
    message = r" must be finite, got non-finite entries at 0-based indices \[2, 4\]$"
    with pytest.raises(ValueError, match="^coefficient vector" + message):
        bethe_state(FAMILY1, K3, a)
    with pytest.raises(ValueError, match="^coefficient vector" + message):
        propagate(FAMILY1, K3, a, rank((3, 1, 2)) - 1)
    with pytest.raises(ValueError, match="^pinned row" + message):
        coefficients_bc_oracle(FAMILY1, K3, a)


def test_yang_matrix_appendix_diagonal_patterns():
    # N = 3 diagonal layout in rank order: site 1 alternates +,-; site 2
    # runs +,+,-,+,-,-; the off-diagonal transmission slot pairs oppositely.
    u = 0.9
    amp = amplitudes(FAMILY1, u)
    y1 = yang_matrix(FAMILY1, 3, 1, u)
    y2 = yang_matrix(FAMILY1, 3, 2, u)
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
        y = yang_matrix(FAMILY1, n, i, 0.7)
        s_r, s_t = build_s_diagonals_periodic(FAMILY1, n, i, 0.7)
        assert np.allclose(np.diag(y), s_r, atol=1e-15)
        tmap = symmetric_group(n).tmaps[i - 1]
        assert np.allclose(y[np.arange(len(s_t)), tmap], s_t, atol=1e-15)


def test_yang_matrix_rows_have_two_entries():
    y = yang_matrix(FAMILY1, 4, 2, 1.1)
    assert ((np.abs(y) > 0).sum(axis=1) == 2).all()


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
def test_yang_matrix_inverse_identity(params):
    # consequence of the four universal identities, any couplings
    for u in (0.6, -1.7):
        y_p = yang_matrix(params, 3, 1, u)
        y_m = yang_matrix(params, 3, 1, -u)
        assert np.abs(y_m @ y_p - np.eye(6)).max() <= 1e-10


def test_family2_yang_matrix_diagonal_unimodular():
    y = yang_matrix(FAMILY2, 3, 2, 1.3)
    assert np.abs(y - np.diag(np.diag(y))).max() <= 1e-14
    assert np.abs(np.abs(np.diag(y)) - 1.0).max() <= 1e-12


def test_propagate_identity_returns_input():
    rng = np.random.default_rng(0)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    out = propagate(FAMILY1, K3, a, 0)
    assert np.array_equal(out, a)


def test_propagate_two_particles_delta():
    c = 1.9
    k = np.array([1.2, -0.4])
    amp = amplitudes(CouplingParameters(c), k[0] - k[1])
    out = propagate(CouplingParameters(c), k, np.array([1.0, 0.0]), 1)
    assert np.allclose(out, [amp.s_r_plus, amp.s_t_plus])


def test_propagate_word_independence():
    rng = np.random.default_rng(1)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    p = rank((3, 2, 1)) - 1  # longest element: words [1,2,1] and [2,1,2]
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
        q = identity(n)
        for i in word:
            q = right_t(q, i)
        p = rank(q) - 1
        via_word = propagate(params, k, a, p, word=word)
        via_canonical = propagate(params, k, a, p)
        assert np.abs(via_word - via_canonical).max() <= 1e-11


def test_propagate_rejects_wrong_word():
    with pytest.raises(ValueError):
        propagate(FAMILY1, K3, np.zeros(6), rank((3, 2, 1)) - 1, word=[1, 2])


@pytest.mark.parametrize("p", [-1, 6, 2.0, True])
def test_propagate_names_a_bad_rank_index(p):
    with pytest.raises(ValueError, match=rf"^rank index p must be a whole number in 0\.\.5, got {p!r}$"):
        propagate(FAMILY1, K3, np.zeros(6), p)


# the ids keep the names these cases had under the earlier messages
@pytest.mark.parametrize("word, message", [
    ([0], r"position 0 must be a whole number in 1\.\.1, got 0"),
    ([1, 2], r"position 1 must be a whole number in 1\.\.1, got 2"),
    ([1.5], r"position 0 must be a whole number in 1\.\.1, got 1\.5"),
    ([1.0], r"position 0 must be a whole number in 1\.\.1, got 1\.0"),
], ids=["word0-letter 0 at 0-based position 0", "word1-letter 2 at 0-based position 1",
        "word2-letter 1.5", "word3-letter 1.0"])
def test_propagate_rejects_letters_outside_the_sites(word, message):
    # letter 0 would wrap to the last site through a negative index, and
    # the floats 1.5 and 1.0 failed as indices with a bare IndexError
    with pytest.raises(ValueError, match="^word letter at 0-based " + message + "$"):
        propagate(FAMILY1, np.array([1.2, -0.4]), np.array([1.0, 0.0]), 0, word=word)


def test_propagate_refuses_noninteg_for_three_particles():
    with pytest.raises(NotIntegrable):
        propagate(NONINTEGRABLE, K3, np.zeros(6, complex), rank((2, 1, 3)) - 1)
    with pytest.raises(NotIntegrable):
        bethe_state(NONINTEGRABLE, K3, np.zeros(6, complex))
    # two particles have no alternative reduced words: any couplings allowed
    out = propagate(NONINTEGRABLE, np.array([1.0, -0.5]), np.array([1.0, 0.5j]), 1)
    assert out.shape == (2,)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
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
        assert np.array_equal(state.table[j], propagate(params, k, a, j))
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

    def wrong(c, lam, gamma, eta, u):  # the same wrong formula for both particle orders
        num_t_plus, num_r_plus, num_t_minus, num_r_minus, den = closed_form(c, lam, gamma, eta, u)
        return num_t_plus + 4j * eta * u, num_r_plus, num_t_minus - 4j * eta * u, num_r_minus, den

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


def _dense_site_rows(params, tables, k, s):
    """Site s + 1's (P, Q, e) rows over the N!^2 unknowns, each coefficient
    read from ``_site_contact`` on a unit vector, as ``_stacked_oracle``
    reads them."""
    f = tables.order
    asc, t, u = _ascending(tables, k, s)
    rows = np.zeros((asc.size, asc.size, 2, f, f), dtype=np.complex128)
    p, q = np.ix_(np.arange(asc.size), np.arange(asc.size))
    for (x, y), unit in zip([(asc, asc), (t, asc), (asc, t), (t, t)], np.eye(4)):
        rows[p, q, 0, x[:, np.newaxis], y], rows[p, q, 1, x[:, np.newaxis], y] = (
            _site_contact(params, u, *unit))
    return rows.reshape(-1, f * f)


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_states_each_contact_equation_once(params, n):
    # the rows of every site as the oracle assembles them, checked directly
    k = random_k(n, np.random.default_rng(9 + n))
    tables = symmetric_group(n)
    f = tables.order
    homogeneous = np.concatenate([_dense_site_rows(params, tables, k, s)
                                  for s in range(n - 1)]) + 0.0  # + 0.0 folds -0.0 into 0.0
    assert homogeneous.shape == ((n - 1) * f * f // 2, f * f)
    reference = {row.tobytes() for row in _reference_contact_rows(params, k) + 0.0}
    assert {row.tobytes() for row in homogeneous} == reference
    assert len(reference) == homogeneous.shape[0]


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_odd_site_null_basis_is_an_orthonormal_basis_of_their_null_space(params, n):
    # the basis of every odd site's null space at once: sites 1 and 3 at N = 4
    k = random_k(n, np.random.default_rng(19 + n))
    tables = symmetric_group(n)
    f = tables.order
    basis = dense_null_basis(*_odd_site_null_basis(params, tables, k))
    assert basis.shape == (f, f, f * f // 2 ** (n // 2))
    basis = basis.reshape(f * f, -1)
    assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
    for s in range(0, n - 1, 2):
        assert np.abs(_dense_site_rows(params, tables, k, s) @ basis).max() <= 1e-12


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_site_rows_on_the_compact_basis_are_the_dense_rows_times_the_basis(params, n):
    # assigned from the blocks, they are the even sites' rows on the dense
    # basis; N = 2 has no even site and no row
    k = random_k(n, np.random.default_rng(29 + n))
    tables = symmetric_group(n)
    f = tables.order
    orbit, block = _odd_site_null_basis(params, tables, k)
    basis = dense_null_basis(orbit, block).reshape(f * f, -1)
    dense = np.concatenate([np.empty((0, f * f))] + [_dense_site_rows(params, tables, k, s)
                                                     for s in range(1, n - 1, 2)]) @ basis
    compact = _even_site_rows(params, k, tables, orbit, block)
    assert compact.shape == dense.shape == ((n - 1) // 2 * f * f // 2, basis.shape[1])
    assert np.abs(compact - dense).max(initial=0.0) <= 1e-14 * np.abs(dense).max(initial=0.0)


def _stacked_oracle(params, k, pinned_row):
    """The dense reference: every contact row and pin in one matrix over
    all N!^2 unknowns, one least-squares solve and one rank.  Returns
    (table, residual, nullity)."""
    tables = symmetric_group(len(k))
    n, f = len(k), tables.order
    homogeneous_rows = (n - 1) * f * f // 2
    mat = np.zeros((homogeneous_rows + f, f * f), dtype=np.complex128)
    for s in range(n - 1):
        asc, t, u = _ascending(tables, k, s)
        rows = s * f * f // 2 + np.arange(f * f // 2).reshape(2, f // 2, f // 2)
        for (p, q), unit in zip([(asc, asc), (t, asc), (asc, t), (t, t)], np.eye(4)):
            cols = p[:, np.newaxis] * f + q
            mat[rows[0], cols], mat[rows[1], cols] = _site_contact(params, u, *unit)
    mat[homogeneous_rows + np.arange(f), np.arange(f)] = 1.0
    rhs = np.concatenate([np.zeros(homogeneous_rows), pinned_row])
    solution, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    residual = float(np.abs(mat @ solution - rhs).max())
    nullity = f * f - int(np.linalg.matrix_rank(mat[:homogeneous_rows]))
    return solution.reshape(f, f), residual, nullity


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 0.0, 1.3),
                                    CouplingParameters(1.5, 0.7, 0.2, -0.4)])
def test_oracle_matches_propagation_two_particles(params):
    rng = np.random.default_rng(4)
    k = random_k(2, rng)
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    state = bethe_state(params, k, a)
    oracle = coefficients_bc_oracle(params, k, state.table[0])
    assert oracle.residual <= 1e-9
    assert np.abs(oracle.table - state.table).max() <= 1e-9
    assert oracle.nullity == 2


def test_oracle_matches_propagation_three_particles_family1():
    rng = np.random.default_rng(5)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = bethe_state(FAMILY1, K3, a)
    oracle = coefficients_bc_oracle(FAMILY1, K3, state.table[0])
    assert oracle.residual <= 1e-9
    assert np.abs(oracle.table - state.table).max() <= 1e-9
    assert oracle.nullity == 6


def test_oracle_matches_propagation_three_particles_family2():
    # with vanishing transmission the propagation matrices are diagonal, and
    # the identity-wedge column would fix only a rank-one slice of the N!
    # solutions; row I fixes all of them, so the table is the fill's
    rng = np.random.default_rng(6)
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    state = bethe_state(FAMILY2, K3, a)
    oracle = coefficients_bc_oracle(FAMILY2, K3, state.table[0])
    assert oracle.residual <= 1e-9
    assert np.abs(oracle.table - state.table).max() <= 1e-9
    assert oracle.nullity == 6


def test_oracle_inconsistent_for_noninteg_three_particles():
    rng = np.random.default_rng(7)
    pinned = rng.normal(size=6) + 1j * rng.normal(size=6)
    oracle = coefficients_bc_oracle(NONINTEGRABLE, K3, pinned)
    assert oracle.residual >= 1e-3
    assert oracle.nullity != 6


def test_oracle_nullity_rediscovers_the_two_families_on_the_scan_grid():
    # the brute-force classifier: on the CLI scan's 5^4 grid, the N = 3
    # contact system with a random pin has N! = 6 solutions exactly at the
    # family points; it reads neither the closed form nor the sample panel
    rng = np.random.default_rng(3)
    pinned = rng.normal(size=6) + 1j * rng.normal(size=6)
    k = np.array([-1.1, 0.3, 1.7])
    grid = itertools.product((-2, -1, 0.5, 1, 2), (-0.5, 0, 0.5, 1, 2),
                             (-1, -0.5, 0, 0.5, 1), (-1, -0.5, 0, 0.5, 1))
    families = 0
    for point in grid:
        params = CouplingParameters(*point)
        on_family = integrable_family(params) is not None
        assert (coefficients_bc_oracle(params, k, pinned).nullity == 6) == on_family, point
        families += on_family
    assert families == 29


def test_oracle_residual_stays_at_roundoff_at_four_particles():
    # 1e-14 is the bound an unrefined pseudo-inverse solve failed, at 3.7e-14
    # on site 2's rows at the first input; the rest are drawn as the
    # benchmark's verify ops draw coeffs --N 4: gaps of 0.3 to 0.7, both
    # families
    inputs = [(CouplingParameters(1.12891, 1 / 1.12891),
               np.array([0.604055, -0.604055, 0.301114, -0.018291]))]
    rng = np.random.default_rng(41)
    for i in range(40):
        c = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.5)
        params = (CouplingParameters(c, 0.0, 0.0, rng.uniform(-1.0, 1.0)) if i % 2
                  else CouplingParameters(c, 1.0 / c))
        k = np.concatenate([[0.0], np.cumsum(0.3 + rng.uniform(0.0, 0.4, 3))])
        inputs.append((params, rng.permutation(k - k[-1] / 2)))
    for params, k in inputs:
        state = bethe_state(params, k, np.eye(24)[0])
        oracle = coefficients_bc_oracle(params, k, state.table[0])
        assert oracle.nullity == 24
        assert oracle.residual <= 1e-14


def test_oracle_of_one_particle_is_its_pin():
    # no site at all: the basis is the 1 x 1 identity and the pin the table
    oracle = coefficients_bc_oracle(FAMILY1, np.array([0.7]), np.array([0.3 - 0.4j]))
    assert oracle.table.tolist() == [[0.3 - 0.4j]]
    assert oracle.residual == 0.0
    assert oracle.nullity == 1


def test_four_particle_oracle_peaks_under_4_mb():
    # the basis stays in its compact blocks: about 2.8 MB, against 5.5 MB
    # with the dense 1.33 MB basis and its residuals
    k = np.array([-1.1, 0.3, 1.7, -2.6])
    coefficients_bc_oracle(FAMILY1, k, np.ones(24))  # builds symmetric_group(4) once
    tracemalloc.start()
    try:
        coefficients_bc_oracle(FAMILY1, k, np.ones(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_oracle_size_guard():
    with pytest.raises(ValueError):
        coefficients_bc_oracle(FAMILY1, np.array([1.0, 0.5, -0.5, -1.0, 2.0]),
                               np.zeros(120))


# an oracle property that fails at N = 4 would spend minutes shrinking:
# every example is still run, and the first failing one is reported as drawn
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate, Phase.target]


@st.composite
def momenta(draw, n):
    gaps = draw(st.lists(st.floats(0.3, 1.5), min_size=n - 1, max_size=n - 1))
    order = draw(st.permutations(range(n)))
    return (draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)]))[order]


@st.composite
def integrable_couplings(draw):
    c = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.5))
    if draw(st.booleans()):
        return CouplingParameters(c, 0.0, 0.0, draw(st.floats(-1.0, 1.0)))
    return CouplingParameters(c, 1.0 / c)


# off both families with probability 1
any_couplings = st.builds(CouplingParameters, *[st.floats(-2.5, 2.5)] * 4)


@st.composite
def integrable_states(draw, n):
    params = draw(integrable_couplings())
    k = draw(momenta(n))
    f = math.factorial(n)
    polar = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi)),
                          min_size=f, max_size=f))
    a = np.array([r * np.exp(1j * phi) for r, phi in polar])
    return params, k, a


# an N = 4 oracle solve can outlast hypothesis's per-example deadline
@pytest.mark.parametrize("n", [2, 3, 4])
@settings(deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data())
def test_integrable_tables_satisfy_the_contact_system(n, data):
    params, k, a = data.draw(integrable_states(n))
    state = bethe_state(params, k, a)
    assert state_relation_residual(state) <= 1e-12 * max(1.0, np.abs(state.table).max())
    oracle = coefficients_bc_oracle(params, k, state.table[0])
    assert oracle.nullity == math.factorial(n)
    assert oracle.residual <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data())
def test_oracle_table_is_the_fill_grown_from_its_row(n, data):
    # each contact condition gives row P T_i from row P, so the row-I pins
    # fix the whole table, in both families: it is the fill's to roundoff
    _assert_oracle_table_is_the_fill(*data.draw(integrable_states(n)))


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2], ids=["family1", "family2"])
def test_oracle_table_is_the_fill_at_a_subnormal_pin(params):
    # integrable_states draws subnormal radii too; 1e-12 * 2.2e-313 underflows
    # to 0 while the two tables differ by a subnormal ulp
    _assert_oracle_table_is_the_fill(params, np.array([0.7, -0.4]), np.array([2.2e-313, 0.0]))


def _assert_oracle_table_is_the_fill(params, k, a):
    state = bethe_state(params, k, a)
    oracle = coefficients_bc_oracle(params, k, state.table[0])
    # the least normal number floors a relative bound that would underflow
    bound = max(1e-12 * np.abs(state.table).max(), np.finfo(float).tiny)
    assert np.abs(oracle.table - state.table).max() <= bound


@settings(deadline=None, max_examples=25, phases=NO_SHRINK)
@given(data=st.data())
def test_oracle_nullity_is_n_factorial_in_both_families(data):
    params, k, a = data.draw(integrable_states(3))
    oracle = coefficients_bc_oracle(params, k, a)
    assert oracle.nullity == 6 == _stacked_oracle(params, k, a)[2]


@pytest.mark.parametrize("params", [FAMILY1, FAMILY2, NONINTEGRABLE])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@settings(deadline=None, max_examples=5, phases=NO_SHRINK)
@given(data=st.data())
def test_oracle_matches_the_stacked_solve(params, n, data):
    k = data.draw(momenta(n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = math.factorial(n)
    pinned = rng.normal(size=f) + 1j * rng.normal(size=f)
    consistent = n <= 2 or params is not NONINTEGRABLE
    oracle = coefficients_bc_oracle(params, k, pinned)
    table, residual, nullity = _stacked_oracle(params, k, pinned)
    assert oracle.nullity == nullity
    if consistent:
        assert oracle.nullity == f
        assert oracle.residual <= 1e-13
        assert residual <= 1e-9
        # row I fixes the one solution, in both families
        assert np.abs(oracle.table - table).max() <= 1e-9
    else:
        assert oracle.nullity != f
        assert min(oracle.residual, residual) >= 1e-3


@pytest.mark.parametrize("params", [CouplingParameters(2.0, 0.0, 1e-10, 1.0),
                                    CouplingParameters(2.0, 1e-10, 0.0, 1.0),
                                    CouplingParameters(2.0, 0.5, 1e-10)])
@pytest.mark.parametrize("n", [3, 4])
def test_oracle_spreads_a_violation_within_family_tol(params, n):
    # bethe_state and the CLI take couplings within FAMILY_TOL of a family;
    # at the last two the rows keep 2 of their N! null directions and lift
    # the rest to singular values near 1e-10, and the least squares keeps
    # the residual at that violation instead of leaving O(1) on the pins;
    # [R; pins] keeps full column rank, so the table stays the fill's
    rng = np.random.default_rng(47 + n)
    k = random_k(n, rng)
    f = math.factorial(n)
    state = bethe_state(params, k, rng.normal(size=f) + 1j * rng.normal(size=f))
    oracle = coefficients_bc_oracle(params, k, state.table[0])
    assert oracle.nullity == _stacked_oracle(params, k, state.table[0])[2]
    assert oracle.residual <= 1e-8
    assert np.abs(oracle.table - state.table).max() <= 1e-8 * np.abs(state.table).max()


@settings(deadline=None, max_examples=10, phases=NO_SHRINK)
@given(data=st.data())
def test_sites_1_and_3_have_rank_432_at_four_particles(data):
    # a witness, independent of the basis, that the joint null space of
    # sites 1 and 3 has the dimension 576 / 4 the basis spans
    params = data.draw(any_couplings)
    k = data.draw(momenta(4))
    tables = symmetric_group(4)
    rows = np.concatenate([_dense_site_rows(params, tables, k, s) for s in (0, 2)])
    assert np.linalg.matrix_rank(rows) == 576 - 144
