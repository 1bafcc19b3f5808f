import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointbethe.bethe import bethe_state
from pointbethe.couplings import (CouplingParameters, contact_residuals,
                                  gauge_data, integrable_family)
from pointbethe.errors import NotGaugeFamily, NotIntegrable
from reference import symplectic_residual, u_pm


def test_params_must_be_finite():
    for index, name in enumerate(("c", "lam", "gamma", "eta")):
        for bad in (math.nan, math.inf, -np.inf, np.float64("nan")):
            values = [1.0, 0.0, 0.0, 0.0]
            values[index] = bad
            with pytest.raises(ValueError, match=f"^coupling {name} must be finite, got {bad}$"):
                CouplingParameters(*values)


def test_params_accept_numpy_scalars_and_ints():
    params = CouplingParameters(np.float64(2.0), np.int64(0), 1, np.float32(0.5))
    assert params.astuple() == (2.0, 0, 1, 0.5)


def test_u_pm_free_case():
    up, um = u_pm(CouplingParameters(0.0))
    assert np.allclose(up, np.eye(2)) and np.allclose(um, np.eye(2))


def test_u_pm_delta_only():
    c = 1.7
    up, um = u_pm(CouplingParameters(c))
    assert np.allclose(up, [[1, -c / 2], [0, 1]])
    assert np.allclose(um, [[1, c / 2], [0, 1]])


def test_u_pm_general_entries():
    up, um = u_pm(CouplingParameters(1.0, 1.0, 0.5, 2.0))
    g = 0.5 - 2j
    assert np.allclose(up, [[1 + g, -0.5], [-2, 1 - (0.5 + 2j)]])
    assert np.allclose(um, [[1 - g, 0.5], [2, 1 + (0.5 + 2j)]])


def test_boundary_matrix_free_is_identity():
    assert (np.linalg.solve(*u_pm(CouplingParameters(0.0))) == np.eye(2)).all()


def test_boundary_matrix_delta():
    # continuous value, derivative jump c * psi: U = [[1, c], [0, 1]]
    c = 2.3
    assert np.allclose(np.linalg.solve(*u_pm(CouplingParameters(c))), [[1, c], [0, 1]], atol=1e-14)


def test_symplectic_relation_randomized():
    assert symplectic_residual(np.diag([2.0, 1.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        c, lam, gamma, eta = rng.uniform(-3, 3, 4)
        up, um = u_pm(CouplingParameters(c, lam, gamma, eta))
        if abs(np.linalg.det(up)) < 1e-6:
            continue
        u = np.linalg.solve(up, um)
        assert symplectic_residual(u) <= 1e-12
        assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12
        checked += 1


def test_boundary_matrix_states_the_contact_residuals():
    # U maps (psi', psi) below the contact to above it, with psi' = d/2
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 500:
        params = CouplingParameters(*rng.uniform(-2, 2, 4))
        up, um = u_pm(params)
        if abs(np.linalg.det(up)) < 0.1:
            continue
        v_minus, d_minus = rng.normal(size=2) + 1j * rng.normal(size=2)
        half_d_plus, v_plus = np.linalg.solve(up, um) @ [d_minus / 2, v_minus]
        d_plus = 2 * half_d_plus
        scale = max(abs(v_minus), abs(d_minus), abs(v_plus), abs(d_plus))
        r1, r2 = contact_residuals(params, v_minus, d_minus, v_plus, d_plus)
        assert max(abs(r1), abs(r2)) <= 1e-12 * scale
        r1, r2 = contact_residuals(params, v_minus, d_minus, v_plus + 1e-3 * scale, d_plus)
        assert max(abs(r1), abs(r2)) >= 1e-6 * scale
        checked += 1


# moderate magnitudes, so that rounding stays relative to the inputs
moderate = st.floats(-1e3, 1e3).filter(lambda x: x == 0 or abs(x) >= 1e-3)
values = st.builds(complex, moderate, moderate)
family2_c = st.floats(0.1, 10) | st.floats(-10, -0.1)


@settings(max_examples=200)
@given(c=family2_c, v_minus=values, v_plus=values, side=st.sampled_from(["minus", "plus"]))
def test_family2_contact_conditions_are_two_robin_conditions(c, v_minus, v_plus, side):
    # on family 2 the contact conditions hold exactly when d+ = c v+ and
    # d- = -c v-: each side of the contact is a Robin half-line
    params = CouplingParameters(c, 1 / c)
    d_minus, d_plus = -c * v_minus, c * v_plus
    scale = max(abs(v_minus), abs(d_minus), abs(v_plus), abs(d_plus))
    r1, r2 = contact_residuals(params, v_minus, d_minus, v_plus, d_plus)
    assert max(abs(r1), abs(r2)) <= 1e-12 * scale
    # breaking either Robin condition alone breaks the contact conditions
    kick = 1e-3 * scale
    if side == "minus":
        d_minus += kick
    else:
        d_plus += kick
    r1, r2 = contact_residuals(params, v_minus, d_minus, v_plus, d_plus)
    assert max(abs(r1), abs(r2)) >= 1e-6 * scale


def det2(m) -> complex:
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


@given(st.tuples(*[st.floats(-3, 3)] * 4))
def test_u_form_determinants(couplings):
    c, lam, gamma, eta = couplings
    up, um = u_pm(CouplingParameters(c, lam, gamma, eta))
    size = 1 + eta**2 + gamma**2 + abs(c * lam)
    assert abs(det2(up) - ((1 - 1j * eta) ** 2 - gamma**2 - c * lam)) <= 1e-14 * size
    assert abs(det2(um) - ((1 + 1j * eta) ** 2 - gamma**2 - c * lam)) <= 1e-14 * size


@pytest.mark.parametrize("c", [2.0, -1.3, 0.7])
def test_u_form_has_no_boundary_matrix_on_family2(c):
    # det U_pm = (1 -+ i eta)^2 - gamma^2 - c lam vanishes on all of family 2
    # (gamma = eta = 0, c lam = 1), so U = (U_+)^{-1} U_- does not exist
    # there; the package states the contact conditions as residuals instead
    up, um = u_pm(CouplingParameters(c, 1 / c))
    assert det2(up) == 0j and det2(um) == 0j


def test_gauge_data_examples():
    gd = gauge_data(CouplingParameters(1.4))
    assert gd.c_tilde == pytest.approx(1.4) and gd.alpha == 0.0

    gd = gauge_data(CouplingParameters(2.0, 0.0, 0.0, 1.0))
    assert gd.c_tilde == pytest.approx(1.0)
    assert gd.alpha == pytest.approx(np.pi / 2)

    with pytest.raises(NotGaugeFamily):
        gauge_data(CouplingParameters(1.0, 0.5, 0.0, 1.0))


def test_gauge_data_of_a_huge_eta_is_finite():
    # eta**2 raises OverflowError on such a float; the delta-gas coupling tends to 0
    gd = gauge_data(CouplingParameters(1.0, 0.0, 0.0, 1e200))
    assert gd.c_tilde == 0.0
    assert gd.alpha == pytest.approx(np.pi)


def test_gauge_phase_identity():
    rng = np.random.default_rng(7)
    for eta in rng.uniform(-4, 4, 25):
        gd = gauge_data(CouplingParameters(1.0, 0.0, 0.0, eta))
        assert abs(np.exp(1j * gd.alpha) - (1 + 1j * eta) / (1 - 1j * eta)) <= 1e-12
        assert -np.pi < gd.alpha <= np.pi


def test_integrable_family_tags():
    assert integrable_family(CouplingParameters(2.0, 0.0, 0.0, 1.5)) == "family1"
    assert integrable_family(CouplingParameters(2.0, 0.5)) == "family2"
    assert integrable_family(CouplingParameters(1.0, 1.0, 1.0, 0.0)) is None
    assert integrable_family(CouplingParameters(0.0, 0.5)) is None


def test_one_family_tolerance_and_an_exact_gauge_condition():
    a = np.ones(6, dtype=complex)
    near = CouplingParameters(2.0, 5e-10, 0.0, 1.0)
    assert integrable_family(near) == "family1"
    assert bethe_state(near, [1.4, -0.2, 0.7], a).table.shape == (6, 6)
    with pytest.raises(NotGaugeFamily):
        gauge_data(near)  # the step-phase map is exact only at lam = gamma = 0
    outside = CouplingParameters(2.0, 2e-9, 0.0, 1.0)
    assert integrable_family(outside) is None
    with pytest.raises(NotIntegrable):
        bethe_state(outside, [1.4, -0.2, 0.7], a)
