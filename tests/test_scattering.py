import re
import types

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pointbethe.couplings import CouplingParameters, _contact_coefficients
from pointbethe.errors import PoleAtU, SingularSystem
from pointbethe.scattering import (_closed_form, amplitude_arrays, amplitude_columns, amplitudes,
                                   amplitudes_bvp_oracle)


def _rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a))


_huge_couplings = st.one_of(st.sampled_from([0.0, 1e150, -1e150, 1e200]), st.floats(-3.0, 3.0))
# 0 is a pole when c = 0; 1e100 overflows lam u^2 for lam = 1e150, and
# -1e160 overflows u^2 itself
_pole_and_overflow_us = st.one_of(st.sampled_from([0.0, 1e100, -1e160]), st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(c=_huge_couplings, lam=_huge_couplings, gamma=_huge_couplings, eta=_huge_couplings,
       us=st.lists(_pole_and_overflow_us, min_size=1, max_size=40))
@example(c=0.0, lam=1e150, gamma=0.0, eta=0.0, us=[1.0, 0.0, 1e100])  # pole, then overflow
@example(c=0.0, lam=1e150, gamma=0.0, eta=0.0, us=[1e100, 0.0])  # overflow, then pole
@example(c=1.3, lam=-0.4, gamma=0.8, eta=-0.2, us=[float(u) for u in np.linspace(-5, 5, 37)])
def test_amplitudes_are_the_one_point_case_of_amplitude_columns(c, lam, gamma, eta, us):
    # one evaluator: a u gives the same bits alone as in a batch, and a
    # batch raises the text of the first u, in order, that fails alone
    params = CouplingParameters(c, lam, gamma, eta)
    singles, first_error = [], None
    for u in us:
        try:
            amp = amplitudes(params, u)
        except PoleAtU as err:
            first_error = str(err)
            break
        singles.append([amp.s_r_plus, amp.s_r_minus, amp.s_t_plus, amp.s_t_minus])
    if first_error is not None:
        with pytest.raises(PoleAtU) as raised:
            amplitude_columns(params, us)
        assert str(raised.value) == first_error
    else:
        columns = amplitude_columns(params, us)
        assert columns.shape == (4, len(us))
        assert np.array(singles, dtype=np.complex128).T.tobytes() == columns.tobytes()


@pytest.mark.parametrize("us, message", [
    ([1.0, 0.0, 1e100], "amplitudes at u=0.0 are not finite for couplings (0.0, 1e+150, 0.0, 0.0)"),
    ([1e100, 0.0], "amplitudes at u=1e+100 are not finite for couplings (0.0, 1e+150, 0.0, 0.0)"),
], ids=["pole-first", "overflow-first"])
def test_a_batch_raises_at_its_first_pole_or_overflow(us, message):
    with pytest.raises(PoleAtU, match=f"^{re.escape(message)}$"):
        amplitude_columns(CouplingParameters(0.0, 1e150), us)


def test_free_particles_full_transmission():
    amp = amplitudes(CouplingParameters(0.0), 1.0)
    assert amp.s_t_plus == pytest.approx(1.0)
    assert amp.s_t_minus == pytest.approx(1.0)
    assert amp.s_r_plus == pytest.approx(0.0)
    assert amp.s_r_minus == pytest.approx(0.0)


_couplings = st.one_of(st.sampled_from([0.0, 1e150, -1e200]), st.floats(-3.0, 3.0))


@settings(max_examples=200, deadline=None)
@given(c=_couplings, lam=_couplings, gamma=_couplings, eta=_couplings,
       us=st.lists(st.one_of(st.just(0.0), st.floats(-5.0, 5.0)), min_size=1, max_size=6))
@example(c=1.3, lam=-0.4, gamma=0.8, eta=-0.2, us=[1.9])
def test_minus_amplitudes_flip_gamma_eta(c, lam, gamma, eta, us):
    # the shared denominator rests on this: D(u) sees gamma and eta only
    # through their squares, so flipping both leaves its bits alone
    params = CouplingParameters(c, lam, gamma, eta)
    for u in us:
        try:
            amp = amplitudes(params, u)
        except PoleAtU as err:
            with pytest.raises(PoleAtU, match=re.escape(str(err).split(" for couplings")[0])):
                amplitudes(CouplingParameters(c, lam, -gamma, -eta), u)
            continue
        flipped = amplitudes(CouplingParameters(c, lam, -gamma, -eta), u)
        assert amp.s_t_minus == flipped.s_t_plus and amp.s_r_minus == flipped.s_r_plus
        assert amp.s_t_plus == flipped.s_t_minus and amp.s_r_plus == flipped.s_r_minus
    u = np.array(us)
    with np.errstate(over="ignore", invalid="ignore"):
        stp, srp, stm, srm = amplitude_arrays(c, lam, gamma, eta, u)
        f_stp, f_srp, f_stm, f_srm = amplitude_arrays(c, lam, -gamma, -eta, u)
    assert stm.tobytes() == f_stp.tobytes() and srm.tobytes() == f_srp.tobytes()
    assert stp.tobytes() == f_stm.tobytes() and srp.tobytes() == f_srm.tobytes()


@st.composite
def _couplings_of_both_families_and_beyond(draw):
    c, lam, gamma, eta = (draw(_huge_couplings | st.just(-1e200)) for _ in range(4))
    family = draw(st.sampled_from([None, "family1", "family2"]))
    if family == "family1":
        lam = gamma = 0.0
    elif family == "family2" and c != 0.0:
        lam, gamma, eta = 1.0 / c, 0.0, 0.0
    return c, lam, gamma, eta


@settings(max_examples=300, deadline=None)
@given(params=_couplings_of_both_families_and_beyond(),
       us=st.lists(st.sampled_from([0.0, 1e-15, -1e-15]) | st.floats(-5.0, 5.0),
                   min_size=1, max_size=12))
@example(params=(0.0, 0.0, 0.0, 0.0), us=[1e-15, -1e-15, 1.0])  # near the removable u = c = 0
@example(params=(1e200, 0.5, -1e150, 1e200), us=[2.0, -3.0])  # overflow to inf and NaN
def test_minus_u_is_the_conjugate_of_the_other_order(params, us):
    # for real couplings and real u, D(-u) = -conj D(u), so
    # (S_T^+, S_R^+, S_T^-, S_R^-)(-u) = conj(S_T^-, S_R^+, S_T^+, S_R^-)(u):
    # negation is exact and numpy's complex division is symmetric under
    # conjugation, so factorization_panel reads -u off u.  Values are
    # compared with ==, so a zero's sign may differ; every panel residual
    # passes through abs, which hides it.  NaN, at u = c = 0 or from
    # overflow, must sit in the same places.
    u = np.array(us)
    with np.errstate(over="ignore", invalid="ignore"):
        stp, srp, stm, srm = amplitude_arrays(*params, u)
        at_minus_u = amplitude_arrays(*params, -u)
    got = np.array(at_minus_u).view(np.float64)
    want = np.conj([stm, srp, stp, srm]).view(np.float64)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert (got == want)[~np.isnan(got)].all()


def test_closed_form_minus_u_is_the_conjugate_exactly():
    # the symmetry the panel rests on, on the formula itself with real symbols:
    # D(-u) + conj D(u) = 0, and each amplitude at -u, cross-multiplied, is
    # the conjugate of its partner at u
    c, lam, gamma, eta, u = sympy.symbols("c lam gamma eta u", real=True)
    stp, srp, stm, srm, den = _closed_form(c, lam, gamma, eta, u)
    *at_minus_u, den_minus_u = _closed_form(c, lam, gamma, eta, -u)
    assert sympy.expand(den_minus_u + sympy.conjugate(den)) == 0
    for num_minus_u, num in zip(at_minus_u, (stm, srp, stp, srm)):
        assert sympy.expand(num_minus_u * sympy.conjugate(den)
                            - sympy.conjugate(num) * den_minus_u) == 0


@pytest.mark.parametrize("c,eta,u", [(2.0, 1.3, 0.7), (1.0, -0.5, -2.1), (0.4, 2.0, 3.3)])
def test_family1_closed_form(c, eta, u):
    amp = amplitudes(CouplingParameters(c, 0.0, 0.0, eta), u)
    den = (eta**2 + 1) * u + 1j * c
    assert _rel_err(amp.s_t_plus, (-(eta**2) + 2j * eta + 1) * u / den) <= 1e-14
    assert _rel_err(amp.s_t_minus, (-(eta**2) - 2j * eta + 1) * u / den) <= 1e-14
    assert _rel_err(amp.s_r_plus, -1j * c / den) <= 1e-14
    assert amp.s_r_plus == amp.s_r_minus


@pytest.mark.parametrize("c,u", [(1.7, 0.9), (2.5, -1.3), (-0.8, 2.2)])
def test_family2_pure_reflection(c, u):
    amp = amplitudes(CouplingParameters(c, 1.0 / c), u)
    assert abs(amp.s_t_plus) <= 1e-14
    assert abs(amp.s_t_minus) <= 1e-14
    assert abs(abs(amp.s_r_plus) - 1.0) <= 1e-14
    assert _rel_err(amp.s_r_plus, (1j * u + c) / (1j * u - c)) <= 1e-14


def test_family2_reflection_sign():
    # The reflected amplitude at lam = 1/c is (iu + c)/(iu - c).  Its
    # reciprocal (iu - c)/(iu + c) looks plausible but solves neither the
    # closed form nor the boundary conditions; keep this pinned.
    c, u = 1.7, 0.9
    amp = amplitudes(CouplingParameters(c, 1.0 / c), u)
    oracle = amplitudes_bvp_oracle(CouplingParameters(c, 1.0 / c), u, 0.0)
    good = (1j * u + c) / (1j * u - c)
    bad = (1j * u - c) / (1j * u + c)
    assert abs(amp.s_r_plus - good) <= 1e-14
    assert abs(oracle.s_r_plus - good) <= 1e-12
    assert abs(amp.s_r_plus - bad) > 0.5


def test_yang_limit():
    c, u = 1.2, 0.8
    amp = amplitudes(CouplingParameters(c), u)
    assert _rel_err(amp.s_r_plus, c / (1j * u - c)) <= 1e-14
    assert _rel_err(amp.s_t_plus, 1j * u / (1j * u - c)) <= 1e-14


def test_zero_momentum_limit():
    for c in (0.5, 2.0, -1.5):
        amp = amplitudes(CouplingParameters(c, 0.3, 0.2, 0.1), 0.0)
        assert amp.s_t_plus == 0.0
        assert amp.s_r_plus == pytest.approx(-1.0)
        assert amp.s_r_minus == pytest.approx(-1.0)


def test_pole_raised_at_u0_with_c0():
    with pytest.raises(PoleAtU):
        amplitudes(CouplingParameters(0.0), 0.0)


def test_overflowing_couplings_raise_instead_of_returning_nan():
    # eta^2 overflows to inf in numerator and denominator alike, and their
    # quotient is nan
    with pytest.raises(PoleAtU, match=r"u=0\.7 are not finite .*1e\+200"):
        amplitudes(CouplingParameters(1.0, 0.0, 0.0, 1e200), 0.7)


def test_oracle_free_case():
    amp = amplitudes_bvp_oracle(CouplingParameters(0.0), 1.0, 0.0)
    assert amp.s_t_plus == pytest.approx(1.0)
    assert amp.s_r_plus == pytest.approx(0.0, abs=1e-14)


def test_oracle_matches_closed_form_at_fixed_point():
    params = CouplingParameters(2.0, 0.5)
    oracle = amplitudes_bvp_oracle(params, 1.3, -0.7)
    closed = amplitudes(params, 2.0)
    for attr in ("s_t_plus", "s_r_plus", "s_t_minus", "s_r_minus"):
        assert _rel_err(getattr(closed, attr), getattr(oracle, attr)) <= 1e-10


@pytest.mark.parametrize("params, want", [
    (CouplingParameters(0.0), (1.0, 0.0, 1.0, 0.0)),
    (CouplingParameters(0.0, 0.0, 0.3, 0.4), (0.6 + 0.64j, -0.48, 0.6 - 0.64j, 0.48)),
], ids=["free", "gamma-eta"])
def test_oracle_solves_next_to_the_removable_point(params, want):
    # at c = 0 the determinant -2i D(u) of the 2 x 2 system vanishes with u,
    # and so do the right-hand sides: u = 1e-13 solves to the u -> 0 limit
    amp = amplitudes_bvp_oracle(params, 1e-13, 0.0)
    got = (amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus)
    assert got == pytest.approx(want, abs=1e-12)


def test_oracle_refuses_a_singular_system():
    # lam u = 1e400 overflows the contact rows to inf, and the solve to NaN
    with pytest.raises(SingularSystem, match=r"^boundary system singular at k1=1e\+200, k2=0\.0$"):
        amplitudes_bvp_oracle(CouplingParameters(0.0, 1e200), 1e200, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_oracle_solves_where_the_closed_form_overflows():
    # eta^2 = 1e400 overflows the closed form, and the product of two
    # entries overflowed numpy's det in the oracle's former pole test; the
    # solve stays finite and gives the eta -> inf limit
    amp = amplitudes_bvp_oracle(CouplingParameters(1.0, 0.0, 0.0, 1e200), 0.7, 0.0)
    got = (amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus)
    assert got == pytest.approx((-1.0, 0.0, -1.0, 0.0), abs=1e-12)


def test_the_oracle_determinant_is_minus_2i_d_which_vanishes_only_at_u_c_0():
    # the two facts that let amplitudes be refused exactly where they are
    # not finite, with real symbols: the oracle's 2 x 2 block has
    # determinant -2i D(u), and D = 0 only at u = c = 0.  Re D = -K u with
    # K = gamma^2 + eta^2 + c lam + 1, and lam Im D + K is positive, so
    # Re D = Im D = 0 forces u = 0 (else K = 0 and then Im D != 0), then c = 0
    c, lam, gamma, eta, u = sympy.symbols("c lam gamma eta u", real=True)
    den = sympy.nsimplify(_closed_form(c, lam, gamma, eta, u)[-1], rational=True)
    symbolic = types.SimpleNamespace(astuple=lambda: (c, lam, gamma, eta))
    block = _contact_coefficients(symbolic, np.array([u], dtype=object))[0][:, [1, 3]]
    det = sympy.nsimplify(sympy.Matrix(block).det(), rational=True)
    assert sympy.expand(det + 2 * sympy.I * den) == 0
    re_d, im_d = den.as_real_imag()
    k = gamma**2 + eta**2 + c * lam + 1
    assert sympy.expand(re_d + k * u) == 0
    assert sympy.expand(lam * im_d + k - (lam**2 * u**2 + gamma**2 + eta**2 + 1)) == 0
    assert sympy.solve([re_d, im_d], [u, c], dict=True) == [{u: 0, c: 0}]


_extreme_couplings = st.sampled_from([0.0, 1.0, -1.0, 1e150, -1e150]) | st.floats(-3.0, 3.0)
_extreme_us = (st.sampled_from([0.0, 1e-300, -1e-300, 1e-15, -1e-15, 1e13, -1e13, 1e150, -1e150])
               | st.floats(-5.0, 5.0))


@settings(max_examples=300, deadline=None)
@given(params=st.tuples(*[_extreme_couplings] * 4),
       us=st.lists(_extreme_us, min_size=1, max_size=8))
@example(params=(2.0, 0.0, 0.0, 1.0), us=[1e13, -3e12, 1e150])
@example(params=(0.0, 0.0, 0.0, 0.0), us=[1e-15, -1e-300, 1e-9, 1.0, 0.0])
@example(params=(0.0, 1e150, 0.0, 0.0), us=[1.0, 1e150, 0.0])  # overflow, then 0/0
def test_amplitudes_are_refused_exactly_where_they_are_not_finite(params, us):
    # PoleAtU names the first u, in order, with an amplitude that is not
    # finite; elsewhere, at u != 0, the boundary-value oracle agrees to
    # 1e-12 relative to max(1, |S|), or to the forward-error bound of its
    # 2 x 2 solve where that block's condition number exceeds 1e2.  With
    # couplings of 1e150 the block can be singular to working precision,
    # and the oracle then refuses or misses while the closed form holds.
    params = CouplingParameters(*params)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(amplitude_arrays(*params.astuple(), np.array(us))).all(axis=0)
    if not finite.all():
        first = re.escape(str(us[int(finite.argmin())]))
        with pytest.raises(PoleAtU, match=f"^amplitudes at u={first} are not finite"):
            amplitude_columns(params, us)
        return
    for u, (srp, srm, stp, stm) in zip(us, amplitude_columns(params, us).T.tolist()):
        if u == 0:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            cond = np.linalg.cond(_contact_coefficients(params, np.array([u]))[0][:, [1, 3]])
        try:
            oracle = amplitudes_bvp_oracle(params, u, 0.0)
        except SingularSystem:
            assert not cond < 1e14
            continue
        for closed, solved in zip((stp, srp, stm, srm), (oracle.s_t_plus, oracle.s_r_plus,
                                                         oracle.s_t_minus, oracle.s_r_minus)):
            assert abs(closed - solved) <= max(1e-12, 1e-14 * cond) * max(1.0, abs(closed))


def test_oracle_needs_distinct_momenta():
    with pytest.raises(ValueError):
        amplitudes_bvp_oracle(CouplingParameters(1.0), 0.5, 0.5)


def test_oracle_matches_closed_form_randomized():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 300:
        c, lam, gamma, eta = rng.uniform(-3, 3, 4)
        k1, k2 = rng.uniform(-5, 5, 2)
        if abs(k1 - k2) < 0.05:
            continue
        params = CouplingParameters(c, lam, gamma, eta)
        closed = amplitudes(params, k1 - k2)
        oracle = amplitudes_bvp_oracle(params, k1, k2)
        for attr in ("s_t_plus", "s_r_plus", "s_t_minus", "s_r_minus"):
            assert _rel_err(getattr(closed, attr), getattr(oracle, attr)) <= 1e-10
        checked += 1


def test_unitarity_type_identities_hold_for_any_couplings():
    rng = np.random.default_rng(5)
    for _ in range(200):
        params = CouplingParameters(*rng.uniform(-3, 3, 4))
        u = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
        a_p = amplitudes(params, u)
        a_m = amplitudes(params, -u)
        assert abs(a_p.s_r_plus * a_m.s_r_plus + a_p.s_t_minus * a_m.s_t_plus - 1) <= 1e-10
        assert abs(a_p.s_r_minus * a_m.s_r_minus + a_p.s_t_plus * a_m.s_t_minus - 1) <= 1e-10
        assert abs(a_p.s_r_plus * a_m.s_t_minus + a_p.s_t_minus * a_m.s_r_minus) <= 1e-10
        assert abs(a_p.s_r_minus * a_m.s_t_plus + a_p.s_t_plus * a_m.s_r_plus) <= 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_momenta_are_refused(bad):
    p = CouplingParameters(2.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"^relative momentum u must be finite, got -?(nan|inf)$"):
        amplitudes(p, bad)
    pair = r"^oracle momenta \(k1, k2\) must be finite, got non-finite entries at 0-based indices "
    with pytest.raises(ValueError, match=pair + r"\[0\]$"):
        amplitudes_bvp_oracle(p, bad, 1.0)
    with pytest.raises(ValueError, match=pair + r"\[1\]$"):
        amplitudes_bvp_oracle(p, 1.0, bad)
