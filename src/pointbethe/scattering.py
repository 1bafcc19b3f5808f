"""Two-body scattering amplitudes for the general point interaction.

For relative momentum u = k1 - k2 the transmission and reflection
amplitudes have the closed form

    S_T^+(u) = (gamma^2 + eta^2 - 2i eta + c lam - 1) u / D(u)
    S_R^+(u) = (i lam u^2 + 2 gamma u + i c) / D(u)
    D(u)     = i lam u^2 - (gamma^2 + eta^2 + c lam + 1) u - i c

and the minus amplitudes are the same expressions with
(gamma, eta) -> (-gamma, -eta); they describe scattering with the two
particles' roles exchanged.  D(u) sees them only through gamma^2 and
eta^2, so one D(u) and one pole-guard test serve both particle orders.
For real couplings and real u the interaction is time-reversal
symmetric: D(-u) = -conj D(u), so S_R^+(-u) = conj S_R^+(u),
S_R^-(-u) = conj S_R^-(u), S_T^+(-u) = conj S_T^-(u) and
S_T^-(-u) = conj S_T^+(u), in floating point too, up to the sign of a
zero; ``_kernels.factorization_panel`` reads its -u amplitudes off u.
``amplitude_arrays`` is the one evaluator of the formula and holds that
one test; ``amplitude_columns`` and its one-point case ``amplitudes``
read it.  ``amplitudes_bvp_oracle`` rederives the same numbers by
substituting the two-particle plane-wave ansatz into the contact boundary
conditions and solving the resulting 2x2 linear system once for both
incident waves; it shares no algebra with the closed form, not even the
(gamma, eta) flip, and is used to validate it.

For real u the denominator can only vanish at u = 0 with c = 0; bound-state
poles sit at complex u and are out of scope, but a guard band around any
small denominator raises PoleAtU rather than returning garbage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingParameters, _contact_coefficients
from .errors import PoleAtU, SingularSystem, finite_array

POLE_GUARD = 1e-12


@dataclass(frozen=True)
class AmplitudeSet:
    """The four two-body amplitudes at relative momentum u."""

    s_t_plus: complex
    s_r_plus: complex
    s_t_minus: complex
    s_r_minus: complex


def _closed_form(c, lam, gamma, eta, u):
    """Numerators of S_T^+, S_R^+, S_T^-, S_R^- and their shared D(u).

    The one home of the amplitude formula; works on Python scalars and on
    numpy arrays of u alike.  Each sign's numerators are the same
    expressions, on (gamma, eta) and then on (-gamma, -eta).
    """
    quad = 1j * lam * u * u
    den = quad - (gamma * gamma + eta * eta + c * lam + 1.0) * u - 1j * c
    nums = []
    for g, e in ((gamma, eta), (-gamma, -eta)):
        nums += ((g * g + e * e - 2j * e + c * lam - 1.0) * u, quad + 2.0 * g * u + 1j * c)
    return (*nums, den)


def amplitude_arrays(c: float, lam: float, gamma: float, eta: float, u: np.ndarray):
    """(S_T^+, S_R^+, S_T^-, S_R^-, ok) over an array of u; ``ok`` is False
    inside the pole guard, where entries hold filler, not amplitudes.  A
    denominator that overflowed to NaN is not inside the guard: its
    amplitudes come out NaN.  The couplings must broadcast against u to
    the shape of the result.
    """
    *nums, den = _closed_form(c, lam, gamma, eta, u)
    pole = np.abs(den) <= POLE_GUARD * np.maximum(1.0, u * u)
    safe = np.where(pole, 1.0, den)
    for num in nums:
        np.divide(num, safe, out=num)
    return (*nums, ~pole)


def amplitude_columns(params: CouplingParameters, us) -> np.ndarray:
    """S_R^+, S_R^-, S_T^+, S_T^- at each u of ``us``, shape (4, len(us)),
    from one ``amplitude_arrays`` call.

    Raises PoleAtU at the first u, in order, inside the pole guard or whose
    amplitudes overflow (huge couplings), and ValueError for a non-finite u.
    """
    us = finite_array(us, "relative momenta u", (None,))
    with np.errstate(over="ignore", invalid="ignore"):
        stp, srp, stm, srm, ok = amplitude_arrays(*params.astuple(), us)
        out = np.array([srp, srm, stp, stm])
        bad = ~ok | ~np.isfinite(out).all(axis=0)
        if bad.any():
            j = int(bad.argmax())
            u = float(us[j])
            if not ok[j]:
                den = _closed_form(*params.astuple(), u)[-1]  # for the message only
                raise PoleAtU(f"amplitude denominator {den:.3e} at u={u}")
            raise PoleAtU(f"amplitudes at u={u} are not finite for couplings {params.astuple()}")
    return out


def amplitudes(params: CouplingParameters, u: float) -> AmplitudeSet:
    """Closed-form amplitudes at relative momentum u: ``amplitude_columns``
    at the one point u, with its PoleAtU, and ValueError for a non-finite u.
    """
    u = float(finite_array(u, "relative momentum u"))
    s_r_plus, s_r_minus, s_t_plus, s_t_minus = amplitude_columns(params, [u])[:, 0].tolist()
    return AmplitudeSet(s_t_plus, s_r_plus, s_t_minus, s_r_minus)


def amplitudes_bvp_oracle(params: CouplingParameters, k1: float, k2: float) -> AmplitudeSet:
    """Amplitudes from one direct boundary-value solve (validation oracle).

    Over (A_P(Q), A_PT(Q), A_P(QT), A_PT(QT)), the contact rows at
    u = k1 - k2 give (A_PT(Q), A_PT(QT)) = (S_R^+, S_T^+) for the wave
    incident with A_P(Q) = 1 and (S_T^-, S_R^-) for the one with
    A_P(QT) = 1, the Y-step relations of ``bethe``: one 2 x 2 solve serves
    both.  The rows come from the contact residuals, so the oracle shares
    no algebra with the closed form.  Requires finite k1 != k2; a singular
    system raises SingularSystem.
    """
    finite_array((k1, k2), "oracle momenta (k1, k2)", (2,))
    if k1 == k2:
        raise ValueError("oracle needs distinct momenta k1 != k2")
    u = k1 - k2
    rows = _contact_coefficients(params, np.array([u]))[0]
    mat = rows[:, [1, 3]]
    if abs(np.linalg.det(mat)) <= POLE_GUARD * max(1.0, u * u):
        raise SingularSystem(f"boundary system singular at k1={k1}, k2={k2}")
    (s_r_plus, s_t_minus), (s_t_plus, s_r_minus) = np.linalg.solve(mat, -rows[:, [0, 2]]).tolist()
    return AmplitudeSet(s_t_plus, s_r_plus, s_t_minus, s_r_minus)
