"""Two-body scattering amplitudes for the general point interaction.

For relative momentum u = k1 - k2 the transmission and reflection
amplitudes have the closed form

    S_T^+(u) = (gamma^2 + eta^2 - 2i eta + c lam - 1) u / D(u)
    S_R^+(u) = (i lam u^2 + 2 gamma u + i c) / D(u)
    D(u)     = i lam u^2 - (gamma^2 + eta^2 + c lam + 1) u - i c

and the minus amplitudes are the same expressions with
(gamma, eta) -> (-gamma, -eta); they describe scattering with the two
particles' roles exchanged.  D(u) sees them only through gamma^2 and
eta^2, so one D(u) serves both particle orders.
For real couplings and real u the interaction is time-reversal
symmetric: D(-u) = -conj D(u), so S_R^+(-u) = conj S_R^+(u),
S_R^-(-u) = conj S_R^-(u), S_T^+(-u) = conj S_T^-(u) and
S_T^-(-u) = conj S_T^+(u), in floating point too, up to the sign of a
zero; ``_kernels.factorization_panel`` reads its -u amplitudes off u.
``amplitude_arrays`` is the one evaluator of the formula;
``amplitude_columns`` and its one-point case ``amplitudes`` read it.
``amplitudes_bvp_oracle`` rederives the same numbers by
substituting the two-particle plane-wave ansatz into the contact boundary
conditions and solving the resulting 2x2 linear system once for both
incident waves; it shares no algebra with the closed form, not even the
(gamma, eta) flip, and is used to validate it; its determinant is -2i D(u).

For real couplings and real u, D = 0 only at u = c = 0 (Re D = -K u with
K = gamma^2 + eta^2 + c lam + 1, and lam Im D + K = lam^2 u^2 + gamma^2 +
eta^2 + 1 > 0), where every numerator vanishes too; bound-state poles sit
at complex u and are out of scope.  So PoleAtU refuses an amplitude
exactly where it is not finite: that 0/0, and overflow, from huge
couplings or, at c = 0, from a subnormal u whose 1/D exceeds the range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingParameters, _contact_coefficients
from .errors import PoleAtU, SingularSystem, finite_array


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
    """[S_T^+, S_R^+, S_T^-, S_R^-] over an array of u: NaN at u = c = 0,
    and NaN or inf where the evaluation overflows.  The couplings must
    broadcast against u to the shape of the result.
    """
    *nums, den = _closed_form(c, lam, gamma, eta, u)
    for num in nums:
        np.divide(num, den, out=num)
    return nums


def amplitude_columns(params: CouplingParameters, us) -> np.ndarray:
    """S_R^+, S_R^-, S_T^+, S_T^- at each u of ``us``, shape (4, len(us)),
    from one ``amplitude_arrays`` call.

    Raises PoleAtU at the first u, in order, whose amplitudes are not
    finite (u = c = 0, or overflow), and ValueError for a non-finite u.
    """
    us = finite_array(us, "relative momenta u", (None,))
    with np.errstate(over="ignore", invalid="ignore"):
        stp, srp, stm, srm = amplitude_arrays(*params.astuple(), us)
        out = np.array([srp, srm, stp, stm])
    bad = ~np.isfinite(out).all(axis=0)
    if bad.any():
        u = float(us[bad.argmax()])
        raise PoleAtU(f"amplitudes at u={u} are not finite for couplings {params.astuple()}")
    return out


def amplitudes(params: CouplingParameters, u: float) -> AmplitudeSet:
    """Closed-form amplitudes at relative momentum u: ``amplitude_columns``
    at the one point u, with its PoleAtU, and ValueError for a non-finite u.
    """
    u = float(finite_array(u, "relative momentum u"))
    s_r_plus, s_r_minus, s_t_plus, s_t_minus = amplitude_columns(params, [u])[:, 0].tolist()
    return AmplitudeSet(s_t_plus, s_r_plus, s_t_minus, s_r_minus)


def amplitudes_bvp_oracle(params: CouplingParameters, u: float) -> AmplitudeSet:
    """Amplitudes from one direct boundary-value solve (validation oracle).

    Over (A_P(Q), A_PT(Q), A_P(QT), A_PT(QT)), the contact rows at
    relative momentum u give (A_PT(Q), A_PT(QT)) = (S_R^+, S_T^+) for the
    wave incident with A_P(Q) = 1 and (S_T^-, S_R^-) for the one with
    A_P(QT) = 1, the Y-step relations of ``bethe``: one 2 x 2 solve serves
    both.  The rows come from the contact residuals, so the oracle shares
    no algebra with the closed form.  Requires a finite u != 0; a solve
    that fails or gives a non-finite amplitude (couplings so large that
    the rows overflow) raises SingularSystem.
    """
    u = float(finite_array(u, "relative momentum u"))
    if u == 0:
        raise ValueError("oracle needs a relative momentum u != 0")
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _contact_coefficients(params, np.array([u]))[0]
        try:
            solved = np.linalg.solve(rows[:, [1, 3]], -rows[:, [0, 2]])
        except np.linalg.LinAlgError:
            solved = None
    if solved is None or not np.isfinite(solved).all():
        raise SingularSystem(f"boundary system singular at u={u}")
    (s_r_plus, s_t_minus), (s_t_plus, s_r_minus) = solved.tolist()
    return AmplitudeSet(s_t_plus, s_r_plus, s_t_minus, s_r_minus)
