"""The four-parameter family of local (point) interactions in 1D.

A local two-body interaction is fixed by four real couplings: ``c`` for the
plain delta term, ``lam`` for the delta-prime-type term (written ``lambda``
in config files), and the momentum-dependent pair ``gamma``, ``eta``.  Units
are hbar = 2m = 1 so the kinetic term is -d^2/dx^2, ``c`` carries dimension
of momentum, ``lam`` inverse momentum, and ``gamma``, ``eta`` are
dimensionless.

The couplings enter through two linear contact conditions across the
contact point; ``contact_residuals`` is their one encoding.  ``_site_contact``
states them on the four coefficients one site couples, and
``_contact_coefficients`` as the 2 x 4 rows the two oracles solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotGaugeFamily, finite_array

FAMILY_TOL = 1e-9


@dataclass(frozen=True)
class CouplingParameters:
    """Couplings (c, lambda, gamma, eta) of a local two-body interaction."""

    c: float
    lam: float = 0.0
    gamma: float = 0.0
    eta: float = 0.0

    def __post_init__(self):
        for name in ("c", "lam", "gamma", "eta"):
            finite_array(getattr(self, name), f"coupling {name}")

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.c, self.lam, self.gamma, self.eta)


@dataclass(frozen=True)
class GaugeData:
    """Delta-gas coupling and step-phase angle equivalent to (c, 0, 0, eta)."""

    c_tilde: float
    alpha: float


def contact_residuals(params: CouplingParameters, v_minus, d_minus, v_plus, d_plus):
    """Residuals (r1, r2) of the two contact conditions from the value and
    relative derivative just below (v_minus, d_minus) and just above
    (v_plus, d_plus) the contact point; scalars or numpy arrays.

    d is (d/dx_j - d/dx_k) psi, twice the derivative psi' in the relative
    coordinate x_j - x_k.  On family 2 (gamma = eta = 0, c lam = 1) both
    vanish exactly when d_plus = c v_plus and d_minus = -c v_minus: two
    Robin conditions, so the two sides of the contact decouple.
    """
    c, lam, gamma, eta = params.astuple()
    v_avg = 0.5 * (v_plus + v_minus)
    d_avg = 0.5 * (d_plus + d_minus)
    r1 = (d_plus - d_minus) - 2 * c * v_avg + 2 * (gamma - 1j * eta) * d_avg
    r2 = (v_plus - v_minus) - 2 * lam * d_avg - 2 * (gamma + 1j * eta) * v_avg
    return r1, r2


def _site_contact(params: CouplingParameters, u, a_p, a_pt, a_p_t, a_pt_t):
    """Residuals (r1, r2) of the contact conditions on A_P(Q), A_{PT}(Q),
    A_P(QT) and A_{PT}(QT), T = T_i, for Q ascending at site i and
    u = k_{P(i)} - k_{P(i+1)}.  Wedge Q lies below the plane, and the wave
    that gives particle Q(i) the momentum k_{P(i)} has relative derivative iu.
    """
    du = 1j * u
    return contact_residuals(params, a_p + a_pt, du * (a_p - a_pt),
                             a_p_t + a_pt_t, du * (a_pt_t - a_p_t))


def _contact_coefficients(params: CouplingParameters, u: np.ndarray) -> np.ndarray:
    """The two contact conditions as rows over A_P(Q), A_PT(Q), A_P(QT),
    A_PT(QT), one 2 x 4 block for each u: shape (len(u), 2, 4)."""
    # the conditions are linear: the coefficient of each coupled unknown
    coefficients = np.array([_site_contact(params, u, *unit) for unit in np.eye(4)])
    return coefficients.transpose(2, 1, 0)


def integrable_family(params: CouplingParameters) -> str | None:
    """Which exactly-solvable coupling family params belong to, if any.

    "family1" is lam = gamma = 0 (delta plus eta-type momentum coupling,
    non-identical particles); "family2" is lam = 1/c, gamma = eta = 0
    (delta plus delta-prime combination), each condition to within the
    absolute FAMILY_TOL.  Returns None otherwise.
    """
    c, lam, gamma, eta = params.astuple()
    if abs(lam) <= FAMILY_TOL and abs(gamma) <= FAMILY_TOL:
        return "family1"
    if abs(gamma) <= FAMILY_TOL and abs(eta) <= FAMILY_TOL and abs(c * lam - 1.0) <= FAMILY_TOL:
        return "family2"
    return None


def gauge_data(params: CouplingParameters) -> GaugeData:
    """Gauge-equivalence data for the family (c, 0, 0, eta).

    Returns c_tilde = c / (1 + eta^2) and the principal angle alpha with
    exp(i alpha) = (1 + i eta) / (1 - i eta).  Only exp(i alpha) has
    physical meaning; the principal branch keeps reports reproducible.
    Needs lam = gamma = 0 exactly, deliberately stricter than FAMILY_TOL:
    the step-phase map is exact only there.
    """
    if params.lam != 0 or params.gamma != 0:
        raise NotGaugeFamily(
            f"gauge map needs lambda = gamma = 0, got {params.astuple()}"
        )
    eta = params.eta
    alpha = float(np.angle((1 + 1j * eta) / (1 - 1j * eta)))
    # eta * eta overflows to inf where eta**2 raises OverflowError
    return GaugeData(c_tilde=params.c / (1 + eta * eta), alpha=alpha)
