"""The four-parameter family of local (point) interactions in 1D.

A local two-body interaction is fixed by four real couplings: ``c`` for the
plain delta term, ``lam`` for the delta-prime-type term (written ``lambda``
in config files), and the momentum-dependent pair ``gamma``, ``eta``.  Units
are hbar = 2m = 1 so the kinetic term is -d^2/dx^2, ``c`` carries dimension
of momentum, ``lam`` inverse momentum, and ``gamma``, ``eta`` are
dimensionless.

The couplings enter through two linear contact conditions across the
contact point, written once, in ``_residuals``.  ``contact_residuals``
evaluates them with inf for a residual that cannot be formed,
``_site_contact`` states them on the four coefficients one site couples,
and ``_contact_coefficients`` as the 2 x 4 rows the two oracles solve.
"""

from __future__ import annotations

import math
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
        for name in ("c", "lam", "gamma", "eta"):  # stored as the gate's float64 value
            value = finite_array(getattr(self, name), f"coupling {name}")
            object.__setattr__(self, name, float(value))

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

    No input is refused.  A residual that cannot be formed in floating
    point, because a term leaves the float range and meets another inf or
    a zero (inf - inf, 0 * inf), or because an input is NaN, reads inf,
    and no numpy operation warns; every other residual keeps its bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2 = _residuals(params, v_minus, d_minus, v_plus, d_plus)
    return _inf_where_nan(r1), _inf_where_nan(r2)


def _residuals(params: CouplingParameters, v_minus, d_minus, v_plus, d_plus):
    """The two contact residuals as written, on numbers or on symbols; NaN
    where they cannot be formed, for callers that map their max to inf."""
    c, lam, gamma, eta = params.astuple()
    v_avg = 0.5 * (v_plus + v_minus)
    d_avg = 0.5 * (d_plus + d_minus)
    r1 = (d_plus - d_minus) - 2 * c * v_avg + 2 * (gamma - 1j * eta) * d_avg
    r2 = (v_plus - v_minus) - 2 * lam * d_avg - 2 * (gamma + 1j * eta) * v_avg
    return r1, r2


def _inf_where_nan(residual):
    """A residual, scalar or array, with inf where it has a NaN part; one
    NaN test and no copy when there is none."""
    nan = np.isnan(residual)
    if np.ndim(residual) == 0:
        return complex(math.inf) if nan else residual
    return np.where(nan, math.inf, residual) if nan.any() else residual


def _site_contact(params: CouplingParameters, u, a_p, a_pt, a_p_t, a_pt_t):
    """Residuals (r1, r2) of the contact conditions on A_P(Q), A_{PT}(Q),
    A_P(QT) and A_{PT}(QT), T = T_i, for Q ascending at site i and
    u = k_{P(i)} - k_{P(i+1)}.  Wedge Q lies below the plane, and the wave
    that gives particle Q(i) the momentum k_{P(i)} has relative derivative iu.
    NaN where they cannot be formed: ``bethe._contact_residual`` reads its
    max as inf, and the oracles refuse a system with non-finite rows.
    """
    du = 1j * u
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the float range
        return _residuals(params, a_p + a_pt, du * (a_p - a_pt),
                          a_p_t + a_pt_t, du * (a_pt_t - a_p_t))


def _contact_coefficients(params: CouplingParameters, u: np.ndarray) -> np.ndarray:
    """The two contact conditions as rows over A_P(Q), A_PT(Q), A_P(QT),
    A_PT(QT), one 2 x 4 block for each u: shape (len(u), 2, 4)."""
    # the conditions are linear: a unit vector reads off each coupled unknown's coefficients
    return np.stack(_site_contact(params, u[:, np.newaxis], *np.eye(4)[:, np.newaxis]), axis=1)


def _families(c, lam, gamma, eta):
    """(in family 1, in family 2), each condition to within FAMILY_TOL: bools
    for Python floats, with no numpy call, and bool arrays for arrays."""
    flat = abs(gamma) <= FAMILY_TOL
    return (flat & (abs(lam) <= FAMILY_TOL),
            flat & (abs(eta) <= FAMILY_TOL) & (abs(c * lam - 1.0) <= FAMILY_TOL))


def integrable_family(params: CouplingParameters) -> str | None:
    """Which exactly-solvable coupling family params belong to, if any.

    "family1" is lam = gamma = 0 (delta plus eta-type momentum coupling,
    non-identical particles); "family2" is lam = 1/c, gamma = eta = 0
    (delta plus delta-prime combination), each condition to within the
    absolute FAMILY_TOL.  Returns None otherwise.
    """
    family1, family2 = _families(*params.astuple())
    return "family1" if family1 else "family2" if family2 else None


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
