"""The four-parameter family of local (point) interactions in 1D.

A local two-body interaction is fixed by four real couplings: ``c`` for the
plain delta term, ``lam`` for the delta-prime-type term (written ``lambda``
in config files), and the momentum-dependent pair ``gamma``, ``eta``.  Units
are hbar = 2m = 1 so the kinetic term is -d^2/dx^2, ``c`` carries dimension
of momentum, ``lam`` inverse momentum, and ``gamma``, ``eta`` are
dimensionless.

The boundary conditions across the contact point are encoded by the 2x2
matrix U = (U_+)^{-1} U_-; self-adjointness is the relation U^dag J U = J
with J the standard antisymmetric form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, NotGaugeFamily

J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)

_DET_TOL = 1e-12
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
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"coupling {name} must be finite, got {v}")

    def flipped(self) -> "CouplingParameters":
        """Couplings with (gamma, eta) -> (-gamma, -eta), i.e. the same
        interaction seen with the two particles exchanged."""
        return CouplingParameters(self.c, self.lam, -self.gamma, -self.eta)

    def astuple(self) -> tuple[float, float, float, float]:
        return (self.c, self.lam, self.gamma, self.eta)


@dataclass(frozen=True)
class GaugeData:
    """Delta-gas coupling and step-phase angle equivalent to (c, 0, 0, eta)."""

    c_tilde: float
    alpha: float


def build_u_pm(params: CouplingParameters) -> tuple[np.ndarray, np.ndarray]:
    """The matrices U_+ and U_- whose quotient gives the boundary matrix.

    U_pm = [[1 +- (gamma - i eta), -+ c/2], [-+ 2 lam, 1 -+ (gamma + i eta)]].
    """
    c, lam, gamma, eta = params.astuple()
    g_minus = gamma - 1j * eta
    g_plus = gamma + 1j * eta
    u_plus = np.array([[1 + g_minus, -c / 2], [-2 * lam, 1 - g_plus]])
    u_minus = np.array([[1 - g_minus, c / 2], [2 * lam, 1 + g_plus]])
    return u_plus, u_minus


def boundary_matrix(params: CouplingParameters) -> np.ndarray:
    """Boundary matrix U = (U_+)^{-1} U_- relating one-sided limits of
    (psi', psi) across the contact point.

    Raises DegenerateBoundary when det(U_+) vanishes; e.g. (c, 1/c, 0, 0)
    has separated boundary conditions and no U of this form.
    """
    u_plus, u_minus = build_u_pm(params)
    det = u_plus[0, 0] * u_plus[1, 1] - u_plus[0, 1] * u_plus[1, 0]
    if abs(det) <= _DET_TOL:
        raise DegenerateBoundary(
            f"det(U_+) = {det:.3e} for couplings {params.astuple()}"
        )
    return np.linalg.solve(u_plus, u_minus)


def contact_residuals(params: CouplingParameters, v_minus, d_minus, v_plus, d_plus):
    """Residuals (r1, r2) of the two contact conditions from the value and
    relative derivative just below (v_minus, d_minus) and just above
    (v_plus, d_plus) the contact point; scalars or numpy arrays.

    d is (d/dx_j - d/dx_k) psi, twice the derivative psi' in the relative
    coordinate x_j - x_k.  Where det(U_+) != 0 both residuals vanish exactly
    when (d_plus/2, v_plus) = U (d_minus/2, v_minus), U = ``boundary_matrix``.
    """
    c, lam, gamma, eta = params.astuple()
    v_avg = 0.5 * (v_plus + v_minus)
    d_avg = 0.5 * (d_plus + d_minus)
    r1 = (d_plus - d_minus) - 2 * c * v_avg + 2 * (gamma - 1j * eta) * d_avg
    r2 = (v_plus - v_minus) - 2 * lam * d_avg - 2 * (gamma + 1j * eta) * v_avg
    return r1, r2


def check_symplectic(u: np.ndarray) -> float:
    """Max-norm residual of U^dag J U - J; zero for any physical U."""
    u = np.asarray(u, dtype=complex)
    return float(np.abs(u.conj().T @ J @ u - J).max())


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
