"""Exception types raised by the library.

All domain errors derive from PointBetheError so callers can catch the
whole family at once; ordinary programming errors (bad array shapes,
out-of-range indices) raise the usual ValueError/IndexError instead.
"""


class PointBetheError(Exception):
    """Base class for domain-specific failures."""


class NotGaugeFamily(PointBetheError):
    """Gauge data requested for couplings outside the (c, 0, 0, eta) family."""


class PoleAtU(PointBetheError):
    """Scattering-amplitude denominator vanishes at the requested momentum
    (bound-state pole; bound states are out of scope)."""


class SingularSystem(PointBetheError):
    """The two-particle boundary-condition system is numerically singular."""


class NotIntegrable(PointBetheError):
    """Coefficient propagation refused: for these couplings the result would
    depend on the chosen transposition decomposition."""


class OnBoundary(PointBetheError):
    """Two coordinates coincide within tolerance; the wedge is ambiguous."""
