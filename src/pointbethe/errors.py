"""Exception types raised by the library, and its one input gate.

Every public entry point answers or raises an error naming the bad input.
Domain failures derive from PointBetheError, so callers can catch the
whole family at once.  A non-finite, mis-shaped, non-integer or
out-of-range argument raises a ValueError from ``finite_array`` or
``whole_number``, the one place each of those checks is written.  A
residual that cannot be formed in floating point reads inf through
``nan_to_inf``, so it fails every tolerance and no report prints NaN.
"""

import math

import numpy as np


class PointBetheError(Exception):
    """Base class for domain-specific failures."""


class NotGaugeFamily(PointBetheError):
    """Gauge data requested for couplings outside the (c, 0, 0, eta) family."""


class PoleAtU(PointBetheError):
    """A two-body amplitude is not finite at the requested momentum: the
    0/0 of relative momentum u = 0 at c = 0, or overflow in the closed form
    (huge couplings, or a subnormal u at c = 0).  For real couplings and real u its denominator
    vanishes nowhere else; bound-state poles sit at complex u."""


class SingularSystem(PointBetheError):
    """The two-particle boundary-condition system is numerically singular."""


class NotIntegrable(PointBetheError):
    """Coefficient propagation refused: for these couplings the result would
    depend on the chosen transposition decomposition."""


class OnBoundary(PointBetheError):
    """Two coordinates coincide within tolerance; the wedge is ambiguous."""


def _shape_text(shape) -> str:
    return str(tuple("M" if n is None else n for n in shape)).replace("'", "")  # (M, 3)


def finite_array(x, what: str, shape=(), dtype=np.float64, empty: str | None = None) -> np.ndarray:
    """x as a fresh C-ordered ``dtype`` array of ``shape`` (None: any length)
    with finite entries; the ValueError names ``what`` and the shapes or the
    0-based indices of the non-finite entries (rows, for 2D), or is the
    message ``empty``, when given, for an x with no entries.  Shape ()
    returns a numpy scalar, which is a Python float (or complex) too."""
    try:
        a = np.array(x, dtype=dtype, order="C")
    except (TypeError, ValueError, OverflowError) as exc:  # ragged or not numeric
        raise ValueError(f"{what} must be a numeric array of shape {_shape_text(shape)}: {exc}")
    if empty and a.size == 0:
        raise ValueError(empty)
    if a.shape != shape and (a.ndim != len(shape)
                             or any(n not in (None, m) for n, m in zip(shape, a.shape))):
        raise ValueError(f"{what} must have shape {_shape_text(shape)}, got {a.shape}")
    if not np.isfinite(a).all():
        if a.ndim == 0:
            raise ValueError(f"{what} must be finite, got {x}")
        bad = np.flatnonzero(~np.isfinite(a).reshape(len(a), -1).all(axis=1)).tolist()
        kind = "entries" if a.ndim == 1 else "rows"
        raise ValueError(f"{what} must be finite, got non-finite {kind} at 0-based indices {bad}")
    return a if a.ndim else a[()]


def nan_to_inf(residual) -> float:
    """A residual as a Python float, inf where it is NaN: an intermediate
    that left the float range (inf - inf, inf * 0) could not be formed."""
    residual = float(residual)
    return math.inf if math.isnan(residual) else residual


def whole_number(x, what: str, lo: int, hi: int | None = None) -> int:
    """x as an int in lo..hi (hi None: unbounded); bools and non-integers like 2.0 are refused."""
    if (isinstance(x, bool) or not isinstance(x, (int, np.integer))
            or x < lo or (hi is not None and x > hi)):
        span = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{what} must be a whole number {span}, got {x!r}")
    return int(x)
