"""Hyperbolic-space primitives at curvature -1.

d=2 uses the upper half-plane model, d=3 the hyperboloid model.  All
lengths are dimensionless hyperbolic lengths; no curvature parameter is
exposed.  Only d in {2, 3} is supported: every closed form downstream is
specialized to these two dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SPHERE_AREA = {2: 2.0 * math.pi, 3: 4.0 * math.pi}


def check_dimension(d) -> int:
    """Validate the spatial dimension, returning it as an int."""
    if d not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {d!r}")
    return int(d)


def array_module(*args):
    """numpy if any argument is an array, else math: one closed form serves
    both, and floats in give a Python float out without numpy's scalar cost."""
    return np if any(isinstance(x, np.ndarray) for x in args) else math


def holds(condition) -> bool:
    """Whether a comparison made on a number, or elementwise on an array, holds throughout."""
    return condition if isinstance(condition, bool) else bool(np.all(condition))


def sphere_area(d) -> float:
    """Surface measure of the unit sphere S^(d-1): 2*pi or 4*pi."""
    return _SPHERE_AREA[check_dimension(d)]


@dataclass(frozen=True)
class PointH2:
    """Point of the upper half-plane model (z2 > 0)."""

    z1: float
    z2: float

    def __post_init__(self):
        if not self.z2 > 0:
            raise ValueError(f"half-plane point requires z2 > 0, got z2={self.z2}")


@dataclass(frozen=True)
class PointH3:
    """Point of the hyperboloid model: z0 > 0, z0^2 - z1^2 - z2^2 - z3^2 = 1.

    The time-like coordinate z0 is recomputed from the spatial part at
    construction so the quadratic constraint holds to 1e-12; inputs
    violating it by more than 1e-9 are rejected.
    """

    z0: float
    z1: float
    z2: float
    z3: float

    def __post_init__(self):
        if not self.z0 > 0:
            raise ValueError(f"hyperboloid point requires z0 > 0, got z0={self.z0}")
        q = self.z0**2 - self.z1**2 - self.z2**2 - self.z3**2
        if abs(q - 1.0) > 1e-9:
            raise ValueError(f"point not on the hyperboloid: q_d(z) = {q}")
        object.__setattr__(
            self, "z0", math.sqrt(1.0 + self.z1**2 + self.z2**2 + self.z3**2)
        )

    @classmethod
    def from_spatial(cls, z1, z2, z3) -> "PointH3":
        """Lift spatial coordinates onto the hyperboloid."""
        return cls(math.sqrt(1.0 + z1**2 + z2**2 + z3**2), z1, z2, z3)


def geodesic_distance(d, p, q) -> float:
    """Geodesic distance between two points of the model for dimension d.

    d=2 uses the standard half-plane formula, d=3 the arccosh of the
    Lorentz pairing on the hyperboloid.
    """
    d = check_dimension(d)
    if d == 2:
        if not (isinstance(p, PointH2) and isinstance(q, PointH2)):
            raise TypeError("d=2 distance requires PointH2 arguments")
        s = ((p.z1 - q.z1) ** 2 + (p.z2 - q.z2) ** 2) / (2.0 * p.z2 * q.z2)
        return math.acosh(1.0 + s)
    if not (isinstance(p, PointH3) and isinstance(q, PointH3)):
        raise TypeError("d=3 distance requires PointH3 arguments")
    pairing = p.z0 * q.z0 - p.z1 * q.z1 - p.z2 * q.z2 - p.z3 * q.z3
    # rounding can push the pairing of nearby points slightly below 1
    return math.acosh(max(1.0, pairing))


def radial_weight(d, r):
    """Surface measure of the geodesic sphere of radius r (a float or an array).

    Equals vol(S^{d-1}) * sinh^{d-1}(r); this is the weight of hyperbolic
    polar coordinates and of every radial quadrature in the package.
    """
    d = check_dimension(d)
    if not holds(r >= 0):
        raise ValueError(f"radius must be nonnegative, got {r}")
    return sphere_area(d) * array_module(r).sinh(r) ** (d - 1)


def ball_volume(d, R) -> float:
    """Volume of the geodesic ball of radius R (closed-form integral of
    radial_weight): 2*pi*(cosh R - 1) for d=2, pi*(sinh 2R - 2R) for d=3."""
    d = check_dimension(d)
    if R < 0:
        raise ValueError(f"radius must be nonnegative, got {R}")
    if d == 2:
        return 2.0 * math.pi * (math.cosh(R) - 1.0)
    return math.pi * (math.sinh(2.0 * R) - 2.0 * R)
