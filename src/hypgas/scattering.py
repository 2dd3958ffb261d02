"""Zero-energy two-body scattering on hyperbolic space.

Solves the radial equation

    -mu * (f'' + (d-1) coth(r) f') + (1/2) V(r) f = 0

for a repulsive, compactly supported potential V, matches the solution to
the exterior harmonic form alpha + beta * F_d(r) with

    F_2(r) = ln tanh(r/2),   F_3(r) = -coth(r),

and extracts the hyperbolic scattering length a as the zero of the matched
exterior solution.  A hardcore potential of radius R0 is modeled as the
Dirichlet constraint f = 0 on [0, R0] (no large-finite-V approximation),
for which a = R0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .errors import MatchingError
from .geometry import check_dimension, sphere_area

HARDCORE = "hardcore"
PIECEWISE = "piecewise_constant"

DEFAULT_TOL = 1e-10
PROFILE_NODES = 4097  # uniform nodes of a profile grid, to which the breakpoints are added
_SERIES_START = 1e-6


@dataclass(frozen=True)
class Potential:
    """Radial, nonnegative, compactly supported two-body interaction.

    kind is "hardcore" or "piecewise_constant".  pieces is a sequence of
    (radius, value) pairs with strictly increasing radii, the last radius
    equal to r0; value i applies on [radius_{i-1}, radius_i).
    """

    kind: str
    r0: float
    pieces: tuple = ()

    def __post_init__(self):
        if self.kind not in (HARDCORE, PIECEWISE):
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not self.r0 > 0:
            raise ValueError(f"support radius must be positive, got {self.r0}")
        object.__setattr__(
            self, "pieces", tuple((float(r), float(v)) for r, v in self.pieces)
        )
        if self.kind == HARDCORE:
            if self.pieces:
                raise ValueError("hardcore potential stores no finite values")
            return
        if not self.pieces:
            raise ValueError("piecewise potential requires at least one piece")
        radii = [r for r, _ in self.pieces]
        if any(b <= a for a, b in zip([0.0] + radii, radii)):
            raise ValueError("piece radii must be strictly increasing and positive")
        if radii[-1] != self.r0:
            raise ValueError(
                f"last piece radius {radii[-1]} must equal the support radius {self.r0}"
            )
        if any(v < 0 for _, v in self.pieces):
            raise ValueError("potential values must be nonnegative")

    @classmethod
    def hardcore(cls, r0) -> "Potential":
        return cls(HARDCORE, float(r0))

    @classmethod
    def piecewise(cls, pieces) -> "Potential":
        pieces = tuple(pieces)
        return cls(PIECEWISE, pieces[-1][0], pieces)

    def value(self, r) -> float:
        """Evaluate V(r); math.inf inside a hardcore, 0 beyond the support."""
        if r < 0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        if r >= self.r0:
            return 0.0
        if self.kind == HARDCORE:
            return math.inf
        for radius, v in self.pieces:
            if r < radius:
                return v
        return 0.0

    def cell_edges(self) -> tuple:
        """Breakpoints of the piecewise-constant structure, 0 through r0."""
        if self.kind == HARDCORE:
            return (0.0, self.r0)
        return (0.0,) + tuple(r for r, _ in self.pieces)


@dataclass(frozen=True)
class ScatteringParams:
    """Kinetic coefficient mu and dimension of the two-body problem."""

    mu: float
    d: int

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError(f"kinetic coefficient must be positive, got {self.mu}")
        object.__setattr__(self, "d", check_dimension(self.d))


@dataclass(frozen=True)
class RadialProfile:
    """Monotone radial profile with values in [0, 1], normalized to 1 at r_max."""

    grid: np.ndarray
    values: np.ndarray
    r_max: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.shape != values.shape or grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid and values must be 1-d arrays of equal length >= 2")
        if grid[0] < 0 or np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing and nonnegative")
        if abs(grid[-1] - self.r_max) > 1e-12:
            raise ValueError("grid must end at r_max")
        tol = 1e-9
        if np.any(values < -tol) or np.any(values > 1.0 + tol):
            raise ValueError("profile values must lie in [0, 1]")
        if np.any(np.diff(values) < -tol):
            raise ValueError("profile values must be non-decreasing")
        if abs(values[-1] - 1.0) > tol:
            raise ValueError(f"profile must equal 1 at r_max, got {values[-1]}")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, r):
        """Evaluate by interpolation, extending by 1 beyond r_max."""
        return np.interp(r, self.grid, self.values, right=1.0)


@dataclass(frozen=True)
class ScatteringSolution:
    """Scattering length with its matching data and, on demand, the radial profile.

    alpha and beta are the coefficients of the exterior harmonic solution
    alpha + beta * F_d(r), normalized to 1 at r_max, where the profile
    ends.  c_d is the r-independent flux constant f'(r) sinh^{d-1}(r) of
    the a-normalized exterior solution: 1 for d=2, tanh(a) for d=3.
    """

    a: float
    alpha: float
    beta: float
    c_d: float
    params: ScatteringParams
    potential: Potential
    r_max: float
    # (segments, norm): the dense interior segments of the solve that gave a,
    # and f(r_max) before normalization; the profile is evaluated from them
    _interior: tuple = field(repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.a <= self.potential.r0 + 1e-9:
            raise ValueError(
                f"scattering length {self.a} outside [0, R0={self.potential.r0}]"
            )

    @cached_property
    def profile(self) -> RadialProfile:
        """Regular solution on [0, r_max], built on first access."""
        return _build_profile(self)


def harmonic_primitive(d, r) -> float:
    """The radial harmonic function F_d: ln tanh(r/2) for d=2, -coth(r) for d=3.

    F_d' (r) = sinh^{1-d}(r) in both dimensions.
    """
    d = check_dimension(d)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if d == 2:
        return math.log(math.tanh(r / 2.0))
    return -1.0 / math.tanh(r)


def f_infinity(d, a, r) -> float:
    """The exterior zero-energy solution vanishing at r = a.

    d=2: ln(tanh(r/2)/tanh(a/2));  d=3: 1 - tanh(a)/tanh(r).
    Negative for r < a, zero at r = a, positive for r > a.
    """
    d = check_dimension(d)
    if a <= 0:
        raise ValueError(f"scattering length must be positive, got {a}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    if d == 2:
        return math.log(math.tanh(r / 2.0) / math.tanh(a / 2.0))
    return 1.0 - math.tanh(a) / math.tanh(r)


def c_d(d, a) -> float:
    """Flux constant f_infinity'(r) * sinh^{d-1}(r): 1 for d=2, tanh(a) for d=3."""
    d = check_dimension(d)
    if a < 0:
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    if d == 2:
        return 1.0
    return math.tanh(a)


def _integrate_interior(V, params, tol):
    """Integrate the regular radial solution across supp V.

    Starts at r = 1e-6 from the regular-solution expansion f = 1 + O(r^2),
    f'(r) = V(0) r / (2 mu d), and returns (segments, f(R0), f'(R0)) where
    segments is a list of (lo, hi, dense_solution) covering [1e-6, R0].
    """
    mu, d = params.mu, params.d
    edges = V.cell_edges()
    r = _SERIES_START
    v0 = V.pieces[0][1]
    y = np.array([1.0, v0 * r / (2.0 * mu * d)])
    segments = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        lo = max(lo, r)
        v = V.value(0.5 * (lo + hi))

        def rhs(rr, yy, v=v):
            f, fp = yy
            return [fp, v / (2.0 * mu) * f - (d - 1) / math.tanh(rr) * fp]

        sol = solve_ivp(
            rhs, (lo, hi), y, method="DOP853", rtol=tol, atol=tol, dense_output=True
        )
        if not sol.success:
            raise MatchingError(f"interior integration failed on [{lo}, {hi}]: {sol.message}")
        segments.append((lo, hi, sol.sol))
        y = sol.y[:, -1]
    return segments, y[0], y[1]


def _match_exterior(d, r0, f_r0, fp_r0):
    """Matching coefficients (alpha, beta) at r = R0 by continuity of f, f'."""
    beta = fp_r0 * math.sinh(r0) ** (d - 1)
    alpha = f_r0 - beta * harmonic_primitive(d, r0)
    return alpha, beta


def _length_from_matching(d, alpha, beta, r0):
    """Zero of alpha + beta * F_d; a = 0 by convention when beta = 0."""
    if abs(beta) <= 1e-13 * max(abs(alpha), 1.0):
        return 0.0
    if beta < 0:
        raise MatchingError(f"negative exterior flux beta = {beta}")
    if d == 2:
        t = math.exp(-alpha / beta)  # tanh(a/2)
        if not 0.0 < t < 1.0:
            raise MatchingError(f"no root of the exterior solution (tanh(a/2) = {t})")
        a = 2.0 * math.atanh(t)
    else:
        if alpha <= beta:
            raise MatchingError(
                f"no root of the exterior solution (alpha = {alpha}, beta = {beta})"
            )
        a = math.atanh(beta / alpha)
    if a > r0 + 1e-8:
        raise MatchingError(f"matched scattering length {a} exceeds the support radius {r0}")
    return min(a, r0)


def _build_profile(sol) -> RadialProfile:
    """Evaluate a solution on a uniform grid of [0, r_max] merged with the breakpoints.

    Each dense interior segment is evaluated once, on all of its nodes;
    from R0 on the matched exterior solution applies.
    """
    V, d, r_max = sol.potential, sol.params.d, sol.r_max
    edges = [e for e in V.cell_edges() if 0.0 < e < r_max]
    grid = np.unique(np.concatenate([np.linspace(0.0, r_max, PROFILE_NODES), edges]))

    if V.kind == HARDCORE:
        # f_infinity(r) / f_infinity(r_max), written without the cancellation
        # of tanh(r) against tanh(a) at the nodes just outside the core
        a = V.r0
        outside = grid > a
        r = grid[outside]
        if d == 2:
            f = np.log1p(np.sinh((r - a) / 2.0) / (np.cosh(r / 2.0) * math.sinh(a / 2.0)))
        else:
            f = np.sinh(r - a) / (np.sinh(r) * math.cosh(a))
        values = np.zeros_like(grid)
        values[outside] = f / f[-1]
        return RadialProfile(grid, values, r_max)

    segments, norm = sol._interior
    values = np.empty_like(grid)
    exterior = grid >= V.r0
    r = grid[exterior]
    primitive = np.log(np.tanh(r / 2.0)) if d == 2 else -1.0 / np.tanh(r)
    values[exterior] = sol.alpha + sol.beta * primitive
    nodes = np.flatnonzero(~exterior)
    # a node on a cell edge belongs to the cell it closes
    owner = np.searchsorted([hi for _, hi, _ in segments], grid[nodes])
    for k, (lo, _, dense) in enumerate(segments):
        mine = nodes[owner == k]
        if mine.size:
            values[mine] = dense(np.maximum(grid[mine], lo))[0] / norm
    values[-1] = 1.0
    np.clip(values, 0.0, 1.0, out=values)
    return RadialProfile(grid, values, r_max)


def solve_zero_energy(V, params, r_max, tol=DEFAULT_TOL) -> RadialProfile:
    """Regular radial zero-energy solution, normalized to f(r_max) = 1.

    Beyond the support radius the returned values coincide with the matched
    exterior harmonic solution alpha + beta * F_d(r).
    """
    return scattering_length(V, params, r_max, tol=tol).profile


def scattering_length(V, params, r_max=None, tol=DEFAULT_TOL) -> ScatteringSolution:
    """Hyperbolic scattering length of V with its matched exterior data.

    The length is read off from the matching at r = R0, so the result is
    independent of r_max (which only sets the normalization point and the
    extent of the profile).  The interior is integrated once; the profile
    is built from that solve only when it is read.  For hardcore
    potentials a = R0 exactly; for V = 0 the convention a = 0 applies
    (beta = 0, no scattering).
    """
    d = params.d
    if r_max is None:
        r_max = V.r0 + 1.0
    if not r_max > V.r0:
        raise ValueError(f"r_max = {r_max} must exceed the support radius {V.r0}")
    segments = ()
    if V.kind == HARDCORE:
        a = V.r0
        if d == 2:
            alpha, beta = -harmonic_primitive(d, a), 1.0
        else:
            alpha, beta = 1.0, math.tanh(a)
    else:
        segments, f_r0, fp_r0 = _integrate_interior(V, params, tol)
        alpha, beta = _match_exterior(d, V.r0, f_r0, fp_r0)
        a = _length_from_matching(d, alpha, beta, V.r0)
    norm = alpha + beta * harmonic_primitive(d, r_max)
    if not norm > 0:
        raise MatchingError(f"non-positive normalization f(r_max) = {norm}")
    return ScatteringSolution(
        a=a,
        alpha=alpha / norm,
        beta=beta / norm,
        c_d=c_d(d, a),
        params=params,
        potential=V,
        r_max=r_max,
        _interior=(tuple(segments), norm),
    )


def minimizer_profile(V, params, R, tol=DEFAULT_TOL) -> RadialProfile:
    """Unique minimizer of the two-body energy functional on the ball of radius R.

    Identical to the regular zero-energy solution rescaled to f(R) = 1; for
    r in (R0, R) it equals f_infinity(r) / f_infinity(R).
    """
    if not R > V.r0:
        raise ValueError(f"outer radius R = {R} must exceed the support radius {V.r0}")
    return solve_zero_energy(V, params, R, tol=tol)


def scattering_energy(d, a, mu, R) -> float:
    """Minimal two-body energy E_R of the profile normalized to 1 at R.

    d=2: 2 pi mu / ln(tanh(R/2)/tanh(a/2));
    d=3: 4 pi mu tanh(a) / (1 - tanh(a)/tanh(R)).
    Zero for a = 0 (free particle).
    """
    d = check_dimension(d)
    if a < 0:
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    if a == 0:
        return 0.0
    if not R > a:
        raise ValueError(f"outer radius R = {R} must exceed the scattering length {a}")
    if not mu > 0:
        raise ValueError(f"kinetic coefficient must be positive, got {mu}")
    return mu * c_d(d, a) * sphere_area(d) / f_infinity(d, a, R)
