"""Zero-energy two-body scattering on hyperbolic space.

Solves the radial equation

    -mu * (f'' + (d-1) coth(r) f') + (1/2) V(r) f = 0

for a repulsive, compactly supported potential V, matches the solution to
the exterior harmonic form alpha + beta * F_d(r) with

    F_2(r) = ln tanh(r/2),   F_3(r) = -coth(r),

and extracts the hyperbolic scattering length a as the zero of the matched
exterior solution.  V is piecewise constant, so the equation is solved
exactly, cell by cell, with no ODE solver: in d=3, u = f sinh r obeys
u'' = (1 + V/2mu) u, whose solutions are sinh and cosh; in d=2 the
solutions are the Legendre functions P_nu, Q_nu of cosh r with
nu (nu + 1) = V/2mu.  The log-derivative of the regular solution is
carried across the cells, and a is read off from it at R0.  A hardcore
potential of radius R0 is modeled as the Dirichlet constraint f = 0 on
[0, R0] (no large-finite-V approximation), for which a = R0 exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import hyp2f1

from .errors import MatchingError
from .geometry import array_module, check_dimension, holds, sphere_area

HARDCORE = "hardcore"
PIECEWISE = "piecewise_constant"

PROFILE_NODES = 4097  # uniform nodes of a profile grid, to which the breakpoints are added


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
        if not 0 < self.r0 < math.inf:
            raise ValueError(f"support radius must be positive and finite, got {self.r0}")
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
        if not all(a < b for a, b in zip([0.0] + radii, radii)):
            raise ValueError("piece radii must be strictly increasing and positive")
        if radii[-1] != self.r0:
            raise ValueError(
                f"last piece radius {radii[-1]} must equal the support radius {self.r0}"
            )
        if not all(0 <= v < math.inf for _, v in self.pieces):
            raise ValueError(f"potential values must be nonnegative and finite, got {self.pieces}")

    @classmethod
    def hardcore(cls, r0) -> "Potential":
        return cls(HARDCORE, float(r0))

    @classmethod
    def piecewise(cls, pieces) -> "Potential":
        pieces = tuple(pieces)
        return cls(PIECEWISE, pieces[-1][0], pieces)

    def value(self, r):
        """V at r (a float or an array): math.inf inside a hardcore, 0 from r0 on."""
        if not holds(r >= 0):
            raise ValueError(f"radius must be nonnegative, got {r}")
        radii = self.cell_edges()[1:]
        heights = tuple(v for _, v in self.pieces) or (math.inf,)
        heights += (0.0,)
        if isinstance(r, np.ndarray):
            return np.array(heights)[np.searchsorted(radii, r, side="right")]
        return heights[bisect.bisect_right(radii, r)]

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
        if not 0 < self.mu < math.inf:
            raise ValueError(f"kinetic coefficient must be positive and finite, got {self.mu}")
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
    # the cells of the transfer that gave a (see _transfer), from which the
    # profile is evaluated; empty for hardcore and V = 0
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


def harmonic_primitive(d, r):
    """The radial harmonic function F_d: ln tanh(r/2) for d=2, -coth(r) for d=3.

    F_d' (r) = sinh^{1-d}(r) in both dimensions.  r is a float or an array.
    In d=2, ln tanh(r/2) = log1p(-2e/(1+e)) with e = exp(-r) keeps its
    digits at large r, where tanh(r/2) rounds to 1.
    """
    d = check_dimension(d)
    if not holds(r > 0):
        raise ValueError(f"radius must be positive, got {r}")
    xp = array_module(r)
    if d == 3:
        return -1.0 / xp.tanh(r)
    e = xp.exp(-r)
    if xp is np:
        return np.where(r < 1.0, np.log(np.tanh(r / 2.0)), np.log1p(-2.0 * e / (1.0 + e)))
    return math.log(math.tanh(r / 2.0)) if r < 1.0 else math.log1p(-2.0 * e / (1.0 + e))


def f_infinity(d, a, r):
    """The exterior zero-energy solution c_d * (F_d(r) - F_d(a)), zero at r = a.

    d=2: ln(tanh(r/2)/tanh(a/2)) = log1p(sinh((r-a)/2) / (cosh(r/2) sinh(a/2)));
    d=3: 1 - tanh(a)/tanh(r) = sinh(r-a) / (sinh(r) cosh(a)).
    Negative for r < a, positive for r > a; a and r are floats or arrays.
    The right-hand forms are evaluated with decaying exponentials only, so
    tanh(r) never cancels against tanh(a) and nothing overflows.
    """
    d = check_dimension(d)
    if not holds(a > 0):
        raise ValueError(f"scattering length must be positive, got {a}")
    if not holds(r > 0):
        raise ValueError(f"radius must be positive, got {r}")
    xp = array_module(a, r)
    if d == 2:
        ea = xp.exp(-a)
        return xp.log1p(2.0 * ea * -xp.expm1(a - r) / ((1.0 + xp.exp(-r)) * -xp.expm1(-a)))
    e2a = xp.exp(-2.0 * a)
    return 2.0 * e2a * -xp.expm1(2.0 * (a - r)) / ((1.0 + e2a) * -xp.expm1(-2.0 * r))


def c_d(d, a):
    """Flux constant f_infinity' * sinh^{d-1}: 1 for d=2, tanh(a) for d=3 (a may be an array)."""
    d = check_dimension(d)
    if not holds(a >= 0):
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    if d == 2:
        return 1.0
    return array_module(a).tanh(a)


def _degree(kappa):
    """The Legendre degree nu >= 0 with nu (nu + 1) = kappa, without cancellation at small kappa."""
    return 2.0 * kappa / (1.0 + math.sqrt(1.0 + 4.0 * kappa))


def _legendre_p(nu, r):
    """ln P and P'/P for P = P_nu(cosh r) = 2F1(-nu, nu+1; 1; -sinh^2(r/2)), r a float or an array.

    The derivative is in r.  P overflows to inf from nu * r of about 710.
    """
    xp = array_module(r)
    z = -xp.sinh(r / 2.0) ** 2
    p, dp = hyp2f1(-nu, nu + 1.0, 1.0, z), hyp2f1(1.0 - nu, nu + 2.0, 2.0, z)
    if xp is math:  # Python floats: inf/inf is nan, without numpy's warning
        p, dp = float(p), float(dp)
    return xp.log(p), xp.sinh(r) * nu * (nu + 1.0) / 2.0 * dp / p


def _legendre_q(nu, r):
    """ln Q and Q'/Q for Q = e^(-(nu+1) r) 2F1(1/2, nu+1; nu+3/2; e^(-2r)), r > 0.

    Q is Q_nu(cosh r) up to the factor sqrt(pi) Gamma(nu+1) / Gamma(nu+3/2),
    which cancels in every ratio used here; its logarithm never underflows.
    """
    xp = array_module(r)
    y = xp.exp(-2.0 * r)
    q, dq = hyp2f1(0.5, nu + 1.0, nu + 1.5, y), hyp2f1(1.5, nu + 2.0, nu + 2.5, y)
    if xp is math:
        q, dq = float(q), float(dq)
    return -(nu + 1.0) * r + xp.log(q), -(nu + 1.0) * (1.0 + y * dq / ((nu + 1.5) * q))


def _first_cell(d, kappa, r):
    """The regular solution on the first cell [0, r1], where V / 2mu = kappa.

    Returns ln(f(r) / f(0)) and the state s(r) that the transfer carries:
    s = u'/u - 1 with u = f sinh r in d=3 (u = sinh(q r), q^2 = 1 + kappa),
    s = f'/f in d=2 (f = P_nu(cosh r), nu(nu+1) = kappa).  r > 0, a float
    or an array.
    """
    xp = array_module(r)
    if d == 3:
        q = math.sqrt(1.0 + kappa)
        q_minus_1 = kappa / (1.0 + q)
        e, one_minus_e = xp.exp(-2.0 * q * r), -xp.expm1(-2.0 * q * r)
        log_ratio = q_minus_1 * r + xp.log(one_minus_e / (q * -xp.expm1(-2.0 * r)))
        return log_ratio, q_minus_1 + 2.0 * q * e / one_minus_e
    return _legendre_p(_degree(kappa), r)


def _cell(d, kappa, s, lo, r):
    """Continue the solution with state s at lo across a cell where V / 2mu = kappa.

    Returns ln(f(r) / f(lo)) and the state at r >= lo (see _first_cell), r a
    float or an array.  d=3: u = u(lo) (cosh(q x) + (w/q) sinh(q x)), x = r - lo,
    w = 1 + s, written with e^(-2 q x) only; s is carried in place of w because
    w tends to 1 at large r, where w - 1 would lose its digits.  d=2:
    f = P + c Q with c fixed by s at lo; logarithms of P and Q are carried,
    so their ratio enters only as exp of a difference, which cannot overflow.
    """
    xp = array_module(r)
    x = r - lo
    if d == 3:
        q = math.sqrt(1.0 + kappa)
        q_minus_1 = kappa / (1.0 + q)
        e, one_minus_e = xp.exp(-2.0 * q * x), -xp.expm1(-2.0 * q * x)
        log_ratio = (
            q_minus_1 * x
            + xp.log((1.0 + e + (1.0 + s) / q * one_minus_e) / 2.0)
            - xp.log(xp.expm1(-2.0 * r) / math.expm1(-2.0 * lo))
        )
        # (w + q t) q / (q + w t) - 1 with t = tanh(q x): a sum of nonnegative terms
        s_r = (s * (q_minus_1 * (1.0 + e) + 2.0 * e) + kappa * one_minus_e) / (
            q * (1.0 + e) + (1.0 + s) * one_minus_e
        )
        return log_ratio, s_r
    nu = _degree(kappa)
    lp0, p0 = _legendre_p(nu, lo)
    lq0, q0 = _legendre_q(nu, lo)
    lp, p = _legendre_p(nu, r)
    lq, q = _legendre_q(nu, r)
    rho0 = (p0 - s) / (s - q0)  # c Q / P at lo, in (-1, 1)
    one0 = (p0 - q0) / (s - q0)  # 1 + rho0, without cancellation
    g = (lq - lq0) - (lp - lp0)  # ln of (Q/P)(r) / (Q/P)(lo), <= 0
    one = one0 + rho0 * xp.expm1(g)  # 1 + c Q / P at r
    return lp - lp0 + xp.log(one / one0), (p + rho0 * xp.exp(g) * q) / one


def _transfer(V, params):
    """Carry the regular solution across supp V, cell by cell, in closed form.

    Returns (cells, s): cells holds (lo, hi, kappa, s at lo, ln(f(hi)/f(lo)))
    per cell, kappa = V / 2mu and s the state of _first_cell (None on the
    first cell); s is the state at R0.
    """
    mu, d = params.mu, params.d
    cells, s, lo = [], None, 0.0
    for hi, v in V.pieces:
        kappa = v / (2.0 * mu)
        growth, s_hi = _first_cell(d, kappa, hi) if s is None else _cell(d, kappa, s, lo, hi)
        if not (math.isfinite(growth) and math.isfinite(s_hi)):
            raise MatchingError(
                f"closed-form transfer not finite on the cell [{lo}, {hi}] "
                f"(V = {v}, mu = {mu}, d = {d}): s = {s_hi}, ln growth = {growth}"
            )
        cells.append((lo, hi, kappa, s, growth))
        s, lo = s_hi, hi
    return tuple(cells), s


def _exterior_root(d, s, r0):
    """Scattering length from the state s at R0: the zero of the exterior solution.

    d=3: w = 1 + s = coth(R0 - a), so R0 - a = artanh(1/w) = log1p(2/s) / 2.
    d=2: w = s = 1 / (sinh(R0) (F_2(R0) - F_2(a))), so ell = -F_2(a) =
    1/(w sinh R0) - F_2(R0), and a = -F_2(ell), since tanh(ell/2) = e^(-a).
    """
    if s > 0:
        if d == 3:
            a = r0 - 0.5 * math.log1p(2.0 / s)
        else:
            a = -harmonic_primitive(2, 1.0 / (s * math.sinh(r0)) - harmonic_primitive(2, r0))
        if a > 0:
            return a
    raise MatchingError(
        f"no root of the exterior solution: log-derivative state {s} at R0 = {r0} (d = {d})"
    )


def _build_profile(sol) -> RadialProfile:
    """Evaluate a solution on a uniform grid of [0, r_max] merged with the breakpoints.

    From R0 on the exterior solution f_infinity(r) / f_infinity(r_max)
    applies; inside, each cell's closed form is evaluated once, on all of
    its nodes, chained back from f(R0) by the growth of the cells above it.
    """
    V, d, a, r_max = sol.potential, sol.params.d, sol.a, sol.r_max
    edges = [e for e in V.cell_edges() if 0.0 < e < r_max]
    grid = np.unique(np.concatenate([np.linspace(0.0, r_max, PROFILE_NODES), edges]))
    if a == 0.0:  # V = 0: f is constant
        return RadialProfile(grid, np.ones_like(grid), r_max)

    norm = f_infinity(d, a, r_max)
    values = np.zeros_like(grid)
    exterior = grid >= V.r0
    values[exterior] = f_infinity(d, a, grid[exterior]) / norm
    f_r0 = f_infinity(d, a, V.r0) / norm  # 0 for a hardcore, or where a rounds to R0
    if f_r0 > 0:
        log_f = math.log(f_r0)  # ln f(hi) of the cell at hand
        nodes = np.flatnonzero(~exterior)[1:]  # r = 0 is where the backward chain ends
        # a node on a cell edge belongs to the cell it closes
        owner = np.searchsorted([hi for _, hi, _, _, _ in sol._interior], grid[nodes])
        for k in reversed(range(len(sol._interior))):
            lo, _, kappa, s, growth = sol._interior[k]
            log_f -= growth
            mine = nodes[owner == k]
            if mine.size:
                r = grid[mine]
                log_ratio, _ = _first_cell(d, kappa, r) if s is None else _cell(d, kappa, s, lo, r)
                values[mine] = np.exp(log_f + log_ratio)
        values[0] = math.exp(log_f)
    values[-1] = 1.0
    np.clip(values, 0.0, 1.0, out=values)
    return RadialProfile(grid, values, r_max)


def solve_zero_energy(V, params, r_max) -> RadialProfile:
    """Regular radial zero-energy solution, normalized to f(r_max) = 1.

    Beyond the support radius the returned values coincide with the matched
    exterior harmonic solution alpha + beta * F_d(r).
    """
    return scattering_length(V, params, r_max).profile


def scattering_length(V, params, r_max=None) -> ScatteringSolution:
    """Hyperbolic scattering length of V with its matched exterior data.

    The length is read off from the log-derivative of the regular solution
    at r = R0, carried there in closed form, so it is independent of r_max
    (which only sets the normalization point and the extent of the
    profile).  The profile is built from the same cells only when it is
    read.  For hardcore potentials a = R0 exactly; for V = 0 the
    convention a = 0 applies (beta = 0, no scattering).
    """
    d = params.d
    if r_max is None:
        r_max = V.r0 + 1.0
    if not r_max > V.r0:
        raise ValueError(f"r_max = {r_max} must exceed the support radius {V.r0}")
    cells = ()
    if V.kind == HARDCORE:
        a = V.r0
    elif not any(v for _, v in V.pieces):
        a = 0.0
    else:
        cells, s = _transfer(V, params)
        a = _exterior_root(d, s, V.r0)
    if a == 0.0:
        alpha, beta, norm = 1.0, 0.0, 1.0
    else:
        beta = c_d(d, a)
        alpha = -beta * harmonic_primitive(d, a)
        norm = f_infinity(d, a, r_max)
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
        _interior=cells,
    )


def minimizer_profile(V, params, R) -> RadialProfile:
    """Unique minimizer of the two-body energy functional on the ball of radius R.

    Identical to the regular zero-energy solution rescaled to f(R) = 1; for
    r in (R0, R) it equals f_infinity(r) / f_infinity(R).
    """
    if not R > V.r0:
        raise ValueError(f"outer radius R = {R} must exceed the support radius {V.r0}")
    return solve_zero_energy(V, params, R)


def scattering_energy(d, a, mu, R) -> float:
    """Minimal two-body energy E_R of the profile normalized to 1 at R.

    d=2: 2 pi mu / ln(tanh(R/2)/tanh(a/2));
    d=3: 4 pi mu tanh(a) / (1 - tanh(a)/tanh(R)).
    Zero for a = 0 (free particle).
    """
    d = check_dimension(d)
    if a == 0:
        return 0.0
    if not R > a:
        raise ValueError(f"outer radius R = {R} must exceed the scattering length {a}")
    if not mu > 0:
        raise ValueError(f"kinetic coefficient must be positive, got {mu}")
    return mu * c_d(d, a) * sphere_area(d) / f_infinity(d, a, R)
