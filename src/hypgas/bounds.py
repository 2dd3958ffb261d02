"""Explicit energy and condensate-fraction bounds for the dilute hyperbolic Bose gas.

Implements the diluteness parameter Y, the threshold Y0(eps), quadrature of
the integrals (I, J, K) of the trial-state estimate, their closed-form
upper bounds, the per-particle energy upper bounds, and the
condensate-fraction lower bound 1 - E/(N Xi).

Two printed-formula discrepancies are resolved here and surfaced to reports
via formula_variants():

* d=2 diluteness: the quotient Y = rho / ln((tanh(a/2))^-1) is implemented;
  the product form diverges as a -> 0 and breaks the derivation chain.
* K bound: both are implemented.  k_bound is the boxed estimate with the
  extra factor R; k_bound_tight is the final proof line without it, and it
  is the K term of the direct bound energy_upper_bound.  The quadrature K
  exceeds k_bound_tight once R - a exceeds about 1, so the direct bound is
  reported as provenance only and never certifies.

The closed forms of I, J and K are multiples of the two-body energy
scattering.scattering_energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from .errors import InvalidRegimeError
from .geometry import check_dimension, radial_weight
from .scattering import RadialProfile, harmonic_primitive, scattering_energy

QUAD_MIN_CELLS = 4096  # quadrature cells over [0, r_max], split among the segments


@dataclass(frozen=True)
class GasParameters:
    """Dimension, density, kinetic coefficient, optional particle count."""

    d: int
    rho: float
    mu: float
    N: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "d", check_dimension(self.d))
        if not 0 < self.rho < math.inf:
            raise ValueError(f"density must be positive and finite, got {self.rho}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"kinetic coefficient must be positive and finite, got {self.mu}")
        if self.N is not None and self.N < 2:
            raise ValueError(f"particle count must be >= 2, got {self.N}")


@dataclass(frozen=True)
class IntegralTriple:
    """The three radial integrals of the trial-state energy estimate.

    I: volume deficit integral of 1 - f^2; J: energy integral of
    mu f'^2 + V f^2 / 2; K: cross term integral of f f'.  All against the
    hyperbolic radial weight.
    """

    I: float
    J: float
    K: float

    def __post_init__(self):
        for name in ("I", "J", "K"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"integral {name} must be finite, got {v}")
            if v < -1e-12:
                raise ValueError(f"integral {name} must be nonnegative, got {v}")
            if v < 0:
                object.__setattr__(self, name, 0.0)


@dataclass(frozen=True)
class BoundReport:
    """Audit record from gas parameters to the condensate-fraction bound.

    Fields that depend on a violated regime proviso are None rather than
    garbage; validity says which provisos held.
    """

    Y: float
    validity: dict
    energy_upper_per_particle: float | None
    fraction_lower: float | None
    provenance: dict = field(default_factory=dict)


def diluteness_Y(d, rho, a) -> float:
    """Diluteness parameter: rho / ln((tanh(a/2))^-1) for d=2, rho*tanh(a) for d=3.

    Zero for a = 0 in both dimensions (free gas).
    """
    d = check_dimension(d)
    if not rho > 0:
        raise ValueError(f"density must be positive, got {rho}")
    if a < 0:
        raise ValueError(f"scattering length must be nonnegative, got {a}")
    if a == 0:
        return 0.0
    return -rho / harmonic_primitive(d, a)


def y_cap(d, R0) -> float:
    """Smallness cap on Y required by the simplified energy upper bound."""
    d = check_dimension(d)
    if d == 2:
        return 1.0 / (8.0 * math.pi * (R0 + 1.0) ** 2)
    return 1.0 / (8.0 * math.exp(2.0 * R0) * (R0 + 1.0) ** 2)


def _eps_branch_coefficients(d, mu, R0):
    """Coefficients (a_c, b_c) such that the simplified bound is a_c*Y*(1 + b_c*Y)."""
    if d == 2:
        return 16.0 * math.pi * mu, 8.0 * math.pi / 3.0
    e2 = math.exp(2.0 * R0)
    return 16.0 * math.pi * mu * e2, 8.0 * math.pi / 3.0 * e2


def y0_threshold(d, eps, mu, R0) -> float:
    """Largest Y for which the simplified energy bound is guaranteed <= eps.

    The minimum of the eps-branch (exact root of a_c*Y*(1 + b_c*Y) = eps)
    and the smallness cap; strictly positive and non-decreasing in eps.
    The root is written 2 eps / (a_c (1 + sqrt(1 + 4 b_c eps / a_c))), which
    does not cancel at small eps as (sqrt(...) - 1) / (2 b_c) does.
    """
    d = check_dimension(d)
    if not (eps > 0 and mu > 0 and R0 > 0):
        raise ValueError("eps, mu and R0 must all be positive")
    a_c, b_c = _eps_branch_coefficients(d, mu, R0)
    branch = 2.0 * eps / (a_c * (1.0 + math.sqrt(1.0 + 4.0 * b_c * eps / a_c)))
    return min(branch, y_cap(d, R0))


def _segment_quadrature(r, f, v, mu, d):
    """(I, J, K) contributions of one smooth uniform segment.

    Derivative by second-order central differences (one-sided at segment
    ends), composite Simpson quadrature.
    """
    w = radial_weight(d, r)
    fp = np.gradient(f, r, edge_order=2)
    i_part = simpson((1.0 - f**2) * w, x=r)
    j_part = simpson((mu * fp**2 + 0.5 * v * f**2) * w, x=r)
    k_part = simpson(f * fp * w, x=r)
    return i_part, j_part, k_part


def quad_integrals(profile, V, mu, d) -> IntegralTriple:
    """Quadrature of (I, J, K) for a radial profile and its potential.

    The profile is extended by f = 1 beyond its outer radius, so all three
    integrands vanish there and the integrals are truncated at r_max.  The
    quadrature grid is refined to at least QUAD_MIN_CELLS cells and split at
    the potential breakpoints, where f' or V jump.
    """
    d = check_dimension(d)
    if not isinstance(profile, RadialProfile):
        raise TypeError("profile must be a RadialProfile")
    R = profile.r_max
    if V.r0 > R + 1e-12:
        raise ValueError(
            f"potential support {V.r0} extends beyond the profile radius {R}"
        )

    breaks = sorted({0.0, R} | {e for e in V.cell_edges() if 0.0 < e < R})
    total_i = total_j = total_k = 0.0
    grid, vals = profile.grid, profile.values
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n = int(max(8, math.ceil(QUAD_MIN_CELLS * (hi - lo) / R)))
        if n % 2:
            n += 1
        r = np.linspace(lo, hi, n + 1)
        mask = (grid >= lo - 1e-12) & (grid <= hi + 1e-12)
        sub_g, sub_v = grid[mask], vals[mask]
        if sub_g.size >= 4:
            f = CubicSpline(sub_g, sub_v)(r)
        else:
            f = np.interp(r, grid, vals)
        v_mid = V.value(0.5 * (lo + hi))
        if not math.isfinite(v_mid):
            v_mid = 0.0  # hardcore interior: f = 0, the V-term contributes nothing
        i_p, j_p, k_p = _segment_quadrature(r, f, v_mid, mu, d)
        total_i += i_p
        total_j += j_p
        total_k += k_p
    return IntegralTriple(total_i, total_j, total_k)


def i_bound(d, a, R) -> float:
    """Closed-form upper estimate for the volume-deficit integral I(f_R).

    (R^2 - a^2) * k_bound_tight(d, a, R):
    d=2: 2 pi (R^2 - a^2) / ln(tanh(R/2)/tanh(a/2));
    d=3: 4 pi tanh(a) tanh(R) (R^2 - a^2) / (tanh(R) - tanh(a)).
    """
    return (R**2 - a**2) * k_bound_tight(d, a, R)


def k_bound(d, a, R) -> float:
    """Closed-form upper estimate for the cross-term integral K(f_R).

    R * k_bound_tight(d, a, R):
    d=2: 2 pi R / ln(tanh(R/2)/tanh(a/2));
    d=3: 4 pi tanh(a) R / (1 - tanh(a)/tanh(R)).
    """
    return R * k_bound_tight(d, a, R)


def k_bound_tight(d, a, R) -> float:
    """The K estimate without the extra factor R: the energy E_R at mu = 1."""
    if not R > a > 0:
        raise ValueError(f"need R > a > 0, got a={a}, R={R}")
    return scattering_energy(d, a, 1.0, R)


def trial_energy_bound(params, t) -> float:
    """Per-particle trial-state energy bound (1 - rho I)^-2 (rho J + 2/3 mu (rho K)^2).

    Requires rho * I < 1; the violation is reported as an invalid-regime
    error carrying rho * I.
    """
    rho, mu = params.rho, params.mu
    rho_i = rho * t.I
    if rho_i >= 1.0:
        raise InvalidRegimeError(
            f"trial-state bound requires rho * I < 1, got {rho_i}",
            quantity="rho_I",
            value=rho_i,
            threshold=1.0,
        )
    return (rho * t.J + 2.0 / 3.0 * mu * (rho * t.K) ** 2) / (1.0 - rho_i) ** 2


def energy_upper_bound(d, rho, a, mu, R) -> float:
    """Per-particle energy upper bound at a concrete comparison radius R.

    The trial-state bound at the closed-form integrals I = i_bound,
    J = scattering_energy and K = k_bound_tight; valid under the smallness
    proviso rho * i_bound(d, a, R) < 1, reported otherwise as an
    invalid-regime error.  Zero for a = 0.  Its K is the tight estimate,
    which the quadrature K exceeds once R - a exceeds about 1, so this
    bound is reported as provenance only and never used to certify.
    """
    d = check_dimension(d)
    if a == 0:
        return 0.0
    I = i_bound(d, a, R)  # raises unless R > a > 0
    proviso = rho * I
    if proviso >= 1.0:
        raise InvalidRegimeError(
            f"energy upper bound requires rho * I_bound < 1, got {proviso}",
            quantity="rho_I_bound",
            value=proviso,
            threshold=1.0,
        )
    t = IntegralTriple(I, scattering_energy(d, a, mu, R), k_bound_tight(d, a, R))
    return trial_energy_bound(GasParameters(d, rho, mu), t)


def simplified_upper_bound(d, Y, mu, R0) -> float:
    """Per-particle energy upper bound as an explicit function of Y.

    d=2: 16 pi mu Y (1 + 8 pi Y / 3); d=3 carries the extra e^{2 R0}
    factors.  Valid only up to the smallness cap y_cap(d, R0).
    """
    d = check_dimension(d)
    if Y < 0:
        raise ValueError(f"diluteness parameter must be nonnegative, got {Y}")
    cap = y_cap(d, R0)
    if Y > cap:
        raise InvalidRegimeError(
            f"simplified bound requires Y <= {cap}, got {Y}",
            quantity="Y",
            value=Y,
            threshold=cap,
        )
    a_c, b_c = _eps_branch_coefficients(d, mu, R0)
    return a_c * Y * (1.0 + b_c * Y)


def condensate_fraction_lower(E_over_N, gap) -> float:
    """Condensate-fraction lower bound 1 - E/(N Xi), unclamped.

    May be negative; the certificate layer clamps at 0 for reporting.
    """
    if not gap > 0:
        raise ValueError(f"spectral gap must be positive, got {gap}")
    if E_over_N < 0:
        raise ValueError(f"energy per particle must be nonnegative, got {E_over_N}")
    return 1.0 - E_over_N / gap


def comparison_radius(R0, a) -> float:
    """Default comparison radius R = max(R0, a + 1) of the bound chain."""
    return max(R0, a + 1.0)


def formula_variants() -> dict:
    """Implemented-vs-printed formula discrepancies, for report auditing."""
    return {
        "diluteness_2d": {
            "implemented": "rho / ln((tanh(a/2))^-1)",
            "printed_variant": "rho * ln((tanh(a/2))^-1)",
        },
        "scattering_energy_3d": {
            "implemented": "4*pi*mu*tanh(a) / (1 - tanh(a)/tanh(R))",
            "printed_variant": "4*pi*mu*a / (1 - tanh(a)/tanh(R))",
        },
        "k_bound": {
            "implemented": "final proof line without factor R (k_bound_tight) in the direct bound",
            "printed_variant": "boxed estimate with factor R (k_bound), checked against quadrature",
        },
        "corollary_smallness_2d": {
            "implemented": "quotient Y with tanh(a/2)",
            "printed_variant": "corollary condition printed with tanh(a)",
        },
    }


def make_report(d, rho, a, mu, R0, gap=None) -> BoundReport:
    """Assemble the bound report for one parameter set.

    The one implementation of the chain a -> Y -> energy bound -> fraction,
    shared by the bound and sweep commands and by certify_bec.  Computes Y,
    checks the smallness cap, evaluates the simplified energy bound and,
    when a spectral gap is supplied, the condensate-fraction lower bound.
    Fields behind a violated proviso are None.
    """
    d = check_dimension(d)
    Y = diluteness_Y(d, rho, a)
    cap = y_cap(d, R0)
    validity = {"y_within_cap": Y <= cap}
    provenance = {
        "Y": "diluteness_Y",
        "energy_upper_per_particle": "simplified_upper_bound",
        "formula_variants": formula_variants(),
    }

    energy = None
    fraction = None
    if validity["y_within_cap"]:
        energy = simplified_upper_bound(d, Y, mu, R0)
        if gap is not None:
            fraction = condensate_fraction_lower(energy, gap)
    return BoundReport(
        Y=Y,
        validity=validity,
        energy_upper_per_particle=energy,
        fraction_lower=fraction,
        provenance=provenance,
    )
