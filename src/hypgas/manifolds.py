"""The three manifold families: volumes, spectral-gap constants, BEC certificates.

Volumes: modular surfaces via the congruence-subgroup index
L^3 prod_{p | L} (1 - p^-2) times vol(X_1) = pi/3; random compact surfaces
via Gauss-Bonnet 2 pi (2g - 2); 3-d congruence quotients via a
user-supplied base volume and index (no closed-form index is assumed).

Spectral gaps are imported as trusted constants: 975/4096 (Kim-Sarnak) or
3/16 (Selberg) for congruence surfaces, (2d-3)/4 = 3/4 for d=3 congruence
quotients, 3/16 - alpha (high-probability) or the Mirzakhani constant
(1/4)(ln 2 / (2 pi + ln 2))^2 for random compact surfaces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import bounds as _bounds
from . import scattering as _scattering
from .geometry import check_dimension

KIM_SARNAK = "kim_sarnak"
SELBERG_3_16 = "selberg_3_16"
DIM3_STANDARD = "dim3_standard"
RANDOM_3_16_MINUS_ALPHA = "random_3_16_minus_alpha"
MIRZAKHANI = "mirzakhani"
CUSTOM = "custom"

MIRZAKHANI_GAP = 0.25 * (math.log(2.0) / (2.0 * math.pi + math.log(2.0))) ** 2

VOL_MODULAR_BASE = math.pi / 3.0  # vol(X_1) for the full modular group


@lru_cache(maxsize=None)
def _distinct_primes(n: int) -> tuple:
    """Distinct prime factors of n by trial division (memoized)."""
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return tuple(primes)


def congruence_index(L: int) -> int:
    """Index of the principal congruence subgroup of level L in SL_2(Z).

    Equals L^3 prod_{p | L} (1 - p^-2); always a positive integer,
    evaluated exactly in rational arithmetic.
    """
    if L < 1:
        raise ValueError(f"level must be a positive integer, got {L}")
    idx = Fraction(L) ** 3
    for p in _distinct_primes(L):
        idx *= 1 - Fraction(1, p * p)
    if idx.denominator != 1:
        raise ArithmeticError(f"index of level {L} is not integral: {idx}")
    return int(idx)


@dataclass(frozen=True)
class ModularSurface:
    """Quotient of the hyperbolic plane by the level-L principal congruence subgroup."""

    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"level must be a positive integer, got {self.L}")

    d = 2
    default_policy = KIM_SARNAK
    compatible_policies = (KIM_SARNAK, SELBERG_3_16)


@dataclass(frozen=True)
class CongruenceQuotient3:
    """3-d congruence quotient; volume = index * vol_X1, both user-supplied."""

    L: int
    vol_X1: float
    index: int = 1

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"level must be a positive integer, got {self.L}")
        if not 0 < self.vol_X1 < math.inf:
            raise ValueError(f"base volume must be positive and finite, got {self.vol_X1}")
        if self.index < 1:
            raise ValueError(f"index must be a positive integer, got {self.index}")

    d = 3
    default_policy = DIM3_STANDARD
    compatible_policies = (DIM3_STANDARD,)


@dataclass(frozen=True)
class RandomSurface:
    """Compact hyperbolic surface of genus g from the Weil-Petersson ensemble."""

    g: int
    alpha: float

    def __post_init__(self):
        if self.g < 2:
            raise ValueError(f"genus must be >= 2, got {self.g}")
        if not 0 < self.alpha <= 3.0 / 16.0:
            raise ValueError(f"alpha must lie in (0, 3/16], got {self.alpha}")

    d = 2
    default_policy = RANDOM_3_16_MINUS_ALPHA
    compatible_policies = (RANDOM_3_16_MINUS_ALPHA, MIRZAKHANI)


@dataclass(frozen=True)
class CustomManifold:
    """Any finite-volume quotient with a known volume and spectral gap."""

    volume: float
    gap: float
    d: int = 2

    def __post_init__(self):
        if not 0 < self.volume < math.inf:
            raise ValueError(f"volume must be positive and finite, got {self.volume}")
        if not 0 < self.gap < math.inf:
            raise ValueError(f"spectral gap must be positive and finite, got {self.gap}")
        check_dimension(self.d)

    default_policy = CUSTOM
    compatible_policies = (CUSTOM,)


@dataclass(frozen=True)
class ManifoldModel:
    """One of the supported manifold families plus a gap policy.

    The policy must be compatible with the variant and must resolve to a
    strictly positive gap; in particular a random surface at alpha = 3/16
    under the default policy is rejected at construction.
    """

    variant: object
    gap_policy: str = ""

    def __post_init__(self):
        if not self.gap_policy:
            object.__setattr__(self, "gap_policy", self.variant.default_policy)
        if self.gap_policy not in self.variant.compatible_policies:
            raise ValueError(
                f"gap policy {self.gap_policy!r} incompatible with "
                f"{type(self.variant).__name__}"
            )
        if not _resolve_gap(self.variant, self.gap_policy) > 0:
            raise ValueError("resolved spectral gap must be strictly positive")

    @property
    def d(self) -> int:
        return self.variant.d


def volume(model: ManifoldModel) -> float:
    """Hyperbolic volume of the manifold."""
    v = model.variant
    if isinstance(v, ModularSurface):
        return congruence_index(v.L) * VOL_MODULAR_BASE
    if isinstance(v, RandomSurface):
        return 2.0 * math.pi * (2 * v.g - 2)
    if isinstance(v, CongruenceQuotient3):
        return v.index * v.vol_X1
    if isinstance(v, CustomManifold):
        return v.volume
    raise TypeError(f"unknown manifold variant {type(v).__name__}")


def _resolve_gap(variant, policy) -> float:
    if policy == KIM_SARNAK:
        return 975.0 / 4096.0
    if policy == SELBERG_3_16:
        return 3.0 / 16.0
    if policy == DIM3_STANDARD:
        return (2 * 3 - 3) / 4.0
    if policy == RANDOM_3_16_MINUS_ALPHA:
        return 3.0 / 16.0 - variant.alpha
    if policy == MIRZAKHANI:
        return MIRZAKHANI_GAP
    if policy == CUSTOM:
        return variant.gap
    raise ValueError(f"unknown gap policy {policy!r}")


def spectral_gap(model: ManifoldModel) -> float:
    """Lower bound on the smallest nonzero Laplacian eigenvalue."""
    gap = _resolve_gap(model.variant, model.gap_policy)
    if not gap > 0:
        raise ValueError(f"resolved spectral gap must be positive, got {gap}")
    return gap


@dataclass(frozen=True)
class CondensateCertificate:
    """Machine-checkable audit trail for a condensate-fraction guarantee.

    certified implies fraction_lower >= 1 - eps with every regime proviso
    satisfied; a regime failure yields certified = False with a
    failure_reason, never an exception.
    """

    inputs: dict
    volume: float
    rho: float
    a: float
    Y: float
    gap: float
    y0_corollary: float
    corollary_condition_met: bool
    energy_upper: float | None
    fraction_lower: float | None
    certified: bool
    failure_reason: str | None = None
    provenance: dict = field(default_factory=dict)


def _model_inputs(model: ManifoldModel) -> dict:
    v = model.variant
    entry = {"family": type(v).__name__, "gap_policy": model.gap_policy, "d": model.d}
    for name in ("L", "g", "alpha", "vol_X1", "index", "volume", "gap"):
        if hasattr(v, name):
            entry[name] = getattr(v, name)
    return entry


def certify_bec(model, N, V, mu, eps, tol=_scattering.DEFAULT_TOL) -> CondensateCertificate:
    """Certify a condensate fraction of at least 1 - eps for the given gas.

    Chain: volume -> rho = N/volume -> scattering length -> Y -> gap.  The
    direct route evaluates the simplified energy bound and clamps
    1 - energy/gap at zero; the corollary route tests Y < Y0(gap * eps).
    The direct route decides certification (it is tighter); both are
    reported.
    """
    if N < 2:
        raise ValueError(f"particle count must be >= 2, got {N}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    d = model.d
    vol = volume(model)
    rho = N / vol
    gap = spectral_gap(model)
    a = _scattering.scattering_length(V, _scattering.ScatteringParams(mu=mu, d=d), tol=tol).a
    report = _bounds.make_report(d, rho, a, mu, V.r0, gap=gap)
    y0 = _bounds.y0_threshold(d, gap * eps, mu, V.r0)

    inputs = {
        "model": _model_inputs(model),
        "N": int(N),
        "potential": asdict(V),
        "mu": mu,
        "eps": eps,
    }
    provenance = {
        "gap_policy": model.gap_policy,
        "energy_upper": "simplified_upper_bound",
        "corollary_condition": "Y < Y0(gap * eps)",
        "formula_variants": _bounds.formula_variants(),
    }

    fraction = None
    failure = None
    if not report.validity["y_within_cap"]:
        failure = (
            f"diluteness parameter Y = {report.Y} exceeds the smallness cap "
            f"{_bounds.y_cap(d, V.r0)}; the energy upper bound does not apply"
        )
    else:
        fraction = max(0.0, report.fraction_lower)
        if not fraction >= 1.0 - eps:
            failure = f"fraction lower bound {fraction} is below the target {1.0 - eps}"
    return CondensateCertificate(
        inputs=inputs,
        volume=vol,
        rho=rho,
        a=a,
        Y=report.Y,
        gap=gap,
        y0_corollary=y0,
        corollary_condition_met=report.Y < y0,
        energy_upper=report.energy_upper_per_particle,
        fraction_lower=fraction,
        certified=failure is None,
        failure_reason=failure,
        provenance=provenance,
    )
