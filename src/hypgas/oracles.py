"""Independent brute-force verifiers for the scattering and bound machinery.

The discrete minimizer never calls the ODE solver: it discretizes the
two-body energy functional directly with the sinh^{d-1} measure weight
(midpoint rule on cells, which keeps the system matrix positive definite)
and solves the resulting tridiagonal linear system.  Its Richardson-
extrapolated energy is the reference value for the closed-form scattering
energy, and the inequality sweep systematizes the quadrature-vs-bound
checks used by tests and the CLI `verify` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from . import bounds as _bounds
from .errors import HypgasError, InvalidRegimeError
from .geometry import sphere_area
from .scattering import (
    HARDCORE,
    Potential,
    RadialProfile,
    ScatteringParams,
    minimizer_profile,
)


@dataclass(frozen=True)
class DiscreteMinimizerResult:
    """Discrete minimizer with its grid-refinement convergence record.

    h is the requested spacing; convergence holds (spacing, raw energy)
    pairs at h, h/2, h/4; order is the estimated convergence order and
    energy the Richardson-extrapolated value.  The profile is taken from
    the finest grid.
    """

    h: float
    profile: RadialProfile
    energy: float
    convergence: tuple
    order: float


def _segment_grid(V, R, h):
    """Grid aligned with the potential breakpoints (kink/jump locations)."""
    if V.kind == HARDCORE:
        edges = [V.r0, R]
    else:
        edges = [e for e in V.cell_edges() if e < R] + [R]
    pts = [np.array([edges[0]])]
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(2, round((hi - lo) / h))
        pts.append(np.linspace(lo, hi, n + 1)[1:])
    return np.concatenate(pts)


def _solve_once(V, params, R, h):
    """One finite-difference minimization; returns (grid, values, energy)."""
    mu, d = params.mu, params.d
    grid = _segment_grid(V, R, h)
    n = grid.size
    mid = 0.5 * (grid[:-1] + grid[1:])
    dr = np.diff(grid)
    w = sphere_area(d) * np.sinh(mid) ** (d - 1)
    if V.kind == HARDCORE:
        v_mid = np.zeros_like(mid)
    else:
        # V.value on every midpoint: the first cell whose right edge exceeds it
        radii, heights = zip(*V.pieces)
        v_mid = np.append(heights, 0.0)[np.searchsorted(radii, mid, side="right")]

    # cell energy: mu*w*(df/dr)^2*dr + (v*w*dr/2) * ((f_i + f_{i+1})/2)^2
    kin = mu * w / dr
    pot = 0.5 * v_mid * w * dr / 4.0

    # unknowns: all nodes except the last (f = 1 at R) and, for hardcore,
    # the first (f = 0 at R0).  Cell c couples nodes c and c+1: k + p on
    # the diagonal of both, p - k off the diagonal, and the last cell moves
    # its coupling to the fixed f = 1 into the right-hand side.
    lo_fixed = V.kind == HARDCORE
    start = 1 if lo_fixed else 0
    m = n - 1 - start
    kp, cross = kin + pot, pot - kin
    diag = kp[start:].copy()
    diag[1 - start :] += kp[: m - 1 + start]
    off = cross[start:-1]
    rhs = np.zeros(m)
    rhs[-1] = -cross[-1]
    ab = np.zeros((2, m))
    ab[0, 1:] = off
    ab[1, :] = diag
    try:
        f_inner = solveh_banded(ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise HypgasError(f"singular discrete system: {exc}") from exc

    values = np.empty(n)
    values[-1] = 1.0
    values[start : n - 1] = f_inner
    if lo_fixed:
        values[0] = 0.0
    df = np.diff(values)
    fm = 0.5 * (values[:-1] + values[1:])
    energy = float(np.sum(kin * df**2) + np.sum(0.5 * v_mid * w * dr * fm**2))
    return grid, values, energy


def discrete_minimizer(V, params, R, h) -> DiscreteMinimizerResult:
    """Minimize the discretized two-body functional at spacings h, h/2, h/4.

    Returns the finest-grid profile and the Richardson-extrapolated energy
    together with the (h, energy) convergence sequence and the estimated
    order.
    """
    if not R > V.r0:
        raise ValueError(f"outer radius R = {R} must exceed the support radius {V.r0}")
    if h > R / 100:
        raise ValueError(f"spacing h = {h} too coarse; need h <= R/100 = {R / 100}")
    energies = []
    grid = values = None
    for level in range(3):
        grid, values, energy = _solve_once(V, params, R, h / 2**level)
        energies.append((h / 2**level, energy))
    e1, e2, e4 = (e for _, e in energies)
    d12, d24 = e1 - e2, e2 - e4
    if d24 != 0 and d12 / d24 > 1:
        order = math.log2(d12 / d24)
        extrapolated = e4 - d24 / (2.0**order - 1.0)
    else:
        order = float("inf")  # refinement already at rounding level
        extrapolated = e4
    values = np.clip(values, 0.0, 1.0)
    values[-1] = 1.0
    if V.kind == HARDCORE:
        # attach the excluded core so the profile covers [0, R]
        core = np.linspace(0.0, V.r0, 9)[:-1]
        grid = np.concatenate([core, grid])
        values = np.concatenate([np.zeros(core.size), values])
    profile = RadialProfile(grid, values, R)
    return DiscreteMinimizerResult(
        h=h,
        profile=profile,
        energy=float(extrapolated),
        convergence=tuple(energies),
        order=float(order),
    )


@dataclass(frozen=True)
class InequalityCase:
    """One sweep case; the potential is the hardcore of radius a."""

    d: int
    a: float
    R: float
    rho: float
    mu: float
    R0: float


@dataclass(frozen=True)
class InequalityReport:
    """Per-case slack records for the quadrature-vs-bound inequalities."""

    cases: tuple
    passed: bool
    results: tuple = field(default_factory=tuple)
    skipped: tuple = field(default_factory=tuple)


def inequality_report(case_grid) -> InequalityReport:
    """Check quad I <= i_bound, quad K <= k_bound, and the bound chain.

    For each feasible case the hardcore profile of radius a is integrated
    numerically and compared against the closed-form estimates; the chain
    check compares the direct energy bound at R = max(R0, a+1) against the
    simplified bound in Y where both provisos hold.  Infeasible cases are
    skipped with a reason.
    """
    results = []
    skipped = []
    all_ok = True
    for raw in case_grid:
        case = raw if isinstance(raw, InequalityCase) else InequalityCase(*raw)
        if case.R <= max(case.a, case.R0):
            skipped.append((case, "requires R > max(R0, a)"))
            continue
        V = Potential.hardcore(case.a)
        params = ScatteringParams(mu=case.mu, d=case.d)
        profile = minimizer_profile(V, params, case.R)
        triple = _bounds.quad_integrals(profile, V, case.mu, case.d)
        ib = _bounds.i_bound(case.d, case.a, case.R)
        kb = _bounds.k_bound(case.d, case.a, case.R)
        entry = {
            "case": case,
            "quad": triple,
            "i_bound": ib,
            "i_slack": ib - triple.I,
            "k_bound": kb,
            "k_slack": kb - triple.K,
        }
        ok = entry["i_slack"] >= -1e-10 and entry["k_slack"] >= -1e-10

        R0_eff = max(case.R0, case.a)
        Y = _bounds.diluteness_Y(case.d, case.rho, case.a)
        if Y <= _bounds.y_cap(case.d, R0_eff):
            r_chain = _bounds.comparison_radius(R0_eff, case.a)
            try:
                direct = _bounds.energy_upper_bound(
                    case.d, case.rho, case.a, case.mu, r_chain
                )
                simplified = _bounds.simplified_upper_bound(case.d, Y, case.mu, R0_eff)
            except InvalidRegimeError as exc:
                entry["chain"] = f"proviso violated: {exc}"
            else:
                entry["chain_slack"] = simplified - direct
                ok = ok and entry["chain_slack"] >= -1e-12
        else:
            entry["chain"] = "skipped: Y above the smallness cap"
        entry["passed"] = ok
        all_ok = all_ok and ok
        results.append(entry)
    return InequalityReport(
        cases=tuple(case_grid),
        passed=all_ok,
        results=tuple(results),
        skipped=tuple(skipped),
    )


def default_case_grid() -> tuple:
    """The 3 x 3 x 2 sweep over a, R - a, and d at reference gas parameters."""
    cases = []
    for d in (2, 3):
        for a in (0.25, 0.5, 1.0):
            for gap in (0.5, 1.0, 2.0):
                cases.append(InequalityCase(d=d, a=a, R=a + gap, rho=1e-3, mu=1.0, R0=a))
    return tuple(cases)
