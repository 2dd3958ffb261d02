"""Tests for the zero-energy scattering solver."""

import math

import mpmath
import numpy as np
import pytest

from hypgas.errors import MatchingError
from hypgas.scattering import (
    Potential,
    RadialProfile,
    ScatteringParams,
    c_d,
    f_infinity,
    harmonic_primitive,
    minimizer_profile,
    scattering_energy,
    scattering_length,
    solve_zero_energy,
)

# frozen oracle values for V = 4 on [0, 1], mu = 1: Richardson-extrapolated
# finite-difference BVP solutions at h in {1e-3, 5e-4, 2.5e-4}, measured
# convergence order ~2.0
A_PIECEWISE_D3 = 0.3925864777583833
A_PIECEWISE_D2 = 0.3047147369384744

V4 = Potential.piecewise([(1.0, 4.0)])


class TestPotential:
    def test_hardcore_stores_no_values(self):
        V = Potential.hardcore(0.5)
        assert V.pieces == ()
        assert V.value(0.2) == math.inf
        assert V.value(0.7) == 0.0

    def test_piecewise_evaluation(self):
        V = Potential.piecewise([(0.5, 3.0), (1.0, 1.0)])
        assert V.value(0.0) == 3.0
        assert V.value(0.49) == 3.0
        assert V.value(0.5) == 1.0
        assert V.value(1.0) == 0.0
        assert V.value(7.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Potential.piecewise([(1.0, -2.0)])
        with pytest.raises(ValueError):
            Potential.piecewise([(1.0, 1.0), (0.5, 1.0)])
        with pytest.raises(ValueError):
            Potential(Potential.hardcore(1.0).kind, 1.0, [(1.0, 0.0)])
        with pytest.raises(ValueError):
            Potential.hardcore(-1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Potential.piecewise([(1.0, math.inf)]),
            lambda: Potential.piecewise([(0.5, 2.0), (1.0, math.nan)]),
            lambda: Potential.piecewise([(math.nan, 2.0), (1.0, 1.0)]),
            lambda: Potential.hardcore(math.inf),
            lambda: Potential.hardcore(math.nan),
            lambda: ScatteringParams(mu=math.inf, d=2),
            lambda: ScatteringParams(mu=math.nan, d=3),
        ],
        ids=["inf-value", "nan-value", "nan-radius", "inf-hardcore", "nan-hardcore",
             "inf-mu", "nan-mu"],
    )
    def test_rejects_non_finite(self, make):
        with pytest.raises(ValueError):
            make()

    def test_compact_support_by_evaluation(self):
        for V in (V4, Potential.hardcore(0.3)):
            for r in np.linspace(V.r0, V.r0 + 5, 20):
                assert V.value(r) == 0.0

    @pytest.mark.parametrize(
        "V", [Potential.piecewise([(0.5, 3.0), (1.0, 1.0)]), Potential.hardcore(0.3)]
    )
    def test_value_on_array_matches_scalar_calls(self, V):
        r = np.array([0.0, 0.2, 0.3, 0.49, 0.5, 0.7, 1.0, 7.0])
        assert np.array_equal(V.value(r), [V.value(float(x)) for x in r])
        assert type(V.value(0.2)) is float
        with pytest.raises(ValueError):
            V.value(np.array([0.5, -0.1]))


class TestFInfinity:
    def test_zero_at_a(self):
        assert f_infinity(2, 0.5, 0.5) == 0.0
        assert f_infinity(3, 1.2, 1.2) == pytest.approx(0.0, abs=1e-15)

    def test_values(self):
        assert f_infinity(2, 0.5, 2.0) == pytest.approx(
            math.log(math.tanh(1.0) / math.tanh(0.25))
        )
        assert f_infinity(3, 1.0, 10.0) == pytest.approx(
            1 - math.tanh(1.0) / math.tanh(10.0)
        )
        # saturates at 1 - tanh(a) for large r
        assert f_infinity(3, 1.0, 40.0) == pytest.approx(1 - math.tanh(1.0), abs=1e-12)

    def test_sign_change(self):
        assert f_infinity(2, 0.5, 0.3) < 0
        assert f_infinity(3, 0.5, 0.3) < 0
        assert f_infinity(2, 0.5, 0.7) > 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            f_infinity(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            f_infinity(2, 0.5, 0.0)
        with pytest.raises(ValueError):
            f_infinity(2, 0.5, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            harmonic_primitive(3, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("d", [2, 3])
    def test_array_matches_scalar_calls(self, d):
        r = np.array([1e-6, 0.3, 0.999, 1.0, 1.5, 7.0, 40.0, 61.0])
        a = 0.7
        for fn, args in ((harmonic_primitive, ()), (f_infinity, (a,))):
            values = fn(d, *args, r)
            assert isinstance(values, np.ndarray)
            np.testing.assert_allclose(
                values, [fn(d, *args, float(x)) for x in r], rtol=1e-14, atol=0
            )
            assert type(fn(d, *args, 1.5)) is float
        np.testing.assert_allclose(
            f_infinity(d, r, 62.0), [f_infinity(d, float(x), 62.0) for x in r], rtol=1e-14
        )
        assert type(c_d(d, 0.5)) is float

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("a,r", [(0.5, 0.500001), (1e-3, 2.0), (40.0, 41.0), (60.0, 60.5)])
    def test_digits_at_large_and_close_radii(self, d, a, r):
        # tanh(40) rounds to 1, so ln tanh and 1 - tanh(a)/tanh(r) read 0 there
        with mpmath.workdps(120):
            if d == 2:
                ref = mpmath.log(mpmath.tanh(mpmath.mpf(r) / 2) / mpmath.tanh(mpmath.mpf(a) / 2))
                prim = mpmath.log(mpmath.tanh(mpmath.mpf(r) / 2))
            else:
                ref = 1 - mpmath.tanh(mpmath.mpf(a)) / mpmath.tanh(mpmath.mpf(r))
                prim = -1 / mpmath.tanh(mpmath.mpf(r))
        assert f_infinity(d, a, r) == pytest.approx(float(ref), rel=1e-14, abs=0)
        assert harmonic_primitive(d, r) == pytest.approx(float(prim), rel=1e-14, abs=0)


class TestCd:
    def test_values(self):
        assert c_d(2, 0.7) == 1.0
        assert c_d(3, 0.0) == 0.0
        assert c_d(3, 1.0) == pytest.approx(math.tanh(1.0))

    @pytest.mark.parametrize("d,a", [(2, 0.3), (2, 1.5), (3, 0.3), (3, 1.5)])
    def test_flux_constant_along_r(self, d, a):
        # central-difference derivative of f_infinity times the weight is constant
        h = 1e-5
        worst = 0.0
        for r in np.linspace(a + 0.1, a + 4, 25):
            fp = (f_infinity(d, a, r + h) - f_infinity(d, a, r - h)) / (2 * h)
            worst = max(worst, abs(fp * math.sinh(r) ** (d - 1) - c_d(d, a)))
        assert worst / c_d(d, a) <= 1e-7


class TestSolveZeroEnergy:
    def test_free_particle_profile_is_one(self):
        V = Potential.piecewise([(1.0, 0.0)])
        for d in (2, 3):
            prof = solve_zero_energy(V, ScatteringParams(mu=1.0, d=d), 3.0)
            assert np.allclose(prof.values, 1.0, atol=1e-12)

    def test_hardcore_profile_matches_closed_form(self):
        prof = solve_zero_energy(Potential.hardcore(0.5), ScatteringParams(mu=1.0, d=2), 3.0)
        inside = prof.grid <= 0.5
        assert np.all(prof.values[inside] == 0.0)
        norm = f_infinity(2, 0.5, 3.0)
        for r, f in zip(prof.grid[~inside], prof.values[~inside]):
            assert f == pytest.approx(f_infinity(2, 0.5, r) / norm, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_exterior_matches_f_infinity(self, d):
        params = ScatteringParams(mu=1.0, d=d)
        sol = scattering_length(V4, params)
        prof = solve_zero_energy(V4, params, 3.0)
        norm = f_infinity(d, sol.a, 3.0)
        ext = prof.grid > V4.r0
        dev = max(
            abs(f - f_infinity(d, sol.a, r) / norm)
            for r, f in zip(prof.grid[ext], prof.values[ext])
        )
        assert dev <= 1e-6

    def test_requires_r_max_beyond_support(self):
        with pytest.raises(ValueError):
            solve_zero_energy(V4, ScatteringParams(mu=1.0, d=2), 0.8)


class TestScatteringLength:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r0", [0.1, 0.5, 1.0, 2.0])
    def test_hardcore(self, d, r0):
        sol = scattering_length(Potential.hardcore(r0), ScatteringParams(mu=1.0, d=d))
        assert abs(sol.a - r0) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("r0", [40.0, 60.0])
    def test_large_hardcore(self, d, r0):
        sol = scattering_length(Potential.hardcore(r0), ScatteringParams(mu=1.0, d=d))
        assert sol.a == r0
        prof = sol.profile
        assert prof.values[-1] == 1.0
        assert np.all(prof.values[prof.grid <= r0] == 0.0)
        assert np.all(prof.values[prof.grid > r0] > 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_free_particle(self, d):
        for pieces in ([(1.0, 0.0)], [(0.4, 0.0), (1.0, 0.0)]):
            sol = scattering_length(Potential.piecewise(pieces), ScatteringParams(mu=1.0, d=d))
            assert sol.a == 0.0
            assert (sol.alpha, sol.beta) == (1.0, 0.0)

    def test_piecewise_matches_bvp_oracle(self):
        sol3 = scattering_length(V4, ScatteringParams(mu=1.0, d=3))
        assert sol3.a == pytest.approx(A_PIECEWISE_D3, abs=1e-8)
        sol2 = scattering_length(V4, ScatteringParams(mu=1.0, d=2))
        assert sol2.a == pytest.approx(A_PIECEWISE_D2, abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3])
    def test_r_max_independence(self, d):
        params = ScatteringParams(mu=1.0, d=d)
        a1 = scattering_length(V4, params, r_max=V4.r0 + 1).a
        a5 = scattering_length(V4, params, r_max=V4.r0 + 5).a
        assert abs(a1 - a5) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("v0", [0.5, 4.0, 50.0])
    def test_length_below_support_radius(self, d, v0):
        V = Potential.piecewise([(1.0, v0)])
        sol = scattering_length(V, ScatteringParams(mu=1.0, d=d))
        assert 0 < sol.a <= V.r0

    def test_root_of_matched_exterior(self):
        from hypgas.scattering import harmonic_primitive

        for d in (2, 3):
            sol = scattering_length(V4, ScatteringParams(mu=1.0, d=d))
            assert sol.alpha + sol.beta * harmonic_primitive(d, sol.a) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_split_cell_matches_single_cell(self):
        V = Potential.piecewise([(0.5, 4.0), (1.0, 4.0)])
        sol = scattering_length(V, ScatteringParams(mu=1.0, d=3))
        assert sol.a == pytest.approx(A_PIECEWISE_D3, abs=1e-8)


def mpmath_regular(pieces, mu, d):
    """(g, g') at the last edge for the regular solution, by a 40-digit transfer.

    g = u = f sinh r in d=3, g = f in d=2; the solution starts as sinh(q r)
    or P_nu(cosh r).  Each cell's solutions are spanned by two closed forms:
    sinh and cosh of q (r - lo), q^2 = 1 + V/2mu, in d=3; the Legendre
    functions P_nu and Q_nu (type 3) of cosh r, nu (nu + 1) = V/2mu, in d=2.
    Value and derivative are matched at every cell edge.
    """
    with mpmath.workdps(40):
        lo, y = mpmath.mpf(0), None
        for hi, v in pieces:
            hi, kappa = mpmath.mpf(hi), mpmath.mpf(v) / (2 * mpmath.mpf(mu))
            if d == 3:
                q = mpmath.sqrt(1 + kappa)
                basis = [lambda r, lo=lo, fn=fn: fn(q * (r - lo)) for fn in (mpmath.sinh, mpmath.cosh)]
            else:
                nu = (mpmath.sqrt(1 + 4 * kappa) - 1) / 2
                basis = [
                    lambda r, fn=fn: mpmath.re(fn(nu, 0, mpmath.cosh(r), type=3))
                    for fn in (mpmath.legenp, mpmath.legenq)
                ]
            if y is None:
                coef = [1, 0]
            else:
                m = mpmath.matrix([[b(lo) for b in basis], [mpmath.diff(b, lo) for b in basis]])
                coef = mpmath.lu_solve(m, mpmath.matrix(y))
            y = [sum(c * b(hi) for c, b in zip(coef, basis)),
                 sum(c * mpmath.diff(b, hi) for c, b in zip(coef, basis))]
            lo = hi
        return y


def mpmath_length(pieces, mu, d):
    """a from the log-derivative w = g'/g at R0 (see mpmath_regular)."""
    with mpmath.workdps(40):
        g, dg = mpmath_regular(pieces, mu, d)
        r0 = mpmath.mpf(pieces[-1][0])
        if d == 3:  # w = coth(R0 - a)
            return float(r0 - mpmath.atanh(g / dg))
        ell = g / (dg * mpmath.sinh(r0)) - mpmath.log(mpmath.tanh(r0 / 2))  # -ln tanh(a/2)
        return float(2 * mpmath.atanh(mpmath.exp(-ell)))


class TestExactTransfer:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize(
        "pieces",
        [
            [(0.3, 5.0), (0.7, 1.0), (1.2, 2.5)],
            [(0.5, 2.0), (1.0, 0.0), (1.5, 1.0)],
            [(0.5, 0.0), (1.0, 3.0)],
            [(0.015, 2000.0), (0.02, 500.0)],
            [(1.0, 1e3)],
            [(1.0, 1e4)],
            [(2.0, 1.0), (5.0, 0.5)],
        ],
        ids=["3-cell", "zero-middle", "zero-core", "narrow", "V1e3", "V1e4", "R0-5"],
    )
    def test_matches_mpmath(self, d, pieces):
        sol = scattering_length(Potential.piecewise(pieces), ScatteringParams(mu=1.0, d=d))
        assert sol.a == pytest.approx(mpmath_length(pieces, 1.0, d), rel=1e-13, abs=0)

    @pytest.mark.parametrize("r0", [20.0, 30.0, 40.0])
    def test_d3_large_support(self, r0):
        # w = u'/u tends to 1: 1 - 1/w rounds away, so the transfer carries w - 1
        pieces = [(3.0, 2.0), (r0, 1.0)]
        sol = scattering_length(Potential.piecewise(pieces), ScatteringParams(mu=1.0, d=3))
        assert sol.a == pytest.approx(mpmath_length(pieces, 1.0, 3), rel=1e-13, abs=0)
        assert sol.profile.values[-1] == 1.0

    def test_d3_strong_potential(self):
        pieces = [(1.0, 1e7)]
        sol = scattering_length(Potential.piecewise(pieces), ScatteringParams(mu=1.0, d=3))
        assert sol.a == pytest.approx(mpmath_length(pieces, 1.0, 3), rel=1e-13, abs=0)
        assert np.all(np.diff(sol.profile.values) >= 0.0)
        # R0 - a = 1/q is below the rounding of R0: the potential acts as a hardcore
        V = Potential.piecewise([(0.5, 1.0), (1.0, 1e300)])
        sol = scattering_length(V, ScatteringParams(mu=1.0, d=3))
        assert sol.a == 1.0
        assert np.all(sol.profile.values[sol.profile.grid <= 1.0] == 0.0)

    def test_d2_overflow_is_a_matching_error(self):
        # nu (nu + 1) = V / 2mu with nu = 720, so P_nu(cosh 1) ~ e^720 overflows
        V = Potential.piecewise([(0.5, 1.0), (1.0, 2.0 * 720 * 721)])
        with pytest.raises(MatchingError, match=r"cell \[0.5, 1.0\]"):
            scattering_length(V, ScatteringParams(mu=1.0, d=2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_profile_chains_the_cells(self, d):
        # from f(R0) on the exterior solution down through every cell to r = 0
        pieces = [(0.3, 5.0), (0.7, 1.0), (1.2, 2.5)]
        sol = scattering_length(Potential.piecewise(pieces), ScatteringParams(mu=1.0, d=d))
        grid, values = sol.profile.grid, sol.profile.values
        at_r0 = np.flatnonzero(grid == 1.2)[0]
        assert values[at_r0] == pytest.approx(
            f_infinity(d, sol.a, 1.2) / f_infinity(d, sol.a, sol.r_max), rel=1e-14
        )

        def f(r):  # the mpmath regular solution at r, up to one constant factor
            if r == 0.0:
                return math.sqrt(1 + 5.0 / 2) if d == 3 else 1.0  # sinh(q r)/sinh(r), P_nu(1)
            below = [(min(hi, r), v) for hi, v in pieces if hi < r]
            g, _ = mpmath_regular(below + [(min(hi, r), v) for hi, v in pieces if hi >= r][:1], 1.0, d)
            return float(g / mpmath.sinh(r)) if d == 3 else float(g)

        for k in [0, at_r0 - 1] + [int(np.searchsorted(grid, r)) for r in (0.01, 0.3, 0.5, 0.9)]:
            assert values[k] / values[at_r0] == pytest.approx(f(grid[k]) / f(1.2), rel=1e-13)


class TestMinimizerProfile:
    def test_normalization_at_R(self):
        prof = minimizer_profile(Potential.hardcore(0.5), ScatteringParams(mu=1.0, d=2), 2.0)
        assert prof.values[-1] == 1.0

    def test_interior_value(self):
        prof = minimizer_profile(Potential.hardcore(0.5), ScatteringParams(mu=1.0, d=2), 2.0)
        expected = math.log(math.tanh(0.5) / math.tanh(0.25)) / math.log(
            math.tanh(1.0) / math.tanh(0.25)
        )
        assert prof(1.0) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.5596, abs=5e-4)

    def test_free_particle(self):
        V = Potential.piecewise([(1.0, 0.0)])
        prof = minimizer_profile(V, ScatteringParams(mu=1.0, d=3), 2.0)
        assert np.allclose(prof.values, 1.0, atol=1e-12)

    def test_rejects_small_R(self):
        with pytest.raises(ValueError):
            minimizer_profile(V4, ScatteringParams(mu=1.0, d=2), 0.9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_monotone_in_unit_interval(self, d):
        prof = minimizer_profile(V4, ScatteringParams(mu=1.0, d=d), 4.0)
        assert np.all(prof.values >= -1e-12)
        assert np.all(prof.values <= 1 + 1e-12)
        assert np.all(np.diff(prof.values) >= -1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_lower_envelope(self, d):
        # f_R(r) >= f_infinity(r)/f_infinity(R) for r >= a
        params = ScatteringParams(mu=1.0, d=d)
        sol = scattering_length(V4, params)
        R = 3.0
        prof = minimizer_profile(V4, params, R)
        norm = f_infinity(d, sol.a, R)
        sel = prof.grid > sol.a
        for r, f in zip(prof.grid[sel], prof.values[sel]):
            assert f >= f_infinity(d, sol.a, r) / norm - 1e-8


class TestScatteringEnergy:
    def test_free_particle(self):
        assert scattering_energy(2, 0.0, 1.0, 2.0) == 0.0
        assert scattering_energy(3, 0.0, 5.0, 1.0) == 0.0

    def test_closed_forms(self):
        assert scattering_energy(2, 0.5, 1.0, 2.0) == pytest.approx(
            2 * math.pi / math.log(math.tanh(1.0) / math.tanh(0.25))
        )
        assert scattering_energy(3, 0.5, 1.0, 2.0) == pytest.approx(
            4 * math.pi * math.tanh(0.5) / (1 - math.tanh(0.5) / math.tanh(2.0))
        )

    def test_scales_with_mu(self):
        assert scattering_energy(2, 0.5, 3.0, 2.0) == pytest.approx(
            3 * scattering_energy(2, 0.5, 1.0, 2.0)
        )

    def test_rejects_R_below_a(self):
        with pytest.raises(ValueError):
            scattering_energy(2, 0.5, 1.0, 0.4)


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.0, 1.0]), np.array([0.5, 0.9]), 1.0)  # not 1 at end
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.0, 1.0]), np.array([1.0, 0.5]), 1.0)  # decreasing
        with pytest.raises(ValueError):
            RadialProfile(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0)  # bad grid

    def test_extension_beyond_r_max(self):
        prof = RadialProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 1.0)
        assert prof(2.5) == 1.0
