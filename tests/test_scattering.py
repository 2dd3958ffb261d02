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
        V = Potential.piecewise([(1.0, 0.0)])
        sol = scattering_length(V, ScatteringParams(mu=1.0, d=d))
        assert sol.a == 0.0

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
