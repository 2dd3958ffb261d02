"""Tests for the diluteness parameter, integral estimates, and energy bounds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypgas.bounds import (
    GasParameters,
    IntegralTriple,
    comparison_radius,
    condensate_fraction_lower,
    diluteness_Y,
    energy_upper_bound,
    i_bound,
    k_bound,
    k_bound_tight,
    make_report,
    quad_integrals,
    simplified_upper_bound,
    trial_energy_bound,
    y0_threshold,
    y_cap,
)
from hypgas.errors import InvalidRegimeError
from hypgas.scattering import (
    Potential,
    ScatteringParams,
    minimizer_profile,
    scattering_energy,
)


class TestDilutenessY:
    def test_free_gas(self):
        assert diluteness_Y(2, 0.01, 0.0) == 0.0
        assert diluteness_Y(3, 0.01, 0.0) == 0.0

    def test_values(self):
        assert diluteness_Y(3, 0.01, 1.0) == pytest.approx(0.01 * math.tanh(1.0))
        assert diluteness_Y(2, 0.01, 0.5) == pytest.approx(
            0.01 / math.log(1 / math.tanh(0.25))
        )

    def test_vanishes_in_dilute_limit(self):
        # the quotient parse gives Y -> 0 as a -> 0 at fixed density
        ys = [diluteness_Y(2, 0.01, a) for a in (1e-2, 1e-4, 1e-8)]
        assert ys[0] > ys[1] > ys[2] > 0

    @given(st.floats(1e-6, 1.0), st.floats(1e-4, 3.0))
    @settings(max_examples=100)
    def test_increasing_in_density(self, rho, a):
        for d in (2, 3):
            assert diluteness_Y(d, 2 * rho, a) == pytest.approx(2 * diluteness_Y(d, rho, a))


class TestY0Threshold:
    def test_cap_active_at_large_eps(self):
        val = y0_threshold(2, 1.0, 1.0, 1.0)
        assert val == pytest.approx(1 / (32 * math.pi))
        branch = 3 * (math.sqrt(5 / 3) - 1) / (16 * math.pi)
        assert branch > val

    def test_branch_active_at_small_eps(self):
        val = y0_threshold(2, 0.01, 1.0, 1.0)
        assert val == pytest.approx(3 * (math.sqrt(1 + 0.02 / 3) - 1) / (16 * math.pi))
        assert val == pytest.approx(1.986e-4, rel=1e-3)

    def test_d3_cap(self):
        val = y0_threshold(3, 1e9, 1.0, 1.0)
        assert val == pytest.approx(1 / (8 * math.e**2 * 4))

    def test_positive_and_monotone_in_eps(self):
        prev = 0.0
        for eps in (1e-4, 1e-2, 0.1, 1.0, 10.0):
            cur = y0_threshold(3, eps, 0.5, 0.5)
            assert cur > 0
            assert cur >= prev
            prev = cur

    def test_quadratic_root_identity(self):
        # a_c * Y0 * (1 + b_c * Y0) = eps exactly when the eps-branch is active
        from hypgas.bounds import _eps_branch_coefficients

        for d in (2, 3):
            for mu in (0.5, 1.0, 2.0):
                for R0 in (0.5, 1.0):
                    eps = 1e-3
                    y0 = y0_threshold(d, eps, mu, R0)
                    a_c, b_c = _eps_branch_coefficients(d, mu, R0)
                    if y0 < y_cap(d, R0):
                        assert a_c * y0 * (1 + b_c * y0) == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps,mu", [(1e-4, 1.0), (1e-6, 1.0), (1e-4, 2.0)])
    def test_small_eps_root_keeps_its_digits(self, d, eps, mu):
        # (sqrt(1 + x) - 1) cancels for small x: 2.5e-12 relative at eps = 1e-4, 2.7e-10 at 1e-6
        from hypgas.bounds import _eps_branch_coefficients

        a_c, b_c = _eps_branch_coefficients(d, mu, 1.0)
        with mpmath.workdps(50):
            A, B = mpmath.mpf(a_c), mpmath.mpf(b_c)
            ref = float((mpmath.sqrt(1 + 4 * B * eps / A) - 1) / (2 * B))
        assert y0_threshold(d, eps, mu, 1.0) == pytest.approx(ref, rel=1e-15, abs=0)


class TestQuadIntegrals:
    def test_trivial_profile(self):
        V = Potential.piecewise([(1.0, 0.0)])
        prof = minimizer_profile(V, ScatteringParams(mu=1.0, d=2), 2.0)
        t = quad_integrals(prof, V, 1.0, 2)
        assert t.I == pytest.approx(0.0, abs=1e-10)
        assert t.J == pytest.approx(0.0, abs=1e-10)
        assert t.K == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("d", [2, 3])
    def test_energy_integral_matches_closed_form(self, d):
        a, R = 0.5, 2.0
        V = Potential.hardcore(a)
        prof = minimizer_profile(V, ScatteringParams(mu=1.0, d=d), R)
        t = quad_integrals(prof, V, 1.0, d)
        E = scattering_energy(d, a, 1.0, R)
        assert abs(t.J - E) / E <= 1e-4

    def test_energy_integral_with_finite_potential(self):
        V = Potential.piecewise([(1.0, 4.0)])
        for d in (2, 3):
            params = ScatteringParams(mu=1.0, d=d)
            from hypgas.scattering import scattering_length

            sol = scattering_length(V, params)
            R = 3.0
            prof = minimizer_profile(V, params, R)
            t = quad_integrals(prof, V, 1.0, d)
            E = scattering_energy(d, sol.a, 1.0, R)
            assert abs(t.J - E) / E <= 1e-4

    def test_quadrature_below_bounds(self):
        for d in (2, 3):
            for a in (0.25, 0.5, 1.0):
                for dr in (0.5, 1.0, 2.0):
                    R = a + dr
                    V = Potential.hardcore(a)
                    prof = minimizer_profile(V, ScatteringParams(mu=1.0, d=d), R)
                    t = quad_integrals(prof, V, 1.0, d)
                    assert t.I <= i_bound(d, a, R) + 1e-10
                    assert t.K <= k_bound(d, a, R) + 1e-10

    def test_support_mismatch(self):
        V = Potential.piecewise([(3.0, 1.0)])
        prof = minimizer_profile(Potential.hardcore(0.5), ScatteringParams(mu=1.0, d=2), 2.0)
        with pytest.raises(ValueError):
            quad_integrals(prof, V, 1.0, 2)


class TestClosedFormBounds:
    def test_i_bound_values(self):
        assert i_bound(2, 0.5, 2.0) == pytest.approx(
            2 * math.pi * 3.75 / math.log(math.tanh(1.0) / math.tanh(0.25))
        )
        assert i_bound(2, 0.5, 2.0) == pytest.approx(20.77, rel=1e-3)
        ta, tr = math.tanh(0.5), math.tanh(2.0)
        assert i_bound(3, 0.5, 2.0) == pytest.approx(4 * math.pi * ta * tr * 3.75 / (tr - ta))
        assert i_bound(3, 0.5, 2.0) == pytest.approx(41.83, rel=1e-3)

    def test_k_bound_values(self):
        assert k_bound(2, 0.5, 2.0) == pytest.approx(
            4 * math.pi / math.log(math.tanh(1.0) / math.tanh(0.25))
        )
        assert k_bound(2, 0.5, 2.0) == pytest.approx(11.08, rel=1e-3)
        ta, tr = math.tanh(0.5), math.tanh(2.0)
        assert k_bound(3, 0.5, 2.0) == pytest.approx(4 * math.pi * ta * 2 / (1 - ta / tr))
        assert k_bound(3, 0.5, 2.0) == pytest.approx(22.3, rel=1e-2)

    def test_k_bound_tight_variant(self):
        assert k_bound_tight(2, 0.5, 2.0) == pytest.approx(k_bound(2, 0.5, 2.0) / 2.0)

    def test_growth_in_R(self):
        # the log/tanh denominators saturate, so both grow like R^2 at large R
        assert i_bound(2, 0.5, 50.0) == pytest.approx(
            2 * math.pi * 50.0**2 / math.log(1 / math.tanh(0.25)), rel=1e-2
        )
        assert i_bound(3, 0.5, 50.0) == pytest.approx(
            4 * math.pi * math.tanh(0.5) * 50.0**2 / (1 - math.tanh(0.5)), rel=1e-2
        )

    def test_rejects_bad_radii(self):
        with pytest.raises(ValueError):
            i_bound(2, 0.5, 0.4)
        with pytest.raises(ValueError):
            k_bound(3, 0.0, 1.0)


class TestGasParameters:
    @pytest.mark.parametrize(
        "rho,mu", [(math.inf, 1.0), (math.nan, 1.0), (0.01, math.inf), (0.01, math.nan)]
    )
    def test_rejects_non_finite(self, rho, mu):
        with pytest.raises(ValueError, match="finite"):
            GasParameters(d=2, rho=rho, mu=mu)


class TestTrialEnergyBound:
    def test_zero_integrals(self):
        p = GasParameters(d=2, rho=0.01, mu=1.0)
        assert trial_energy_bound(p, IntegralTriple(0, 0, 0)) == 0.0

    def test_reference_value(self):
        p = GasParameters(d=2, rho=0.01, mu=1.0)
        val = trial_energy_bound(p, IntegralTriple(20.0, 5.5, 11.0))
        expected = (0.055 + 2 / 3 * 0.11**2) / 0.8**2
        assert val == pytest.approx(expected)
        assert val == pytest.approx(0.0986, rel=2e-3)

    def test_precondition_boundary(self):
        p = GasParameters(d=2, rho=0.01, mu=1.0)
        with pytest.raises(InvalidRegimeError) as exc:
            trial_energy_bound(p, IntegralTriple(100.0, 1.0, 1.0))
        assert exc.value.value == pytest.approx(1.0)

    def test_nonnegative_from_true_minimizer(self):
        V = Potential.hardcore(0.5)
        prof = minimizer_profile(V, ScatteringParams(mu=1.0, d=3), 2.0)
        t = quad_integrals(prof, V, 1.0, 3)
        p = GasParameters(d=3, rho=0.01, mu=1.0)
        val = trial_energy_bound(p, t)
        assert math.isfinite(val) and val >= 0


class TestEnergyUpperBound:
    def test_free_gas(self):
        assert energy_upper_bound(2, 0.001, 0.0, 1.0, 1.5) == 0.0

    def test_d2_display(self):
        rho, a, R = 0.001, 0.5, 1.5
        ell = math.log(math.tanh(R / 2) / math.tanh(a / 2))
        t = 2 * math.pi * rho * (R**2 - a**2) / ell
        expected = (
            2 * math.pi * rho / ((1 - t) ** 2 * ell) * (1 + 4 / 3 * math.pi * rho / ell)
        )
        assert energy_upper_bound(2, rho, a, 1.0, R) == pytest.approx(expected, rel=1e-12)

    def test_d3_display(self):
        rho, a, R = 0.001, 0.5, 1.5
        ta, tr = math.tanh(a), math.tanh(R)
        s = 4 * math.pi * rho * ta * (R**2 - a**2) * tr / (tr - ta)
        expected = (
            4 * math.pi * rho * ta * tr / ((1 - s) ** 2 * (tr - ta))
            * (1 + 8 / 3 * math.pi * rho * ta * tr / (tr - ta))
        )
        assert energy_upper_bound(3, rho, a, 1.0, R) == pytest.approx(expected, rel=1e-12)

    def test_dominates_trial_bound_from_quadrature(self):
        # plugging quadrature I, J, K into the trial bound can only be tighter
        rho, a, R, mu = 0.001, 0.5, 1.5, 1.0
        for d in (2, 3):
            V = Potential.hardcore(a)
            prof = minimizer_profile(V, ScatteringParams(mu=mu, d=d), R)
            t = quad_integrals(prof, V, mu, d)
            p = GasParameters(d=d, rho=rho, mu=mu)
            assert energy_upper_bound(d, rho, a, mu, R) >= trial_energy_bound(p, t)

    def test_proviso_violation(self):
        with pytest.raises(InvalidRegimeError) as exc:
            energy_upper_bound(2, 10.0, 0.5, 1.0, 1.5)
        assert exc.value.quantity == "rho_I_bound"


class TestSimplifiedUpperBound:
    def test_zero_Y(self):
        assert simplified_upper_bound(2, 0.0, 1.0, 1.0) == 0.0

    def test_d2_value(self):
        expected = 16 * math.pi * 0.005 * (1 + 8 * math.pi * 0.005 / 3)
        assert simplified_upper_bound(2, 0.005, 1.0, 1.0) == pytest.approx(expected)
        assert expected == pytest.approx(0.2619, rel=1e-3)

    def test_d3_value(self):
        e2 = math.exp(2 * 0.5)
        Y = 1e-4
        expected = 16 * math.pi * e2 * Y * (1 + 8 * math.pi / 3 * e2 * Y)
        assert simplified_upper_bound(3, Y, 1.0, 0.5) == pytest.approx(expected)

    def test_threshold(self):
        cap = 1 / (32 * math.pi)
        with pytest.raises(InvalidRegimeError) as exc:
            simplified_upper_bound(2, cap * 1.0001, 1.0, 1.0)
        assert exc.value.threshold == pytest.approx(cap)

    @given(st.floats(1e-8, 1e-3), st.floats(1.01, 3.0))
    @settings(max_examples=100)
    def test_strictly_increasing_in_Y(self, Y, factor):
        assert simplified_upper_bound(2, Y * factor, 1.0, 1.0) > simplified_upper_bound(
            2, Y, 1.0, 1.0
        )

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [0.01, 0.1, 1.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("R0", [0.5, 1.0])
    def test_y0_soundness(self, d, eps, mu, R0):
        y0 = y0_threshold(d, eps, mu, R0)
        for Y in np.linspace(0, y0, 100):
            assert simplified_upper_bound(d, Y, mu, R0) <= eps + 1e-12

    def test_chain_consistency(self):
        # the simplification of the direct bound only loosens it
        for d in (2, 3):
            for a in (0.1, 0.5, 1.0):
                for R0 in (a, a + 0.5):
                    rho = 0.25 * y_cap(d, R0) * (
                        math.log(1 / math.tanh(a / 2)) if d == 2 else 1 / math.tanh(a)
                    )
                    Y = diluteness_Y(d, rho, a)
                    assert Y <= y_cap(d, R0)
                    R = comparison_radius(R0, a)
                    direct = energy_upper_bound(d, rho, a, 1.0, R)
                    simple = simplified_upper_bound(d, Y, 1.0, R0)
                    assert direct <= simple + 1e-12


class TestCondensateFraction:
    def test_zero_energy(self):
        assert condensate_fraction_lower(0.0, 0.5) == 1.0

    def test_reference_value(self):
        assert condensate_fraction_lower(0.1, 975 / 4096) == pytest.approx(
            1 - 0.1 * 4096 / 975
        )
        assert condensate_fraction_lower(0.1, 975 / 4096) == pytest.approx(0.5799, rel=1e-3)

    def test_unclamped(self):
        assert condensate_fraction_lower(1.0, 0.5) == -1.0

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            condensate_fraction_lower(0.1, 0.0)

    @given(st.floats(1e-6, 1), st.floats(0.01, 1), st.floats(1.01, 3))
    @settings(max_examples=100)
    def test_monotonicity(self, E, gap, factor):
        assert condensate_fraction_lower(E * factor, gap) < condensate_fraction_lower(E, gap)
        assert condensate_fraction_lower(E, gap * factor) > condensate_fraction_lower(E, gap)


class TestMakeReport:
    def test_valid_regime(self):
        r = make_report(2, 1e-4, 0.5, 1.0, 0.5, gap=0.2)
        assert r.validity["y_within_cap"]
        assert r.energy_upper_per_particle is not None
        assert r.fraction_lower is not None
        assert "formula_variants" in r.provenance

    def test_invalid_regime_leaves_fields_absent(self):
        r = make_report(2, 100.0, 0.5, 1.0, 0.5, gap=0.2)
        assert not r.validity["y_within_cap"]
        assert r.energy_upper_per_particle is None
        assert r.fraction_lower is None
