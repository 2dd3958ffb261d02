"""Tests for the hyperbolic geometry primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hypgas.geometry import (
    PointH2,
    PointH3,
    ball_volume,
    check_dimension,
    geodesic_distance,
    radial_weight,
    sphere_area,
)

coord = st.floats(-5, 5, allow_nan=False)
pos = st.floats(0.05, 5, allow_nan=False)


def mobius(p, a, b, c, d):
    """Apply an SL_2(R) Moebius map to a half-plane point."""
    z = complex(p.z1, p.z2)
    w = (a * z + b) / (c * z + d)
    return PointH2(w.real, w.imag)


def boost(p, t):
    """Lorentz boost of rapidity t along the z1 axis."""
    return PointH3(
        math.cosh(t) * p.z0 + math.sinh(t) * p.z1,
        math.sinh(t) * p.z0 + math.cosh(t) * p.z1,
        p.z2,
        p.z3,
    )


class TestDimension:
    def test_accepts_2_and_3(self):
        assert check_dimension(2) == 2
        assert check_dimension(3) == 3

    @pytest.mark.parametrize("d", [0, 1, 4, 2.5, "2"])
    def test_rejects_other(self, d):
        with pytest.raises(ValueError):
            check_dimension(d)


class TestPoints:
    def test_half_plane_requires_positive_height(self):
        with pytest.raises(ValueError):
            PointH2(0.0, 0.0)
        with pytest.raises(ValueError):
            PointH2(1.0, -0.5)

    def test_hyperboloid_constraint_enforced(self):
        p = PointH3.from_spatial(0.3, -0.2, 1.1)
        assert abs(p.z0**2 - p.z1**2 - p.z2**2 - p.z3**2 - 1.0) <= 1e-12
        with pytest.raises(ValueError):
            PointH3(2.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PointH3(-1.0, 0.0, 0.0, 0.0)


class TestDistance:
    def test_vertical_geodesic(self):
        assert geodesic_distance(2, PointH2(0, 1), PointH2(0, 2)) == pytest.approx(
            math.log(2), abs=1e-14
        )

    def test_hyperboloid_geodesic_parametrization(self):
        o = PointH3(1, 0, 0, 0)
        for t in (0.1, 1.0, 3.7):
            q = PointH3(math.cosh(t), math.sinh(t), 0, 0)
            assert geodesic_distance(3, o, q) == pytest.approx(t, abs=1e-12)

    def test_identity_case(self):
        p = PointH2(0.3, 1.7)
        assert geodesic_distance(2, p, p) == 0.0

    def test_model_mismatch(self):
        with pytest.raises(TypeError):
            geodesic_distance(2, PointH2(0, 1), PointH3(1, 0, 0, 0))
        with pytest.raises(TypeError):
            geodesic_distance(3, PointH2(0, 1), PointH2(0, 2))

    @given(coord, pos, coord, pos)
    def test_symmetry(self, x1, y1, x2, y2):
        p, q = PointH2(x1, y1), PointH2(x2, y2)
        assert geodesic_distance(2, p, q) == pytest.approx(
            geodesic_distance(2, q, p), abs=1e-12
        )

    @given(coord, pos, coord, pos, coord, pos)
    @settings(max_examples=200)
    def test_triangle_inequality_h2(self, x1, y1, x2, y2, x3, y3):
        p, q, r = PointH2(x1, y1), PointH2(x2, y2), PointH2(x3, y3)
        assert geodesic_distance(2, p, r) <= (
            geodesic_distance(2, p, q) + geodesic_distance(2, q, r) + 1e-10
        )

    @given(coord, coord, coord, coord, coord, coord, coord, coord, coord)
    @settings(max_examples=200)
    def test_triangle_inequality_h3(self, a, b, c, d, e, f, g, h, i):
        p = PointH3.from_spatial(a, b, c)
        q = PointH3.from_spatial(d, e, f)
        r = PointH3.from_spatial(g, h, i)
        assert geodesic_distance(3, p, r) <= (
            geodesic_distance(3, p, q) + geodesic_distance(3, q, r) + 1e-10
        )

    @given(coord, pos, coord, pos, st.floats(-2, 2), st.floats(-2, 2), st.floats(0.2, 3))
    @settings(max_examples=200)
    def test_mobius_invariance(self, x1, y1, x2, y2, b, c, a):
        # ad - bc = 1 with a free and d solved for
        d = (1 + b * c) / a
        p, q = PointH2(x1, y1), PointH2(x2, y2)
        before = geodesic_distance(2, p, q)
        after = geodesic_distance(2, mobius(p, a, b, c, d), mobius(q, a, b, c, d))
        assert after == pytest.approx(before, abs=1e-9, rel=1e-9)

    @given(coord, coord, coord, coord, coord, coord, st.floats(-2, 2))
    @settings(max_examples=200)
    def test_boost_invariance(self, a, b, c, d, e, f, t):
        p = PointH3.from_spatial(a, b, c)
        q = PointH3.from_spatial(d, e, f)
        before = geodesic_distance(3, p, q)
        after = geodesic_distance(3, boost(p, t), boost(q, t))
        # acosh loses about half the digits near coincident points
        assert after == pytest.approx(before, abs=1e-6, rel=1e-9)


class TestRadialMeasure:
    def test_values(self):
        assert radial_weight(2, 0) == 0.0
        assert radial_weight(2, 1) == pytest.approx(2 * math.pi * math.sinh(1))
        assert radial_weight(3, 1) == pytest.approx(4 * math.pi * math.sinh(1) ** 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_weight(2, -0.1)
        with pytest.raises(ValueError):
            radial_weight(3, np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            ball_volume(3, -1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_array_matches_scalar_calls(self, d):
        r = np.array([0.0, 1e-6, 0.5, 1.0, 7.0, 40.0])
        np.testing.assert_allclose(
            radial_weight(d, r), [radial_weight(d, float(x)) for x in r], rtol=1e-14, atol=0
        )
        assert type(radial_weight(d, 0.5)) is float

    @given(st.floats(1e-6, 10), st.floats(0, 1, exclude_max=True), st.sampled_from([2, 3]))
    @settings(max_examples=100)
    def test_strictly_increasing(self, r, frac, d):
        smaller = r * frac
        assert radial_weight(d, r) > 0
        assert radial_weight(d, r) > radial_weight(d, smaller)

    def test_ball_volume_values(self):
        assert ball_volume(2, 0) == 0.0
        assert ball_volume(2, 1) == pytest.approx(2 * math.pi * (math.cosh(1) - 1))
        assert ball_volume(3, 1) == pytest.approx(math.pi * (math.sinh(2) - 2))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("R", [0.1, 0.5, 1.0, 3.0, 10.0])
    def test_ball_volume_matches_quadrature(self, d, R):
        val, err = quad(lambda r: radial_weight(d, r), 0, R, epsabs=1e-13, epsrel=1e-13)
        assert ball_volume(d, R) == pytest.approx(val, rel=1e-10)

    def test_sphere_area(self):
        assert sphere_area(2) == 2 * math.pi
        assert sphere_area(3) == 4 * math.pi
