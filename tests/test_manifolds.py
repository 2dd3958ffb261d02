"""Tests for manifold volumes, spectral-gap constants, and BEC certificates."""

import math
from dataclasses import replace

import pytest

from hypgas.manifolds import (
    DIM3_STANDARD,
    KIM_SARNAK,
    MIRZAKHANI,
    MIRZAKHANI_GAP,
    RANDOM_3_16_MINUS_ALPHA,
    SELBERG_3_16,
    CondensateCertificate,
    CongruenceQuotient3,
    CustomManifold,
    ManifoldModel,
    ModularSurface,
    RandomSurface,
    certify_bec,
    congruence_index,
    spectral_gap,
    volume,
)
from hypgas.scattering import Potential


class TestVolume:
    def test_base_modular_surface(self):
        assert volume(ManifoldModel(ModularSurface(1))) == pytest.approx(math.pi / 3)

    def test_level_two(self):
        assert volume(ManifoldModel(ModularSurface(2))) == pytest.approx(2 * math.pi)

    def test_level_six(self):
        assert volume(ManifoldModel(ModularSurface(6))) == pytest.approx(48 * math.pi)

    def test_index_integrality_up_to_100(self):
        for L in range(1, 101):
            idx = congruence_index(L)
            assert isinstance(idx, int) and idx >= 1

    def test_volume_increasing_along_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        vols = [volume(ManifoldModel(ModularSurface(p))) for p in primes]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_gauss_bonnet(self):
        assert volume(
            ManifoldModel(RandomSurface(g=2, alpha=0.05))
        ) == pytest.approx(4 * math.pi)
        assert volume(
            ManifoldModel(RandomSurface(g=10, alpha=0.05))
        ) == pytest.approx(2 * math.pi * 18)

    def test_congruence3_user_supplied(self):
        m = ManifoldModel(CongruenceQuotient3(L=2, vol_X1=0.4, index=30))
        assert volume(m) == pytest.approx(12.0)

    def test_rejections(self):
        with pytest.raises(ValueError):
            ModularSurface(0)
        with pytest.raises(ValueError):
            RandomSurface(g=1, alpha=0.05)
        with pytest.raises(ValueError):
            CongruenceQuotient3(L=2, vol_X1=-1.0)

    @pytest.mark.parametrize(
        "kwargs", [{"volume": math.inf}, {"gap": math.inf}, {"volume": math.nan}]
    )
    def test_custom_rejects_non_finite(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            CustomManifold(**dict({"volume": 100.0, "gap": 0.2}, **kwargs))

    @pytest.mark.parametrize("vol", [math.inf, math.nan])
    def test_congruence3_rejects_non_finite(self, vol):
        with pytest.raises(ValueError, match="finite"):
            CongruenceQuotient3(L=2, vol_X1=vol)


class TestSpectralGap:
    def test_kim_sarnak(self):
        m = ManifoldModel(ModularSurface(7))
        assert m.gap_policy == KIM_SARNAK
        assert spectral_gap(m) == 975 / 4096

    def test_selberg(self):
        m = ManifoldModel(ModularSurface(7), SELBERG_3_16)
        assert spectral_gap(m) == 3 / 16

    def test_dim3(self):
        m = ManifoldModel(CongruenceQuotient3(L=2, vol_X1=1.0, index=1))
        assert m.gap_policy == DIM3_STANDARD
        assert spectral_gap(m) == 3 / 4

    def test_random_default(self):
        m = ManifoldModel(RandomSurface(g=3, alpha=1 / 16))
        assert spectral_gap(m) == pytest.approx(1 / 8)

    def test_mirzakhani(self):
        m = ManifoldModel(RandomSurface(g=3, alpha=1 / 16), MIRZAKHANI)
        assert spectral_gap(m) == MIRZAKHANI_GAP
        assert MIRZAKHANI_GAP == pytest.approx(
            0.25 * (math.log(2) / (2 * math.pi + math.log(2))) ** 2
        )

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            ManifoldModel(RandomSurface(g=3, alpha=3 / 16))

    def test_incompatible_policy(self):
        with pytest.raises(ValueError):
            ManifoldModel(ModularSurface(2), DIM3_STANDARD)
        with pytest.raises(ValueError):
            ManifoldModel(RandomSurface(g=2, alpha=0.05), KIM_SARNAK)

    def test_custom(self):
        m = ManifoldModel(CustomManifold(volume=10.0, gap=0.3))
        assert spectral_gap(m) == 0.3
        assert volume(m) == 10.0


GOLDEN_MODEL = ManifoldModel(ModularSurface(50))
GOLDEN_V = Potential.hardcore(0.01)


class TestCertifyBec:
    def test_free_gas_fully_condenses(self):
        V0 = Potential.piecewise([(1.0, 0.0)])
        cert = certify_bec(GOLDEN_MODEL, 1000, V0, 1.0, 0.05)
        assert cert.certified
        assert cert.a == 0.0
        assert cert.Y == 0.0
        assert cert.fraction_lower == 1.0

    def test_golden_modular_case(self):
        cert = certify_bec(GOLDEN_MODEL, 100, GOLDEN_V, 1.0, 0.1)
        assert cert.certified
        assert cert.fraction_lower >= 0.9
        assert cert.corollary_condition_met
        assert cert.volume == pytest.approx(30000 * math.pi)

    def test_large_N_not_certified(self):
        cert = certify_bec(GOLDEN_MODEL, 100000, GOLDEN_V, 1.0, 0.1)
        assert not cert.certified
        assert cert.failure_reason

    def test_anti_monotone_in_N(self):
        certified = [
            certify_bec(GOLDEN_MODEL, N, GOLDEN_V, 1.0, 0.1).certified
            for N in (50, 100, 235, 240, 500, 5000)
        ]
        # once certification fails, it stays failed
        assert certified == sorted(certified, reverse=True)
        assert certified[0] and not certified[-1]

    def test_certified_implies_fraction_target(self):
        for N in (50, 235, 240, 5000):
            cert = certify_bec(GOLDEN_MODEL, N, GOLDEN_V, 1.0, 0.1)
            if cert.certified:
                assert cert.fraction_lower >= 0.9

    def test_scale_invariance(self):
        base = CustomManifold(volume=5000.0, gap=975 / 4096)
        doubled = CustomManifold(volume=10000.0, gap=975 / 4096)
        c1 = certify_bec(ManifoldModel(base), 10, GOLDEN_V, 1.0, 0.1)
        c2 = certify_bec(ManifoldModel(doubled), 20, GOLDEN_V, 1.0, 0.1)
        assert c1.rho == pytest.approx(c2.rho, rel=1e-15)
        assert c1.Y == c2.Y
        assert c1.energy_upper == c2.energy_upper
        assert c1.fraction_lower == c2.fraction_lower
        assert c1.certified == c2.certified

    def test_regime_failure_is_not_an_error(self):
        dense = certify_bec(GOLDEN_MODEL, 10**9, GOLDEN_V, 1.0, 0.1)
        assert not dense.certified
        assert dense.energy_upper is None
        assert "smallness cap" in dense.failure_reason

    def test_random_surface_route(self):
        model = ManifoldModel(RandomSurface(g=500, alpha=1 / 32))
        cert = certify_bec(model, 10, GOLDEN_V, 1.0, 0.1)
        assert cert.gap == pytest.approx(3 / 16 - 1 / 32)
        assert cert.certified

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_bec(GOLDEN_MODEL, 1, GOLDEN_V, 1.0, 0.1)
        with pytest.raises(ValueError):
            certify_bec(GOLDEN_MODEL, 10, GOLDEN_V, 1.0, 0.0)
