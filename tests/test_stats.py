"""Estimators: Hill index, characteristic functions, isotropy, KS, max tail."""

import math

import numpy as np
import pytest

from bbmlab import (empirical_cf, hill_estimator, isotropic_resample,
                    isotropy_radii, isotropy_statistic, ks_distance,
                    max_tail_exponent)
from bbmlab.streams import make_rng

SQRT2 = math.sqrt(2.0)


def isotropic_lognormal(seed: int, n: int) -> np.ndarray:
    rng = make_rng(seed)
    mods = np.exp(rng.standard_normal(n))
    return mods * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))


class TestHill:
    def test_pareto_one(self):
        sample = make_rng(413).pareto(1.0, 100000) + 1.0
        fit = hill_estimator(sample, 0.05)
        assert 0.95 <= fit.alpha_hat <= 1.05

    def test_pareto_two(self):
        sample = make_rng(414).pareto(2.0, 100000) + 1.0
        fit = hill_estimator(sample, 0.05)
        assert 1.9 <= fit.alpha_hat <= 2.1

    def test_scale_invariant(self):
        sample = make_rng(416).pareto(1.5, 5000) + 1.0
        a = hill_estimator(sample, 0.05)
        b = hill_estimator(7.0 * sample, 0.05)
        assert b.alpha_hat == pytest.approx(a.alpha_hat, abs=1e-12)

    def test_bookkeeping(self):
        sample = make_rng(417).pareto(1.0, 4000) + 1.0
        fit = hill_estimator(sample, 0.05)
        assert fit.k_used == max(10, math.ceil(0.05 * 4000))
        assert fit.alpha_se == pytest.approx(
            fit.alpha_hat / math.sqrt(fit.k_used), rel=1e-12)

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            hill_estimator(np.ones(1000), 0.05)

    def test_nonpositive_rejected(self):
        bad = np.concatenate([np.full(10, -1.0),
                              make_rng(1).pareto(1.0, 990) + 1.0])
        with pytest.raises(ValueError):
            hill_estimator(bad, 0.05)

    def test_argument_ranges(self):
        sample = make_rng(418).pareto(1.0, 5000) + 1.0
        with pytest.raises(ValueError):
            hill_estimator(sample[:50], 0.05)
        with pytest.raises(ValueError):
            hill_estimator(sample, 0.25)


class TestEmpiricalCf:
    def test_at_origin(self):
        sample = make_rng(419).standard_normal(100) \
            + 1j * make_rng(420).standard_normal(100)
        assert empirical_cf(sample, 0.0 + 0.0j) == 1.0 + 0.0j

    def test_degenerate_zero_samples(self):
        zeros = np.zeros(64, dtype=np.complex128)
        for z in (0.3 + 0.0j, 1.0 + 2.0j, -4.0 + 0.5j):
            assert empirical_cf(zeros, z) == 1.0 + 0.0j

    def test_modulus_and_conjugation(self):
        sample = isotropic_lognormal(421, 500)
        for z in (0.5 + 0.25j, 1.5 - 0.75j):
            phi = empirical_cf(sample, z)
            assert abs(phi) <= 1.0 + 1e-12
            assert empirical_cf(sample, -z) == pytest.approx(
                phi.conjugate(), abs=1e-15)

    def test_isotropic_cauchy_control(self):
        # (g1 + i g2)/|g3| has characteristic function exp(-|z|) exactly
        g = make_rng(415).standard_normal((100000, 3))
        sample = (g[:, 0] + 1j * g[:, 1]) / np.abs(g[:, 2])
        for r in (0.3, 0.7, 1.2, 2.0):
            got = abs(empirical_cf(sample, complex(r, 0.0)))
            assert got == pytest.approx(math.exp(-r), rel=0.05)


class TestIsotropyStatistic:
    def test_calibration_on_isotropic_sample(self):
        sample = isotropic_lognormal(900, 10000)
        radii = isotropy_radii(sample)
        assert isotropy_statistic(sample, radii) <= 4.0 / math.sqrt(10000)

    def test_anisotropic_control_is_large(self):
        rng = make_rng(430)
        sample = np.exp(rng.standard_normal(10000)).astype(np.complex128)
        radii = isotropy_radii(sample)
        assert isotropy_statistic(sample, radii) >= 0.2

    def test_single_deterministic_sample(self):
        one = np.array([1.0 + 0.0j])
        assert isotropy_statistic(one, [1.0]) > 0.0

    def test_invariant_under_grid_rotation(self):
        sample = isotropic_lognormal(431, 3000)
        radii = [0.5, 1.0]
        base = isotropy_statistic(sample, radii)
        spun = isotropy_statistic(sample * np.exp(2j * math.pi / 16), radii)
        assert spun == pytest.approx(base, abs=1e-12)

    def test_radii_hit_informative_band(self):
        sample = isotropic_lognormal(900, 10000)
        radii = isotropy_radii(sample)
        assert len(radii) == 3
        assert np.all(np.diff(radii) > 0.0)
        for r in radii:
            level = np.mean([abs(empirical_cf(
                sample, r * np.exp(2j * math.pi * j / 8)))
                for j in range(8)])
            assert 0.25 <= level <= 0.75

    def test_resample_preserves_moduli(self):
        sample = isotropic_lognormal(433, 500)
        spun = isotropic_resample(sample, 77)
        assert np.allclose(np.sort(np.abs(spun)), np.sort(np.abs(sample)),
                           rtol=1e-12)
        assert not np.allclose(spun, sample)


class TestKs:
    def test_identical_samples(self):
        a = make_rng(434).standard_normal(100)
        assert ks_distance(a, a.copy()) == 0.0

    def test_disjoint_points(self):
        assert ks_distance([0.0], [1.0]) == 1.0

    def test_symmetry_and_triangle(self):
        rng = make_rng(435)
        a = rng.standard_normal(400)
        b = rng.standard_normal(500) + 0.3
        c = rng.uniform(-2.0, 2.0, 300)
        ab, ba = ks_distance(a, b), ks_distance(b, a)
        assert ab == pytest.approx(ba, abs=1e-15)
        assert ks_distance(a, c) <= ab + ks_distance(b, c) + 1e-15

    def test_two_gaussian_samples(self):
        rng = make_rng(700)
        a = rng.standard_normal(10000)
        b = rng.standard_normal(10000)
        assert ks_distance(a, b) <= 0.027


class TestMaxTail:
    def test_exponential_control(self):
        sample = make_rng(411).exponential(1.0 / SQRT2, 10000)
        fit = max_tail_exponent(sample)
        assert abs(fit.alpha_hat - SQRT2) <= 0.1

    def test_limit_law_control(self):
        # max - m(t) limit with C = Z = 1: y = -log(Exp(1))/sqrt2
        sample = -np.log(make_rng(420).exponential(1.0, 10000)) / SQRT2
        fit = max_tail_exponent(sample)
        assert 1.25 <= fit.alpha_hat <= 1.6

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            max_tail_exponent(np.ones(5000))

    def test_needs_bulk(self):
        with pytest.raises(ValueError):
            max_tail_exponent(make_rng(436).standard_normal(500))
