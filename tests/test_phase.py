"""Phase classification and the limiting free-energy formulas."""

import math

import numpy as np
import pytest

from bbmlab import (OffspringDistribution, Region, ResourceLimitError,
                    classify, grid_scan, limiting_free_energy, point_scan)
from bbmlab.streams import make_rng

SEED = 20260825
SQRT2 = math.sqrt(2.0)
BINARY = OffspringDistribution.binary()


def case_b1(sigma, tau):
    return 1.0 + (sigma * sigma - tau * tau) / 2.0


class TestClassify:
    @pytest.mark.parametrize("beta,region", [
        (complex(1.0, 1.0), Region.B2),
        (complex(0.5, 0.5), Region.B1),
        (complex(0.0, 1.5), Region.B3),
        (complex(0.0, 0.0), Region.B1),
        (complex(2.0, 0.0), Region.B2),
        (complex(1.2, 0.9), Region.B2),
        (complex(0.5, 1.5), Region.B3),
        (complex(0.2, 1.2), Region.B3),
    ])
    def test_examples(self, beta, region):
        assert classify(beta) is region

    def test_boundary_detection(self):
        assert classify(complex(1.0 / SQRT2, 1.0)) is Region.BOUNDARY
        # sigma^2 + tau^2 = 1 with 2 sigma^2 < 1
        assert classify(complex(0.6, 0.8)) is Region.BOUNDARY
        # widening the tolerance absorbs nearby interior points
        assert classify(complex(0.6, 0.8 + 1e-6)) is Region.B3
        assert classify(complex(0.6, 0.8 + 1e-6),
                        tol=1e-3) is Region.BOUNDARY

    def test_small_disc_is_b1(self):
        rng = make_rng(SEED, 0x91)
        for _ in range(200):
            sigma = rng.uniform(-1.0 / SQRT2 + 1e-6, 1.0 / SQRT2 - 1e-6)
            cap = math.sqrt(1.0 - sigma * sigma) - 1e-6
            tau = rng.uniform(-cap, cap)
            assert classify(complex(sigma, tau)) is Region.B1

    def test_sign_symmetry(self):
        rng = make_rng(SEED, 0x92)
        for _ in range(200):
            beta = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            base = classify(beta)
            assert classify(complex(-beta.real, beta.imag)) is base
            assert classify(complex(beta.real, -beta.imag)) is base


class TestFreeEnergy:
    def test_case_values(self):
        assert limiting_free_energy(0.0 + 0.0j) == pytest.approx(1.0,
                                                                 abs=1e-12)
        assert limiting_free_energy(2.0 + 0.0j) == pytest.approx(2.0 * SQRT2,
                                                                 abs=1e-12)
        assert limiting_free_energy(complex(0.5, 1.5)) == pytest.approx(
            0.75, abs=1e-12)
        assert limiting_free_energy(complex(0.3, 0.3)) == pytest.approx(
            case_b1(0.3, 0.3), abs=1e-12)

    def test_sign_symmetry(self):
        rng = make_rng(SEED, 0x93)
        for _ in range(200):
            beta = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            v = limiting_free_energy(beta)
            assert limiting_free_energy(-beta.real + 1j * beta.imag) == v
            assert limiting_free_energy(beta.conjugate()) == v

    def test_boundary_agreement(self):
        rng = make_rng(SEED, 0x94)
        # B1/B2 share |sigma| + |tau| = sqrt2 for sigma in [1/sqrt2, sqrt2]
        for _ in range(300):
            s = rng.uniform(1.0 / SQRT2, SQRT2)
            b = complex(s, SQRT2 - s)
            assert classify(b) is Region.BOUNDARY
            assert abs(case_b1(b.real, b.imag)
                       - SQRT2 * abs(b.real)) <= 1e-9
            assert limiting_free_energy(b) == pytest.approx(
                SQRT2 * abs(b.real), abs=1e-9)
        # B1/B3 share sigma^2 + tau^2 = 1 for 2 sigma^2 < 1
        for _ in range(300):
            s = rng.uniform(0.0, 1.0 / SQRT2 - 1e-9)
            b = complex(s, math.sqrt(1.0 - s * s))
            assert classify(b) is Region.BOUNDARY
            assert abs(case_b1(b.real, b.imag)
                       - (0.5 + b.real ** 2)) <= 1e-9
            assert limiting_free_energy(b) == pytest.approx(
                0.5 + b.real ** 2, abs=1e-9)
        # B2/B3 share 2 sigma^2 = 1 for |tau| >= 1/sqrt2
        for _ in range(300):
            b = complex(1.0 / SQRT2, rng.uniform(1.0 / SQRT2, 3.0))
            assert classify(b) is Region.BOUNDARY
            assert abs(SQRT2 * abs(b.real) - (0.5 + b.real ** 2)) <= 1e-9
            assert limiting_free_energy(b) == pytest.approx(1.0, abs=1e-9)


class TestScans:
    def test_single_cell_at_zero(self):
        cells = grid_scan((0.0, 0.0), (0.0, 0.0), 1, BINARY, t=2.0,
                          replicas=20, rho=1.0, seed=SEED)
        assert len(cells) == 1
        assert cells[0].p_limit == pytest.approx(1.0, abs=1e-12)
        assert math.isfinite(cells[0].p_hat)

    def test_sigma_axis_never_b3(self):
        cells = grid_scan((-2.0, 2.0), (0.0, 0.0), 9, BINARY, t=1.0,
                          replicas=5, rho=1.0, seed=SEED)
        assert all(c.phase is not Region.B3 for c in cells)

    def test_grid_order_and_schema(self):
        cells = grid_scan((0.0, 2.0), (0.0, 2.0), 3, BINARY, t=3.0,
                          replicas=40, rho=1.0, seed=SEED)
        assert len(cells) == 9
        # row-major in sigma then tau
        keys = [(c.sigma, c.tau) for c in cells]
        assert keys == sorted(keys)
        for c in cells:
            assert math.isfinite(c.stderr)
            assert c.n_replicas == 40 and c.t == 3.0
            assert c.p_limit == pytest.approx(
                limiting_free_energy(complex(c.sigma, c.tau)), abs=1e-12)

    def test_point_scan_shares_realizations(self):
        betas = [complex(0.3, 0.3), complex(1.2, 0.9)]
        cells = point_scan(betas, BINARY, t=3.0, replicas=50, rho=1.0,
                           seed=SEED)
        again = point_scan(betas, BINARY, t=3.0, replicas=50, rho=1.0,
                           seed=SEED)
        assert [c.p_hat for c in cells] == [c.p_hat for c in again]
        assert [complex(c.sigma, c.tau) for c in cells] == betas

    def test_point_scan_raises_over_budget(self):
        # a replica over the node budget raises; no replica is skipped
        with pytest.raises(ResourceLimitError):
            point_scan([complex(1.0, 0.5)], BINARY, t=3.0, replicas=5,
                       rho=1.0, seed=SEED, max_nodes=8)
