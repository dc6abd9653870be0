"""Partition-function statistics on fixed and sampled realizations."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from bbmlab import (OffspringDistribution, additive_martingale,
                    derivative_martingale, log_partition, m_of_t,
                    partition_function, rescaled_partition,
                    sample_correlated_pair, sample_tree, truncated_partition)
from bbmlab.field import CorrelatedField
from bbmlab.streams import replica_seed, stream_key

from test_offspring_gw import single_lineage

SEED = 20260825
SQRT2 = math.sqrt(2.0)
BINARY = OffspringDistribution.binary()


def pinned_field(t, x, y, rho=1.0):
    """Single-lineage field with hand-set leaf energies."""
    tree = single_lineage(t)
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    return CorrelatedField(tree=tree, rho=rho, x=xs, y=ys, z=None)


def sampled_field(t=4.0, rho=0.5, tag=0x51):
    tree = sample_tree(BINARY, t, stream_key(SEED, tag))
    return sample_correlated_pair(tree, rho, stream_key(SEED, tag))


class TestCentering:
    def test_values(self):
        assert m_of_t(1.0) == pytest.approx(SQRT2, abs=1e-12)
        assert m_of_t(10.0) == pytest.approx(11.699875323458231, abs=1e-9)
        e2 = math.e ** 2
        assert m_of_t(e2) == pytest.approx(SQRT2 * e2 - 3.0 / SQRT2, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            m_of_t(0.0)
        with pytest.raises(ValueError):
            m_of_t(-1.0)


class TestPartitionFunction:
    def test_zero_horizon_is_one(self):
        tree = sample_tree(BINARY, 0.0, 5)
        fld = sample_correlated_pair(tree, 1.0, 5)
        assert partition_function(fld, complex(0.7, 0.3)) == 1.0 + 0.0j

    def test_single_term(self):
        beta = complex(0.8, 0.6)
        fld = pinned_field(5.0, [0.7], [0.7])
        got = partition_function(fld, beta)
        assert got == pytest.approx(cmath.exp(beta * 0.7), rel=1e-12)

    def test_real_temperature_positive(self):
        fld = sampled_field()
        value = partition_function(fld, complex(1.1, 0.0))
        assert value.imag == 0.0
        assert value.real > 0.0

    def test_conjugation_symmetry(self):
        fld = sampled_field()
        beta = complex(0.9, 0.7)
        a = partition_function(fld, beta)
        b = partition_function(fld, beta.conjugate())
        assert b == pytest.approx(a.conjugate(), rel=1e-12)

    def test_no_overflow_at_large_energies(self):
        fld = pinned_field(5.0, [40.0], [40.0])
        value = partition_function(fld, complex(2.5, 0.0))
        assert math.isfinite(value.real)
        assert value.real == pytest.approx(math.exp(100.0), rel=1e-12)


class TestRescaled:
    def test_scalings(self):
        fld = sampled_field()
        beta = complex(1.2, 0.9)
        raw = partition_function(fld, beta)
        res = rescaled_partition(fld, beta)
        m = m_of_t(fld.tree.t)
        assert res.full == pytest.approx(cmath.exp(-beta * m) * raw,
                                         rel=1e-12)
        assert res.real_shift == pytest.approx(math.exp(-beta.real * m) * raw,
                                               rel=1e-12)
        assert abs(res.real_shift) == pytest.approx(
            math.exp(-beta.real * m) * abs(raw), rel=1e-12)


class TestTruncated:
    def test_split_is_exact(self):
        fld = sampled_field(t=5.0, tag=0x52)
        beta = complex(1.4, 0.6)
        tp = truncated_partition(fld, beta, 3.0)
        res = rescaled_partition(fld, beta).real_shift
        assert tp.kept + tp.discarded == pytest.approx(res, rel=1e-10)

    def test_huge_threshold_keeps_everything(self):
        fld = sampled_field(t=5.0, tag=0x52)
        tp = truncated_partition(fld, complex(1.4, 0.6), 1e9)
        assert tp.discarded == 0.0 + 0.0j

    def test_zero_threshold_below_front(self):
        # realization whose maximum sits below m(t)
        tree = sample_tree(BINARY, 1.0, stream_key(SEED, 0xE1, 0))
        fld = sample_correlated_pair(tree, 1.0, stream_key(SEED, 0xE1, 0))
        assert float(np.max(fld.x)) < m_of_t(1.0)
        tp = truncated_partition(fld, complex(1.5, 0.5), 0.0)
        assert tp.kept == 0.0 + 0.0j

    def test_threshold_domain(self):
        fld = sampled_field()
        with pytest.raises(ValueError):
            truncated_partition(fld, complex(1.0, 0.0), -1.0)


class TestAdditiveMartingale:
    def test_starts_at_one(self):
        tree = sample_tree(BINARY, 0.0, 5)
        fld = sample_correlated_pair(tree, 1.0, 5)
        assert additive_martingale(fld, complex(0.7, 0.4)) == 1.0 + 0.0j

    def test_explicit_form(self):
        sig, tau, rho, t, a = 0.8, 0.6, 1.0, 5.0, 1.3
        fld = pinned_field(t, [a], [a], rho=rho)
        drift = complex(-t * (1.0 + (sig * sig - tau * tau) / 2.0),
                        -t * sig * rho * tau)
        expected = cmath.exp(drift) * cmath.exp(complex(sig, tau) * a)
        got = additive_martingale(fld, complex(sig, tau))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mean_one(self):
        reps = 15000
        vals = np.empty(reps, dtype=np.complex128)
        for i in range(reps):
            rs = replica_seed(SEED, i)
            tree = sample_tree(BINARY, 3.0, rs)
            fld = sample_correlated_pair(tree, 1.0, rs)
            vals[i] = additive_martingale(fld, 0.5)
        se = vals.real.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.real.mean() - 1.0) <= 3.0 * se
        assert np.all(vals.imag == 0.0)


class TestDerivativeMartingale:
    def test_zero_horizon(self):
        tree = sample_tree(BINARY, 0.0, 5)
        fld = sample_correlated_pair(tree, 1.0, 5)
        assert derivative_martingale(fld) == 0.0

    def test_single_term(self):
        t, a = 4.0, 2.2
        fld = pinned_field(t, [a], [a])
        gap = SQRT2 * t - a
        assert derivative_martingale(fld) == pytest.approx(
            gap * math.exp(-SQRT2 * gap), rel=1e-12)


class TestLogPartition:
    def test_beta_zero_counts_particles(self):
        fld = sampled_field(t=3.0, tag=0x54)
        expected = math.log(fld.tree.n_leaves) / fld.tree.t
        assert log_partition(fld, 0.0 + 0.0j) == pytest.approx(expected,
                                                               rel=1e-12)

    def test_single_lineage_real(self):
        fld = pinned_field(5.0, [1.7], [1.7])
        assert log_partition(fld, complex(0.9, 0.0)) == pytest.approx(
            0.9 * 1.7 / 5.0, rel=1e-12)


@pytest.mark.parametrize("reduce", [partition_function, rescaled_partition,
                                    additive_martingale])
def test_phased_sum_peak_memory(reduce):
    # 35973 leaves; the weights, the phases, their exponentials and one
    # trig product are alive at the peak, four leaf arrays, where building
    # the cos and sin tables together made six
    fld = sample_correlated_pair(sample_tree(BINARY, 11.0, 3), 0.5, 3)
    tracemalloc.start()
    reduce(fld, complex(1.2, 0.9))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 4.5 * 8 * fld.tree.n_leaves
