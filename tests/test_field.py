"""Gaussian field construction, correlated pairs, and the leaf maximum."""

import math

import numpy as np
import pytest

from bbmlab import (OffspringDistribution, max_position, overlap,
                    sample_correlated_pair, sample_field, sample_tree)
from bbmlab.field import correlate
from bbmlab.gwtree import grow_leaves
from bbmlab.streams import (TAG_PAIR_X, TAG_PAIR_Z, pair_keys, replica_seed,
                            stream_key)

from test_offspring_gw import single_lineage

SEED = 20260825
BINARY = OffspringDistribution.binary()


class TestSampleField:
    def test_zero_horizon_position(self):
        tree = sample_tree(BINARY, 0.0, 3)
        fld = sample_field(tree, 11)
        assert fld.x.shape == (1,)
        assert fld.x[0] == 0.0

    def test_deterministic(self):
        tree = sample_tree(BINARY, 3.0, 21)
        assert np.array_equal(sample_field(tree, 5).x, sample_field(tree, 5).x)
        assert not np.array_equal(sample_field(tree, 5).x,
                                  sample_field(tree, 6).x)

    def test_covariance_matches_overlap(self):
        # fixed 7-leaf tree; empirical second moments against the pairwise
        # overlaps entrywise within 3 standard errors
        tree = sample_tree(BINARY, 2.0, stream_key(SEED, 0xC0, 2))
        assert 3 <= tree.n_leaves <= 8
        q = np.array([[overlap(tree, k, l) for l in tree.leaves]
                      for k in tree.leaves])
        reps = 4000
        xs = np.empty((reps, tree.n_leaves))
        for i in range(reps):
            xs[i] = sample_field(tree, replica_seed(SEED, i)).x
        emp = (xs.T @ xs) / reps
        se = np.sqrt((np.outer(np.diag(q), np.diag(q)) + q * q) / reps)
        assert np.all(np.abs(emp - q) <= 3.0 * se)

    def test_single_lineage_variance(self):
        tree = single_lineage(5.0)
        reps = 30000
        prods = np.empty((reps, 2))
        for i in range(reps):
            fld = sample_correlated_pair(tree, 0.6, replica_seed(SEED, i))
            prods[i] = fld.x[0] ** 2, fld.x[0] * fld.y[0]
        for col, target in ((0, 5.0), (1, 0.6 * 5.0)):
            se = prods[:, col].std(ddof=1) / math.sqrt(reps)
            assert abs(prods[:, col].mean() - target) <= 3.0 * se


class TestCorrelatedPair:
    def test_rho_one_exact(self):
        tree = sample_tree(BINARY, 2.0, 31)
        fld = sample_correlated_pair(tree, 1.0, 8)
        assert np.array_equal(fld.y, fld.x)
        assert fld.z is None

    def test_rho_minus_one_exact(self):
        tree = sample_tree(BINARY, 2.0, 31)
        fld = sample_correlated_pair(tree, -1.0, 8)
        assert np.array_equal(fld.y, -fld.x)

    def test_rho_out_of_range(self):
        tree = sample_tree(BINARY, 1.0, 31)
        with pytest.raises(ValueError):
            sample_correlated_pair(tree, 1.0001, 8)

    def test_decomposition_identity(self):
        tree = sample_tree(BINARY, 2.0, 32)
        rho = 0.37
        fld = sample_correlated_pair(tree, rho, 9)
        recon = rho * fld.x + math.sqrt(1 - rho * rho) * fld.z
        assert np.allclose(fld.y, recon, rtol=0, atol=1e-15)

    def test_rho_zero_uncorrelated(self):
        tree = single_lineage(5.0)
        reps = 30000
        xy = np.empty((reps, 2))
        for i in range(reps):
            fld = sample_correlated_pair(tree, 0.0, replica_seed(SEED, i))
            xy[i] = fld.x[0], fld.y[0]
        corr = float(np.corrcoef(xy.T)[0, 1])
        assert abs(corr) <= 3.0 / math.sqrt(reps)

    def test_pair_y_matches_fresh_field_in_law(self):
        # max of y from the pair construction vs max of a fresh single
        # field on the same trees: KS <= 0.02 at 1e4 replicas
        from bbmlab import stats
        reps = 10000
        mx_pair = np.empty(reps)
        mx_single = np.empty(reps)
        for i in range(reps):
            rs = replica_seed(SEED, i)
            tree = sample_tree(BINARY, 3.0, rs)
            mx_pair[i] = float(np.max(sample_correlated_pair(tree, 0.5, rs).y))
            mx_single[i] = float(np.max(sample_field(
                tree, stream_key(rs, 0xF00D)).x))
        assert stats.ks_distance(mx_pair, mx_single) <= 0.02


class TestCorrelate:
    def test_pair_keys_are_x_then_z(self):
        both = [stream_key(SEED, TAG_PAIR_X), stream_key(SEED, TAG_PAIR_Z)]
        assert [pair_keys(SEED, n) for n in (0, 1, 2)] == [
            [], both[:1], both]

    def test_grown_leaves_match_sample_correlated_pair(self):
        rs = replica_seed(SEED, 4)
        leaves = grow_leaves(BINARY, 3.0, rs, pair_keys(rs, 2))
        tree = sample_tree(BINARY, 3.0, rs)
        assert leaves.n_leaves == tree.n_leaves
        for rho in (-1.0, 0.0, 0.6, 1.0):
            want = sample_correlated_pair(tree, rho, rs)
            got = correlate(leaves, leaves.positions, rho)
            assert got.t == want.t == 3.0
            assert np.array_equal(got.x, want.x)
            assert np.array_equal(got.y, want.y)

    def test_x_alone_needs_unit_rho(self):
        x = np.array([0.5, -1.25, 2.0])
        for rho in (1.0, -1.0):
            fld = correlate(None, (x,), rho)
            assert fld.x is x and fld.z is None
            assert np.array_equal(fld.y, rho * x)
        with pytest.raises(ValueError, match="z field"):
            correlate(None, (x,), 0.6)


class TestMaxPosition:
    def test_matches_leaf_maximum(self):
        tree = sample_tree(BINARY, 4.0, 55)
        fld = sample_field(tree, 56)
        value, leaf = max_position(fld)
        assert value == float(np.max(fld.x))
        assert fld.x[np.searchsorted(tree.leaves, leaf)] == value

    def test_zero_horizon(self):
        tree = sample_tree(BINARY, 0.0, 55)
        value, leaf = max_position(sample_field(tree, 1))
        assert value == 0.0 and leaf == 0

    def test_single_lineage(self):
        fld = sample_field(single_lineage(4.0), 77)
        value, leaf = max_position(fld)
        assert value == fld.x[0] and leaf == 0

    def test_streamed_replica_names_leaf_index(self):
        rs = replica_seed(SEED, 0)
        leaves = grow_leaves(BINARY, 3.0, rs, pair_keys(rs, 1))
        value, index = max_position(correlate(leaves, leaves.positions, 1.0))
        tree = sample_tree(BINARY, 3.0, rs)
        want = max_position(sample_field(tree, stream_key(rs, TAG_PAIR_X)))
        assert (value, int(tree.leaves[index])) == want
