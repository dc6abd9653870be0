"""Offspring-law validation and Galton-Watson tree structure."""

import math

import numpy as np
import pytest
import scipy.stats as sps

from bbmlab import (OffspringDistribution, ResourceLimitError, overlap,
                    sample_tree)
from bbmlab.gwtree import GwTree
from bbmlab.streams import replica_seed, stream_key

SEED = 20260825
BINARY = OffspringDistribution.binary()


def single_lineage(t: float) -> GwTree:
    """Degenerate one-particle tree (the root never splits)."""
    return GwTree(t=t, seed=0,
                  parent=np.array([-1], dtype=np.int64),
                  birth=np.array([0.0]),
                  split=np.array([np.nan]),
                  leaves=np.array([0], dtype=np.int64),
                  gen_offsets=np.array([0, 1], dtype=np.int64))


class TestOffspringValidation:
    def test_binary_law(self):
        assert BINARY.mean_children == pytest.approx(2.0, abs=1e-12)
        assert BINARY.second_factorial_moment == pytest.approx(2.0, abs=1e-12)
        assert BINARY.to_pairs() == [(2, 1.0)]

    def test_second_factorial_moment(self):
        d = OffspringDistribution.from_pairs([(1, 0.5), (3, 0.5)])
        assert d.mean_children == pytest.approx(2.0, abs=1e-12)
        # K = sum k(k-1) p_k = 0.5 * 3 * 2
        assert d.second_factorial_moment == pytest.approx(3.0, abs=1e-12)

    def test_laws_compare_by_identity(self):
        # the generated __eq__ compared the probability arrays inside a
        # tuple and raised "truth value of an array is ambiguous"
        other = OffspringDistribution.binary()
        assert (BINARY == other) is False
        assert (BINARY != other) is True
        assert (BINARY == BINARY) is True
        assert BINARY in [other, BINARY]

    def test_roundtrip(self):
        pairs = [(1, 0.25), (2, 0.5), (3, 0.25)]
        d = OffspringDistribution.from_pairs(pairs)
        assert d.to_pairs() == pairs

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(1, -0.1), (2, 1.1)])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(2, 0.9)])

    def test_rejects_wrong_mean_by_default(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(1, 0.5), (2, 0.5)])

    def test_flag_permits_supercritical_mean(self):
        d = OffspringDistribution.from_pairs([(1, 0.5), (2, 0.5)],
                                             require_mean_two=False)
        assert d.mean_children == pytest.approx(1.5)

    def test_flag_still_rejects_non_supercritical(self):
        # degenerate single-child law has mean 1, not > 1
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(1, 1.0)],
                                             require_mean_two=False)

    def test_rejects_zero_children(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(0, 0.5), (4, 0.5)],
                                             require_mean_two=False)

    def test_support_cap(self):
        with pytest.raises(ValueError):
            OffspringDistribution.from_pairs([(1, 0.9), (20, 0.1)],
                                             require_mean_two=False)


class TestTreeSampling:
    def test_zero_horizon(self):
        tree = sample_tree(BINARY, 0.0, 7)
        assert tree.n_leaves == 1
        assert tree.n_nodes == 1
        assert tree.is_leaf(0)

    def test_deterministic(self):
        a = sample_tree(BINARY, 3.0, 1234)
        b = sample_tree(BINARY, 3.0, 1234)
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.birth, b.birth)
        assert np.array_equal(a.split, b.split, equal_nan=True)
        c = sample_tree(BINARY, 3.0, 1235)
        assert (a.n_nodes != c.n_nodes
                or not np.array_equal(a.birth, c.birth))

    def test_structural_invariants(self):
        for s in range(5):
            sample_tree(BINARY, 4.0, stream_key(SEED, 0xA0, s)).validate()

    def test_population_mean(self):
        ns = np.array([sample_tree(BINARY, 1.0, replica_seed(SEED, i)).n_leaves
                       for i in range(2000)], dtype=np.float64)
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        assert abs(ns.mean() - math.e) <= 3.0 * se

    def test_lifetimes_exponential(self):
        # pool lifetimes of nodes born early enough that the horizon
        # truncation mass (< e^-6) is negligible against the 0.02 budget
        pool = []
        total = 0
        i = 0
        while total < 100000:
            tree = sample_tree(BINARY, 10.0, replica_seed(SEED, 7000000 + i))
            sel = (~np.isnan(tree.split)) & (tree.birth <= 4.0)
            lt = (tree.split - tree.birth)[sel]
            pool.append(lt)
            total += lt.size
            i += 1
        pooled = np.concatenate(pool)[:100000]
        assert sps.kstest(pooled, sps.expon.cdf).statistic <= 0.02

    def test_node_budget_rejected(self):
        with pytest.raises(ResourceLimitError):
            sample_tree(BINARY, 8.0, 1, max_nodes=100)
        with pytest.raises(ResourceLimitError):
            sample_tree(BINARY, 40.0, 1)


def bushy_tree(t: float = 2.0, lo: int = 3, hi: int = 30) -> GwTree:
    for cand in range(64):
        tree = sample_tree(BINARY, t, stream_key(SEED, 0xC0, cand))
        if lo <= tree.n_leaves <= hi:
            return tree
    raise AssertionError("no tree in the requested size window")


class TestOverlap:
    def test_self_overlap_is_horizon(self):
        tree = bushy_tree()
        for k in tree.leaves[:4]:
            assert overlap(tree, int(k), int(k)) == tree.t

    def test_sibling_overlap_is_split_time(self):
        tree = bushy_tree()
        # children of the root are siblings split at the root's split time
        kids = np.flatnonzero(tree.parent == 0)
        leaf_kids = [int(c) for c in kids if tree.is_leaf(int(c))]
        if len(leaf_kids) >= 2:
            got = overlap(tree, leaf_kids[0], leaf_kids[1])
            assert got == pytest.approx(float(tree.split[0]), abs=1e-15)

    def test_non_leaf_argument_rejected(self):
        tree = bushy_tree()
        internal = int(np.flatnonzero(~tree.leaf_mask())[0])
        with pytest.raises(ValueError):
            overlap(tree, internal, int(tree.leaves[0]))

    def test_matches_ancestor_path_brute_force(self):
        tree = bushy_tree()

        def brute(k, l):
            if k == l:
                return tree.t
            anc = set()
            node = k
            while node != -1:
                anc.add(node)
                node = int(tree.parent[node])
            node = l
            while node not in anc:
                node = int(tree.parent[node])
            return float(tree.split[node])

        leaves = [int(x) for x in tree.leaves]
        for k in leaves:
            for l in leaves:
                assert overlap(tree, k, l) == pytest.approx(brute(k, l),
                                                            abs=1e-15)
