"""Property tests: invariants of the accumulator, truncation, overlaps and
sampled trees over generated inputs.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbmlab import (OffspringDistribution, overlap_matrix, rescaled_partition,
                    sample_correlated_pair, sample_tree, scaled_exp_sum,
                    truncated_partition)
from bbmlab.partition import m_of_t

PROPERTY = settings(derandomize=True, database=None, max_examples=40,
                    deadline=None)

BINARY = OffspringDistribution.binary()
LAWS = [BINARY,
        OffspringDistribution.from_pairs([(1, 0.5), (3, 0.5)]),
        OffspringDistribution.from_pairs([(1, 0.4), (2, 0.3), (4, 0.3)],
                                         require_mean_two=False)]

seeds = st.integers(min_value=0, max_value=2 ** 63)


@PROPERTY
@given(st.lists(st.tuples(st.floats(-700.0, 700.0), st.floats(-10.0, 10.0)),
                min_size=1, max_size=60))
def test_scaled_exp_sum_matches_naive(terms):
    lw = np.array([w for w, _ in terms])
    ph = np.array([p for _, p in terms])
    magnitude = float(np.sum(np.exp(lw)))
    naive = complex(np.sum(np.exp(lw) * (np.cos(ph) + 1j * np.sin(ph))))
    assume(math.isfinite(magnitude))
    assert abs(scaled_exp_sum(lw, ph).value - naive) <= 1e-12 * magnitude
    assert scaled_exp_sum(lw).value == pytest.approx(magnitude, rel=1e-12)


@PROPERTY
@given(seed=seeds, t=st.floats(0.5, 5.0), rho=st.floats(-1.0, 1.0),
       sigma=st.floats(0.0, 2.5), tau=st.floats(-2.0, 2.0),
       threshold=st.floats(0.0, 8.0))
def test_truncation_reconstitutes_partition(seed, t, rho, sigma, tau,
                                            threshold):
    fld = sample_correlated_pair(sample_tree(BINARY, t, seed), rho, seed)
    beta = complex(sigma, tau)
    part = truncated_partition(fld, beta, threshold)
    whole = rescaled_partition(fld, beta).real_shift
    magnitude = scaled_exp_sum(sigma * (fld.x - m_of_t(t))).value.real
    assert abs(part.kept + part.discarded - whole) <= 1e-12 * magnitude


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 3.5))
def test_overlaps_are_ultrametric(seed, t):
    tree = sample_tree(BINARY, t, seed)
    q = overlap_matrix(tree).q
    assert np.array_equal(q, q.T)
    assert np.all(np.diag(q) == tree.t) and np.all(q <= tree.t)
    # q(i, j) >= min(q(i, k), q(k, j)) for every triple, indexed [i, k, j]
    assert np.all(q[:, None, :] >= np.minimum(q[:, :, None], q[None, :, :]))


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 4.0), law=st.sampled_from(LAWS))
def test_sampled_trees_keep_wave_order(seed, t, law):
    tree = sample_tree(law, t, seed)
    tree.validate()
    go = tree.gen_offsets
    for g in range(1, tree.n_generations):
        parents = tree.parent[go[g]:go[g + 1]]
        # wave g is born from wave g - 1, grouped by ascending parent id
        assert np.all((parents >= go[g - 1]) & (parents < go[g]))
        assert np.all(np.diff(parents) >= 0)
