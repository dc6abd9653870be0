"""Property tests: invariants of the accumulator, truncation, overlaps and
sampled trees over generated inputs, and bit-exactness of the exact small
sum, of the shared-table sweeps and of the tree sampler's wave loop.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bbmlab import (OffspringDistribution, compensated_sum, log_partition,
                    overlap_matrix, rescaled_partition, sample_correlated_pair,
                    sample_tree, scaled_exp_sum, truncated_partition)
from bbmlab.partition import log_partitions, m_of_t, truncation_sweep
from bbmlab.streams import TAG_TREE, make_rng

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


def _reference_tree_arrays(dist, t, seed):
    """The wave loop as first written: fancy-indexed frontier ids, np.where
    for the split slots and an array of counts for every law."""
    rng = make_rng(seed, TAG_TREE)
    parent_chunks = [np.full(1, -1, dtype=np.int64)]
    birth_chunks = [np.zeros(1, dtype=np.float64)]
    split_chunks = []
    leaf_chunks = []
    gen_offsets = [0, 1]
    frontier_ids = np.zeros(1, dtype=np.int64)
    frontier_birth = np.zeros(1, dtype=np.float64)
    n_total = 1
    while frontier_ids.size:
        split_at = frontier_birth + rng.standard_exponential(frontier_ids.size)
        alive = split_at >= t
        split_chunks.append(np.where(alive, np.nan, split_at))
        leaf_chunks.append(frontier_ids[alive])
        splitting = ~alive
        n_split = int(np.count_nonzero(splitting))
        if n_split == 0:
            break
        idx = np.searchsorted(np.cumsum(dist.probabilities),
                              rng.random(n_split), side="right")
        counts = np.minimum(idx, dist.probabilities.size - 1) + 1
        child_parent = np.repeat(frontier_ids[splitting], counts)
        child_birth = np.repeat(split_at[splitting], counts)
        n_total += child_parent.size
        parent_chunks.append(child_parent)
        birth_chunks.append(child_birth)
        gen_offsets.append(n_total)
        frontier_ids = np.arange(n_total - child_parent.size, n_total,
                                 dtype=np.int64)
        frontier_birth = child_birth
    return {"parent": np.concatenate(parent_chunks),
            "birth": np.concatenate(birth_chunks),
            "split": np.concatenate(split_chunks),
            "leaves": np.concatenate(leaf_chunks).astype(np.int64),
            "gen_offsets": np.asarray(gen_offsets, dtype=np.int64)}


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 8.0), law=st.sampled_from(LAWS))
def test_sample_tree_matches_reference_wave_loop(seed, t, law):
    tree = sample_tree(law, t, seed)
    for name, expected in _reference_tree_arrays(law, t, seed).items():
        got = getattr(tree, name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected, equal_nan=True), name


def _fsum_outcome(fn, v):
    """fn(v), or the name of the error it raises."""
    try:
        return fn(v)
    except OverflowError as exc:
        return type(exc).__name__


@st.composite
def finite_arrays(draw):
    """Finite float64 arrays of 1..4096 terms with adversarial structure.

    Exponents are uniform over a window of up to 60 or of 600 to 1400
    binades, starting among the subnormals or anywhere below 2^1020 and
    capped there; optionally half the terms are the negations of the
    other half (exact cancellation), and optionally some or all terms are
    replaced by 0.0 or -0.0.
    """
    n = draw(st.integers(1, 4096))
    low = draw(st.integers(-1080, -1030) | st.integers(-1080, 1020))
    spread = draw(st.integers(0, 60) | st.integers(600, 1400))
    cancel = draw(st.booleans())
    zeros = draw(st.sampled_from(["none", "none", "some", "all"]))
    rng = np.random.default_rng(draw(seeds))
    m = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    e = rng.integers(low, min(low + spread, 1020), endpoint=True, size=n)
    v = np.ldexp(m, e)
    if cancel:
        v[n // 2:2 * (n // 2)] = -v[:n // 2]
        rng.shuffle(v)
    if zeros != "none":
        mask = rng.random(n) < (0.5 if zeros == "some" else 2.0)
        v[mask] = rng.choice([0.0, -0.0], int(mask.sum()))
    return v


@settings(PROPERTY, max_examples=200)
@given(finite_arrays())
def test_compensated_sum_is_fsum_up_to_4096_terms(v):
    expected = _fsum_outcome(lambda a: math.fsum(a.tolist()), v)
    got = _fsum_outcome(compensated_sum, v)
    assert got == expected
    if isinstance(expected, float):
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def _truncation_one_at_a_time(fld, beta, threshold):
    """The per-threshold reduction, written out with scaled_exp_sum."""
    shift = fld.x - m_of_t(fld.tree.t)
    phases = beta.imag * fld.y
    keep = shift >= -threshold
    return (scaled_exp_sum(beta.real * shift[keep], phases[keep]).value,
            scaled_exp_sum(beta.real * shift[~keep], phases[~keep]).value)


@PROPERTY
@given(seed=seeds, t=st.floats(0.5, 8.5), rho=st.sampled_from([1.0, 0.5]),
       sigma=st.floats(0.0, 2.5), tau=st.floats(-2.0, 2.0),
       thresholds=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=5))
def test_truncation_sweep_is_exact(seed, t, rho, sigma, tau, thresholds):
    fld = sample_correlated_pair(sample_tree(BINARY, t, seed), rho, seed)
    beta = complex(sigma, tau)
    parts = truncation_sweep(fld, beta, thresholds)
    for a, part in zip(thresholds, parts):
        kept, disc = _truncation_one_at_a_time(fld, beta, a)
        assert part.kept == kept and part.discarded == disc
        assert truncated_partition(fld, beta, a) == part


@PROPERTY
@given(seed=seeds, t=st.floats(0.5, 8.5), rho=st.sampled_from([1.0, 0.5]),
       betas=st.lists(st.tuples(st.floats(0.0, 2.5),
                                st.sampled_from([0.0, 0.3, -0.9, 1.5])),
                      min_size=1, max_size=6))
def test_log_partitions_is_exact(seed, t, rho, betas):
    fld = sample_correlated_pair(sample_tree(BINARY, t, seed), rho, seed)
    betas = [complex(s, u) for s, u in betas]
    ps = log_partitions(fld, betas)
    for beta, p in zip(betas, ps):
        one = scaled_exp_sum(beta.real * fld.x, beta.imag * fld.y)
        assert p == one.abs_log / fld.tree.t
        assert p == log_partition(fld, beta)
