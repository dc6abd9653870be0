"""Property tests: invariants of the accumulator, truncation, overlaps, the
branch-point pair sum and sampled trees over generated inputs, and
bit-exactness of the exact small sum and its extraction kernel, of the
segmented reductions against one-segment calls, of the group martingales
against the ScaledComplex chain, of the shared-table sweeps, of the tree
sampler's wave loop, of the forest grower (with its genealogies against
that wave loop), the leaf grower and the forest screen against the tree
and field samplers, of a re-keyed generator
against a fresh one, of the pair keys of a seed array against one-seed
calls, and of the CSV row formatter against csv.writer.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bbmlab import (OffspringDistribution, ResourceLimitError,
                    additive_martingale, compensated_sum, log_partition,
                    overlap, rescaled_partition, sample_correlated_pair,
                    sample_field, sample_tree, scaled_exp_sum,
                    truncated_partition)
from bbmlab import gwtree
from bbmlab.accum import (_FSUM_LIST, _extracted_fsum, _peeled,
                          peeled_trig_sum, scaled_exp_sums)
from bbmlab.experiments import _write_rows
from bbmlab.field import correlate
from bbmlab.gwtree import (NODE_BUDGET, GrownLeaves, grow_forest,
                           grow_leaves, pair_sum, screen_maxima)
from bbmlab.partition import (additive_martingales, log_partitions, m_of_t,
                              truncation_sweep)
from bbmlab.phase import grid_betas
from bbmlab.streams import (TAG_PAIR_X, TAG_PAIR_Z, TAG_TREE, make_rng,
                            pair_keys, rekey, stream_key)

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


def _overlaps(tree):
    leaves = tree.leaves.tolist()
    return np.array([[overlap(tree, k, l) for l in leaves] for k in leaves])


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 2.5))
def test_overlaps_are_ultrametric(seed, t):
    tree = sample_tree(BINARY, t, seed)
    q = _overlaps(tree)
    assert np.array_equal(q, q.T)
    assert np.all(np.diag(q) == tree.t) and np.all(q <= tree.t)
    # q(i, j) >= min(q(i, k), q(k, j)) for every triple, indexed [i, k, j]
    assert np.all(q[:, None, :] >= np.minimum(q[:, :, None], q[None, :, :]))


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 3.0), law=st.sampled_from(LAWS[:2]),
       rho=st.floats(-1.0, 1.0), sigma=st.floats(0.0, 2.0),
       tau=st.floats(-2.0, 2.0))
@example(seed=0, t=0.0, law=BINARY, rho=0.4, sigma=0.5, tau=0.3)
def test_pair_sum_matches_double_sum(seed, t, law, rho, sigma, tau):
    # the sum over branch points against the sum over ordered leaf pairs
    tree = sample_tree(law, t, seed)
    a = np.exp(complex(sigma, rho * tau)
               * sample_correlated_pair(tree, rho, seed).x)
    damp = (1.0 - rho * rho) * tau * tau
    w = np.exp(-damp * (t - _overlaps(tree)))
    np.fill_diagonal(w, 0.0)
    got = pair_sum(tree, a, damp)
    if tree.n_leaves == 1:  # a single lineage has no pair
        assert got == 0.0
    assert abs(got - np.real(np.conj(a) @ (w @ a))) \
        <= 1e-12 * np.sum(np.abs(a)) ** 2


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


def _pair_keys(seed):
    return [stream_key(seed, TAG_PAIR_X), stream_key(seed, TAG_PAIR_Z)]


@PROPERTY
@given(seed=seeds, t=st.just(0.0) | st.floats(0.0, 8.0),
       law=st.sampled_from(LAWS))
def test_grow_leaves_matches_tree_and_fields(seed, t, law):
    keys = _pair_keys(seed)
    grown = grow_leaves(law, t, seed, keys)
    tree = sample_tree(law, t, seed)
    assert (grown.n_nodes, grown.n_leaves) == (tree.n_nodes, tree.n_leaves)
    assert len(grown.positions) == len(keys)
    for key, got in zip(keys, grown.positions):
        want = sample_field(tree, key).x
        # bytes, so that the -0.0 leaves of t = 0 count as well
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_grow_leaves_keeps_negative_zero_at_t_zero():
    signs = set()
    for seed in range(8):
        x, = grow_leaves(LAWS[0], 0.0, seed, [seed]).positions
        assert x.size == 1 and x[0] == 0.0
        signs.add(math.copysign(1.0, x[0]))
        assert x.tobytes() == sample_field(
            sample_tree(LAWS[0], 0.0, seed), seed).x.tobytes()
    assert signs == {1.0, -1.0}


def _screened_max(law, t, seed, x_key, max_nodes):
    try:
        tree = sample_tree(law, t, seed, max_nodes=max_nodes)
    except ResourceLimitError:
        return math.nan
    return float(np.max(sample_field(tree, x_key).x))


@PROPERTY
@given(keys=st.lists(st.tuples(seeds, seeds), min_size=1, max_size=40),
       t=st.just(0.0) | st.floats(0.0, 6.0), law=st.sampled_from(LAWS),
       max_nodes=st.just(NODE_BUDGET) | st.integers(1, 300))
def test_screen_maxima_match_tree_and_field(keys, t, law, max_nodes):
    assume((law.mean_children - 1.0) * t <= math.log(max_nodes))
    got = screen_maxima(law, t, [seed for seed, _ in keys],
                        [[x_key] for _, x_key in keys], max_nodes)
    want = np.array([_screened_max(law, t, seed, x_key, max_nodes)
                     for seed, x_key in keys])
    # bytes: the -0.0 maxima of t = 0 and the NaN of a tree over budget
    assert got.tobytes() == want.tobytes()


def _grown_outcome(grown):
    if isinstance(grown, Exception):
        return type(grown), str(grown)
    # bytes, so that the -0.0 leaves of t = 0 count as well
    return (grown.n_nodes, grown.n_leaves,
            [(p.dtype, p.tobytes()) for p in grown.positions])


def _tree_and_fields(law, t, seed, keys, max_nodes=NODE_BUDGET):
    """What grow_forest gives for one seed, from sample_tree and
    sample_field: an independent reference."""
    try:
        tree = sample_tree(law, t, seed, max_nodes=max_nodes)
    except ResourceLimitError as exc:
        return type(exc), str(exc)
    return (tree.n_nodes, tree.n_leaves,
            [(np.dtype(np.float64), sample_field(tree, key).x.tobytes())
             for key in keys])


@PROPERTY
@given(tree_seeds=st.lists(seeds, min_size=1, max_size=40),
       t=st.just(0.0) | st.floats(0.0, 4.0), law=st.sampled_from(LAWS),
       n_fields=st.integers(0, 2),
       max_nodes=st.just(NODE_BUDGET) | st.integers(1, 300),
       genealogy=st.booleans())
@example(tree_seeds=[11], t=4.0, law=LAWS[2], n_fields=1,
         max_nodes=NODE_BUDGET, genealogy=True)  # a lone tree
@example(tree_seeds=[1, 2, 3, 5, 8, 13], t=3.5, law=LAWS[1], n_fields=2,
         max_nodes=60, genealogy=True)  # some trees past the budget
def test_grow_forest_matches_tree_and_fields(tree_seeds, t, law, n_fields,
                                             max_nodes, genealogy):
    keys = [_pair_keys(seed)[:n_fields] for seed in tree_seeds]
    try:
        got = grow_forest(law, t, tree_seeds, keys, max_nodes, genealogy)
    except ResourceLimitError as exc:  # the horizon's, raised for all
        got = [exc] * len(tree_seeds)
        assert (law.mean_children - 1.0) * t > math.log(max_nodes)
    assert len(got) == len(tree_seeds)
    for seed, seed_keys, grown in zip(tree_seeds, keys, got):
        assert _grown_outcome(grown) == _tree_and_fields(
            law, t, seed, seed_keys, max_nodes)
        if isinstance(grown, Exception) or not genealogy:
            assert isinstance(grown, Exception) or grown.tree is None
            continue
        # against the test's own wave loop: sample_tree shares this code
        tree = grown.tree
        assert (tree.t, tree.seed) == (float(t), seed)
        for name, expected in _reference_tree_arrays(law, t, seed).items():
            got_array = getattr(tree, name)
            assert got_array.dtype == expected.dtype
            assert np.array_equal(got_array, expected, equal_nan=True), name


def test_grow_forest_past_pool_cap(monkeypatch):
    # generators past the kept POOL_CAP are built for the call alone, and
    # kept ones re-keyed on the next call draw as fresh ones do
    monkeypatch.setattr(gwtree, "POOL_CAP", 5)
    monkeypatch.setattr(gwtree, "_POOL", [])
    law = OffspringDistribution.binary()
    for tree_seeds in ([3, 1, 4, 1], [5, 9, 2, 6, 5]):
        keys = [_pair_keys(seed) for seed in tree_seeds]
        got = grow_forest(law, 2.5, tree_seeds, keys)
        assert len(gwtree._POOL) == 5
        for seed, seed_keys, grown in zip(tree_seeds, keys, got):
            assert _grown_outcome(grown) == _tree_and_fields(
                law, 2.5, seed, seed_keys)


@PROPERTY
@given(seed=seeds, used=seeds, tags=st.lists(st.integers(0, 255),
                                             max_size=3))
def test_rekey_draws_like_make_rng(seed, used, tags):
    rng, other = make_rng(used), make_rng(used)
    rng.standard_normal(3)
    rng.random(1)
    # leaves half of a 64-bit word kept for the next 32-bit draw
    rng.integers(0, 2 ** 32, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    rekey(rng, seed, *tags)
    rekey(other, used, 0x55)  # re-keying another leaves rng's stream as is
    fresh = make_rng(seed, *tags)
    assert rng.integers(0, 2 ** 32, 7, dtype=np.uint32).tolist() == \
        fresh.integers(0, 2 ** 32, 7, dtype=np.uint32).tolist()
    for draw in ("standard_normal", "standard_exponential", "random"):
        assert np.array_equal(getattr(rng, draw)(7), getattr(fresh, draw)(7))


words = st.integers(0, 2 ** 64 - 1)


@PROPERTY
@given(tree_seeds=st.lists(words, min_size=1, max_size=20),
       fields=st.integers(0, 2))
@example(tree_seeds=[0, 2 ** 63, 2 ** 64 - 1], fields=2)
def test_pair_keys_of_seed_array_match_one_seed_calls(tree_seeds, fields):
    got = pair_keys(np.array(tree_seeds, np.uint64), fields)
    assert got.dtype == np.uint64 and got.shape == (len(tree_seeds), fields)
    assert got.tolist() == [pair_keys(seed, fields) for seed in tree_seeds]


def _csv_writer_text(rows) -> str:
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows(rows)
    return fh.getvalue()


def _row_text(rows) -> str:
    fh = io.StringIO()
    _write_rows(fh, iter(rows))  # the replica workers hand a generator
    return fh.getvalue()


plain_values = (words | st.floats(allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310, 1e16, 1e-5,
     0.1 + 0.2]))
other_values = (st.booleans() | st.builds(np.float64, st.floats())
                | st.builds(np.int64, st.integers(-2 ** 63, 2 ** 63 - 1))
                | st.builds(np.uint64, words)
                | st.text(st.sampled_from(list('a ,"\n\r')), max_size=6))


@PROPERTY
@given(rows=st.integers(0, 8).flatmap(lambda width: st.lists(
    st.tuples(*[plain_values] * width), max_size=12)))
@example(rows=[])
@example(rows=[()])
@example(rows=[(0, 2 ** 64 - 1, 0.0, -0.0, math.inf, -math.inf, math.nan,
                5e-324, 1e16, 1e-5, 0.1 + 0.2)])
def test_plain_rows_format_like_csv_writer(rows):
    assert _row_text(rows) == _csv_writer_text(rows)


@PROPERTY
@given(rows=st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(plain_values | other_values, min_size=width, max_size=width),
    max_size=12)))
@example(rows=[[1, True], [np.float64(0.5), np.int64(-3)], [np.uint64(7), 2],
               ['a,b', 'say "hi"'], ['two\nlines', ""]])
@example(rows=[[1, 2.5], [3]])  # ints and floats, rows of two lengths
@example(rows=[[np.float64(0.5), 1.5], [2, np.float64(-0.0)]])
@example(rows=[[np.int64(-3), 2], [np.uint64(2 ** 64 - 1), 0.5]])
@example(rows=[[True, 0.5], [1, False]])
def test_other_rows_format_like_csv_writer(rows):
    assert _row_text(rows) == _csv_writer_text(rows)


def _budget_outcome(grow):
    try:
        grown = grow()
    except ResourceLimitError as exc:
        return str(exc)
    return grown.n_nodes, grown.n_leaves


@PROPERTY
@given(seed=seeds, t=st.floats(0.0, 6.0), law=st.sampled_from(LAWS),
       max_nodes=st.integers(1, 300))
def test_grow_leaves_budget_matches_sample_tree(seed, t, law, max_nodes):
    want = _budget_outcome(lambda: sample_tree(law, t, seed,
                                               max_nodes=max_nodes))
    got = _budget_outcome(lambda: grow_leaves(law, t, seed, _pair_keys(seed),
                                              max_nodes=max_nodes))
    assert got == want


@pytest.mark.parametrize("t,seed,max_nodes,message", [
    (10.0, 1, 1000, "projected leaf count exp(10.00) exceeds the node "
                    "budget 1000"),
    (3.0, 5, 25, "tree grew past the node budget 25 (t=3.0, seed=5)"),
])
def test_grow_leaves_budget_errors(t, seed, max_nodes, message):
    for grow in (sample_tree, grow_leaves):
        with pytest.raises(ResourceLimitError) as exc:
            grow(LAWS[0], t, seed, max_nodes=max_nodes)
        assert str(exc.value) == message


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


@st.composite
def extraction_arrays(draw):
    """Arrays of 1, 199, 200 or 4096 terms built to be hard to certify.

    "midpoint" sums exactly to the midpoint between two adjacent floats,
    and "off_midpoint" to one ulp of the half-ulp off it: a big term, its
    half ulp and pairs x, -x.  "cancel" pairs terms of 80 binades with
    their negations and leaves one small term.  "subnormal" holds
    subnormals, at times with one term just above 2^-900; "near_2_900"
    has exponents from 2^890 to 2^901.  Some pairs, or terms, are 0.0 or
    -0.0.
    """
    n = draw(st.sampled_from([1, 199, 200, 4096]))
    kind = draw(st.sampled_from(["midpoint", "off_midpoint", "cancel",
                                 "subnormal", "near_2_900"]))
    rng = np.random.default_rng(draw(seeds))
    zeros = draw(st.sampled_from([0.0, 0.1]))
    sign = rng.choice([-1.0, 1.0], n)
    if kind in ("midpoint", "off_midpoint", "cancel"):
        e = int(rng.integers(-880, 880))
        if kind == "cancel":
            head = []
            last = math.ldexp(sign[-1], e - int(rng.integers(60, 120)))
        else:  # big on [2^e, 2^(e+1)) and its half ulp, of one sign
            head = [math.ldexp(sign[-1] * float(rng.integers(2 ** 52,
                                                             2 ** 53)),
                               e - 52)]
            last = 1.0 + (0.0 if kind == "midpoint"
                          else float(rng.choice([-1.0, 1.0])) * 2.0 ** -52)
            last = math.ldexp(sign[-1] * last, e - 53)
        tail = [last] if n > len(head) else []
        k = (n - len(head) - len(tail)) // 2
        body = sign[:k] * np.ldexp(rng.uniform(0.5, 1.0, k),
                                   e - rng.integers(1, 80, k))
        body[rng.random(k) < zeros] = 0.0
        pad = np.zeros(n - len(head) - len(tail) - 2 * k)
        v = np.concatenate([head, body, -body, pad, tail])
    else:
        low, high = (-1074, -1022) if kind == "subnormal" else (890, 901)
        v = sign * np.ldexp(rng.uniform(0.5, 1.0, n),
                            rng.integers(low, high, n, endpoint=True))
        if kind == "subnormal" and draw(st.booleans()):
            v[0] = math.ldexp(sign[0], int(rng.integers(-899, -890)))
        v[rng.random(n) < zeros] = draw(st.sampled_from([0.0, -0.0]))
    rng.shuffle(v)
    return v


@settings(PROPERTY, max_examples=200)
@given(extraction_arrays())
def test_extracted_fsum_is_fsum_or_declines(v):
    got = _extracted_fsum(v)
    if got is not None:
        assert float(got).hex() == math.fsum(v.tolist()).hex()


def test_grid_sums_of_a_field_certify():
    # every sum phase_grid's grid takes of a t = 6 field goes through the
    # extraction kernel and is certified there, with no math.fsum fallback
    fld = sample_correlated_pair(sample_tree(BINARY, 6.0, 1), 1.0, 1)
    assert fld.x.size >= _FSUM_LIST
    for beta in grid_betas((0.2, 2.0), (0.0, 1.5), 4):
        lw = beta.real * fld.x
        w = np.exp(lw - lw.max())
        sums = ([w] if beta.imag == 0.0 else
                [w * np.cos(beta.imag * fld.y), w * np.sin(beta.imag * fld.y)])
        for v in sums:
            assert _extracted_fsum(v) is not None, beta


# Segment sizes on both sides of the list-fsum (256) and exactly rounded
# (4096) limits of compensated_sum, and 699 and 700 inside the extraction
# kernel's range.
segment_sizes = (st.integers(1, 12)
                 | st.sampled_from([255, 256, 699, 700, 4096, 4097])
                 | st.integers(1, 5000))
# 0.0 and negative values among the parts of beta
beta_parts = st.sampled_from([0.0, -0.0, -1.3]) | st.floats(-3.0, 3.0)


def _segments(sizes):
    ends = np.cumsum(sizes).tolist()
    return list(zip([0] + ends, ends)), ends


def _signed_normals(rng, n):
    """Normals with about a tenth of them 0.0 or -0.0."""
    v = rng.standard_normal(n)
    zero = rng.random(n) < 0.1
    v[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return v


def _bits(*values):
    return [float(v).hex() for v in values]


@PROPERTY
@given(sizes=st.lists(segment_sizes, min_size=1, max_size=5), seed=seeds,
       sigma=beta_parts, tau=beta_parts,
       dead=st.lists(st.booleans(), min_size=5, max_size=5))
def test_scaled_exp_sums_match_one_segment_calls(sizes, seed, sigma, tau,
                                                 dead):
    # a dead segment has only -inf weights; elsewhere one term in ten is
    # -inf
    rng = np.random.default_rng(seed)
    segments, ends = _segments(sizes)
    lw = sigma * 30.0 * _signed_normals(rng, ends[-1])
    lw[rng.random(lw.size) < 0.1] = -np.inf
    for (lo, hi), gone in zip(segments, dead):
        if gone:
            lw[lo:hi] = -np.inf
    ph = tau * _signed_normals(rng, lw.size)
    peaks, re, im = scaled_exp_sums(lw, ph, ends)
    for j, (lo, hi) in enumerate(segments):
        want = scaled_exp_sum(lw[lo:hi], ph[lo:hi])
        if want.log_scale == -math.inf:
            # (-inf, 1) for the one-segment call, zero parts in the arrays
            assert peaks[j] == -math.inf and re[j] == im[j] == 0.0
        else:
            assert _bits(peaks[j], re[j], im[j]) == _bits(
                want.log_scale, want.mantissa.real, want.mantissa.imag)


def _tree_view(x, z, t, seed, rho):
    leaves = GrownLeaves(t=t, seed=seed, n_nodes=x.size, n_leaves=x.size,
                         positions=(x, z))
    return correlate(leaves, leaves.positions, rho)


@PROPERTY
@given(sizes=st.lists(segment_sizes, min_size=1, max_size=5), seed=seeds,
       t=st.just(0.0) | st.floats(0.0, 4.0), sigma=beta_parts,
       tau=beta_parts, rho=st.sampled_from([-1.0, 0.0, 0.8, 1.0]))
def test_additive_martingales_match_one_tree_calls(sizes, seed, t, sigma,
                                                   tau, rho):
    rng = np.random.default_rng(seed)
    segments, ends = _segments(sizes)
    x, z = (2.0 * _signed_normals(rng, ends[-1]) for _ in range(2))
    beta = complex(sigma, tau)
    got = additive_martingales(_tree_view(x, z, t, seed, rho), beta, ends)
    for (lo, hi), m in zip(segments, got):
        want = additive_martingale(
            _tree_view(x[lo:hi], z[lo:hi], t, seed, rho), beta)
        assert _bits(m.real, m.imag) == _bits(want.real, want.imag)


# up to 1e154, whose square times a horizon near 4 overflows, so that
# log_norm is +-inf
huge_beta_parts = (beta_parts | st.floats(-40.0, 40.0)
                   | st.sampled_from([1e154, -1e154]))


@settings(PROPERTY, max_examples=120)
@given(sizes=st.lists(st.just(0) | segment_sizes, min_size=1, max_size=5),
       seed=seeds, t=st.just(0.0) | st.floats(0.0, 4.0),
       reach=st.none() | st.floats(600.0, 1100.0),
       sigma=huge_beta_parts, tau=huge_beta_parts,
       rho=st.sampled_from([-1.0, 0.0, 0.8, 1.0]),
       dead=st.lists(st.booleans(), min_size=5, max_size=5))
# log_norm = -inf with finite peaks, and +inf beside dead trees
@example(sizes=[5, 3, 4, 2], seed=1, t=4.0, reach=None, sigma=1e154,
         tau=1.0, rho=0.8, dead=[False] * 5)
@example(sizes=[3, 2, 0], seed=1, t=4.0, reach=None, sigma=1.0, tau=1e154,
         rho=0.0, dead=[False, True, False, False, False])
@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_additive_martingales_match_scaled_complex_chain(sizes, seed, t,
                                                         reach, sigma, tau,
                                                         rho, dead):
    """Every tree of a group has the bits of the ScaledComplex chain on its
    own leaves, also where e^(peak + log_norm) overflows or underflows and
    the signed-zero terms of the complex product decide the result."""
    growth = 1.0 + 0.5 * (sigma ** 2 - tau ** 2)
    if reach is not None and growth != 0.0:
        # the horizon at which |log_norm| = reach, past the overflow (709.8)
        # or underflow (-745.1) limit of exp
        t = reach / abs(growth)
    rng = np.random.default_rng(seed)
    segments, ends = _segments(sizes)
    x, z = (2.0 * _signed_normals(rng, ends[-1]) for _ in range(2))
    for (lo, hi), gone in zip(segments, dead):
        if gone:  # every weight sigma * x is -inf (nan at sigma = 0)
            x[lo:hi] = -math.copysign(math.inf, sigma)
    beta = complex(sigma, tau)
    log_norm = -t * growth
    angle = -t * sigma * rho * tau
    assume(math.isfinite(angle))  # rotated raises on an infinite angle
    got = additive_martingales(_tree_view(x, z, t, seed, rho), beta, ends)
    assert got.shape == (len(segments),)
    for (lo, hi), m in zip(segments, got.tolist()):
        fld = _tree_view(x[lo:hi], z[lo:hi], t, seed, rho)
        want = scaled_exp_sum(sigma * fld.x, tau * fld.y).shifted(
            log_norm).rotated(angle).value
        assert _bits(m.real, m.imag) == _bits(want.real, want.imag)


def test_scaled_exp_sums_ends():
    lw, ph = np.array([1.0, -np.inf, 2.0]), np.zeros(3)
    # an empty segment has peak -inf, as an empty scaled_exp_sum has, and
    # zero parts
    ends = [0, 2, 2, 3]
    peaks, re, im = scaled_exp_sums(lw, ph, ends)
    assert peaks.tolist() == [
        scaled_exp_sum(lw[lo:hi], ph[lo:hi]).log_scale
        for lo, hi in zip([0] + ends, ends)] == [-math.inf, 1.0, -math.inf,
                                                 2.0]
    assert re.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert im.tolist() == [0.0] * 4
    assert [a.size for a in scaled_exp_sums(lw[:0], ph[:0], [])] == [0] * 3
    for ends in ([2], [2, 1, 3], [4]):
        with pytest.raises(ValueError):
            scaled_exp_sums(lw, ph, ends)


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


def _table_path_log_partition(fld, beta):
    """log_partition written out on the cos and sin tables of beta.imag."""
    phases = beta.imag * fld.y
    return peeled_trig_sum(*_peeled(beta.real * fld.x), np.cos(phases),
                           np.sin(phases)).abs_log / fld.t


@PROPERTY
@given(size=st.integers(1, 5000) | st.sampled_from([699, 700, 4096, 4097]),
       seed=seeds, t=st.floats(0.5, 12.0),
       rho=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
       weights=st.sampled_from(["normal", "normal", "underflow", "dead"]),
       betas=st.lists(st.tuples(beta_parts,
                                st.sampled_from([0.0, -0.0, 0.7, -1.3])),
                      min_size=1, max_size=6))
@example(size=3, seed=1, t=2.0, rho=0.5, weights="dead",
         betas=[(1.3, 0.0), (-1.3, -0.0), (1.3, 0.7)])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_real_beta_log_partitions_skip_the_tables(size, seed, t, rho,
                                                  weights, betas):
    """A real beta (tau 0.0 or -0.0) reduces without phase tables and
    keeps the bits of the table path; mixed lists keep one-beta bits."""
    rng = np.random.default_rng(seed)
    x, z = (3.0 * _signed_normals(rng, size) for _ in range(2))
    if weights == "underflow":  # at sigma > 0.4 every e^(sigma x) is 0.0
        x -= 2000.0
    elif weights == "dead":     # at sigma > 0 every weight sigma x is -inf
        x[:] = -np.inf
    fld = _tree_view(x, z, t, seed, rho)
    betas = [complex(s, u) for s, u in betas]
    ps = log_partitions(fld, betas)
    for beta, p in zip(betas, ps):
        assert _bits(p) == _bits(log_partition(fld, beta))
        if beta.imag == 0.0:
            assert _bits(p) == _bits(_table_path_log_partition(fld, beta))
        else:
            one = scaled_exp_sum(beta.real * fld.x, beta.imag * fld.y)
            assert _bits(p) == _bits(one.abs_log / t)
