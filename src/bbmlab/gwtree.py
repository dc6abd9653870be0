"""Continuous-time Galton-Watson trees on a fixed horizon.

A tree is stored as flat parallel arrays (parent pointer, birth time, split
time) in wave order: the root is node 0 and the children created by wave
``g`` occupy a contiguous id block after all wave-``g`` nodes, grouped by
parent in ascending parent order.  Lifetimes are unit-rate exponentials;
a particle alive at the horizon ``t`` becomes a leaf and its split slot
holds NaN.

One growth loop, the forest loop, grows any number of trees in lockstep,
one wave at a time, with vectorized draws, so the node budget is enforced
as each tree grows.  The draw order (per tree and wave one exponential
block, one normal block per field and one uniform block for the splitting
subset) is frozen: a given (law, t, seed) triple reproduces the identical
tree on any machine, alone or in a forest.  The loop keeps the frontier in
per-tree blocks and its bookkeeping in arrays as long as the live trees.
It has two consumers: grow_forest keeps each tree's finished leaves with
the fields laid on them wave by wave and, when asked, its genealogy
(grow_leaves is its one-tree call, sample_tree its one-tree genealogy),
and screen_maxima keeps each tree's max leaf x; forest_size says how many
trees of a horizon grow together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringDistribution
from .streams import (MASK64, TAG_FIELD, TAG_TREE, make_rng, rekey,
                      stream_key)

NODE_BUDGET = 1 << 27
# forest_size's constants, set from the ns per node in BENCH_midgroups.json
GROUP_LEAVES = 1 << 17
GROUP_TREES = 128
ALONE_GROWTH = 8.5
POOL_CAP = 3 * GROUP_TREES  # generators grow_forest keeps: tree, x, z
_POOL = []


class ResourceLimitError(RuntimeError):
    """A configured memory/size budget would be exceeded (not a model error)."""


@dataclass(eq=False)
class GwTree:
    """Realized branching tree up to horizon ``t``."""

    t: float
    seed: int
    parent: np.ndarray        # int64; parent[0] == -1
    birth: np.ndarray         # float64 birth times
    split: np.ndarray         # float64 split times, NaN for leaves
    leaves: np.ndarray        # int64 leaf ids, ascending
    gen_offsets: np.ndarray   # int64 wave boundaries; [0]=0, [-1]=n_nodes

    @property
    def n_nodes(self) -> int:
        return self.parent.size

    @property
    def n_leaves(self) -> int:
        return self.leaves.size

    @property
    def n_generations(self) -> int:
        return self.gen_offsets.size - 1

    def leaf_mask(self) -> np.ndarray:
        return np.isnan(self.split)

    def edge_end(self) -> np.ndarray:
        """Time at which each node's edge stops (split time, or t for leaves)."""
        return np.where(np.isnan(self.split), self.t, self.split)

    def is_leaf(self, node: int) -> bool:
        return bool(np.isnan(self.split[node]))

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation."""
        assert self.parent[0] == -1
        assert self.birth[0] == 0.0
        internal = ~np.isnan(self.split)
        assert np.all(self.birth[internal] < self.split[internal])
        assert np.all(self.split[internal] <= self.t)
        if self.n_nodes > 1:
            assert np.all(self.parent[1:] >= 0)
            assert np.all(self.parent[1:] < np.arange(1, self.n_nodes))
            # every child is born at its parent's split time
            assert np.allclose(self.birth[1:], self.split[self.parent[1:]])
        leaf_ids = np.flatnonzero(np.isnan(self.split))
        assert np.array_equal(leaf_ids, self.leaves)
        assert self.n_leaves >= 1


def _check_horizon(dist: OffspringDistribution, t: float,
                   max_nodes: int) -> None:
    """Reject a horizon before any draw: not finite or negative, or with a
    projected leaf count e^((m-1)t) past the node budget."""
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"horizon t must be finite and >= 0, got {t!r}")
    mean = dist.mean_children
    if (mean - 1.0) * t > math.log(max_nodes):
        raise ResourceLimitError(
            f"projected leaf count exp({(mean - 1.0) * t:.2f}) exceeds the "
            f"node budget {max_nodes}")


def over_budget(max_nodes: int, t: float, seed: int) -> ResourceLimitError:
    """The error of the tree of (t, seed) that grew past max_nodes."""
    return ResourceLimitError(
        f"tree grew past the node budget {max_nodes} (t={t}, seed={seed})")


def _streams(seeds, field_keys) -> list:
    """A [tree_rng, *field_rngs] row per seed: the make_rng(seed, TAG_TREE)
    stream and a make_rng(key, TAG_FIELD) stream per key of the seed.

    field_keys holds a row of keys per seed: a uint64 array, taken as it
    comes, or rows of ints.  The keys of all streams are derived at once,
    each column with its tag.  The generators are pooled: up to POOL_CAP
    are kept and re-keyed on the next call, the rest built for this call
    alone, so a caller may use them only until its next growth call.
    """
    if not isinstance(field_keys, np.ndarray):  # ints, masked as seeds are
        field_keys = [[key & MASK64 for key in keys] for keys in field_keys]
    words = np.column_stack((np.array([seed & MASK64 for seed in seeds],
                                      np.uint64),
                             np.asarray(field_keys, np.uint64)))
    tags = [TAG_TREE] + [TAG_FIELD] * (words.shape[1] - 1)
    keys = stream_key(words, np.array(tags, np.uint64))
    need = keys.size
    _POOL.extend(make_rng(0) for _ in range(min(need, POOL_CAP) - len(_POOL)))
    pool = iter(_POOL[:need] + [make_rng(0) for _ in range(need - POOL_CAP)])
    return [[rekey(next(pool), key) for key in row] for row in keys.tolist()]


def _forest(dist: OffspringDistribution, t: float, seeds, field_keys,
            max_nodes: int):
    """The growth loop: grow the tree of each seed, and the fields of its
    keys on it, in lockstep, one wave at a time.

    Per wave a live tree makes one exponential call for its nodes'
    lifetimes, one normal call per field for their increments and, when
    some of them split, one uniform call for the children counts: the
    calls it makes grown alone.  A node splits when its birth plus its
    lifetime is below t; its position is its parent's (0 at the root) plus
    its increment times sqrt(min(split, t) - birth).  The frontier is kept
    in per-tree blocks, by tree, then node id; all bookkeeping runs on
    arrays as long as the live trees.

    Per wave it yields, read-only, (live, bounds, cuts, birth, split_at,
    pos, child_of, total): the live trees, ascending, and their block
    bounds; the count of splitting nodes before each bound; the nodes'
    birth and split times (split_at >= t at a leaf) and the fields at
    them, a row per field; each node's parent as an index into the
    previous wave (-1 at a root); and each tree's node count, set as the
    tree leaves the loop, so complete once the loop ends: past max_nodes
    for a tree that grew past it and was stopped there.  It has two
    consumers, grow_forest and screen_maxima.
    """
    _check_horizon(dist, t, max_nodes)
    tree_rngs, *field_rngs = zip(*_streams(seeds, field_keys))
    n = len(seeds)
    live, bounds, total = np.arange(n), np.arange(n + 1), np.ones(n, np.int64)
    acc = bounds.copy()  # the live trees' node counts, cumulated like bounds
    birth, child_of, starts = np.zeros(n), np.full(n, -1), None
    while live.size:
        trees, b = live.tolist(), bounds.tolist()
        blocks = list(zip(trees, b, b[1:]))
        split_at = np.empty(birth.size)
        for j, lo, hi in blocks:
            tree_rngs[j].standard_exponential(out=split_at[lo:hi])
        pos = np.empty((len(field_rngs), birth.size))
        for rngs, p in zip(field_rngs, pos):
            for j, lo, hi in blocks:
                rngs[j].standard_normal(out=p[lo:hi])
        split_at += birth
        if len(pos):
            scale = np.minimum(split_at, t)
            scale -= birth
            np.sqrt(scale, out=scale)
            pos *= scale
            if starts is not None:
                pos += starts
        splitters = (split_at < t).nonzero()[0]
        cuts = splitters.searchsorted(bounds)
        yield live, bounds, cuts, birth, split_at, pos, child_of, total
        if not splitters.size:  # every tree ends
            total[live] = acc[1:] - acc[:-1]
            return
        uniforms, c, ended = np.empty(splitters.size), cuts.tolist(), False
        for j, lo, hi in zip(trees, c, c[1:]):
            if lo < hi:
                tree_rngs[j].random(out=uniforms[lo:hi])
            else:
                ended = True
        counts = dist.sample_counts(uniforms)
        child_of = splitters.repeat(counts)
        bounds = (cuts * counts if isinstance(counts, int)
                  else np.append(0, counts.cumsum())[cuts])
        acc += bounds
        over = acc[-1] > max_nodes  # the live trees' nodes: one may be past
        if ended or over:  # trees leave: ended, or past the budget
            sizes, nodes = bounds[1:] - bounds[:-1], acc[1:] - acc[:-1]
            total[live] = nodes
            keep = sizes > 0
            if over:  # stop the trees past it
                keep &= nodes <= max_nodes
                child_of = child_of[keep.repeat(sizes)]
            live, sizes, nodes = live[keep], sizes[keep], nodes[keep]
            bounds = np.concatenate(([0], sizes.cumsum()))
            acc = np.concatenate(([0], nodes.cumsum()))
        birth = split_at.take(child_of)
        starts = pos.take(child_of, axis=1)


def sample_tree(dist: OffspringDistribution, t: float, seed: int,
                max_nodes: int = NODE_BUDGET) -> GwTree:
    """Grow a tree on [0, t] under the given offspring law: grow_leaves'
    genealogy of the seed, with no field.

    Raises ResourceLimitError if the projected population (e^((m-1)t) for
    offspring mean m) or the realized node count would exceed ``max_nodes``.
    """
    return grow_leaves(dist, t, seed, (), max_nodes, genealogy=True).tree


@dataclass(eq=False)
class GrownLeaves:
    """A tree reduced to its size and the leaf positions of its fields.

    ``positions`` holds one array per field key handed to grow_forest, in
    ascending leaf-id order: the ``x`` that sample_field(tree, key) gives
    on the tree that sample_tree grows from the same (law, t, seed).
    ``tree`` is that tree when grow_forest was asked for its genealogy.
    """

    t: float
    seed: int
    n_nodes: int
    n_leaves: int
    positions: tuple
    tree: GwTree | None = None


def forest_size(dist: OffspringDistribution, t: float) -> int:
    """Trees per lockstep group: GROUP_LEAVES over the projected leaves
    e^((m-1)t) of one tree, at most GROUP_TREES; 1 past e^ALONE_GROWTH
    projected leaves, where a tree grows faster alone."""
    growth = (dist.mean_children - 1.0) * t
    if growth > ALONE_GROWTH:
        return 1
    return min(GROUP_TREES, int(GROUP_LEAVES * math.exp(-growth)))


def screen_maxima(dist: OffspringDistribution, t: float, seeds, field_keys,
                  max_nodes: int = NODE_BUDGET) -> np.ndarray:
    """The max leaf x of many trees on [0, t], grown together as one forest.

    Entry j is np.max(sample_field(sample_tree(dist, t, seeds[j]), x).x)
    for the one key x in field_keys[j], or NaN when tree j grows past
    max_nodes, which stops that tree alone.
    """
    maxima = np.full(len(seeds), -np.inf)
    for live, bounds, _, _, split_at, (x,), _, total in _forest(
            dist, t, seeds, field_keys, max_nodes):
        tops = np.maximum.reduceat(np.where(split_at < t, -np.inf, x),
                                   bounds[:-1])
        maxima[live] = np.maximum(maxima[live], tops)
    maxima[total > max_nodes] = np.nan
    return maxima


def _tree_major(order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The gather that takes items laid in (wave, tree) segments of
    ``counts`` items, wave by wave, to tree by tree, each tree's in wave
    order; ``order`` sorts the segments by tree, stably."""
    sorted_counts = counts.take(order)
    shift = (np.cumsum(counts) - counts).take(order)
    shift -= np.cumsum(sorted_counts) - sorted_counts
    gather = np.repeat(shift, sorted_counts)
    gather += np.arange(gather.size)
    return gather


def grow_forest(dist: OffspringDistribution, t: float, seeds, field_keys,
                max_nodes: int = NODE_BUDGET, genealogy: bool = False) -> list:
    """Grow the tree of each seed and the leaves of its fields in one pass,
    the trees as one forest, keeping only the frontier and the leaves (and,
    with ``genealogy``, every node's parent, birth and split time).

    Entry j is the GrownLeaves of seeds[j]: its tree is the one
    sample_tree(dist, t, seeds[j]) grows, and its positions are the leaf
    x of sample_field(tree, key) for each key in field_keys[j] (every
    seed has as many keys), bit for bit; with ``genealogy``, its ``tree``
    is that GwTree.  A tree past max_nodes gives the error sample_tree
    raises for it instead; a horizon error is raised.
    """
    # offsets[-2] and [-1]: the first node of the last wave and of this one
    waves, chunks, nodes, offsets = [], [], [], [0, 0]
    for live, bounds, cuts, birth, split_at, pos, child_of, total in _forest(
            dist, t, seeds, field_keys, max_nodes):
        if len(seeds) > 1:  # kept for a lone tree, 0.3-0.5 us a wave
            waves.append((live, bounds, cuts))
        if genealogy:  # parents as ids in wave, tree, node order
            nodes.append((child_of + offsets[-2], birth,
                          np.where(split_at < t, split_at, np.nan)))
            offsets.append(offsets[-1] + split_at.size)
        if len(pos) or not genealogy:  # else the trees count the leaves
            chunks.append(pos.take((split_at >= t).nonzero()[0], axis=1))
    # a lone tree's leaves and nodes are in order; the gather would cost it
    # 8-10% per node at t = 10 and 12 (BENCH_oneloop.json)
    segments = _segments(waves) if len(seeds) > 1 else None
    trees = (_genealogies(t, seeds, nodes, offsets[1:], segments)
             if genealogy else [None] * len(seeds))
    positions = np.concatenate(chunks, axis=1) if chunks else np.empty((0, 0))
    del chunks  # laid end to end in positions: free them before the gather
    hi = [trees[0].n_leaves if genealogy else positions.shape[1]]
    if segments is not None:  # from wave, tree, node order to tree, wave, node
        _, counts, order, wave_trees = segments
        hi = np.bincount(wave_trees, counts, len(seeds)).astype(
            np.int64).cumsum().tolist()  # where each tree's leaves end
        if len(positions):
            positions = positions.take(_tree_major(order, counts), axis=1)
    positions = list(positions)
    return [over_budget(max_nodes, t, seed) if n_nodes > max_nodes
            else GrownLeaves(t=float(t), seed=seed, n_nodes=n_nodes,
                             n_leaves=b - a,
                             positions=tuple(p[a:b] for p in positions),
                             tree=tree)
            for seed, n_nodes, a, b, tree in zip(seeds, total.tolist(),
                                                 [0] + hi, hi, trees)]


def _segments(waves: list) -> tuple:
    """A forest's (wave, tree) segments from its waves' (live, bounds,
    cuts): their node and leaf counts, the order that sorts them by tree,
    stably, and their trees."""
    trees, bounds, cuts = map(np.concatenate, zip(*waves))
    sizes = bounds[1:] - bounds[:-1]  # > 0 in a wave, < 0 between two
    in_wave = sizes > 0
    sizes = sizes[in_wave]
    counts = sizes - (cuts[1:] - cuts[:-1])[in_wave]
    return sizes, counts, np.argsort(trees, kind="stable"), trees


def _genealogies(t: float, seeds, nodes: list, offsets: list,
                 segments: tuple | None) -> list:
    """The GwTree of each seed, from the forest's ``nodes``: per wave, its
    nodes' (parents as ids in wave, tree, node order, births, split
    times), the waves starting at ``offsets``.  A forest of more than one
    tree gathers them to tree order as its leaves are gathered, by its
    (wave, tree) ``segments``, and each parent id follows its node there:
    a tree's ids count from its root, in wave order."""
    parent, birth, split = map(np.concatenate, zip(*nodes))
    del nodes[:]  # laid end to end: free them before the gather
    if segments is None:  # a lone tree: its nodes are in order
        return [GwTree(t=float(t), seed=seeds[0], parent=parent, birth=birth,
                       split=split, leaves=np.flatnonzero(np.isnan(split)),
                       gen_offsets=np.array(offsets, np.int64))]
    sizes, _, order, trees = segments
    gather = _tree_major(order, sizes)
    rank = np.empty_like(gather)
    rank[gather] = np.arange(gather.size)
    parent = rank.take(parent.take(gather))
    birth, split = birth.take(gather), split.take(gather)
    offsets = np.append(0, sizes.take(order).cumsum())
    bounds = np.append(0, np.bincount(trees, minlength=len(seeds))
                       .cumsum()).tolist()
    genealogies = []
    for seed, s0, s1 in zip(seeds, bounds, bounds[1:]):
        lo, hi = offsets[s0], offsets[s1]
        tree_parent, tree_split = parent[lo:hi], split[lo:hi]
        tree_parent -= lo
        tree_parent[0] = -1  # the root's, whose wave id was -1
        genealogies.append(GwTree(
            t=float(t), seed=seed, parent=tree_parent, birth=birth[lo:hi],
            split=tree_split, leaves=np.flatnonzero(np.isnan(tree_split)),
            gen_offsets=offsets[s0:s1 + 1] - lo))
    return genealogies


def grow_leaves(dist: OffspringDistribution, t: float, seed: int,
                field_keys=(), max_nodes: int = NODE_BUDGET,
                genealogy: bool = False) -> GrownLeaves:
    """grow_forest for one seed; the error of a tree past max_nodes is
    raised, as sample_tree raises it."""
    (grown,) = grow_forest(dist, t, [seed], [field_keys], max_nodes,
                           genealogy)
    if isinstance(grown, Exception):
        raise grown
    return grown


def _require_leaf(tree: GwTree, node: int) -> None:
    i = np.searchsorted(tree.leaves, node)
    if i >= tree.n_leaves or tree.leaves[i] != node:
        raise ValueError(f"node {node} is not a leaf of this tree")


def overlap(tree: GwTree, k: int, l: int) -> float:
    """Branching time of the most recent common ancestor of two leaves.

    overlap(k, k) = t.  Overlaps take values in [0, t] and ancestry makes
    them ultrametric: overlap(k, l) >= min(overlap(k, j), overlap(j, l)).
    """
    _require_leaf(tree, k)
    _require_leaf(tree, l)
    if k == l:
        return tree.t
    birth = tree.birth
    parent = tree.parent
    a, b = int(k), int(l)
    while a != b:
        # equal birth times mean neither is the other's ancestor: move both
        if birth[a] > birth[b]:
            a = int(parent[a])
        elif birth[b] > birth[a]:
            b = int(parent[b])
        else:
            a = int(parent[a])
            b = int(parent[b])
    return float(tree.split[a])


def pair_sum(tree: GwTree, weights, damp: float) -> float:
    """Sum over ordered pairs k != l of leaves of
    conj(a_l) a_k e^(-damp (t - overlap(tree, k, l))), a = weights in
    ``tree.leaves`` order.

    Each pair of leaves meets at exactly one branch point v, so the sum is
    the sum over internal v of e^(-damp (t - split_v)) (|A_v|^2 - sum_c
    |A_c|^2), where A_v sums a over the leaves below v and c runs over v's
    children; one upward pass over the waves gives every A_v.
    """
    below = np.zeros(tree.n_nodes, dtype=np.complex128)
    below[tree.leaves] = weights
    go = tree.gen_offsets
    for g in range(tree.n_generations - 1, 0, -1):
        sl = slice(go[g], go[g + 1])
        np.add.at(below, tree.parent[sl], below[sl])
    mass = below.real ** 2 + below.imag ** 2
    mass -= np.bincount(tree.parent[1:], mass[1:], tree.n_nodes)
    inner = ~tree.leaf_mask()
    return float(np.exp(-damp * (tree.t - tree.split[inner])) @ mass[inner])
