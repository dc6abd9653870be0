"""Continuous-time Galton-Watson trees on a fixed horizon.

A tree is stored as flat parallel arrays (parent pointer, birth time, split
time) in wave order: the root is node 0 and the children created by wave
``g`` occupy a contiguous id block after all wave-``g`` nodes, grouped by
parent in ascending parent order.  Lifetimes are unit-rate exponentials;
a particle alive at the horizon ``t`` becomes a leaf and its split slot
holds NaN.

One growth loop advances one wave of the population at a time with
vectorized draws, so the node budget can be enforced as the wave grows.
The draw order (one exponential block per wave, one uniform block for the
splitting subset) is frozen: a given (law, t, seed) triple reproduces the
identical tree on any machine.  The loop has two consumers: sample_tree
keeps every node, and grow_leaves lays fields on the waves as they come
and keeps only the frontier and the finished leaves.  A forest loop grows
many small trees a wave at a time in the same draw order for screen_maxima
(each tree's max leaf x) and grow_forest (each tree's GrownLeaves).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .offspring import OffspringDistribution
from .streams import TAG_FIELD, TAG_TREE, make_rng, rekey

NODE_BUDGET = 1 << 27
OVERLAP_LEAF_CAP = 4096
FOREST_LEAVES = 1 << 9  # projected leaves of one lockstep group of trees
POOL_CAP = 256  # generators grow_forest keeps to re-key (207 at t = 2)
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


def _waves(dist: OffspringDistribution, t: float, seed: int,
           max_nodes: int):
    """The growth loop: yield (birth, split_at, child_of) for each wave.

    ``birth`` holds the birth times of the wave's nodes, which take the
    next contiguous block of ids; ``split_at`` is birth plus a unit-rate
    lifetime, and the nodes with split_at < t split.  ``child_of`` gives,
    for each node of the next wave in id order, the wave-local index of
    its parent; it is empty at the last wave.  Per wave the loop draws one
    exponential block and, when some node splits, one uniform per splitter.
    It reads nothing of a wave after yielding it, so a consumer may write
    into the yielded arrays.
    """
    _check_horizon(dist, t, max_nodes)
    rng = make_rng(seed, TAG_TREE)
    birth = np.zeros(1, dtype=np.float64)
    n_total = 1
    while True:
        split_at = birth + rng.standard_exponential(birth.size)
        splitters = np.flatnonzero(split_at < t)
        if splitters.size == 0:
            yield birth, split_at, splitters
            return
        child_of = np.repeat(
            splitters, dist.sample_counts(rng.random(splitters.size)))
        n_total += child_of.size
        if n_total > max_nodes:
            raise over_budget(max_nodes, t, seed)
        next_birth = split_at.take(child_of)
        yield birth, split_at, child_of
        birth = next_birth


def sample_tree(dist: OffspringDistribution, t: float, seed: int,
                max_nodes: int = NODE_BUDGET) -> GwTree:
    """Grow a tree on [0, t] under the given offspring law.

    Raises ResourceLimitError if the projected population (e^((m-1)t) for
    offspring mean m) or the realized node count would exceed ``max_nodes``.
    """
    parent_chunks = [np.full(1, -1, dtype=np.int64)]
    birth_chunks = []
    split_chunks = []
    gen_offsets = [0]
    n_total = 0
    for birth, split_at, child_of in _waves(dist, t, seed, max_nodes):
        split_at[split_at >= t] = np.nan
        birth_chunks.append(birth)
        split_chunks.append(split_at)
        parent_chunks.append(n_total + child_of)
        n_total += birth.size
        gen_offsets.append(n_total)

    split = np.concatenate(split_chunks)
    return GwTree(
        t=float(t),
        seed=seed,
        parent=np.concatenate(parent_chunks),
        birth=np.concatenate(birth_chunks),
        split=split,
        leaves=np.flatnonzero(np.isnan(split)),
        gen_offsets=np.asarray(gen_offsets, dtype=np.int64),
    )


@dataclass(eq=False)
class GrownLeaves:
    """A tree reduced to its size and the leaf positions of its fields.

    ``positions`` holds one array per field key handed to grow_leaves, in
    ascending leaf-id order: the ``x`` that sample_field(tree, key) gives
    on the tree that sample_tree grows from the same (law, t, seed).
    """

    t: float
    seed: int
    n_nodes: int
    n_leaves: int
    positions: tuple


def grow_leaves(dist: OffspringDistribution, t: float, seed: int,
                field_keys=(), max_nodes: int = NODE_BUDGET) -> GrownLeaves:
    """Grow the tree of sample_tree(dist, t, seed) and the leaves of its
    fields in one pass, keeping only the frontier and the finished leaves.

    Each wave draws its increments from every field's make_rng(key,
    TAG_FIELD) stream in node-id order, as sample_field draws them all at
    once, and a node's position is its increment plus its parent's (the
    root's is its increment alone), so the leaves have sample_field's bits.
    Raises ResourceLimitError where sample_tree does.
    """
    rngs = [make_rng(key, TAG_FIELD) for key in field_keys]
    chunks = [[] for _ in rngs]
    starts = [None] * len(rngs)  # parents' positions, one per frontier node
    n_nodes = n_leaves = 0
    for birth, split_at, child_of in _waves(dist, t, seed, max_nodes):
        n_nodes += birth.size
        leaves = np.flatnonzero(split_at >= t)
        n_leaves += leaves.size
        if not rngs:
            continue
        scale = np.minimum(split_at, t)
        scale -= birth
        np.sqrt(scale, out=scale)
        for j, rng in enumerate(rngs):
            pos = rng.standard_normal(birth.size)
            pos *= scale
            if starts[j] is not None:
                pos += starts[j]
            chunks[j].append(pos.take(leaves))
            starts[j] = pos.take(child_of)
    return GrownLeaves(
        t=float(t), seed=seed, n_nodes=n_nodes, n_leaves=n_leaves,
        positions=tuple(np.concatenate(c) for c in chunks))


def forest_size(dist: OffspringDistribution, t: float) -> int:
    """Trees per lockstep group: FOREST_LEAVES over e^((m-1)t), at least 1."""
    return max(1, int(FOREST_LEAVES * math.exp((1 - dist.mean_children) * t)))


def _forest(dist: OffspringDistribution, t: float, streams, max_nodes: int):
    """The forest loop: grow a tree per (tree_rng, *field_rngs) in
    ``streams`` in lockstep, each making the calls of _waves and grow_leaves
    on its streams.  Per wave yield, read-only, the tree of each frontier
    node (by tree, then node id), which of them split, each field at them
    and each tree's node count (past max_nodes once the tree is dropped)."""
    _check_horizon(dist, t, max_nodes)
    tree_rngs, *field_rngs = zip(*streams)
    n = len(streams)
    sizes = np.ones(n, dtype=np.int64)  # frontier nodes, per tree
    total = sizes.copy()
    tree = np.arange(n)                 # the tree of each frontier node
    birth, starts = np.zeros(n), ()     # starts: parents' positions
    while True:
        live = sizes.nonzero()[0]
        ends = np.cumsum(sizes[live]).tolist()
        blocks = list(zip(live.tolist(), [0] + ends, ends))
        split_at = np.empty(tree.size)
        for j, lo, hi in blocks:
            tree_rngs[j].standard_exponential(out=split_at[lo:hi])
        pos = [np.empty(tree.size) for _ in field_rngs]
        for rngs, p in zip(field_rngs, pos):
            for j, lo, hi in blocks:
                rngs[j].standard_normal(out=p[lo:hi])
        split_at += birth
        splits = split_at < t
        scale = np.sqrt(np.minimum(split_at, t) - birth)
        for p in pos:
            p *= scale
        for p, start in zip(pos, starts):
            p += start
        yield tree, splits, pos, total
        splitters = splits.nonzero()[0]
        if splitters.size == 0:
            return
        per_tree = np.bincount(tree.take(splitters), minlength=n)
        uniforms = np.empty(splitters.size)
        counts, lo = per_tree.tolist(), 0
        for j in per_tree.nonzero()[0].tolist():
            tree_rngs[j].random(out=uniforms[lo:lo + counts[j]])
            lo += counts[j]
        child_of = np.repeat(splitters, dist.sample_counts(uniforms))
        tree = tree.take(child_of)
        sizes = np.bincount(tree, minlength=n)
        total += sizes
        if total.max() > max_nodes:  # drop the trees over budget
            sizes[total > max_nodes] = 0
            keep = sizes.take(tree).nonzero()[0]
            child_of, tree = child_of.take(keep), tree.take(keep)
        birth = split_at.take(child_of)
        starts = [p.take(child_of) for p in pos]


def screen_maxima(dist: OffspringDistribution, t: float, streams,
                  max_nodes: int = NODE_BUDGET) -> np.ndarray:
    """The max leaf x of many trees on [0, t], grown together as one forest.

    ``streams`` holds one (tree_rng, x_rng) generator pair per tree:
    tree_rng at the start of the make_rng(seed, TAG_TREE) stream that
    sample_tree(dist, t, seed) reads, x_rng at the start of the
    make_rng(key, TAG_FIELD) stream of sample_field(tree, key).  Entry j
    is then np.max(sample_field(sample_tree(dist, t, seed_j), key_j).x),
    or NaN when tree j grows past max_nodes, which stops that tree alone.
    """
    maxima = np.full(len(streams), -np.inf)
    for tree, splits, (x,), total in _forest(dist, t, streams, max_nodes):
        np.maximum.at(maxima, tree, np.where(splits, -np.inf, x))
    maxima[total > max_nodes] = np.nan
    return maxima


def grow_forest(dist: OffspringDistribution, t: float, seeds, field_keys,
                max_nodes: int = NODE_BUDGET) -> list:
    """Entry j is grow_leaves(dist, t, seeds[j], field_keys[j], max_nodes),
    or the error it raises for tree j past max_nodes, the trees grown as one
    forest; a horizon error is raised.  Every seed has as many field keys."""
    need = len(seeds) * (1 + len(field_keys[0]))
    _POOL.extend(make_rng(0) for _ in range(min(need, POOL_CAP) - len(_POOL)))
    pool = iter(_POOL[:need] + [make_rng(0) for _ in range(need - POOL_CAP)])
    streams = [[rekey(next(pool), seed, TAG_TREE)]
               + [rekey(next(pool), key, TAG_FIELD) for key in keys]
               for seed, keys in zip(seeds, field_keys)]
    trees, positions = [], []
    for tree, splits, pos, total in _forest(dist, t, streams, max_nodes):
        trees.append(tree[~splits])  # by wave, then tree, then node id
        positions.append([p[~splits] for p in pos])
    leaf_tree = np.concatenate(trees)
    order = np.argsort(leaf_tree, kind="stable")  # by tree, then node id
    positions = [np.concatenate(c).take(order) for c in zip(*positions)]
    ends = np.cumsum(np.bincount(leaf_tree, minlength=len(seeds))).tolist()
    return [over_budget(max_nodes, t, seed) if n_nodes > max_nodes
            else GrownLeaves(t=float(t), seed=seed, n_nodes=n_nodes,
                             n_leaves=hi - lo,
                             positions=tuple(p[lo:hi] for p in positions))
            for seed, n_nodes, lo, hi in zip(seeds, total.tolist(),
                                             [0] + ends, ends)]


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


def _subtree_leaf_counts(tree: GwTree) -> np.ndarray:
    count = np.where(tree.leaf_mask(), 1, 0).astype(np.int64)
    go = tree.gen_offsets
    for g in range(tree.n_generations - 1, 0, -1):
        sl = slice(go[g], go[g + 1])
        np.add.at(count, tree.parent[sl], count[sl])
    return count


def _dfs_leaf_positions(tree: GwTree, count: np.ndarray) -> np.ndarray:
    """Start of each node's leaf block in depth-first leaf order.

    Children of one parent occupy consecutive id slots, so a per-wave
    segmented exclusive cumsum of subtree leaf counts places every block.
    """
    pos = np.zeros(tree.n_nodes, dtype=np.int64)
    go = tree.gen_offsets
    for g in range(1, tree.n_generations):
        sl = slice(go[g], go[g + 1])
        c = count[sl]
        p = tree.parent[sl]
        excl = np.cumsum(c) - c
        new_group = np.empty(c.size, dtype=bool)
        new_group[0] = True
        new_group[1:] = p[1:] != p[:-1]
        group_idx = np.cumsum(new_group) - 1
        excl_within = excl - excl[new_group][group_idx]
        pos[sl] = pos[p] + excl_within
    return pos


def overlap_matrix(tree: GwTree,
                   max_leaves: int = OVERLAP_LEAF_CAP) -> np.ndarray:
    """All pairwise overlaps q, rows/cols ordered like ``tree.leaves``."""
    n = tree.n_leaves
    if n > max_leaves:
        raise ResourceLimitError(
            f"{n} leaves exceed the pairwise overlap cap {max_leaves}")
    count = _subtree_leaf_counts(tree)
    pos = _dfs_leaf_positions(tree, count)
    q = np.empty((n, n), dtype=np.float64)
    np.fill_diagonal(q, tree.t)
    # siblings' leaf blocks are adjacent in depth-first order, so a node's
    # leaves meet its later siblings' at its parent's split time
    for i in range(1, tree.n_nodes):
        v = tree.parent[i]
        a, b, end = pos[i], pos[i] + count[i], pos[v] + count[v]
        q[a:b, b:end] = q[b:end, a:b] = tree.split[v]
    rows = pos[tree.leaves]
    return q[np.ix_(rows, rows)]
