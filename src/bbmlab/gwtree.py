"""Continuous-time Galton-Watson trees on a fixed horizon.

A tree is stored as flat parallel arrays (parent pointer, birth time, split
time) in wave order: the root is node 0 and the children created by wave
``g`` occupy a contiguous id block after all wave-``g`` nodes, grouped by
parent in ascending parent order.  Lifetimes are unit-rate exponentials;
a particle alive at the horizon ``t`` becomes a leaf and its split slot
holds NaN.

Construction advances one wave of the population at a time with vectorized
draws, so memory stays O(total nodes) and the node budget can be enforced
as the wave grows.  The draw order (one exponential block per wave, one
uniform block for the splitting subset) is frozen: a given (law, t, seed)
triple reproduces the identical tree on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .offspring import OffspringDistribution
from .streams import TAG_TREE, make_rng

NODE_BUDGET = 1 << 27
OVERLAP_LEAF_CAP = 4096


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
    _children: tuple | None = field(default=None, repr=False)

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

    def children_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, offsets): children of node i are order[offsets[i]:offsets[i+1]]."""
        if self._children is None:
            n = self.n_nodes
            if n == 1:
                order = np.empty(0, dtype=np.int64)
                offsets = np.zeros(2, dtype=np.int64)
            else:
                # child ids are already grouped by parent in ascending order
                order = np.arange(1, n, dtype=np.int64)
                counts = np.bincount(self.parent[1:], minlength=n)
                offsets = np.concatenate(
                    ([0], np.cumsum(counts))).astype(np.int64)
            object.__setattr__(self, "_children", (order, offsets))
        return self._children

    def children_of(self, node: int) -> np.ndarray:
        order, offsets = self.children_csr()
        return order[offsets[node]:offsets[node + 1]]

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


def sample_tree(dist: OffspringDistribution, t: float, seed: int,
                max_nodes: int = NODE_BUDGET) -> GwTree:
    """Grow a tree on [0, t] under the given offspring law.

    Raises ResourceLimitError if the projected population (e^((m-1)t) for
    offspring mean m) or the realized node count would exceed ``max_nodes``.
    """
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"horizon t must be finite and >= 0, got {t!r}")
    mean = dist.mean_children
    if (mean - 1.0) * t > math.log(max_nodes):
        raise ResourceLimitError(
            f"projected leaf count exp({(mean - 1.0) * t:.2f}) exceeds the "
            f"node budget {max_nodes}")

    rng = make_rng(seed, TAG_TREE)

    parent_chunks = [np.full(1, -1, dtype=np.int64)]
    birth_chunks = [np.zeros(1, dtype=np.float64)]
    split_chunks = []
    gen_offsets = [0, 1]

    # the frontier is always the contiguous id block [lo, n_total)
    lo = 0
    n_total = 1
    frontier_birth = birth_chunks[0]

    while True:
        split_at = frontier_birth + rng.standard_exponential(n_total - lo)
        split_at[split_at >= t] = np.nan
        split_chunks.append(split_at)
        splitters = np.flatnonzero(split_at < t)
        if splitters.size == 0:
            break
        counts = dist.sample_counts(rng.random(splitters.size))
        child_parent = np.repeat(lo + splitters, counts)
        frontier_birth = np.repeat(split_at[splitters], counts)
        lo = n_total
        n_total += child_parent.size
        if n_total > max_nodes:
            raise ResourceLimitError(
                f"tree grew past the node budget {max_nodes} "
                f"(t={t}, seed={seed})")
        parent_chunks.append(child_parent)
        birth_chunks.append(frontier_birth)
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


@dataclass(eq=False)
class OverlapMatrix:
    """Dense leaf-by-leaf overlap table in ``leaf_ids`` order."""

    t: float
    leaf_ids: np.ndarray
    q: np.ndarray


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
                   max_leaves: int = OVERLAP_LEAF_CAP) -> OverlapMatrix:
    """All pairwise overlaps, rows/cols ordered like ``tree.leaves``."""
    n = tree.n_leaves
    if n > max_leaves:
        raise ResourceLimitError(
            f"{n} leaves exceed the pairwise overlap cap {max_leaves}")
    count = _subtree_leaf_counts(tree)
    pos = _dfs_leaf_positions(tree, count)
    q = np.empty((n, n), dtype=np.float64)
    np.fill_diagonal(q, tree.t)
    order, offsets = tree.children_csr()
    internal = np.flatnonzero(~tree.leaf_mask())
    for v in internal:
        kids = order[offsets[v]:offsets[v + 1]]
        s = tree.split[v]
        for i in range(kids.size):
            a = pos[kids[i]]
            b = a + count[kids[i]]
            for j in range(i + 1, kids.size):
                c = pos[kids[j]]
                d = c + count[kids[j]]
                q[a:b, c:d] = s
                q[c:d, a:b] = s
    rows = pos[tree.leaves]
    q = q[np.ix_(rows, rows)]
    return OverlapMatrix(t=tree.t, leaf_ids=tree.leaves.copy(), q=q)
