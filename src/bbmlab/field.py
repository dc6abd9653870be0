"""Branching Brownian motion fields on a sampled tree.

Conditionally on the tree, each edge of duration d carries an independent
N(0, d) increment and a particle's position is the increment sum along its
ancestry, which makes Cov(x_k, x_l) the branching time of the most recent
common ancestor.  A correlated pair attaches a second, independent copy z
of the field on the same tree and sets y = rho x + sqrt(1 - rho^2) z
componentwise; at rho = +-1 no z is drawn and y is exactly +-x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gwtree import GrownLeaves, GwTree
from .streams import TAG_FIELD, TAG_PAIR_X, TAG_PAIR_Z, make_rng, stream_key


@dataclass(eq=False)
class BbmField:
    """One scalar field: node positions at edge ends, leaves as a view."""

    tree: GwTree
    seed: int
    node_pos: np.ndarray

    @property
    def x(self) -> np.ndarray:
        return self.node_pos[self.tree.leaves]

    @property
    def t(self) -> float:
        return self.tree.t


@dataclass(eq=False)
class CorrelatedField:
    """Leaf energies (x, y) with y = rho x + sqrt(1-rho^2) z on one tree.

    ``tree`` is the GwTree the leaves were drawn on or, for leaves
    streamed by grow_leaves, its GrownLeaves record.
    """

    tree: GwTree | GrownLeaves
    rho: float
    seed: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None

    @property
    def t(self) -> float:
        return self.tree.t


def _accumulate_down(tree: GwTree, values: np.ndarray) -> np.ndarray:
    """In place: add each node's parent total wave by wave."""
    go = tree.gen_offsets
    for g in range(1, tree.n_generations):
        sl = slice(go[g], go[g + 1])
        values[sl] += values[tree.parent[sl]]
    return values


def sample_field(tree: GwTree, seed: int) -> BbmField:
    """Draw one field on the tree; see module docstring for the law."""
    rng = make_rng(seed, TAG_FIELD)
    dur = tree.edge_end() - tree.birth
    increments = rng.standard_normal(tree.n_nodes) * np.sqrt(dur)
    return BbmField(tree=tree, seed=seed,
                    node_pos=_accumulate_down(tree, increments))


def correlate(tree: GwTree | GrownLeaves, x: np.ndarray,
              z: np.ndarray | None, rho: float, seed: int) -> CorrelatedField:
    """The pair view y = rho x + sqrt(1-rho^2) z of two leaf arrays.

    At |rho| = 1 z is not read (pass None) and y is exactly +-x.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho!r}")
    if abs(rho) == 1.0:
        return CorrelatedField(tree=tree, rho=rho, seed=seed, x=x,
                               y=math.copysign(1.0, rho) * x, z=None)
    y = rho * x + math.sqrt(1.0 - rho * rho) * z
    return CorrelatedField(tree=tree, rho=rho, seed=seed, x=x, y=y, z=z)


def sample_correlated_pair(tree: GwTree, rho: float,
                           seed: int) -> CorrelatedField:
    """Draw (x, y) with correlation rho on the tree."""
    x = sample_field(tree, stream_key(seed, TAG_PAIR_X)).x
    if abs(rho) == 1.0:
        return correlate(tree, x, None, rho, seed)
    z = sample_field(tree, stream_key(seed, TAG_PAIR_Z)).x
    return correlate(tree, x, z, rho, seed)


def max_position(field) -> tuple[float, int]:
    """(max leaf x, leaf id); ties resolve to the smallest leaf id.

    Leaves streamed by grow_leaves keep no leaf ids; their leaf is named
    by its index in leaf-id order.
    """
    x = field.x
    idx = int(np.argmax(x))
    if isinstance(field.tree, GrownLeaves):
        return float(x[idx]), idx
    return float(x[idx]), int(field.tree.leaves[idx])
