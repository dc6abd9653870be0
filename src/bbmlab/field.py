"""Branching Brownian motion fields on a sampled tree.

Conditionally on the tree, each edge of duration d carries an independent
N(0, d) increment and a particle's position is the increment sum along its
ancestry, which makes Cov(x_k, x_l) the branching time of the most recent
common ancestor.  A correlated pair attaches a second, independent copy z
of the field on the same tree and sets y = rho x + sqrt(1 - rho^2) z
componentwise; at rho = +-1 no z is drawn and y is exactly +-x.

Endpoint increments and path interiors come from separate substreams, so a
field sampled with keep_paths=True has bit-identical leaf positions to the
same seed sampled without paths.  Interiors are Brownian bridges between
fixed endpoints on a uniform grid of step PATH_STEP, which is the exact
conditional law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gwtree import GrownLeaves, GwTree
from .oracles import envelope_curve
from .streams import (TAG_BRIDGE, TAG_FIELD, TAG_PAIR_X, TAG_PAIR_Z,
                      make_rng, stream_key)

PATH_STEP = 0.05


class PathDataMissing(RuntimeError):
    """Operation needs stored path interiors, but the field has none."""


@dataclass(frozen=True)
class EnvelopeSpec:
    """Barrier parameters: exponent gamma in (0, 1/2), margin r >= 0."""

    gamma: float
    r: float

    def __post_init__(self):
        if not (0.0 < self.gamma < 0.5):
            raise ValueError(f"gamma must lie in (0, 1/2), got {self.gamma!r}")
        if self.r < 0.0:
            raise ValueError(f"r must be nonnegative, got {self.r!r}")


@dataclass(eq=False)
class EdgePaths:
    """Interior path samples per edge, CSR-indexed by node id."""

    step: float
    times: np.ndarray    # absolute times, grouped by node
    values: np.ndarray   # absolute positions at those times
    offsets: np.ndarray  # length n_nodes + 1


@dataclass(eq=False)
class BbmField:
    """One scalar field: node positions at edge ends, leaves as a view."""

    tree: GwTree
    seed: int
    node_pos: np.ndarray
    paths: EdgePaths | None = None

    @property
    def x(self) -> np.ndarray:
        return self.node_pos[self.tree.leaves]

    @property
    def t(self) -> float:
        return self.tree.t


@dataclass(eq=False)
class CorrelatedField:
    """Leaf energies (x, y) with y = rho x + sqrt(1-rho^2) z on one tree.

    ``tree`` is the GwTree that x_field and z_field were drawn on, or, for
    leaves streamed by grow_leaves, its GrownLeaves record; such a pair
    has no node positions, so x_field and z_field are None.
    """

    tree: GwTree | GrownLeaves
    rho: float
    seed: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None
    x_field: BbmField | None = None
    z_field: BbmField | None = None

    @property
    def t(self) -> float:
        return self.tree.t

    @property
    def paths(self) -> EdgePaths | None:
        return None if self.x_field is None else self.x_field.paths


def _accumulate_down(tree: GwTree, values: np.ndarray) -> np.ndarray:
    """In place: add each node's parent total wave by wave."""
    go = tree.gen_offsets
    for g in range(1, tree.n_generations):
        sl = slice(go[g], go[g + 1])
        values[sl] += values[tree.parent[sl]]
    return values


def _bridge_interiors(tree: GwTree, node_pos: np.ndarray,
                      increments: np.ndarray, rng: np.random.Generator,
                      step: float) -> EdgePaths:
    dur = tree.edge_end() - tree.birth
    n_interior = np.maximum(
        0, np.ceil(dur / step).astype(np.int64) - 1)
    offsets = np.concatenate(
        ([0], np.cumsum(n_interior))).astype(np.int64)
    total_interior = int(offsets[-1])
    if total_interior == 0:
        return EdgePaths(step=step, times=np.empty(0), values=np.empty(0),
                         offsets=offsets)

    sel = np.flatnonzero(n_interior > 0)
    m = n_interior[sel]
    n_sub = m + 1  # interior steps plus the closing step to the endpoint
    seg_offsets = np.concatenate(([0], np.cumsum(n_sub)))
    total_sub = int(seg_offsets[-1])

    sizes = np.full(total_sub, step, dtype=np.float64)
    sizes[seg_offsets[1:] - 1] = dur[sel] - m * step
    g = rng.standard_normal(total_sub) * np.sqrt(sizes)
    cs = np.cumsum(g)
    seg_start = seg_offsets[:-1]
    base = cs[seg_start] - g[seg_start]
    b = cs - np.repeat(base, n_sub)
    b_end = b[seg_offsets[1:] - 1]

    j = np.arange(total_sub) - np.repeat(seg_start, n_sub)
    interior = j < np.repeat(m, n_sub)
    u = (j[interior] + 1.0) * step
    edge_of = np.repeat(np.arange(sel.size), n_sub)[interior]
    frac = u / dur[sel][edge_of]
    w_end = increments[sel][edge_of]
    start = node_pos[sel] - increments[sel]  # position at edge birth
    vals = start[edge_of] + b[interior] - frac * (b_end[edge_of] - w_end)
    times = tree.birth[sel][edge_of] + u
    return EdgePaths(step=step, times=times, values=vals, offsets=offsets)


def sample_field(tree: GwTree, seed: int,
                 keep_paths: bool = False) -> BbmField:
    """Draw one field on the tree; see module docstring for the law."""
    rng = make_rng(seed, TAG_FIELD)
    dur = tree.edge_end() - tree.birth
    increments = rng.standard_normal(tree.n_nodes) * np.sqrt(dur)
    node_pos = _accumulate_down(tree, increments.copy())
    paths = None
    if keep_paths:
        paths = _bridge_interiors(tree, node_pos, increments,
                                  make_rng(seed, TAG_BRIDGE), PATH_STEP)
    return BbmField(tree=tree, seed=seed, node_pos=node_pos, paths=paths)


def correlate(tree: GwTree | GrownLeaves, x: np.ndarray,
              z: np.ndarray | None, rho: float, seed: int,
              x_field: BbmField | None = None,
              z_field: BbmField | None = None) -> CorrelatedField:
    """The pair view y = rho x + sqrt(1-rho^2) z of two leaf arrays.

    At |rho| = 1 z and z_field are not read (pass None) and y is exactly
    +-x.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho!r}")
    if abs(rho) == 1.0:
        return CorrelatedField(tree=tree, rho=rho, seed=seed, x=x,
                               y=math.copysign(1.0, rho) * x, z=None,
                               x_field=x_field)
    y = rho * x + math.sqrt(1.0 - rho * rho) * z
    return CorrelatedField(tree=tree, rho=rho, seed=seed, x=x, y=y, z=z,
                           x_field=x_field, z_field=z_field)


def sample_correlated_pair(tree: GwTree, rho: float, seed: int,
                           keep_paths: bool = False) -> CorrelatedField:
    """Draw (x, y) with correlation rho; paths (if kept) belong to x."""
    x_field = sample_field(tree, stream_key(seed, TAG_PAIR_X),
                           keep_paths=keep_paths)
    if abs(rho) == 1.0:
        return correlate(tree, x_field.x, None, rho, seed, x_field)
    z_field = sample_field(tree, stream_key(seed, TAG_PAIR_Z))
    return correlate(tree, x_field.x, z_field.x, rho, seed, x_field,
                     z_field)


def max_position(field) -> tuple[float, int]:
    """(max leaf x, leaf id); ties resolve to the smallest leaf id."""
    x = field.x
    idx = int(np.argmax(x))
    return float(x[idx]), int(field.tree.leaves[idx])


def envelope_violations(field, spec: EnvelopeSpec) -> int:
    """Count leaves whose ancestral path exits x(s) <= U_{t,gamma}(s).

    The path is checked at every stored point (edge interiors on the grid
    plus edge endpoints) with time in [r, t - r].  Requires a field sampled
    with keep_paths=True.
    """
    t = field.t
    if t <= 2.0 * spec.r:
        raise ValueError(f"need t > 2r, got t={t!r}, r={spec.r!r}")
    if field.paths is None:
        raise PathDataMissing(
            "envelope check needs a field sampled with keep_paths=True")
    x_field = field.x_field if isinstance(field, CorrelatedField) else field
    tree = x_field.tree

    lo, hi = spec.r, t - spec.r
    viol = np.zeros(tree.n_nodes, dtype=bool)

    s_end = tree.edge_end()
    at_end = (s_end >= lo) & (s_end <= hi)
    viol[at_end] = x_field.node_pos[at_end] > envelope_curve(
        s_end[at_end], t, spec.gamma)

    paths = x_field.paths
    if paths.times.size:
        in_window = (paths.times >= lo) & (paths.times <= hi)
        exceed = np.zeros(paths.times.size, dtype=bool)
        exceed[in_window] = paths.values[in_window] > envelope_curve(
            paths.times[in_window], t, spec.gamma)
        cum = np.concatenate(([0], np.cumsum(exceed)))
        per_node = cum[paths.offsets[1:]] - cum[paths.offsets[:-1]]
        viol |= per_node > 0

    go = tree.gen_offsets
    for g in range(1, tree.n_generations):
        sl = slice(go[g], go[g + 1])
        viol[sl] |= viol[tree.parent[sl]]
    return int(np.count_nonzero(viol[tree.leaves]))
