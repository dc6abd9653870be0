"""Extremal process of the field and samplers for its limit objects.

The shifted point cloud {x_k(t) - m(t)} converges to a decorated Poisson
point process: Cox atoms with intensity proportional to Z e^(-sqrt(2) y)
dressed with relative clusters, and in the partially correlated regime
each atom additionally carries an independent uniform circle mark.  This
module samples clusters by conditioning deep maxima, fits the Cox constant,
and draws from the composite limit law given a cluster bank.

A cluster conditions a t_cond run on max x >= sqrt(2) t_cond, which few
attempts pass.  sample_clusters screens many seeds' attempts at once,
growing their small trees and x fields as one forest (screen_maxima), and
regrows only each seed's first accepted attempt with its z field, the
accepted attempts of all seeds together as forests (grow_forest); the
clusters are those of trying one attempt at a time.

Cluster decorations for |rho| < 1 reuse the secondary field harvested from
the same conditioned runs that produced each cluster; that is an
approximation to the exact decoration law.  Bank files (v2) store these
decorations next to the atoms, so a loaded bank draws the same law as the
in-memory clusters it was written from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gwtree import (NODE_BUDGET, forest_size, grow_forest, over_budget,
                     screen_maxima)
from .offspring import OffspringDistribution
from .partition import SQRT2
from .streams import (MASK64, TAG_CLUSTER, TAG_COX, TAG_PAIR_X, make_rng,
                      pair_keys, stream_key)

# No longer called here.  perfbench/spans.py rebinds these names in this
# module to time them, so they stay imported until its BINDINGS move.
from .field import sample_correlated_pair  # noqa: F401
from .gwtree import sample_tree  # noqa: F401

DEFAULT_MAX_ATTEMPTS = 100000
# Cluster attempts screened per round, shared among the seeds still
# open: each screens its next ceil(SCREEN_BATCH / open) attempts in one
# forest.  Every batch gives the same clusters; it sets the forest's
# width, and so how far the per-wave cost is shared, against the attempts
# screened past a seed's accepted one (waste, over the attempts needed).
# 100 seeds at t_cond = 6 (3,216 attempts) on the binary law, by seeds
# per call:
#   seeds  screened  waste  forests  mean width
#       6     3,502     9%      204        17.2
#      25     3,316     3%      166        20.0
#      50     3,251     1%      132        24.6
# At 50 seeds a width of 64 wasted 10% and 128 wasted 19%, for no wall
# time gained.
SCREEN_BATCH = 16
# A chunk's limit draws are made in blocks of whole draws holding at most
# this many Cox atoms (a larger single draw is a block of its own).  The
# blocks fix the order of the random stream, so changing this changes
# every draw.
COX_BLOCK = 1 << 14
# Limit draws are cut into chunks of this many draws, each on its own
# stream, so a pool can draw them apart, as bridge_check's BRIDGE_CHUNK
# cuts its paths.  Changing it changes every draw.
COX_CHUNK = 2000


class AcceptanceError(RuntimeError):
    """Rejection sampler exhausted its attempt budget."""


@dataclass(eq=False)
class Cluster:
    """Relative cluster: nonpositive atoms with max pinned at 0.

    ``z_rel`` carries the secondary-field offsets of the conditioned run
    (relative to the atom at 0), used to approximate circle decorations.
    """

    atoms: np.ndarray
    t_cond: float
    max_value: float
    attempts: int
    z_rel: np.ndarray


def sample_cluster(t_cond: float, dist: OffspringDistribution, seed: int,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> Cluster:
    """Draw a cluster by conditioning a run on max >= sqrt(2) t_cond.

    Attempts use substreams indexed by attempt number, so the accepted
    cluster is a deterministic function of (t_cond, dist, seed) no matter
    how attempts are scheduled.  An attempt draws its tree and x field;
    the z field, on its own stream, is drawn only for the accepted
    attempt, so a rejection never pays for it.  This is sample_clusters
    for one seed; its error is raised.
    """
    (cl,) = sample_clusters(t_cond, dist, [seed], max_attempts)
    if isinstance(cl, Exception):
        raise cl
    return cl


def sample_clusters(t_cond: float, dist: OffspringDistribution, seeds,
                    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                    max_nodes: int = NODE_BUDGET) -> list:
    """sample_cluster for every seed, their attempts screened together.

    Entry i is the Cluster of seeds[i] or the error that ended it: an
    AcceptanceError when its max_attempts attempts are all rejected, a
    ResourceLimitError when an attempt's tree grows past max_nodes before
    any attempt is accepted.  One seed's error leaves the others running.

    It works in rounds.  Each open seed screens its next
    ceil(SCREEN_BATCH / open seeds) attempts, all in one screen_maxima
    forest that draws trees and x only; a round's attempt keys and x keys
    come from one array stream_key pass each.  A seed's first attempt in
    attempt order whose max reaches sqrt(2) t_cond is accepted, and the
    attempts screened after it are dropped.  Once every seed is decided,
    the accepted attempts are grown again with their x and z, up to
    forest_size(dist, t_cond) trees per grow_forest call with the keys of
    one pair_keys array pass, which gives the same x; only they ever key a
    z stream.
    """
    if t_cond <= 0.0:
        raise ValueError("t_cond must be positive")
    threshold = SQRT2 * t_cond
    keys = np.array([seed & MASK64 for seed in seeds], np.uint64)
    drawn = [None] * len(seeds)  # accepted: (attempts, attempt key, max)
    tried = [0] * len(seeds)
    pending = list(range(len(seeds)))
    while pending:
        per_seed = -(-SCREEN_BATCH // len(pending))
        batch = [(i, a) for i in pending
                 for a in range(tried[i], min(tried[i] + per_seed,
                                              max_attempts))]
        index, attempt = np.array(batch, np.uint64).T
        subs = stream_key(keys[index], TAG_CLUSTER, attempt)
        x_keys = stream_key(subs, TAG_PAIR_X)[:, None]
        subs = subs.tolist()
        maxima = screen_maxima(dist, t_cond, subs, x_keys, max_nodes)
        for (i, a), sub, top in zip(batch, subs, maxima.tolist()):
            if drawn[i] is not None:
                continue
            tried[i] = a + 1
            if math.isnan(top):
                drawn[i] = over_budget(max_nodes, t_cond, sub)
            elif top >= threshold:
                drawn[i] = (a + 1, sub, top)
        for i in pending:
            if drawn[i] is None and tried[i] >= max_attempts:
                drawn[i] = AcceptanceError(
                    f"no cluster accepted in {max_attempts} attempts at "
                    f"t_cond={t_cond}")
        pending = [i for i in pending if drawn[i] is None]
    accepted = [i for i, d in enumerate(drawn) if isinstance(d, tuple)]
    size = forest_size(dist, t_cond)
    for group in [accepted[lo:lo + size]
                  for lo in range(0, len(accepted), size)]:
        subs = [drawn[i][1] for i in group]
        grown = grow_forest(dist, t_cond, subs, pair_keys(subs, 2), max_nodes)
        for i, leaves in zip(group, grown):
            attempts, _, top = drawn[i]
            x, z = leaves.positions
            assert float(np.max(x)) == top, "regrown attempt lost its max"
            # its leaves sorted by x, relative to the leaf at the max
            order = np.argsort(-x, kind="stable")
            drawn[i] = Cluster(atoms=x[order] - top, t_cond=float(t_cond),
                               max_value=top, attempts=attempts,
                               z_rel=z[order] - z[order[0]])
    return drawn


@dataclass(eq=False)
class LimitModel:
    """Inputs of the limit law: Cox constant, Z weight, cluster bank."""

    cox_constant: float
    z_weight: float
    clusters: list

    def __post_init__(self):
        if self.cox_constant <= 0.0 or self.z_weight <= 0.0:
            raise ValueError("cox_constant and z_weight must be positive")
        if not self.clusters:
            raise ValueError("cluster bank is empty")


@dataclass(eq=False)
class LimitDraws:
    """Limit-partition draws plus the Cox atom count behind each draw."""

    values: np.ndarray
    atom_counts: np.ndarray


def sample_limit_partition(model: LimitModel, beta, rho: float,
                           threshold: float, n_draws: int,
                           seed: int) -> LimitDraws:
    """Draw the truncated limit partition function.

    Cox atoms: N ~ Poisson(C Z e^(sqrt2 A)/sqrt2), positions on [-A, inf)
    with density proportional to e^(-sqrt2 y) (-A plus a standard
    exponential over sqrt2).  Each atom picks a bank cluster uniformly; at
    |rho| = 1 the draw is sum e^(lam (eta + Delta)) with lam = sigma + i
    rho tau for beta = sigma + i tau (y = rho x, so rho = -1 conjugates
    the rho = 1 draw); otherwise each atom carries an independent uniform
    circle mark and the cluster contributes its harvested relative marks
    ``z_rel``.

    The draws are the concatenation of chunks of COX_CHUNK draws (the last
    one partial): chunk c draws from its own stream, keyed
    stream_key(seed, TAG_COX, c), so a pool that draws the chunks apart
    (_limit_chunk, given the _limit_plan made once) gives these bits.
    Memory holds the draws and one chunk's work.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    plan = _limit_plan(model, beta, rho, threshold)
    values = np.empty(n_draws, dtype=np.complex128)
    counts = np.empty(n_draws, dtype=np.int64)
    for lo in range(0, n_draws, COX_CHUNK):
        part = _limit_chunk(plan, seed, n_draws, lo // COX_CHUNK)
        values[lo:lo + COX_CHUNK] = part.values
        counts[lo:lo + COX_CHUNK] = part.atom_counts
    return LimitDraws(values=values, atom_counts=counts)


def _limit_plan(model: LimitModel, beta, rho: float,
                threshold: float) -> tuple:
    """All a chunk of limit draws needs, made once per run: (the
    per-cluster weights W = sum_l e^(lam Delta_l), with the harvested
    marks folded in at |rho| < 1; lam; whether |rho| = 1, so that atoms
    carry no circle marks; the mean atom count; the threshold).  It holds
    K complex numbers, not the bank, so a pool sends it to each chunk."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [-1, 1]")
    full_phase = abs(rho) == 1.0
    # lambda = sigma + i rho tau: the x-correlated part of the phase
    lam = complex(beta.real, rho * beta.imag)
    weights = np.empty(len(model.clusters), dtype=np.complex128)
    for i, cl in enumerate(model.clusters):
        terms = np.exp(lam * cl.atoms)
        if not full_phase:
            terms = terms * np.exp(
                1j * math.sqrt(1.0 - rho * rho) * beta.imag * cl.z_rel)
        weights[i] = terms.sum()
    mean_atoms = (model.cox_constant * model.z_weight
                  * math.exp(SQRT2 * threshold) / SQRT2)
    return weights, lam, full_phase, mean_atoms, threshold


def _cox_key(seed: int, chunk: int) -> int:
    """The Philox key of chunk ``chunk`` of the limit draws of ``seed``."""
    return stream_key(seed, TAG_COX, chunk)


def _limit_chunk(plan: tuple, seed: int, n_draws: int,
                 chunk: int) -> LimitDraws:
    """Chunk ``chunk`` of sample_limit_partition's n_draws draws: draws
    [chunk * COX_CHUNK, min((chunk + 1) * COX_CHUNK, n_draws)).

    Its atom counts come from one Poisson call.  The atoms are then drawn
    in blocks of whole draws of at most COX_BLOCK atoms (a larger draw is
    its own block): per block the exponentials, the cluster picks and, at
    |rho| < 1, the mark uniforms, each as one array, with one unit-phase
    factor per atom only when there is a phase, summed per draw with
    np.add.reduceat.  Memory is bounded by the block, not by the draws
    times the mean atom count, and a draw without atoms is exactly 0j.
    """
    weights, lam, full_phase, mean_atoms, threshold = plan
    n_draws = min(COX_CHUNK, n_draws - chunk * COX_CHUNK)
    rng = make_rng(_cox_key(seed, chunk))
    counts = rng.poisson(mean_atoms, n_draws)
    values = np.zeros(n_draws, dtype=np.complex128)
    first = np.concatenate(([0], np.cumsum(counts)))  # first atom of draw i
    lo = 0
    while lo < n_draws:
        hi = int(np.searchsorted(first, first[lo] + COX_BLOCK,
                                 side="right")) - 1
        hi = max(hi, lo + 1)
        n = int(first[hi] - first[lo])
        if n:
            eta = -threshold + rng.standard_exponential(n) / SQRT2
            terms = weights[rng.integers(0, len(weights), n)]
            terms *= np.exp(lam.real * eta)
            phase = lam.imag * eta if lam.imag else None
            if not full_phase:
                marks = 2.0 * math.pi * rng.random(n)
                phase = marks if phase is None else phase + marks
            if phase is not None:
                terms *= np.exp(1j * phase)
            drawn = lo + np.flatnonzero(counts[lo:hi])
            values[drawn] = np.add.reduceat(terms, first[drawn] - first[lo])
        lo = hi
    return LimitDraws(values=values, atom_counts=counts)


@dataclass(frozen=True)
class CoxFit:
    """Least-squares fit of the limit max law to empirical maxima."""

    c_hat: float
    sse: float


def estimate_cox_constants(max_shifts, z_samples) -> CoxFit:
    """Fit C in P(max - m(t) <= y) = E exp(-C Z e^(-sqrt2 y)).

    The expectation over Z uses an empirical quantile profile of at most
    2000 points of ``z_samples``; C minimizes the squared CDF discrepancy
    over a 50-point y-grid spanning the central 90 percent of the maxima.
    """
    # scipy.optimize is slow to import, and only this fit needs it
    from scipy.optimize import minimize_scalar
    mx = np.asarray(max_shifts, dtype=np.float64)
    zs = np.asarray(z_samples, dtype=np.float64)
    if mx.size < 500 or zs.size < 500:
        raise ValueError("need >= 500 samples of both maxima and Z")
    if np.all(zs <= 0.0):
        raise ValueError("Z samples carry no positive mass; C is not "
                         "identifiable")
    lo, hi = np.quantile(mx, [0.05, 0.95])
    if not hi > lo:
        raise ValueError("degenerate max sample (no spread)")
    grid = np.linspace(lo, hi, 50)
    emp = np.searchsorted(np.sort(mx), grid, side="right") / mx.size
    m = min(2000, zs.size)
    z_prof = np.quantile(zs, (np.arange(m) + 0.5) / m)
    z_prof = z_prof[z_prof > 0.0]
    decay = np.exp(-SQRT2 * grid)

    def sse(log_c: float) -> float:
        model = np.exp(-math.exp(log_c) * np.outer(z_prof, decay)).mean(axis=0)
        return float(((model - emp) ** 2).sum())

    res = minimize_scalar(sse, bounds=(-14.0, 14.0), method="bounded",
                          options={"xatol": 1e-8})
    return CoxFit(c_hat=float(math.exp(res.x)), sse=float(res.fun))


def save_cluster_bank(path, clusters, dist: OffspringDistribution) -> None:
    """Write clusters as line-oriented text: header, one cluster per line.

    A cluster line holds its atoms, ``|`` and its z_rel decorations
    (bank format v2).
    """
    if not clusters:
        raise ValueError("refusing to write an empty bank")
    attempts = sum(c.attempts for c in clusters)
    law = ",".join(f"{k}:{p!r}" for k, p in dist.to_pairs())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# cluster-bank v2\n")
        fh.write(f"# t_cond={clusters[0].t_cond!r}\n")
        fh.write(f"# offspring={law}\n")
        fh.write(f"# accepted={len(clusters)} attempts={attempts} "
                 f"acceptance_rate={len(clusters) / attempts!r}\n")
        for cl in clusters:
            fh.write(" ".join(repr(float(a)) for a in cl.atoms) + " | "
                     + " ".join(repr(float(z)) for z in cl.z_rel) + "\n")


def load_cluster_bank(path) -> tuple[list, dict]:
    """Read a v2 bank file; returns (clusters, header metadata).

    Every cluster line must carry its decorations: a v1 file (atoms only)
    raises ValueError.
    """
    clusters = []
    meta: dict = {}
    t_cond = math.nan
    with open(path, "r", encoding="ascii") as fh:
        if fh.readline().strip() != "# cluster-bank v2":
            raise ValueError(f"{path!r} is not a v2 cluster bank file")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if "=" in token:
                        key, val = token.split("=", 1)
                        meta[key] = val
                continue
            atoms_text, _, z_text = line.partition("|")
            atoms = np.array([float(v) for v in atoms_text.split()])
            if atoms.size == 0 or atoms[0] != 0.0 or np.any(atoms > 0.0):
                raise ValueError(
                    f"malformed cluster line in {path!r}: atoms must be "
                    "nonpositive with the first pinned at 0")
            z_rel = np.array([float(v) for v in z_text.split()])
            if z_rel.size != atoms.size or z_rel[0] != 0.0:
                raise ValueError(
                    f"malformed cluster line in {path!r}: z_rel after "
                    "'|' must match the atoms in length and start at 0")
            clusters.append(Cluster(atoms=atoms, t_cond=t_cond,
                                    max_value=math.nan, attempts=0,
                                    z_rel=z_rel))
    if "t_cond" in meta:
        t_cond = float(meta["t_cond"])
        for cl in clusters:
            cl.t_cond = t_cond
    if not clusters:
        raise ValueError(f"bank file {path!r} holds no clusters")
    return clusters, meta
