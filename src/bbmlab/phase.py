"""Phase classification and limiting free energy of the complex model.

With beta = sigma + i tau, the plane splits into three open regions:

    B2: 2 sigma^2 > 1 and |sigma| + |tau| > sqrt(2)   (glassy)
    B3: 2 sigma^2 < 1 and sigma^2 + tau^2 > 1         (phase-dominated)
    B1: complement of the closure of B2 and B3        (high temperature)

and the limiting free energy p(beta) = lim (1/t) log |X(t)| is conjectured
to take the piecewise form 1 + (sigma^2 - tau^2)/2 on B1, sqrt(2)|sigma|
on B2 and 1/2 + sigma^2 on B3.  The case formulas agree on every shared
closure boundary, which this module asserts whenever it answers on one.

Classification is margin-based: a point is BOUNDARY when some defining
inequality sits within tolerance of equality while the closed form of the
adjoining region holds.  The classifier and the case formulas are purely
analytic; only point_scan and grid_scan below touch the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .field import sample_correlated_pair
from .gwtree import NODE_BUDGET, ResourceLimitError, sample_tree
from .offspring import OffspringDistribution
from .partition import ComplexTemperature, SQRT2, log_partition
from .streams import replica_seed

# No longer called here.  perfbench/spans.py rebinds this name in this
# module to time it, so it stays imported until its BINDINGS move.
from .accum import scaled_exp_sum  # noqa: F401

DEFAULT_TOL = 1e-9


class Region(str, Enum):
    B1 = "B1"
    B2 = "B2"
    B3 = "B3"
    BOUNDARY = "BOUNDARY"


def _margins(beta) -> tuple[float, float, float]:
    bt = ComplexTemperature.of(beta)
    s, u = abs(bt.sigma), abs(bt.tau)
    g1 = 2.0 * s * s - 1.0          # > 0 toward B2/away from B3
    g2 = s + u - SQRT2              # > 0 toward B2
    g3 = s * s + u * u - 1.0        # > 0 toward B3 (when g1 < 0)
    return g1, g2, g3


def classify(beta, tol: float = DEFAULT_TOL) -> Region:
    """Region of beta; symmetric in the signs of both coordinates."""
    if tol < 0.0:
        raise ValueError("tolerance must be nonnegative")
    g1, g2, g3 = _margins(beta)
    in_b2_closure = g1 >= -tol and g2 >= -tol
    in_b3_closure = g1 <= tol and g3 >= -tol
    if in_b2_closure and (abs(g1) <= tol or abs(g2) <= tol):
        return Region.BOUNDARY
    if in_b3_closure and (abs(g1) <= tol or abs(g3) <= tol):
        return Region.BOUNDARY
    if g1 > 0.0 and g2 > 0.0:
        return Region.B2
    if g1 < 0.0 and g3 > 0.0:
        return Region.B3
    return Region.B1


def limiting_free_energy(beta, tol: float = DEFAULT_TOL) -> float:
    """Conjectured p(beta); on a boundary the adjoining cases must agree."""
    bt = ComplexTemperature.of(beta)
    s2 = bt.sigma * bt.sigma
    t2 = bt.tau * bt.tau
    f_b1 = 1.0 + 0.5 * (s2 - t2)
    f_b2 = SQRT2 * abs(bt.sigma)
    f_b3 = 0.5 + s2
    region = classify(beta, tol)
    if region is Region.B1:
        return f_b1
    if region is Region.B2:
        return f_b2
    if region is Region.B3:
        return f_b3
    g1, g2, g3 = _margins(beta)
    candidates = []
    if g1 >= -tol and g2 >= -tol:
        candidates.append(f_b2)
    if g1 <= tol and g3 >= -tol:
        candidates.append(f_b3)
    interior_of_union = ((g1 > tol and g2 > tol)
                         or (g1 < -tol and g3 > tol)
                         or (g2 > tol and g3 > tol))
    if not interior_of_union:
        candidates.append(f_b1)
    # margin-tol points can differ by O(tol * gradient); 8 tol covers it
    agreement = 1e-9 + 8.0 * tol
    if max(candidates) - min(candidates) > agreement:
        raise AssertionError(
            f"case formulas disagree at boundary point {beta!r}: {candidates}")
    return sum(candidates) / len(candidates)


@dataclass(frozen=True)
class GridCell:
    """One scan cell: conjectured value next to its simulation estimate."""

    sigma: float
    tau: float
    phase: str
    p_limit: float
    p_hat: float
    stderr: float
    n_replicas: int
    t: float


def scan_cells(bts, samples, t: float) -> list[GridCell]:
    """One cell per temperature from per-replica lists of p_t at ``bts``.

    Sums run in replica order and the standard error uses the population
    variance, so a scan's cells do not depend on how replicas were run.
    """
    sums = np.zeros(len(bts))
    sums2 = np.zeros(len(bts))
    for ps in samples:
        for j, p in enumerate(ps):
            sums[j] += p
            sums2[j] += p * p
    n_ok = len(samples)
    cells = []
    for j, bt in enumerate(bts):
        if n_ok:
            mean = sums[j] / n_ok
            var = max(sums2[j] / n_ok - mean * mean, 0.0)
            se = math.sqrt(var / n_ok)
        else:
            mean, se = math.nan, math.nan
        cells.append(GridCell(
            sigma=bt.sigma, tau=bt.tau,
            phase=classify(bt).value,
            p_limit=limiting_free_energy(bt),
            p_hat=mean, stderr=se, n_replicas=n_ok, t=float(t)))
    return cells


def point_scan(betas, dist: OffspringDistribution, t: float, replicas: int,
               rho: float, seed: int,
               max_nodes: int = NODE_BUDGET) -> list[GridCell]:
    """Estimate p_t at each beta, reusing one set of field replicas.

    All cells are evaluated on the same simulated fields (the estimates
    share noise but stay unbiased cell by cell), so the cost is one
    simulation pass regardless of how many betas are scanned.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    bts = [ComplexTemperature.of(b) for b in betas]
    samples = []
    for i in range(replicas):
        rs = replica_seed(seed, i)
        try:
            tree = sample_tree(dist, t, rs, max_nodes=max_nodes)
            fld = sample_correlated_pair(tree, rho, rs)
        except ResourceLimitError:
            continue
        samples.append([log_partition(fld, bt) for bt in bts])
    return scan_cells(bts, samples, t)


def grid_betas(sigma_range: tuple[float, float],
               tau_range: tuple[float, float],
               resolution: int) -> list[ComplexTemperature]:
    """Rectangular grid of temperatures, row-major in sigma then tau."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    sig = np.linspace(sigma_range[0], sigma_range[1], resolution)
    tau = np.linspace(tau_range[0], tau_range[1], resolution)
    return [ComplexTemperature.of(complex(s, u)) for s in sig for u in tau]


def grid_scan(sigma_range: tuple[float, float], tau_range: tuple[float, float],
              resolution: int, dist: OffspringDistribution, t: float,
              replicas: int, rho: float, seed: int,
              max_nodes: int = NODE_BUDGET) -> list[GridCell]:
    """point_scan over grid_betas(sigma_range, tau_range, resolution)."""
    return point_scan(grid_betas(sigma_range, tau_range, resolution), dist,
                      t, replicas, rho, seed, max_nodes=max_nodes)
