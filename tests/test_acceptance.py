"""End-to-end acceptance checks, one numbered verdict per criterion.

Each test records a PASS/FAIL line that pytest prints after the run (see
conftest).  Every check uses the committed base seed, so verdicts are
reproducible.  Two checks fail honestly at this scale rather than being
tuned around: the Hill index of the glassy modulus still carries its slow
log-correction bias at t = 12 (criterion 4), and the two deep-glassy
free-energy cells converge like log t / t and sit outside the 0.3 window
at t = 12 (criterion 6).  Runtime budgets are reported in the detail
strings, not asserted, so the suite stays portable across machines.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.stats as sps

from bbmlab import (OffspringDistribution, gaussian_tail_bound,
                    hill_estimator, ks_distance, rescaled_partition, stats)
from bbmlab.experiments import ExperimentConfig, run
from bbmlab.field import correlate
from bbmlab.gwtree import grow_leaves
from bbmlab.phase import GridCell, limiting_free_energy
from bbmlab.streams import pair_keys, replica_seed, stream_key

pytestmark = pytest.mark.acceptance

SEED = 20260825
SQRT2 = math.sqrt(2.0)
BINARY = OffspringDistribution.binary()
GLASSY_BETA = complex(1.2, 0.9)


def verdict(criteria, number, description, passed, detail):
    criteria.record(number, description, passed, detail)
    assert passed, f"criterion {number}: {description}: {detail}"


def z_score(deviation, se):
    """|deviation|/se with the zero-variance edge handled.

    A component that is identically zero in every replica (se = 0) passes
    a within-k-SE check exactly when its deviation is zero too.
    """
    dev = abs(deviation)
    if se == 0.0:
        return 0.0 if dev == 0.0 else math.inf
    return dev / se


def read_rows(path):
    import csv
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def pool_map(fn, n):
    """[fn(i) for i in range(n)] on a process pool, in index order.

    One spawned worker per CPU this process may run on; each value is a
    pure function of i, so the result is the serial loop's, bit for bit.
    The pool already fills every CPU, so each worker gets one BLAS thread:
    with the default of one per CPU, the glassy_run fixture ran slower on
    a 2-CPU host (in 5 of 6 alternating pairs, median 84.5 s against
    80.5 s), though no matrix product runs in it.
    """
    workers = len(os.sched_getaffinity(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("OPENBLAS_NUM_THREADS", "1")
        with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, range(n),
                                 chunksize=max(1, n // (workers * 16))))


def glassy_replica(i):
    """Rescaled partition at GLASSY_BETA and its tau = 0 control, t = 12.

    The replica's leaves are grown with its x and z fields in one pass,
    with the bits of sample_tree + sample_correlated_pair.
    """
    rs = replica_seed(SEED, i)
    leaves = grow_leaves(BINARY, 12.0, rs, pair_keys(rs, 2))
    fld = correlate(leaves, leaves.positions, 0.5)
    return (rescaled_partition(fld, GLASSY_BETA).real_shift,
            rescaled_partition(fld, complex(GLASSY_BETA.real, 0.0)).real_shift)


# ------------------------------------------------------------- fixtures


@pytest.fixture(scope="session")
def glassy_run():
    """4000 replicas of the centered partition modulus pipeline at t=12.

    Returns the complex rescaled values for beta = 1.2+0.9i (rho = 0.5)
    plus the tau = 0 control evaluated on the same fields.
    """
    pairs = np.array(pool_map(glassy_replica, 4000), dtype=np.complex128)
    return {"beta": GLASSY_BETA, "vals": pairs[:, 0], "tau0": pairs[:, 1]}


@pytest.fixture(scope="session")
def max_run(tmp_path_factory):
    """extremal_max experiment: 4000 replicas at t = 10 and t = 13."""
    out = str(tmp_path_factory.mktemp("acc-extremal"))
    cfg = ExperimentConfig(experiment="extremal_max", replicas=4000,
                           t_list=[10.0, 13.0], seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    rows = read_rows(result.outputs["extremal_max.csv"])
    shifts = {}
    zvals = {}
    for t in (10.0, 13.0):
        sel = [r for r in rows if float(r["t"]) == t]
        shifts[t] = np.array([float(r["max_shift"]) for r in sel])
        zvals[t] = np.array([float(r["z_deriv"]) for r in sel])
    return {"result": result, "shifts": shifts, "z": zvals,
            "elapsed": elapsed}


@pytest.fixture(scope="session")
def free_energy_run(tmp_path_factory):
    """Shared-noise scan of the five reference betas at t = 8 and t = 12.

    A list-mode free_energy_scan run; its cells are read back from
    free_energy.csv, whose floats round-trip exactly.
    """
    betas = [complex(0.3, 0.3), complex(2.0, 0.0), complex(1.2, 0.9),
             complex(0.5, 1.5), complex(0.2, 1.2)]
    out = str(tmp_path_factory.mktemp("acc-free-energy"))
    cfg = ExperimentConfig(experiment="free_energy_scan", replicas=500,
                           t_list=[8.0, 12.0], rho=1.0, beta_list=betas,
                           seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    cells = {8.0: [], 12.0: []}
    for r in read_rows(result.outputs["free_energy.csv"]):
        cell = GridCell(sigma=float(r["sigma"]), tau=float(r["tau"]),
                        phase=r["phase"], p_limit=float(r["p_limit"]),
                        p_hat=float(r["p_hat"]), stderr=float(r["stderr"]),
                        n_replicas=int(r["n_replicas"]), t=float(r["t"]))
        cells[cell.t].append(cell)
    return {"betas": betas, "cells": cells, "elapsed": elapsed}


# ------------------------------------------------------------- criteria


def test_population_mean(criteria, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc-tree-moments"))
    cfg = ExperimentConfig(experiment="tree_moments", replicas=2000,
                           t_list=[1.0, 4.0, 8.0], seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    rows = read_rows(result.outputs["tree_moments.csv"])
    zs = {}
    for t in (1.0, 4.0, 8.0):
        ns = np.array([float(r["n_leaves"]) for r in rows
                       if float(r["t"]) == t])
        se = ns.std(ddof=1) / math.sqrt(ns.size)
        zs[t] = (ns.mean() - math.exp(t)) / se
    ok = all(abs(z) <= 3.0 for z in zs.values()) and not result.failures
    detail = ("z=" + "/".join(f"{zs[t]:.2f}" for t in sorted(zs))
              + f", {time.monotonic() - t0:.0f}s (budget 60s)")
    verdict(criteria, 1, "population mean of n(t) within 3 SE of e^t "
            "at t in {1,4,8}, 2000 replicas", ok, detail)


def test_martingale_moments(criteria, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc-martingale"))
    cfg = ExperimentConfig(
        experiment="martingale", replicas=100000, t=2.0,
        beta_list=[complex(0.5, 0.0), complex(0.4, 0.6)],
        rho_list=[0.0, 0.8], seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    worst = 0.0
    for beta in cfg.betas():
        blocks = {rho: result.summary[f"beta={beta} rho={rho}"]
                  for rho in (0.0, 0.8)}
        for blk in blocks.values():
            worst = max(worst,
                        z_score(blk["mean_re"] - 1.0, blk["se_re"]),
                        z_score(blk["mean_im"], blk["se_im"]),
                        z_score(blk["mean_abs2"] - blk["oracle_abs2"],
                                blk["se_abs2"]))
        a, b = blocks[0.0], blocks[0.8]
        worst = max(worst,
                    z_score(a["mean_abs2"] - b["mean_abs2"],
                            math.hypot(a["se_abs2"], b["se_abs2"])))
    ok = worst <= 3.0 and not result.failures
    detail = f"worst z={worst:.2f}, {elapsed:.0f}s (budget 120s)"
    verdict(criteria, 2, "martingale mean 1+0i, |M|^2 matches oracle, "
            "rho 0 vs 0.8 agree (t=2, 1e5 replicas)", ok, detail)


def test_pairwise_sum_oracle(criteria, tmp_path_factory):
    # the pair sum of exp(lam x), lam = 0.5 + 0.4 * 0.3i, damped by
    # (1 - 0.4^2) 0.3^2, against many_to_two_pair_moment with K = 2
    out = str(tmp_path_factory.mktemp("acc-pair-moment"))
    cfg = ExperimentConfig(experiment="pair_moment", replicas=50000, t=3.0,
                           beta_list=[complex(0.5, 0.3)], rho=0.4,
                           seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    s = result.summary
    ok = abs(s["z"]) <= 3.0 and not result.failures
    detail = (f"mc {s['mean']:.1f}+-{s['se']:.1f} vs {s['oracle']:.1f}, "
              f"z={s['z']:.2f}, {elapsed:.0f}s (budget 300s)")
    verdict(criteria, 3, "pairwise overlap-weighted sum within 3 SE of the "
            "two-point moment (t=3, 5e4 replicas)", ok, detail)


def test_glassy_tail_index(criteria, glassy_run):
    moduli = np.abs(glassy_run["vals"])
    target = SQRT2 / 1.2
    fits = {kf: hill_estimator(moduli[moduli > 0], k_fraction=kf).alpha_hat
            for kf in (0.02, 0.05, 0.1)}
    head_ok = abs(fits[0.05] - target) <= 0.15
    sweep_ok = all(abs(v - target) <= 0.2 for v in fits.values())
    ok = head_ok and sweep_ok
    detail = ("hill@kf 0.02/0.05/0.1 = "
              + "/".join(f"{fits[kf]:.4f}" for kf in (0.02, 0.05, 0.1))
              + f", target {target:.4f} (+-0.15 head, +-0.2 sweep)")
    verdict(criteria, 4, "glassy tail index sqrt2/sigma from |rescaled| at "
            "t=12 (4000 replicas)", ok, detail)


def test_isotropy_power(criteria, glassy_run):
    vals = glassy_run["vals"]
    radii = stats.isotropy_radii(vals)
    s = stats.isotropy_statistic(vals, radii)
    cal = stats.isotropy_statistic(
        stats.isotropic_resample(vals, stream_key(77, 0x150)), radii)
    ratio = s / cal
    ctrl = glassy_run["tau0"]
    radii0 = stats.isotropy_radii(ctrl)
    s0 = stats.isotropy_statistic(ctrl, radii0)
    cal0 = stats.isotropy_statistic(
        stats.isotropic_resample(ctrl, stream_key(78, 0x150)), radii0)
    ratio0 = s0 / cal0
    ok = ratio <= 3.0 and ratio0 > 3.0
    detail = f"ratio {ratio:.2f} <= 3; tau=0 control {ratio0:.1f} > 3"
    verdict(criteria, 5, "limit law isotropic within 3x calibration; tau=0 "
            "control rejected", ok, detail)


def test_free_energy_window(criteria, free_energy_run):
    cells = free_energy_run["cells"]
    errs = {}
    for t, row in cells.items():
        errs[t] = [abs(c.p_hat - c.p_limit) for c in row]
    within = [e <= 0.3 for e in errs[12.0]]
    shrink = sum(1 for e8, e12 in zip(errs[8.0], errs[12.0]) if e12 < e8)
    ok = all(within) and shrink >= 4
    labels = [f"{b}" for b in free_energy_run["betas"]]
    detail = ("|err@t12| " + "/".join(f"{e:.3f}" for e in errs[12.0])
              + f" (<=0.3 each) for {labels}; shrink {shrink}/5 (>=4); "
              + f"{free_energy_run['elapsed']:.0f}s (budget 1800s)")
    verdict(criteria, 6, "free energy within 0.3 of p(beta) at t=12 for "
            "five betas and shrinking from t=8", ok, detail)


def test_truncation_negligible(criteria, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc-trunc"))
    cfg = ExperimentConfig(
        experiment="truncation", replicas=2000, t=12.0,
        beta_list=[complex(1.5, 0.5)], rho=1.0,
        a_list=[2.0, 4.0, 6.0, 8.0], seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    ps = [result.summary[f"A={a}"]["p_exceed"]
          for a in (2.0, 4.0, 6.0, 8.0)]
    ok = (result.summary["nonincreasing"]
          and result.summary["final_p_exceed"] <= 0.05
          and not result.failures)
    detail = ("P(|disc|>0.1)=" + "/".join(f"{p:.4f}" for p in ps)
              + f", {elapsed:.0f}s (budget 1200s)")
    verdict(criteria, 7, "discarded truncation mass nonincreasing in A and "
            "<=0.05 at A=8 (t=12, 2000 replicas)", ok, detail)


def test_max_centering_and_tail(criteria, max_run):
    shifts = max_run["shifts"]
    ks = ks_distance(shifts[10.0], shifts[13.0])
    tails = {t: stats.max_tail_exponent(shifts[t]).alpha_hat
             for t in (10.0, 13.0)}
    ok = ks <= 0.05 and all(1.25 <= a <= 1.6 for a in tails.values())
    detail = (f"ks {ks:.4f} <= 0.05; tail t10/t13 = "
              f"{tails[10.0]:.3f}/{tails[13.0]:.3f} in [1.25,1.6]; "
              f"{max_run['elapsed']:.0f}s (budget 1200s)")
    verdict(criteria, 8, "law of max - m(t) stable between t=10 and t=13 "
            "with tail exponent near sqrt2", ok, detail)


def test_bridge_and_tail_bounds(criteria, tmp_path_factory):
    xs = np.linspace(0.1, 10.0, 1000)
    dominates = bool(np.all(gaussian_tail_bound(xs) >= sps.norm.sf(xs)))
    out = str(tmp_path_factory.mktemp("acc-bridge"))
    cfg = ExperimentConfig(experiment="bridge_check", replicas=100000,
                           t=10.0, r=1.0, seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    p_stay = result.summary["p_stay"]
    ok = dominates and result.summary["gauss_tail_dominates"] \
        and p_stay <= 0.25 * 1.1
    detail = (f"tail bound dominates exactly; p_stay {p_stay:.4f} <= 0.275 "
              f"at 1e5 paths, {elapsed:.0f}s (budget 120s)")
    verdict(criteria, 9, "gaussian tail bound dominates on [0.1,10]; bridge "
            "stay probability within its bound", ok, detail)


def test_limit_object_consistency(criteria, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc-limit"))
    cfg = ExperimentConfig(experiment="limit_object", t_cond=6.0,
                           min_clusters=200, replicas=100000,
                           beta_list=[complex(1.5, 0.0)], a_list=[4.0],
                           rho=1.0, seed=SEED, output_dir=out)
    t0 = time.monotonic()
    result = run(cfg)
    elapsed = time.monotonic() - t0
    rows = read_rows(result.outputs["limit_draws.csv"])
    moduli = np.array([float(r["abs"]) for r in rows])
    fit = hill_estimator(moduli[moduli > 0])
    target = SQRT2 / 1.5
    counts = np.array([float(r["n_atoms"]) for r in rows])
    dispersion = counts.var(ddof=1) / counts.mean()
    ok = abs(fit.alpha_hat - target) <= 0.15 \
        and 0.95 <= dispersion <= 1.05 and not result.failures
    detail = (f"hill {fit.alpha_hat:.4f} vs {target:.4f} (+-0.15), "
              f"dispersion {dispersion:.4f} in [0.95,1.05], "
              f"{elapsed:.0f}s (budget 1800s)")
    verdict(criteria, 10, "limit draws from a 200-cluster bank: tail index "
            "and Poisson dispersion", ok, detail)


def test_rerun_determinism(criteria, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("acc-rerun"))
    t0 = time.monotonic()
    identical = []
    for name, cfg in (
            ("tree_moments.csv",
             ExperimentConfig(experiment="tree_moments", replicas=300,
                              t_list=[1.0, 2.0], seed=SEED,
                              output_dir=out)),
            ("martingale.csv",
             ExperimentConfig(experiment="martingale", replicas=100, t=1.5,
                              beta_list=[complex(0.5, 0.0)], seed=SEED,
                              output_dir=out))):
        bodies = []
        for _ in range(2):
            result = run(cfg)
            with open(result.outputs[name], "rb") as fh:
                bodies.append(fh.read())
        identical.append(bodies[0] == bodies[1])
    ok = all(identical)
    detail = (f"tree_moments and martingale bodies byte-identical, "
              f"{time.monotonic() - t0:.0f}s (budget 60s)")
    verdict(criteria, 11, "rerunning an experiment with identical config "
            "and seed reproduces CSV bodies byte for byte", ok, detail)


# ------------------------------------- supporting checks on shared runs


def test_derivative_martingale_median_stable(max_run):
    z = max_run["z"]
    m10, m13 = np.median(z[10.0]), np.median(z[13.0])
    assert abs(m10 - m13) <= 0.15 * max(m10, m13)


def test_max_median_band(max_run):
    # Median of max - m(t) settles at a negative O(1) constant; a missing
    # log correction in m(t) would move it by ~0.28 between these horizons.
    medians = {t: float(np.median(arr)) for t, arr in max_run["shifts"].items()}
    for t, med in medians.items():
        assert -3.0 < med < 0.0, (t, med)
    assert abs(medians[10.0] - medians[13.0]) <= 0.25


def test_extremal_summary_artifacts(max_run):
    summary = max_run["result"].summary
    assert summary["ks_first_last"] <= 0.05
    assert summary["tail"]["alpha_hat"] == pytest.approx(
        stats.max_tail_exponent(max_run["shifts"][13.0]).alpha_hat)
    assert summary["cox"]["c_hat"] > 0.0
    assert math.isfinite(summary["cox"]["sse"])


def test_free_energy_cells_echo_limits(free_energy_run):
    for row in free_energy_run["cells"].values():
        for cell in row:
            assert cell.p_limit == limiting_free_energy(
                complex(cell.sigma, cell.tau))
            assert cell.n_replicas == 500
            assert math.isfinite(cell.stderr)
