"""The four benchmark workloads: generated configs and correctness gates.

Each workload is one ``bbmlab.experiments.run`` config built from the
workload seed alone, plus a check of the run's summary against the closed
form that the experiment targets.  The sizes keep one pooled run near 1.5
seconds on a 2-core machine, so a measured window holds a dozen runs.

This module imports no numpy at load time: ``run.py`` uses it to write the
config file for the set-up probes before any bbmlab import.
"""

from __future__ import annotations

import csv
import math

DEFAULT_SEED = 20260825

# Why each workload exists, and what it leaves out, is recorded in
# BENCHMARK.json and perfbench/baseline.json; the configs below are the
# only inputs the program receives.
_CONFIGS = {
    # t = 10 trees of ~2.2e4 leaves: per-node array work in gwtree, field,
    # partition and accum dominates.  Tree size is roughly exponential in
    # law, so one run's work varies across seeds like 1/sqrt(replicas): 24
    # replicas at t = 12 swing ~35%, 200 at t = 10 about 7%, and the median
    # over a window's runs (each on fresh replicas) shrinks that further.
    "deep_truncation": {
        "experiment": "truncation", "replicas": 200, "t": 10.0, "rho": 0.5,
        "beta_list": ["1.5+0.5i"], "a_list": [2.0, 4.0, 6.0, 8.0],
    },
    # t = 2 trees of ~4 leaves: fixed per-call cost (Philox set-up, the
    # offspring law rebuilt per replica, pickling, rows) dominates.
    "shallow_martingale": {
        "experiment": "martingale", "replicas": 4000, "t": 2.0,
        "beta_list": ["0.5", "0.4+0.6i"], "rho_list": [0.0, 0.8],
    },
    # The only path through phase.point_scan: serial in the parent, x field
    # only, 16 scaled_exp_sum reductions per field.  t = 8 with 200
    # replicas for the same steadiness as deep_truncation.
    "phase_grid": {
        "experiment": "free_energy_scan", "replicas": 200, "t": 8.0,
        "rho": 1.0, "sigma_range": [0.2, 2.0], "tau_range": [0.0, 1.5],
        "resolution": 4,
    },
    # The only workload through the extremal layer: rejection-sampled
    # clusters on the pool, then the Cox loop in the parent.  100 clusters
    # (criterion 10 uses 200) keep a run near 1.5 s.
    "cluster_limit": {
        "experiment": "limit_object", "replicas": 20000, "t_cond": 6.0,
        "min_clusters": 100, "a_list": [4.0], "beta_list": ["1.5"],
        "rho": 1.0,
    },
}

NAMES = tuple(_CONFIGS)


def config(name: str, seed: int, threads: int, output_dir: str) -> dict:
    """The JSON config for one run of ``name`` at ``seed``."""
    cfg = dict(_CONFIGS[name])
    cfg.update(seed=int(seed), threads=int(threads), output_dir=output_dir)
    return cfg


def iteration_seed(seed: int, j: int) -> int:
    """Base seed of the j-th run in a measured window; run 0 uses ``seed``.

    Replica i of a run draws from base XOR i (i < 2^48), so distinct runs
    share no replica and their input-size noise averages out in the median.
    """
    return seed ^ (j << 48)


# Each statistical test is Stouffer-combined over a window's runs and then
# held to Z_LIMIT.  A 3 SE gate fails a correct program with probability
# 0.27% per test, and the martingale workload makes ten tests per window
# across dozens of windows; at 4.5 SE that is 7e-6 per test.
Z_LIMIT = 4.5


def _check_martingale(cfg, result):
    from bbmlab.oracles import martingale_second_moment
    from bbmlab.experiments import parse_complex
    problems, zscores = [], {}
    for b in cfg["beta_list"]:
        beta = parse_complex(b)
        # K = 2: the configs keep bbmlab's default binary offspring law
        oracle = martingale_second_moment(beta, cfg["t"], 2.0,
                                          allow_unbounded=True)
        for rho in cfg["rho_list"]:
            label = f"beta={beta} rho={float(rho)}"
            cell = result.summary.get(label)
            if cell is None:
                problems.append(f"no summary cell for {label}")
                continue
            if cell["replicas"] != cfg["replicas"]:
                problems.append(f"{label}: {cell['replicas']} replicas")
            for key, target in (("re", 1.0), ("im", 0.0),
                                ("abs2", oracle)):
                mean, se = cell[f"mean_{key}"], cell[f"se_{key}"]
                if se > 0.0:
                    zscores[f"{label} mean_{key}"] = (mean - target) / se
                elif mean != target:
                    problems.append(f"{label}: mean_{key} {mean} with zero "
                                    f"spread is not {target}")
    return problems, zscores


def _check_truncation(cfg, result):
    problems = []
    if result.summary.get("nonincreasing") is not True:
        problems.append("P(|discarded| > delta) increases with A")
    for a in cfg["a_list"]:
        n = result.summary.get(f"A={float(a)}", {}).get("n")
        if n != cfg["replicas"]:
            problems.append(f"A={a}: {n} of {cfg['replicas']} replicas")
    return problems, {}


def _check_phase_grid(cfg, result):
    from bbmlab.phase import limiting_free_energy
    problems = []
    with open(result.outputs["free_energy.csv"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    if len(rows) != cfg["resolution"] ** 2:
        problems.append(f"{len(rows)} cells, expected "
                        f"{cfg['resolution'] ** 2}")
    for row in rows:
        beta = complex(float(row["sigma"]), float(row["tau"]))
        if float(row["p_limit"]) != limiting_free_energy(beta):
            problems.append(f"beta={beta}: p_limit {row['p_limit']} is not "
                            "limiting_free_energy")
        if int(row["n_replicas"]) != cfg["replicas"]:
            problems.append(f"beta={beta}: {row['n_replicas']} replicas")
        if not math.isfinite(float(row["p_hat"])):
            problems.append(f"beta={beta}: p_hat {row['p_hat']}")
    return problems, {}


def _check_cluster_limit(cfg, result):
    # 20000 Poisson draws put [0.95, 1.05] at 5 SE of the dispersion
    problems = []
    if result.summary.get("clusters") != cfg["min_clusters"]:
        problems.append(f"{result.summary.get('clusters')} clusters, "
                        f"expected {cfg['min_clusters']}")
    dispersion = result.summary.get("dispersion", math.nan)
    if not 0.95 <= dispersion <= 1.05:
        problems.append(f"Poisson dispersion {dispersion:.4f} outside "
                        "[0.95, 1.05]")
    return problems, {}


_CHECKS = {
    "deep_truncation": _check_truncation,
    "shallow_martingale": _check_martingale,
    "phase_grid": _check_phase_grid,
    "cluster_limit": _check_cluster_limit,
}


def check(name: str, cfg: dict, result) -> tuple[list, dict]:
    """(reasons the run is wrong, z-scores of its statistical tests)."""
    problems, zscores = _CHECKS[name](cfg, result)
    if result.failures:
        problems.append(f"{len(result.failures)} failed tasks: "
                        f"{result.failures[0]}")
    if not result.ok:
        problems.append("run exceeded its failure budget")
    return problems, zscores


def pooled_problems(zscores: list) -> list:
    """Combine each test's z-scores over runs (Stouffer) and gate them."""
    problems = []
    for key in sorted({k for z in zscores for k in z}):
        zs = [z[key] for z in zscores if key in z]
        combined = sum(zs) / math.sqrt(len(zs))
        if abs(combined) > Z_LIMIT:
            problems.append(f"{key}: combined z {combined:.2f} over "
                            f"{len(zs)} runs exceeds {Z_LIMIT}")
    return problems
