"""Pinned CSV bodies: every experiment at a small config, hashed.

Each config below runs through ``run()`` on a two-worker pool and the
sha256 of every CSV body (the file without its ``# config`` line) is
compared with a recorded digest.  A change to any sampler, stream layout,
row format or summary arithmetic that reaches a CSV shows up here; a
deliberate change re-records the digest and says why in CHANGES.md.
"""

import csv
import hashlib
import io
import os

import numpy as np
import pytest

from bbmlab import OffspringDistribution
from bbmlab.experiments import (COX_CONSTANT, COX_STREAM, COX_Z_WEIGHT,
                                DEFAULT_SEED, EXPERIMENTS, ExperimentConfig,
                                run)
from bbmlab.extremal import LimitModel, sample_clusters, sample_limit_partition
from bbmlab.streams import replica_seed, stream_key

CONFIGS = {
    "tree_moments": dict(experiment="tree_moments", replicas=30,
                         t_list=[1.0, 3.0]),
    "martingale": dict(experiment="martingale", replicas=30, t=2.0,
                       beta_list=["0.5", "0.4+0.6i"],
                       rho_list=[0.0, 0.8, 1.0]),
    # chunks of 25 tasks on two workers, so the replicas grow and reduce
    # in lockstep groups (the martingale config's chunks hold one task)
    "martingale_lockstep": dict(experiment="martingale", replicas=400, t=2.0,
                                beta_list=["0.5", "0.4+0.6i", "0.6i"],
                                rho_list=[-1.0, 0.0, 0.8, 1.0]),
    "free_energy_grid": dict(experiment="free_energy_scan", replicas=20,
                             t_list=[2.0, 3.0], rho=0.5,
                             sigma_range=[0.2, 2.0], tau_range=[0.0, 1.5],
                             resolution=3),
    # chunks of 12 tasks on two workers, so the replicas at t = 4, 6 and 8
    # grow in lockstep groups (mid-depth trees)
    "free_energy_midgroups": dict(experiment="free_energy_scan", replicas=64,
                                  t_list=[4.0, 6.0, 8.0], rho=1.0,
                                  sigma_range=[0.2, 2.0],
                                  tau_range=[0.0, 1.5], resolution=3),
    "free_energy_list": dict(experiment="free_energy_scan", replicas=20,
                             t_list=[2.0, 3.0], rho=0.5,
                             beta_list=["0.5", "1.5+0.5i"]),
    "glassy_tail": dict(experiment="glassy_tail", replicas=120, t=3.0,
                        rho=0.5, beta_list=["1.5+0.5i"]),
    "isotropy": dict(experiment="isotropy", replicas=60, t=3.0, rho=0.5,
                     beta_list=["1.5+0.5i"]),
    "truncation": dict(experiment="truncation", replicas=20, t=4.0,
                       rho=0.5, beta_list=["1.5+0.5i"]),
    "extremal_max": dict(experiment="extremal_max", replicas=20,
                         t_list=[2.0, 4.0]),
    "bridge_check": dict(experiment="bridge_check", replicas=3000, t=4.0,
                         r=1.0),
    "cluster_bank": dict(experiment="cluster_bank", t_cond=3.0,
                         min_clusters=10),
    "limit_object": dict(experiment="limit_object", replicas=500,
                         t_cond=3.0, min_clusters=10, rho=0.5,
                         beta_list=["1.5+0.5i"], a_list=[4.0]),
    # chunks of 100 tasks on two workers, so the genealogies of 100 trees
    # are gathered from one forest
    "pair_moment": dict(experiment="pair_moment", replicas=200, t=3.0,
                        rho=0.4, beta_list=["0.5+0.3i"]),
}

DIGESTS = {
    "bridge_check": {
        "bridge.csv":
            "256a6c235a85921b6bce30bb683b881fc61e90b90ea06df6566dfe0abec75211",
        "gauss_tail.csv":
            "8d9cbfe009884722197b4330d0b215bb9ab9426af02281894be827e0a95c5d01",
    },
    "cluster_bank": {
        "clusters.csv":
            "2acf54a6feb2d724403b16721d0bd998e8595f94545f91c38ef69263d8e9c0c1",
    },
    "extremal_max": {
        "extremal_max.csv":
            "8f69eaa32821fd0687eabdefc87077baa329f1eac54c2f0ddd110df46f09a18a",
    },
    "free_energy_grid": {
        "free_energy.csv":
            "9e0fcf9565c5d716daf4ef052bc3af64ffbc5b026147b17fd4eb8f09de7f842b",
        "phase_grid.csv":
            "6d3a90350ede937af2f9a4e92f336b020ce1b1b863d9095039d09acbe7eaf188",
    },
    "free_energy_midgroups": {
        "free_energy.csv":
            "c8c3334eee3acdd291fa14158822b50042b28319f7c6ab85a824b1bfe398db1b",
        "phase_grid.csv":
            "cf57aab0fff261caf1fa3ae60a56e2176bb74472f8e9dc50177fce2004a09678",
    },
    "free_energy_list": {
        "free_energy.csv":
            "981495f35d08505009637728f95a0796c05921b81d851a5b2b28934cf6ed9620",
        "phase_grid.csv":
            "1e1a58ddde9e186c680e6b80a2f1d9cfaf9a755c6170db97b693149d058f3d09",
    },
    "glassy_tail": {
        "glassy_tail.csv":
            "3d8e17571d370a388f014a5579af83b27fb712193d8365591ce367a6540ff85e",
    },
    "isotropy": {
        "isotropy.csv":
            "d0cc3b5f117fcd3e510701d7b4ef67073ccdabaf561379fba6e804e2b313f496",
    },
    "limit_object": {
        "limit_draws.csv":
            "e7427ecda3c740de108e3db0d5fab9189a334b398dabe31e4ec252ddfb42fc0c",
    },
    "martingale": {
        "martingale.csv":
            "13f17076bd3bd6ba3cc26ddb813176db01670f273c8fb43f9f427b79f3c20fc0",
    },
    "martingale_lockstep": {
        "martingale.csv":
            "543c68cb36ebe13f1919472350558877e84f404a1f24fab079b5a3b4c87654a2",
    },
    "pair_moment": {
        "pair_moment.csv":
            "ce9ea97327e2cc89507651fa22fd45d73ff30acd2a687f452289af4dab638a25",
    },
    "tree_moments": {
        "tree_moments.csv":
            "a223d9bd40e320c23ae21564c1148aa1706781fae7168390561657d3af3fe728",
    },
    "truncation": {
        "truncation.csv":
            "618d5fc46ee6a20ee347667893a6e48b56c4abf77861e4a834a55292ccf50b7b",
    },
}


def body_digest(path):
    with open(path, "rb") as fh:
        body = b"".join(ln for ln in fh if not ln.startswith(b"#"))
    return hashlib.sha256(body).hexdigest()


def run_outputs(name, output_dir, threads=2, drop=(), **extra):
    config = {k: v for k, v in CONFIGS[name].items() if k not in drop}
    result = run(ExperimentConfig(**config, **extra, threads=threads,
                                  output_dir=output_dir))
    assert not result.failures
    return result.outputs


def outputs_digests(outputs):
    return {os.path.basename(path): body_digest(path)
            for path in sorted(outputs.values()) if path.endswith(".csv")}


def csv_digests(name, output_dir, **extra):
    return outputs_digests(run_outputs(name, output_dir, **extra))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bodies_match_recorded_digests(name, tmp_path):
    assert csv_digests(name, str(tmp_path)) == DIGESTS[name]


def test_limit_object_from_bank_file_matches_memory(tmp_path):
    # the cluster_bank config samples the same clusters limit_object draws
    # in memory; at rho = 0.5 the bank must carry their decorations.  The
    # run from the bank is given no key that only sampling reads
    bank = run_outputs("cluster_bank", str(tmp_path))["bank.txt"]
    assert csv_digests("limit_object", str(tmp_path),
                       drop=("t_cond", "min_clusters"),
                       bank_path=bank) == DIGESTS["limit_object"]


@pytest.mark.parametrize("name", ["cluster_bank", "limit_object"])
def test_cluster_chunks_move_no_bit(name, tmp_path):
    # one worker samples every cluster in one sample_clusters call; two
    # workers split them into chunks of whole forests
    one, two = (run_outputs(name, str(tmp_path), threads)
                for threads in (1, 2))
    assert outputs_digests(one) == outputs_digests(two) == DIGESTS[name]
    if name == "cluster_bank":
        banks = []
        for outputs in (one, two):
            with open(outputs["bank.txt"], "rb") as fh:
                banks.append(fh.read())
        assert banks[0] == banks[1]


def test_cox_chunks_move_no_bit(tmp_path):
    # 4,500 draws are three Cox chunks, the last one partial: one worker
    # draws and formats them in this process, two on the pool, and both
    # write the draws of one sample_limit_partition call from the same
    # clusters, as csv.writer writes them
    one, two = (run_outputs("limit_object", str(tmp_path), threads,
                            drop=("replicas",), replicas=4500)
                for threads in (1, 2))
    assert outputs_digests(one) == outputs_digests(two)
    cfg = CONFIGS["limit_object"]
    clusters = sample_clusters(
        cfg["t_cond"], OffspringDistribution.binary(),
        [replica_seed(DEFAULT_SEED, i) for i in range(cfg["min_clusters"])])
    draws = sample_limit_partition(
        LimitModel(COX_CONSTANT, COX_Z_WEIGHT, clusters),
        complex(1.5, 0.5), cfg["rho"], cfg["a_list"][0], 4500,
        stream_key(DEFAULT_SEED, COX_STREAM))
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(
        [("draw", "value_re", "value_im", "abs", "n_atoms")]
        + list(zip(range(4500), draws.values.real.tolist(),
                   draws.values.imag.tolist(),
                   np.abs(draws.values).tolist(),
                   draws.atom_counts.tolist())))
    with open(one["limit_draws.csv"], encoding="utf-8", newline="") as fh:
        assert fh.read().partition("\n")[2] == body.getvalue()


@pytest.mark.parametrize("name", [
    name for name, config in sorted(CONFIGS.items())
    if EXPERIMENTS[config["experiment"]].rows_file])
def test_worker_formatted_rows_move_no_bit(name, tmp_path):
    # one worker formats every row in one chunk in this process; two
    # workers format their chunks' rows in the pool
    one, two = (run_outputs(name, str(tmp_path), threads)
                for threads in (1, 2))
    assert outputs_digests(one) == outputs_digests(two) == DIGESTS[name]


def test_isotropy_from_glassy_tail_csv_matches_memory(tmp_path):
    # the glassy_tail config's samples, read back from its CSV, give the
    # isotropy CSV that config's in-memory isotropy run writes; the run
    # from the CSV is given no key that only growth reads
    glassy = run(ExperimentConfig(**CONFIGS["glassy_tail"], threads=2,
                                  output_dir=str(tmp_path)))
    from_csv = run(ExperimentConfig(
        experiment="isotropy", input_csv=glassy.outputs["glassy_tail.csv"],
        threads=2, output_dir=str(tmp_path)))
    in_memory = run(ExperimentConfig(
        **dict(CONFIGS["glassy_tail"], experiment="isotropy"), threads=2,
        output_dir=str(tmp_path)))
    assert from_csv.ok and in_memory.ok
    assert body_digest(from_csv.outputs["isotropy.csv"]) == \
        body_digest(in_memory.outputs["isotropy.csv"])


def test_isotropy_summary_is_the_statistic_of_its_rows(tmp_path):
    # per radius, the largest |phi(a) - phi(a')| over the 16 directions of
    # the CSV rows; the summary values are the maximum over radii
    result = run(ExperimentConfig(**CONFIGS["isotropy"], threads=2,
                                  output_dir=str(tmp_path)))
    with open(result.outputs["isotropy.csv"], encoding="utf-8") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    summary = result.summary
    for source, key in (("sample", "statistic"),
                        ("calibration", "calibration")):
        tables = {}
        for row in rows:
            if row["source"] == source:
                tables.setdefault(row["radius"], []).append(
                    complex(float(row["cf_re"]), float(row["cf_im"])))
        assert sorted(map(float, tables)) == summary["radii"]
        assert all(len(phi) == 16 for phi in tables.values())
        worst = max(float(np.abs(np.subtract.outer(phi, phi)).max())
                    for phi in map(np.array, tables.values()))
        assert worst == summary[key]
    assert summary["ratio"] == summary["statistic"] / summary["calibration"]
