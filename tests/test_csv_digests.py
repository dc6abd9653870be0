"""Pinned CSV bodies: every experiment at a small config, hashed.

Each config below runs through ``run()`` on a two-worker pool and the
sha256 of every CSV body (the file without its ``# config`` line) is
compared with a recorded digest.  A change to any sampler, stream layout,
row format or summary arithmetic that reaches a CSV shows up here; a
deliberate change re-records the digest and says why in CHANGES.md.
"""

import hashlib
import os

import pytest

from bbmlab.experiments import ExperimentConfig, run

CONFIGS = {
    "tree_moments": dict(experiment="tree_moments", replicas=30,
                         t_list=[1.0, 3.0]),
    "martingale": dict(experiment="martingale", replicas=30, t=2.0,
                       beta_list=["0.5", "0.4+0.6i"],
                       rho_list=[0.0, 0.8, 1.0]),
    "free_energy_grid": dict(experiment="free_energy_scan", replicas=20,
                             t_list=[2.0, 3.0], rho=0.5,
                             sigma_range=[0.2, 2.0], tau_range=[0.0, 1.5],
                             resolution=3),
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
            "a87b50a899340af416b48f0a8d0f1f303644342d0f2175d6d46b8125453b01ca",
    },
    "martingale": {
        "martingale.csv":
            "13f17076bd3bd6ba3cc26ddb813176db01670f273c8fb43f9f427b79f3c20fc0",
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


def csv_digests(name, output_dir, **extra):
    cfg = ExperimentConfig(**CONFIGS[name], **extra, threads=2,
                           output_dir=output_dir)
    result = run(cfg)
    assert not result.failures
    return {os.path.basename(path): body_digest(path)
            for path in sorted(result.outputs.values())
            if path.endswith(".csv")}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_csv_bodies_match_recorded_digests(name, tmp_path):
    assert csv_digests(name, str(tmp_path)) == DIGESTS[name]


def test_limit_object_from_bank_file_matches_memory(tmp_path):
    # the cluster_bank config samples the same clusters limit_object draws
    # in memory; at rho = 0.5 the bank must carry their decorations
    bank = run(ExperimentConfig(**CONFIGS["cluster_bank"], threads=2,
                                output_dir=str(tmp_path))).outputs["bank.txt"]
    assert csv_digests("limit_object", str(tmp_path),
                       bank_path=bank) == DIGESTS["limit_object"]
