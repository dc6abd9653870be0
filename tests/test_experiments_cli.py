"""Experiment orchestration, artifact layout, and the command line."""

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import importlib.util
import io
import json
import math
import os
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

import bbmlab
from bbmlab import (OffspringDistribution, additive_martingale, cli,
                    experiments, gwtree, limiting_free_energy, m_of_t,
                    martingale_second_moment, sample_correlated_pair,
                    sample_tree)
from bbmlab.experiments import (EXPERIMENTS, ConfigError, DEFAULT_SEED,
                                ExperimentConfig, load_config, parse_complex,
                                run, validate_config)
from bbmlab.gwtree import ResourceLimitError, forest_size, grow_leaves
from bbmlab.streams import (TAG_FIELD, TAG_PAIR_X, TAG_PAIR_Z, TAG_TREE,
                            pair_keys, replica_seed, stream_key)

BINARY = OffspringDistribution.binary()


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_rows(csv_path):
    with open(csv_path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestParseComplex:
    @pytest.mark.parametrize("raw,expected", [
        (2.0, complex(2.0, 0.0)),
        (3, complex(3.0, 0.0)),
        ("2", complex(2.0, 0.0)),
        ("0.4+0.6i", complex(0.4, 0.6)),
        ("1.2+0.9j", complex(1.2, 0.9)),
        ([1.2, 0.9], complex(1.2, 0.9)),
        ((0.5, -1.5), complex(0.5, -1.5)),
        (complex(0.0, 1.0), complex(0.0, 1.0)),
    ])
    def test_accepted_forms(self, raw, expected):
        assert parse_complex(raw) == expected

    @pytest.mark.parametrize("raw", ["zebra", {"re": 1.0}, [1.0, 2.0, 3.0],
                                     ["a", "b"], [None, 1.0]])
    def test_rejected_forms(self, raw):
        with pytest.raises(ConfigError):
            parse_complex(raw)


class TestLoadConfig:
    def test_override_precedence(self, tmp_path):
        path = write_config(tmp_path, "a.json", {
            "experiment": "tree_moments", "replicas": 5, "t": 1.0,
            "seed": 3})
        cfg, provided = load_config(path, {"seed": 11, "replicas": None})
        assert cfg.seed == 11
        assert cfg.replicas == 5
        assert cfg.t == 1.0
        assert {"experiment", "t", "seed", "replicas"} <= provided

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "b.json", {
            "experiment": "tree_moments", "replicas": 2, "t": 1.0,
            "banana": 7})
        with pytest.raises(ConfigError, match="banana"):
            load_config(path, {})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path), {})
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_experiment_name_required(self, tmp_path):
        path = write_config(tmp_path, "d.json", {"replicas": 3})
        with pytest.raises(ConfigError):
            load_config(path, {})

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="beta_list"):
            load_config(None, {"experiment": "martingale"})

    def test_alternative_key_satisfies(self, tmp_path):
        path = write_config(tmp_path, "e.json", {
            "experiment": "tree_moments", "replicas": 2, "t_list": [1.0]})
        cfg, _ = load_config(path, {})
        assert cfg.ts() == [1.0]

    def test_validate_rejects_unknown_experiment(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(experiment="nope"))

    def test_validate_rejects_bad_replicas(self):
        with pytest.raises(ConfigError):
            validate_config(ExperimentConfig(experiment="tree_moments",
                                             replicas=0))

    def test_every_experiment_lists_requirements(self):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        run_wide = {"experiment", "seed", "threads", "output_dir"}
        for name, spec in EXPERIMENTS.items():
            assert spec.needs, name
            needed = set()
            for req in spec.needs:
                assert set(req.split("|")) <= keys, (name, req)
                needed |= set(req.split("|"))
            # each key is needed, read or run-wide, and only one of these
            assert set(spec.reads) <= keys, name
            assert len(set(spec.reads)) == len(spec.reads), name
            assert not set(spec.reads) & (needed | run_wide), name
            assert set(spec.reads_one) <= needed | set(spec.reads), name
            # a runner, or the parts of a replica experiment
            assert (spec.runner is None) == (
                spec.observable is not None and spec.finish is not None)
            # a file of rows as they stand has a header, and replicas
            assert bool(spec.rows_file) == bool(spec.columns)
            assert spec.rows_file is None or spec.runner is None
        (sub,) = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert set(sub.choices) == set(EXPERIMENTS) | {"oracle"}

    GRID = dict(experiment="free_energy_scan", replicas=5, t=2.0,
                sigma_range=[0.2, 2.0])

    @pytest.mark.parametrize("bad", [
        dict(experiment="martingale", replicas=200, t=2.0,
             beta_list=["1.5+oops"]),
        dict(experiment="glassy_tail", replicas=5, t=2.0, rho=0.5,
             beta_list=[]),
        dict(experiment="free_energy_scan", replicas=5, t=2.0, beta_list=[]),
        dict(GRID, resolution=3),
        dict(GRID, tau_range=[0.0, 1.5], resolution=0),
        dict(experiment="bridge_check", replicas=100, t=2.0, r=1.0),
        dict(GRID, sigma_range=[0.2], tau_range=[0.0, 1.5], resolution=3),
        dict(GRID, tau_range=[0.0], resolution=3),
        dict(GRID, tau_range=[0.0, math.inf], resolution=3),
        dict(GRID, tau_range=["0.0", "1.5"], resolution=3),
        dict(experiment="isotropy", input_csv="no-such-dir/samples.csv"),
        dict(experiment="limit_object", replicas=10, beta_list=["1.5"],
             a_list=[4.0], bank_path="no-such-dir/bank.txt"),
        dict(experiment="tree_moments", replicas=5, t=1.0,
             offspring=[[1, 0.5], [4, 0.5]]),
        dict(experiment="glassy_tail", replicas=5, t=2.0, rho=1.5,
             beta_list=["1.5"]),
        dict(experiment="tree_moments", replicas=5, t=-1.0),
        dict(experiment="truncation", replicas=5, t=2.0, rho=0.5,
             beta_list=["1.5"], a_list=[-1.0]),
        dict(experiment="free_energy_scan", replicas=5, t=0.0, rho=0.5,
             beta_list=["1.5+0.5i"]),
        dict(experiment="glassy_tail", replicas=5, t=0.0, rho=0.5,
             beta_list=["1.5+0.5i"]),
        dict(experiment="truncation", replicas=5, t=0.0, rho=0.5,
             beta_list=["1.5+0.5i"]),
        dict(experiment="extremal_max", replicas=5, t_list=[0.0, 2.0]),
        dict(experiment="isotropy", replicas=5, t=0.0, rho=0.5,
             beta_list=["1.5+0.5i"]),
        dict(experiment="cluster_bank", t_cond=0.0, min_clusters=5),
        dict(experiment="limit_object", replicas=10, t_cond=-1.0,
             min_clusters=5, beta_list=["1.5"]),
        dict(experiment="cluster_bank", t_cond=3.0, min_clusters=0),
        dict(experiment="limit_object", replicas=10, t_cond=3.0,
             min_clusters=0, beta_list=["1.5"]),
        dict(experiment="cluster_bank", t_cond=3.0, min_clusters=5,
             max_attempts=0),
        dict(experiment="tree_moments", replicas=5, t=1.0, max_nodes=0),
        dict(experiment="truncation", replicas=5, t=2.0, rho=0.5,
             beta_list=["1.5"], a_list=[]),
        dict(experiment="limit_object", replicas=10, t_cond=3.0,
             min_clusters=5, beta_list=["1.5"], a_list=[]),
        dict(experiment="limit_object", replicas=10, t_cond=3.0,
             min_clusters=5, beta_list=["1.5"], a_list=[0.0]),
        # without an explicit provided set, a key set to other than its
        # default is provided, and one the run does not read is refused
        dict(experiment="extremal_max", replicas=5, t=2.0, rho_list=[0.2]),
        dict(experiment="cluster_bank", t_cond=3.0, min_clusters=5,
             replicas=7),
        dict(experiment="martingale", replicas=5, t=2.0,
             beta_list=[complex(math.nan, 0.0)]),
        dict(experiment="tree_moments", replicas=5, t=1.0,
             sigma_range=np.array([0.2, 2.0])),
        dict(GRID, sigma_range=np.array([0.2, 2.0]), tau_range=[0.0, 1.5],
             resolution=3),
    ])
    def test_bad_config_rejected_before_run_dir(self, tmp_path, bad):
        out = tmp_path / "runs"
        with pytest.raises(ConfigError):
            run(ExperimentConfig(**bad, output_dir=str(out)))
        assert not out.exists()


@pytest.fixture(scope="module")
def file_inputs(tmp_path_factory):
    """The file inputs of isotropy and limit_object: a glassy_tail CSV of
    samples and a cluster bank, each from a small run."""
    out = str(tmp_path_factory.mktemp("file-inputs"))
    glassy = run(ExperimentConfig(experiment="glassy_tail", replicas=30,
                                  t=2.0, rho=0.5, beta_list=["1.5+0.5i"],
                                  threads=1, output_dir=out))
    bank = run(ExperimentConfig(experiment="cluster_bank", t_cond=1.0,
                                min_clusters=3, threads=1, output_dir=out))
    return {"SAMPLES": glassy.outputs["glassy_tail.csv"],
            "BANK": bank.outputs["bank.txt"]}


def _with_files(payload, file_inputs):
    """The payload with the file input named SAMPLES or BANK in its place."""
    return {key: file_inputs.get(value, value)
            if key in ("input_csv", "bank_path") else value
            for key, value in payload.items()}


@pytest.fixture(scope="module")
def tree_result(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trees"))
    cfg = ExperimentConfig(experiment="tree_moments", replicas=200,
                           t=1.0, output_dir=out)
    return run(cfg), cfg


class TestRunArtifacts:
    def test_manifest_schema(self, tree_result):
        result, cfg = tree_result
        with open(os.path.join(result.run_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert set(manifest) == {
            "config", "experiment", "failures", "ok", "outputs",
            "seed_schedule", "started_utc", "summary", "tasks", "versions",
            "wall_time_s"}
        assert manifest["experiment"] == "tree_moments"
        assert manifest["ok"] is True
        assert manifest["seed_schedule"]["seed"] == cfg.seed
        assert manifest["seed_schedule"]["tasks"] == [
            {"kind": "replica", "t": 1.0, "range": [0, cfg.replicas]}]
        assert manifest["tasks"] == cfg.replicas
        assert manifest["config"]["replicas"] == 200
        assert manifest["versions"]["bbmlab"] == bbmlab.__version__
        assert "numpy" in manifest["versions"]
        assert "scipy" in manifest["versions"]

    def test_csv_config_echo(self, tree_result):
        result, cfg = tree_result
        path = result.outputs["tree_moments.csv"]
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
        assert first.startswith("# config {")
        echo = json.loads(first[len("# config "):])
        assert echo["replicas"] == cfg.replicas
        assert echo["experiment"] == "tree_moments"

    # (config, seed-schedule task entries, side streams name -> tag)
    @pytest.mark.parametrize("config,entries,streams", [
        (dict(experiment="bridge_check", replicas=3000, t=4.0, r=1.0),
         [{"kind": "chunk", "t": 4.0, "range": [0, 2]}], {}),
        (dict(experiment="cluster_bank", t_cond=3.0, min_clusters=10),
         [{"kind": "cluster", "t_cond": 3.0, "range": [0, 10]}], {}),
        (dict(experiment="limit_object", replicas=500, t_cond=3.0,
              min_clusters=10, beta_list=["1.5"], a_list=[4.0]),
         [{"kind": "cluster", "t_cond": 3.0, "range": [0, 10]}],
         {"cox": 0x11D}),
        (dict(experiment="isotropy", replicas=60, t=3.0, rho=0.5,
              beta_list=["1.5+0.5i"]),
         [{"kind": "replica", "t": 3.0, "range": [0, 60]}],
         {"calibration": 0x150}),
    ])
    def test_seed_schedule_records_what_ran(self, tmp_path, config, entries,
                                            streams):
        result = run(ExperimentConfig(**config, output_dir=str(tmp_path)))
        with open(os.path.join(result.run_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        schedule = manifest["seed_schedule"]
        assert schedule["rule"] == "replica_seed(seed, i) = seed XOR i"
        assert schedule["tasks"] == entries
        assert schedule["streams"] == {
            name: {"tag": hex(tag), "key": stream_key(DEFAULT_SEED, tag)}
            for name, tag in streams.items()}
        count = sum(e["range"][1] - e["range"][0] for e in entries)
        assert manifest["tasks"] == result.tasks == count

    def test_manifest_size_does_not_grow_with_replicas(self, tmp_path):
        sizes = []
        for replicas in (20, 2000):
            cfg = ExperimentConfig(experiment="tree_moments",
                                   replicas=replicas, t=1.0,
                                   output_dir=str(tmp_path))
            result = run(cfg)
            sizes.append(os.path.getsize(
                os.path.join(result.run_dir, "manifest.json")))
        assert abs(sizes[1] - sizes[0]) < 100

    def test_population_target_follows_offspring_mean(self, tmp_path):
        # mean 3 children: E[n_leaves] = e^((3 - 1) t)
        cfg = ExperimentConfig(experiment="tree_moments", replicas=400,
                               t=1.5, offspring=[(1, 0.5), (5, 0.5)],
                               allow_general_offspring=True,
                               output_dir=str(tmp_path))
        cell = run(cfg).summary["t=1.5"]
        assert cell["target"] == pytest.approx(math.exp(3.0), rel=1e-12)
        assert abs(cell["z"]) < 4.0

    def test_glassy_tail_small_sample_skips_hill_fits(self, tmp_path):
        cfg = ExperimentConfig(experiment="glassy_tail", replicas=60, t=2.0,
                               rho=0.5, beta_list=["1.5+0.5i"],
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert result.ok
        assert len(read_rows(result.outputs["glassy_tail.csv"])) == 60
        assert not any(key.startswith("hill") for key in result.summary)

    def test_population_summary(self, tree_result):
        result, _ = tree_result
        cell = result.summary["t=1.0"]
        assert cell["replicas"] == 200
        assert abs(cell["z"]) <= 4.0
        rows = read_rows(result.outputs["tree_moments.csv"])
        assert len(rows) == 200
        assert all(int(r["n_leaves"]) >= 1 for r in rows)


class TestReplicaRowReproduction:
    def test_martingale_row_recomputes_bit_exactly(self, tmp_path):
        cfg = ExperimentConfig(experiment="martingale", replicas=30, t=2.0,
                               beta_list=["0.5"],
                               output_dir=str(tmp_path))
        result = run(cfg)
        rows = read_rows(result.outputs["martingale.csv"])
        row = next(r for r in rows if int(r["replica"]) == 7)
        rs = replica_seed(cfg.seed, 7)
        assert int(row["seed"]) == rs
        tree = sample_tree(BINARY, 2.0, rs)
        assert int(row["n_leaves"]) == tree.n_leaves
        fld = sample_correlated_pair(tree, 1.0, rs)
        m = additive_martingale(fld, complex(0.5, 0.0))
        assert float(row["m_re"]) == m.real
        assert float(row["m_im"]) == m.imag
        assert float(row["m_abs2"]) == abs(m) ** 2
        block = result.summary["beta=(0.5+0j) rho=1.0"]
        assert block["oracle_abs2"] == pytest.approx(
            martingale_second_moment(0.5, 2.0, 2.0), rel=1e-12)

    def test_worker_pool_matches_serial(self, tmp_path):
        rows = {}
        for threads in (1, 2):
            cfg = ExperimentConfig(experiment="tree_moments", replicas=40,
                                   t=1.0, threads=threads,
                                   output_dir=str(tmp_path / str(threads)))
            result = run(cfg)
            with open(result.outputs["tree_moments.csv"],
                      encoding="utf-8") as fh:
                rows[threads] = [ln for ln in fh if not ln.startswith("#")]
        assert rows[1] == rows[2]


@pytest.mark.parametrize("config", [
    dict(experiment="tree_moments", t_list=[1.0, 3.0]),
    dict(experiment="martingale", t=2.0, beta_list=["0.5", "0.4+0.6i"],
         rho_list=[0.0, 0.8]),
    dict(experiment="glassy_tail", t=3.0, rho=0.5, beta_list=["1.5+0.5i"]),
    dict(experiment="truncation", t=4.0, rho=0.5, beta_list=["1.5+0.5i"]),
    dict(experiment="extremal_max", t_list=[2.0, 4.0]),
    dict(experiment="pair_moment", t=3.0, rho=0.4, beta_list=["0.5+0.3i"]),
], ids=lambda config: config["experiment"])
def test_table_observable_recomputes_a_replicas_rows(tmp_path, config):
    # the table's observable, applied to the leaves (and the genealogy,
    # when the entry asks for it) that grow_leaves gives one replica, makes
    # that replica's rows of the run's CSV
    cfg = ExperimentConfig(**config, replicas=6, threads=1,
                           output_dir=str(tmp_path))
    result = run(cfg)
    assert not result.failures
    (path,) = result.outputs.values()
    with open(path, encoding="utf-8") as fh:
        header, *body = csv.reader(ln for ln in fh if not ln.startswith("#"))
    spec = EXPERIMENTS[cfg.experiment]
    for t in cfg.ts():
        for index in (0, 5):
            seed = replica_seed(cfg.seed, index)
            leaves = grow_leaves(BINARY, t, seed,
                                 pair_keys(seed, spec.fields(cfg)),
                                 genealogy=spec.genealogy)
            (rows,) = spec.observable(cfg, [(index, leaves)])
            text = io.StringIO()
            csv.writer(text, lineterminator="\n").writerows(rows)
            stored = [row for row in body
                      if row[header.index("replica")] == str(index)
                      and ("t" not in header
                           or float(row[header.index("t")]) == t)]
            assert stored
            assert stored == list(csv.reader(text.getvalue().splitlines()))


class TestFailureBudget:
    def test_node_budget_breach_flips_ok(self, tmp_path):
        cfg = ExperimentConfig(experiment="tree_moments", replicas=10,
                               t=6.0, max_nodes=10,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert not result.ok
        assert len(result.failures) > 1
        assert all("ResourceLimitError" in f["error"]
                   for f in result.failures)

    def test_failure_records_name_their_replica(self, tmp_path):
        cfg = ExperimentConfig(experiment="tree_moments", replicas=20,
                               t_list=[1.0, 6.0], max_nodes=50,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert result.failures
        for f in result.failures:
            assert f["t"] == 6.0
            assert f["seed"] == replica_seed(cfg.seed, f["replica"])
            assert f["error_type"] == "ResourceLimitError"
        with open(os.path.join(result.run_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            assert json.load(fh)["failures"] == result.failures

    def test_cluster_failure_names_its_task(self, tmp_path):
        cfg = ExperimentConfig(experiment="cluster_bank", t_cond=3.0,
                               min_clusters=10, max_attempts=2,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert 0 < len(result.failures) < cfg.min_clusters
        for f in result.failures:
            assert f["seed"] == replica_seed(cfg.seed, f["task"])
            assert f["error_type"] == "AcceptanceError"
        rows = read_rows(result.outputs["clusters.csv"])
        failed = {f["task"] for f in result.failures}
        assert failed.isdisjoint(int(r["index"]) for r in rows)
        assert len(failed) + len(rows) == cfg.min_clusters


    def test_cluster_runner_honours_max_nodes(self, tmp_path):
        cfg = ExperimentConfig(experiment="cluster_bank", t_cond=3.0,
                               min_clusters=8, max_nodes=60, threads=1,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert result.failures
        assert all(f["error_type"] == "ResourceLimitError"
                   for f in result.failures)


class TestFreeEnergyScan:
    GRID = dict(experiment="free_energy_scan", replicas=20,
                t_list=[1.0, 6.0], sigma_range=[0.2, 2.0],
                tau_range=[0.0, 1.5], resolution=3)

    def test_grid_failures_are_counted(self, tmp_path):
        cfg = ExperimentConfig(**self.GRID, max_nodes=50,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert result.tasks == 40
        assert len(result.failures) == 20
        assert {f["t"] for f in result.failures} == {6.0}
        assert not result.ok
        rows = read_rows(result.outputs["free_energy.csv"])
        assert {r["n_replicas"] for r in rows if r["t"] == "6.0"} == {"0"}

    def test_grid_pool_matches_serial(self, tmp_path):
        bodies = {}
        for threads in (1, 2):
            cfg = ExperimentConfig(**self.GRID, rho=0.5, threads=threads,
                                   output_dir=str(tmp_path / str(threads)))
            result = run(cfg)
            bodies[threads] = []
            for name in ("free_energy.csv", "phase_grid.csv"):
                with open(result.outputs[name], encoding="utf-8") as fh:
                    bodies[threads] += [ln for ln in fh
                                        if not ln.startswith("#")]
        assert bodies[1] == bodies[2]

    @pytest.mark.parametrize("grid,cells", [
        (dict(sigma_range=[0.0, 2.0], tau_range=[0.0, 2.0], resolution=3), 9),
        (dict(sigma_range=[-2.0, 2.0], tau_range=[0.0, 0.0], resolution=9),
         9),
        (dict(sigma_range=[0.0, 0.0], tau_range=[0.0, 0.0], resolution=1), 1),
    ])
    def test_grid_cells(self, tmp_path, grid, cells):
        cfg = ExperimentConfig(experiment="free_energy_scan", replicas=20,
                               t=3.0, rho=1.0, output_dir=str(tmp_path),
                               **grid)
        rows = read_rows(run(cfg).outputs["free_energy.csv"])
        assert len(rows) == cells
        keys = [(float(r["sigma"]), float(r["tau"])) for r in rows]
        assert keys == sorted(keys)  # row-major in sigma then tau
        for row, (sigma, tau) in zip(rows, keys):
            assert float(row["p_limit"]) == \
                limiting_free_energy(complex(sigma, tau))
            assert math.isfinite(float(row["p_hat"]))
            assert math.isfinite(float(row["stderr"]))
            assert row["n_replicas"] == "20" and float(row["t"]) == 3.0
            if tau == 0.0:  # no B3 cell on the sigma axis
                assert row["phase"] != "B3"
        if keys == [(0.0, 0.0)]:
            assert float(rows[0]["p_limit"]) == 1.0

    def test_beta_list_keeps_its_order_across_reruns(self, tmp_path):
        betas = [complex(1.2, 0.9), complex(0.3, 0.3)]
        runs = []
        for k in range(2):
            cfg = ExperimentConfig(experiment="free_energy_scan",
                                   replicas=50, t=3.0, rho=1.0,
                                   beta_list=betas,
                                   output_dir=str(tmp_path / str(k)))
            runs.append(read_rows(run(cfg).outputs["free_energy.csv"]))
        assert runs[0] == runs[1]
        assert [complex(float(r["sigma"]), float(r["tau"]))
                for r in runs[0]] == betas

    def test_over_budget_replicas_fail_as_resource_limit(self, tmp_path):
        cfg = ExperimentConfig(experiment="free_energy_scan", replicas=5,
                               t_list=[1.0, 3.0], rho=1.0,
                               beta_list=["1.0+0.5i"], max_nodes=8,
                               output_dir=str(tmp_path))
        result = run(cfg)
        assert not result.ok
        assert all(f["error_type"] == "ResourceLimitError"
                   for f in result.failures)
        assert [f["replica"] for f in result.failures
                if f["t"] == 3.0] == list(range(cfg.replicas))


class TestReplica:
    def test_peak_memory_per_node(self):
        # the whole tree and its x and z node arrays peaked near 57 B per
        # node; the grower keeps the frontier and the leaves only
        rs = replica_seed(DEFAULT_SEED, 1)
        tracemalloc.start()
        leaves = grow_leaves(BINARY, 11.0, rs, pair_keys(rs, 2))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert leaves.n_nodes > 100000
        assert peak <= 24 * leaves.n_nodes

    def test_forest_peak_memory_per_returned_byte(self):
        # one t = 8 lockstep group of 43 trees with x and z: the per-wave
        # leaf blocks are freed once laid end to end, so the peak stays
        # under 3 times the positions returned (3.6 times while they
        # were kept)
        seeds = [replica_seed(DEFAULT_SEED, i)
                 for i in range(forest_size(BINARY, 8.0))]
        keys = [pair_keys(seed, 2) for seed in seeds]
        gwtree.grow_forest(BINARY, 8.0, seeds, keys)  # fills the pool
        tracemalloc.start()
        grown = gwtree.grow_forest(BINARY, 8.0, seeds, keys)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        returned = sum(p.nbytes for leaves in grown for p in leaves.positions)
        assert returned > 2_000_000
        assert peak < 3 * returned

    def test_fields_drawn_once_per_replica(self, tmp_path, monkeypatch):
        streams = []
        rekey = gwtree.rekey

        def recording(rng, seed, *tags):
            streams.append(stream_key(seed, *tags))
            return rekey(rng, seed, *tags)

        # every grower re-keys pooled generators: per replica its tree
        # stream, then one stream per field
        monkeypatch.setattr(gwtree, "rekey", recording)
        # x and z when some |rho| < 1, x alone at rho = 1, no field for
        # tree_moments (which reads no rho)
        for experiment, rhos, tags in [
                ("martingale", [0.0, 0.5, 0.8, 1.0], (TAG_PAIR_X, TAG_PAIR_Z)),
                ("martingale", [1.0], (TAG_PAIR_X,)),
                ("tree_moments", None, ())]:
            streams.clear()
            cfg = ExperimentConfig(experiment=experiment, replicas=3, t=2.0,
                                   threads=1, rho_list=rhos,
                                   output_dir=str(tmp_path))
            assert run(cfg).ok
            want = []
            for i in range(cfg.replicas):
                rs = replica_seed(cfg.seed, i)
                want += [stream_key(rs, TAG_TREE)] + [
                    stream_key(stream_key(rs, tag), TAG_FIELD) for tag in tags]
            assert streams == want

    def test_deep_trees_grow_alone(self, tmp_path, monkeypatch):
        # lockstep groups are for shallow and mid-depth trees: a tree of
        # more than e^8.5 projected leaves grows alone, so at every t of
        # the deep workloads and the acceptance runs each group holds one
        # tree
        assert [forest_size(BINARY, t)
                for t in (9.0, 10.0, 12.0, 13.0)] == [1] * 4
        assert all(forest_size(BINARY, t) > 1 for t in (4.0, 6.0, 8.0))
        assert forest_size(BINARY, 2.0) >= 69
        groups = []
        grow_forest = experiments.grow_forest

        def recording(dist, t, seeds, *args):
            groups.append((t, len(seeds)))
            return grow_forest(dist, t, seeds, *args)

        monkeypatch.setattr(experiments, "grow_forest", recording)
        cfg = ExperimentConfig(experiment="tree_moments", replicas=3,
                               t=10.0, threads=1, output_dir=str(tmp_path))
        assert not run(cfg).failures
        assert groups == [(10.0, 1)] * 3

    def test_largest_group_only_rekeys_pooled_generators(self, tmp_path,
                                                          monkeypatch):
        # the rule's largest group, with x and z, fits the generator pool:
        # once the pool is filled, growing the group builds no generator
        largest = max(forest_size(BINARY, t) for t in np.arange(0.0, 13.5,
                                                                 0.25))
        assert forest_size(BINARY, 2.0) == largest
        assert 3 * largest <= gwtree.POOL_CAP
        built = []
        make_rng = gwtree.make_rng

        def counting(*args):
            built.append(args)
            return make_rng(*args)

        monkeypatch.setattr(gwtree, "_POOL", [])
        monkeypatch.setattr(gwtree, "make_rng", counting)
        cfg = ExperimentConfig(experiment="martingale", replicas=largest,
                               t=2.0, threads=1, rho_list=[0.0],
                               output_dir=str(tmp_path))
        assert run(cfg).ok  # one group, which fills the pool
        assert len(built) == len(gwtree._POOL) == 3 * largest
        built.clear()
        assert run(cfg).ok
        assert built == []


def test_lockstep_failures_match_grow_leaves(tmp_path):
    # at t = 3 the 40 replicas grow in one lockstep group with one chunk,
    # in groups of 2 trees with two workers; a tree over budget
    # fails its own replica only, and the rows and failures do not depend
    # on the grouping
    assert forest_size(BINARY, 3.0) >= 40
    runs = []
    for threads in (1, 2):
        cfg = ExperimentConfig(experiment="martingale", replicas=40, t=3.0,
                               rho_list=[0.0, 1.0], max_nodes=60,
                               threads=threads,
                               output_dir=str(tmp_path / str(threads)))
        result = run(cfg)
        with open(result.outputs["martingale.csv"], encoding="utf-8") as fh:
            body = [line for line in fh if not line.startswith("#")]
        runs.append((body, result.failures))
    assert runs[0] == runs[1]
    body, failures = runs[0]
    want = []
    for i in range(cfg.replicas):
        seed = replica_seed(cfg.seed, i)
        try:
            sample_tree(BINARY, cfg.t, seed, max_nodes=cfg.max_nodes)
        except ResourceLimitError as exc:
            want.append({"t": cfg.t, "replica": i, "seed": seed,
                         "error_type": "ResourceLimitError",
                         "error": f"ResourceLimitError: {exc}"})
    assert failures == want
    assert 0 < len(want) < cfg.replicas
    rows_per_replica = 2 * len(cfg.beta_list)
    assert len(body) == 1 + rows_per_replica * (cfg.replicas - len(want))


def test_lockstep_groups_follow_task_order(tmp_path, monkeypatch):
    # every task is grown once, at its own t, and the CSV body is the one
    # that growing each task alone, in task order, writes
    def body(name):
        cfg = ExperimentConfig(experiment="extremal_max", replicas=4,
                               t_list=[2.0, 3.0], threads=1,
                               output_dir=str(tmp_path / name))
        result = run(cfg)
        assert not result.failures
        with open(result.outputs["extremal_max.csv"],
                  encoding="utf-8") as fh:
            return [row for row in csv.reader(fh) if not row[0].startswith("#")]

    lockstep = body("lockstep")
    monkeypatch.setattr(experiments, "forest_size", lambda dist, t: 1)
    assert lockstep == body("alone")
    assert lockstep[0][:2] == ["t", "replica"]
    assert [(float(t), int(i)) for t, i, *_ in lockstep[1:]] == [
        (t, i) for t in (2.0, 3.0) for i in range(4)]


class _SerialPool:
    """A process pool stand-in that runs each chunk in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, call, chunk):
        future = Future()
        future.set_result(call(chunk))
        return future


def test_chunks_hold_whole_lockstep_groups(tmp_path, monkeypatch):
    # phase_grid's shape: 200 replicas at t = 8 on two workers, where a
    # group may hold forest_size = 43 trees.  Chunks of 200 // 16 = 12
    # tasks would cap every group at 12; the run is cut into 2 * ceil(200 /
    # 86) = 6 chunks of 34 instead, each grown as one group
    assert forest_size(BINARY, 8.0) == 43
    groups = []
    grow_forest = experiments.grow_forest

    def recording(dist, t, seeds, *args):
        groups.append(len(seeds))
        return grow_forest(dist, t, seeds, *args)

    monkeypatch.setattr(experiments, "grow_forest", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    cfg = ExperimentConfig(experiment="free_energy_scan", replicas=200,
                           t=8.0, rho=1.0, sigma_range=[0.5, 1.5],
                           tau_range=[0.0, 1.0], resolution=1, threads=2,
                           output_dir=str(tmp_path))
    assert not run(cfg).failures
    assert groups == [34] * 5 + [30]


def _raise_on_replica_7(cfg, index, leaves):
    """A tree_moments observable that fails on replica 7."""
    if index == 7:
        raise ValueError("replica 7")
    return [(leaves.t, index, leaves.seed, leaves.n_leaves)]


def _patch_observable(monkeypatch, experiment, observable):
    # a per-replica observable, lifted as the table lifts its own
    monkeypatch.setitem(EXPERIMENTS, experiment, dataclasses.replace(
        EXPERIMENTS[experiment], observable=functools.partial(
            experiments._each_replica, observable)))


def test_observable_failure_fails_its_task_only(tmp_path, monkeypatch):
    # at t = 1 the 12 replicas are one lockstep group; the per-replica
    # observable's error fails replica 7 alone, and the worker leaves its
    # rows out of the chunk's CSV text
    _patch_observable(monkeypatch, "tree_moments", _raise_on_replica_7)
    cfg = ExperimentConfig(experiment="tree_moments", replicas=12, t=1.0,
                           threads=1, output_dir=str(tmp_path))
    assert forest_size(BINARY, cfg.t) >= cfg.replicas
    result = run(cfg)
    assert result.failures == [{"t": 1.0, "replica": 7,
                                "seed": replica_seed(cfg.seed, 7),
                                "error_type": "ValueError",
                                "error": "ValueError: replica 7"}]
    rows = read_rows(result.outputs["tree_moments.csv"])
    assert [int(r["replica"]) for r in rows] == [
        i for i in range(cfg.replicas) if i != 7]



def _exit_on_replica_7(cfg, index, leaves):
    """A tree_moments observable whose worker dies on replica 7."""
    if index == 7:
        os._exit(3)
    return [(leaves.t, index, leaves.seed, leaves.n_leaves)]


def test_dead_worker_fails_its_tasks_only(tmp_path, monkeypatch):
    # the pool forks, so its workers see the patched observable
    _patch_observable(monkeypatch, "tree_moments", _exit_on_replica_7)
    cfg = ExperimentConfig(experiment="tree_moments", replicas=40, t=1.0,
                           threads=2, output_dir=str(tmp_path))
    result = run(cfg)
    # chunks of 20 tasks hold whole lockstep groups; a lost chunk is rerun
    # in pieces of max(1, 40 // (2 * 8)) = 2 tasks, and only the piece
    # holding replica 7 kills its worker again.  Each rerun piece brings
    # its own CSV text, which lands in task order
    failed = [f["replica"] for f in result.failures]
    assert failed == [6, 7]
    for f in result.failures:
        assert f["error_type"] == "BrokenProcessPool"
        assert f["t"] == 1.0
        assert f["seed"] == replica_seed(cfg.seed, f["replica"])
    rows = read_rows(result.outputs["tree_moments.csv"])
    assert [int(r["replica"]) for r in rows] == [
        i for i in range(cfg.replicas) if i not in failed]
    assert result.ok
    with open(os.path.join(result.run_dir, "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["failures"] == result.failures
    assert manifest["ok"] == result.ok


def test_dead_cluster_worker_fails_its_seed_only(tmp_path, monkeypatch):
    # 16 seeds on two workers go out as two chunks of 8, whole forests of
    # forest_size(binary, 1) = 128 seeds; the chunk holding task 7 is
    # rerun in pieces of max(1, 16 // (2 * 8)) = 1 seed, and only task 7's
    # piece kills its worker again.  The pool forks, so its workers see
    # the patched sampler, and each call logs its seeds to a file first.
    cfg = ExperimentConfig(experiment="cluster_bank", t_cond=1.0,
                           min_clusters=16, threads=2,
                           output_dir=str(tmp_path))
    seeds = [replica_seed(cfg.seed, i) for i in range(cfg.min_clusters)]
    calls = tmp_path / "calls.txt"
    sample_clusters = experiments.sample_clusters

    def dying(t_cond, dist, chunk_seeds, *args, **kw):
        with open(calls, "a", encoding="ascii") as fh:
            fh.write(" ".join(map(str, chunk_seeds)) + "\n")
        if seeds[7] in chunk_seeds:
            os._exit(3)
        return sample_clusters(t_cond, dist, chunk_seeds, *args, **kw)

    monkeypatch.setattr(experiments, "sample_clusters", dying)
    result = run(cfg)
    logged = [[int(v) for v in line.split()]
              for line in calls.read_text(encoding="ascii").splitlines()]
    assert seeds[:8] in logged
    assert all(call in (seeds[:8], seeds[8:]) or len(call) == 1
               for call in logged)
    assert {call[0] for call in logged if len(call) == 1} >= set(seeds[:8])
    assert [call for call in logged if call == [seeds[7]]] == [[seeds[7]]]
    (failure,) = result.failures
    assert failure["task"] == 7 and failure["seed"] == seeds[7]
    assert failure["error_type"] == "BrokenProcessPool"
    rows = read_rows(result.outputs["clusters.csv"])
    assert [int(r["index"]) for r in rows] == [
        i for i in range(cfg.min_clusters) if i != 7]
    assert result.ok


def test_default_worker_count_follows_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    cfg = ExperimentConfig(experiment="tree_moments")
    assert cfg.effective_threads() == 1
    assert ExperimentConfig(experiment="tree_moments",
                            threads=3).effective_threads() == 3


def test_default_worker_count_without_affinity(tmp_path, monkeypatch):
    # macOS and Windows have no sched_getaffinity: the CPU count serves,
    # and at least one worker when even that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = ExperimentConfig(experiment="tree_moments", replicas=4, t=1.0,
                           output_dir=str(tmp_path))
    assert cfg.effective_threads() == 2
    assert run(cfg).ok
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cfg.effective_threads() == 1


def test_wall_time_includes_csv_writes(tmp_path, monkeypatch):
    # the manifest's wall time ends once the CSVs are written
    write_csv = experiments._write_csv

    def slow(*args, **kwargs):
        time.sleep(0.25)
        return write_csv(*args, **kwargs)

    monkeypatch.setattr(experiments, "_write_csv", slow)
    result = run(ExperimentConfig(experiment="tree_moments", replicas=2,
                                  t=1.0, threads=1, output_dir=str(tmp_path)))
    with open(os.path.join(result.run_dir, "manifest.json"),
              encoding="utf-8") as fh:
        assert json.load(fh)["wall_time_s"] >= 0.25


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, "run.json",
                            {"replicas": 20, "t": 1.0})
        rc = cli.main(["tree_moments", "--config", path,
                       "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 0
        run_dir = captured.out.splitlines()[0]
        assert os.path.isfile(os.path.join(run_dir, "manifest.json"))

    def test_unknown_experiment_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["definitely_not_an_experiment"])
        assert exc.value.code == 2

    def test_no_command_is_usage_error(self):
        assert cli.main([]) == 2

    def test_missing_required_keys_exit_two(self):
        assert cli.main(["martingale"]) == 2

    @pytest.mark.parametrize("experiment,payload", [
        ("tree_moments", {"replicas": 2, "t_list": None}),
        ("isotropy", {"input_csv": None}),
        ("limit_object", {"replicas": 10, "beta_list": ["1.5"],
                          "a_list": [4.0], "bank_path": None}),
    ])
    def test_null_needed_key_exits_two_without_run_dir(
            self, tmp_path, experiment, payload):
        # a null leaves the key unset: the run would grow at the default
        # t, beta_list or t_cond
        path = write_config(tmp_path, "null.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_bad_beta_exits_two_without_run_dir(self, tmp_path):
        path = write_config(tmp_path, "bad.json", {
            "replicas": 20, "t": 1.0, "beta_list": ["1.5+oops"]})
        rc = cli.main(["martingale", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("k_fractions", [0.05]), ("bridge_step", 0.01)])
    def test_retired_keys_exit_two(self, tmp_path, key, value):
        path = write_config(tmp_path, "old.json", {
            "replicas": 2, "t": 1.0, key: value})
        rc = cli.main(["tree_moments", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    GRID = {"replicas": 2, "t": 1.0, "sigma_range": [0.5, 1.5],
            "tau_range": [0.0, 1.0], "resolution": 2}
    BANK = {"t_cond": 1.0, "min_clusters": 2}

    @pytest.mark.parametrize("experiment,payload", [
        ("tree_moments", {"replicas": 2.5, "t": 1.0}),
        ("tree_moments", {"replicas": "3", "t": 1.0}),
        ("tree_moments", {"replicas": True, "t": 1.0}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "seed": 7.0}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "max_nodes": "100"}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "threads": 1.0}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "threads": False}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "threads": 0}),
        ("tree_moments", {"replicas": 2, "t": 1.0, "threads": -1}),
        ("free_energy_scan", dict(GRID, resolution=2.5)),
        ("cluster_bank", dict(BANK, min_clusters=2.5)),
        ("cluster_bank", dict(BANK, max_attempts=True)),
    ])
    def test_non_integer_count_exits_two_without_run_dir(
            self, tmp_path, experiment, payload):
        path = write_config(tmp_path, "bad.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("tree_moments", {"replicas": 2, "t": "2"}),
        ("martingale", {"replicas": 2, "t": 1.0, "beta_list": ["0.5"],
                        "rho": "0.5"}),
        ("tree_moments", {"replicas": 2, "t": True}),
        ("martingale", {"replicas": 2, "t": 1.0, "beta_list": [True]}),
        ("bridge_check", {"replicas": 2, "t": 4.0, "r": True}),
    ])
    def test_non_real_value_exits_two_without_run_dir(
            self, tmp_path, experiment, payload):
        # a bool is not taken as 0 or 1, nor a numeric string as its number
        path = write_config(tmp_path, "bad.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("martingale", {"replicas": 2, "t": 1.0,
                        "beta_list": ["0.5", "nan"]}),
        ("martingale", {"replicas": 2, "t": 1.0, "beta_list": ["1e400"]}),
        ("martingale", {"replicas": 2, "t": 1.0, "beta_list": [[0.5, 1e400]]}),
        ("limit_object", {"replicas": 10, "t_cond": 1.0, "min_clusters": 2,
                          "beta_list": ["1.5"], "a_list": [math.inf]}),
        ("truncation", {"replicas": 2, "t": 2.0, "rho": 0.5,
                        "beta_list": ["1.5"], "a_list": [2.0, math.inf]}),
        ("tree_moments", {"replicas": 2, "t_list": []}),
        ("martingale", {"replicas": 2, "t": 1.0, "beta_list": ["0.5"],
                        "rho_list": []}),
    ])
    def test_non_finite_or_empty_list_exits_two_without_run_dir(
            self, tmp_path, experiment, payload):
        # a non-finite beta gave NaN rows, and an empty t_list or rho_list
        # ran at the default t or rho
        path = write_config(tmp_path, "bad.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("tree_moments", {"replicas": 5, "t_list": [2.0, 2.0]}),
        ("free_energy_scan", {"replicas": 5, "t_list": [2.0, 3.0, 2],
                              "beta_list": ["0.5"]}),
        ("martingale", {"replicas": 5, "t": 2.0, "beta_list": ["0.5", 0.5]}),
        ("martingale", {"replicas": 5, "t": 2.0, "beta_list": ["0.5"],
                        "rho_list": [0.0, 0.0]}),
        ("truncation", {"replicas": 5, "t": 2.0, "beta_list": ["1.5"],
                        "rho": 0.5, "a_list": [2.0, 4.0, 2]}),
    ])
    def test_repeated_list_entry_exits_two_without_run_dir(
            self, tmp_path, experiment, payload):
        # replica i always draws from seed XOR i, so a repeated entry
        # would rerun the same replicas and count them twice
        path = write_config(tmp_path, "repeat.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    BANK = {"replicas": 10, "t_cond": 1.0, "min_clusters": 2,
            "a_list": [4.0]}

    @pytest.mark.parametrize("experiment,payload", [
        ("glassy_tail", {"replicas": 5, "t": 2.0, "rho": 0.5,
                         "beta_list": ["1.5", "1.5+0.5i"]}),
        ("free_energy_scan", {"replicas": 5, "t": 2.0, "beta_list": ["0.5"],
                              "rho_list": [0.0, 0.5]}),
        ("glassy_tail", {"replicas": 5, "t": 2.0, "t_list": [2.0, 3.0],
                         "rho": 0.5, "beta_list": ["1.5"]}),
        ("isotropy", {"replicas": 5, "t": 2.0, "rho": 0.5,
                      "beta_list": ["1.5", "1.5+0.5i"]}),
        ("truncation", {"replicas": 5, "t": 2.0, "rho": 0.5,
                        "rho_list": [0.5], "beta_list": ["1.5"],
                        "a_list": [2.0]}),
        ("martingale", {"replicas": 5, "t": 2.0, "t_list": [2.0, 3.0],
                        "beta_list": ["0.5"]}),
        ("bridge_check", {"replicas": 100, "t": 4.0, "t_list": [4.0, 6.0],
                          "r": 1.0}),
        ("limit_object", dict(BANK, beta_list=["1.5", "2.0"])),
        ("limit_object", dict(BANK, beta_list=["1.5"], rho_list=[0.5])),
        ("limit_object", dict(BANK, beta_list=["1.5"], a_list=[4.0, 6.0])),
        ("limit_object", {k: v for k, v in BANK.items() if k != "a_list"}
         | {"beta_list": ["1.5"]}),
        ("tree_moments", {"replicas": 5, "t": 2.0,
                          "beta_list": ["0.5", "0.7"], "rho": 0.3}),
        ("extremal_max", {"replicas": 5, "t_list": [2.0, 3.0],
                          "rho_list": [0.2, 0.4]}),
        ("bridge_check", {"replicas": 100, "t": 4.0, "r": 1.0,
                          "beta_list": ["0.5", "0.7"], "rho": 0.1}),
        ("cluster_bank", {"t_cond": 1.0, "min_clusters": 2, "replicas": 5}),
        ("free_energy_scan", {"replicas": 5, "t": 2.0, "beta_list": ["0.5"],
                              "tau_range": [0.0, 1.0]}),
        ("free_energy_scan", {"replicas": 5, "t": 2.0, "beta_list": ["0.5"],
                              "resolution": 3}),
        # a key read only under some condition, where the run skips it:
        # the other alternative of a need, or a key only growth reads
        # beside a file input
        ("tree_moments", {"replicas": 2, "t": 1.0, "t_list": [1.0, 2.0]}),
        ("extremal_max", {"replicas": 2, "t": 2.0, "t_list": [2.0, 3.0]}),
        ("free_energy_scan", {"replicas": 2, "t": 1.0, "beta_list": ["0.5"],
                              "sigma_range": [0.5, 1.5],
                              "tau_range": [0.0, 1.0], "resolution": 2}),
        ("isotropy", {"input_csv": "SAMPLES", "beta_list": ["1.5+0.5i"]}),
        ("isotropy", {"input_csv": "SAMPLES", "replicas": 5}),
        ("isotropy", {"input_csv": "SAMPLES", "t": 2.0}),
        ("isotropy", {"input_csv": "SAMPLES", "rho": 0.5}),
        ("limit_object", {"replicas": 10, "beta_list": ["1.5"],
                          "a_list": [4.0], "bank_path": "BANK",
                          "t_cond": 1.0}),
        ("limit_object", {"replicas": 10, "beta_list": ["1.5"],
                          "a_list": [4.0], "bank_path": "BANK",
                          "min_clusters": 2}),
        ("limit_object", {"replicas": 10, "beta_list": ["1.5"],
                          "a_list": [4.0], "bank_path": "BANK",
                          "max_attempts": 50}),
    ])
    def test_dropped_value_exits_two_without_run_dir(
            self, tmp_path, file_inputs, experiment, payload):
        # the run would drop a key it does not read, or a beta or a past
        # the first one it reads, yet echo them in its manifest and CSV
        # header; limit_object must name its one a, since the default
        # a_list has four.  SAMPLES and BANK name existing file inputs
        payload = _with_files(payload, file_inputs)
        path = write_config(tmp_path, "dropped.json", payload)
        rc = cli.main([experiment, "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment,payload", [
        ("free_energy_scan", GRID),
        ("isotropy", {"input_csv": "SAMPLES"}),
        ("limit_object", {"replicas": 10, "beta_list": ["1.5"],
                          "a_list": [4.0], "bank_path": "BANK"}),
        ("bridge_check", {"replicas": 100, "t": 4.0, "r": 1.0}),
        ("pair_moment", {"replicas": 4, "t": 1.0, "rho": 0.5,
                         "beta_list": ["0.5+0.3i"]}),
    ])
    def test_echo_holds_the_keys_the_run_reads(
            self, tmp_path, file_inputs, experiment, payload, capsys):
        # the manifest's config and every CSV's config line echo the
        # run-wide keys and the keys the entry needs and reads, no other
        payload = _with_files(payload, file_inputs)
        path = write_config(tmp_path, "echo.json", payload)
        assert cli.main([experiment, "--config", path, "--threads", "1",
                         "--out", str(tmp_path / "out")]) == 0
        run_dir = capsys.readouterr().out.splitlines()[0]
        with open(os.path.join(run_dir, "manifest.json"),
                  encoding="utf-8") as fh:
            manifest = json.load(fh)
        echo = manifest["config"]
        spec = EXPERIMENTS[experiment]
        assert set(echo) == {"experiment", "seed", "threads", "output_dir",
                             *spec.reads, *"|".join(spec.needs).split("|")}
        assert {key: echo[key] for key in payload} == payload
        for name in manifest["outputs"].values():
            if name.endswith(".csv"):
                with open(os.path.join(run_dir, name),
                          encoding="utf-8") as fh:
                    first = fh.readline()
                assert json.loads(first[len("# config "):]) == echo

    def test_benchmark_workload_configs_load(self, tmp_path):
        # perfbench runs each workload's config through load_config, so a
        # refusal would fail every benchmark run; workloads.py is loaded
        # by file path and only read
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert len(workloads.NAMES) == 4
        for name in workloads.NAMES:
            payload = workloads.config(name, DEFAULT_SEED, 2,
                                       str(tmp_path / "runs"))
            cfg, provided = load_config(
                write_config(tmp_path, f"{name}.json", payload), {})
            assert provided == set(payload)
            assert cfg.experiment == payload["experiment"]

    def test_missing_config_file_exit_two(self, tmp_path):
        rc = cli.main(["tree_moments", "--config",
                       str(tmp_path / "absent.json")])
        assert rc == 2

    def test_failure_budget_exit_one(self, tmp_path):
        path = write_config(tmp_path, "broken.json",
                            {"replicas": 10, "t": 6.0, "max_nodes": 10})
        rc = cli.main(["tree_moments", "--config", path,
                       "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_oracle_value(self, capsys):
        assert cli.main(["oracle", "m_of_t", "10"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(m_of_t(10.0), rel=1e-15)

    def test_oracle_list(self, capsys):
        assert cli.main(["oracle", "list"]) == 0
        out = capsys.readouterr().out
        assert "m_of_t T" in out
        assert "pair_moment LAMBDA RHO TAU T K" in out

    def test_oracle_usage_errors(self):
        assert cli.main(["oracle", "m_of_t"]) == 2
        assert cli.main(["oracle", "nonsense", "1"]) == 2
        assert cli.main(["oracle", "m_of_t", "zebra"]) == 2
