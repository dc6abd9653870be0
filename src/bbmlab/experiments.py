"""Experiment drivers: replica orchestration and artifact emission.

Every experiment takes one declarative config, checked in full before the
run directory is made, fans replicas out over a process pool (replica i
always uses seed XOR i, and results are gathered in replica order), and
writes into a fresh timestamped directory: one or more CSV files whose
bodies are byte-identical across reruns of the same config and seed, plus
a manifest recording the seed schedule, failures, versions and wall time.
Replica-level errors are contained and counted; a run fails when more
than 10 percent of its replicas fail.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import stats
from .extremal import (AcceptanceError, Cluster, LimitModel,
                       estimate_cox_constants, load_cluster_bank,
                       sample_clusters, sample_limit_partition,
                       save_cluster_bank)
from .field import correlate
from .gwtree import NODE_BUDGET, GrownLeaves, forest_size, grow_forest
from .offspring import OffspringDistribution
from .oracles import (bridge_barrier_bound, gaussian_tail_bound,
                      martingale_second_moment)
from .partition import (SQRT2, additive_martingales, derivative_martingale,
                        log_partitions, m_of_t, rescaled_partition,
                        truncation_sweep)
from .phase import grid_betas, scan_cells
from .streams import make_rng, pair_keys, replica_seed, stream_key

# No longer called here.  perfbench/spans.py rebinds these names in this
# module to time them, so they stay imported until its BINDINGS move.
from .extremal import sample_cluster  # noqa: F401
from .field import sample_correlated_pair, sample_field  # noqa: F401
from .gwtree import sample_tree  # noqa: F401
from .phase import classify, grid_scan, limiting_free_energy  # noqa: F401
from .partition import additive_martingale, truncated_partition  # noqa: F401

FAILURE_BUDGET = 0.10
DEFAULT_SEED = 20260825

# Run-level side streams, keyed stream_key(cfg.seed, tag).
COX_STREAM = 0x11D
CALIBRATION_STREAM = 0x150

# glassy_tail fits the Hill index on each of these fractions of the
# largest moduli (when there are enough positive moduli to fit).
HILL_K_FRACTIONS = (0.02, 0.05, 0.1)
# limit_object's Cox intensity: the constant C and the weight of Z.
COX_CONSTANT = 1.0
COX_Z_WEIGHT = 1.0
# Time step of bridge_check's discretized Brownian bridges.
BRIDGE_STEP = 0.01
# truncation's summary: P(|discarded part| > TRUNCATION_DELTA) per A.
TRUNCATION_DELTA = 0.1


class ConfigError(ValueError):
    """Bad or incomplete experiment configuration (CLI exit code 2)."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    seed: int = DEFAULT_SEED
    replicas: int = 1000
    threads: int | None = None
    t: float = 8.0
    t_list: list | None = None
    rho: float = 1.0
    rho_list: list | None = None
    beta_list: list = field(default_factory=lambda: [complex(0.5, 0.0)])
    a_list: list = field(default_factory=lambda: [2.0, 4.0, 6.0, 8.0])
    offspring: list = field(default_factory=lambda: [(2, 1.0)])
    allow_general_offspring: bool = False
    r: float = 1.0
    output_dir: str = "runs"
    max_nodes: int = NODE_BUDGET
    sigma_range: list | None = None
    tau_range: list | None = None
    resolution: int = 0
    t_cond: float = 6.0
    min_clusters: int = 200
    max_attempts: int = 200000
    bank_path: str | None = None
    input_csv: str | None = None

    def dist(self) -> OffspringDistribution:
        return OffspringDistribution.from_pairs(
            self.offspring,
            require_mean_two=not self.allow_general_offspring)

    def ts(self) -> list:
        return [float(v) for v in (self.t_list if self.t_list else [self.t])]

    def rhos(self) -> list:
        return [float(v) for v in
                (self.rho_list if self.rho_list else [self.rho])]

    def betas(self) -> list:
        return [parse_complex(b) for b in self.beta_list]

    def effective_threads(self) -> int:
        return self.threads if self.threads else \
            len(os.sched_getaffinity(0))


def parse_complex(value) -> complex:
    """Accept 2.0, "1.2+0.9i", "1.2+0.9j", or [re, im]."""
    try:
        if isinstance(value, complex):
            return value
        if _is_real(value):
            return complex(float(value), 0.0)
        if isinstance(value, (list, tuple)) and len(value) == 2:
            return complex(float(value[0]), float(value[1]))
        if isinstance(value, str):
            return complex(value.strip().replace("i", "j"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse complex value {value!r}") from exc
    raise ConfigError(f"cannot parse complex value {value!r}")


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}

# fields each experiment insists on seeing explicitly (| marks alternatives)
REQUIRED_KEYS = {
    "tree_moments": ["replicas", "t|t_list"],
    "martingale": ["replicas", "t", "beta_list"],
    "free_energy_scan": ["replicas", "t|t_list", "beta_list|sigma_range"],
    "glassy_tail": ["replicas", "t", "beta_list", "rho"],
    "isotropy": ["input_csv|beta_list"],
    "truncation": ["replicas", "t", "beta_list", "a_list", "rho"],
    "extremal_max": ["replicas", "t|t_list"],
    "bridge_check": ["replicas", "t", "r"],
    "cluster_bank": ["t_cond", "min_clusters"],
    "limit_object": ["replicas", "beta_list", "bank_path|t_cond"],
}


def load_config(path: str | None, overrides: dict) -> tuple[ExperimentConfig, set]:
    """Merge config file and CLI overrides; returns (config, provided keys)."""
    data: dict = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(data)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    provided = set(merged)
    if "experiment" not in merged:
        raise ConfigError("config must name an experiment")
    try:
        cfg = ExperimentConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc))
    validate_config(cfg, provided)
    return cfg, provided


def _is_real(value) -> bool:
    """An int or a float, numpy's included, but not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def _check_range(key: str, value) -> None:
    """A grid range is a list of two finite numbers."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_real(v) and math.isfinite(v) for v in value)):
        raise ConfigError(f"{key} must be two finite numbers, got {value!r}")


def validate_config(cfg: ExperimentConfig, provided: set | None = None) -> None:
    """Reject a config before anything runs; every check raises ConfigError."""
    if cfg.experiment not in REQUIRED_KEYS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from "
            f"{sorted(REQUIRED_KEYS)}")
    for key in ("seed", "replicas", "resolution", "min_clusters",
                "max_attempts", "max_nodes", "threads"):
        value = getattr(cfg, key)
        if key == "threads" and value is None:
            continue
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    reals = [(key, getattr(cfg, key)) for key in ("t", "rho", "r", "t_cond")]
    for key in ("t_list", "rho_list", "a_list"):
        values = getattr(cfg, key) or []
        if not isinstance(values, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {values!r}")
        reals += [(f"{key} entry", value) for value in values]
    for key, value in reals:
        if not _is_real(value):
            raise ConfigError(f"{key} must be a real number, got {value!r}")
    if cfg.replicas < 1:
        raise ConfigError("replicas must be >= 1")
    if not cfg.beta_list:
        raise ConfigError("beta_list must not be empty")
    cfg.betas()  # parses every entry
    try:
        cfg.dist()
    except ValueError as exc:
        raise ConfigError(f"offspring: {exc}") from exc
    if not all(-1.0 <= rho <= 1.0 for rho in [cfg.rho] + cfg.rhos()):
        raise ConfigError("rho and rho_list entries must lie in [-1, 1]")
    if not all(0.0 <= t < math.inf for t in [cfg.t] + cfg.ts()):
        raise ConfigError("t and t_list entries must be finite and >= 0")
    if not all(float(a) >= 0.0 for a in cfg.a_list):
        raise ConfigError("a_list entries must be >= 0")
    # replica i always draws from seed XOR i, so a repeated entry would
    # rerun the same replicas and count them twice
    for key, values in (("t_list", cfg.t_list and cfg.ts()),
                        ("rho_list", cfg.rho_list and cfg.rhos()),
                        ("a_list", [float(a) for a in cfg.a_list]),
                        ("beta_list", cfg.betas())):
        if values and len(set(values)) < len(values):
            raise ConfigError(
                f"{key} repeats an entry: {getattr(cfg, key)!r}")
    for key in ("min_clusters", "max_attempts", "max_nodes"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    # m(t), p_t and the cluster law need a horizon > 0 (t_cond for the
    # clusters); tree_moments and martingale are defined at t = 0
    horizons = {"free_energy_scan": cfg.ts(), "extremal_max": cfg.ts(),
                "glassy_tail": [cfg.t], "truncation": [cfg.t],
                "isotropy": [] if cfg.input_csv else [cfg.t],
                "cluster_bank": [cfg.t_cond],
                "limit_object": [] if cfg.bank_path else [cfg.t_cond]}
    if not all(0.0 < t < math.inf for t in horizons.get(cfg.experiment, [])):
        raise ConfigError(f"{cfg.experiment} needs a finite horizon > 0")
    if cfg.experiment in ("truncation", "limit_object") and not cfg.a_list:
        raise ConfigError("a_list must not be empty")
    if cfg.experiment == "limit_object" and not float(cfg.a_list[0]) > 0.0:
        raise ConfigError("limit_object needs a_list[0] > 0")
    if cfg.experiment == "free_energy_scan" and cfg.sigma_range is not None:
        if cfg.tau_range is None or cfg.resolution < 1:
            raise ConfigError(
                "grid scan needs sigma_range, tau_range and resolution")
        for key in ("sigma_range", "tau_range"):
            _check_range(key, getattr(cfg, key))
    for experiment, key in (("isotropy", "input_csv"),
                            ("limit_object", "bank_path")):
        path = getattr(cfg, key)
        if cfg.experiment == experiment and path and not os.path.isfile(path):
            raise ConfigError(f"{key} {path!r} is not a file")
    if cfg.experiment == "bridge_check" and not 0.0 < 2.0 * cfg.r < cfg.t:
        raise ConfigError("bridge_check needs 0 < 2r < t")
    if provided is None:
        return
    missing = []
    for req in REQUIRED_KEYS[cfg.experiment]:
        if not any(alt in provided for alt in req.split("|")):
            missing.append(req)
    if missing:
        raise ConfigError(
            f"experiment {cfg.experiment!r} needs explicit config keys: "
            f"{missing}")


@dataclass
class RunnerOutput:
    csvs: dict
    summary: dict
    failures: list
    schedule: list  # _task_range entries: the tasks that ran, per horizon
    streams: dict = field(default_factory=dict)  # side-stream name -> tag
    extra_outputs: dict = field(default_factory=dict)


@dataclass
class RunResult:
    run_dir: str
    outputs: dict
    summary: dict
    failures: list
    tasks: int
    ok: bool


def _task_range(kind: str, horizon: str, value: float, count: int) -> dict:
    """Seed-schedule entry: tasks 0..count-1 of one kind at one horizon.

    Task i runs on replica_seed(seed, i); ``range`` is half-open.
    """
    return {"kind": kind, horizon: value, "range": [0, count]}


def _failure(exc: Exception) -> tuple:
    name = type(exc).__name__
    return False, {"error_type": name, "error": f"{name}: {exc}"}


def _guarded_chunk(worker, cfg: ExperimentConfig, chunk: list) -> list:
    """The chunk worker of a per-task worker: (True, worker(cfg, task))
    per task, or its contained failure."""
    outcomes = []
    for task in chunk:
        try:
            outcomes.append((True, worker(cfg, task)))
        except Exception as exc:  # contained: replica failures are counted
            outcomes.append(_failure(exc))
    return outcomes


def _task_record(cfg: ExperimentConfig, task: int) -> dict:
    return {"task": task, "seed": replica_seed(cfg.seed, task)}


def _replica_record(cfg: ExperimentConfig, task: tuple) -> dict:
    t, index = task
    return {"t": t, "replica": index, "seed": replica_seed(cfg.seed, index)}


def _rerun_alone(call, chunk: list) -> list:
    """Rerun a chunk lost to a dead pool worker in a one-worker pool.

    Never in this process: a chunk that ends its worker would end the run.
    If the chunk's worker dies again, each of its tasks fails with
    BrokenProcessPool.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(max_workers=1) as pool:
        try:
            return pool.submit(call, chunk).result()
        except BrokenProcessPool as exc:
            return [_failure(exc)] * len(chunk)


def _collect(chunk_worker, cfg: ExperimentConfig, tasks: list,
             record=_task_record, least: int = 1) -> tuple[list, list]:
    """Run the tasks in chunks; results come back in task order.

    chunk_worker(cfg, chunk) returns one (ok, payload) per task of the
    chunk, and (False, {"error_type", "error"}) for a task that failed
    (_guarded_chunk makes one from a per-task worker).  A failed task
    leaves None in its slot and adds a failure record: record(cfg, task),
    which names the task and its seed, plus the error.  When a pool
    worker dies, the pool loses every pending chunk.  A pool run cuts
    pieces of len(tasks) // (threads * 8) tasks and chunks of at least
    ``least``; each chunk without a result is rerun piece by piece on its
    own (_rerun_alone), so only a piece that kills its worker again fails.
    Without a pool, all tasks are one chunk.
    """
    call = functools.partial(chunk_worker, cfg)
    threads = cfg.effective_threads()
    if threads <= 1 or len(tasks) <= 1:
        outcomes = call(tasks)
    else:
        # imported here, not at the top: the pool's modules
        # (multiprocessing, socket, subprocess, logging) are a large share
        # of this module's import time, which a serial run need not pay
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        piece = max(1, len(tasks) // (threads * 8))
        size = max(piece, least)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        import numpy.random  # noqa: F401  (the workers inherit it)
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(call, chunk) for chunk in chunks]
        outcomes = []
        for chunk, future in zip(chunks, futures):
            try:
                outcomes += future.result()
            except BrokenProcessPool:
                outcomes += [o for i in range(0, len(chunk), piece)
                             for o in _rerun_alone(call, chunk[i:i + piece])]
    payloads, failures = [], []
    for task, (ok, val) in zip(tasks, outcomes):
        payloads.append(val if ok else None)
        if not ok:
            failures.append({**record(cfg, task), **val})
    return payloads, failures


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


def _write_csv(path: str, columns: list, rows: list,
               echo: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config " + json.dumps(_jsonable(echo), sort_keys=True)
                 + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _fresh_run_dir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    for attempt in range(1000):
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
        name = f"{cfg.experiment}-{stamp}" + (f"-{attempt}" if attempt else "")
        path = os.path.join(cfg.output_dir, name)
        try:
            os.makedirs(path, exist_ok=False)
            return path
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a fresh run directory")


def run(config: ExperimentConfig, provided: set | None = None) -> RunResult:
    """Execute one experiment; outputs land in a fresh timestamped dir."""
    validate_config(config, provided)
    runner = _RUNNERS[config.experiment]
    run_dir = _fresh_run_dir(config)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    out = runner(config, run_dir)
    wall = time.monotonic() - t0
    echo = asdict(config)
    outputs = dict(out.extra_outputs)
    for name, (columns, rows) in out.csvs.items():
        path = os.path.join(run_dir, name)
        _write_csv(path, columns, rows, echo)
        outputs[name] = path
    tasks = sum(e["range"][1] - e["range"][0] for e in out.schedule)
    ok = len(out.failures) <= FAILURE_BUDGET * max(tasks, 1)
    manifest = {
        "experiment": config.experiment,
        "config": _jsonable(echo),
        "started_utc": started,
        "wall_time_s": wall,
        "seed_schedule": {
            "rule": "replica_seed(seed, i) = seed XOR i",
            "seed": config.seed,
            "tasks": out.schedule,
            "streams": {name: {"tag": hex(tag),
                               "key": stream_key(config.seed, tag)}
                        for name, tag in out.streams.items()},
        },
        "tasks": tasks,
        "failures": out.failures,
        "ok": ok,
        "versions": _versions(),
        "outputs": {k: os.path.basename(v) for k, v in outputs.items()},
        "summary": _jsonable(out.summary),
    }
    with open(os.path.join(run_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return RunResult(run_dir=run_dir, outputs=outputs,
                     summary=out.summary, failures=out.failures,
                     tasks=tasks, ok=ok)


def _versions() -> dict:
    import sys
    import scipy  # the package only; its submodules load where used
    from . import __version__
    return {"bbmlab": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": sys.version.split()[0]}


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    n = values.size
    mean = float(np.mean(values)) if n else math.nan
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    return mean, se


# ---------------------------------------------------------------- replicas


def _replica_chunk(observable, dist, fields: int, cfg: ExperimentConfig,
                   chunk: list) -> list:
    """_run_replicas' chunk worker: each run of tasks at one t grows in
    lockstep groups of up to forest_size(dist, t) trees, one grow_forest
    call per group, each tree with the first ``fields`` of its seed's
    pair_keys, and observable(cfg, grown) reduces a group's (index,
    GrownLeaves) pairs at once.  It returns one entry per replica, its
    rows or the exception that failed it; a tree that failed to grow fails
    only its own task, and an observable that raises fails its whole
    group."""
    outcomes = []
    for t, at_t in itertools.groupby(chunk, key=lambda task: task[0]):
        at_t, size = list(at_t), forest_size(dist, t)
        for group in [at_t[lo:lo + size] for lo in range(0, len(at_t), size)]:
            seeds = [replica_seed(cfg.seed, i) for _, i in group]
            keys = [pair_keys(s, fields) for s in seeds]
            try:
                grown = grow_forest(dist, t, seeds, keys, cfg.max_nodes)
            except Exception as exc:  # the horizon's error
                grown = [exc] * len(group)
            pairs = [(i, leaves) for (_, i), leaves in zip(group, grown)
                     if not isinstance(leaves, Exception)]
            try:
                results = iter(observable(cfg, pairs) if pairs else ())
            except Exception as exc:  # contained: counted as failures
                results = itertools.repeat(exc)
            for leaves in grown:
                out = (leaves if isinstance(leaves, Exception)
                       else next(results))
                outcomes.append(_failure(out) if isinstance(out, Exception)
                                else (True, out))
    return outcomes


def _each_replica(observable, cfg: ExperimentConfig, grown: list) -> list:
    """A per-replica observable(cfg, index, leaves) -> rows as a group
    observable: each replica's rows, or the exception that failed it."""
    results = []
    for index, leaves in grown:
        try:
            results.append(observable(cfg, index, leaves))
        except Exception as exc:  # contained: counted as failures
            results.append(exc)
    return results


def _forest_chunk(cfg: ExperimentConfig, n: int, size: int) -> int:
    """The least chunk of n tasks that holds whole forests of up to
    ``size`` trees: the size that cuts them into threads * ceil(n /
    (threads * size)) equal chunks."""
    threads = cfg.effective_threads()
    return math.ceil(n / (threads * math.ceil(n / (threads * size))))


def _run_replicas(observable, cfg: ExperimentConfig, ts: list,
                  rhos: list) -> tuple[list, list, int]:
    """observable(cfg, grown) over replicas 0..replicas-1 at each t in ts.

    Replica i grows from replica_seed(cfg.seed, i).  The observable takes
    a lockstep group at one t as (index, GrownLeaves) pairs and returns
    one entry per replica (see _replica_chunk); _each_replica lifts a
    per-replica one.  ``rhos`` are the correlations it reads: the
    replicas draw no field when it is empty, x alone when every |rho| = 1,
    else x and z.  The result is (rows in task order, t-major; failure
    records; seed-schedule entries).
    """
    fields = 0 if not rhos else 1 if all(abs(r) == 1.0 for r in rhos) else 2
    tasks = [(t, i) for t in ts for i in range(cfg.replicas)]
    dist = cfg.dist()
    least = min(_forest_chunk(cfg, cfg.replicas, forest_size(dist, t))
                for t in ts)
    payloads, failures = _collect(
        functools.partial(_replica_chunk, observable, dist, fields),
        cfg, tasks, _replica_record, least)
    rows = [row for p in payloads if p is not None for row in p]
    return rows, failures, [_task_range("replica", "t", t, cfg.replicas)
                            for t in ts]


def _tree_rows(cfg: ExperimentConfig, index: int,
               leaves: GrownLeaves) -> list:
    return [(leaves.t, index, leaves.seed, leaves.n_leaves)]


def _run_tree_moments(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    rows, failures, schedule = _run_replicas(
        functools.partial(_each_replica, _tree_rows), cfg, cfg.ts(), [])
    growth = cfg.dist().mean_children - 1.0  # E[n_leaves] = e^(growth t)
    summary = {}
    for t in cfg.ts():
        ns = np.array([r[3] for r in rows if r[0] == t], dtype=np.float64)
        mean, se = _mean_se(ns)
        target = math.exp(growth * t)
        summary[f"t={t}"] = {
            "replicas": int(ns.size), "mean": mean, "se": se,
            "target": target,
            "z": (mean - target) / se if se and se > 0 else math.nan,
        }
    return RunnerOutput(
        csvs={"tree_moments.csv":
              (["t", "replica", "seed", "n_leaves"], rows)},
        summary=summary, failures=failures, schedule=schedule)


def _martingale_rows(betas: list, cfg: ExperimentConfig,
                     grown: list) -> list:
    """Each replica's rows, (rho, beta) in config order; the group's leaves
    are laid end to end once and each (rho, beta) reduces them in one
    additive_martingales pass."""
    group = [leaves for _, leaves in grown]
    positions = [np.concatenate(p)
                 for p in zip(*(leaves.positions for leaves in group))]
    ends = np.cumsum([leaves.n_leaves for leaves in group])
    rows = [[] for _ in grown]
    for rho in cfg.rhos():
        # the view reads only its tree's horizon, which the group shares
        fld = correlate(group[0], positions, rho)
        for beta in betas:
            for (index, leaves), out, m in zip(
                    grown, rows, additive_martingales(fld, beta,
                                                      ends).tolist()):
                out.append((leaves.t, beta.real, beta.imag, rho, index,
                            leaves.seed, leaves.n_leaves, m.real, m.imag,
                            abs(m) ** 2))
    return rows


def _run_martingale(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    betas = cfg.betas()
    rows, failures, schedule = _run_replicas(
        functools.partial(_martingale_rows, betas), cfg, [cfg.t], cfg.rhos())
    k_fac = cfg.dist().second_factorial_moment
    cells: dict = {}  # (sigma, tau, rho) -> its rows, in task order
    for r in rows:
        cells.setdefault(r[1:4], []).append(r)
    summary = {}
    for beta in betas:
        oracle = martingale_second_moment(beta, cfg.t, k_fac,
                                          allow_unbounded=True)
        for rho in cfg.rhos():
            sel = cells.get((beta.real, beta.imag, rho), [])
            re = np.array([r[7] for r in sel])
            im = np.array([r[8] for r in sel])
            a2 = np.array([r[9] for r in sel])
            mean_re, se_re = _mean_se(re)
            mean_im, se_im = _mean_se(im)
            mean_a2, se_a2 = _mean_se(a2)
            summary[f"beta={beta} rho={rho}"] = {
                "replicas": int(re.size),
                "mean_re": mean_re, "se_re": se_re,
                "mean_im": mean_im, "se_im": se_im,
                "mean_abs2": mean_a2, "se_abs2": se_a2,
                "oracle_abs2": oracle,
            }
    cols = ["t", "sigma", "tau", "rho", "replica", "seed", "n_leaves",
            "m_re", "m_im", "m_abs2"]
    return RunnerOutput(csvs={"martingale.csv": (cols, rows)},
                        summary=summary, failures=failures, schedule=schedule)


def _free_energy_rows(betas: list, cfg: ExperimentConfig, index: int,
                      leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, cfg.rho)
    return [(leaves.t, log_partitions(fld, betas))]


def _run_free_energy(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    if cfg.sigma_range is not None:
        betas = grid_betas(cfg.sigma_range, cfg.tau_range, cfg.resolution)
    else:
        betas = cfg.betas()
    observable = functools.partial(_each_replica, functools.partial(
        _free_energy_rows, betas))
    samples, failures, schedule = _run_replicas(observable, cfg, cfg.ts(),
                                                [cfg.rho])
    cells = [cell for t in cfg.ts() for cell in
             scan_cells(betas, [ps for rt, ps in samples if rt == t], t)]
    rows = [(c.sigma, c.tau, c.phase, c.p_limit, c.p_hat, c.stderr,
             c.n_replicas, c.t) for c in cells]
    cols = ["sigma", "tau", "phase", "p_limit", "p_hat", "stderr",
            "n_replicas", "t"]
    # contour-ready projection of the same cells
    grid = [(c.sigma, c.tau, c.p_limit, c.p_hat) for c in cells]
    summary = {"cells": len(cells),
               "max_abs_error": float(np.nanmax(
                   [abs(c.p_hat - c.p_limit) for c in cells]))}
    return RunnerOutput(
        csvs={"free_energy.csv": (cols, rows),
              "phase_grid.csv": (["sigma", "tau", "p_limit", "p_hat"], grid)},
        summary=summary, failures=failures, schedule=schedule)


def _glassy_rows(beta: complex, cfg: ExperimentConfig, index: int,
                 leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, cfg.rho)
    val = rescaled_partition(fld, beta).real_shift
    return [(index, leaves.seed, leaves.n_leaves, val.real, val.imag,
             abs(val))]


def _run_glassy_tail(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    beta = cfg.betas()[0]
    rows, failures, schedule = _run_replicas(
        functools.partial(_each_replica, functools.partial(
            _glassy_rows, beta)), cfg, [cfg.t], [cfg.rho])
    moduli = np.array([r[5] for r in rows])
    target = SQRT2 / abs(beta.real) if beta.real else math.nan
    summary = {"alpha_target": target, "n": int(moduli.size)}
    pos = moduli[moduli > 0]
    if pos.size >= stats.HILL_MIN_SAMPLES:
        for kf in HILL_K_FRACTIONS:
            fit = stats.hill_estimator(pos, k_fraction=kf)
            summary[f"hill_k={kf}"] = {"alpha_hat": fit.alpha_hat,
                                        "alpha_se": fit.alpha_se,
                                        "k_used": fit.k_used}
    cols = ["replica", "seed", "n_leaves", "x_re", "x_im", "abs_x"]
    return RunnerOutput(csvs={"glassy_tail.csv": (cols, rows)},
                        summary=summary, failures=failures,
                        schedule=schedule)


def _read_complex_samples(path: str) -> np.ndarray:
    re_vals, im_vals = [], []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(line for line in fh
                                if not line.startswith("#"))
        for rec in reader:
            re_vals.append(float(rec["x_re"]))
            im_vals.append(float(rec["x_im"]))
    if not re_vals:
        raise ConfigError(f"no samples found in {path!r}")
    return np.array(re_vals) + 1j * np.array(im_vals)


def _run_isotropy(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    failures, schedule = [], []
    if cfg.input_csv:
        samples = _read_complex_samples(cfg.input_csv)
    else:
        rows, failures, schedule = _run_replicas(
            functools.partial(_each_replica, functools.partial(
                _glassy_rows, cfg.betas()[0])), cfg, [cfg.t], [cfg.rho])
        samples = np.array([complex(r[3], r[4]) for r in rows])
    radii = stats.isotropy_radii(samples)
    control = stats.isotropic_resample(
        samples, stream_key(cfg.seed, CALIBRATION_STREAM))
    points = stats.polar_points(radii)
    angles = [2.0 * math.pi * j / stats.ISOTROPY_ANGLES
              for j in range(stats.ISOTROPY_ANGLES)]
    tables = {"sample": stats.cf_table(samples, points),
              "calibration": stats.cf_table(control, points)}
    rows = [(source, r, theta, c.real, c.imag)
            for source, phi in tables.items()
            for r, row in zip(radii.tolist(), phi.tolist())
            for theta, c in zip(angles, row)]
    statistic, calibration = map(stats.cf_discrepancy, tables.values())
    summary = {
        "n": int(samples.size),
        "radii": radii.tolist(),
        "statistic": statistic,
        "calibration": calibration,
        "ratio": statistic / calibration if calibration > 0 else math.inf,
    }
    cols = ["source", "radius", "angle", "cf_re", "cf_im"]
    return RunnerOutput(csvs={"isotropy.csv": (cols, rows)},
                        summary=summary, failures=failures, schedule=schedule,
                        streams={"calibration": CALIBRATION_STREAM})


def _truncation_rows(beta: complex, cfg: ExperimentConfig, index: int,
                     leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, cfg.rho)
    parts = truncation_sweep(fld, beta, cfg.a_list)
    return [(index, leaves.seed, leaves.n_leaves, float(a),
             part.kept.real, part.kept.imag, abs(part.discarded))
            for a, part in zip(cfg.a_list, parts)]


def _run_truncation(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    rows, failures, schedule = _run_replicas(
        functools.partial(_each_replica, functools.partial(
            _truncation_rows, cfg.betas()[0])), cfg, [cfg.t], [cfg.rho])
    summary = {"delta": TRUNCATION_DELTA}
    p_by_a = []
    for a in cfg.a_list:
        disc = np.array([r[6] for r in rows if r[3] == float(a)])
        p_exc = float(np.mean(disc > TRUNCATION_DELTA)) if disc.size else math.nan
        se = math.sqrt(max(p_exc * (1 - p_exc), 0.0) / disc.size) \
            if disc.size else math.nan
        p_by_a.append(p_exc)
        summary[f"A={a}"] = {"p_exceed": p_exc, "se": se,
                             "n": int(disc.size)}
    summary["nonincreasing"] = all(
        p_by_a[i + 1] <= p_by_a[i] + 1e-12 for i in range(len(p_by_a) - 1))
    summary["final_p_exceed"] = p_by_a[-1] if p_by_a else math.nan
    cols = ["replica", "seed", "n_leaves", "a", "kept_re", "kept_im",
            "disc_abs"]
    return RunnerOutput(csvs={"truncation.csv": (cols, rows)},
                        summary=summary, failures=failures,
                        schedule=schedule)


def _extremal_rows(cfg: ExperimentConfig, index: int,
                   leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, 1.0)
    shift = float(np.max(fld.x)) - m_of_t(leaves.t)
    return [(leaves.t, index, leaves.seed, leaves.n_leaves, shift,
             derivative_martingale(fld))]


def _run_extremal_max(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    ts = cfg.ts()
    rows, failures, schedule = _run_replicas(
        functools.partial(_each_replica, _extremal_rows), cfg, ts, [1.0])
    summary = {}
    shifts = {}
    zvals = {}
    for t in ts:
        arr = np.array([r[4] for r in rows if r[0] == t])
        shifts[t] = arr
        zvals[t] = np.array([r[5] for r in rows if r[0] == t])
        summary[f"t={t}"] = {"n": int(arr.size),
                             "median": float(np.median(arr)) if arr.size
                             else math.nan,
                             "mean": float(np.mean(arr)) if arr.size
                             else math.nan}
    if len(ts) >= 2 and shifts[ts[0]].size and shifts[ts[-1]].size:
        summary["ks_first_last"] = stats.ks_distance(shifts[ts[0]],
                                                     shifts[ts[-1]])
    last = ts[-1]
    if shifts[last].size >= 2000:
        fit = stats.max_tail_exponent(shifts[last])
        summary["tail"] = {"alpha_hat": fit.alpha_hat,
                           "alpha_se": fit.alpha_se, "k_used": fit.k_used,
                           "prefactor_power": fit.prefactor_power}
    if shifts[last].size >= 500:
        pos = zvals[last][zvals[last] > 0]
        if pos.size >= 500:
            cox = estimate_cox_constants(shifts[last], pos)
            summary["cox"] = {"c_hat": cox.c_hat, "sse": cox.sse}
    cols = ["t", "replica", "seed", "n_leaves", "max_shift", "z_deriv"]
    return RunnerOutput(csvs={"extremal_max.csv": (cols, rows)},
                        summary=summary, failures=failures,
                        schedule=schedule)


BRIDGE_CHUNK = 2000


def _bridge_worker(cfg: ExperimentConfig, chunk_index: int) -> tuple:
    n_paths = min(BRIDGE_CHUNK, cfg.replicas - chunk_index * BRIDGE_CHUNK)
    rs = replica_seed(cfg.seed, chunk_index)
    rng = make_rng(rs, 0xB1)
    t, a, step = cfg.t, cfg.r, BRIDGE_STEP
    n_steps = int(round(t / step))
    s = np.arange(1, n_steps + 1) * step
    window = (s >= a) & (s <= t - a)
    incr = rng.standard_normal((n_paths, n_steps)) * math.sqrt(step)
    w = np.cumsum(incr, axis=1)
    bridge = w - np.outer(w[:, -1], s / t)
    stay = np.all(bridge[:, window] <= 0.0, axis=1)
    return chunk_index, rs, n_paths, int(np.count_nonzero(stay))


def _run_bridge_check(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    tasks = list(range(-(-cfg.replicas // BRIDGE_CHUNK)))
    payloads, failures = _collect(
        functools.partial(_guarded_chunk, _bridge_worker), cfg, tasks)
    rows = [p for p in payloads if p is not None]
    n_total = sum(r[2] for r in rows)
    n_stay = sum(r[3] for r in rows)
    p_hat = n_stay / n_total if n_total else math.nan
    bound = bridge_barrier_bound(cfg.r, cfg.t)
    se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n_total) if n_total \
        else math.nan
    xs = np.linspace(0.1, 10.0, 199)
    from scipy.stats import norm
    tails = norm.sf(xs)
    bounds = gaussian_tail_bound(xs)
    tail_rows = [(float(x), float(b), float(v), bool(b >= v))
                 for x, b, v in zip(xs, bounds, tails)]
    summary = {
        "p_stay": p_hat, "se": se, "paths": n_total,
        "bound": bound, "within_bound": bool(p_hat <= bound),
        "gauss_tail_dominates": bool(np.all(bounds >= tails)),
    }
    return RunnerOutput(
        csvs={"bridge.csv": (["chunk", "seed", "paths", "n_stay"], rows),
              "gauss_tail.csv": (["x", "bound", "exact_tail", "dominates"],
                                 tail_rows)},
        summary=summary, failures=failures,
        schedule=[_task_range("chunk", "t", cfg.t, len(tasks))])


def _cluster_chunk(dist: OffspringDistribution, cfg: ExperimentConfig,
                   chunk: list) -> list:
    """(True, (index, seed, cluster)) or a failure per task, the chunk's
    clusters drawn by one sample_clusters call."""
    seeds = [replica_seed(cfg.seed, index) for index in chunk]
    try:
        drawn = sample_clusters(cfg.t_cond, dist, seeds, cfg.max_attempts,
                                max_nodes=cfg.max_nodes)
    except Exception as exc:  # contained: every task of the chunk fails
        drawn = [exc] * len(chunk)
    return [(True, (index, rs, cl)) if isinstance(cl, Cluster)
            else _failure(cl) for index, rs, cl in zip(chunk, seeds, drawn)]


def _sample_clusters(cfg: ExperimentConfig,
                     dist: OffspringDistribution) -> tuple[list, list, list]:
    """(index, seed, cluster) for each accepted task, failure records and
    seed-schedule entries.  A pool run's chunks hold whole forests of
    forest_size(dist, t_cond) seeds, so a chunk screens wide forests and
    regrows its accepted attempts in few grow_forest calls."""
    n = cfg.min_clusters
    payloads, failures = _collect(
        functools.partial(_cluster_chunk, dist), cfg, list(range(n)),
        least=_forest_chunk(cfg, n, forest_size(dist, cfg.t_cond)))
    return ([p for p in payloads if p is not None], failures,
            [_task_range("cluster", "t_cond", cfg.t_cond, n)])


def _run_cluster_bank(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    dist = cfg.dist()
    results, failures, schedule = _sample_clusters(cfg, dist)
    clusters = [c for _, _, c in results]
    if not clusters:
        raise AcceptanceError("no clusters accepted at all")
    bank_path = os.path.join(run_dir, "bank.txt")
    attempts = sum(c.attempts for c in clusters)
    save_cluster_bank(bank_path, clusters, dist)
    rows = [(i, rs, c.atoms.size, c.attempts, c.max_value,
             float(c.atoms.min())) for i, rs, c in results]
    summary = {
        "accepted": len(clusters),
        "attempts": attempts,
        "acceptance_rate": len(clusters) / attempts,
        "mean_atoms": float(np.mean([c.atoms.size for c in clusters])),
    }
    cols = ["index", "seed", "n_atoms", "attempts", "max_value", "min_atom"]
    return RunnerOutput(csvs={"clusters.csv": (cols, rows)},
                        summary=summary, failures=failures,
                        schedule=schedule,
                        extra_outputs={"bank.txt": bank_path})


def _run_limit_object(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    failures, schedule = [], []
    if cfg.bank_path:
        clusters, _meta = load_cluster_bank(cfg.bank_path)
    else:
        results, failures, schedule = _sample_clusters(cfg, cfg.dist())
        clusters = [c for _, _, c in results]
    model = LimitModel(cox_constant=COX_CONSTANT, z_weight=COX_Z_WEIGHT,
                       clusters=clusters)
    beta = cfg.betas()[0]
    a = float(cfg.a_list[0])
    draws = sample_limit_partition(model, beta, cfg.rho, a, cfg.replicas,
                                   stream_key(cfg.seed, COX_STREAM))
    moduli = np.abs(draws.values)
    counts = draws.atom_counts.astype(np.float64)
    mean_atoms = float(np.mean(counts))
    dispersion = float(np.var(counts, ddof=1) / mean_atoms) \
        if mean_atoms > 0 else math.nan
    summary = {
        "clusters": len(clusters),
        "threshold": a,
        "mean_atoms": mean_atoms,
        "model_mean_atoms": COX_CONSTANT * COX_Z_WEIGHT
        * math.exp(SQRT2 * a) / SQRT2,
        "dispersion": dispersion,
        "alpha_target": SQRT2 / abs(beta.real) if beta.real else math.nan,
        "n_zero": int(np.count_nonzero(moduli == 0.0)),
    }
    pos = moduli[moduli > 0]
    if pos.size >= stats.HILL_MIN_SAMPLES:
        fit = stats.hill_estimator(pos, k_fraction=0.05)
        summary["hill"] = {"alpha_hat": fit.alpha_hat,
                           "alpha_se": fit.alpha_se, "k_used": fit.k_used}
    rows = list(zip(range(cfg.replicas), draws.values.real.tolist(),
                    draws.values.imag.tolist(), moduli.tolist(),
                    draws.atom_counts.tolist()))
    cols = ["draw", "value_re", "value_im", "abs", "n_atoms"]
    return RunnerOutput(csvs={"limit_draws.csv": (cols, rows)},
                        summary=summary, failures=failures,
                        schedule=schedule, streams={"cox": COX_STREAM})


_RUNNERS = {
    "tree_moments": _run_tree_moments,
    "martingale": _run_martingale,
    "free_energy_scan": _run_free_energy,
    "glassy_tail": _run_glassy_tail,
    "isotropy": _run_isotropy,
    "truncation": _run_truncation,
    "extremal_max": _run_extremal_max,
    "bridge_check": _run_bridge_check,
    "cluster_bank": _run_cluster_bank,
    "limit_object": _run_limit_object,
}
