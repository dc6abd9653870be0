"""Experiment drivers: replica orchestration and artifact emission.

Every experiment takes one declarative config, checked in full before the
run directory is made, fans replicas out over a process pool (replica i
always uses seed XOR i, and results are gathered in replica order), and
writes into a fresh timestamped directory: one or more CSV files whose
bodies are byte-identical across reruns of the same config and seed, plus
a manifest recording the seed schedule, failures, versions and wall time.
Replica-level errors are contained and counted; a run fails when more
than 10 percent of its replicas fail.  Each experiment is one entry of
EXPERIMENTS, the table that run, validate_config and the CLI read.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone

import numpy as np

from . import stats
from .extremal import (COX_CHUNK, AcceptanceError, Cluster, LimitModel,
                       _cox_key, _limit_chunk, _limit_plan,
                       estimate_cox_constants, load_cluster_bank,
                       sample_clusters, save_cluster_bank)
from .field import correlate
from .gwtree import (NODE_BUDGET, GrownLeaves, forest_size, grow_forest,
                     pair_sum)
from .offspring import _MEAN_TOL, OffspringDistribution
from .oracles import (bridge_barrier_bound, gaussian_tail_bound,
                      many_to_two_pair_moment, martingale_second_moment)
from .partition import (SQRT2, additive_martingales, derivative_martingale,
                        log_partitions, m_of_t, rescaled_partition,
                        truncation_sweep)
from .phase import grid_betas, scan_cells
from .streams import TAG_COX, make_rng, pair_keys, replica_seed, stream_key

# No longer called here.  perfbench/spans.py rebinds these names in this
# module to time them, so they stay imported until its BINDINGS move.
from .extremal import sample_cluster, sample_limit_partition  # noqa: F401
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
        """threads, or else the CPUs this process may run on (all of the
        machine's where the OS has no affinity call, as on macOS and
        Windows)."""
        if self.threads:
            return self.threads
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return max(1, os.cpu_count() or 1)


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
# The keys every run reads, whatever its experiment.
_RUN_KEYS = {"experiment", "seed", "threads", "output_dir"}
# The keys a run that grows trees reads: its offspring law and node budget.
_GROWS = ("offspring", "allow_general_offspring", "max_nodes")


def _none(cfg: ExperimentConfig) -> list:
    return []


def _x_alone(cfg: ExperimentConfig) -> list:
    """The rhos of a run that reads x alone."""
    return [1.0]


@dataclass(frozen=True)
class Experiment:
    """One entry of EXPERIMENTS: all that run, validate_config and the CLI
    know of an experiment.

    ``needs`` are the config keys a run must name ("a|b": one of them, not
    both) and ``reads`` the others it may read, so that validate_config
    refuses any other key but the run-wide ones, and the run echoes these
    keys alone.  ``reads_one`` names the lists (beta_list, a_list) of
    which the run reads the first entry alone, so that a second is
    refused, and ``check(cfg)`` raises ConfigError for the values this
    experiment cannot run at and returns the keys of ``reads`` that this
    config's run skips (a run from a file grows nothing), which are refused
    when given.  A replica experiment grows replicas 0..replicas-1 at each
    t of ``ts(cfg)``, with the fields that the correlations ``rhos(cfg)``
    need and, with ``genealogy``, each tree's GwTree; ``observable(cfg,
    grown)`` reduces a lockstep group's (index, GrownLeaves) pairs at once
    and returns one entry per replica (_each_replica lifts a per-replica
    one), and ``finish(cfg, rows)`` gives its (csvs, summary).  When the
    rows are a CSV body as they stand,
    ``rows_file`` names that file and ``columns`` its header: the pool
    workers format the rows, and ``finish`` gives the summary alone.  Any
    other experiment has a ``runner(cfg, run_dir) -> RunnerOutput``.
    ``streams`` names the run-level side streams (name -> tag).
    """

    needs: tuple
    reads: tuple = ()
    reads_one: tuple = ()
    check: Callable = _none
    observable: Callable | None = None
    genealogy: bool = False
    ts: Callable = ExperimentConfig.ts
    rhos: Callable = ExperimentConfig.rhos
    finish: Callable | None = None
    rows_file: str | None = None
    columns: tuple = ()
    runner: Callable | None = None
    streams: dict = field(default_factory=dict)

    def keys(self) -> set:
        """The config keys its run may read: the run-wide ones, both
        alternatives of each need and its reads."""
        return (_RUN_KEYS | set(self.reads)
                | {alt for req in self.needs for alt in req.split("|")})

    def fields(self, cfg: ExperimentConfig) -> int:
        """How many fields a replica grows: none when no rho is read, x
        alone when every |rho| = 1, else x and z."""
        rhos = self.rhos(cfg)
        return 0 if not rhos else 1 if all(abs(r) == 1 for r in rhos) else 2


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
    # a null leaves its key unset, so it names no needed key
    provided = {key for key, value in merged.items() if value is not None}
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


def _horizons(cfg: ExperimentConfig, horizons: list | None = None) -> None:
    """Refuse a horizon (each t of cfg.ts() unless given) that is not
    finite and > 0: m(t), p_t and the cluster law need one."""
    if not all(0.0 < t < math.inf for t in
               (cfg.ts() if horizons is None else horizons)):
        raise ConfigError(f"{cfg.experiment} needs a finite horizon > 0")


def _file_or_horizons(cfg: ExperimentConfig, key: str, horizons: list,
                      grows: tuple) -> tuple:
    """A run reads its input from the file at ``key`` when one is named,
    which must then be a file, and skips the keys ``grows`` that only its
    growth reads; or else it grows that input at ``horizons``.  Returns
    the keys skipped."""
    path = getattr(cfg, key)
    if path and not os.path.isfile(path):
        raise ConfigError(f"{key} {path!r} is not a file")
    _horizons(cfg, [] if path else horizons)
    return grows if path else ()


def _check_scan(cfg: ExperimentConfig) -> None:
    """Horizons, and a grid named in full (sigma_range and tau_range, each
    two finite numbers, and resolution >= 1) or not at all."""
    _horizons(cfg)
    if cfg.sigma_range is cfg.tau_range is None and not cfg.resolution:
        return  # a beta_list scan
    if cfg.resolution < 1:
        raise ConfigError("grid scan needs resolution >= 1")
    for key in ("sigma_range", "tau_range"):
        value = getattr(cfg, key)
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_is_real(v) and math.isfinite(v) for v in value)):
            raise ConfigError(f"grid scan needs {key} as two finite "
                              f"numbers, got {value!r}")


def _mean_two(cfg: ExperimentConfig) -> None:
    """Refuse an offspring law whose mean is not two (within the law's
    own tolerance): the run compares with closed forms that assume it."""
    mean = cfg.dist().mean_children
    if abs(mean - 2.0) > _MEAN_TOL:
        raise ConfigError(f"{cfg.experiment} compares with closed forms of "
                          f"a mean-two law; the offspring mean is {mean!r}")


def _check_pair(cfg: ExperimentConfig) -> None:
    _horizons(cfg)
    _mean_two(cfg)


def _check_bridge(cfg: ExperimentConfig) -> None:
    if not 0.0 < 2.0 * cfg.r < cfg.t:
        raise ConfigError("bridge_check needs 0 < 2r < t")


def _check_limit(cfg: ExperimentConfig) -> tuple:
    if not cfg.a_list[0] > 0.0:
        raise ConfigError("limit_object needs a_list[0] > 0")
    return _file_or_horizons(cfg, "bank_path", [cfg.t_cond],
                             ("min_clusters", "max_attempts") + _GROWS)


def validate_config(cfg: ExperimentConfig, provided: set | None = None) -> None:
    """Reject a config before anything runs; every check raises ConfigError.

    The experiment's entry says which keys the run needs and reads and how
    its values are checked.  A provided key that the run would drop is
    refused: one the run neither needs nor reads, nor reads in every run
    (_RUN_KEYS); the second alternative of a need; and one its check says
    this run skips.  Without an explicit ``provided``, the keys set to
    other than their defaults are taken as provided, and ``needs`` is not
    checked.
    """
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {cfg.experiment!r}; choose from "
            f"{sorted(EXPERIMENTS)}")
    spec = EXPERIMENTS[cfg.experiment]
    for key in ("seed", "replicas", "resolution", "min_clusters",
                "max_attempts", "max_nodes", "threads"):
        value = getattr(cfg, key)
        if key == "threads" and value is None:
            continue  # unset: every CPU
        if isinstance(value, bool) or not isinstance(value,
                                                     (int, np.integer)):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if value < 1 and key not in ("seed", "resolution"):
            raise ConfigError(f"{key} must be >= 1, got {value!r}")
    for key in ("t", "rho", "r", "t_cond"):
        if not _is_real(getattr(cfg, key)):
            raise ConfigError(f"{key} must be a real number, got "
                              f"{getattr(cfg, key)!r}")
    for key in ("t_list", "rho_list", "a_list", "beta_list"):
        values = getattr(cfg, key)
        if values is None and key in ("t_list", "rho_list"):
            continue  # unset: the run reads t or rho
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"{key} must be a non-empty list, got "
                              f"{values!r}")
        if key != "beta_list" and not all(map(_is_real, values)):
            raise ConfigError(f"{key} entries must be real numbers, got "
                              f"{values!r}")
        parsed = (cfg.betas() if key == "beta_list"
                  else [float(v) for v in values])
        if not np.isfinite(parsed).all():
            raise ConfigError(f"{key} entries must be finite, got "
                              f"{values!r}")
        # replica i always draws from seed XOR i, so a repeated entry
        # would rerun the same replicas and count them twice
        if len(set(parsed)) < len(parsed):
            raise ConfigError(f"{key} repeats an entry: {values!r}")
    try:
        cfg.dist()
    except ValueError as exc:
        raise ConfigError(f"offspring: {exc}") from exc
    if not all(-1.0 <= rho <= 1.0 for rho in [cfg.rho] + cfg.rhos()):
        raise ConfigError("rho and rho_list entries must lie in [-1, 1]")
    if not all(0.0 <= t < math.inf for t in [cfg.t] + cfg.ts()):
        raise ConfigError("t and t_list entries must be finite and >= 0")
    if not all(a >= 0.0 for a in cfg.a_list):
        raise ConfigError("a_list entries must be >= 0")
    default = ExperimentConfig(cfg.experiment)
    given = provided if provided is not None else {
        key for key in _CONFIG_KEYS
        if _jsonable(getattr(cfg, key)) != _jsonable(getattr(default, key))}
    unread = given - spec.keys()
    if unread:
        raise ConfigError(
            f"{cfg.experiment} does not read {sorted(unread)}")
    for req in spec.needs:
        if len(given & set(req.split("|"))) > 1:
            raise ConfigError(f"{cfg.experiment} reads one of "
                              f"{req.replace('|', ' and ')}, not both")
    for key in spec.reads_one:
        if getattr(cfg, key)[1:]:
            raise ConfigError(f"{cfg.experiment} reads the first entry of "
                              f"{key} alone, so it would drop "
                              f"{getattr(cfg, key)[1:]!r}")
    skipped = given & set(spec.check(cfg) or ())
    if skipped:
        raise ConfigError(f"this {cfg.experiment} run does not read "
                          f"{sorted(skipped)}")
    missing = [req for req in spec.needs if provided is not None
               and not any(alt in provided for alt in req.split("|"))]
    if missing:
        raise ConfigError(
            f"experiment {cfg.experiment!r} needs explicit config keys: "
            f"{missing}")


@dataclass
class RunnerOutput:
    csvs: dict
    summary: dict
    failures: list
    schedule: list  # seed-schedule entries: the tasks that ran, per kind
    extra_outputs: dict = field(default_factory=dict)
    # CSV name -> the bodies the pool workers formatted, written in this
    # order after the CSV's rows
    texts: dict = field(default_factory=dict)


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


def _guarded_chunk(worker, cfg: ExperimentConfig,
                   chunk: list) -> tuple[list, str]:
    """The chunk worker of a per-task worker: (True, worker(cfg, task))
    per task, or its contained failure, and no text."""
    outcomes = []
    for task in chunk:
        try:
            outcomes.append((True, worker(cfg, task)))
        except Exception as exc:  # contained: replica failures are counted
            outcomes.append(_failure(exc))
    return outcomes, ""


def _task_record(cfg: ExperimentConfig, task: int) -> dict:
    return {"task": task, "seed": replica_seed(cfg.seed, task)}


def _replica_record(cfg: ExperimentConfig, task: tuple) -> dict:
    t, index = task
    return {"t": t, "replica": index, "seed": replica_seed(cfg.seed, index)}


class _Pool(contextlib.ExitStack):
    """The worker pool that one run's _collect calls share; leaving the
    context shuts it down.

    Its workers fork when a call first submits chunks, so a run of two
    stages (clusters, then the Cox draws from them) forks them once,
    before the second stage's inputs exist.  A call in which a worker died
    leaves the pool broken, and the next call forks a new one.
    """

    def __init__(self, threads: int):
        super().__init__()
        self.threads = threads
        self.executor = None

    def run(self, call, chunks: list, piece: int) -> list:
        """call(chunk) for each chunk, in chunk order.  A chunk that comes
        back without a result, since a worker died, is rerun in pieces of
        ``piece`` tasks, each on its own (_rerun_alone)."""
        # imported here, not at the top: the pool's modules
        # (multiprocessing, socket, subprocess, logging) are a large share
        # of this module's import time, which a serial run need not pay
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        if self.executor is None:
            import numpy.random  # noqa: F401  (the workers inherit it)
            self.executor = self.enter_context(
                ProcessPoolExecutor(max_workers=self.threads))
        futures = [self.executor.submit(call, chunk) for chunk in chunks]
        done = []
        for chunk, future in zip(chunks, futures):
            try:
                done.append(future.result())
            except BrokenProcessPool:
                self.executor = None  # closed with the stack
                done += [_rerun_alone(call, chunk[i:i + piece])
                         for i in range(0, len(chunk), piece)]
        return done


def _rerun_alone(call, chunk: list) -> tuple[list, str]:
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
            return [_failure(exc)] * len(chunk), ""


def _collect(chunk_worker, cfg: ExperimentConfig, tasks: list,
             record=_task_record, least: int = 1,
             pool: _Pool | None = None) -> tuple[list, list, list]:
    """Run the tasks in chunks; results come back in task order.

    chunk_worker(cfg, chunk) returns one (ok, payload) per task of the
    chunk, and (False, {"error_type", "error"}) for a task that failed
    (_guarded_chunk makes one from a per-task worker), plus a text of the
    chunk's own.  The result is (payloads, failure records, the texts in
    task order).  A failed task leaves None in its slot and adds a failure
    record: record(cfg, task), which names the task and its seed, plus the
    error.  When a pool worker dies, the pool loses every pending chunk,
    and no text comes back from it.  A pool run cuts
    pieces of len(tasks) // (threads * 8) tasks and chunks of at least
    ``least``; each chunk without a result is rerun piece by piece on its
    own (_rerun_alone), so only a piece that kills its worker again fails.
    The chunks run on ``pool``, or else on a pool of this call's own.
    Without a pool, all tasks are one chunk.
    """
    call = functools.partial(chunk_worker, cfg)
    threads = cfg.effective_threads()
    if threads <= 1 or len(tasks) <= 1:
        done = [call(tasks)]
    else:
        piece = max(1, len(tasks) // (threads * 8))
        size = max(piece, least)
        chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
        with (_Pool(threads) if pool is None
              else contextlib.nullcontext(pool)) as pool:
            done = pool.run(call, chunks, piece)
    outcomes = (outcome for chunk_outcomes, _ in done
                for outcome in chunk_outcomes)
    payloads, failures = [], []
    for task, (ok, val) in zip(tasks, outcomes):
        payloads.append(val if ok else None)
        if not ok:
            failures.append({**record(cfg, task), **val})
    return payloads, failures, [text for _, text in done]


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


def _write_rows(fh, rows) -> None:
    """The one CSV body format, which _write_csv and the replica workers
    both write: the bytes of csv.writer(fh, lineterminator="\n").

    Rows of one length that hold ints and floats alone take one %r format
    per row, which gives those bytes, since csv.writer writes a float's
    repr and an int's str, which is its repr, and neither needs quotes.
    Rows holding anything else go through csv.writer.
    """
    rows = list(map(tuple, rows))
    if (len({*map(len, rows)}) == 1 and {*map(
            type, itertools.chain.from_iterable(rows))} <= {int, float}):
        line = ",".join(["%r"] * len(rows[0])) + "\n"
        fh.writelines([line % row for row in rows])
    else:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_csv(path: str, columns: list, rows, echo: dict,
               texts=()) -> None:
    """The ``# config`` line and the header, then the rows, then the
    texts: the bodies that the replica workers formatted, in task order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config " + json.dumps(_jsonable(echo), sort_keys=True)
                 + "\n")
        _write_rows(fh, [columns])
        _write_rows(fh, rows)
        fh.writelines(texts)


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
    spec = EXPERIMENTS[config.experiment]
    run_dir = _fresh_run_dir(config)
    started = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    if spec.runner:
        out = spec.runner(config, run_dir)
    else:
        rows, texts, failures, schedule = _run_replicas(spec, config)
        if spec.rows_file:  # its body is the workers' texts
            out = RunnerOutput({spec.rows_file: (spec.columns, ())},
                               spec.finish(config, rows), failures, schedule,
                               texts={spec.rows_file: texts})
        else:
            out = RunnerOutput(*spec.finish(config, rows), failures, schedule)
    echo = {key: value for key, value in asdict(config).items()
            if key in spec.keys()}
    outputs = dict(out.extra_outputs)
    for name, (columns, rows) in out.csvs.items():
        path = os.path.join(run_dir, name)
        _write_csv(path, columns, rows, echo, out.texts.get(name, ()))
        outputs[name] = path
    wall = time.monotonic() - t0  # the CSVs written, the manifest not
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
                        for name, tag in spec.streams.items()},
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


def _replica_chunk(observable, dist, fields: int, genealogy: bool,
                   text: bool, cfg: ExperimentConfig,
                   chunk: list) -> tuple[list, str]:
    """_run_replicas' chunk worker: each run of tasks at one t grows in
    lockstep groups of up to forest_size(dist, t) trees, one grow_forest
    call per group, each tree with the first ``fields`` of its seed's
    pair_keys (a group's from one array pass) and, with ``genealogy``, its
    GwTree, and observable(cfg, grown) reduces a group's (index,
    GrownLeaves) pairs at once.  It returns one entry per replica, its
    rows or the exception that failed it; a tree that failed to grow fails
    only its own task, and an observable that raises fails its whole
    group.  With ``text``, the chunk's rows, failed replicas left out, also
    come back as one CSV body in task order, formatted here in the worker
    (else the text is empty)."""
    outcomes = []
    for t, at_t in itertools.groupby(chunk, key=lambda task: task[0]):
        at_t, size = list(at_t), forest_size(dist, t)
        for group in [at_t[lo:lo + size] for lo in range(0, len(at_t), size)]:
            seeds = [replica_seed(cfg.seed, i) for _, i in group]
            keys = pair_keys(seeds, fields)
            try:
                grown = grow_forest(dist, t, seeds, keys, cfg.max_nodes,
                                    genealogy)
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
    body = io.StringIO()
    if text:
        _write_rows(body, (row for ok, rows in outcomes if ok
                           for row in rows))
    return outcomes, body.getvalue()


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


def _run_replicas(spec: Experiment,
                  cfg: ExperimentConfig) -> tuple[list, list, list, list]:
    """A replica experiment's observable over replicas 0..replicas-1 at
    each t of spec.ts(cfg).

    Replica i grows from replica_seed(cfg.seed, i), with spec.fields(cfg)
    fields.  The result is (rows in task order, t-major; the chunks' CSV
    bodies of those rows in task order when spec.rows_file is named;
    failure records; seed-schedule entries).
    """
    ts, dist = spec.ts(cfg), cfg.dist()
    least = min((_forest_chunk(cfg, cfg.replicas, forest_size(dist, t))
                 for t in ts), default=1)
    payloads, failures, texts = _collect(
        functools.partial(_replica_chunk, spec.observable, dist,
                          spec.fields(cfg), spec.genealogy,
                          spec.rows_file is not None),
        cfg, [(t, i) for t in ts for i in range(cfg.replicas)],
        _replica_record, least)
    rows = [row for p in payloads if p is not None for row in p]
    return rows, texts, failures, [
        _task_range("replica", "t", t, cfg.replicas) for t in ts]


def _proportion(hits: int, n: int) -> tuple[float, float]:
    """The binomial proportion hits / n and its standard error (NaN, NaN
    for n = 0)."""
    if not n:
        return math.nan, math.nan
    p = hits / n
    return p, math.sqrt(max(p * (1 - p), 0.0) / n)


def _hill_summary(beta: complex, moduli: np.ndarray, fits: dict) -> dict:
    """The tail index SQRT2 / |Re beta| that |values| should show, and a
    Hill fit per summary key -> k_fraction of ``fits`` when there are
    enough positive moduli to fit."""
    summary = {"alpha_target": SQRT2 / abs(beta.real) if beta.real
               else math.nan}
    pos = moduli[moduli > 0]
    if pos.size >= stats.HILL_MIN_SAMPLES:
        for key, k_fraction in fits.items():
            fit = stats.hill_estimator(pos, k_fraction=k_fraction)
            summary[key] = {"alpha_hat": fit.alpha_hat,
                            "alpha_se": fit.alpha_se, "k_used": fit.k_used}
    return summary


def _tree_rows(cfg: ExperimentConfig, index: int,
               leaves: GrownLeaves) -> list:
    return [(leaves.t, index, leaves.seed, leaves.n_leaves)]


def _tree_finish(cfg: ExperimentConfig, rows: list) -> dict:
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
    return summary


def _martingale_rows(cfg: ExperimentConfig, grown: list) -> list:
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
        for beta in cfg.betas():
            for (index, leaves), out, m in zip(
                    grown, rows, additive_martingales(fld, beta,
                                                      ends).tolist()):
                out.append((leaves.t, beta.real, beta.imag, rho, index,
                            leaves.seed, leaves.n_leaves, m.real, m.imag,
                            abs(m) ** 2))
    return rows


def _martingale_finish(cfg: ExperimentConfig, rows: list) -> dict:
    """Per (beta, rho) cell, the mean and standard error of m_re, m_im and
    m_abs2.  Only the six columns read are built, as float64 arrays, and a
    cell's values are picked out by a mask, so they keep task order."""
    k_fac = cfg.dist().second_factorial_moment
    sigma, tau, rho_of, *values = (
        np.fromiter(map(operator.itemgetter(col), rows), np.float64,
                    len(rows)) for col in (1, 2, 3, 7, 8, 9))
    summary = {}
    for beta in cfg.betas():
        oracle = martingale_second_moment(beta, cfg.t, k_fac,
                                          allow_unbounded=True)
        at_beta = (sigma == beta.real) & (tau == beta.imag)
        for rho in cfg.rhos():
            mask = at_beta & (rho_of == rho)
            cell = summary[f"beta={beta} rho={rho}"] = {
                "replicas": int(np.count_nonzero(mask))}
            for col, key in zip(values, ("re", "im", "abs2")):
                cell[f"mean_{key}"], cell[f"se_{key}"] = _mean_se(col[mask])
            cell["oracle_abs2"] = oracle
    return summary


def _scan_betas(cfg: ExperimentConfig) -> list:
    """free_energy_scan's betas: its grid, or else its beta_list."""
    if cfg.sigma_range is not None:
        return grid_betas(cfg.sigma_range, cfg.tau_range, cfg.resolution)
    return cfg.betas()


def _free_energy_rows(cfg: ExperimentConfig, grown: list) -> list:
    """Each replica's log partitions at the scan's betas, or the exception
    that failed it.  The betas are made once per group: made per replica,
    they cost phase_grid 3% of its CPU time."""
    betas = _scan_betas(cfg)

    def rows(cfg: ExperimentConfig, index: int, leaves: GrownLeaves) -> list:
        fld = correlate(leaves, leaves.positions, cfg.rho)
        return [(leaves.t, log_partitions(fld, betas))]
    return _each_replica(rows, cfg, grown)


def _free_energy_finish(cfg: ExperimentConfig,
                        rows: list) -> tuple[dict, dict]:
    betas = _scan_betas(cfg)
    cells = [cell for t in cfg.ts() for cell in
             scan_cells(betas, [ps for rt, ps in rows if rt == t], t)]
    table = [(c.sigma, c.tau, c.phase, c.p_limit, c.p_hat, c.stderr,
              c.n_replicas, c.t) for c in cells]
    cols = ["sigma", "tau", "phase", "p_limit", "p_hat", "stderr",
            "n_replicas", "t"]
    # contour-ready projection of the same cells
    grid = [(c.sigma, c.tau, c.p_limit, c.p_hat) for c in cells]
    summary = {"cells": len(cells),
               "max_abs_error": float(np.nanmax(
                   [abs(c.p_hat - c.p_limit) for c in cells]))}
    return ({"free_energy.csv": (cols, table),
             "phase_grid.csv": (["sigma", "tau", "p_limit", "p_hat"], grid)},
            summary)


def _glassy_rows(cfg: ExperimentConfig, index: int,
                 leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, cfg.rho)
    val = rescaled_partition(fld, cfg.betas()[0]).real_shift
    return [(index, leaves.seed, leaves.n_leaves, val.real, val.imag,
             abs(val))]


def _glassy_finish(cfg: ExperimentConfig, rows: list) -> dict:
    moduli = np.array([r[5] for r in rows])
    return {"n": int(moduli.size), **_hill_summary(
        cfg.betas()[0], moduli,
        {f"hill_k={kf}": kf for kf in HILL_K_FRACTIONS})}


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


def _pair_tilt(cfg: ExperimentConfig) -> tuple[complex, float]:
    """(lam, damp) = (sigma + i rho tau, (1 - rho^2) tau^2) for the first
    beta sigma + i tau: the y = rho x + sqrt(1 - rho^2) z tilt with its
    independent z averaged out."""
    beta, rho = cfg.betas()[0], cfg.rho
    return (complex(beta.real, rho * beta.imag),
            (1.0 - rho * rho) * beta.imag * beta.imag)


def _pair_rows(cfg: ExperimentConfig, index: int,
               leaves: GrownLeaves) -> list:
    """The overlap-weighted sum over ordered leaf pairs of exp(lam x) (see
    gwtree.pair_sum): it needs the genealogy and x alone."""
    lam, damp = _pair_tilt(cfg)
    return [(index, leaves.seed, leaves.n_leaves,
             pair_sum(leaves.tree, np.exp(lam * leaves.positions[0]), damp))]


def _pair_finish(cfg: ExperimentConfig, rows: list) -> dict:
    """The sums' mean and standard error against the two-point moment."""
    mean, se = _mean_se(np.array([r[3] for r in rows], dtype=np.float64))
    oracle = many_to_two_pair_moment(
        _pair_tilt(cfg)[0], cfg.rho, cfg.betas()[0].imag, cfg.t,
        cfg.dist().second_factorial_moment)
    return {"n": len(rows), "mean": mean, "se": se, "oracle": oracle,
            "z": (mean - oracle) / se if se and se > 0 else math.nan}


def _isotropy_ts(cfg: ExperimentConfig) -> list:
    """isotropy reads its samples from input_csv, or else grows them."""
    return [] if cfg.input_csv else cfg.ts()


def _isotropy_finish(cfg: ExperimentConfig,
                     rows: list) -> tuple[dict, dict]:
    if cfg.input_csv:
        samples = _read_complex_samples(cfg.input_csv)
    else:
        samples = np.array([complex(r[3], r[4]) for r in rows])
    radii = stats.isotropy_radii(samples)
    control = stats.isotropic_resample(
        samples, stream_key(cfg.seed, CALIBRATION_STREAM))
    points = stats.polar_points(radii)
    angles = [2.0 * math.pi * j / stats.ISOTROPY_ANGLES
              for j in range(stats.ISOTROPY_ANGLES)]
    tables = {"sample": stats.cf_table(samples, points),
              "calibration": stats.cf_table(control, points)}
    cf_rows = [(source, r, theta, c.real, c.imag)
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
    return {"isotropy.csv": (cols, cf_rows)}, summary


def _truncation_rows(cfg: ExperimentConfig, index: int,
                     leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, cfg.rho)
    parts = truncation_sweep(fld, cfg.betas()[0], cfg.a_list)
    return [(index, leaves.seed, leaves.n_leaves, float(a),
             part.kept.real, part.kept.imag, abs(part.discarded))
            for a, part in zip(cfg.a_list, parts)]


def _truncation_finish(cfg: ExperimentConfig, rows: list) -> dict:
    summary = {"delta": TRUNCATION_DELTA}
    p_by_a = []
    for a in cfg.a_list:
        disc = np.array([r[6] for r in rows if r[3] == float(a)])
        p_exc, se = _proportion(int(np.count_nonzero(disc > TRUNCATION_DELTA)),
                                disc.size)
        p_by_a.append(p_exc)
        summary[f"A={a}"] = {"p_exceed": p_exc, "se": se,
                             "n": int(disc.size)}
    summary["nonincreasing"] = all(
        p_by_a[i + 1] <= p_by_a[i] + 1e-12 for i in range(len(p_by_a) - 1))
    summary["final_p_exceed"] = p_by_a[-1] if p_by_a else math.nan
    return summary


def _extremal_rows(cfg: ExperimentConfig, index: int,
                   leaves: GrownLeaves) -> list:
    fld = correlate(leaves, leaves.positions, 1.0)
    shift = float(np.max(fld.x)) - m_of_t(leaves.t)
    return [(leaves.t, index, leaves.seed, leaves.n_leaves, shift,
             derivative_martingale(fld))]


def _extremal_finish(cfg: ExperimentConfig, rows: list) -> dict:
    ts = cfg.ts()
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
    return summary


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
    payloads, failures, _ = _collect(
        functools.partial(_guarded_chunk, _bridge_worker), cfg, tasks)
    rows = [p for p in payloads if p is not None]
    n_total = sum(r[2] for r in rows)
    p_hat, se = _proportion(sum(r[3] for r in rows), n_total)
    bound = bridge_barrier_bound(cfg.r, cfg.t)
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
                   chunk: list) -> tuple[list, str]:
    """(True, (index, seed, cluster)) or a failure per task, the chunk's
    clusters drawn by one sample_clusters call, and no text."""
    seeds = [replica_seed(cfg.seed, index) for index in chunk]
    try:
        drawn = sample_clusters(cfg.t_cond, dist, seeds, cfg.max_attempts,
                                max_nodes=cfg.max_nodes)
    except Exception as exc:  # contained: every task of the chunk fails
        drawn = [exc] * len(chunk)
    return [(True, (index, rs, cl)) if isinstance(cl, Cluster)
            else _failure(cl)
            for index, rs, cl in zip(chunk, seeds, drawn)], ""


def _sample_clusters(cfg: ExperimentConfig, dist: OffspringDistribution,
                     pool: _Pool | None = None) -> tuple[list, list, list]:
    """(index, seed, cluster) for each accepted task, failure records and
    seed-schedule entries.  A pool run's chunks hold whole forests of
    forest_size(dist, t_cond) seeds, so a chunk screens wide forests and
    regrows its accepted attempts in few grow_forest calls."""
    n = cfg.min_clusters
    payloads, failures, _ = _collect(
        functools.partial(_cluster_chunk, dist), cfg, list(range(n)),
        least=_forest_chunk(cfg, n, forest_size(dist, cfg.t_cond)),
        pool=pool)
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


def _cox_chunk(plan: tuple, cfg: ExperimentConfig,
               chunk: list) -> tuple[list, str]:
    """_run_limit_object's chunk worker: per Cox chunk c of the chunk,
    (True, (moduli, atom counts)) of its draws, or its failure, and the
    draws' rows as one CSV body in chunk order, failed chunks left out."""
    seed = stream_key(cfg.seed, COX_STREAM)
    outcomes, body = [], io.StringIO()
    for c in chunk:
        try:
            draws = _limit_chunk(plan, seed, cfg.replicas, c)
        except Exception as exc:  # contained: counted as failures
            outcomes.append(_failure(exc))
            continue
        values, counts = draws.values, draws.atom_counts
        moduli = np.abs(values)
        first = c * COX_CHUNK
        _write_rows(body, zip(range(first, first + counts.size),
                              values.real.tolist(), values.imag.tolist(),
                              moduli.tolist(), counts.tolist()))
        outcomes.append((True, (moduli, counts)))
    return outcomes, body.getvalue()


def _cox_record(cfg: ExperimentConfig, chunk: int) -> dict:
    return {"chunk": chunk,
            "key": _cox_key(stream_key(cfg.seed, COX_STREAM), chunk)}


def _run_limit_object(cfg: ExperimentConfig, run_dir: str) -> RunnerOutput:
    """Clusters, or a bank file, then cfg.replicas limit draws in chunks of
    COX_CHUNK (extremal.sample_limit_partition's chunks, so the same
    bits), on one pool: each Cox chunk gets the per-cluster weights made
    once here, not the bank, and formats its own rows."""
    failures, schedule = [], []
    with _Pool(cfg.effective_threads()) as pool:
        if cfg.bank_path:
            clusters, _meta = load_cluster_bank(cfg.bank_path)
        else:
            results, failures, schedule = _sample_clusters(cfg, cfg.dist(),
                                                           pool)
            clusters = [c for _, _, c in results]
        model = LimitModel(cox_constant=COX_CONSTANT, z_weight=COX_Z_WEIGHT,
                           clusters=clusters)
        beta = cfg.betas()[0]
        a = float(cfg.a_list[0])
        plan = _limit_plan(model, beta, cfg.rho, a)
        chunks = list(range(-(-cfg.replicas // COX_CHUNK)))
        payloads, cox_failures, texts = _collect(
            functools.partial(_cox_chunk, plan), cfg, chunks, _cox_record,
            pool=pool)
    done = [p for p in payloads if p is not None] or [(np.empty(0),) * 2]
    moduli = np.concatenate([m for m, _ in done])
    counts = np.concatenate([n for _, n in done]).astype(np.float64)
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
        "n_zero": int(np.count_nonzero(moduli == 0.0)),
        **_hill_summary(beta, moduli, {"hill": 0.05}),
    }
    cols = ["draw", "value_re", "value_im", "abs", "n_atoms"]
    return RunnerOutput(
        csvs={"limit_draws.csv": (cols, ())}, summary=summary,
        failures=failures + cox_failures,
        schedule=schedule + [{
            "kind": "cox", "range": [0, len(chunks)], "chunk_draws": COX_CHUNK,
            "key": f"stream_key(streams.cox.key, {hex(TAG_COX)}, c)"}],
        texts={"limit_draws.csv": texts})


# Each entry's needs, reads and check are its whole config contract (see
# Experiment); m(t), p_t and the cluster law need horizons > 0, while
# tree_moments and martingale are defined at t = 0.  Three experiments
# keep runners: their tasks are not replicas (a bridge_check chunk of
# paths, a cluster of cluster_bank or limit_object), and the manifest's
# failure records name each by its "task" and seed.
EXPERIMENTS = {
    "tree_moments": Experiment(
        ("replicas", "t|t_list"), _GROWS,
        observable=functools.partial(_each_replica, _tree_rows), rhos=_none,
        finish=_tree_finish, rows_file="tree_moments.csv",
        columns=("t", "replica", "seed", "n_leaves")),
    "martingale": Experiment(
        ("replicas", "t", "beta_list"), ("rho", "rho_list") + _GROWS,
        check=_mean_two, observable=_martingale_rows,
        finish=_martingale_finish,
        rows_file="martingale.csv",
        columns=("t", "sigma", "tau", "rho", "replica", "seed", "n_leaves",
                 "m_re", "m_im", "m_abs2")),
    "free_energy_scan": Experiment(
        ("replicas", "t|t_list", "beta_list|sigma_range"),
        ("rho", "tau_range", "resolution") + _GROWS, check=_check_scan,
        observable=_free_energy_rows, finish=_free_energy_finish),
    "glassy_tail": Experiment(
        ("replicas", "t", "beta_list", "rho"), _GROWS,
        reads_one=("beta_list",), check=_horizons,
        observable=functools.partial(_each_replica, _glassy_rows),
        finish=_glassy_finish, rows_file="glassy_tail.csv",
        columns=("replica", "seed", "n_leaves", "x_re", "x_im", "abs_x")),
    "isotropy": Experiment(
        ("input_csv|beta_list",), ("replicas", "t", "rho") + _GROWS,
        reads_one=("beta_list",),
        check=lambda cfg: _file_or_horizons(
            cfg, "input_csv", cfg.ts(), ("replicas", "t", "rho") + _GROWS),
        observable=functools.partial(_each_replica, _glassy_rows),
        ts=_isotropy_ts, finish=_isotropy_finish,
        streams={"calibration": CALIBRATION_STREAM}),
    "truncation": Experiment(
        ("replicas", "t", "beta_list", "a_list", "rho"), _GROWS,
        reads_one=("beta_list",), check=_horizons,
        observable=functools.partial(_each_replica, _truncation_rows),
        finish=_truncation_finish,
        rows_file="truncation.csv",
        columns=("replica", "seed", "n_leaves", "a", "kept_re", "kept_im",
                 "disc_abs")),
    "extremal_max": Experiment(
        ("replicas", "t|t_list"), _GROWS, check=_horizons,
        observable=functools.partial(_each_replica, _extremal_rows),
        rhos=_x_alone, finish=_extremal_finish,
        rows_file="extremal_max.csv",
        columns=("t", "replica", "seed", "n_leaves", "max_shift",
                 "z_deriv")),
    "pair_moment": Experiment(
        ("replicas", "t", "beta_list", "rho"), _GROWS,
        reads_one=("beta_list",), check=_check_pair,
        observable=functools.partial(_each_replica, _pair_rows),
        genealogy=True, rhos=_x_alone, finish=_pair_finish,
        rows_file="pair_moment.csv",
        columns=("replica", "seed", "n_leaves", "pair_sum")),
    "bridge_check": Experiment(
        ("replicas", "t", "r"), check=_check_bridge,
        runner=_run_bridge_check),
    "cluster_bank": Experiment(
        ("t_cond", "min_clusters"), ("max_attempts",) + _GROWS,
        check=lambda cfg: _horizons(cfg, [cfg.t_cond]),
        runner=_run_cluster_bank),
    "limit_object": Experiment(
        ("replicas", "beta_list", "a_list", "bank_path|t_cond"),
        ("rho", "min_clusters", "max_attempts") + _GROWS,
        reads_one=("beta_list", "a_list"), check=_check_limit,
        runner=_run_limit_object, streams={"cox": COX_STREAM}),
}
