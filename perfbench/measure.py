"""Run one workload in this fresh process and print its measurements.

Started by ``run.py``; not meant to be run by hand.  The untraced mode
repeats ``bbmlab.experiments.run`` on the pool until the measured window is
over.  The traced mode repeats a pooled run, an untraced serial run and a
traced serial run.  Both modes first run the workload once at the default
seed: that run warms the process (lazy imports, page cache, heap) and its
CSV bodies are compared with the digests recorded in ``digests.json``.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_checkout(root: str):
    """Import bbmlab from the checkout's own src/, never an installed copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bbmlab
    from bbmlab import experiments
    if not os.path.realpath(bbmlab.__file__).startswith(
            os.path.realpath(src) + os.sep):
        raise SystemExit(f"imported bbmlab from {bbmlab.__file__}, "
                         f"not from {src}")
    return bbmlab, experiments


def body_digests(result) -> dict:
    """sha256 of each CSV body; the '# config' echo line is not body."""
    out = {}
    for name, path in sorted(result.outputs.items()):
        if not name.endswith(".csv"):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if data.startswith(b"# config "):
            data = data[data.index(b"\n") + 1:]
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _reference_kernel() -> float:
    """Seconds for a fixed kernel that shares no code with bbmlab.

    It mixes what bbmlab spends its time on (Philox normals, exp, cumsum,
    a gather, and a Python loop of small array calls).  Its arrays stay
    near 1 MB so that it barely moves the process's peak RSS.
    """
    import numpy as np
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=12345))
    x = rng.standard_normal(1 << 17)
    idx = rng.integers(0, x.size, size=x.size)
    for _ in range(40):
        x = np.cumsum(np.exp(-np.abs(x[idx]))) / x.size
    for k in range(6000):
        np.exp(np.arange(k % 16 + 1, dtype=np.float64)).sum()
    return time.perf_counter() - t0


# A helper process that times the kernel once per line read from stdin.
_PEER = """\
import sys
sys.path.insert(0, sys.argv[1])
from measure import _reference_kernel
for _ in sys.stdin:
    print(_reference_kernel(), flush=True)
"""


class Reference:
    """Times the reference kernel on ``width`` cores at once.

    Timed between runs, it measures how fast this shared host is at that
    moment for work as wide as the runs'.  The extra copies run in helper
    processes that idle between timings; ``close`` ends and waits for them.
    """

    def __init__(self, width: int):
        self.peers = [subprocess.Popen([sys.executable, "-c", _PEER, HERE],
                                       stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)
                      for _ in range(width - 1)]
        self.seconds()  # the first timing pays the helpers' numpy import

    def seconds(self) -> float:
        for peer in self.peers:
            peer.stdin.write("\n")
            peer.stdin.flush()
        times = [_reference_kernel()]
        times += [float(peer.stdout.readline()) for peer in self.peers]
        return sum(times) / len(times)

    def close(self) -> None:
        for peer in self.peers:
            peer.stdin.close()
            peer.wait()
            peer.stdout.close()


class Runner:
    """Runs one workload's configs and keeps every outcome."""

    def __init__(self, experiments, name: str, workdir: str):
        self.experiments = experiments
        self.name = name
        self.workdir = workdir
        self.problems: list = []

    def once(self, seed: int, threads: int, tracer=None) -> dict:
        cfg = workloads.config(self.name, seed, threads,
                               os.path.join(self.workdir, "runs"))
        path = os.path.join(self.workdir, f"config-{seed}-{threads}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        exp = self.experiments
        config, provided = exp.load_config(path, {})
        load_before = os.getloadavg()
        self_before = resource.getrusage(resource.RUSAGE_SELF)
        kids_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if tracer is None:
            result = exp.run(config, provided)
        else:
            result = tracer.traced_call("experiments", "run", exp.run,
                                        config, provided)
        wall = time.perf_counter() - t0
        cpu = (_cpu_s(resource.getrusage(resource.RUSAGE_SELF))
               - _cpu_s(self_before)
               + _cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN))
               - _cpu_s(kids_before))
        load_after = os.getloadavg()
        problems, zscores = workloads.check(self.name, cfg, result)
        digests = body_digests(result)
        shutil.rmtree(result.run_dir)
        self.problems.extend(f"seed {seed}, threads {threads}: {p}"
                             for p in problems)
        failed = result.tasks if problems else len(result.failures)
        return {"wall_s": wall, "cpu_s": cpu, "tasks": result.tasks,
                "failed": failed, "digests": digests, "zscores": zscores,
                "load": [load_before[0], load_after[0]]}


def _read_digests() -> dict:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit(root: str) -> str:
    """HEAD of the checkout's .git, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["model"] = value.strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            d = os.path.join(base, index)
            with open(os.path.join(d, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type"), encoding="utf-8") as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size"), encoding="utf-8") as fh:
                info["caches"][f"L{level} {kind}"] = fh.read().strip()
    except OSError:
        pass
    return info


def _mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def provenance(root: str, bbmlab) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_info(),
        "mem_available_mb": _mem_available_mb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "bbmlab_file": bbmlab.__file__,
    }


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(runner: Runner, seed: int, seconds: float, threads: int,
            width: int) -> dict:
    """Pooled runs until the window closes, a reference timing between each.

    A run's host-relative time is its wall (or CPU) seconds over the mean
    of the reference timings just before and just after it; the reference
    runs ``width`` copies, as many cores as the runs keep busy.
    """
    reference = Reference(width)
    try:
        runs, refs = [], [reference.seconds()]
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            runs.append(runner.once(
                workloads.iteration_seed(seed, len(runs)), threads))
            refs.append(reference.seconds())
    finally:
        reference.close()
    for r, before, after in zip(runs, refs, refs[1:]):
        r["ref_s"] = (before + after) / 2.0
    return {
        "runs": runs,
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "ref_s": [r["ref_s"] for r in runs],
        "wall_rel": [r["wall_s"] / r["ref_s"] for r in runs],
        "cpu_rel": [r["cpu_s"] / r["ref_s"] for r in runs],
        "parent_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }


def replay(runner: Runner, seed: int, seconds: float, threads: int,
           spans_path: str) -> dict:
    from spans import Tracer, layer_metrics
    iters, runs = [], []
    start = time.perf_counter()
    while not iters or time.perf_counter() - start < seconds:
        run_seed = workloads.iteration_seed(seed, len(iters))
        pooled = runner.once(run_seed, threads)
        serial = runner.once(run_seed, 1)
        tracer = Tracer()
        traced = runner.once(run_seed, 1, tracer)
        if not pooled["digests"] == serial["digests"] == traced["digests"]:
            runner.problems.append(
                f"seed {run_seed}: pooled, serial and traced runs wrote "
                "differing CSV bodies")
            traced["failed"] = traced["tasks"]
        # the three runs share inputs, so only one enters the z-test pool
        serial["zscores"] = traced["zscores"] = {}
        runs += [pooled, serial, traced]
        m = layer_metrics(tracer.spans)
        m["experiments.serial_wall_s"] = serial["wall_s"]
        m["experiments.pool_efficiency"] = (
            serial["wall_s"] / (threads * pooled["wall_s"]))
        m["_traced_wall_s"] = traced["wall_s"]
        m["_pooled_wall_s"] = pooled["wall_s"]
        iters.append(m)
    tracer.write(spans_path)
    merged = {}
    for key, first in iters[0].items():
        if isinstance(first, (int, float)):
            merged[key] = statistics.median(m[key] for m in iters)
        else:
            merged[key] = first
    # a difference of medians, so that serial + overhead = traced exactly;
    # host noise larger than the overhead can make it negative
    merged["experiments.tracing_overhead_s"] = (
        merged["_traced_wall_s"] - merged["experiments.serial_wall_s"])
    return {"runs": runs, "metrics": merged, "iterations": len(iters),
            "spans": len(tracer.spans), "spans_file": spans_path}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    bbmlab, experiments = _import_checkout(args.root)
    threads = min(2, len(os.sched_getaffinity(0)))
    runner = Runner(experiments, args.workload, args.workdir)

    # the traced replay times serial runs, so it warms this process's heap
    # with a serial run; the untraced mode warms with a pooled one
    warm = runner.once(workloads.DEFAULT_SEED, 1 if args.trace else threads)
    # Worker memory is read after the warm-up run: its inputs are fixed, so
    # the peak does not depend on how many runs (and how large a largest
    # tree) the window happened to hold.  A run that starts no pool
    # (phase_grid) computes every replica here, so this process is its
    # largest worker.
    workers_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    out_worker = {"worker_rss_mb": workers_mb or _peak_rss_mb(
        resource.RUSAGE_SELF), "pool_used": workers_mb > 0}
    recorded = _read_digests().get(args.workload)
    if args.trace:
        spans_path = os.path.join(args.root, ".perfbench_out",
                                  f"spans-{args.workload}.csv")
        out = replay(runner, args.seed, args.seconds, threads, spans_path)
    else:
        width = threads if out_worker["pool_used"] else 1
        out = measure(runner, args.seed, args.seconds, threads, width)
    runner.problems += workloads.pooled_problems([warm["zscores"]])
    runner.problems += workloads.pooled_problems(
        [r["zscores"] for r in out["runs"]])
    out.update(
        out_worker,
        threads=threads,
        problems=runner.problems,
        csv_identical=warm["digests"] == recorded,
        default_seed_digests=warm["digests"],
        attempted=sum(r["tasks"] for r in out["runs"]),
        failed=sum(r["failed"] for r in out["runs"]),
        load=[warm["load"]] + [r["load"] for r in out["runs"]],
        provenance=provenance(args.root, bbmlab),
    )
    for r in out["runs"]:
        del r["digests"], r["zscores"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
