"""bbmlab benchmark: one workload, end-to-end metrics or a traced replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload deep_truncation --seed 20260825 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: ``setup_s`` from fresh
interpreters that import ``bbmlab.experiments`` and load the workload's
config, then ``wall_s``, ``cpu_s`` and peak memory of repeated
``bbmlab.experiments.run`` calls on a pool of ``min(2, nproc)`` workers in
a fresh process.  ``--trace 1`` replays the workload serially with every
layer's public names rebound to timing wrappers (see ``spans.py``) and
reports the per-layer metrics.  Both modes check the outputs against the
closed forms in ``workloads.py``.

The human-readable report and a provenance line come first; the last
stdout line is the JSON result.  Exit code 0 means a result was printed;
anything else (no ``src/bbmlab`` here, a crashed or timed-out run) exits
non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
SETUP_PROBES = 7

# Gated metrics.  wall_rel and cpu_rel are a run's wall and CPU seconds in
# units of a reference kernel timed around it (measure.Reference): on a
# shared host whose speed drifts by up to 25% over minutes they held
# within 8% between runs where raw seconds did not.  Raw wall_s and cpu_s
# are still reported.
END_TO_END = {"wall_rel": "ref", "cpu_rel": "ref", "setup_s": "s",
              "parent_rss_mb": "MB", "worker_rss_mb": "MB"}
REPORTED = {"wall_s": "s", "cpu_s": "s", "ref_s": "s"}

# A fresh interpreter times its own import and config load; interpreter
# start-up is not part of it.
_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bbmlab.experiments
bbmlab.experiments.load_config(sys.argv[2], {})
print(time.perf_counter() - t0)
"""


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _run_child(cmd: list, timeout: float) -> str:
    """Run cmd in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {proc.returncode}:\n"
                         f"{err.strip()}")
    return out


def setup_samples(config_path: str, deadline: float) -> list:
    src = os.path.join(ROOT, "src")
    return [float(_run_child([sys.executable, "-c", _PROBE, src,
                              config_path],
                             deadline - time.monotonic()).split()[-1])
            for _ in range(SETUP_PROBES)]


def trimmed_mean(values: list) -> float:
    """Mean of a window's runs without its fastest and slowest fifth.

    In two steadiness rounds where both were computed from the same runs,
    its run-to-run spread of wall_rel and cpu_rel stayed at or under 7% on
    every workload while the median's reached 9%.
    """
    v = sorted(values)
    k = len(v) // 5
    return statistics.mean(v[k:len(v) - k])


def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


def report_end_to_end(args, out, setup) -> dict:
    """Print every end-to-end figure; return the gated metrics."""
    print(f"perfbench {args.workload} seed={args.seed} trace=0 "
          f"threads={out['threads']} runs={len(out['runs'])}")
    samples = {name: out[name] for name in ("wall_rel", "cpu_rel", "wall_s",
                                            "cpu_s", "ref_s")}
    values = {name: trimmed_mean(v) for name, v in samples.items()}
    notes = {name: f"trimmed mean ({_quartiles(v)})"
             for name, v in samples.items()}
    values.update(setup_s=statistics.median(setup),
                  parent_rss_mb=out["parent_rss_mb"],
                  worker_rss_mb=out["worker_rss_mb"])
    notes["setup_s"] = f"median ({_quartiles(setup)})"
    for name, unit in {**END_TO_END, **REPORTED}.items():
        note = notes.get(name, "peak RSS")
        print(f"  {name:<16} {values[name]:>12.4f} {unit:<3} {note}")
    frac = out["failed"] / out["attempted"]
    print(f"  {'failed_fraction':<16} {frac:>12.4f} 1   "
          f"({out['failed']} of {out['attempted']} tasks)")
    if not out["pool_used"]:
        print("  (no pool started: worker_rss_mb is the bench process)")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def report_trace(args, out) -> None:
    from spans import METRICS
    m = out["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} trace=1 "
          f"threads={out['threads']} iterations={out['iterations']} "
          f"(medians); spans={out['spans']} -> {out['spans_file']}")
    print(f"  {'metric':<32} {'value':>14} {'unit':<6} base")
    for name, (unit, _better, base) in METRICS.items():
        print(f"  {name:<32} {m[name]:>14.6g} {unit:<6} {base or ''}")
    print(f"  samples behind percentiles: {m['_samples']}")
    print(f"  layer self times sum to {m['_self_total_s']:.4f} s; traced "
          f"serial wall {m['_traced_wall_s']:.4f} s = serial_wall_s "
          f"{m['experiments.serial_wall_s']:.4f} s + tracing_overhead_s "
          f"{m['experiments.tracing_overhead_s']:.4f} s (medians)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "bbmlab",
                                       "experiments.py")):
        print(f"no bbmlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = []
        if not args.trace:
            threads = min(2, len(os.sched_getaffinity(0)))
            path = os.path.join(workdir, "setup-config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(workloads.config(args.workload, args.seed, threads,
                                           os.path.join(workdir, "runs")), fh)
            setup = setup_samples(path, deadline)
        raw = _run_child(
            [sys.executable, os.path.join(HERE, "measure.py"),
             "--root", ROOT, "--workdir", workdir,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline - time.monotonic())
        out = json.loads(raw.strip().splitlines()[-1])
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        from spans import METRICS
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, (unit, _b, _base) in METRICS.items()}
        report_trace(args, out)
    else:
        metrics = report_end_to_end(args, out, setup)
    print(f"  correct          {not out['problems']}")
    for problem in out["problems"]:
        print(f"    - {problem}")
    print(f"  csv_identical    {out['csv_identical']} (default seed "
          f"{workloads.DEFAULT_SEED} against perfbench/digests.json)")
    prov = dict(out["provenance"], loadavg_1m_before_after=out["load"],
                runs_wall_cpu_ref_s=[[r["wall_s"], r["cpu_s"], r.get("ref_s")]
                                     for r in out["runs"]],
                setup_s_samples=setup, elapsed_s=time.monotonic() - started,
                default_seed_digests=out["default_seed_digests"])
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": not out["problems"],
                      "attempted": out["attempted"],
                      "failed": out["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
