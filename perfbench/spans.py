"""Span tracing of bbmlab's layers from outside the package.

``Tracer.install`` rebinds the public names that each calling module
imported (``bbmlab.experiments.sample_tree``, ``bbmlab.partition.
scaled_exp_sum``, ``bbmlab.gwtree.make_rng``, ...) to timing wrappers and
``Tracer.uninstall`` puts the originals back, so nothing under ``src/``
changes.  A span records its name, layer, start, end, parent span and
replica id; spans stay in memory until the run ends.  The replica id is the
seed handed to the layer (the tree's seed for field and partition calls),
inherited from the enclosing span when that span already has one.

Tracing is single-process: trace only runs with ``threads = 1``, because
spans recorded in pool workers would stay in the workers' memory.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

LAYERS = ("experiments", "streams", "offspring", "gwtree", "field", "accum",
          "partition", "phase", "extremal", "stats")

# (unit, better, base) for every per-layer metric, in report order.  The
# base names what a ratio is taken over; it is printed next to the value.
METRICS = {
    "experiments.serial_wall_s": ("s", "lower", "untraced run, threads=1"),
    "experiments.pool_efficiency": (
        "ratio", "higher", "serial_wall_s / (threads * pooled wall_s)"),
    "experiments.self_s": ("s", "lower", "run span minus its children"),
    "experiments.replica_ms.p50": ("ms", "lower", "spans summed per replica"),
    "experiments.replica_ms.p90": ("ms", "lower", "spans summed per replica"),
    "experiments.tracing_overhead_s": (
        "s", "lower", "traced serial wall - serial_wall_s"),
    "streams.make_rng_calls": ("count", "lower", None),
    "streams.make_rng_us": ("us", "lower", "per make_rng call"),
    "offspring.from_pairs_calls": ("count", "lower", None),
    "offspring.from_pairs_us": ("us", "lower", "per from_pairs call"),
    "gwtree.calls": ("count", "lower", None),
    "gwtree.nodes": ("count", "lower", None),
    "gwtree.self_s": ("s", "lower", None),
    "gwtree.ns_per_node": ("ns", "lower", "gwtree.self_s / gwtree.nodes"),
    "gwtree.sample_tree_ms.p50": ("ms", "lower", "per sample_tree call"),
    "gwtree.sample_tree_ms.p90": ("ms", "lower", "per sample_tree call"),
    "gwtree.resource_limit_errors": ("count", "lower", None),
    "field.calls": ("count", "lower", None),
    "field.z_fields": ("count", "lower", None),
    "field.self_s": ("s", "lower", None),
    "field.ns_per_node": (
        "ns", "lower", "field.self_s / nodes of every drawn field"),
    "accum.calls": ("count", "lower", None),
    "accum.terms": ("count", "lower", None),
    "accum.self_s": ("s", "lower", None),
    "accum.ns_per_term": ("ns", "lower", "accum.self_s / accum.terms"),
    "partition.calls": ("count", "lower", None),
    "partition.self_s": ("s", "lower", "excluding accum"),
    "partition.sweep_ms.p50": (
        "ms", "lower", "partition calls summed per replica"),
    "phase.point_scan_s": ("s", "lower", "point_scan span, inclusive"),
    "phase.self_s": ("s", "lower", None),
    "phase.reductions": ("count", "lower", "accum calls made by phase"),
    "extremal.cluster_calls": ("count", "lower", None),
    "extremal.cluster_attempts": ("count", "lower", None),
    "extremal.acceptance_ratio": (
        "ratio", "higher", "cluster_calls / cluster_attempts"),
    "extremal.cluster_ms.p50": ("ms", "lower", "per sample_cluster call"),
    "extremal.cluster_ms.p90": ("ms", "lower", "per sample_cluster call"),
    "extremal.limit_s": ("s", "lower", "sample_limit_partition, inclusive"),
    "extremal.limit_us_per_draw": (
        "us", "lower", "extremal.limit_s / limit draws"),
    "extremal.cox_atoms": ("count", "lower", None),
    "stats.calls": ("count", "lower", None),
    "stats.self_s": ("s", "lower", None),
}

# span slots
NAME, LAYER, START, END, PARENT, REPLICA, NOTE, ERROR = range(8)


def _arg(i, key):
    return lambda args, kw: kw[key] if key in kw else args[i]


def _tree_seed(args, kw):
    tree = kw["tree"] if "tree" in kw else args[0]
    return tree.seed


def _field_seed(args, kw):
    fld = kw["field"] if "field" in kw else args[0]
    return fld.tree.seed


def _size(args, kw, out):
    return int(np.size(args[0] if args else next(iter(kw.values()))))


def _field_note(args, kw, out):
    from bbmlab.streams import TAG_PAIR_Z, stream_key
    is_z = out.seed == stream_key(out.tree.seed, TAG_PAIR_Z)
    return out.tree.n_nodes, is_z


def _limit_note(args, kw, out):
    return int(out.atom_counts.sum()), int(out.atom_counts.size)


_PARTITION_FNS = ("additive_martingale", "rescaled_partition",
                  "truncated_partition", "derivative_martingale")
_STATS_FNS = ("hill_estimator", "ks_distance", "max_tail_exponent",
              "isotropy_radii", "isotropy_statistic", "isotropic_resample",
              "empirical_cf")

# (calling module, imported name, layer, replica id rule, note rule)
BINDINGS = (
    [("bbmlab." + mod, "make_rng", "streams", _arg(0, "seed"), None)
     for mod in ("gwtree", "field", "extremal", "experiments", "stats")]
    + [("bbmlab." + mod, "sample_tree", "gwtree", _arg(2, "seed"),
        lambda a, k, out: out.n_nodes)
       for mod in ("experiments", "phase", "extremal")]
    + [("bbmlab." + mod, "sample_field", "field", _tree_seed, _field_note)
       for mod in ("experiments", "field")]
    + [("bbmlab." + mod, "sample_correlated_pair", "field", _tree_seed, None)
       for mod in ("experiments", "phase", "extremal")]
    + [("bbmlab." + mod, "scaled_exp_sum", "accum", None, _size)
       for mod in ("partition", "phase", "accum")]
    + [("bbmlab.partition", "compensated_sum", "accum", None, _size)]
    + [("bbmlab.experiments", name, "partition", _field_seed, None)
       for name in _PARTITION_FNS]
    + [("bbmlab.experiments", name, "phase", None, None)
       for name in ("grid_scan", "classify", "limiting_free_energy")]
    + [("bbmlab.phase", "point_scan", "phase", None, None)]
    + [("bbmlab.experiments", "sample_cluster", "extremal", _arg(2, "seed"),
        lambda a, k, out: out.attempts),
       ("bbmlab.experiments", "sample_limit_partition", "extremal",
        _arg(5, "seed"), _limit_note)]
    + [("bbmlab.experiments", name, "extremal", None, None)
       for name in ("estimate_cox_constants", "load_cluster_bank",
                    "save_cluster_bank")]
    + [("bbmlab.stats", name, "stats", None, None) for name in _STATS_FNS]
)


class _OffspringShim:
    """Stands in for ``OffspringDistribution`` inside bbmlab.experiments,
    which uses the name only for ``from_pairs`` (in ``cfg.dist()``)."""

    def __init__(self, from_pairs):
        self.from_pairs = from_pairs


class Tracer:
    """Collects spans from rebound bbmlab names; one instance per run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def wrap(self, layer, name, fn, replica_of=None, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else -1
            replica = spans[parent][REPLICA] if parent >= 0 else None
            if replica is None and replica_of is not None:
                replica = replica_of(args, kwargs)
            span = [name, layer, 0, 0, parent, replica, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, out)
            return out
        return timed

    def install(self) -> None:
        for modname, attr, layer, replica_of, note in BINDINGS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(layer, attr, original,
                                         replica_of, note))
        exp = importlib.import_module("bbmlab.experiments")
        original = exp.OffspringDistribution
        self._saved.append((exp, "OffspringDistribution", original))
        exp.OffspringDistribution = _OffspringShim(
            self.wrap("offspring", "from_pairs", original.from_pairs))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def traced_call(self, layer, name, fn, *args):
        """Run ``fn(*args)`` as a root span with the names rebound."""
        self.install()
        try:
            return self.wrap(layer, name, fn)(*args)
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        """Spans as CSV: times in ns from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,layer,start_ns,end_ns,parent,replica,error\n")
            for i, s in enumerate(self.spans):
                replica = "" if s[REPLICA] is None else s[REPLICA]
                fh.write(f"{i},{s[NAME]},{s[LAYER]},{s[START] - t0},"
                         f"{s[END] - t0},{s[PARENT]},{replica},"
                         f"{s[ERROR] or ''}\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced run (the root span is experiments).

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.  Metrics of a
    layer the workload never calls read 0.
    """
    n = len(spans)
    dur = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[PARENT] >= 0:
            child[s[PARENT]] += d
    self_ns = dur - child
    by_layer = {layer: [] for layer in LAYERS}
    for i, s in enumerate(spans):
        by_layer[s[LAYER]].append(i)

    def self_s(layer):
        return float(sum(self_ns[i] for i in by_layer[layer])) / 1e9

    def named(name):
        return [i for i in range(n) if spans[i][NAME] == name]

    def per_replica_ms(select):
        # outermost selected span per replica, so nesting is not counted
        totals: dict = {}
        for i in range(n):
            s = spans[i]
            p = s[PARENT]
            if s[REPLICA] is None or not select(s):
                continue
            if p >= 0 and spans[p][REPLICA] == s[REPLICA] and select(spans[p]):
                continue
            totals[s[REPLICA]] = totals.get(s[REPLICA], 0.0) + dur[i] / 1e6
        return list(totals.values())

    m = {}
    replica_ms = per_replica_ms(lambda s: True)
    m["experiments.self_s"] = self_s("experiments")
    m["experiments.replica_ms.p50"] = _pct(replica_ms, 50)
    m["experiments.replica_ms.p90"] = _pct(replica_ms, 90)

    rng = named("make_rng")
    m["streams.make_rng_calls"] = len(rng)
    m["streams.make_rng_us"] = _ratio(sum(dur[i] for i in rng) / 1e3, len(rng))
    fp = named("from_pairs")
    m["offspring.from_pairs_calls"] = len(fp)
    m["offspring.from_pairs_us"] = _ratio(sum(dur[i] for i in fp) / 1e3,
                                          len(fp))

    trees = named("sample_tree")
    nodes = sum(spans[i][NOTE] or 0 for i in trees)
    tree_ms = [dur[i] / 1e6 for i in trees]
    m["gwtree.calls"] = len(trees)
    m["gwtree.nodes"] = nodes
    m["gwtree.self_s"] = self_s("gwtree")
    m["gwtree.ns_per_node"] = _ratio(m["gwtree.self_s"] * 1e9, nodes)
    m["gwtree.sample_tree_ms.p50"] = _pct(tree_ms, 50)
    m["gwtree.sample_tree_ms.p90"] = _pct(tree_ms, 90)
    m["gwtree.resource_limit_errors"] = sum(
        1 for i in trees if spans[i][ERROR] == "ResourceLimitError")

    fields = [spans[i][NOTE] for i in named("sample_field")
              if spans[i][NOTE] is not None]
    m["field.calls"] = len(fields)
    m["field.z_fields"] = sum(1 for _, is_z in fields if is_z)
    m["field.self_s"] = self_s("field")
    m["field.ns_per_node"] = _ratio(m["field.self_s"] * 1e9,
                                    sum(k for k, _ in fields))

    acc = by_layer["accum"]
    terms = sum(spans[i][NOTE] or 0 for i in acc)
    m["accum.calls"] = len(acc)
    m["accum.terms"] = terms
    m["accum.self_s"] = self_s("accum")
    m["accum.ns_per_term"] = _ratio(m["accum.self_s"] * 1e9, terms)

    sweep_ms = per_replica_ms(lambda s: s[LAYER] == "partition")
    m["partition.calls"] = len(by_layer["partition"])
    m["partition.self_s"] = self_s("partition")
    m["partition.sweep_ms.p50"] = _pct(sweep_ms, 50)

    phase = set(by_layer["phase"])
    m["phase.point_scan_s"] = sum(dur[i] for i in named("point_scan")) / 1e9
    m["phase.self_s"] = self_s("phase")
    m["phase.reductions"] = sum(1 for i in acc if spans[i][PARENT] in phase)

    clusters = named("sample_cluster")
    attempts = sum(spans[i][NOTE] or 0 for i in clusters)
    cluster_ms = [dur[i] / 1e6 for i in clusters]
    limit = named("sample_limit_partition")
    notes = [spans[i][NOTE] for i in limit if spans[i][NOTE] is not None]
    limit_s = sum(dur[i] for i in limit) / 1e9
    m["extremal.cluster_calls"] = len(clusters)
    m["extremal.cluster_attempts"] = attempts
    m["extremal.acceptance_ratio"] = _ratio(
        sum(1 for i in clusters if spans[i][ERROR] is None), attempts)
    m["extremal.cluster_ms.p50"] = _pct(cluster_ms, 50)
    m["extremal.cluster_ms.p90"] = _pct(cluster_ms, 90)
    m["extremal.limit_s"] = limit_s
    m["extremal.limit_us_per_draw"] = _ratio(limit_s * 1e6,
                                             sum(d for _, d in notes))
    m["extremal.cox_atoms"] = sum(a for a, _ in notes)

    m["stats.calls"] = len(by_layer["stats"])
    m["stats.self_s"] = self_s("stats")

    m["_self_total_s"] = sum(self_s(layer) for layer in LAYERS)
    m["_samples"] = {"replicas": len(replica_ms), "trees": len(tree_ms),
                     "clusters": len(cluster_ms), "sweeps": len(sweep_ms)}
    return m
