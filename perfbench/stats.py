"""Arithmetic of the benchmark: order statistics, span self times and
the per-layer metrics derived from a traced run's spans."""

import hashlib
import json
import math
import statistics

# Percentiles the summary may report, lowest first.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    `statistics.quantiles(values, n=4)` gives them (a single sample is
    its own quartiles)."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """The highest percentile of PERCENTILES that has at least ten
    samples beyond it, as (percentile, value, n); None when there are
    too few samples for even the median to qualify."""
    n = len(values)
    best = None
    for p in PERCENTILES:
        rank = nearest_rank(p, n)
        if n - rank >= 10:
            best = (p, rank)
    if best is None:
        return None
    p, rank = best
    return p, sorted(values)[rank - 1], n


def nearest_rank(p, n):
    """1-based rank of the p-th percentile of n samples (nearest-rank
    method: the smallest rank covering p percent of the samples)."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span, by id: its duration minus the part of
    its interval that its children cover. Children running in parallel
    (scheduler workers) overlap; the union counts each instant once."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"])
        - covered_length(children.get(s["id"], []), s["start_ns"], s["end_ns"])
        for s in spans
    }


def phase_of(spans):
    """The top-level span name each span sits under, by id."""
    by_id = {s["id"]: s for s in spans}
    phases = {}
    for s in spans:
        top = s
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        phases[s["id"]] = top["name"]
    return phases


def self_time_by_layer(spans):
    """{span name: {phase: self seconds}} summed over all spans."""
    selfs, phases = self_times(spans), phase_of(spans)
    table = {}
    for s in spans:
        row = table.setdefault(s["name"], {})
        row[phases[s["id"]]] = row.get(phases[s["id"]], 0.0) + selfs[s["id"]] / 1e9
    return table


def layer_metrics(doc):
    """The per-layer metrics of one traced run document (see
    perfbench/tracer), except the tracing overhead, which needs the
    untraced run beside it."""
    spans, counts, cells = doc["spans"], doc["counts"], doc["cells"]
    table = self_time_by_layer(spans)

    def self_s(name):
        return sum(table.get(name, {}).values())

    def total_s(name, weighted=False):
        return sum(
            (s["end_ns"] - s["start_ns"]) * (s["count"] if weighted else 1)
            for s in spans
            if s["name"] == name
        ) / 1e9

    cycles = sum(c["finished_at"] for c in cells)
    flits = sum(c["flits_delivered"] for c in cells)
    noc_s = self_s("noc.run")
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    worker_s = total_s("schedule.run_indexed", weighted=True)
    top_s = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] is None) / 1e9
    return {
        "traffic.generate_s": self_s("traffic.generate"),
        "traffic.packets": counts.get("traffic.packets", 0),
        "training.collect_s": self_s("training.collect"),
        "training.runs": counts.get("training.runs", 0),
        "training.rows": counts.get("training.rows", 0),
        "ml.fit_s": self_s("ml.fit"),
        "noc.run_s": noc_s,
        "noc.runs": counts.get("noc.runs", 0),
        "noc.sim_cycles": cycles,
        "noc.flits": flits,
        "noc.packets": sum(c["packets_delivered"] for c in cells),
        "noc.epochs": sum(c["epochs"] for c in cells),
        "noc.ns_per_sim_cycle": noc_s * 1e9 / cycles if cycles else 0.0,
        "noc.ns_per_flit": noc_s * 1e9 / flits if flits else 0.0,
        "policy.select_mode_s": self_s("policy.select_mode"),
        "policy.decisions": counts.get("policy.decisions", 0),
        "registry.build_s": self_s("registry.build"),
        "registry.builds": counts.get("registry.builds", 0),
        "power.static_j": sum(c["static_j"] for c in cells),
        "power.dynamic_j": sum(c["dynamic_j"] for c in cells),
        "cache.get_s": self_s("cache.get"),
        "cache.put_s": self_s("cache.put"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "schedule.busy_s": total_s("schedule.task"),
        "schedule.span_s": total_s("schedule.run_indexed"),
        "schedule.utilization": total_s("schedule.task") / worker_s if worker_s else 0.0,
        "trace.coverage": top_s * 1e9 / doc["wall_ns"],
    }


def phase_seconds(doc, phase):
    """Duration of the top-level span `phase` of a traced run."""
    return sum(
        s["end_ns"] - s["start_ns"]
        for s in doc["spans"]
        if s["parent"] is None and s["name"] == phase
    ) / 1e9


def digest(records):
    """Order-independent digest of simulated outcomes: 16 hex digits of
    the SHA-256 of the sorted records' canonical JSON."""
    canon = sorted(json.dumps(r, sort_keys=True) for r in records)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()[:16]
