"""Which cflbench functions a traced run wraps, and the per-layer metrics
computed from the spans."""

from __future__ import annotations

import math
import os

import cflbench.algorithms as algorithms
import cflbench.cli as cli
import cflbench.harness as harness
import cflbench.instances as instances
import cflbench.subproblem as subproblem

from tracer import Tracer


def _lp_iterations(layer: str):
    def on_result(tracer, args, solution):
        tracer.count(f"{layer}.lp_iterations", solution.solver_stats["iterations"])
    return on_result


def _csv_bytes(tracer, args, result):
    tracer.count("harness.csv.bytes", os.path.getsize(args[1]))


def install(tracer: Tracer) -> None:
    """Wrap each layer at the names its callers look it up under."""
    # Layers that first touch a new instance or probe level open a trace id.
    tracer.patch(harness, "generate_synthetic", "instances.generate_synthetic", opens_trace=True)
    tracer.patch(instances, "ingest_trace", "instances.ingest_trace", opens_trace=True)
    tracer.patch(harness, "y_adversary_run", "instances.y_adversary_run", opens_trace=True)
    tracer.patch(harness, "load_instance", "core.load_instance")
    for name in ("solve_opt", "solve_worst"):
        tracer.patch(harness, name, f"offline.{name}", on_result=_lp_iterations(f"offline.{name}"))
    # The harness calls the advice-free players through its _RUNNERS table,
    # and run_baseline calls run_alg1 inside the algorithms module.
    for name in list(harness._RUNNERS):
        layer = "algorithms.run_alg1" if name == "alg1" else "algorithms.advice_free"
        tracer.patch(harness._RUNNERS, name, layer)
    tracer.patch(algorithms, "run_alg1", "algorithms.run_alg1")
    tracer.patch(harness, "run_clip", "algorithms.run_clip")
    tracer.patch(harness, "run_baseline", "algorithms.run_baseline")
    tracer.patch(algorithms, "minimize_pseudo_cost_constrained", "subproblem.constrained")
    tracer.patch(algorithms, "minimize_pseudo_cost", "subproblem.free")
    for module in (algorithms, instances):
        tracer.patch(module, "fill_to_utilization", "subproblem.fill")
    for module in (algorithms, harness, instances):
        tracer.patch(module, "make_threshold_params", "thresholds.make_threshold_params")
    tracer.patch(subproblem, "phi_integral", "thresholds.integral")
    tracer.patch(subproblem, "phi_eps_integral", "thresholds.integral")
    tracer.patch(harness, "aggregate_records", "harness.aggregate")
    tracer.patch(harness, "cdf_points", "harness.aggregate")
    for name in ("records_to_csv", "aggregates_to_csv", "cdf_to_csv"):
        tracer.patch(cli, name, "harness.csv", on_result=_csv_bytes)
    tracer.patch(cli, "main", "cli")


# Span statistics reported per layer.
LAYER_FIELDS = {
    "instances.generate_synthetic": ("calls", "busy_s"),
    "instances.ingest_trace": ("busy_s",),
    "core.load_instance": ("busy_s",),
    "instances.y_adversary_run": ("self_s",),
    "offline.solve_opt": ("calls", "busy_s", "p50_ms", "p99_ms"),
    "offline.solve_worst": ("calls", "busy_s", "p50_ms", "p99_ms"),
    "algorithms.run_clip": ("calls", "self_s", "p50_ms", "p99_ms"),
    "algorithms.run_alg1": ("calls", "self_s"),
    "algorithms.run_baseline": ("calls", "self_s"),
    "algorithms.advice_free": ("calls", "self_s"),
    "subproblem.constrained": ("calls", "busy_s", "p50_us", "p99_us"),
    "subproblem.free": ("calls", "busy_s", "p50_us", "p99_us"),
    "subproblem.fill": ("calls", "busy_s"),
    "thresholds.integral": ("calls", "busy_s"),
    "thresholds.make_threshold_params": ("calls", "busy_s"),
    "harness.aggregate": ("busy_s",),
    "harness.csv": ("busy_s",),
    "cli": ("self_s",),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms",
         "p50_us": "us", "p99_us": "us"}
SCALE = {"p50_ms": 1e3, "p99_ms": 1e3, "p50_us": 1e6, "p99_us": 1e6}


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile; 0 for a layer that made no calls.  Kept here
    rather than taken from cflbench so the figures do not depend on the code
    they measure."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q / 100.0 * len(sorted_values))) - 1]


def per_layer_metrics(tracer: Tracer, fallbacks: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the pool and overhead figures, which
    come from untraced phases; a layer that made no calls reads 0."""
    layers = tracer.layers()
    out: dict[str, tuple[float, str]] = {}
    for layer, fields in LAYER_FIELDS.items():
        stats = layers.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        for field in fields:
            if field.startswith("p"):
                value = percentile(stats["durations"], float(field[1:3])) * SCALE[field]
            else:
                value = stats[field]
            out[f"{layer}.{field}"] = (value, UNITS[field])
        if layer.startswith("offline."):
            out[f"{layer}.lp_iterations"] = (tracer.counters[f"{layer}.lp_iterations"], "count")
    constrained = out["subproblem.constrained.calls"][0]
    out["subproblem.constrained.fallbacks"] = (fallbacks, "count")
    out["subproblem.constrained.fallback_rate"] = (
        fallbacks / constrained if constrained else 0.0, "ratio")
    out["harness.csv.bytes"] = (tracer.counters["harness.csv.bytes"], "B")
    return out


def self_shares(tracer: Tracer) -> list[tuple[str, float]]:
    """Layers by share of the traced self time, largest first."""
    layers = tracer.layers()
    total = sum(stats["self_s"] for stats in layers.values()) or 1.0
    return sorted(((name, stats["self_s"] / total) for name, stats in layers.items()),
                  key=lambda item: -item[1])
