"""cflbench benchmark: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the repository root.  With --trace 0 the run times the workload
with nothing wrapped and reports the end-to-end metrics; with --trace 1 it
runs a fixed amount of the workload untraced and then traced, and reports
the per-layer metrics.  Both check every output; the last line of standard
output is one JSON object.  --smoke runs every workload at a tiny size in
both modes and fails unless every metric named in BENCHMARK.json is printed
and every check passes.  Outputs go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# calibration_loop() takes CALIBRATION_REFERENCE_S on the reference machine
# (the one bench/trajectory.json's first entry was measured on) when nothing
# else loads it.
CALIBRATION_ITERATIONS = 1000
CALIBRATION_REFERENCE_S = 0.0052
FALLBACK_MESSAGE = "returning truncated advice"
WORKLOAD_NAMES = ("sweep-advised", "sweep-robust", "trace-year", "adversary-probe")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh process importing cflbench and warming
    every layer up: (in reference-machine seconds, as measured); see
    timed() for the reference machine."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    measured, reference = [], []
    before = machine_slowness(CALIBRATION_REFERENCE_S * 10)
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "bench" / "setup_probe.py"),
                        str(OUT / "setup")], env=env, check=True)
        measured.append(time.perf_counter() - start)
        after = machine_slowness(CALIBRATION_REFERENCE_S * 10)
        reference.append(measured[-1] / ((before + after) / 2.0))
        before = after
    return statistics.median(reference), statistics.median(measured)


def calibration_loop() -> float:
    """Seconds one fixed piece of interpreter and small-array numpy work
    takes right now: the kind of work the program's step solvers do, but no
    cflbench code, so a change to the program does not move it."""
    import numpy as np

    v = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    start = time.perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        w = v * (i % 7) + 1.0
        acc += float(np.dot(w, v)) + math.log(1.0 + i) + float(np.min(w))
    return time.perf_counter() - start


def machine_slowness(budget_s: float) -> float:
    """How much slower than the reference machine this one runs now: mean
    calibration_loop() time over CALIBRATION_REFERENCE_S, from loops filling
    about `budget_s`."""
    loops = max(1, round(budget_s / CALIBRATION_REFERENCE_S))
    return statistics.fmean(calibration_loop() for _ in range(loops)) / CALIBRATION_REFERENCE_S


def timed(workload, seconds: float, setup_repeats: int, extra: dict):
    """Untraced: repeat units until `seconds` of cflbench time have passed.

    On a shared machine the same work runs up to twice as fast at one moment
    as at another, for stretches from under a second to a minute.  So the
    machine's speed is sampled with a fixed calibration loop before the first
    unit and after each one (about 2% of the unit's time), and each unit's
    time is divided by the mean slowness seen on either side of it.
    `throughput` is operations per second of reference-machine time;
    `raw_throughput`, printed beside it, per second as measured."""
    from workloads import Tally

    setup_s, extra["raw_setup_s"] = measure_setup(setup_repeats)
    tally = Tally()
    reference_seconds = 0.0
    slowness = [machine_slowness(0.1)]
    while len(slowness) == 1 or tally.seconds < seconds:
        done = workload.unit(len(slowness) - 1)
        slowness.append(machine_slowness(0.02 * done.seconds))
        tally.add(done)
        reference_seconds += done.seconds / ((slowness[-2] + slowness[-1]) / 2.0)
    rate = tally.ops / reference_seconds
    extra["raw_throughput"] = tally.ops / tally.seconds
    extra["machine_slowness"] = statistics.median(slowness)
    extra[workload.alias] = 1.0 / rate if workload.alias == "trace_wall_s" else rate
    extra["units"] = len(slowness) - 1
    return tally, {
        "setup_s": (setup_s, "s"),
        "throughput": (rate, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(workload, caught: list, extra: dict):
    """A fixed number of units, each run once untraced and once traced, in
    alternating order so drift on a shared machine cancels in the overhead."""
    import layers
    from tracer import Tracer
    from workloads import Tally

    pool = workload.pool() if hasattr(workload, "pool") else None
    tracer = Tracer()
    plain, wrapped = Tally(), Tally()
    fallbacks = 0
    for k in range(workload.trace_units):
        for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_spans:
                plain.add(workload.unit(k))
                continue
            before = len(caught)
            layers.install(tracer)
            try:
                wrapped.add(workload.unit(k))
            finally:
                tracer.restore()
            fallbacks += sum(FALLBACK_MESSAGE in str(w.message) for w in caught[before:])
    tally = Tally()
    tally.add(plain)
    tally.add(wrapped)
    metrics = layers.per_layer_metrics(tracer, fallbacks)
    metrics["algorithms.run_alg1.alpha_violations"] = (tally.defects["alg1_alpha"], "count")
    metrics["algorithms.run_clip.consistency_violations"] = (
        tally.defects["clip_consistency"], "count")
    rate_2w = efficiency = 0.0
    if pool is not None:
        wall_1w, wall_2w, identical = pool
        rate_2w = workload.sizes.pool_instances / wall_2w
        efficiency = wall_1w / (2.0 * wall_2w)
        tally.attempted += 1
        if not identical:
            tally.fail("pool_records_identical")
    metrics["harness.pool.instances_per_s_2w"] = (rate_2w, "1/s")
    metrics["harness.pool.efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead"] = (wrapped.seconds / plain.seconds - 1.0, "ratio")
    extra["self_shares"] = [(layer, round(share, 4))
                            for layer, share in layers.self_shares(tracer)[:5]]
    tracer.write(str(workload.out / f"spans-seed{workload.seed}.jsonl"))
    return tally, metrics


def run(name: str, seed: int, seconds: float, trace: bool, sizes, setup_repeats: int):
    """Returns (result JSON object, extra figures to print)."""
    from workloads import SMOKE, WORKLOADS

    workload = WORKLOADS[name](seed, sizes, OUT / name)
    warm = WORKLOADS[name](seed, SMOKE, OUT / name / "warm-up")
    extra: dict[str, object] = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload.prepare()
        warm.prepare()
        warm.unit(0)  # imports, lazy solver set-up and caches, before timing
        if trace:
            tally, metrics = traced(workload, caught, extra)
        else:
            tally, metrics = timed(workload, seconds, setup_repeats, extra)
    extra["records_sha256"] = workload.digest()
    extra["fail_rate"] = tally.failed / tally.attempted
    extra["broken_checks"] = dict(tally.broken)
    extra["known_defects"] = dict(tally.defects)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, extra


def report(meta: dict, result: dict, extra: dict) -> None:
    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for key, value in extra.items():
        print(f"{key} = {value}")
    print(json.dumps(result))


def smoke() -> int:
    from workloads import SMOKE, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result, extra = run(name, 1, 0.0, bool(trace), SMOKE, setup_repeats=1)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            print(f"smoke {name} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} records_sha256={extra['records_sha256'][:16]}")
            if got != expected[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {result['failed']} failed checks")
    for problem in problems:
        print("smoke FAIL:", problem, file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (ROOT / "src" / "cflbench" / "__init__.py").is_file():
        print(f"cflbench sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    from workloads import FULL

    meta = describe(args.workload, args.seed, args.seconds, args.trace)
    result, extra = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL,
                        SETUP_REPEATS)
    report(meta, result, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
