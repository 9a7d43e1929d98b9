"""The traced benchmark (bench/layers.py) wraps cflbench functions at the
names their callers look them up under; a refactor that removes or renames
one of those names breaks the traced runs."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cflbench.algorithms as algorithms
import cflbench.harness as harness
from cflbench.instances import GeneratorConfig, generate_synthetic
from cflbench.offline import AdviceConfig, make_advice

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_layers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer_module = importlib.import_module("tracer")
    originals = (algorithms.run_alg1, algorithms.minimize_pseudo_cost,
                 harness.run_clip, dict(harness._RUNNERS))
    inst = generate_synthetic(seed=3, index=0, config=GeneratorConfig(d=2))
    advice = make_advice(inst, AdviceConfig(xi=0.0))
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        alg1 = harness._RUNNERS["alg1"](inst)
        clip = harness.run_clip(inst, advice, 2.0)
    finally:
        tracer.restore()
    # The wrapped names are the ones the callers use.
    traced = tracer.layers()
    for layer in ("algorithms.run_alg1", "algorithms.run_clip", "subproblem.free",
                  "thresholds.make_threshold_params"):
        assert traced.get(layer, {}).get("calls", 0) > 0, layer
    # Tracing changes nothing, and restore() puts every original back.
    assert np.array_equal(alg1.decisions, algorithms.run_alg1(inst).decisions)
    assert np.array_equal(clip.decisions, algorithms.run_clip(inst, advice, 2.0).decisions)
    assert (algorithms.run_alg1, algorithms.minimize_pseudo_cost,
            harness.run_clip, dict(harness._RUNNERS)) == originals


def test_bench_smoke():
    # Every workload at a tiny size, through the bench's own CSV readers and
    # record checks: the one test that reads the CSV columns as the bench does.
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "smoke: ok" in proc.stdout, proc.stdout
