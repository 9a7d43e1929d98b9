"""Experiment orchestration: sweeps over generator cells, per-record CSV
emission, aggregate tables, CDF exports, and the adversary probe report.

Everything here is deterministic: records are produced from (seed, cell,
instance index) substreams and sorted before emission, so repeated runs and
different worker counts yield bit-identical files.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algorithms import (
    run_agnostic,
    run_alg1,
    run_baseline,
    run_clip,
    run_move_to_minimizer,
    run_simple_threshold,
)
from .core import (
    ConfigError,
    DomainError,
    Instance,
    NumericError,
    load_instance,
    validate_instance,
)
from .instances import AdversaryConfig, GeneratorConfig, generate_synthetic, y_adversary_run
from .offline import AdviceConfig, make_advice, solve_opt, solve_worst
from .thresholds import make_threshold_params

__all__ = [
    "ExperimentRecord",
    "SweepConfig",
    "RECORD_FIELDS",
    "ADVICE_FREE_ROSTER",
    "ADVISED_ROSTER",
    "percentile",
    "mean",
    "cmd_run",
    "cmd_sweep",
    "cmd_adversary",
    "records_to_csv",
    "aggregate_records",
    "aggregates_to_csv",
    "cdf_points",
    "cdf_to_csv",
]

RECORD_FIELDS = (
    "seed",
    "instance_index",
    "d",
    "T",
    "L",
    "U",
    "beta_nominal",
    "beta_realized",
    "sigma",
    "xi",
    "algorithm",
    "epsilon",
    "alg_cost",
    "opt_cost",
    "empirical_cr",
)

ADVICE_FREE_ROSTER = ("alg1", "agnostic", "move_to_minimizer", "simple_threshold")
ADVISED_ROSTER = ("clip", "baseline")

_RUNNERS = {
    "alg1": run_alg1,
    "agnostic": run_agnostic,
    "move_to_minimizer": run_move_to_minimizer,
    "simple_threshold": run_simple_threshold,
}


@dataclass(frozen=True)
class ExperimentRecord:
    """One (instance, algorithm) outcome against the shared hindsight optimum."""

    seed: int
    instance_index: int
    d: int
    T: int
    L: float
    U: float
    beta_nominal: float
    beta_realized: float
    sigma: float
    xi: Optional[float]
    algorithm: str
    epsilon: Optional[float]
    alg_cost: float
    opt_cost: float
    empirical_cr: float

    def __post_init__(self) -> None:
        if self.empirical_cr < 1.0 - 1e-6:
            raise NumericError(
                f"record beats the hindsight optimum: cr={self.empirical_cr}"
            )

    def sort_key(self):
        return (
            self.d,
            self.U,
            self.beta_nominal,
            self.sigma,
            -1.0 if self.xi is None else self.xi,
            self.instance_index,
            self.algorithm,
            -1.0 if self.epsilon is None else self.epsilon,
        )


@dataclass(frozen=True)
class SweepConfig:
    """Grid of generator cells crossed with the algorithm roster."""

    d_values: tuple = (5,)
    u_over_l_values: tuple = (250.0,)
    beta_values: tuple = (50.0,)
    sigma_values: tuple = (50.0,)
    xi_values: tuple = ()
    epsilon_values: tuple = (2.0, 5.0, 10.0)
    instances_per_cell: int = 1000
    seed: int = 42
    algorithms: tuple = ADVICE_FREE_ROSTER + ADVISED_ROSTER

    def __post_init__(self) -> None:
        for name, grid in (
            ("d_values", self.d_values),
            ("u_over_l_values", self.u_over_l_values),
            ("beta_values", self.beta_values),
            ("sigma_values", self.sigma_values),
        ):
            if not grid:
                raise DomainError(f"{name} must be non-empty")
        if self.instances_per_cell < 1:
            raise DomainError("instances_per_cell must be positive")
        unknown = set(self.algorithms) - set(ADVICE_FREE_ROSTER) - set(ADVISED_ROSTER)
        if unknown:
            raise DomainError(f"unknown algorithms: {sorted(unknown)}")
        needs_advice = set(self.algorithms) & set(ADVISED_ROSTER)
        if needs_advice and self.xi_values and not self.epsilon_values:
            raise DomainError("advised algorithms need a non-empty epsilon grid")

    def cells(self) -> list[tuple[int, float, float, float]]:
        """Cell enumeration in emission order: (d, U/L, beta, sigma)."""
        out = []
        for d in self.d_values:
            for u in self.u_over_l_values:
                for b in self.beta_values:
                    for s in self.sigma_values:
                        out.append((int(d), float(u), float(b), float(s)))
        return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the ceil(q/100 * n)-th order statistic."""
    vals = list(values)
    if not vals:
        raise DomainError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise DomainError(f"q={q} outside [0, 100]")
    rank = max(1, math.ceil(q / 100.0 * len(vals)))
    return sorted(vals)[rank - 1]


def mean(values: Sequence[float]) -> float:
    vals = list(values)
    if not vals:
        raise DomainError("mean of an empty sample")
    return sum(vals) / len(vals)


def _instance_meta(instance: Instance):
    gc = instance.generator_config or {}
    beta_nom = float(gc.get("beta_nominal", instance.beta))
    sigma = float(gc.get("sigma", float("nan")))
    return beta_nom, sigma


def _records_for_instance(
    instance: Instance,
    seed: int,
    instance_index: int,
    algorithms: Sequence[str],
    xi_values: Sequence[float],
    epsilon_values: Sequence[float],
) -> list[ExperimentRecord]:
    """Run the roster on one instance, sharing the offline solutions."""
    beta_nom, sigma = _instance_meta(instance)
    opt = solve_opt(instance)
    if opt.objective <= 0.0:
        raise NumericError("hindsight optimum is not positive")

    def record(algorithm: str, xi: Optional[float], epsilon: Optional[float],
               alg_cost: float) -> ExperimentRecord:
        return ExperimentRecord(
            seed=seed,
            instance_index=instance_index,
            d=instance.d,
            T=instance.T,
            L=instance.L,
            U=instance.U,
            beta_nominal=beta_nom,
            beta_realized=instance.beta,
            sigma=sigma,
            xi=xi,
            algorithm=algorithm,
            epsilon=epsilon,
            alg_cost=alg_cost,
            opt_cost=opt.objective,
            empirical_cr=alg_cost / opt.objective,
        )

    out = []
    for name in algorithms:
        if name in _RUNNERS:
            out.append(record(name, None, None, _RUNNERS[name](instance).total_cost))

    advised = [name for name in algorithms if name in ADVISED_ROSTER]
    if advised and xi_values and epsilon_values:
        worst = solve_worst(instance) if any(x > 0.0 for x in xi_values) else None
        for xi in xi_values:
            advice = make_advice(instance, AdviceConfig(xi=float(xi)), opt=opt, worst=worst)
            for eps in epsilon_values:
                if "clip" in advised:
                    cost = run_clip(instance, advice, float(eps)).total_cost
                    out.append(record("clip", float(xi), float(eps), cost))
                if "baseline" in advised:
                    cost = run_baseline(instance, advice, float(eps)).total_cost
                    out.append(record("baseline", float(xi), float(eps), cost))
    return out


def _sweep_unit(args) -> list[ExperimentRecord]:
    config, cell_ordinal, cell, local_index = args
    d, u, beta, sigma = cell
    gen = GeneratorConfig(d=d, U_over_L=u, beta_nominal=beta, sigma=sigma)
    global_index = cell_ordinal * config.instances_per_cell + local_index
    instance = generate_synthetic(config.seed, global_index, gen)
    return _records_for_instance(
        instance,
        seed=config.seed,
        instance_index=local_index,
        algorithms=config.algorithms,
        xi_values=config.xi_values,
        epsilon_values=config.epsilon_values,
    )


def cmd_sweep(config: SweepConfig, threads: int = 1):
    """Run the full grid; returns (records, aggregates, cdf rows)."""
    units = [
        (config, k, cell, i)
        for k, cell in enumerate(config.cells())
        for i in range(config.instances_per_cell)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_sweep_unit, units, chunksize=8))
    else:
        chunks = [_sweep_unit(u) for u in units]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=ExperimentRecord.sort_key)
    return records, aggregate_records(records), cdf_points(records)


def cmd_run(
    instance_files: Sequence[str],
    algorithms: Sequence[str],
    advice_config: Optional[AdviceConfig] = None,
    epsilon_values: Sequence[float] = (2.0,),
) -> list[ExperimentRecord]:
    """Run a roster over serialized instances; one record per pair, with the
    hindsight optimum solved once per instance."""
    known = set(ADVICE_FREE_ROSTER) | set(ADVISED_ROSTER)
    bad = set(algorithms) - known
    if bad:
        raise DomainError(f"unknown algorithms: {sorted(bad)}")
    xi_values = [advice_config.xi] if advice_config is not None else [0.0]
    records = []
    for idx, path in enumerate(instance_files):
        instance = load_instance(path)
        violations = validate_instance(instance)
        if violations:
            raise ConfigError(f"{path}: " + "; ".join(violations))
        gc = instance.generator_config or {}
        records.extend(
            _records_for_instance(
                instance,
                seed=instance.seed if instance.seed is not None else -1,
                instance_index=int(gc.get("index", idx)),
                algorithms=algorithms,
                xi_values=xi_values,
                epsilon_values=epsilon_values,
            )
        )
    records.sort(key=ExperimentRecord.sort_key)
    return records


def cmd_adversary(
    algorithm: str,
    y_grid: Sequence[float],
    m: int = 50,
    w_steps: int = 100,
    params: Optional[dict] = None,
) -> dict:
    """Probe one algorithm against the adaptive stream over a grid of target
    levels; reports per-level ratios and the robust reference alpha."""
    params = dict(params or {})
    L = float(params.get("L", 1.0))
    U = float(params.get("U", 250.0))
    beta = float(params.get("beta", 0.0))
    d = int(params.get("d", 2))
    if not y_grid:
        raise DomainError("y_grid must be non-empty")
    rows = []
    for y in y_grid:
        cfg = AdversaryConfig(y=float(y), m=m, w_steps=w_steps, d=d, L=L, U=U, beta=beta)
        alg_cost, ref_cost = y_adversary_run(algorithm, cfg)
        rows.append(
            {
                "y": float(y),
                "alg_cost": alg_cost,
                "opt_cost": ref_cost,
                "ratio": alg_cost / ref_cost,
            }
        )
    alpha = make_threshold_params(L, U, beta).alpha
    return {
        "algorithm": algorithm,
        "rows": rows,
        "max_ratio": max(r["ratio"] for r in rows),
        "alpha": alpha,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def records_to_csv(records: Iterable[ExperimentRecord], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, f)) for f in RECORD_FIELDS])


def _group_key(rec: ExperimentRecord):
    return (
        rec.d,
        rec.U,
        rec.beta_nominal,
        rec.sigma,
        -1.0 if rec.xi is None else rec.xi,
        rec.algorithm,
        -1.0 if rec.epsilon is None else rec.epsilon,
    )


AGGREGATE_FIELDS = (
    "d", "U", "beta_nominal", "sigma", "xi", "algorithm", "epsilon",
    "n", "mean_cr", "p95_cr",
)


def aggregate_records(records: Sequence[ExperimentRecord]) -> list[dict]:
    """Mean and 95th-percentile empirical ratio per cell per algorithm."""
    groups: dict[tuple, list[float]] = {}
    meta: dict[tuple, ExperimentRecord] = {}
    for rec in records:
        key = _group_key(rec)
        groups.setdefault(key, []).append(rec.empirical_cr)
        meta.setdefault(key, rec)
    out = []
    for key in sorted(groups):
        rec = meta[key]
        crs = groups[key]
        out.append(
            {
                "d": rec.d,
                "U": rec.U,
                "beta_nominal": rec.beta_nominal,
                "sigma": rec.sigma,
                "xi": rec.xi,
                "algorithm": rec.algorithm,
                "epsilon": rec.epsilon,
                "n": len(crs),
                "mean_cr": mean(crs),
                "p95_cr": percentile(crs, 95.0),
            }
        )
    return out


def aggregates_to_csv(aggregates: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_FIELDS)
        for row in aggregates:
            writer.writerow([_fmt(row[f]) for f in AGGREGATE_FIELDS])


CDF_FIELDS = (
    "d", "U", "beta_nominal", "sigma", "xi", "algorithm", "epsilon",
    "empirical_cr", "fraction",
)


def cdf_points(records: Sequence[ExperimentRecord]) -> list[dict]:
    """Empirical CDF of the ratio per cell per algorithm, plot-ready."""
    groups: dict[tuple, list[float]] = {}
    meta: dict[tuple, ExperimentRecord] = {}
    for rec in records:
        key = _group_key(rec)
        groups.setdefault(key, []).append(rec.empirical_cr)
        meta.setdefault(key, rec)
    out = []
    for key in sorted(groups):
        rec = meta[key]
        crs = sorted(groups[key])
        n = len(crs)
        for rank, cr in enumerate(crs, start=1):
            out.append(
                {
                    "d": rec.d,
                    "U": rec.U,
                    "beta_nominal": rec.beta_nominal,
                    "sigma": rec.sigma,
                    "xi": rec.xi,
                    "algorithm": rec.algorithm,
                    "epsilon": rec.epsilon,
                    "empirical_cr": cr,
                    "fraction": rank / n,
                }
            )
    return out


def cdf_to_csv(points: Sequence[dict], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CDF_FIELDS)
        for row in points:
            writer.writerow([_fmt(row[f]) for f in CDF_FIELDS])
