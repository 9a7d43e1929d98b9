"""Experiment orchestration: sweeps over generator cells, per-record CSV
emission, aggregate tables, CDF exports, and the adversary probe report.
The output schema is stated once here: the record fields and GROUP_FIELDS
give every CSV's columns, and one writer and one reader handle the format.

Everything here is deterministic: records are produced from (seed, cell,
instance index) substreams and sorted before emission, so repeated runs and
different worker counts yield bit-identical files.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Optional, Sequence, get_type_hints

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
    "diff_records",
]

ADVICE_FREE_ROSTER = ("alg1", "agnostic", "move_to_minimizer", "simple_threshold")
ADVISED_ROSTER = ("clip", "baseline")

# A record's ratio may fall this far below 1, rounding in its two costs,
# before it counts as beating the hindsight optimum.
_CR_FLOOR_SLACK = 1e-6

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
        costs = (self.alg_cost, self.opt_cost, self.empirical_cr)
        if not all(map(math.isfinite, costs)):
            raise NumericError(f"record has a non-finite cost or ratio: {costs}")
        if self.empirical_cr < 1.0 - _CR_FLOOR_SLACK:
            raise NumericError(
                f"record beats the hindsight optimum: cr={self.empirical_cr}"
            )

    def sort_key(self):
        """The cell-and-algorithm key with ``instance_index`` inserted."""
        return _sortable(_sort_values(self))


# The output schema.  records.csv has one column per record field;
# aggregates.csv and cdf.csv have one row per cell-and-algorithm group (or
# per ratio within it), keyed by GROUP_FIELDS.
RECORD_FIELDS = tuple(f.name for f in fields(ExperimentRecord))
GROUP_FIELDS = ("d", "U", "beta_nominal", "sigma", "xi", "algorithm", "epsilon")
AGGREGATE_FIELDS = GROUP_FIELDS + ("n", "mean_cr", "p95_cr")
CDF_FIELDS = GROUP_FIELDS + ("empirical_cr", "fraction")

_group_values = attrgetter(*GROUP_FIELDS)
# Records sort by cell and xi, then by instance, then by algorithm and epsilon.
_SORT_FIELDS = GROUP_FIELDS[:5] + ("instance_index",) + GROUP_FIELDS[5:]
_sort_values = attrgetter(*_SORT_FIELDS)


def _sortable(values: tuple) -> tuple:
    """Key values with None (advice-free xi and epsilon) and nan (sigma of
    an instance without a generator config) both as -1.0, so that they sort
    first and equal values group together."""
    return tuple([-1.0 if v is None or v != v else v for v in values])


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
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"seed={self.seed} outside [0, 2**64), the Philox key range")
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
    """Run the roster on one instance, sharing the work that does not
    depend on the advice: the offline solutions, and the one ``alg1`` run
    that every ``baseline`` record mixes with its advice.  That run is the
    ``alg1`` record's own when ``alg1`` is in the roster; otherwise it runs
    once here, for all the (xi, eps) points."""
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
    robust = None
    for name in algorithms:
        if name in _RUNNERS:
            trajectory = _RUNNERS[name](instance)
            if name == "alg1":
                robust = trajectory
            out.append(record(name, None, None, trajectory.total_cost))

    advised = [name for name in algorithms if name in ADVISED_ROSTER]
    if advised and xi_values and epsilon_values:
        if "baseline" in advised and robust is None:
            robust = _RUNNERS["alg1"](instance)
        worst = solve_worst(instance) if any(x > 0.0 for x in xi_values) else None
        for xi in xi_values:
            advice = make_advice(instance, AdviceConfig(xi=float(xi)), opt=opt, worst=worst)
            for eps in epsilon_values:
                if "clip" in advised:
                    cost = run_clip(instance, advice, float(eps)).total_cost
                    out.append(record("clip", float(xi), float(eps), cost))
                if "baseline" in advised:
                    cost = run_baseline(instance, advice, float(eps), robust=robust).total_cost
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


def _write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """The one CSV writer: ``header`` names the columns, looked up in each
    row mapping; floats round-trip via repr, None is empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(row[f]) for f in header] for row in rows)


def _optional_float(raw: str) -> Optional[float]:
    return float(raw) if raw else None


_PARSERS = {int: int, float: float, str: str, Optional[float]: _optional_float}


def _read_records(path: str) -> list[ExperimentRecord]:
    """Read a records CSV back, parsing each column by its field's type."""
    parsers = {name: _PARSERS[hint]
               for name, hint in get_type_hints(ExperimentRecord).items()}
    records = []
    with open(path, newline="") as fh:
        try:
            for lineno, row in enumerate(csv.DictReader(fh), start=2):
                try:
                    records.append(ExperimentRecord(
                        **{name: parse(row[name]) for name, parse in parsers.items()}
                    ))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DomainError(f"{path} line {lineno}: {exc}") from None
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DomainError(f"{path} is not a records CSV: {exc}") from None
    return records


def records_to_csv(records: Iterable[ExperimentRecord], path: str) -> None:
    _write_csv(path, RECORD_FIELDS, map(vars, records))


def _groups(records: Iterable[ExperimentRecord]) -> list[tuple[dict, list[float]]]:
    """(group field values, empirical ratios) per cell and algorithm, in key
    order.  Ratios are collected under the raw field values first, so that
    the sortable key is built once per group; distinct nan objects then
    merge under it."""
    by_values: dict[tuple, list[float]] = {}
    for rec in records:
        by_values.setdefault(_group_values(rec), []).append(rec.empirical_cr)
    groups: dict[tuple, tuple[dict, list[float]]] = {}
    for values, crs in by_values.items():
        key = _sortable(values)
        if key in groups:
            groups[key][1].extend(crs)
        else:
            groups[key] = (dict(zip(GROUP_FIELDS, values)), crs)
    return [groups[key] for key in sorted(groups)]


def aggregate_records(records: Sequence[ExperimentRecord]) -> list[dict]:
    """Mean and 95th-percentile empirical ratio per cell per algorithm."""
    return [
        {**cell, "n": len(crs), "mean_cr": mean(crs), "p95_cr": percentile(crs, 95.0)}
        for cell, crs in _groups(records)
    ]


def aggregates_to_csv(aggregates: Sequence[dict], path: str) -> None:
    _write_csv(path, AGGREGATE_FIELDS, aggregates)


def cdf_points(records: Sequence[ExperimentRecord]) -> list[dict]:
    """Empirical CDF of the ratio per cell per algorithm, plot-ready."""
    out = []
    for cell, crs in _groups(records):
        crs.sort()
        out.extend({**cell, "empirical_cr": cr, "fraction": rank / len(crs)}
                   for rank, cr in enumerate(crs, start=1))
    return out


def cdf_to_csv(points: Sequence[dict], path: str) -> None:
    _write_csv(path, CDF_FIELDS, points)


# The cost columns ``diff_records`` compares, and the relative moves that
# bound its middle buckets.
DIFF_COLUMNS = ("alg_cost", "opt_cost", "empirical_cr")
DIFF_TOLERANCES = (1e-12, 1e-9)


def _keyed(records: Iterable[ExperimentRecord]) -> dict:
    """Records by (sort key, occurrence of that key so far)."""
    seen: Counter = Counter()
    out = {}
    for rec in records:
        key = rec.sort_key()
        out[key, seen[key]] = rec
        seen[key] += 1
    return out


def diff_records(old: Sequence[ExperimentRecord], new: Sequence[ExperimentRecord]) -> dict:
    """Join two record sets on their sort key and say how far each cost
    column moved.

    Returns ``counts``, mapping (algorithm, column) to the numbers of joined
    records whose value is bit-identical, within each of DIFF_TOLERANCES
    relative, or beyond; ``moved``, the number of joined records with any
    column not bit-identical; ``largest``, (relative move, column, old
    record, new record) of the largest move or None; and ``only_old`` and
    ``only_new``, the records the other side lacks, in key order.
    """
    old_by_key, new_by_key = _keyed(old), _keyed(new)
    counts: dict[tuple[str, str], list[int]] = {}
    largest = None
    moved = 0
    for key in sorted(old_by_key.keys() & new_by_key.keys()):
        a, b = old_by_key[key], new_by_key[key]
        buckets = []
        for column in DIFF_COLUMNS:
            x, y = getattr(a, column), getattr(b, column)
            if repr(x) == repr(y):  # the CSV's own round-trip spelling
                bucket = 0
            else:
                rel = abs(y - x) / abs(x) if x else math.inf
                bucket = 1 + sum(rel > tol for tol in DIFF_TOLERANCES)
                if largest is None or rel > largest[0]:
                    largest = (rel, column, a, b)
            counts.setdefault((a.algorithm, column), [0] * (len(DIFF_TOLERANCES) + 2))[bucket] += 1
            buckets.append(bucket)
        moved += any(buckets)
    return {
        "counts": dict(sorted(counts.items(),
                              key=lambda item: (item[0][0], DIFF_COLUMNS.index(item[0][1])))),
        "moved": moved,
        "largest": largest,
        "only_old": [old_by_key[k] for k in sorted(old_by_key.keys() - new_by_key.keys())],
        "only_new": [new_by_key[k] for k in sorted(new_by_key.keys() - old_by_key.keys())],
    }


def _key_text(rec: ExperimentRecord) -> str:
    """A record's sort key as ``name=value`` pairs."""
    return " ".join(f"{name}={_fmt(value)}" for name, value in zip(_SORT_FIELDS, _sort_values(rec)))
