"""Command-line front end.

Subcommands: gen (write instance files), run (roster over instance files),
sweep (generator grid), adversary (adaptive lower-bound probe), report
(re-aggregate a records CSV).  Every flag can also be supplied through an
environment variable with the CFLBENCH_ prefix (flag wins).

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CflError, ConfigError, DomainError, save_instance
from .harness import (
    ADVICE_FREE_ROSTER,
    ADVISED_ROSTER,
    SweepConfig,
    _read_records,
    _write_csv,
    aggregate_records,
    aggregates_to_csv,
    cdf_to_csv,
    cmd_adversary,
    cmd_run,
    cmd_sweep,
    records_to_csv,
)
from .instances import GeneratorConfig, generate_synthetic
from .offline import AdviceConfig

ENV_PREFIX = "CFLBENCH_"

_DEFAULT_CELL = {"d": 5, "u": 250.0, "beta": 50.0, "sigma": 50.0}


def _env(name: str) -> Optional[str]:
    return os.environ.get(ENV_PREFIX + name.upper())


def _resolve(flag_value, name: str, default):
    if flag_value is not None:
        return flag_value
    raw = _env(name)
    if raw is None:
        return default
    return raw


def _int(raw, name: str) -> int:
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _parse_cells(spec: str) -> list[dict]:
    """Cells are semicolon-separated; each is comma-separated key=value with
    keys d, u (U/L ratio), beta, sigma.  Omitted keys take the defaults."""
    cells = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        cell = dict(_DEFAULT_CELL)
        for piece in chunk.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise DomainError(f"bad cell entry {piece!r}, expected key=value")
            key, _, raw = piece.partition("=")
            key = key.strip().lower()
            if key not in _DEFAULT_CELL:
                raise DomainError(f"unknown cell key {key!r}")
            try:
                cell[key] = int(raw) if key == "d" else float(raw)
            except ValueError:
                raise DomainError(f"bad value for cell key {key}: {raw!r}") from None
        cells.append(cell)
    if not cells:
        raise DomainError("no cells parsed")
    return cells


def _parse_floats(raw: str) -> tuple:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            out.append(float(piece))
        except ValueError:
            raise DomainError(f"bad numeric list entry {piece!r}") from None
    return tuple(out)


def _parse_algs(raw: str) -> tuple:
    names = tuple(piece.strip() for piece in raw.split(",") if piece.strip())
    known = set(ADVICE_FREE_ROSTER) | set(ADVISED_ROSTER)
    bad = set(names) - known
    if bad:
        raise DomainError(f"unknown algorithms: {sorted(bad)}; known: {sorted(known)}")
    return names


def _sweep_config(args) -> SweepConfig:
    cells = _parse_cells(_resolve(args.cells, "cells", "d=5,u=250,beta=50,sigma=50"))
    algs = _parse_algs(_resolve(args.algs, "algs", ",".join(ADVICE_FREE_ROSTER + ADVISED_ROSTER)))
    eps = _parse_floats(_resolve(args.eps, "eps", "2,5,10"))
    xi = _parse_floats(_resolve(args.xi, "xi", ""))
    seed = _int(_resolve(args.seed, "seed", 42), "seed")
    quick = _resolve(args.quick, "quick", False)
    if isinstance(quick, str):
        quick = quick.lower() in ("1", "true", "yes", "on")
    n = 100 if quick else 1000
    # The grid is the cross product of the per-key value sets found in the
    # requested cells; a single cell spec stays a single cell.
    return SweepConfig(
        d_values=tuple(sorted({c["d"] for c in cells})),
        u_over_l_values=tuple(sorted({c["u"] for c in cells})),
        beta_values=tuple(sorted({c["beta"] for c in cells})),
        sigma_values=tuple(sorted({c["sigma"] for c in cells})),
        xi_values=xi,
        epsilon_values=eps,
        instances_per_cell=n,
        seed=seed,
        algorithms=algs,
    )


def _out_dir(args) -> Path:
    out = Path(_resolve(args.out, "out", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args) -> int:
    config = _sweep_config(args)
    out = _out_dir(args)
    count = 0
    for k, (d, u, beta, sigma) in enumerate(config.cells()):
        gen = GeneratorConfig(d=d, U_over_L=u, beta_nominal=beta, sigma=sigma)
        for i in range(config.instances_per_cell):
            inst = generate_synthetic(config.seed, k * config.instances_per_cell + i, gen)
            save_instance(inst, str(out / f"cell{k:03d}_inst{i:04d}.json"))
            count += 1
    print(f"wrote {count} instances to {out}")
    return 0


def _cmd_run(args) -> int:
    algs = _parse_algs(_resolve(args.algs, "algs", ",".join(ADVICE_FREE_ROSTER)))
    eps = _parse_floats(_resolve(args.eps, "eps", "2"))
    xi = _parse_floats(_resolve(args.xi, "xi", ""))
    advice = AdviceConfig(xi=xi[0]) if xi else None
    records = cmd_run(args.files, algs, advice_config=advice, epsilon_values=eps)
    out = _out_dir(args)
    records_to_csv(records, str(out / "records.csv"))
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    return 0


def _cmd_sweep(args) -> int:
    config = _sweep_config(args)
    threads = _int(_resolve(args.threads, "threads", 1), "threads")
    records, aggregates, cdf = cmd_sweep(config, threads=threads)
    out = _out_dir(args)
    records_to_csv(records, str(out / "records.csv"))
    aggregates_to_csv(aggregates, str(out / "aggregates.csv"))
    cdf_to_csv(cdf, str(out / "cdf.csv"))
    print(
        f"wrote {len(records)} records, {len(aggregates)} aggregate rows, "
        f"{len(cdf)} CDF points to {out}"
    )
    return 0


def _cmd_adversary(args) -> int:
    algs = _parse_algs(_resolve(args.algs, "algs", "alg1"))
    quick = _resolve(args.quick, "quick", False)
    if isinstance(quick, str):
        quick = quick.lower() in ("1", "true", "yes", "on")
    m, w_steps, points = (10, 20, 5) if quick else (50, 100, 25)
    L, U, beta = 1.0, 250.0, 0.0
    delta = (U - L) / w_steps
    grid = [U - k * delta for k in
            sorted({int(round(v)) for v in np.linspace(1, w_steps, points)})]
    out = _out_dir(args)
    rows_out = []
    for name in algs:
        report = cmd_adversary(name, grid, m=m, w_steps=w_steps,
                               params={"L": L, "U": U, "beta": beta, "d": 2})
        print(f"{name}: max ratio {report['max_ratio']:.4f} vs alpha {report['alpha']:.4f}")
        rows_out.extend(dict(row, algorithm=name) for row in report["rows"])
    _write_csv(str(out / "adversary.csv"),
               ("algorithm", "y", "alg_cost", "opt_cost", "ratio"), rows_out)
    print(f"wrote {len(rows_out)} probe rows to {out / 'adversary.csv'}")
    return 0


def _cmd_report(args) -> int:
    records = _read_records(args.records)
    out = _out_dir(args)
    aggregates_to_csv(aggregate_records(records), str(out / "aggregates.csv"))
    print(f"re-aggregated {len(records)} records into {out / 'aggregates.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflbench",
        description="Benchmark harness for online optimization with a long-term demand constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False, files=False, records=False):
        p.add_argument("--seed", type=int, default=None, help="master seed (default 42)")
        p.add_argument("--cells", default=None,
                       help="semicolon-separated cells, e.g. 'd=5,u=250,beta=50,sigma=50'")
        p.add_argument("--algs", default=None, help="comma-separated algorithm names")
        p.add_argument("--eps", default=None, help="comma-separated epsilon values")
        p.add_argument("--xi", default=None, help="comma-separated advice-quality values")
        p.add_argument("--out", default=None, help="output directory (default ./results)")
        p.add_argument("--quick", action="store_const", const=True, default=None,
                       help="100 instances per cell instead of 1000")
        if threads:
            p.add_argument("--threads", type=int, default=None, help="worker processes")
        if files:
            p.add_argument("files", nargs="+", help="serialized instance files")
        if records:
            p.add_argument("records", help="records CSV to re-aggregate")

    common(sub.add_parser("gen", help="write synthetic instance files"))
    common(sub.add_parser("run", help="run algorithms over instance files"), files=True)
    common(sub.add_parser("sweep", help="run a generator-grid sweep"), threads=True)
    common(sub.add_parser("adversary", help="adaptive lower-bound probe"))
    common(sub.add_parser("report", help="re-aggregate a records CSV"), records=True)
    return parser


_DISPATCH = {
    "gen": _cmd_gen,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "adversary": _cmd_adversary,
    "report": _cmd_report,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (DomainError, ConfigError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CflError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
