"""Command-line front end.

Subcommands: gen (write instance files), run (roster over instance files),
sweep (generator grid), adversary (adaptive lower-bound probe), report
(re-aggregate a records CSV), diff (compare two records CSVs).  Each subcommand takes a flag only for the
settings it reads.  A setting comes from its flag --NAME, else from the
environment variable CFLBENCH_NAME, else from the subcommand's default,
and one parser per setting reads all three.

Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .core import CflError, ConfigError, DomainError, save_instance
from .harness import (
    ADVICE_FREE_ROSTER,
    ADVISED_ROSTER,
    DIFF_TOLERANCES,
    SweepConfig,
    _key_text,
    _read_records,
    _write_csv,
    aggregate_records,
    aggregates_to_csv,
    cdf_to_csv,
    cmd_adversary,
    cmd_run,
    cmd_sweep,
    diff_records,
    records_to_csv,
)
from .instances import GeneratorConfig, generate_synthetic
from .offline import AdviceConfig

ENV_PREFIX = "CFLBENCH_"

_DEFAULT_CELL = {"d": 5, "u": 250.0, "beta": 50.0, "sigma": 50.0}
_CELL = ",".join(f"{key}={value:g}" for key, value in _DEFAULT_CELL.items())


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw.strip()!r} is not a finite number")
    return value


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
                raise ValueError(f"bad cell entry {piece!r}, expected key=value")
            key, _, raw = piece.partition("=")
            key = key.strip().lower()
            if key not in _DEFAULT_CELL:
                raise ValueError(f"unknown cell key {key!r}")
            cell[key] = int(raw) if key == "d" else _finite(raw)
        cells.append(cell)
    if not cells:
        raise ValueError("no cells parsed")
    return cells


def _parse_floats(raw: str) -> tuple:
    return tuple(_finite(piece) for piece in raw.split(",") if piece.strip())


def _parse_algs(raw: str) -> tuple:
    names = tuple(piece.strip() for piece in raw.split(",") if piece.strip())
    known = set(ADVICE_FREE_ROSTER) | set(ADVISED_ROSTER)
    bad = set(names) - known
    if bad:
        raise ValueError(f"unknown algorithms: {sorted(bad)}; known: {sorted(known)}")
    return names


# Most worker processes a sweep may start; the pool starts them all at once.
MAX_THREADS = 64


def _parse_threads(raw: str) -> int:
    value = int(raw)
    if not 1 <= value <= MAX_THREADS:
        raise ValueError(f"{value} is outside 1..{MAX_THREADS}")
    return value


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}") from None


# Every setting's one parser and its help text.  A boolean setting is a
# flag without a value; the flag stands for "1".
_SETTINGS = {
    "seed": (int, "master seed"),
    "cells": (_parse_cells, "semicolon-separated key=value cells (keys d, u = U/L, beta, sigma)"),
    "algs": (_parse_algs, "comma-separated algorithm names"),
    "eps": (_parse_floats, "comma-separated epsilon values"),
    "xi": (_parse_floats, "comma-separated advice-quality values"),
    "out": (Path, "output directory"),
    "quick": (_parse_bool, "smaller run: 100 instances per cell, or a 10 x 20 probe"),
    "threads": (_parse_threads, f"worker processes, 1 to {MAX_THREADS}"),
}

# Subcommand name -> (handler, help, positional argument, setting defaults).
_COMMANDS: dict = {}


def _command(summary: str, positional: tuple = (), **defaults: str):
    """Register ``_cmd_<name>`` as the subcommand <name>, taking a flag for
    each setting named in ``defaults`` (raw values, read by the setting's
    parser) and the optional ``(name, nargs, help)`` positional argument."""
    def register(handler):
        _COMMANDS[handler.__name__.removeprefix("_cmd_")] = (
            handler, summary, positional, defaults)
        return handler
    return register


def _resolve(args: argparse.Namespace, name: str, default: str):
    """The flag, else CFLBENCH_<NAME>, else the default, through the
    setting's parser; a value it cannot parse is a ConfigError."""
    source, raw = f"--{name}", getattr(args, name)
    if raw is None:
        source = ENV_PREFIX + name.upper()
        raw = os.environ.get(source, default)
    try:
        return _SETTINGS[name][0](raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def _sweep_config(args, **advised) -> SweepConfig:
    # The grid is the cross product of the per-key value sets found in the
    # requested cells; a single cell spec stays a single cell.
    cells = args.cells
    return SweepConfig(
        d_values=tuple(sorted({c["d"] for c in cells})),
        u_over_l_values=tuple(sorted({c["u"] for c in cells})),
        beta_values=tuple(sorted({c["beta"] for c in cells})),
        sigma_values=tuple(sorted({c["sigma"] for c in cells})),
        instances_per_cell=100 if args.quick else 1000,
        seed=args.seed,
        **advised,
    )


def _out_dir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


@_command("write synthetic instance files", seed="42", cells=_CELL, quick="0", out="results")
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


@_command("run algorithms over instance files", ("files", "+", "serialized instance files"),
          algs=",".join(ADVICE_FREE_ROSTER), eps="2", xi="", out="results")
def _cmd_run(args) -> int:
    if len(args.xi) > 1:
        raise ConfigError(f"run takes one --xi value, got {len(args.xi)}")
    advice = AdviceConfig(xi=args.xi[0]) if args.xi else None
    records = cmd_run(args.files, args.algs, advice_config=advice, epsilon_values=args.eps)
    out = _out_dir(args)
    records_to_csv(records, str(out / "records.csv"))
    print(f"wrote {len(records)} records to {out / 'records.csv'}")
    return 0


@_command("run a generator-grid sweep", seed="42", cells=_CELL,
          algs=",".join(ADVICE_FREE_ROSTER + ADVISED_ROSTER), eps="2,5,10", xi="",
          quick="0", threads="1", out="results")
def _cmd_sweep(args) -> int:
    config = _sweep_config(args, xi_values=args.xi, epsilon_values=args.eps,
                           algorithms=args.algs)
    records, aggregates, cdf = cmd_sweep(config, threads=args.threads)
    out = _out_dir(args)
    records_to_csv(records, str(out / "records.csv"))
    aggregates_to_csv(aggregates, str(out / "aggregates.csv"))
    cdf_to_csv(cdf, str(out / "cdf.csv"))
    print(
        f"wrote {len(records)} records, {len(aggregates)} aggregate rows, "
        f"{len(cdf)} CDF points to {out}"
    )
    return 0


@_command("adaptive lower-bound probe", algs="alg1", quick="0", out="results")
def _cmd_adversary(args) -> int:
    m, w_steps, points = (10, 20, 5) if args.quick else (50, 100, 25)
    L, U, beta = 1.0, 250.0, 0.0
    delta = (U - L) / w_steps
    grid = [U - k * delta for k in
            sorted({int(round(v)) for v in np.linspace(1, w_steps, points)})]
    out = _out_dir(args)
    rows_out = []
    for name in args.algs:
        report = cmd_adversary(name, grid, m=m, w_steps=w_steps,
                               params={"L": L, "U": U, "beta": beta, "d": 2})
        print(f"{name}: max ratio {report['max_ratio']:.4f} vs alpha {report['alpha']:.4f}")
        rows_out.extend(dict(row, algorithm=name) for row in report["rows"])
    _write_csv(str(out / "adversary.csv"),
               ("algorithm", "y", "alg_cost", "opt_cost", "ratio"), rows_out)
    print(f"wrote {len(rows_out)} probe rows to {out / 'adversary.csv'}")
    return 0


@_command("re-aggregate a records CSV", ("records", None, "records CSV to re-aggregate"),
          out="results")
def _cmd_report(args) -> int:
    records = _read_records(args.records)
    out = _out_dir(args)
    aggregates_to_csv(aggregate_records(records), str(out / "aggregates.csv"))
    print(f"re-aggregated {len(records)} records into {out / 'aggregates.csv'}")
    return 0


@_command("compare two records CSVs record by record", ("records", 2, "OLD.csv NEW.csv"))
def _cmd_diff(args) -> int:
    old, new = (_read_records(path) for path in args.records)
    report = diff_records(old, new)
    joined = len(old) - len(report["only_old"])
    print(f"records: {len(old)} old, {len(new)} new, {joined} joined, {report['moved']} moved")
    bounds = [f"<={tol:g}" for tol in DIFF_TOLERANCES]
    print(f"{'algorithm':<18} {'column':<13}", *(f"{h:>9}" for h in ("identical", *bounds, "beyond")))
    for (algorithm, column), counts in report["counts"].items():
        print(f"{algorithm:<18} {column:<13}", *(f"{n:>9}" for n in counts))
    if report["largest"] is not None:
        rel, column, a, b = report["largest"]
        print(f"largest move: {column} {rel:.3g} relative, {getattr(a, column)!r} -> "
              f"{getattr(b, column)!r} at {_key_text(a)}")
    for side in ("old", "new"):
        missing = report[f"only_{side}"]
        print(f"only in {side}: {len(missing)}")
        for rec in missing:
            print(f"  {_key_text(rec)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ConfigError (exit 2, one line)."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cflbench",
        description="Benchmark harness for online optimization with a long-term demand constraint.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, positional, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if positional:
            p.add_argument(positional[0], nargs=positional[1], help=positional[2])
        for setting, default in defaults.items():
            parse, text = _SETTINGS[setting]
            text = f"{text} (env {ENV_PREFIX}{setting.upper()}, default {default!r})"
            flag = {"action": "store_const", "const": "1"} if parse is _parse_bool else {}
            p.add_argument(f"--{setting}", help=text, **flag)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, _, _, defaults = _COMMANDS[args.command]
        for name, default in defaults.items():
            setattr(args, name, _resolve(args, name, default))
        return handler(args)
    except (DomainError, ConfigError, FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CflError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
