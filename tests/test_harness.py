"""Sweep orchestration, CSV emission, aggregation, and the CLI wrapper."""

import contextlib
import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cflbench.algorithms as algorithms
import cflbench.harness as harness
from cflbench.cli import MAX_THREADS, main
from cflbench.core import DomainError, Instance, NumericError, instance_to_dict, save_instance
from cflbench.harness import (
    RECORD_FIELDS,
    ExperimentRecord,
    SweepConfig,
    aggregate_records,
    cdf_points,
    cmd_adversary,
    cmd_run,
    cmd_sweep,
    percentile,
    records_to_csv,
)
from cflbench.instances import GeneratorConfig, generate_synthetic
from cflbench.offline import AdviceConfig, solve_opt
from cflbench.thresholds import compute_alpha


def test_percentile_nearest_rank():
    assert percentile([1, 2, 3, 4], 50.0) == 2
    assert percentile([4, 1, 3, 2], 50.0) == 2
    assert percentile([5.0], 95.0) == 5.0
    assert percentile([1, 2, 3, 4], 100.0) == 4
    rng = np.random.default_rng(3)
    sample = rng.uniform(0, 1, 5000).tolist()
    assert percentile(sample, 95.0) == pytest.approx(0.95, abs=0.02)


def test_percentile_domain():
    with pytest.raises(DomainError):
        percentile([], 50.0)
    with pytest.raises(DomainError):
        percentile([1.0], 150.0)


def _record(cr=1.5, **kw):
    base = dict(
        seed=1, instance_index=0, d=2, T=6, L=1.0, U=250.0,
        beta_nominal=50.0, beta_realized=40.0, sigma=50.0,
        xi=None, algorithm="alg1", epsilon=None,
        alg_cost=cr * 2.0, opt_cost=2.0, empirical_cr=cr,
    )
    base.update(kw)
    return ExperimentRecord(**base)


def test_record_rejects_sub_optimal_ratio():
    with pytest.raises(NumericError):
        _record(cr=0.5)
    # a hair under 1 from float noise is tolerated
    _record(cr=1.0 - 1e-9)
    # non-finite costs and ratios are numeric failures; a nan sigma is not
    for bad in (dict(alg_cost=float("nan")), dict(opt_cost=float("inf")),
                dict(cr=float("nan"))):
        with pytest.raises(NumericError):
            _record(**bad)
    _record(sigma=float("nan"))


def test_record_fields_header():
    assert RECORD_FIELDS == (
        "seed", "instance_index", "d", "T", "L", "U",
        "beta_nominal", "beta_realized", "sigma", "xi",
        "algorithm", "epsilon", "alg_cost", "opt_cost", "empirical_cr",
    )


def _tiny_sweep():
    return SweepConfig(
        d_values=(2,),
        beta_values=(50.0,),
        xi_values=(0.5,),
        epsilon_values=(2.0,),
        instances_per_cell=6,
        seed=11,
        algorithms=("alg1", "agnostic", "clip", "baseline"),
    )


def test_sweep_deterministic_and_thread_invariant(tmp_path):
    cfg = _tiny_sweep()
    rec1, agg1, cdf1 = cmd_sweep(cfg, threads=1)
    rec2, agg2, cdf2 = cmd_sweep(cfg, threads=1)
    rec3, agg3, cdf3 = cmd_sweep(cfg, threads=2)
    p1, p2, p3 = (str(tmp_path / f"r{i}.csv") for i in range(3))
    records_to_csv(rec1, p1)
    records_to_csv(rec2, p2)
    records_to_csv(rec3, p3)
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()
    assert b1 == open(p3, "rb").read()
    assert agg1 == agg2 == agg3
    assert cdf1 == cdf2 == cdf3


def test_sweep_aggregates_recompute(tmp_path):
    records, aggregates, cdf = cmd_sweep(_tiny_sweep(), threads=1)
    # independent recomputation of one aggregate row
    for row in aggregates:
        crs = [
            r.empirical_cr
            for r in records
            if (r.algorithm, r.xi, r.epsilon) == (row["algorithm"], row["xi"], row["epsilon"])
        ]
        assert row["n"] == len(crs)
        assert row["mean_cr"] == pytest.approx(sum(crs) / len(crs), abs=1e-12)
        assert row["p95_cr"] == percentile(crs, 95.0)
    # CDF fractions climb to one within each algorithm group
    by_group = {}
    for pt in cdf:
        by_group.setdefault((pt["algorithm"], pt["xi"], pt["epsilon"]), []).append(pt)
    for pts in by_group.values():
        fr = [p["fraction"] for p in pts]
        assert all(a < b or a == b for a, b in zip(fr, fr[1:]))
        assert fr == sorted(fr)
        assert fr[-1] == pytest.approx(1.0)
        crs = [p["empirical_cr"] for p in pts]
        assert crs == sorted(crs)


def test_sweep_empty_xi_drops_advised_players():
    cfg = SweepConfig(
        d_values=(2,),
        xi_values=(),
        epsilon_values=(2.0,),
        instances_per_cell=2,
        seed=5,
        algorithms=("alg1", "clip", "baseline"),
    )
    records, _, _ = cmd_sweep(cfg, threads=1)
    assert {r.algorithm for r in records} == {"alg1"}


def test_cmd_run_costs_match_reruns(tmp_path):
    from cflbench.algorithms import run_alg1

    cfg = GeneratorConfig(d=3)
    paths = []
    for i in range(3):
        inst = generate_synthetic(seed=77, index=i, config=cfg)
        p = str(tmp_path / f"inst{i}.json")
        save_instance(inst, p)
        paths.append((p, inst))
    records = cmd_run(
        [p for p, _ in paths],
        ("alg1", "clip"),
        advice_config=AdviceConfig(xi=0.0),
        epsilon_values=(2.0,),
    )
    for path, inst in paths:
        opt = solve_opt(inst)
        mine = [r for r in records if r.instance_index == inst.generator_config["index"]]
        alg1 = next(r for r in mine if r.algorithm == "alg1")
        assert alg1.alg_cost == pytest.approx(run_alg1(inst).total_cost, rel=1e-12)
        assert alg1.empirical_cr >= 1.0 - 1e-9
        clip = next(r for r in mine if r.algorithm == "clip")
        # hindsight advice with epsilon = 2: at most 3 times the optimum
        assert clip.empirical_cr <= 3.0 + 1e-6
        assert clip.epsilon == 2.0 and clip.xi == 0.0
        assert alg1.opt_cost == pytest.approx(opt.objective, rel=1e-12)


def _counting_alg1_runs(monkeypatch):
    """Count the alg1 runs: the harness's own (through its runner table) and
    run_baseline's (through the algorithms module)."""
    calls = []

    def counted(run):
        def wrapper(instance):
            calls.append(instance.seed)
            return run(instance)
        return wrapper

    monkeypatch.setitem(harness._RUNNERS, "alg1", counted(harness._RUNNERS["alg1"]))
    monkeypatch.setattr(algorithms, "run_alg1", counted(algorithms.run_alg1))
    return calls


@pytest.mark.parametrize("roster", [("alg1", "clip", "baseline"), ("baseline",)])
def test_sweep_and_run_run_alg1_once_per_instance(roster, tmp_path, monkeypatch):
    # Every baseline record of an instance mixes its advice with the same
    # alg1 run, which the harness runs once: for the alg1 record when alg1
    # is in the roster, else for the baseline records alone.  The baseline
    # records are those of the full roster either way.
    full, _, _ = cmd_sweep(SweepConfig(d_values=(2,), xi_values=(0.0, 0.5),
                                       epsilon_values=(2.0, 5.0), instances_per_cell=3,
                                       seed=5))
    calls = _counting_alg1_runs(monkeypatch)
    records, _, _ = cmd_sweep(SweepConfig(d_values=(2,), xi_values=(0.0, 0.5),
                                          epsilon_values=(2.0, 5.0), instances_per_cell=3,
                                          seed=5, algorithms=roster))
    assert len(calls) == 3
    assert {r.algorithm for r in records} == set(roster)
    baseline = [r for r in full if r.algorithm == "baseline"]
    assert [r for r in records if r.algorithm == "baseline"] == baseline and len(baseline) == 12

    paths = []
    for i in range(2):
        paths.append(str(tmp_path / f"inst{i}.json"))
        save_instance(generate_synthetic(seed=77, index=i, config=GeneratorConfig(d=3)), paths[-1])
    del calls[:]
    records = cmd_run(paths, roster, advice_config=AdviceConfig(xi=0.5), epsilon_values=(2.0, 5.0))
    assert len(calls) == 2
    assert sum(r.algorithm == "baseline" for r in records) == 4


def test_cmd_run_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(DomainError):
        cmd_run(["nope.json"], ("quantum",))


def test_cmd_adversary_small_probe():
    U, w_steps = 250.0, 20
    delta = (U - 1.0) / w_steps
    grid = [U - k * delta for k in (1, 10, 20)]
    report = cmd_adversary("alg1", grid, m=6, w_steps=w_steps)
    assert report["algorithm"] == "alg1"
    assert len(report["rows"]) == 3
    alpha = compute_alpha(1.0, U, 0.0)
    assert report["alpha"] == pytest.approx(alpha, rel=1e-12)
    for row in report["rows"]:
        assert row["ratio"] >= 1.0 - 1e-9
    assert report["max_ratio"] <= alpha + 0.01


def test_cli_sweep_run_report_round_trip(tmp_path):
    out1 = str(tmp_path / "sweep")
    code = main([
        "sweep", "--cells", "d=2,u=250,beta=50,sigma=50",
        "--algs", "alg1,clip", "--eps", "2", "--xi", "0.5",
        "--seed", "11", "--quick", "--out", out1,
    ])
    assert code == 0
    records_csv = f"{out1}/records.csv"
    with open(records_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(RECORD_FIELDS)
    assert len(rows) > 1

    out2 = str(tmp_path / "report")
    assert main(["report", records_csv, "--out", out2]) == 0
    agg1 = open(f"{out1}/aggregates.csv", "rb").read()
    agg2 = open(f"{out2}/aggregates.csv", "rb").read()
    assert agg1 == agg2


def test_cli_gen_then_run(tmp_path):
    out = str(tmp_path / "gen")
    code = main([
        "gen", "--cells", "d=2,u=250,beta=50,sigma=50",
        "--seed", "3", "--quick", "--out", out,
    ])
    assert code == 0
    import glob

    files = sorted(glob.glob(f"{out}/*.json"))[:3]
    out2 = str(tmp_path / "run")
    assert main(["run", "--algs", "alg1", "--out", out2, *files]) == 0
    with open(f"{out2}/records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(r["empirical_cr"]) >= 1.0 - 1e-9 for r in rows)


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # unknown algorithm name: configuration error
    assert main(["sweep", "--algs", "quantum", "--quick",
                 "--out", str(tmp_path / "x")]) == 2
    # missing instance file
    assert main(["run", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "y")]) == 2
    # instance files with a missing field or no JSON at all: configuration
    # errors reported on one stderr line, not numeric failures or tracebacks
    (tmp_path / "partial.json").write_text('{"d": 1, "T": 2}\n')
    (tmp_path / "garbage.json").write_text("not json\n")
    # ... and so are a non-numeric field, a document that is not an object,
    # and documents that parse but fail validation (T = 0, a NaN price)
    doc = instance_to_dict(generate_synthetic(seed=5, index=0, config=GeneratorConfig(d=2)))
    bad_docs = {
        "letters.json": dict(doc, L="abc"),
        "list.json": [doc],
        "empty.json": dict(doc, T=0, costs=[]),
        "nan.json": dict(doc, costs=[[float("nan")] + row[1:] for row in doc["costs"]]),
        "ragged.json": dict(doc, costs=[doc["costs"][0][:1]] + doc["costs"][1:]),
    }
    for name, bad_doc in bad_docs.items():
        (tmp_path / name).write_text(json.dumps(bad_doc) + "\n")
    runs = [["run", str(tmp_path / name), "--out", str(tmp_path / "y")]
            for name in ("partial.json", "garbage.json", *bad_docs)]
    # a records file with a short row
    (tmp_path / "short.csv").write_text(",".join(RECORD_FIELDS) + "\n1,0,2,6,1.0\n")
    runs.append(["report", str(tmp_path / "short.csv"), "--out", str(tmp_path / "z")])
    # malformed settings: integers from the environment, a non-finite list
    # value, seeds outside the Philox key range, worker counts outside
    # 1..MAX_THREADS (rejected before any pool starts), a boolean that is not
    # one, and two advice levels for run's one
    sweep = ["sweep", "--algs", "alg1", "--cells", "d=2", "--quick", "--out", str(tmp_path / "w")]
    (tmp_path / "good.json").write_text(json.dumps(doc) + "\n")
    settings = [
        ({"SEED": "abc"}, sweep),
        ({"THREADS": "abc"}, sweep),
        ({}, ["sweep", "--algs", "baseline", "--xi", "0", "--eps", "nan", *sweep[3:]]),
        ({}, [*sweep, "--seed", "-1"]),
        ({}, [*sweep, "--seed", str(2**64)]),
        ({}, [*sweep, "--threads", "0"]),
        ({}, [*sweep, "--threads", "-3"]),
        ({}, [*sweep, "--threads", str(MAX_THREADS + 1)]),
        ({"QUICK": "banana"}, ["gen", "--cells", "d=2", "--out", str(tmp_path / "g")]),
        ({}, ["run", "--xi", "0,1", "--out", str(tmp_path / "y"), str(tmp_path / "good.json")]),
    ]
    for env, argv in [({}, run) for run in runs] + settings:
        with monkeypatch.context() as mp:
            for name, value in env.items():
                mp.setenv("CFLBENCH_" + name, value)
            capsys.readouterr()
            assert main(argv) == 2, (env, argv)
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err
        if argv in runs:
            # the message names the bad file
            assert argv[1] in err, err
    # records claiming to beat the optimum or carrying nan costs: numeric failures
    for row in ([1, 0, 2, 6, 1.0, 250.0, 50.0, 40.0, 50.0, "", "alg1", "", 1.0, 2.0, 0.5],
                [1, 0, 2, 6, 1.0, 250.0, 50.0, 40.0, 50.0, "", "alg1", "", "nan", "nan", "nan"]):
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORD_FIELDS)
            writer.writerow(row)
        assert main(["report", str(bad), "--out", str(tmp_path / "z")]) == 3, row


@pytest.mark.parametrize("argv", [
    ["gen", "--quick", "--cells", "d=1", "--xi", "0.5"],
    ["run", "--seed", "1", "INSTANCE"],
    ["adversary", "--quick", "--eps", "2"],
    ["report", "--seed", "1", "RECORDS"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv, tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    save_instance(generate_synthetic(seed=5, index=0, config=GeneratorConfig(d=1)), inst)
    records = str(tmp_path / "records.csv")
    records_to_csv(cmd_run([inst], ["alg1"]), records)
    argv = [{"INSTANCE": inst, "RECORDS": records}.get(a, a) for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert "unrecognized arguments" in err, err


def _with_generator_config(doc, **fields):
    return dict(doc, generator_config=dict(doc["generator_config"], **fields))


@pytest.mark.parametrize("change", [
    lambda doc: dict(doc, d=float("inf")),
    lambda doc: dict(doc, T=float("inf")),
    lambda doc: dict(doc, generator_config="x"),
    lambda doc: dict(doc, generator_config=3),
    lambda doc: _with_generator_config(doc, index="x"),
    lambda doc: _with_generator_config(doc, sigma=None),
    lambda doc: dict(doc, seed="x"),
    lambda doc: dict(doc, seed=1.5),
    lambda doc: dict(doc, seed=-1),
], ids=["d-inf", "T-inf", "config-str", "config-int", "index-str", "sigma-null",
        "seed-str", "seed-float", "seed-negative"])
def test_cli_run_rejects_malformed_bookkeeping_fields(change, tmp_path, capsys):
    # One field of a valid document changed: a configuration error on one
    # stderr line, not a traceback, and no records written that report
    # would later reject.
    doc = instance_to_dict(generate_synthetic(seed=5, index=0, config=GeneratorConfig(d=2)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(change(doc)) + "\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "records.csv").exists()


def test_report_groups_instances_without_generator_config(tmp_path):
    # bare instances carry sigma = nan; equal cells must still group into one row
    rng = np.random.default_rng(7)
    files = []
    for k in range(3):
        inst = Instance(d=2, T=6, L=1.0, U=10.0, c_weights=[1.0, 1.0],
                        w_weights=[1.0, 1.0], costs=rng.uniform(1.0, 10.0, (6, 2)))
        files.append(str(tmp_path / f"bare{k}.json"))
        save_instance(inst, files[-1])
    records_csv = str(tmp_path / "records.csv")
    records_to_csv(cmd_run(files, ["alg1"]), records_csv)
    assert main(["report", records_csv, "--out", str(tmp_path / "report")]) == 0
    with open(tmp_path / "report" / "aggregates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["algorithm"], row["sigma"], row["n"]) for row in rows] == [("alg1", "nan", "3")]


def test_cli_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("CFLBENCH_ALGS", "alg1")
    monkeypatch.setenv("CFLBENCH_OUT", str(tmp_path / "env"))
    monkeypatch.setenv("CFLBENCH_QUICK", "1")
    monkeypatch.setenv("CFLBENCH_CELLS", "d=2,u=250,beta=50,sigma=50")
    assert main(["sweep"]) == 0
    assert (tmp_path / "env" / "records.csv").exists()


def test_cli_diff_counts_moves_and_missing_rows(tmp_path, capsys):
    files = []
    for k in range(3):
        files.append(str(tmp_path / f"inst{k}.json"))
        save_instance(generate_synthetic(seed=5, index=k, config=GeneratorConfig(d=2)), files[-1])
    records = cmd_run(files, ["alg1", "agnostic"])
    old, same, new = (str(tmp_path / f"{name}.csv") for name in ("old", "same", "new"))
    records_to_csv(records, old)
    records_to_csv(records, same)
    assert main(["diff", old, same]) == 0
    out = capsys.readouterr().out
    assert "6 joined, 0 moved" in out
    assert "largest move" not in out
    assert "only in old: 0" in out and "only in new: 0" in out
    # One cost moved by 1e-10 relative, one record dropped, one added.
    moved = [dataclasses.replace(rec, alg_cost=rec.alg_cost * (1 + 1e-10)) if i == 0 else rec
             for i, rec in enumerate(records[:-1])]
    moved.append(dataclasses.replace(records[-1], instance_index=99))
    records_to_csv(moved, new)
    assert main(["diff", old, new]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "records: 6 old, 6 new, 5 joined, 1 moved"
    rows = {tuple(line.split()[:2]): [int(n) for n in line.split()[2:]]
            for line in lines[2:8]}
    first = records[0].algorithm
    assert rows[first, "alg_cost"] == [2, 0, 1, 0]
    assert rows[first, "opt_cost"] == [3, 0, 0, 0]
    assert lines[8].startswith("largest move: alg_cost 1e-10 relative")
    assert lines[9] == "only in old: 1" and "instance_index=2" in lines[10]
    assert lines[11] == "only in new: 1" and "instance_index=99" in lines[12]
    # A file it cannot read: a configuration error on one line.
    (tmp_path / "binary.csv").write_bytes(bytes(range(128, 256)))
    for bad in (str(tmp_path / "absent.csv"), str(tmp_path / "binary.csv"), str(tmp_path)):
        assert main(["diff", old, bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, err


_VALID_DOC = instance_to_dict(generate_synthetic(seed=5, index=0, config=GeneratorConfig(d=2)))
_CHANGES = ("drop", "type", "shape", "nan", "inf", "negative", "range")
# Out-of-range values per field: dimensions that no longer match the
# arrays, L above U, prices outside [L, U], a switching weight past
# (U - L)/2, and bookkeeping numbers past any use.
_OUT_OF_RANGE = {"d": lambda v: v + 1, "T": lambda v: v + 1, "L": lambda v: 2.0 * _VALID_DOC["U"],
                 "U": lambda v: _VALID_DOC["L"] / 2.0, "c": lambda v: 1e6,
                 "w": lambda v: _VALID_DOC["U"], "costs": lambda v: 2.0 * _VALID_DOC["U"],
                 "seed": lambda v: 2**64, "index": lambda v: 2**64,
                 "sigma": lambda v: 1e308, "beta_nominal": lambda v: 1e308}
# Every change to a physical field makes the document invalid.  Of the
# bookkeeping fields, the format rejects a wrong type (a seed or index that
# is not an integer, a generator_config that is not an object, a sigma or
# beta_nominal that is not a number) and a negative seed, which records
# reserve for "no seed"; the other changes (no generator_config, ...) leave
# a valid document that must run.
_REJECTED = dict.fromkeys(("d", "T", "L", "U", "c", "w", "costs"), set(_CHANGES))
_REJECTED.update(dict.fromkeys(("seed", "generator_config", "index"),
                               {"type", "shape", "nan", "inf"}))
_REJECTED["seed"] = _REJECTED["seed"] | {"negative"}
_REJECTED.update(dict.fromkeys(("sigma", "beta_nominal"), {"type", "shape"}))


def _changed(field: str, value, change: str, draw):
    """``value`` of ``field`` after ``change``; array fields change one
    drawn element, or their length or nesting."""
    if isinstance(value, list) and change not in ("type", "shape"):
        flat = [list(row) for row in value] if isinstance(value[0], list) else list(value)
        row = flat[draw(st.integers(0, len(flat) - 1))] if isinstance(flat[0], list) else flat
        k = draw(st.integers(0, len(row) - 1))
        row[k] = _changed(field, row[k], change, draw)
        return flat
    if change == "type":
        return "x"
    if change == "shape":
        if draw(st.booleans()):
            return [value]
        return value[:-1] if isinstance(value, list) else [value, value]
    if change in ("nan", "inf"):
        return float(change)
    if change == "negative":
        return -1 - value if isinstance(value, int) else -1.0 - value
    return _OUT_OF_RANGE[field](value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cli_run_survives_any_one_changed_field(tmp_path_factory, data):
    # One field of a valid document dropped, retyped, reshaped, or set to
    # NaN, inf, a negative or an out-of-range value: `run` never raises;
    # it reports a configuration (2) or numeric (3) failure on one stderr
    # line, and it does so for every change to a physical field.
    field = data.draw(st.sampled_from(sorted(_REJECTED)))
    # generator_config is an object: its numbers are changed as its fields.
    change = data.draw(st.sampled_from(_CHANGES[:5] if field == "generator_config" else _CHANGES))
    doc = json.loads(json.dumps(_VALID_DOC))
    holder = doc["generator_config"] if field in ("index", "sigma", "beta_nominal") else doc
    if change == "drop":
        del holder[field]
    else:
        holder[field] = _changed(field, holder[field], change, data.draw)
    tmp = tmp_path_factory.mktemp("doc")
    (tmp / "doc.json").write_text(json.dumps(doc) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", str(tmp / "doc.json"), "--algs", "alg1", "--out", str(tmp / "out")])
    if change in _REJECTED[field]:
        assert code in (2, 3), (field, change, doc)
    if code == 0:
        assert (tmp / "out" / "records.csv").exists()
    else:
        assert code in (2, 3), (field, change, code)
        assert err.getvalue().count("\n") == 1 and "doc.json" in err.getvalue(), err.getvalue()
