"""Instance generation: synthetic streams, the adversary, traces, and the
star-metric reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_ingest_trace

from cflbench.core import DomainError, Instance, instance_from_dict, instance_to_dict, make_trajectory
from cflbench.instances import (
    AdversaryConfig,
    GeneratorConfig,
    MalInstance,
    drop_off_state,
    generate_synthetic,
    ingest_trace,
    make_inactive_advice,
    mal_to_cfl,
    restore_off_state,
    star_distance,
    y_adversary_run,
)


def test_generator_deterministic():
    cfg = GeneratorConfig()
    a = generate_synthetic(seed=5, index=12, config=cfg)
    b = generate_synthetic(seed=5, index=12, config=cfg)
    assert a.T == b.T
    assert np.array_equal(a.costs, b.costs)
    assert np.array_equal(a.w_weights, b.w_weights)


def test_generator_substreams_independent():
    # drawing index 3 directly equals drawing it after many other indices
    cfg = GeneratorConfig()
    direct = generate_synthetic(seed=9, index=3, config=cfg)
    for i in range(3):
        generate_synthetic(seed=9, index=i, config=cfg)
    again = generate_synthetic(seed=9, index=3, config=cfg)
    assert np.array_equal(direct.costs, again.costs)


def test_generator_respects_bounds():
    cfg = GeneratorConfig()
    for i in range(50):
        inst = generate_synthetic(seed=21, index=i, config=cfg)
        assert cfg.T_min <= inst.T <= cfg.T_max
        assert np.all(inst.costs >= inst.L - 1e-12)
        assert np.all(inst.costs <= inst.U + 1e-12)
        assert np.array_equal(inst.c_weights, np.ones(cfg.d))
        assert inst.beta < (inst.U - inst.L) / 2.0
        assert inst.beta <= cfg.beta_nominal + 1e-12


def test_generator_round_trips_through_serialization():
    cfg = GeneratorConfig(d=3, T_min=4, T_max=8)
    inst = generate_synthetic(seed=2, index=7, config=cfg)
    back = instance_from_dict(instance_to_dict(inst))
    assert back.T == inst.T and back.d == inst.d
    assert np.array_equal(back.costs, inst.costs)
    assert back.generator_config == inst.generator_config


def test_generator_config_validation():
    with pytest.raises(DomainError):
        GeneratorConfig(d=0)
    with pytest.raises(DomainError):
        GeneratorConfig(beta_nominal=130.0, U_over_L=250.0)  # >= (U-L)/2
    with pytest.raises(DomainError):
        GeneratorConfig(T_min=10, T_max=5)
    with pytest.raises(DomainError):
        GeneratorConfig(sigma=-1.0)


def test_adversary_config_grid():
    cfg = AdversaryConfig(y=250.0 - 7 * 2.49)
    assert cfg.level_index == 7
    assert cfg.T == 50 * 104
    with pytest.raises(DomainError):
        AdversaryConfig(y=123.456)  # off the walk's grid
    with pytest.raises(DomainError):
        AdversaryConfig(y=250.0 - 2.49, m=1)


def test_adversary_run_structure():
    cfg = AdversaryConfig(y=250.0 - 50 * 2.49, m=4, w_steps=10)
    alg_cost, reference = y_adversary_run("alg1", cfg)
    assert alg_cost > 0.0
    assert reference > 0.0
    assert np.isfinite(alg_cost) and np.isfinite(reference)


def test_inactive_advice_shape_and_mass():
    cfg = GeneratorConfig()
    for i in range(10):
        inst = generate_synthetic(seed=31, index=i, config=cfg)
        adv = make_inactive_advice(inst)
        assert adv.shape == (inst.T, inst.d)
        assert float(np.sum(adv @ inst.c_weights)) == pytest.approx(1.0, abs=1e-9)
        # idle until its own forced window opens
        fired = np.flatnonzero(adv @ inst.c_weights > 1e-12)
        need_steps = int(np.ceil(1.0 / float(np.max(inst.c_weights))))
        assert fired[0] >= inst.T - need_steps - 1


def test_inactive_advice_moves_from_its_previous_decision():
    # the forced window opens at step 1, idles at step 2 and reopens at step 3,
    # where the fill must price movement from the idle step's zero decision
    inst = Instance(d=2, T=4, L=1.0, U=10.0, c_weights=[0.3, 0.3], w_weights=[1.0, 0.2],
                    costs=[[3.0, 2.4], [0.3, 0.3], [2.0, 1.5], [1.5, 1.5]])
    adv = make_inactive_advice(inst)
    np.testing.assert_allclose(adv, [[1.0, 1.0], [0.0, 0.0], [1.0 / 3.0, 1.0], [0.0, 0.0]])
    assert make_trajectory(inst, adv).total_cost == pytest.approx(11.0 + 1.0 / 30.0)


def test_star_distance_examples():
    w = np.array([0.0, 2.0, 3.0])
    q = np.array([1.0, 0.0, 0.0])
    q2 = np.array([0.0, 1.0, 0.0])
    assert star_distance(q, q2, w) == pytest.approx(2.0)
    q3 = np.array([0.0, 0.0, 1.0])
    assert star_distance(q2, q3, w) == pytest.approx(5.0)
    assert star_distance(q, q, w) == 0.0


def test_off_state_round_trip():
    q = np.array([0.2, 0.5, 0.3])
    x = drop_off_state(q)
    assert x.tolist() == [0.5, 0.3]
    assert restore_off_state(x) == pytest.approx(q)


def _random_mal(rng, d=3, T=4):
    # keep w_i + w_0 under (U - L) / 2 so the reduced instance stays valid
    w = np.concatenate([[rng.uniform(0, 1)], rng.uniform(0, 3, d)])
    c = np.concatenate([[0.0], np.ones(d)])
    costs = np.concatenate(
        [np.zeros((T, 1)), rng.uniform(1.0, 10.0, (T, d))], axis=1
    )
    return MalInstance(T=T, L=1.0, U=10.0, weights=w, c_weights=c, costs=costs)


def test_reduction_preserves_hitting_and_dominates_movement():
    rng = np.random.default_rng(41)
    for _ in range(200):
        mal = _random_mal(rng)
        inst = mal_to_cfl(mal)
        q = rng.dirichlet(np.ones(mal.d + 1))
        q2 = rng.dirichlet(np.ones(mal.d + 1))
        x, x2 = drop_off_state(q), drop_off_state(q2)
        mapped = float(np.abs(x - x2) @ inst.w_weights)
        true = star_distance(q, q2, mal.weights)
        assert mapped >= true - 1e-12
        if mal.weights[0] == 0.0:
            assert mapped == pytest.approx(true, abs=1e-12)
        # hitting cost agrees exactly on every step
        t = int(rng.integers(mal.T))
        assert float(mal.costs[t] @ q) == pytest.approx(
            float(inst.costs[t] @ x), abs=1e-12
        )


def test_reduction_exact_when_off_edge_free():
    rng = np.random.default_rng(43)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        w = np.concatenate([[0.0], rng.uniform(0, 4, d)])
        c = np.concatenate([[0.0], np.ones(d)])
        costs = np.concatenate(
            [np.zeros((3, 1)), rng.uniform(1.0, 10.0, (3, d))], axis=1
        )
        mal = MalInstance(T=3, L=1.0, U=10.0, weights=w, c_weights=c, costs=costs)
        inst = mal_to_cfl(mal)
        assert np.array_equal(inst.w_weights, mal.weights[1:])


def test_mal_validation():
    with pytest.raises(DomainError):
        MalInstance(
            T=2,
            L=1.0,
            U=10.0,
            weights=np.array([0.0, 1.0]),
            c_weights=np.array([0.5, 1.0]),  # OFF must carry no utilization
            costs=np.zeros((2, 2)),
        )
    with pytest.raises(DomainError):
        MalInstance(
            T=2,
            L=1.0,
            U=10.0,
            weights=np.array([0.0, -1.0]),
            c_weights=np.array([0.0, 1.0]),
            costs=np.zeros((2, 2)),
        )


def _write(tmp_path, text, name="trace.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_ingest_trace_round_trip(tmp_path):
    path = _write(
        tmp_path,
        "timestamp,region_id,intensity\n"
        "2,west,30\n"
        "1,west,10\n"
        "1,east,100\n"
        "2,east,300\n"
        "3,east,200\n"
        "3,west,20\n",
    )
    inst = ingest_trace(path, L=1.0, U=250.0)
    assert inst.T == 3 and inst.d == 2
    # east sorts before west; min -> L, max -> U per region
    east = inst.costs[:, 0]
    assert east[0] == pytest.approx(1.0)
    assert east[1] == pytest.approx(250.0)
    assert east[2] == pytest.approx(1.0 + 0.5 * 249.0)
    west = inst.costs[:, 1]
    assert west[0] == pytest.approx(1.0)
    assert west[1] == pytest.approx(250.0)


def test_ingest_trace_constant_region_maps_to_floor(tmp_path):
    path = _write(
        tmp_path,
        "1,a,5\n2,a,5\n1,b,1\n2,b,9\n",
    )
    inst = ingest_trace(path, L=2.0, U=20.0)
    assert np.all(inst.costs[:, 0] == 2.0)


def test_ingest_trace_errors(tmp_path):
    with pytest.raises(DomainError, match="line 2"):
        ingest_trace(_write(tmp_path, "1,a,5\n1,a,oops\n"))
    with pytest.raises(DomainError, match="duplicate"):
        ingest_trace(_write(tmp_path, "1,a,5\n1,a,6\n", name="dup.csv"))
    with pytest.raises(DomainError, match="missing cell"):
        ingest_trace(_write(tmp_path, "1,a,5\n2,a,6\n1,b,7\n", name="gap.csv"))
    with pytest.raises(DomainError, match="expected 3 fields"):
        ingest_trace(_write(tmp_path, "1,a\n", name="short.csv"))
    with pytest.raises(DomainError, match="no data rows"):
        ingest_trace(_write(tmp_path, "timestamp,region,intensity\n", name="hdr.csv"))


def _outcome(read, path, **kwargs):
    """What a trace reader makes of a file: the instance's arrays, or the
    error it raises."""
    try:
        inst = read(path, **kwargs)
    except DomainError as exc:
        return "error", str(exc)
    return "instance", (inst.d, inst.T, inst.costs.tobytes(), inst.c_weights.tobytes(),
                        inst.w_weights.tobytes())


_BLANK_LINES = ["", "   ", ",,", " , , ", ",", "\t"]
_DEFECTS = ["none", "duplicate", "missing", "bad_value", "fields", "nan", "header_only",
            "w_length"]


@st.composite
def _trace_files(draw):
    """A trace CSV's text and the ``w_weights`` to read it with.  Rows come
    shuffled, with an optional header, blank or whitespace lines, padded
    fields, numeric timestamps (some equal as numbers, like "3" and "3.0")
    or non-numeric ones, and at most one defect."""
    T, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        stamps = [str(v) for v in draw(st.lists(st.integers(0, 50), min_size=T, max_size=T,
                                                unique=True))]
        if T > 1 and draw(st.booleans()):
            stamps[-1] = stamps[0] + ".0"
    else:
        stamps = [f"2024-01-{v:02d}T{h}" for v, h in
                  draw(st.lists(st.tuples(st.integers(1, 28), st.sampled_from("ab")),
                                min_size=T, max_size=T, unique=True))]
    regions = draw(st.lists(st.sampled_from(["east", "west", "r1", "r10", "r2", "9", "10"]),
                            min_size=d, max_size=d, unique=True))
    values = st.sampled_from(["5", "5.0", "0"]) | st.floats(0.0, 1e4).map(repr)
    flat = draw(st.booleans())
    rows = [[ts, region, "7.5" if flat else draw(values)] for region in regions for ts in stamps]
    rows = draw(st.permutations(rows))
    defect = draw(st.sampled_from(_DEFECTS))
    k = draw(st.integers(0, len(rows) - 1))
    if defect == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), [rows[k][0], rows[k][1], "1"])
    elif defect == "missing" and len(rows) > 1:
        del rows[k]
    elif defect == "bad_value":
        rows[k][2] = draw(st.sampled_from(["oops", "", "1,5"]))
    elif defect == "fields":
        rows[k] = rows[k][:2] if draw(st.booleans()) else rows[k] + ["x"]
    elif defect == "nan":
        rows[k][2] = draw(st.sampled_from(["nan", "inf"]))
    elif defect == "header_only":
        rows = []
    lines = [",".join(f" {field} " if draw(st.booleans()) else field for field in row)
             for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_BLANK_LINES)))
    if draw(st.booleans()) or defect == "header_only":
        lines.insert(0, "timestamp,region,intensity")
    w = np.full(d + 1 if defect == "w_length" else d, 2.0)
    return "\n".join(lines) + "\n", w


# A non-finite intensity is rejected at its row, before any arithmetic on
# the prices, so no draw may warn.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_trace_files())
def test_ingest_trace_matches_the_cell_by_cell_oracle(tmp_path_factory, case):
    # The scatter through sorted indices builds the oracle's prices to the
    # bit, and a defective file fails with the oracle's error message.
    text, w = case
    path = str(tmp_path_factory.mktemp("trace") / "trace.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    for kwargs in ({}, {"L": 2.0, "U": 20.0, "w_weights": w}):
        assert _outcome(ingest_trace, path, **kwargs) == _outcome(dict_ingest_trace, path, **kwargs)


@pytest.mark.parametrize("text, message", [
    ("1,a,5\n1,a,oops\n", "line 2: bad intensity 'oops'"),
    ("1,a,5\n\n1,a,6\n", "line 3: duplicate cell (1, a)"),
    ("1,a,5\n2,a,6\n1,b,7\n", "missing cell for (2, b)"),
    ("1,b,5\n2,a,6\n1,a,7\n", "missing cell for (2, b)"),
    ("1,a\n", "line 1: expected 3 fields, got 2"),
    ("1,a,5\n1,b,5,x\n", "line 2: expected 3 fields, got 4"),
    ("timestamp,region,intensity\n\n", "trace contains no data rows"),
    ("1,a,5\n2,a,nan\n", "line 2: intensity 'nan' is not finite"),
    ("1,a,5\n2,a, inf\n1,b,7\n", "line 2: intensity 'inf' is not finite"),
    ("1,a,-1e999\n", "line 1: intensity '-1e999' is not finite"),
])
def test_ingest_trace_error_messages(tmp_path, text, message):
    # Every message the reader raises, word for word, and the oracle's.
    path = _write(tmp_path, text)
    assert _outcome(ingest_trace, path) == ("error", message)
    assert _outcome(dict_ingest_trace, path) == ("error", message)
