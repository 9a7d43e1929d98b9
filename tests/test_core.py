"""Core value types, cost accounting, validation, serialization."""

import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import valid_instances

from cflbench.core import (
    CflError,
    DimensionMismatch,
    DomainError,
    Instance,
    InfeasibleError,
    _weighted_sum,
    compulsory_start,
    constraint_value,
    decision_violations,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_trajectory,
    save_instance,
    trajectory_cost,
    trajectory_violations,
    validate_instance,
    weighted_l1,
)


def make_instance(d=2, T=3, L=1.0, U=10.0, c=None, w=None, costs=None):
    c = np.ones(d) if c is None else np.asarray(c, dtype=float)
    w = np.zeros(d) if w is None else np.asarray(w, dtype=float)
    if costs is None:
        costs = np.full((T, d), 5.0)
    return Instance(d=d, T=T, L=L, U=U, c_weights=c, w_weights=w,
                    costs=np.asarray(costs, dtype=float))


def test_weighted_l1_examples():
    assert weighted_l1([0.0, 0.0], [3.0, 4.0]) == 0.0
    assert weighted_l1([1.0, 1.0], [3.0, 4.0]) == 7.0
    assert weighted_l1([0.5, -0.5], [2.0, 2.0]) == 2.0


def test_weighted_l1_mismatch():
    with pytest.raises(DimensionMismatch):
        weighted_l1([1.0], [1.0, 2.0])


def test_weighted_l1_norm_properties():
    # absolute homogeneity and triangle inequality on random triples
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        w = rng.uniform(0.0, 5.0, d)
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        s = float(rng.normal())
        assert abs(weighted_l1(s * x, w) - abs(s) * weighted_l1(x, w)) < 1e-12 * (1 + abs(s))
        assert weighted_l1(x + y, w) <= weighted_l1(x, w) + weighted_l1(y, w) + 1e-12


def test_constraint_value_examples():
    assert constraint_value([0.0, 0.0], [1.0, 1.0]) == 0.0
    assert constraint_value([0.3, 0.2], [1.0, 1.0]) == pytest.approx(0.5)
    assert constraint_value([1.0], [0.25]) == pytest.approx(0.25)


def test_trajectory_cost_idle():
    ins = make_instance()
    cb = trajectory_cost(ins, np.zeros((3, 2)))
    assert cb.hitting == 0.0 and cb.switching == 0.0 and cb.total == 0.0


def test_trajectory_cost_single_up_down():
    ins = make_instance(d=1, T=2, w=[1.0], costs=[[3.0], [9.0]])
    cb = trajectory_cost(ins, [[1.0], [0.0]])
    assert cb.hitting == pytest.approx(3.0)
    assert cb.switching == pytest.approx(2.0)
    assert cb.total == pytest.approx(5.0)


def test_trajectory_cost_two_dim_swap():
    # x_1=(1,0), x_2=(0,1): up 1 in dim0, swap costs 1+2, final drop costs 2
    ins = make_instance(d=2, T=2, w=[1.0, 2.0], costs=[[3.0, 3.0], [3.0, 3.0]])
    cb = trajectory_cost(ins, [[1.0, 0.0], [0.0, 1.0]])
    assert cb.hitting == pytest.approx(6.0)
    assert cb.switching == pytest.approx(6.0)
    assert cb.total == pytest.approx(12.0)


def test_trajectory_cost_streaming_equals_batch():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        T = int(rng.integers(1, 8))
        ins = make_instance(d=d, T=T, w=rng.uniform(0, 3, d),
                            costs=rng.uniform(1, 10, (T, d)))
        xs = rng.uniform(0, 1 / d, (T, d))
        cb = trajectory_cost(ins, xs)
        # online accumulation with explicit boundary terms
        run = 0.0
        prev = np.zeros(d)
        for t in range(T):
            run += float(ins.costs[t] @ xs[t])
            run += weighted_l1(xs[t] - prev, ins.w_weights)
            prev = xs[t]
        run += weighted_l1(prev, ins.w_weights)
        assert abs(run - cb.total) < 1e-9 * max(1.0, abs(cb.total))


def test_make_trajectory_profile():
    ins = make_instance(d=1, T=3, costs=[[2.0], [2.0], [2.0]])
    tr = make_trajectory(ins, [[0.25], [0.25], [0.5]])
    assert np.allclose(tr.utilization_profile, [0.25, 0.5, 1.0])
    assert tr.final_utilization == pytest.approx(1.0)
    assert tr.total_cost == pytest.approx(tr.hitting_cost + tr.switching_cost)


def test_validate_instance_beta_bound():
    ok = make_instance(d=1, L=1.0, U=10.0, w=[4.0])
    assert validate_instance(ok) == []
    bad = make_instance(d=1, L=1.0, U=10.0, w=[5.0])
    issues = validate_instance(bad)
    assert any("beta" in v for v in issues)


def test_validate_instance_gradient_bounds():
    # per-unit price 0.5 below L, and 11 above U, must each be flagged
    bad = make_instance(d=1, L=1.0, U=10.0, costs=[[0.5], [5.0], [5.0]])
    assert any("[L, U]" in v for v in validate_instance(bad))
    high = make_instance(d=1, L=1.0, U=10.0, costs=[[5.0], [11.0], [5.0]])
    assert any("[L, U]" in v for v in validate_instance(high))


def test_validate_instance_shape_and_weights():
    bad = Instance(d=2, T=2, L=1.0, U=10.0, c_weights=[1.0, 0.0],
                   w_weights=[0.0, 0.0], costs=np.full((2, 2), 5.0))
    issues = validate_instance(bad)
    assert issues  # c must be strictly positive
    wrong_T = Instance(d=1, T=3, L=1.0, U=10.0, c_weights=[1.0],
                       w_weights=[0.0], costs=np.full((2, 1), 5.0))
    assert validate_instance(wrong_T)


def test_decision_violations():
    ins = make_instance(d=2)
    assert decision_violations(ins, np.array([0.5, 0.4])) == []
    assert decision_violations(ins, np.array([1.5, 0.0]))
    assert decision_violations(ins, np.array([0.8, 0.8]))  # c(x) > 1


def test_trajectory_violations_cover():
    ins = make_instance(d=1, T=2, costs=[[5.0], [5.0]])
    assert trajectory_violations(ins, [[0.5], [0.5]]) == []
    vio = trajectory_violations(ins, [[0.2], [0.2]])
    assert any("constraint" in v or "utilization" in v for v in vio)


def test_compulsory_start_examples():
    assert compulsory_start(1, 0.0, make_instance(d=1, T=2)) is False
    big = make_instance(d=24, T=24, costs=np.full((24, 24), 5.0))
    assert compulsory_start(1, 0.0, big) is False
    ins = make_instance(d=1, T=10, c=[0.4],
                        costs=np.full((10, 1), 2.0))
    assert compulsory_start(8, 0.5, ins) is False


def test_compulsory_start_monotone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        T = int(rng.integers(2, 12))
        c = rng.uniform(0.1, 1.0, d)
        ins = make_instance(d=d, T=T, c=c, costs=np.full((T, d), 5.0))
        z = float(rng.uniform(0, 1))
        t = int(rng.integers(1, T))
        if compulsory_start(t, z, ins):
            z_next = min(1.0, z + float(np.max(c)))
            assert compulsory_start(t + 1, z_next, ins)


def test_serialization_round_trip(tmp_path):
    ins = make_instance(d=2, T=3, w=[0.5, 1.5],
                        costs=np.arange(6, dtype=float).reshape(3, 2) + 1.0)
    doc = instance_to_dict(ins)
    back = instance_from_dict(doc)
    assert back.d == ins.d and back.T == ins.T
    assert np.array_equal(back.costs, ins.costs)
    assert np.array_equal(back.c_weights, ins.c_weights)
    path = tmp_path / "inst.json"
    save_instance(ins, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.costs, ins.costs)
    # file is plain json
    json.loads(path.read_text())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(valid_instances(), st.one_of(st.none(), st.integers(0, 2**63)))
def test_instance_file_round_trips_exactly(inst, seed):
    inst = dataclasses.replace(inst, seed=seed, generator_config={"index": 3, "sigma": 0.1})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        save_instance(inst, path)
        back = load_instance(path)
    for field in dataclasses.fields(Instance):
        a, b = getattr(inst, field.name), getattr(back, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


def test_serialization_rejects_bad_doc():
    with pytest.raises(CflError):
        instance_from_dict({"d": 1})


def test_error_hierarchy():
    assert issubclass(DomainError, CflError)
    assert issubclass(DomainError, ValueError)
    assert issubclass(InfeasibleError, CflError)
    assert issubclass(InfeasibleError, RuntimeError)


@st.composite
def _vector_pairs(draw):
    d = draw(st.integers(1, 20))
    x = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    w = draw(st.lists(st.floats(0.0, 1e3), min_size=d, max_size=d))
    return np.array(x), np.array(w)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_vector_pairs())
def test_unchecked_sum_is_np_sum_to_the_bit(pair):
    # The step loops' sum is np.sum's reduction, also where numpy sums
    # pairwise (eight terms and more); a left-to-right loop is not.
    x, w = pair
    expected = float(np.sum(w * np.abs(x)))
    assert np.float64(_weighted_sum(x, w)).tobytes() == np.float64(expected).tobytes()
    assert constraint_value(x, w) == expected
