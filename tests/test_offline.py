"""Hindsight solutions and the anti-advice checked against exhaustive
tiny-grid search and against their LPs solved by HiGHS."""

import contextlib
import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog
from strategies import valid_instances

from oracles import grid_dp_best, vectorized_difference, vectorized_lagrangian_plan

from cflbench.core import (
    FEAS_TOL,
    Instance,
    NumericError,
    constraint_value,
    make_trajectory,
    trajectory_cost,
    trajectory_violations,
)
import cflbench.harness as harness
import cflbench.offline as offline
from cflbench.cli import main
from cflbench.core import save_instance
from cflbench.instances import (
    GeneratorConfig,
    MalInstance,
    generate_synthetic,
    ingest_trace,
    mal_to_cfl,
)
from cflbench.offline import AdviceConfig, make_advice, solve_opt, solve_worst


def make_instance(d=1, T=2, L=1.0, U=10.0, c=None, w=None, costs=None):
    c = np.ones(d) if c is None else np.asarray(c, float)
    w = np.zeros(d) if w is None else np.asarray(w, float)
    return Instance(
        d=d, T=T, L=L, U=U,
        c_weights=c, w_weights=w,
        costs=np.asarray(costs, float),
    )


def grid_best(instance, levels=21, maximize=False):
    """Exhaustive search over a uniform grid of feasible plans.

    The maximizing variant pins total utilization to exactly one unit,
    matching the anti-advice contract (over-covering is trivially bad
    advice, not adversarially bad advice).
    """
    T, d = instance.T, instance.d
    grid = np.linspace(0.0, 1.0, levels)
    best_val, best_plan = None, None
    for combo in itertools.product(grid, repeat=T * d):
        xs = np.array(combo).reshape(T, d)
        if np.any(xs @ instance.c_weights > 1.0 + 1e-12):
            continue
        total = float(np.sum(xs @ instance.c_weights))
        if total < 1.0 - 1e-9:
            continue
        if maximize and total > 1.0 + 1e-9:
            continue
        val = trajectory_cost(instance, xs).total
        if best_val is None or (val > best_val if maximize else val < best_val):
            best_val, best_plan = val, xs
    return best_val, best_plan


def test_opt_single_dim_no_movement():
    inst = make_instance(T=2, costs=[[3.0], [7.0]])
    sol = solve_opt(inst)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.decisions[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_opt_movement_tradeoff():
    # unit movement weight charges 1 up and 1 down around the cheap step
    inst = make_instance(T=2, w=[1.0], costs=[[3.0], [7.0]])
    sol = solve_opt(inst)
    assert sol.objective == pytest.approx(5.0, abs=1e-9)


def test_worst_single_dim():
    inst = make_instance(T=2, costs=[[3.0], [7.0]])
    sol = solve_worst(inst)
    assert sol.objective == pytest.approx(7.0, abs=1e-6)
    assert sol.solver_stats["stage"] == "worst"


def test_opt_matches_tiny_grid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        T = int(rng.integers(1, 3 if d == 2 else 4))
        c = np.ones(d)
        w = rng.uniform(0.0, 2.0, d)
        costs = rng.uniform(1.0, 10.0, (T, d))
        inst = make_instance(d=d, T=T, c=c, w=w, costs=costs)
        sol = solve_opt(inst)
        ref, _ = grid_dp_best(inst, np.linspace(0.0, 1.0, 21))
        # grid covers a superset of nothing: LP must do at least as well
        assert sol.objective <= ref + 1e-9
        assert sol.objective >= inst.L - 1e-9


def test_grid_program_matches_grid_best():
    # test_opt_matches_tiny_grid's instances with at most three grid entries
    # per plan (9,261 plans): the dynamic program and the enumeration find
    # the same grid minimum, up to the order of the float additions.
    rng = np.random.default_rng(7)
    for _ in range(25):
        d = int(rng.integers(1, 3))
        T = int(rng.integers(1, 3 if d == 2 else 4))
        w = rng.uniform(0.0, 2.0, d)
        costs = rng.uniform(1.0, 10.0, (T, d))
        if T * d > 3:
            continue
        inst = make_instance(d=d, T=T, c=np.ones(d), w=w, costs=costs)
        ref, ref_plan = grid_best(inst, levels=21)
        value, plan = grid_dp_best(inst, np.linspace(0.0, 1.0, 21))
        assert value == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert trajectory_cost(inst, plan).total == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_worst_dominates_tiny_grid():
    rng = np.random.default_rng(9)
    for _ in range(15):
        T = int(rng.integers(1, 4))
        costs = rng.uniform(1.0, 10.0, (T, 1))
        inst = make_instance(d=1, T=T, costs=costs)
        sol = solve_worst(inst)
        ref, _ = grid_best(inst, levels=21, maximize=True)
        assert sol.objective >= ref - 1e-6


def test_objective_equals_trajectory_cost():
    cfg = GeneratorConfig()
    for i in range(20):
        inst = generate_synthetic(seed=13, index=i, config=cfg)
        for sol in (solve_opt(inst), solve_worst(inst)):
            assert sol.objective == pytest.approx(
                trajectory_cost(inst, sol.decisions).total, rel=1e-9
            )
            assert sol.trajectory.final_utilization >= 1.0 - 1e-9
            assert np.all(sol.decisions >= -1e-12)
            assert np.all(sol.decisions <= 1.0 + 1e-12)
            assert np.all(sol.decisions @ inst.c_weights <= 1.0 + 1e-9)


def test_opt_lower_bounds_every_player():
    from cflbench.algorithms import run_agnostic, run_alg1

    cfg = GeneratorConfig()
    for i in range(20):
        inst = generate_synthetic(seed=17, index=i, config=cfg)
        opt = solve_opt(inst)
        assert run_alg1(inst).total_cost >= opt.objective - 1e-6
        assert run_agnostic(inst).total_cost >= opt.objective - 1e-6


def test_advice_endpoints_and_feasibility():
    cfg = GeneratorConfig()
    inst = generate_synthetic(seed=23, index=0, config=cfg)
    opt = solve_opt(inst)
    worst = solve_worst(inst)
    a0 = make_advice(inst, AdviceConfig(xi=0.0), opt=opt, worst=worst)
    a1 = make_advice(inst, AdviceConfig(xi=1.0), opt=opt, worst=worst)
    assert np.allclose(a0, opt.decisions)
    assert np.allclose(a1, worst.decisions)
    for xi in (0.0, 0.3, 0.7, 1.0):
        a = make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=worst)
        assert float(np.sum(a @ inst.c_weights)) >= 1.0 - 1e-9
        assert np.all(a @ inst.c_weights <= 1.0 + 1e-9)


def test_advice_quality_degrades_with_xi():
    # soft check: report only; the mix is pointwise so cost is convex in xi
    cfg = GeneratorConfig()
    inst = generate_synthetic(seed=23, index=1, config=cfg)
    opt = solve_opt(inst)
    worst = solve_worst(inst)
    costs = [
        trajectory_cost(
            inst, make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=worst)
        ).total
        for xi in (0.0, 0.5, 1.0)
    ]
    assert costs[0] <= costs[2] + 1e-9
    if not (costs[0] <= costs[1] <= costs[2]):
        print(f"note: advice cost not monotone in xi: {costs}")


def test_advice_config_validation():
    from cflbench.core import DomainError

    with pytest.raises(DomainError):
        AdviceConfig(xi=-0.1)
    with pytest.raises(DomainError):
        AdviceConfig(xi=1.5)


def _movement_rows(T: int, d: int):
    """Constraint rows encoding s_t >= |x_t - x_{t-1}| with zero boundary
    decisions, as two inequalities per movement variable."""
    n_x = T * d
    n_s = (T + 1) * d
    rows = []
    cols = []
    vals = []
    r = 0
    for t in range(T + 1):
        for i in range(d):
            s_col = n_x + t * d + i
            cur = t * d + i          # x_{t+1} in 1-based step terms
            prev = (t - 1) * d + i
            # x_t - x_{t-1} - s_t <= 0
            if t < T:
                rows.append(r); cols.append(cur); vals.append(1.0)
            if t > 0:
                rows.append(r); cols.append(prev); vals.append(-1.0)
            rows.append(r); cols.append(s_col); vals.append(-1.0)
            r += 1
            # x_{t-1} - x_t - s_t <= 0
            if t < T:
                rows.append(r); cols.append(cur); vals.append(-1.0)
            if t > 0:
                rows.append(r); cols.append(prev); vals.append(1.0)
            rows.append(r); cols.append(s_col); vals.append(-1.0)
            r += 1
    A = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n_x + n_s))
    return A, np.zeros(r)


def lp_opt(instance):
    """Reference hindsight optimum: box variables per step, auxiliary
    variables for the movement magnitudes (the returns to the origin at both
    ends included) and the covering constraint, solved by HiGHS."""
    T, d = instance.T, instance.d
    n_x, n_s = T * d, (T + 1) * d
    cost = np.concatenate([
        instance.costs.ravel(),
        np.tile(instance.w_weights, T + 1),
    ])
    A_move, b_move = _movement_rows(T, d)
    cover = sparse.csr_matrix(
        (np.tile(-instance.c_weights, T),
         (np.zeros(n_x, dtype=int), np.arange(n_x))),
        shape=(1, n_x + n_s),
    )
    A = sparse.vstack([A_move, cover], format="csr")
    b = np.concatenate([b_move, [-1.0]])
    bounds = [(0.0, 1.0)] * n_x + [(0.0, None)] * n_s
    # HiGHS's default 1e-7 tolerances let it stop at a vertex up to 1e-9
    # worse than the optimum; the oracle runs at the tightest it accepts.
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs", options=tight)
    assert res.success, res.message
    return float(res.fun)


def assert_matches_lp(inst):
    sol = solve_opt(inst)
    ref = lp_opt(inst)
    assert abs(sol.objective - ref) <= 1e-9 * max(1.0, abs(ref))
    assert not trajectory_violations(inst, sol.decisions)
    assert sol.solver_stats["stage"] == "opt"
    assert isinstance(sol.solver_stats["iterations"], int)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_instances())
def test_opt_matches_lp_on_random_instances(inst):
    # d = 1, T = 1, non-unit c, L == U with w = 0 and beta a hair under
    # (U - L)/2 all come from the strategy.
    assert_matches_lp(inst)


def test_opt_matches_lp_on_star_reductions():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        T = int(rng.integers(1, 6))
        w = np.concatenate([[rng.uniform(0.0, 1.0)], rng.uniform(0.0, 3.0, d)])
        costs = np.concatenate(
            [np.zeros((T, 1)), rng.uniform(1.0, 10.0, (T, d))], axis=1
        )
        mal = MalInstance(T=T, L=1.0, U=10.0, weights=w,
                          c_weights=np.concatenate([[0.0], np.ones(d)]), costs=costs)
        assert_matches_lp(mal_to_cfl(mal))


def test_opt_matches_lp_on_long_horizon():
    rng = np.random.default_rng(32)
    T, d = 1000, 10
    inst = Instance(d=d, T=T, L=1.0, U=250.0, c_weights=np.ones(d),
                    w_weights=rng.uniform(0.0, 50.0, d),
                    costs=rng.uniform(1.0, 250.0, (T, d)))
    assert_matches_lp(inst)


@pytest.mark.parametrize("T, L, c", [
    # The all-on line is so steep that rounding in lambda alone keeps the
    # dual below it: the search stops on the program returning a bracket plan.
    (4380, 0.37, [1.0] * 10),
    # Rounding in f - lambda c makes tied plans look better than the
    # bracket lines by a few ulp: the search stops on the tolerance.
    (6, 1.8372251349113349,
     [0.6754981774398402, 0.3078322241709065, 0.4238343324766878, 0.7506504510900079]),
])
def test_opt_flat_prices(T, L, c):
    # With L == U every plan covering one unit costs L: all tie at lambda* = L.
    c = np.array(c)
    inst = Instance(d=c.size, T=T, L=L, U=L, c_weights=c, w_weights=np.zeros(c.size),
                    costs=np.tile(L * c, (T, 1)))
    sol = solve_opt(inst)
    assert sol.objective == pytest.approx(L, rel=1e-12)
    assert not trajectory_violations(inst, sol.decisions)


def test_opt_rejects_unreachable_cover():
    # Three steps of c = 0.3 cover at most 0.9.
    inst = make_instance(d=1, T=3, c=[0.3], costs=[[0.6], [0.9], [1.2]], U=5.0)
    with pytest.raises(NumericError):
        solve_opt(inst)


def test_worst_covers_when_every_step_is_needed():
    # T * c = 1: only the all-on plan covers; advice checks refuse a plan
    # short of that by even 2e-9.
    inst = make_instance(d=1, T=2, L=0.5, U=0.5, c=[0.5], costs=[[0.25], [0.25]])
    worst = solve_worst(inst)
    assert worst.trajectory.final_utilization >= 1.0 - 1e-9
    assert not trajectory_violations(inst, worst.decisions)


def lp_worst(instance):
    """Reference hitting optimum of the anti-advice: the maximal hitting cost
    over plans in the box covering exactly one unit, solved by HiGHS."""
    c = np.tile(instance.c_weights, instance.T)
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(-instance.costs.ravel(), A_eq=c[None, :], b_eq=[1.0],
                  bounds=(0.0, 1.0), method="highs", options=tight)
    assert res.success, res.message
    return -float(res.fun)


def assert_worst_matches_lp(inst):
    sol = solve_worst(inst)
    xs = sol.decisions
    ref = lp_worst(inst)
    h = sol.solver_stats["hitting_optimum"]
    assert abs(h - ref) <= 1e-9 * max(1.0, abs(ref))
    assert h == pytest.approx(float(np.sum(inst.costs * xs)), rel=1e-12)
    assert abs(sol.trajectory.final_utilization - 1.0) <= FEAS_TOL
    assert np.all(xs >= 0.0) and np.all(xs <= 1.0)
    assert np.all(xs @ inst.c_weights <= 1.0 + FEAS_TOL)
    assert sol.objective == trajectory_cost(inst, xs).total
    assert sol.solver_stats["stage"] == "worst"
    assert sol.solver_stats["iterations"] == 0
    return sol


def assert_ties_resolve_by_parity(inst, xs):
    # Among items of equal price per unit (such as every price at U), an
    # item ranked later by (parity of t + i odd, smaller w, later index) is
    # bought only once every item ranked earlier is bought whole.
    T, d = inst.T, inst.d
    rate = (inst.costs / inst.c_weights).ravel()
    x = xs.ravel()
    rank = [((t + i) % 2, -inst.w_weights[i], t * d + i) for t in range(T) for i in range(d)]
    for a in range(T * d):
        for b in range(T * d):
            if rate[a] == rate[b] and rank[a] < rank[b] and x[b] > 0.0:
                assert x[a] == 1.0, (a, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_instances())
def test_worst_matches_lp_on_random_instances(inst):
    sol = assert_worst_matches_lp(inst)
    assert_ties_resolve_by_parity(inst, sol.decisions)


def test_worst_matches_lp_on_generator_instances():
    for config in (GeneratorConfig(), GeneratorConfig(d=10, beta_nominal=0.0)):
        for i in range(20):
            inst = generate_synthetic(seed=37, index=i, config=config)
            sol = assert_worst_matches_lp(inst)
            assert_ties_resolve_by_parity(inst, sol.decisions)


def test_worst_tie_at_U_alternates_dimensions():
    # Every price is U and every item covers half the demand: the plan
    # takes the even-parity items, larger w first, then the earlier one.
    U = 10.0
    inst = make_instance(d=2, T=3, U=U, c=[0.5, 0.5], w=[1.0, 3.0],
                         costs=np.full((3, 2), 0.5 * U))
    sol = solve_worst(inst)
    assert sol.decisions.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    assert sol.objective == pytest.approx(U + 2 * 1.0 + 2 * 3.0)


def test_worst_rejects_unreachable_cover():
    # Two steps of c = [0.2, 0.2] cover at most 0.8.
    inst = make_instance(d=2, T=2, c=[0.2, 0.2], costs=np.full((2, 2), 0.4), U=5.0)
    with pytest.raises(NumericError):
        solve_worst(inst)


@st.composite
def _dual_programs(draw):
    """An instance and a multiplier for one run of the hindsight program:
    d = 1 to 4, T = 1 up to 500 or, above the sweeps' crossover, up to
    4000, zero or positive switching weights, prices on an integer grid
    (ties between coordinates and steps) or anywhere, and multipliers at
    0, at a price (terms exactly zero), anywhere, or where the dual search
    makes its first solve."""
    d = draw(st.integers(1, 4))
    T = draw(st.sampled_from([1, 2]) | st.integers(1, 500)
             | st.integers(-(-offline._SWEEP_MIN_CELLS // d), 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L, U = 1.0, draw(st.sampled_from([1.0, 10.0, 250.0]))
    c = np.ones(d) if draw(st.booleans()) else rng.uniform(0.1, 1.0, d)
    rates = (rng.integers(1, 11, (T, d)) * (U - L) / 10.0 + L if draw(st.booleans())
             else rng.uniform(L, U, (T, d)))
    w_kind = draw(st.sampled_from(["zero", "integer", "uniform"]))
    w = {"zero": np.zeros(d), "integer": rng.integers(0, 3, d).astype(float),
         "uniform": rng.uniform(0.0, 0.49 * (U - L) + 1e-3, d)}[w_kind] * c
    inst = Instance(d=d, T=T, L=L, U=U, c_weights=c, w_weights=w, costs=rates * c)
    lam_kind = draw(st.sampled_from(["zero", "price", "uniform", "first"]))
    if lam_kind == "zero":
        lam = 0.0
    elif lam_kind == "price":
        lam = float(rates[rng.integers(T), rng.integers(d)])
    elif lam_kind == "uniform":
        lam = float(rng.uniform(0.0, 2.0 * U))
    else:
        lo = offline._plan(inst, np.zeros((T, d), dtype=bool))
        hi = offline._plan(inst, np.ones((T, d), dtype=bool))
        lam = (hi.cost - lo.cost) / (hi.coverage - lo.coverage)
    return inst, lam


def _assert_same_program(inst, lam):
    gain = inst.costs - lam * inst.c_weights
    diff = offline._difference(gain, inst.w_weights)
    assert diff.flags.c_contiguous
    assert diff.tobytes() == vectorized_difference(gain, inst.w_weights).tobytes()
    value, plan = offline._lagrangian_plan(inst, lam)
    ref_value, ref_plan = vectorized_lagrangian_plan(inst, lam)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert plan.on.shape == ref_plan.on.shape and np.array_equal(plan.on, ref_plan.on)
    assert (plan.cost, plan.coverage) == (ref_plan.cost, ref_plan.coverage)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_dual_programs())
def test_lagrangian_plan_matches_vectorized_oracle(case):
    # The sweeps and the scalar recurrence perform numpy's operations, the
    # one on whole arrays and the other one coordinate at a time: the
    # recurrence's every entry, the dual value and the plan are the
    # vectorized program's to the bit.
    _assert_same_program(*case)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_dual_programs(), st.sampled_from([1, 2, 16]))
def test_lagrangian_plan_at_small_sweep_caps_matches_vectorized_oracle(case, sweeps):
    # Sweeping every horizon with a cap of 1, 2 or 16 sweeps leaves most
    # coordinates moving, so most finish with the scalar recurrence from
    # their first changed step: still the vectorized program's bits.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(offline, "_SWEEP_MIN_CELLS", 2)
        mp.setattr(offline, "_MAX_SWEEPS", sweeps)
        _assert_same_program(*case)


def _counting_sweeps(monkeypatch):
    """Record what each ``_settle_by_sweeps`` call returns."""
    returned = []
    settle = offline._settle_by_sweeps

    def counted(*args):
        exact = settle(*args)
        returned.append(exact)
        return exact

    monkeypatch.setattr(offline, "_settle_by_sweeps", counted)
    return returned


def test_sweeps_run_on_long_horizons_only(monkeypatch):
    # A year at two-hour steps in ten regions sweeps; the generator's
    # horizons (T <= 24) at d = 10 run the scalar recurrence alone.
    returned = _counting_sweeps(monkeypatch)
    for i in range(5):
        solve_opt(generate_synthetic(5, i, GeneratorConfig(d=10)))
    assert returned == []
    rng = np.random.default_rng(4380)
    inst = make_instance(d=10, T=4380, U=250.0, w=np.full(10, 20.0),
                         costs=rng.uniform(1.0, 250.0, (4380, 10)))
    for lam in (50.0, 125.0):
        _assert_same_program(inst, lam)  # sweeps twice: the recurrence, then the plan
    assert len(returned) == 4
    assert all(np.array_equal(exact, np.full(10, 4379)) for exact in returned)


def test_long_clamp_free_chains_finish_with_the_scalar_recurrence(monkeypatch):
    # Prices within 1 of lam and w just under (U - L)/2: the difference
    # wanders between -w and w without touching either for thousands of
    # steps, so no number of sweeps below that settles it, and every
    # coordinate finishes from its first changed step.
    rng = np.random.default_rng(24)
    L, U, T, d = 1.0, 250.0, 3000, 3
    lam = 125.0
    inst = make_instance(d=d, T=T, L=L, U=U, w=np.full(d, 0.49 * (U - L)),
                         costs=lam + rng.uniform(-1.0, 1.0, (T, d)))
    returned = _counting_sweeps(monkeypatch)
    _assert_same_program(inst, lam)
    exact = returned[0]
    assert len(returned) == 2 and np.array_equal(returned[1], exact)
    assert np.all(exact < T - 1)
    assert np.all(exact >= offline._MAX_SWEEPS)


def test_cli_run_on_a_trace_shaped_instance_keeps_the_hindsight_bits(tmp_path, monkeypatch):
    # cflbench run over a year of two-hour steps in ten regions, ingested
    # from a trace: the optimum it prices every record against is, to the
    # bit, the one the vectorized program gives (the scalar recurrence's
    # bits before the sweeps).
    rng = np.random.default_rng(611)
    hours = np.arange(0, 8760, 2)
    rows = ["timestamp,region,intensity"]
    for r in range(10):
        base, swing, phase = rng.uniform(200, 600), rng.uniform(20, 200), rng.uniform(0, 24)
        daily = base + swing * np.sin(2 * np.pi * (hours + phase) / 24.0)
        values = np.maximum(1.0, daily + rng.normal(0.0, 30.0, hours.size))
        rows += [f"{h},r{r},{v:.3f}" for h, v in zip(hours, values)]
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    inst = ingest_trace(str(trace), w_weights=np.full(10, 20.0))
    save_instance(inst, str(tmp_path / "instance.json"))
    solved = []

    def keep(instance):
        solved.append(solve_opt(instance))
        return solved[-1]

    monkeypatch.setattr(harness, "solve_opt", keep)
    argv = ["run", "--algs", "alg1,baseline", "--xi", "0.5", "--eps", "2",
            "--out", str(tmp_path / "run"), str(tmp_path / "instance.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    monkeypatch.setattr(offline, "_lagrangian_plan", vectorized_lagrangian_plan)
    ref = solve_opt(inst)
    (sol,) = solved
    assert sol.decisions.tobytes() == ref.decisions.tobytes()
    assert np.float64(sol.objective).tobytes() == np.float64(ref.objective).tobytes()
    assert sol.solver_stats == ref.solver_stats
    with open(tmp_path / "run" / "records.csv", newline="") as fh:
        opt_costs = {row["opt_cost"] for row in csv.DictReader(fh)}
    assert opt_costs == {repr(ref.objective)}

