"""Per-step pseudo-cost solver, checked against a brute-force grid oracle
and, for the constrained step, against the bisection it replaced."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bisect_constrained, grid_oracle
from scipy.optimize import linprog

import cflbench.algorithms as algorithms
import cflbench.subproblem as subproblem
from cflbench.core import FEAS_TOL, DimensionMismatch, DomainError, constraint_value, weighted_l1
from cflbench.instances import GeneratorConfig, generate_synthetic
from cflbench.offline import AdviceConfig, make_advice, solve_opt, solve_worst
from cflbench.subproblem import (
    SLACK_TOL,
    ConsistencyContext,
    StepContext,
    _constrained_with_free,
    consistency_slack,
    fill_to_utilization,
    minimize_pseudo_cost,
    minimize_pseudo_cost_constrained,
    pseudo_cost_objective,
)
from cflbench.thresholds import (
    compute_alpha,
    make_threshold_params,
    phi_eps_integral,
    phi_integral,
    phi_rate_coeff,
    phi_rate_integral,
)


def make_ctx(rng, d=2, L=1.0, U=50.0, beta_frac=0.3, epsilon=None):
    c = rng.uniform(0.2, 1.0, d)
    bmax = (U - L) / 2.0
    w = rng.uniform(0.0, beta_frac * bmax, d) * c
    f = rng.uniform(L, U, d) * c
    z = float(rng.uniform(0.0, 0.95))
    x_prev = rng.uniform(0.0, 1.0, d)
    if constraint_value(x_prev, c) > 1.0:
        x_prev = x_prev / constraint_value(x_prev, c)
    params = make_threshold_params(L, U, float(np.max(w / c)), epsilon=epsilon)
    return StepContext(
        f_t=f,
        x_prev=x_prev,
        z=z,
        cap=1.0 - z,
        c_weights=c,
        w_weights=w,
        params=params,
    )


def ref_objective(x, ctx):
    """Independent re-statement of the pseudo-cost from its definition."""
    y = constraint_value(x, ctx.c_weights)
    z1 = min(1.0, ctx.z + y)
    credit = float(phi_integral(ctx.z, z1, ctx.params))
    hit = float(ctx.f_t @ x)
    switch = weighted_l1(x - ctx.x_prev, ctx.w_weights)
    return hit + switch - credit


def ref_slack(x, ctx, cc):
    """consistency_slack restated literally from the budget definition."""
    L, U = ctx.params.L, ctx.params.U
    y = constraint_value(x, ctx.c_weights)
    z_new = cc.z_prev + y
    adv_norm = weighted_l1(cc.a_t, ctx.w_weights)
    budget = (1 + cc.epsilon) * (cc.adv_cost + adv_norm + (1 - cc.advice_utilization) * L)
    spent = (
        cc.clip_cost_so_far
        + float(ctx.f_t @ x)
        + weighted_l1(x - ctx.x_prev, ctx.w_weights)
        + weighted_l1(x - cc.a_t, ctx.w_weights)
        + adv_norm
        + (1 - z_new) * L
        + max(cc.advice_utilization - z_new, 0.0) * (U - L)
    )
    return budget - spent


def test_objective_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ctx = make_ctx(rng, d=int(rng.integers(1, 4)))
        x = rng.uniform(0, 1, ctx.d)
        y = constraint_value(x, ctx.c_weights)
        cap = min(1.0, ctx.cap)
        if y > cap:
            x = x * (cap / y)
        got = pseudo_cost_objective(x, ctx)
        assert got == pytest.approx(ref_objective(x, ctx), abs=1e-9 * ctx.params.U)


def test_objective_validation():
    rng = np.random.default_rng(8)
    ctx = make_ctx(rng, d=2)
    with pytest.raises(DimensionMismatch):
        pseudo_cost_objective(np.zeros(3), ctx)
    with pytest.raises(DomainError):
        pseudo_cost_objective(np.array([1.5, 0.0]), ctx)


def test_solver_beats_grid():
    rng = np.random.default_rng(11)
    for _ in range(60):
        ctx = make_ctx(rng, d=int(rng.integers(1, 3)))
        x = minimize_pseudo_cost(ctx)
        ref_val = pseudo_cost_objective(grid_oracle(ctx, grid_n=120), ctx)
        assert pseudo_cost_objective(x, ctx) <= ref_val + 1e-4 * ctx.params.U


def test_solver_beats_grid_3d():
    rng = np.random.default_rng(12)
    for _ in range(8):
        ctx = make_ctx(rng, d=3)
        x = minimize_pseudo_cost(ctx)
        ref_val = pseudo_cost_objective(grid_oracle(ctx, grid_n=60), ctx)
        assert pseudo_cost_objective(x, ctx) <= ref_val + 1e-3 * ctx.params.U


def test_solver_deterministic():
    rng = np.random.default_rng(13)
    for _ in range(20):
        ctx = make_ctx(rng, d=2)
        assert np.array_equal(minimize_pseudo_cost(ctx), minimize_pseudo_cost(ctx))


def test_cheaper_prices_buy_no_less():
    # lowering every price can only increase the amount purchased
    rng = np.random.default_rng(19)
    for _ in range(100):
        ctx = make_ctx(rng, d=2)
        x = minimize_pseudo_cost(ctx)
        scale = float(rng.uniform(0.3, 1.0))
        f2 = np.maximum(ctx.f_t * scale, ctx.params.L * ctx.c_weights)
        ctx2 = StepContext(
            f_t=f2,
            x_prev=ctx.x_prev,
            z=ctx.z,
            cap=ctx.cap,
            c_weights=ctx.c_weights,
            w_weights=ctx.w_weights,
            params=ctx.params,
        )
        x2 = minimize_pseudo_cost(ctx2)
        assert constraint_value(x2, ctx.c_weights) >= constraint_value(x, ctx.c_weights) - 1e-9


def test_price_above_threshold_buys_nothing():
    rng = np.random.default_rng(21)
    for _ in range(50):
        ctx = make_ctx(rng, d=2, beta_frac=0.0)
        # push all rates above phi(z): no credit can beat the price
        f_hi = (
            ctx.params.U * 0.999 + 0.001 * float(ctx.params.U)
        ) * ctx.c_weights
        ctx2 = StepContext(
            f_t=f_hi,
            x_prev=np.zeros(ctx.d),
            z=ctx.z,
            cap=ctx.cap,
            c_weights=ctx.c_weights,
            w_weights=ctx.w_weights,
            params=ctx.params,
        )
        x = minimize_pseudo_cost(ctx2)
        assert constraint_value(x, ctx.c_weights) < 1e-9


def test_zero_cap_returns_zeros():
    rng = np.random.default_rng(22)
    ctx = make_ctx(rng, d=2)
    full = StepContext(
        f_t=ctx.f_t,
        x_prev=ctx.x_prev,
        z=1.0,
        cap=0.0,
        c_weights=ctx.c_weights,
        w_weights=ctx.w_weights,
        params=ctx.params,
    )
    assert np.all(minimize_pseudo_cost(full) == 0.0)


def test_fill_to_utilization_exact_and_cheapest():
    rng = np.random.default_rng(25)
    for _ in range(100):
        ctx = make_ctx(rng, d=int(rng.integers(1, 4)))
        y = float(rng.uniform(0.0, min(1.0, ctx.cap, float(np.sum(ctx.c_weights)))))
        x = fill_to_utilization(ctx, y)
        assert constraint_value(x, ctx.c_weights) == pytest.approx(y, abs=1e-9)
        assert np.all(x >= -1e-12) and np.all(x <= 1.0 + 1e-12)
        # cheapest among random feasible fills of the same utilization
        cost = float(ctx.f_t @ x) + weighted_l1(x - ctx.x_prev, ctx.w_weights)
        for _ in range(20):
            u = rng.uniform(0, 1, ctx.d)
            s = constraint_value(u, ctx.c_weights)
            if s < 1e-12:
                continue
            v = np.clip(u * (y / s), 0.0, 1.0)
            if abs(constraint_value(v, ctx.c_weights) - y) > 1e-9:
                continue
            alt = float(ctx.f_t @ v) + weighted_l1(v - ctx.x_prev, ctx.w_weights)
            assert cost <= alt + 1e-9


def test_fill_to_utilization_validation():
    rng = np.random.default_rng(26)
    ctx = make_ctx(rng, d=2)
    with pytest.raises(DomainError):
        fill_to_utilization(ctx, -0.5)


def make_cc(rng, ctx, epsilon=2.0, active=True):
    a = rng.uniform(0, 1, ctx.d) if active else np.zeros(ctx.d)
    s = constraint_value(a, ctx.c_weights)
    if s > 1.0:
        a = a / s
    return ConsistencyContext(
        a_t=a,
        adv_cost=float(rng.uniform(0, 3) * ctx.params.L),
        clip_cost_so_far=float(rng.uniform(0, 1) * ctx.params.L),
        advice_utilization=float(rng.uniform(0, 1)),
        z_prev=ctx.z,
        epsilon=epsilon,
    )


def test_consistency_slack_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(200):
        ctx = make_ctx(rng, d=2, epsilon=2.0)
        cc = make_cc(rng, ctx)
        x = rng.uniform(0, 1, ctx.d)
        if constraint_value(x, ctx.c_weights) > min(1.0, ctx.cap):
            x = x * min(1.0, ctx.cap) / constraint_value(x, ctx.c_weights)
        assert consistency_slack(x, ctx, cc) == pytest.approx(
            ref_slack(x, ctx, cc), abs=1e-9 * ctx.params.U
        )


def test_constrained_equals_free_when_slack():
    # a generous budget leaves the constraint inactive
    rng = np.random.default_rng(37)
    hits = 0
    for _ in range(200):
        ctx = make_ctx(rng, d=2, epsilon=2.0)
        cc = make_cc(rng, ctx, epsilon=50.0)
        free = minimize_pseudo_cost(ctx)
        if consistency_slack(free, ctx, cc) < 1e-6:
            continue
        hits += 1
        got = minimize_pseudo_cost_constrained(ctx, cc)
        assert np.allclose(got, free, atol=1e-9)
    assert hits > 50


def test_constrained_respects_slack_and_grid():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(80):
        ctx = make_ctx(rng, d=2, epsilon=2.0)
        cc = make_cc(rng, ctx, epsilon=float(rng.uniform(0.05, 2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            x = minimize_pseudo_cost_constrained(ctx, cc)
            try:
                ref_x = grid_oracle(ctx, cc=cc, grid_n=120)
            except DomainError:
                continue
        checked += 1
        ref_val = pseudo_cost_objective(ref_x, ctx)
        assert consistency_slack(x, ctx, cc) >= -1e-6 * ctx.params.U
        assert pseudo_cost_objective(x, ctx) <= ref_val + 1e-3 * ctx.params.U
    assert checked > 30


def test_certified_empty_truncates_with_warning():
    # the advice already holds a full unit bought at L while the run holds
    # nothing: a tight budget cannot cover the forced U - L catch-up charge
    # at any utilization level
    params = make_threshold_params(1.0, 250.0, 0.0, epsilon=0.01)
    ctx = StepContext(
        f_t=np.array([250.0]),
        x_prev=np.array([0.0]),
        z=0.0,
        cap=1.0,
        c_weights=np.array([1.0]),
        w_weights=np.array([0.0]),
        params=params,
    )
    cc = ConsistencyContext(
        a_t=np.array([1.0]),
        adv_cost=1.0,
        clip_cost_so_far=0.0,
        advice_utilization=1.0,
        z_prev=0.0,
        epsilon=0.01,
    )
    with pytest.warns(RuntimeWarning):
        x = minimize_pseudo_cost_constrained(ctx, cc)
    assert np.all(x >= 0) and np.all(x <= 1)


def test_constrained_mixes_across_multiplier_jump():
    # At the budget's kink (y = 0.43) the relaxed minimizer jumps between
    # two fills of the same utilization as the multiplier crosses its
    # optimum.  Neither fill alone is optimal: the consistent side costs
    # 16.22 against 14.44 for their mix on the constraint boundary.
    params = make_threshold_params(1.19, 98.82, 21.94, epsilon=29.35)
    ctx = StepContext(
        f_t=np.array([56.39, 96.69, 30.97]),
        x_prev=np.array([0.39, 0.06, 0.42]),
        z=0.31,
        cap=0.66,
        c_weights=np.ones(3),
        w_weights=np.array([21.94, 6.67, 11.86]),
        params=params,
    )
    cc = ConsistencyContext(
        a_t=np.array([0.59, 0.25, 0.16]),
        adv_cost=104.4,
        clip_cost_so_far=3624.0,
        advice_utilization=0.77,
        z_prev=0.34,
        epsilon=29.35,
    )
    x = minimize_pseudo_cost_constrained(ctx, cc)
    ref = grid_oracle(ctx, cc=cc, grid_n=100)
    assert consistency_slack(x, ctx, cc) >= -SLACK_TOL
    assert pseudo_cost_objective(x, ctx) <= pseudo_cost_objective(ref, ctx)


def test_grid_oracle_rejects_high_dim():
    rng = np.random.default_rng(43)
    ctx = make_ctx(rng, d=4)
    with pytest.raises(DomainError):
        grid_oracle(ctx, grid_n=10)


def test_context_validation():
    params = make_threshold_params(1.0, 10.0, 0.0)
    ones = np.ones(2)
    with pytest.raises(DimensionMismatch):
        StepContext(
            f_t=np.ones(3),
            x_prev=np.zeros(2),
            z=0.0,
            cap=1.0,
            c_weights=ones,
            w_weights=np.zeros(2),
            params=params,
        )
    with pytest.raises(DomainError):
        StepContext(
            f_t=ones,
            x_prev=np.zeros(2),
            z=-0.5,
            cap=1.0,
            c_weights=ones,
            w_weights=np.zeros(2),
            params=params,
        )
    with pytest.raises(DomainError):
        ConsistencyContext(
            a_t=np.zeros(2),
            adv_cost=0.0,
            clip_cost_so_far=0.0,
            advice_utilization=0.0,
            z_prev=0.0,
            epsilon=-1.0,
        )


def max_slack_lp(ctx, cc):
    """Largest consistency slack any decision of the step can reach, by LP.

    Variables x (d), u >= |x - x_prev| (d), v >= |x - a| (d) and
    m >= max(k - c.x, 0) with k = advice_utilization - z_prev; the slack's
    x-dependent part f.x + w.u + w.v - L c.x + (U - L) m is minimized over
    the box and the step's utilization cap.  Returns the slack at the LP's
    decision, evaluated exactly.
    """
    d, c, w = ctx.d, ctx.c_weights, ctx.w_weights
    L, U = ctx.params.L, ctx.params.U
    k = cc.advice_utilization - cc.z_prev
    obj = np.concatenate([ctx.f_t - L * c, w, w, [U - L]])
    eye, zero = np.eye(d), np.zeros((d, d))
    col = np.zeros((d, 1))
    rows = [
        np.hstack([eye, -eye, zero, col]),    # x - u <= x_prev
        np.hstack([-eye, -eye, zero, col]),   # -x - u <= -x_prev
        np.hstack([eye, zero, -eye, col]),    # x - v <= a
        np.hstack([-eye, zero, -eye, col]),   # -x - v <= -a
        np.concatenate([-c, np.zeros(2 * d), [-1.0]])[None, :],  # k - c.x <= m
        np.concatenate([c, np.zeros(2 * d + 1)])[None, :],       # c.x <= cap
    ]
    cap = min(1.0, ctx.cap, 1.0 - ctx.z)
    rhs = np.concatenate([ctx.x_prev, -ctx.x_prev, cc.a_t, -cc.a_t, [-k], [cap]])
    bounds = [(0.0, 1.0)] * d + [(0.0, None)] * (2 * d + 1)
    res = linprog(obj, A_ub=np.vstack(rows), b_ub=rhs, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return consistency_slack(np.clip(res.x[:d], 0.0, 1.0), ctx, cc)


def test_constrained_warns_only_when_infeasible(monkeypatch):
    # The headline grid on the default cell: every step the constrained
    # solver gives up on must be one where no decision is consistent.
    warned = []
    solve = algorithms._constrained_with_free

    def recording(ctx, cc):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = solve(ctx, cc)
        if caught:
            warned.append((ctx, cc))
        return x

    monkeypatch.setattr(algorithms, "_constrained_with_free", recording)
    cfg = GeneratorConfig()
    for i in range(20):
        inst = generate_synthetic(seed=42, index=i, config=cfg)
        opt, worst = solve_opt(inst), solve_worst(inst)
        for xi in (0.0, 0.25, 0.5, 1.0):
            advice = make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=worst)
            for eps in (2.0, 5.0, 10.0):
                algorithms.run_clip(inst, advice, eps)
    for ctx, cc in warned:
        assert max_slack_lp(ctx, cc) < -SLACK_TOL


@st.composite
def step_contexts(draw):
    d = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    L = draw(st.floats(0.5, 5.0))
    U = L * draw(st.floats(1.5, 400.0))
    # Threshold: augmented (clip's steps) or plain (alg1's), and beta
    # anywhere below its bound, or a hair under (U - L) / 2 with the
    # augmented threshold.
    kind = draw(st.sampled_from(["augmented", "plain", "edge"]))
    beta = (U - L) / 2.0 * (1.0 - 1e-9 if kind == "edge" else draw(st.floats(0.0, 0.99)))
    c = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
    share = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    share[draw(st.integers(0, d - 1))] = 1.0
    w = beta * share * c
    f = np.array(draw(st.lists(st.floats(L, U), min_size=d, max_size=d))) * c
    z_true = draw(st.one_of(st.floats(0.0, 0.999), st.just(1.0 - 1e-7)))
    p = z_true * draw(unit)
    x_prev = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    a = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    x_prev /= max(1.0, constraint_value(x_prev, c))
    a /= max(1.0, constraint_value(a, c))
    alpha = compute_alpha(L, U, float(np.max(w / c)))
    eps = max(alpha - 1.0, 1e-9) * draw(st.floats(0.01, 1.0))
    params = make_threshold_params(L, U, float(np.max(w / c)),
                                   epsilon=min(eps, alpha - 1.0) if kind != "plain" else None)
    ctx = StepContext(f_t=f, x_prev=x_prev, z=p, cap=1.0 - z_true,
                      c_weights=c, w_weights=w, params=params)
    cc = ConsistencyContext(
        a_t=a,
        adv_cost=draw(st.floats(0.0, 3.0)) * U,
        clip_cost_so_far=0.0,
        advice_utilization=min(1.0, z_true + draw(st.floats(0.0, 0.5))),
        z_prev=z_true,
        epsilon=eps,
    )
    # Spend the run's budget so far so that idling this step leaves a drawn
    # slack of up to U/2 either way: the constraint binds in many cases.
    spare = U * draw(st.floats(-0.5, 0.5))
    spent = consistency_slack(np.zeros(d), ctx, cc) - spare
    cc = dataclasses.replace(cc, clip_cost_so_far=max(0.0, spent))
    return ctx, cc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(step_contexts())
def test_step_solvers_properties(case):
    ctx, cc = case
    x_free = minimize_pseudo_cost(ctx)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x_con = minimize_pseudo_cost_constrained(ctx, cc)
    cap = min(1.0, ctx.cap)
    for x in (x_free, x_con):
        assert np.all(x >= 0.0) and np.all(x <= 1.0)
        assert constraint_value(x, ctx.c_weights) <= cap + FEAS_TOL
    if not caught:
        assert consistency_slack(x_con, ctx, cc) >= -SLACK_TOL
    free_obj = pseudo_cost_objective(x_free, ctx)
    con_obj = pseudo_cost_objective(x_con, ctx)
    assert con_obj >= free_obj - 1e-12 * ctx.params.U
    if consistency_slack(x_free, ctx, cc) >= 0.0:
        assert con_obj == free_obj
    # run_clip's helper returns the same two points from one free solve.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        both = _constrained_with_free(ctx, cc)
    assert np.array_equal(both[0], x_con) and np.array_equal(both[1], x_free)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(step_contexts())
def test_objective_uses_the_solvers_threshold_integral(case):
    # The objective prices utilization with the integral the step solvers
    # use, keyed by params.rate (gamma_eps with epsilon, alpha without).  The
    # public array integrals (np.exp rather than math.exp) agree with it to
    # rounding: a last-bit difference of either exponential is scaled by
    # rate (U/rate - U + 2 beta), which exceeds U where the rate is large.
    ctx, _ = case
    p = ctx.params
    public = phi_integral if p.gamma_eps is None else phi_eps_integral
    scale = max(p.U, p.rate * abs(phi_rate_coeff(p.U, p.beta, p.rate)))
    for x in (minimize_pseudo_cost(ctx), fill_to_utilization(ctx, ctx.cap)):
        z1 = min(1.0, ctx.z + constraint_value(x, ctx.c_weights))
        credit = phi_rate_integral(ctx.z, z1, p.U, p.beta, p.rate)
        hit = float(ctx.f_t @ x)
        switch = weighted_l1(x - ctx.x_prev, ctx.w_weights)
        assert pseudo_cost_objective(x, ctx) == hit + switch - credit
        assert abs(float(public(ctx.z, z1, p)) - credit) <= 1e-14 * scale


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(step_contexts(), st.floats(0.0, 1.0))
def test_fill_reaches_its_target(case, share):
    # The greedy fill alone adds the utilization asked for, to rounding.
    ctx, _ = case
    y = share * min(1.0, ctx.cap, float(np.sum(ctx.c_weights)))
    x = fill_to_utilization(ctx, y)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)
    assert abs(constraint_value(x, ctx.c_weights) - y) <= 1e-12


@pytest.fixture(scope="module")
def headline_steps():
    """Every constrained step ``run_clip`` meets on the headline grid: the
    default cell, 20 instances, xi in {0, .25, .5, 1} x eps in {2, 5, 10}."""
    steps = []
    solve = algorithms._constrained_with_free

    def recording(ctx, cc):
        steps.append((ctx, cc))
        return solve(ctx, cc)

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mp.setattr(algorithms, "_constrained_with_free", recording)
        cfg = GeneratorConfig()
        for i in range(20):
            inst = generate_synthetic(seed=42, index=i, config=cfg)
            opt, worst = solve_opt(inst), solve_worst(inst)
            for xi in (0.0, 0.25, 0.5, 1.0):
                advice = make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=worst)
                for eps in (2.0, 5.0, 10.0):
                    algorithms.run_clip(inst, advice, eps)
    return steps


def _target(ctx, cc):
    """The slack the constrained search aims for: 0, or the least violation
    any decision reaches when that is within SLACK_TOL."""
    step = subproblem._Relaxation(ctx, cc)
    return min(0.0, consistency_slack(subproblem._minimize(step, 1.0), ctx, cc))


def _both_searches(ctx, cc):
    """(decision, warned) of the dual search and of the bisection oracle,
    plus the oracle's final multiplier."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x_new = minimize_pseudo_cost_constrained(ctx, cc)
    warned_new = bool(caught)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        x_old, s_old = bisect_constrained(ctx, cc)
    return x_new, warned_new, x_old, bool(caught), s_old


def test_constrained_matches_bisection_on_headline_grid(headline_steps):
    assert len(headline_steps) > 1000
    for ctx, cc in headline_steps:
        x_new, warned_new, x_old, warned_old, _ = _both_searches(ctx, cc)
        assert warned_new == warned_old
        if warned_new:
            continue
        assert consistency_slack(x_new, ctx, cc) >= _target(ctx, cc)
        new, old = pseudo_cost_objective(x_new, ctx), pseudo_cost_objective(x_old, ctx)
        assert abs(new - old) <= 1e-12 * max(abs(old), ctx.params.L), (new, old)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(step_contexts())
def test_constrained_no_worse_than_bisection(case):
    # On these edge contexts the bisection is itself off where the problem
    # is degenerate: near s = 1 its relaxed minimizers differ by less than
    # the enumerator's tie margin, and its secant mix can fall back to the
    # far end of its bracket.  Its answer is defined only up to its
    # multiplier nu times the rounding of the slack, so the search must not
    # be worse than it by more than that; it may be better.
    ctx, cc = case
    x_new, warned_new, x_old, warned_old, s_old = _both_searches(ctx, cc)
    assert warned_new == warned_old
    if warned_new:
        return
    assert consistency_slack(x_new, ctx, cc) >= _target(ctx, cc)
    new, old = pseudo_cost_objective(x_new, ctx), pseudo_cost_objective(x_old, ctx)
    nu = s_old / (1.0 - s_old) if s_old < 1.0 else math.inf
    budget = subproblem._Relaxation(ctx, cc).budget
    tol = 1e-12 * max(abs(old), ctx.params.L) + 16.0 * nu * math.ulp(budget)
    assert new <= old + tol, (new, old, tol)


def _count_solves(monkeypatch, solve, steps):
    """Relaxed solves ``solve`` spends on the steps whose free minimizer is
    inconsistent."""
    calls = []
    minimize = subproblem._minimize

    def counting(*args):
        calls.append(1)
        return minimize(*args)

    monkeypatch.setattr(subproblem, "_minimize", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for ctx, cc in steps:
            solve(ctx, cc)
    monkeypatch.undo()
    return len(calls)


def test_constrained_search_solve_count(monkeypatch, headline_steps):
    # The dual search needs a few relaxed solves where the bisection needs
    # 55-62 on every step it runs; this fails if the bisection comes back.
    inconsistent = [
        (ctx, cc) for ctx, cc in headline_steps
        if consistency_slack(minimize_pseudo_cost(ctx), ctx, cc) < 0.0
    ]
    assert len(inconsistent) > 100
    new = _count_solves(monkeypatch, minimize_pseudo_cost_constrained, inconsistent)
    old = _count_solves(monkeypatch, bisect_constrained, inconsistent)
    assert new <= old / 4, (new, old)


def test_constrained_search_cap_returns_consistent_mix(monkeypatch, headline_steps):
    # With a single solve allowed the bracket is still wide; its boundary
    # mix is consistent all the same, and nothing raises.
    monkeypatch.setattr(subproblem, "MAX_SEARCH_SOLVES", 1)
    for ctx, cc in headline_steps:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            x = minimize_pseudo_cost_constrained(ctx, cc)
        if not caught:
            assert consistency_slack(x, ctx, cc) >= _target(ctx, cc)
        assert constraint_value(x, ctx.c_weights) <= min(1.0, ctx.cap) + FEAS_TOL
