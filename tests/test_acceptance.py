"""Acceptance gate: one test per published guarantee, full scale.

Each criterion prints a PASS/FAIL line with its measured margin so a log
scrape shows the whole gate at a glance.  Expensive shared state (the
headline instance batch and its hindsight solutions) is computed once at
module scope.
"""

import math
import time
import warnings

import numpy as np
import pytest
from oracles import grid_dp_best, grid_oracle

from cflbench.algorithms import (
    run_agnostic,
    run_alg1,
    run_baseline,
    run_clip,
    run_move_to_minimizer,
    run_simple_threshold,
)
from cflbench.core import Instance, make_trajectory, trajectory_cost
from cflbench.harness import cmd_adversary
from cflbench.instances import (
    GeneratorConfig,
    MalInstance,
    drop_off_state,
    generate_synthetic,
    make_inactive_advice,
    mal_to_cfl,
    star_distance,
)
from cflbench.offline import AdviceConfig, make_advice, solve_opt, solve_worst
from cflbench.subproblem import (
    ConsistencyContext,
    StepContext,
    consistency_slack,
    minimize_pseudo_cost,
    minimize_pseudo_cost_constrained,
    pseudo_cost_objective,
)
from cflbench.thresholds import (
    compute_alpha,
    compute_alpha_bisection,
    compute_gamma,
    make_threshold_params,
    phi,
    phi_eps,
    phi_eps_integral,
    phi_integral,
    z_pcm,
)

# every trajectory produced while the gate runs lands here; criterion 11
# asserts the covering constraint over all of them
_RUNS: list[tuple[str, float]] = []


def _track(label: str, traj) -> float:
    _RUNS.append((label, traj.final_utilization))
    return traj.total_cost


def _report(k: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {k:02d}: {status} ({detail})")
    assert ok, f"criterion {k}: {detail}"


def _random_triples(rng, n):
    out = []
    for _ in range(n):
        L = float(rng.uniform(0.3, 5.0))
        U = L * float(rng.uniform(1.2, 400.0))
        beta = float(rng.uniform(0.0, 0.499)) * (U - L)
        out.append((L, U, beta))
    return out


@pytest.fixture(scope="module")
def headline():
    cfg = GeneratorConfig()
    instances = [generate_synthetic(seed=42, index=i, config=cfg) for i in range(1000)]
    opts = [solve_opt(inst) for inst in instances]
    return cfg, instances, opts


@pytest.fixture(scope="module")
def worst200(headline):
    _, instances, _ = headline
    return [solve_worst(inst) for inst in instances[:200]]


def test_criterion_01_threshold_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    z = np.linspace(0.0, 1.0, 1000)
    worst_plain = worst_aug = 0.0
    for L, U, beta in _random_triples(rng, 200):
        p = make_threshold_params(L, U, beta)
        lhs = phi_integral(0.0, z, p) + beta * z + (1.0 - z) * U
        rhs = p.alpha * (phi(z, p) - beta)
        worst_plain = max(worst_plain, float(np.max(np.abs(lhs - rhs))) / U)
        eps = float(rng.uniform(0.01, 0.99)) * (p.alpha - 1.0)
        if eps <= 0.0:
            continue
        pe = make_threshold_params(L, U, beta, epsilon=eps)
        lhs = phi_eps_integral(0.0, z, pe) + beta * z + (1.0 - z) * U
        rhs = pe.gamma_eps * (phi_eps(z, pe) - beta)
        worst_aug = max(worst_aug, float(np.max(np.abs(lhs - rhs))) / U)
    dt = time.perf_counter() - t0
    ok = worst_plain <= 1e-8 and worst_aug <= 1e-8 and dt < 5.0
    _report(1, ok, f"max residual/U: plain {worst_plain:.3e}, "
                   f"augmented {worst_aug:.3e}, {dt:.2f}s")


def _alpha_bisect_oracle(L, U, b):
    lo = U / (U - 2 * b) + 1e-12 if b > 0 else 1.0 + 1e-12
    hi = U / L

    def g(a):
        return (U - L - 2 * b) / (U - U / a - 2 * b) - math.exp(1.0 / a)

    glo = g(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if glo * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
            glo = g(mid)
    return 0.5 * (lo + hi)


def test_criterion_02_alpha_dual_route():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for L, U, beta in _random_triples(rng, 200):
        a = compute_alpha(L, U, beta)
        ref = _alpha_bisect_oracle(L, U, beta)
        worst = max(worst, abs(a - ref) / ref)
        worst = max(worst, abs(compute_alpha_bisection(L, U, beta) - a) / a)
    end1 = abs(compute_alpha(3.0, 3.0, 0.0) - 1.0)
    L, U = 1.0, 250.0
    end2 = abs(compute_alpha(L, U, (U - L) / 2 * (1 - 1e-9)) - U / L) / (U / L)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and end1 <= 1e-12 and end2 <= 1e-4 and dt < 2.0
    _report(2, ok, f"max rel err {worst:.3e}, endpoints {end1:.1e}/{end2:.1e}, {dt:.2f}s")


def test_criterion_03_gamma_endpoints_and_zpcm():
    rng = np.random.default_rng(103)
    worst_end = worst_id = 0.0
    for L, U, beta in _random_triples(rng, 50):
        a = compute_alpha(L, U, beta)
        if a <= 1.0 + 1e-9:
            continue
        worst_end = max(worst_end, abs(compute_gamma(L, U, beta, a - 1.0) - a) / a)
        worst_end = max(
            worst_end, abs(compute_gamma(L, U, beta, 1e-13) - U / L) / (U / L)
        )
        eps = float(rng.uniform(0.02, 0.98)) * (a - 1.0)
        p = make_threshold_params(L, U, beta, epsilon=eps)
        zp = z_pcm(p)
        lhs = float(phi_eps_integral(0.0, zp, p)) + beta * zp + (1.0 - zp) * L
        worst_id = max(worst_id, abs(lhs - (1.0 + eps) * L) / U)
    ok = worst_end <= 1e-6 and worst_id <= 1e-8
    _report(3, ok, f"endpoint rel err {worst_end:.3e}, pcm identity/U {worst_id:.3e}")


def test_criterion_04_subproblem_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_free = worst_con = -np.inf
    n_free = n_con = 0
    for _ in range(500):
        d = int(rng.integers(1, 4))
        L = float(rng.uniform(0.5, 3.0))
        U = L * float(rng.uniform(2.0, 300.0))
        c = rng.uniform(0.2, 1.0, d)
        w = rng.uniform(0.0, 0.45 * (U - L) / 2.0, d) * c
        f = rng.uniform(L, U, d) * c
        zlvl = float(rng.uniform(0.0, 0.95))
        x_prev = rng.uniform(0.0, 1.0, d)
        if float(x_prev @ c) > 1.0:
            x_prev = x_prev / float(x_prev @ c)
        a = compute_alpha(L, U, float(np.max(w / c)))
        eps = float(rng.uniform(0.05, 0.95)) * max(a - 1.0, 1e-6)
        params = make_threshold_params(L, U, float(np.max(w / c)), epsilon=eps)
        ctx = StepContext(f_t=f, x_prev=x_prev, z=zlvl, cap=1.0 - zlvl,
                          c_weights=c, w_weights=w, params=params)
        x = minimize_pseudo_cost(ctx)
        ref = pseudo_cost_objective(grid_oracle(ctx, grid_n=200), ctx)
        worst_free = max(worst_free, (pseudo_cost_objective(x, ctx) - ref) / U)
        n_free += 1
        cc = ConsistencyContext(
            a_t=np.clip(rng.uniform(0, 1, d), 0, 1),
            adv_cost=float(rng.uniform(0, 3) * L),
            clip_cost_so_far=float(rng.uniform(0, 2) * L),
            advice_utilization=float(rng.uniform(0, 1)),
            z_prev=zlvl,
            epsilon=eps,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            xc = minimize_pseudo_cost_constrained(ctx, cc)
            try:
                ref_c = pseudo_cost_objective(grid_oracle(ctx, cc=cc, grid_n=200), ctx)
            except Exception:
                continue
        if consistency_slack(xc, ctx, cc) < -1e-6 * U:
            worst_con = np.inf
        worst_con = max(worst_con, (pseudo_cost_objective(xc, ctx) - ref_c) / U)
        n_con += 1
    dt = time.perf_counter() - t0
    ok = worst_free <= 1e-4 and worst_con <= 1e-4 and dt < 60.0
    _report(4, ok, f"gap/U free {worst_free:.2e} (n={n_free}), "
                   f"constrained {worst_con:.2e} (n={n_con}), {dt:.1f}s")


def test_criterion_05_competitive_guarantee(headline):
    t0 = time.perf_counter()
    cfg, instances, opts = headline
    alpha = compute_alpha(cfg.L, cfg.U, cfg.beta_nominal)
    crs = []
    for inst, opt in zip(instances, opts):
        cost = _track("alg1", run_alg1(inst))
        crs.append(cost / opt.objective)
    crs = np.array(crs)
    dt = time.perf_counter() - t0
    ok = bool(np.all(crs <= alpha + 1e-6)) and float(np.mean(crs)) < alpha and dt < 600
    _report(5, ok, f"n=1000, max CR {np.max(crs):.3f}, mean {np.mean(crs):.3f}, "
                   f"alpha {alpha:.3f}, {dt:.1f}s")


def test_criterion_06_consistency(headline, worst200):
    t0 = time.perf_counter()
    _, instances, opts = headline
    worst_gap = -np.inf
    violations = 0
    for inst, opt, wst in zip(instances[:200], opts[:200], worst200):
        for xi in (0.0, 0.25, 0.5):
            advice = make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=wst)
            adv_cost = trajectory_cost(inst, advice).total
            for eps in (2.0, 5.0, 10.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    clip_cost = _track("clip", run_clip(inst, advice, eps))
                base_cost = _track("baseline", run_baseline(inst, advice, eps))
                for cost in (clip_cost, base_cost):
                    gap = cost - (1.0 + eps) * adv_cost
                    worst_gap = max(worst_gap, gap)
                    if gap > 1e-6 * inst.U:
                        violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0
    _report(6, ok, f"3600 runs, violations {violations}, "
                   f"worst cost-(1+eps)ADV gap {worst_gap:.3e}, {dt:.1f}s")


def test_criterion_07_robustness(headline, worst200):
    t0 = time.perf_counter()
    _, instances, opts = headline
    worst_gap = -np.inf
    violations = 0
    for inst, opt, wst in zip(instances[:200], opts[:200], worst200):
        alpha = compute_alpha(inst.L, inst.U, inst.beta)
        advices = {
            "inactive": make_inactive_advice(inst),
            "anti": make_advice(inst, AdviceConfig(xi=1.0), opt=opt, worst=wst),
        }
        for advice in advices.values():
            for eps in (2.0, 5.0, 10.0):
                gamma = compute_gamma(
                    inst.L, inst.U, inst.beta, min(eps, alpha - 1.0)
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    cost = _track("clip", run_clip(inst, advice, eps))
                gap = cost - gamma * opt.objective
                worst_gap = max(worst_gap, gap)
                if gap > 1e-6 * inst.U:
                    violations += 1
    dt = time.perf_counter() - t0
    ok = violations == 0
    _report(7, ok, f"1200 runs, violations {violations}, "
                   f"worst cost-gamma*OPT gap {worst_gap:.3e}, {dt:.1f}s")


def test_criterion_08_adversary_bracket():
    t0 = time.perf_counter()
    L, U, w_steps = 1.0, 250.0, 100
    delta = (U - L) / w_steps
    levels = sorted({int(round(v)) for v in np.linspace(1, w_steps, 25)})
    grid = [U - k * delta for k in levels]
    report = cmd_adversary("alg1", grid, m=50, w_steps=w_steps,
                           params={"L": L, "U": U, "beta": 0.0, "d": 2})
    alpha = report["alpha"]
    peak = report["max_ratio"]
    dt = time.perf_counter() - t0
    ok = 0.8 * alpha <= peak <= alpha + 0.01 and dt < 120.0
    _report(8, ok, f"25 levels, max ratio {peak:.4f}, "
                   f"bracket [{0.8 * alpha:.4f}, {alpha + 0.01:.4f}], {dt:.1f}s")


def test_criterion_09_player_ordering():
    t0 = time.perf_counter()
    cells = [
        (5, 0.0), (5, 25.0), (5, 50.0),  # vary movement weight at d = 5
        (13, 50.0), (21, 50.0),          # vary dimension at beta = 50
    ]
    sums = {"alg1": 0.0, "simple_threshold": 0.0,
            "agnostic": 0.0, "move_to_minimizer": 0.0}
    n = 0
    runners = {
        "alg1": run_alg1,
        "simple_threshold": run_simple_threshold,
        "agnostic": run_agnostic,
        "move_to_minimizer": run_move_to_minimizer,
    }
    for d, beta in cells:
        cfg = GeneratorConfig(d=d, beta_nominal=beta)
        for i in range(100):
            inst = generate_synthetic(seed=7, index=i, config=cfg)
            opt = solve_opt(inst).objective
            for name, run in runners.items():
                sums[name] += _track(name, run(inst)) / opt
            n += 1
    means = {name: s / n for name, s in sums.items()}
    improvement = 1.0 - means["alg1"] / means["simple_threshold"]
    ordered = (means["alg1"] < means["simple_threshold"]
               < means["agnostic"] < means["move_to_minimizer"])
    dt = time.perf_counter() - t0
    ok = ordered and improvement >= 0.10 and dt < 1800.0
    _report(9, ok, f"mean CRs: alg1 {means['alg1']:.3f} < "
                   f"threshold {means['simple_threshold']:.3f} < "
                   f"agnostic {means['agnostic']:.3f} < "
                   f"mtm {means['move_to_minimizer']:.3f}; "
                   f"improvement {improvement:.1%}, {dt:.1f}s")


def test_criterion_10_clip_beats_baseline(headline, worst200):
    t0 = time.perf_counter()
    _, instances, opts = headline
    eps = 2.0
    improvements = []
    per_xi_ok = True
    for xi in (0.2, 0.3, 0.4, 0.5):
        clip_crs, base_crs = [], []
        for inst, opt, wst in zip(instances[:200], opts[:200], worst200):
            advice = make_advice(inst, AdviceConfig(xi=xi), opt=opt, worst=wst)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                clip_crs.append(_track("clip", run_clip(inst, advice, eps))
                                / opt.objective)
            base_crs.append(_track("baseline", run_baseline(inst, advice, eps))
                            / opt.objective)
        c, b = float(np.mean(clip_crs)), float(np.mean(base_crs))
        per_xi_ok = per_xi_ok and c < b
        improvements.append(1.0 - c / b)
    avg_improvement = float(np.mean(improvements))
    dt = time.perf_counter() - t0
    ok = per_xi_ok and avg_improvement >= 0.20
    _report(10, ok, f"clip < baseline at every xi: {per_xi_ok}, "
                    f"avg improvement {avg_improvement:.1%}, {dt:.1f}s")


def _plan_costs(inst: Instance, xs: np.ndarray) -> np.ndarray:
    """Costs of the plans ``xs`` (shape ``(n, T, d)``), summed as the
    enumerator sums them."""
    hitting = np.einsum("ntd,td->n", xs, inst.costs)
    padded = np.concatenate(
        [np.zeros((xs.shape[0], 1, inst.d)), xs,
         np.zeros((xs.shape[0], 1, inst.d))], axis=1
    )
    switching = np.abs(np.diff(padded, axis=1)) @ inst.w_weights
    return hitting + switching.sum(axis=1)


def _grid_search_min(inst: Instance, levels: np.ndarray) -> float:
    """Exhaustive plan search, vectorized in chunks over the flat index."""
    k = inst.T * inst.d
    n = len(levels)
    total = n ** k
    shape = (n,) * k
    best = np.inf
    chunk = 1 << 20
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = np.unravel_index(idx, shape)
        xs = levels[np.stack(digits, axis=1)].reshape(-1, inst.T, inst.d)
        util = xs @ inst.c_weights
        mask = np.all(util <= 1.0 + 1e-12, axis=1) & (
            util.sum(axis=1) >= 1.0 - 1e-12
        )
        if not np.any(mask):
            continue
        best = min(best, float(np.min(_plan_costs(inst, xs[mask]))))
    return best


def _grid_min(inst: Instance, levels: np.ndarray) -> float:
    """The grid minimum: the dynamic program's plan, costed as the
    enumerator costs it."""
    _, plan = grid_dp_best(inst, levels)
    return float(_plan_costs(inst, plan[None])[0])


def test_criterion_11_opt_oracle_and_feasibility():
    rng = np.random.default_rng(111)
    worst_gap = -np.inf
    levels = np.linspace(0.0, 1.0, 21)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        T = int(rng.integers(1, 4))
        w = rng.uniform(0.0, 2.0, d)
        costs = rng.uniform(1.0, 10.0, (T, d))
        inst = Instance(d=d, T=T, L=1.0, U=10.0, c_weights=np.ones(d),
                        w_weights=w, costs=costs)
        sol = solve_opt(inst)
        best = _grid_min(inst, levels)
        assert sol.objective >= inst.L - 1e-9
        worst_gap = max(worst_gap, sol.objective - best)
        _RUNS.append(("opt", sol.trajectory.final_utilization))
    min_util = min(u for _, u in _RUNS)
    ok = worst_gap <= 1e-9 and min_util >= 1.0 - 1e-9
    _report(11, ok, f"LP-grid gap {worst_gap:.2e}, min utilization over "
                    f"{len(_RUNS)} tracked runs {min_util:.12f}")


def test_grid_program_matches_the_plan_enumerator():
    # Criterion 11's grid minimum comes from a dynamic program over steps;
    # on its instances with at most four grid entries per plan (194,481
    # plans) the enumerator finds the same plan cost to the bit.
    rng = np.random.default_rng(111)
    levels = np.linspace(0.0, 1.0, 21)
    compared = 0
    for _ in range(40):
        d = int(rng.integers(1, 3))
        T = int(rng.integers(1, 4))
        w = rng.uniform(0.0, 2.0, d)
        costs = rng.uniform(1.0, 10.0, (T, d))
        if T * d > 4:
            continue
        inst = Instance(d=d, T=T, L=1.0, U=10.0, c_weights=np.ones(d),
                        w_weights=w, costs=costs)
        best = _grid_search_min(inst, levels)
        assert _grid_min(inst, levels) == best
        compared += 1
    assert compared >= 25


def test_criterion_12_star_metric_transform():
    rng = np.random.default_rng(112)
    worst_under = -np.inf
    worst_eq = worst_hit = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        w0 = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0, 1))
        w = np.concatenate([[w0], rng.uniform(0.0, 3.0, d)])
        c = np.concatenate([[0.0], np.ones(d)])
        T = 2
        costs = np.concatenate(
            [np.zeros((T, 1)), rng.uniform(1.0, 10.0, (T, d))], axis=1
        )
        mal = MalInstance(T=T, L=1.0, U=10.0, weights=w, c_weights=c, costs=costs)
        inst = mal_to_cfl(mal)
        q = rng.dirichlet(np.ones(d + 1))
        q2 = rng.dirichlet(np.ones(d + 1))
        x, x2 = drop_off_state(q), drop_off_state(q2)
        mapped = float(np.abs(x - x2) @ inst.w_weights)
        true = star_distance(q, q2, mal.weights)
        worst_under = max(worst_under, true - mapped)
        if w0 == 0.0:
            worst_eq = max(worst_eq, abs(mapped - true))
        t = int(rng.integers(T))
        worst_hit = max(
            worst_hit, abs(float(mal.costs[t] @ q) - float(inst.costs[t] @ x))
        )
    ok = worst_under <= 1e-12 and worst_eq <= 1e-12 and worst_hit <= 1e-12
    _report(12, ok, f"undercharge {worst_under:.2e}, w0=0 mismatch {worst_eq:.2e}, "
                    f"hitting drift {worst_hit:.2e}")
