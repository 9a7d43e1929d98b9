"""Online players: worked examples, invariants, and cross-consistency."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import valid_instances

from oracles import checked_decisions

from cflbench.algorithms import (
    _PLAYERS,
    BaselineConfig,
    _controller_decision,
    make_player,
    run_agnostic,
    run_alg1,
    run_baseline,
    run_clip,
    run_move_to_minimizer,
    run_simple_threshold,
)
from cflbench.core import (
    FEAS_TOL,
    DimensionMismatch,
    DomainError,
    InfeasibleError,
    Instance,
    constraint_value,
    trajectory_violations,
)
from cflbench.instances import GeneratorConfig, generate_synthetic, make_inactive_advice
from cflbench.offline import AdviceConfig, make_advice, solve_opt, solve_worst
from cflbench.thresholds import compute_alpha, compute_gamma


def make_instance(d=2, T=3, L=1.0, U=10.0, c=None, w=None, costs=None):
    c = np.ones(d) if c is None else np.asarray(c, float)
    w = np.zeros(d) if w is None else np.asarray(w, float)
    if costs is None:
        costs = np.full((T, d), 5.0) * c
    return Instance(
        d=d, T=T, L=L, U=U,
        c_weights=c, w_weights=w,
        costs=np.asarray(costs, float),
    )


def test_controller_single_step_tops_off():
    inst = make_instance(d=1, T=1, costs=[[5.0]])
    x = _controller_decision(0.4, 1, inst.T, inst.c_weights)
    assert x == pytest.approx(np.array([0.6]))


def test_controller_two_steps_greedy_largest_c():
    inst = make_instance(d=2, T=2, c=[0.5, 0.25], costs=[[5, 5], [5, 5]])
    z = 0.0
    x1 = _controller_decision(z, 1, inst.T, inst.c_weights)
    assert x1 == pytest.approx(np.array([1.0, 0.0]))
    z += constraint_value(x1, inst.c_weights)
    x2 = _controller_decision(z, 2, inst.T, inst.c_weights)
    assert x2 == pytest.approx(np.array([1.0, 0.0]))
    z += constraint_value(x2, inst.c_weights)
    assert z == pytest.approx(1.0)


def test_controller_covers_exactly_the_gap():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        T = int(rng.integers(1, 6))
        c = rng.uniform(0.3, 1.0, d)
        inst = make_instance(d=d, T=T, c=c, costs=rng.uniform(1, 10, (T, d)) * c)
        z0 = float(rng.uniform(0.0, 1.0))
        z = z0
        start = None
        for t in range(1, T + 1):
            x = _controller_decision(z, t, inst.T, inst.c_weights)
            got = constraint_value(x, inst.c_weights)
            if got > 0 and start is None:
                start = t
            z += got
        if (T) * float(np.max(c)) >= 1.0 - z0:
            assert z == pytest.approx(max(z0, 1.0), abs=1e-9)


def test_alg1_flat_expensive_waits_for_window():
    # constant price 10 = U: never worth buying early, fills in the window
    inst = make_instance(d=1, T=6, U=10.0, costs=np.full((6, 1), 10.0))
    traj = run_alg1(inst)
    assert traj.total_cost == pytest.approx(10.0)
    assert traj.decisions[:, 0].tolist() == pytest.approx([0, 0, 0, 0, 0, 1.0])


def test_alg1_cheap_first_step_buys_everything():
    inst = make_instance(d=1, T=6, costs=[[1.0]] + [[10.0]] * 5)
    traj = run_alg1(inst)
    assert traj.decisions[0, 0] == pytest.approx(1.0)
    assert traj.total_cost == pytest.approx(1.0)
    assert traj.final_utilization == pytest.approx(1.0)


def test_alg1_competitive_on_random_instances():
    cfg = GeneratorConfig()
    alpha = compute_alpha(cfg.L, cfg.U, cfg.beta_nominal)
    for i in range(40):
        inst = generate_synthetic(seed=7, index=i, config=cfg)
        traj = run_alg1(inst)
        opt = solve_opt(inst)
        assert traj.total_cost <= alpha * opt.objective + 1e-6 * cfg.U
        assert not trajectory_violations(inst, traj.decisions)
        assert traj.final_utilization >= 1.0 - 1e-9


def test_all_players_feasible():
    rng = np.random.default_rng(11)
    cfg = GeneratorConfig()
    runs = (run_alg1, run_agnostic, run_move_to_minimizer, run_simple_threshold)
    for i in range(25):
        inst = generate_synthetic(seed=int(rng.integers(1 << 30)), index=0, config=cfg)
        for run in runs:
            traj = run(inst)
            assert not trajectory_violations(inst, traj.decisions)
            assert traj.final_utilization >= 1.0 - 1e-9


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_instances(), st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.5, 2.0, 10.0]))
def test_every_player_feasible_on_random_instances(inst, xi, eps):
    advice = make_advice(inst, AdviceConfig(xi=xi))
    online = (run_alg1, run_agnostic, run_move_to_minimizer, run_simple_threshold,
              lambda i: run_clip(i, advice, eps))
    for run in online + (lambda i: run_baseline(i, advice, eps),):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = run(inst)
        assert not trajectory_violations(inst, traj.decisions)
        if run not in online:
            continue
        # An online player idles once its utilization covers the demand.
        z = 0.0
        for x in traj.decisions:
            if z >= 1.0 - FEAS_TOL:
                assert not np.any(x)
            z += constraint_value(x, inst.c_weights)


def test_move_to_minimizer_spills_past_a_full_box():
    # The cheapest dimension holds only 0.4 of the one step's demand.
    inst = make_instance(d=2, T=1, c=[0.4, 1.0], costs=[[0.8, 5.0]])
    traj = run_move_to_minimizer(inst)
    assert traj.decisions[0].tolist() == pytest.approx([1.0, 0.6])
    assert not trajectory_violations(inst, traj.decisions)


def test_clip_compulsory_step_keeps_the_cap():
    # Following the advice in the compulsory window would buy 0.75 when
    # only 0.6 is left to buy.
    inst = make_instance(d=2, T=2, c=[0.6, 0.5], w=[0.5, 0.25],
                         costs=[[3.0, 1.0], [2.0, 4.0]])
    advice = np.array([[0.0, 0.5], [0.75, 0.6]])
    traj = run_clip(inst, advice, epsilon=2.0)
    assert not trajectory_violations(inst, traj.decisions)
    assert traj.final_utilization == pytest.approx(1.0, abs=1e-12)


def test_agnostic_picks_cheapest_rate():
    inst = make_instance(d=2, T=6, costs=[[5, 3]] + [[10, 10]] * 5)
    traj = run_agnostic(inst)
    assert traj.decisions[0].tolist() == pytest.approx([0.0, 1.0])
    assert traj.total_cost == pytest.approx(3.0)


def test_agnostic_tie_breaks_low_index():
    inst = make_instance(d=2, T=6, costs=[[3, 3]] + [[10, 10]] * 5)
    traj = run_agnostic(inst)
    assert traj.decisions[0].tolist() == pytest.approx([1.0, 0.0])


def test_agnostic_total_includes_round_trip_movement():
    w = np.array([2.0, 0.5])
    inst = make_instance(
        d=2, T=6, U=20.0, w=w, costs=[[5, 3]] + [[20, 20]] * 5
    )
    traj = run_agnostic(inst)
    k = int(np.argmax(traj.decisions[0]))
    assert traj.total_cost == pytest.approx(inst.costs[0, k] + 2 * w[k])


def test_move_to_minimizer_spreads_evenly():
    inst = make_instance(d=2, T=4, costs=np.tile([4.0, 7.0], (4, 1)))
    traj = run_move_to_minimizer(inst)
    # constant costs: same minimizing coordinate every step, 1/T each
    assert np.all(traj.decisions[:, 1] == 0.0)
    assert traj.decisions[:, 0] == pytest.approx(np.full(4, 0.25))
    assert traj.final_utilization == pytest.approx(1.0)


def test_simple_threshold_fires_below_root_ul():
    # psi = sqrt(1 * 100) = 10; first price under 10 appears at t = 3
    costs = [[50, 50], [50, 50], [12, 9], [50, 50], [50, 50], [50, 50]]
    inst = make_instance(d=2, T=6, L=1.0, U=100.0, costs=costs)
    traj = run_simple_threshold(inst)
    assert traj.decisions[2].tolist() == pytest.approx([0.0, 1.0])
    assert traj.final_utilization == pytest.approx(1.0)


def test_simple_threshold_idles_on_flat_50():
    inst = make_instance(d=1, T=6, L=1.0, U=100.0, costs=np.full((6, 1), 50.0))
    traj = run_simple_threshold(inst)
    assert np.all(traj.decisions[:4] == 0.0)
    assert traj.final_utilization == pytest.approx(1.0)


def _advice_for(inst, xi):
    return make_advice(inst, AdviceConfig(xi=xi))


def test_clip_with_inactive_advice_matches_alg1():
    cfg = GeneratorConfig()
    alpha = compute_alpha(cfg.L, cfg.U, cfg.beta_nominal)
    for i in range(20):
        inst = generate_synthetic(seed=99, index=i, config=cfg)
        advice = make_inactive_advice(inst)
        clip = run_clip(inst, advice, epsilon=alpha - 1.0)
        alg1 = run_alg1(inst)
        assert np.allclose(clip.decisions, alg1.decisions, atol=1e-9)


def test_clip_consistency_bound():
    cfg = GeneratorConfig()
    for i in range(30):
        inst = generate_synthetic(seed=51, index=i, config=cfg)
        for xi in (0.0, 0.5):
            advice = _advice_for(inst, xi)
            from cflbench.core import make_trajectory

            adv_cost = make_trajectory(inst, advice).total_cost
            for eps in (0.5, 2.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    traj = run_clip(inst, advice, epsilon=eps)
                assert traj.total_cost <= (1 + eps) * adv_cost + 1e-6 * inst.U
                assert not trajectory_violations(inst, traj.decisions)
                assert traj.final_utilization >= 1.0 - 1e-9


@pytest.mark.parametrize("seed, index, xi", [
    # clip_gamma: one step before prices of 1, a window that opened a step
    # early followed the anti-advice at price 250 (cost 323.91 > 292.0).
    (1300225, 1, 1.0),
    # clip_consistency: the early window, then a top-up into the dimension
    # of largest c instead of the cheapest (198.95 > 184.14) ...
    (900012, 1, 0.0),
    # ... and with the window in place, a top-up at price 250 next to
    # 225.4 (218.70 > 213.53).
    (1900132, 1, 0.0),
])
def test_clip_bounds_in_the_compulsory_window(seed, index, xi):
    inst = generate_synthetic(seed, index, GeneratorConfig())
    opt = solve_opt(inst)
    advice = make_advice(inst, AdviceConfig(xi=xi), opt=opt,
                         worst=solve_worst(inst) if xi > 0.0 else None)
    eps = 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cost = run_clip(inst, advice, epsilon=eps).total_cost
    alpha = compute_alpha(inst.L, inst.U, inst.beta)
    gamma = compute_gamma(inst.L, inst.U, inst.beta, min(eps, alpha - 1.0))
    assert cost <= gamma * opt.objective + 1e-6 * inst.U
    if xi == 0.0:
        assert cost <= (1.0 + eps) * opt.objective + 1e-6 * inst.U


def test_alg1_alpha_in_the_compulsory_window():
    # A window one step early made alg1 buy everything at a high price one
    # step before the cheapest one: ratio 95.72 against alpha 11.51.
    inst = generate_synthetic(116571189400000, 10, GeneratorConfig(d=2, beta_nominal=0.0))
    ratio = run_alg1(inst).total_cost / solve_opt(inst).objective
    assert ratio <= compute_alpha(inst.L, inst.U, inst.beta) + 1e-6


def test_clip_rejects_bad_epsilon():
    inst = make_instance(d=1, T=6)
    advice = make_inactive_advice(inst)
    with pytest.raises(DomainError):
        run_clip(inst, advice, epsilon=0.0)
    with pytest.raises(DomainError):
        run_clip(inst, advice, epsilon=-1.0)


def test_advice_validation():
    inst = make_instance(d=2, T=3)
    with pytest.raises(InfeasibleError):
        run_clip(inst, np.zeros((3, 2)), epsilon=1.0)
    bad = np.zeros((3, 2))
    bad[0, 0] = 1.5
    with pytest.raises(DomainError):
        run_clip(inst, bad, epsilon=1.0)
    with pytest.raises(Exception):
        run_clip(inst, np.zeros((2, 2)), epsilon=1.0)


def test_baseline_config_mixing_weight():
    alpha = 11.0
    cfg = BaselineConfig.from_epsilon(alpha, alpha - 1.0)
    assert cfg.lam == pytest.approx(0.0)
    cfg = BaselineConfig.from_epsilon(alpha, 1e-9)
    assert cfg.lam == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(DomainError):
        BaselineConfig.from_epsilon(alpha, 0.0)


def test_baseline_loose_epsilon_is_pure_alg1():
    cfg = GeneratorConfig()
    alpha = compute_alpha(cfg.L, cfg.U, cfg.beta_nominal)
    inst = generate_synthetic(seed=3, index=0, config=cfg)
    advice = _advice_for(inst, 0.0)
    base = run_baseline(inst, advice, epsilon=alpha - 1.0)
    alg1 = run_alg1(inst)
    assert np.allclose(base.decisions, alg1.decisions, atol=1e-12)


def test_baseline_tight_epsilon_tracks_advice():
    cfg = GeneratorConfig()
    inst = generate_synthetic(seed=3, index=1, config=cfg)
    advice = _advice_for(inst, 0.0)
    base = run_baseline(inst, advice, epsilon=1e-9)
    assert np.allclose(base.decisions, advice, atol=1e-6)


def test_baseline_is_convex_combination():
    cfg = GeneratorConfig()
    for i in range(10):
        inst = generate_synthetic(seed=29, index=i, config=cfg)
        # mixing weight uses the realized movement bound, not the nominal one
        alpha = compute_alpha(inst.L, inst.U, inst.beta)
        advice = _advice_for(inst, 0.25)
        eps = 2.0
        lam = (alpha - 1.0 - eps) / (alpha - 1.0)
        base = run_baseline(inst, advice, epsilon=eps)
        alg1 = run_alg1(inst)
        want = lam * advice + (1 - lam) * alg1.decisions
        assert np.allclose(base.decisions, want, atol=1e-12)
        assert not trajectory_violations(inst, base.decisions)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(valid_instances(), valid_instances(min_d=10, max_d=10)),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.5, 2.0, 10.0]))
def test_players_match_the_checked_step_loop(inst, xi, eps):
    # Checking the inputs once per run, and not on every step, moves no
    # decision by a bit: every player against the same player with every
    # check repeated on every step.  The draws cover non-unit c, d = 1,
    # T = 1, L == U, beta just below (U - L)/2, and d = 10, where numpy
    # sums pairwise.
    advice = make_advice(inst, AdviceConfig(xi=xi))
    runs = {"alg1": run_alg1, "agnostic": run_agnostic,
            "move_to_minimizer": run_move_to_minimizer,
            "simple_threshold": run_simple_threshold}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pairs = [(run(inst).decisions, checked_decisions(name, inst))
                 for name, run in runs.items()]
        pairs.append((run_clip(inst, advice, eps).decisions,
                      checked_decisions("clip", inst, advice, eps)))
    pairs.append((make_inactive_advice(inst), checked_decisions("inactive_advice", inst)))
    for lean, checked in pairs:
        assert lean.shape == checked.shape
        assert lean.tobytes() == checked.tobytes()


@pytest.mark.parametrize("name", sorted(_PLAYERS))
def test_players_check_their_inputs_where_they_enter(name):
    # Bad weights are rejected when the player is built, before any step.
    with pytest.raises(DomainError):
        make_player(name, 2, 3, 1.0, 10.0, np.array([1.0, 0.0]), np.zeros(2))
    with pytest.raises(DomainError):
        make_player(name, 2, 3, 1.0, 10.0, np.array([1.0, -0.5]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        make_player(name, 2, 3, 1.0, 10.0, np.ones(2), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        make_player(name, 2, 3, 1.0, 10.0, np.ones(3), np.zeros(2))
    # A price vector of the wrong length, and a step past T, at decide().
    player = make_player(name, 2, 1, 1.0, 10.0, np.ones(2), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        player.decide(np.ones(3))
    player.decide(np.full(2, 5.0))
    with pytest.raises(DomainError):
        player.decide(np.full(2, 5.0))
