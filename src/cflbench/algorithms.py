"""Online players for the constrained purchasing problem.

The threshold-based robust player, its advice-following variant, the
convex-combination baseline, and three simple heuristics.  All five online
players are incremental: each consumes one price vector at a time, and one
loop (``_drive``) runs each of them over a full instance.  The advice-free
players can also be built by name (``make_player``), which is what the
adaptive adversary drives.

All players honor the compulsory trade: once waiting any longer could
leave the demand unfinishable even at maximal purchase rates, they switch
to a greedy filling controller regardless of prices.

A player checks its inputs where they enter: the weights once, when it is
built, and each price vector as ``decide`` receives it.  Its steps then
build their contexts without repeating those checks, from invariants
computed once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FEAS_TOL,
    DimensionMismatch,
    DomainError,
    InfeasibleError,
    Instance,
    Trajectory,
    _weighted_sum,
    constraint_value,
    make_trajectory,
)
from .subproblem import (
    ConsistencyContext,
    StepContext,
    _checked_weights,
    _constrained_with_free,
    _Run,
    _unchecked,
    fill_to_utilization,
    minimize_pseudo_cost,
    minimize_pseudo_cost_constrained,  # noqa: F401  (bench/layers.py wraps this name)
)
from .thresholds import ThresholdParams, make_threshold_params

__all__ = [
    "BaselineConfig",
    "run_alg1",
    "run_clip",
    "run_baseline",
    "run_agnostic",
    "run_move_to_minimizer",
    "run_simple_threshold",
    "make_player",
]

# run_clip: alpha above 1 by more than this has room for an augmented rate;
# at or below it the prices are flat and the threshold is constant.
_FLAT_ALPHA_SLACK = 1e-12


@dataclass(frozen=True)
class BaselineConfig:
    """Mixing weight of the advice in the convex-combination baseline."""

    epsilon: float
    lam: float

    @staticmethod
    def from_epsilon(alpha: float, epsilon: float) -> "BaselineConfig":
        if epsilon <= 0.0:
            raise DomainError("epsilon must be positive")
        if alpha <= 1.0:
            return BaselineConfig(epsilon=epsilon, lam=0.0)
        lam = max(0.0, (alpha - 1.0 - epsilon) / (alpha - 1.0))
        return BaselineConfig(epsilon=epsilon, lam=lam)


def _controller_decision(z: float, t: int, T: int, c_weights: np.ndarray) -> np.ndarray:
    """Greedy filling decision for the compulsory trade.

    Fills the cheapest-to-fill dimension (largest c weight, lowest index on
    ties) whenever the remaining steps at that rate still cover the residual
    demand; otherwise fills every dimension at maximal rate.  Raises when
    even maximal filling cannot finish in the steps left.
    """
    d = c_weights.shape[0]
    r = 1.0 - z
    if r <= FEAS_TOL:
        return np.zeros(d)
    steps_left = T - t + 1
    if steps_left <= 0:
        raise InfeasibleError("no steps left to finish the demand")
    k = int(np.argmax(c_weights))
    x = np.zeros(d)
    if steps_left * c_weights[k] >= r - FEAS_TOL:
        x[k] = min(1.0, r / c_weights[k])
        return x
    # Single-dimension filling cannot finish: spread across dimensions.
    budget = min(1.0, r)
    order = np.lexsort((np.arange(d), -c_weights))
    for i in order:
        take = min(1.0, budget / c_weights[i])
        x[i] = take
        budget -= take * c_weights[i]
        if budget <= FEAS_TOL:
            break
    if t == T and constraint_value(x, c_weights) < r - FEAS_TOL:
        raise InfeasibleError("demand unfinishable even at maximal purchase rate")
    return x


class _PlayerBase:
    """Incremental online player: decide() consumes price vectors in step
    order, at most T of them.

    The base class owns the steps every player shares: once the demand is
    covered it buys nothing, otherwise the subclass's ``_step`` decides;
    then it advances the utilization ``z``, the step ``t`` and ``x_prev``.
    It checks the weights (``c > 0``, both of length ``d``) once, here.
    """

    def __init__(self, d: int, T: int, L: float, U: float,
                 c_weights: np.ndarray, w_weights: np.ndarray) -> None:
        self.d = d
        self.T = T
        self.L = L
        self.U = U
        self.c_weights, self.w_weights = _checked_weights(c_weights, w_weights, d)
        self.max_c = float(np.max(self.c_weights))
        self.t = 1
        self.z = 0.0
        self.x_prev = np.zeros(d)

    def decide(self, f_t: np.ndarray) -> np.ndarray:
        f_t = np.asarray(f_t, dtype=float)
        if f_t.shape != (self.d,):
            raise DimensionMismatch(f"price vector shape {f_t.shape} != ({self.d},)")
        if self.t > self.T:
            raise DomainError(f"step index {self.t} outside 1..{self.T}")
        x = np.zeros(self.d) if self.z >= 1.0 - FEAS_TOL else self._step(f_t)
        self.z += _weighted_sum(x, self.c_weights)
        self.t += 1
        self.x_prev = x
        return x

    def _compulsory(self) -> bool:
        """``core.compulsory_start`` at this step: ``(T - t) c_i < 1 - z``
        for every i holds exactly when it holds for the largest ``c_i``,
        since rounding ``(T - t) c_i`` is monotone in ``c_i``."""
        return (self.T - self.t) * self.max_c < 1.0 - self.z

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        """Decision at step ``t`` while the demand is still uncovered."""
        raise NotImplementedError


class _Alg1Player(_PlayerBase):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        beta = float(np.max(self.w_weights / self.c_weights))
        self.run = _Run(self.c_weights, self.w_weights, make_threshold_params(self.L, self.U, beta))

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        ctx = StepContext._in_run(self.run, f_t, self.x_prev, self.z, 1.0 - self.z)
        if self._compulsory():
            # Forced filling on the compulsory controller's schedule, but
            # picking the cheapest coordinates: the guarantee needs the
            # player to keep exploiting low prices inside the window.
            y = min(1.0 - self.z, 1.0, self.run.sum_c)
            return fill_to_utilization(ctx, y)
        return minimize_pseudo_cost(ctx)


class _AgnosticPlayer(_PlayerBase):
    """Buys the whole demand in the first step's cheapest dimension, then
    idles.  The purchase repeats while the demand stays uncovered, which
    only matters when one maxed-out decision cannot cover it; a compulsory
    guard keeps pathological instances feasible."""

    k: Optional[int] = None

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        if self.k is None:
            self.k = int(np.argmin(f_t))
        if self._compulsory():
            return _controller_decision(self.z, self.t, self.T, self.c_weights)
        x = np.zeros(self.d)
        x[self.k] = min(1.0, (1.0 - self.z) / self.c_weights[self.k])
        return x


class _MoveToMinimizerPlayer(_PlayerBase):
    """Buys 1/T of the demand per step (the rest at the last step) in that
    step's cheapest dimension, hopping dimensions as the minimizer moves.
    Where that dimension's box fills first, the next cheapest takes the
    rest of the step's share."""

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        x = np.zeros(self.d)
        share = 1.0 - self.z if self.t == self.T else 1.0 / self.T
        for k in np.argsort(f_t, kind="stable"):
            x[k] = min(1.0, share / self.c_weights[k])
            share -= x[k] * self.c_weights[k]
            if share <= FEAS_TOL:
                break
        return x


class _SimpleThresholdPlayer(_PlayerBase):
    """Buys everything the first time a price drops to sqrt(U * L), falling
    back to the compulsory trade if none ever does."""

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        if self._compulsory():
            return _controller_decision(self.z, self.t, self.T, self.c_weights)
        x = np.zeros(self.d)
        hits = np.nonzero(f_t <= math.sqrt(self.U * self.L))[0]
        if hits.size:
            k = int(hits[0])
            x[k] = min(1.0, (1.0 - self.z) / self.c_weights[k])
        return x


_PLAYERS = {
    "alg1": _Alg1Player,
    "agnostic": _AgnosticPlayer,
    "move_to_minimizer": _MoveToMinimizerPlayer,
    "simple_threshold": _SimpleThresholdPlayer,
}


def make_player(name: str, d: int, T: int, L: float, U: float,
                c_weights: np.ndarray, w_weights: np.ndarray):
    """Instantiate an advice-free incremental player by name."""
    try:
        cls = _PLAYERS[name]
    except KeyError:
        raise DomainError(
            f"unknown algorithm {name!r}; choose from {sorted(_PLAYERS)}"
        ) from None
    return cls(d, T, L, U, c_weights, w_weights)


def _check_advice(instance: Instance, advice: np.ndarray) -> np.ndarray:
    advice = np.asarray(advice, dtype=float)
    if advice.shape != (instance.T, instance.d):
        raise DimensionMismatch(
            f"advice shape {advice.shape} != {(instance.T, instance.d)}"
        )
    if np.any(advice < -FEAS_TOL) or np.any(advice > 1.0 + FEAS_TOL):
        raise DomainError("advice leaves the unit box")
    total = float(np.sum(advice @ instance.c_weights))
    if total < 1.0 - FEAS_TOL:
        raise InfeasibleError(f"advice covers only {total} of the demand")
    return np.clip(advice, 0.0, 1.0)


def _top_up(x: np.ndarray, amount: float, f_t: np.ndarray,
            c_weights: np.ndarray) -> np.ndarray:
    """Raise x by ``amount`` of utilization, cheapest price per unit of
    utilization ``f_t / c`` first, lowest index on ties."""
    x = x.copy()
    for i in np.argsort(f_t / c_weights, kind="stable"):
        if amount <= FEAS_TOL:
            break
        take = min(1.0 - x[i], amount / c_weights[i])
        x[i] += take
        amount -= take * c_weights[i]
    return x


class _ClipPlayer(_PlayerBase):
    """The advice-following player (see ``run_clip``), built with the
    checked advice, ``epsilon`` and the augmented threshold params.

    ``p`` is the pseudo-utilization that prices the threshold credit; it
    never exceeds the true utilization ``z``.  ``adv_cost`` and
    ``clip_cost`` are the advice's and this run's costs until the demand
    is covered.
    """

    def __init__(self, *args, advice: np.ndarray, epsilon: float,
                 params: ThresholdParams) -> None:
        super().__init__(*args)
        self.advice = advice
        self.epsilon = float(epsilon)
        self.run = _Run(self.c_weights, self.w_weights, params)
        self.p = 0.0
        self.adv_cost = 0.0
        self.clip_cost = 0.0
        self.advice_utilization = 0.0
        self.a_prev = np.zeros(self.d)
        self.follow_ratio: Optional[float] = None

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        c, w = self.c_weights, self.w_weights
        a_t = self.advice[self.t - 1]
        self.advice_utilization += _weighted_sum(a_t, c)
        self.adv_cost += float(f_t @ a_t) + _weighted_sum(a_t - self.a_prev, w)
        self.a_prev = a_t
        self.p = min(self.p, self.z)

        if self._compulsory():
            # Compulsory trade: track the advice's remaining plan, scaled to
            # this run's residual demand, and force only what can no longer
            # wait.  Following the advice is what keeps the window within the
            # consistency budget: the advice already paid for its own
            # schedule, so tracking it costs at most that again.
            if self.follow_ratio is None:
                adv_rest = float(np.sum(self.advice[self.t - 1:] @ c))
                need = 1.0 - self.z
                self.follow_ratio = min(1.0, need / adv_rest) if adv_rest > FEAS_TOL else 0.0
            x = np.clip(a_t * self.follow_ratio, 0.0, 1.0)
            # The advice may buy more in one step than this run has left
            # to buy: scale onto the residual cap, as the solver steps do.
            used = _weighted_sum(x, c)
            if used > 1.0 - self.z + FEAS_TOL:
                x *= (1.0 - self.z) / used
                used = 1.0 - self.z
            max_later = (self.T - self.t) * self.max_c
            shortfall = (1.0 - self.z - used) - max_later
            if shortfall > FEAS_TOL:
                x = _top_up(x, shortfall, f_t, c)
        else:
            ctx = StepContext._in_run(self.run, f_t, self.x_prev, self.p, 1.0 - self.z)
            # run_clip checked the advice and epsilon; the rest are floats.
            cc = _unchecked(ConsistencyContext, a_t=a_t, adv_cost=self.adv_cost,
                            clip_cost_so_far=self.clip_cost,
                            advice_utilization=self.advice_utilization,
                            z_prev=self.z, epsilon=self.epsilon)
            x, x_bar = _constrained_with_free(ctx, cc)
            self.p += min(_weighted_sum(x_bar, c), _weighted_sum(x, c))

        self.clip_cost += float(f_t @ x) + _weighted_sum(x - self.x_prev, w)
        return x


def _drive(cls, instance: Instance, **kwargs) -> Trajectory:
    """Run a ``cls`` player over the instance: the one loop over steps.

    The prices must have shape ``(T, d)``; that is checked here, before any
    step.  Once the demand is covered, ``decide`` would buy nothing for the
    rest of the run, so the loop stops calling it and leaves those rows
    zero.
    """
    T, d = instance.T, instance.d
    costs = instance.costs
    if costs.shape != (T, d):
        raise DimensionMismatch(f"costs shape {costs.shape} != ({T}, {d})")
    player = cls(d, T, instance.L, instance.U,
                 instance.c_weights, instance.w_weights, **kwargs)
    xs = np.zeros((T, d))
    for t in range(T):
        if player.z >= 1.0 - FEAS_TOL:
            break
        xs[t] = player.decide(costs[t])
    if player.z < 1.0 - FEAS_TOL:
        raise InfeasibleError(f"run finished with utilization {player.z} < 1")
    return make_trajectory(instance, xs)


def run_alg1(instance: Instance) -> Trajectory:
    """Run the threshold player over a full instance."""
    return _drive(_Alg1Player, instance)


def run_agnostic(instance: Instance) -> Trajectory:
    return _drive(_AgnosticPlayer, instance)


def run_move_to_minimizer(instance: Instance) -> Trajectory:
    return _drive(_MoveToMinimizerPlayer, instance)


def run_simple_threshold(instance: Instance) -> Trajectory:
    return _drive(_SimpleThresholdPlayer, instance)


def run_clip(instance: Instance, advice: np.ndarray, epsilon: float) -> Trajectory:
    """Run the advice-following player.

    Decisions minimize the augmented-threshold pseudo-cost subject to the
    consistency constraint that keeps the run's worst-case completion within
    (1 + epsilon) of the advice's.  The threshold credit is priced at the
    pseudo-utilization p, advanced each step by the smaller of the actual
    and the unconstrained-minimizer purchase.

    epsilon may exceed the robust optimum alpha - 1; the augmented threshold
    is then the robust one and the consistency constraint simply never
    tightens below that behavior.
    """
    if epsilon <= 0.0:
        raise DomainError("epsilon must be positive")
    advice = _check_advice(instance, advice)
    L, U, beta = instance.L, instance.U, instance.beta
    params = make_threshold_params(L, U, beta)
    # With flat prices (alpha = 1) the threshold is constant and the
    # augmented rate has no room to move.
    if params.alpha > 1.0 + _FLAT_ALPHA_SLACK:
        params = make_threshold_params(L, U, beta, epsilon=min(epsilon, params.alpha - 1.0))
    return _drive(_ClipPlayer, instance, advice=advice, epsilon=epsilon, params=params)


def run_baseline(instance: Instance, advice: np.ndarray, epsilon: float, *,
                 robust: Optional[Trajectory] = None) -> Trajectory:
    """Convex combination of the advice and the threshold player's run.

    The advice weight decreases linearly in epsilon and hits zero at the
    robust optimum alpha - 1 (values beyond that degenerate to the pure
    threshold run).  The threshold run does not depend on the advice, so a
    caller scoring several advice points on one instance runs ``alg1`` once
    and passes its trajectory as ``robust``; without it, ``run_alg1`` runs
    here.
    """
    advice = _check_advice(instance, advice)
    if robust is None:
        robust = run_alg1(instance)
    elif robust.decisions.shape != (instance.T, instance.d):
        raise DimensionMismatch(
            f"robust decisions shape {robust.decisions.shape} != {(instance.T, instance.d)}"
        )
    alpha = make_threshold_params(instance.L, instance.U, instance.beta).alpha
    cfg = BaselineConfig.from_epsilon(alpha, epsilon)
    xs = cfg.lam * advice + (1.0 - cfg.lam) * robust.decisions
    return make_trajectory(instance, xs)
