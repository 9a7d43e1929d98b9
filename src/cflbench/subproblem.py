"""Per-step pseudo-cost subproblems.

Every online decision in this package reduces to one of two single-step
problems over the box [0, 1]^d with a budget-rate cap on c(x):

* unconstrained: minimize hitting + switching minus the threshold credit
  for the utilization the step adds;
* constrained: the same objective with a consistency-slack constraint that
  ties the step to an advice trajectory.

One closed-form enumerator (``_minimize``) solves both: the free problem
exactly, and the constrained one at any fixed Lagrange multiplier of the
consistency constraint.  The constrained solver searches that multiplier:
the fill segments' rates are affine in it, so a multiplier that makes a
given utilization stationary has a closed form, and a few solves bracket
the optimum within a certified dual gap.  Both are deterministic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    FEAS_TOL,
    DimensionMismatch,
    DomainError,
    _as_vector,
    _weighted_sum,
    constraint_value,
    weighted_l1,
)
from .thresholds import phi_eps_integral, phi_integral  # noqa: F401  (bench/layers.py wraps them)
from .thresholds import ThresholdParams, phi_rate, phi_rate_coeff, phi_rate_integral

__all__ = [
    "StepContext",
    "ConsistencyContext",
    "pseudo_cost_objective",
    "minimize_pseudo_cost",
    "consistency_slack",
    "minimize_pseudo_cost_constrained",
]

# Slack allowed when classifying a decision as satisfying the consistency
# constraint; matches the post-hoc check used by the advice-following runner.
SLACK_TOL = 1e-9

# The constrained search stops once the dual value of its last solve is
# within this fraction of the chord value of its two bracketing minimizers
# (of L, the cheapest price, when the chord is smaller), which bounds the
# returned point's pseudo-cost from above.
DUAL_GAP_TOL = 1e-13
# Solves the constrained search may spend between its s = 1 test and the
# mix; at the cap it mixes the bracket it has, which is consistent.
MAX_SEARCH_SOLVES = 64
_SECANT_STEPS = 3
# The enumerator keeps the first of candidates whose values lie this close.
_TIE = 1e-15
# Utilization at or below which a step adds nothing: the fill stops, and a
# step with no more room returns x = 0.
_EMPTY_STEP = 1e-15


def _vector(value, name: str, d: int) -> np.ndarray:
    arr = _as_vector(value, name)
    if arr.shape[0] != d:
        raise DimensionMismatch(f"{name} length {arr.shape[0]} != {d}")
    return arr


def _checked_weights(c_weights, w_weights, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight vectors as float arrays of length ``d``, with ``c > 0``."""
    c = _vector(c_weights, "c_weights", d)
    if np.any(c <= 0.0):
        raise DomainError("c_weights must be strictly positive")
    return c, _vector(w_weights, "w_weights", d)


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` from values its caller
    has checked, without ``__post_init__``.  Freezing blocks attribute
    assignment, not the instance dict."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class _Run:
    """What every step of one run shares: the checked weights (as arrays and
    as Python floats, the same doubles and cheaper to combine one by one),
    ``sum(c)``, and the threshold's params, rate and coefficient."""

    def __init__(self, c_weights: np.ndarray, w_weights: np.ndarray,
                 params: ThresholdParams) -> None:
        self.c_weights, self.w_weights, self.params = c_weights, w_weights, params
        self.c, self.w = c_weights.tolist(), w_weights.tolist()
        self.sum_c = float(np.sum(c_weights))
        self.rate = params.rate
        self.dcoef = phi_rate_coeff(params.U, params.beta, self.rate)


def _check_scalars(z: float, cap: float) -> None:
    if not 0.0 <= z <= 1.0 + FEAS_TOL:
        raise DomainError(f"z={z} outside [0, 1]")
    if cap < -FEAS_TOL:
        raise DomainError(f"cap={cap} negative")
    if z + cap > 1.0 + FEAS_TOL:
        raise DomainError(f"z + cap = {z + cap} exceeds 1")


@dataclass(frozen=True)
class StepContext:
    """Everything a single-step solve needs to know.

    ``z`` is the utilization already priced by the threshold (the lower
    integration limit) and ``cap`` bounds the utilization this step may
    add.  ``z + cap`` never exceeds 1: the threshold is only defined on
    the unit interval.  ``run`` holds the invariants derived from the
    weights and params.
    """

    f_t: np.ndarray
    x_prev: np.ndarray
    z: float
    cap: float
    c_weights: np.ndarray
    w_weights: np.ndarray
    params: ThresholdParams
    run: _Run = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f_t = _as_vector(self.f_t, "f_t")
        d = f_t.shape[0]
        x_prev = _vector(self.x_prev, "x_prev", d)
        c, w = _checked_weights(self.c_weights, self.w_weights, d)
        z, cap = float(self.z), float(self.cap)
        _check_scalars(z, cap)
        self.__dict__.update(f_t=f_t, x_prev=x_prev, z=z, cap=cap, c_weights=c, w_weights=w,
                             run=_Run(c, w, self.params))

    @classmethod
    def _in_run(cls, run: _Run, f_t: np.ndarray, x_prev: np.ndarray,
                z: float, cap: float) -> "StepContext":
        """A step of a player, whose entry points checked the arrays: the
        weights once per run, ``f_t`` on arrival, and ``x_prev`` is its own
        last decision.  Only the scalars are checked here."""
        _check_scalars(z, cap)
        return _unchecked(cls, f_t=f_t, x_prev=x_prev, z=z, cap=cap, c_weights=run.c_weights,
                          w_weights=run.w_weights, params=run.params, run=run)

    @property
    def d(self) -> int:
        return self.f_t.shape[0]


@dataclass(frozen=True)
class ConsistencyContext:
    """State of the advice-following run entering the current step.

    ``adv_cost`` includes the advice's hitting and switching through the
    current step; ``clip_cost_so_far`` stops at the previous step.  ``a_t``
    is the advice decision for the current step and ``advice_utilization``
    the advice's cumulative utilization including ``a_t``.
    """

    a_t: np.ndarray
    adv_cost: float
    clip_cost_so_far: float
    advice_utilization: float
    z_prev: float
    epsilon: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.a_t, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatch("a_t must be one-dimensional")
        object.__setattr__(self, "a_t", arr)
        object.__setattr__(self, "adv_cost", float(self.adv_cost))
        object.__setattr__(self, "clip_cost_so_far", float(self.clip_cost_so_far))
        object.__setattr__(self, "advice_utilization", float(self.advice_utilization))
        object.__setattr__(self, "z_prev", float(self.z_prev))
        object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.epsilon <= 0.0:
            raise DomainError("epsilon must be positive")


def _effective_cap(ctx: StepContext) -> float:
    # c(x) <= 1 always; cap can only tighten it.
    return max(0.0, min(1.0, ctx.cap))


def _within_cap(ctx: StepContext, x: np.ndarray) -> np.ndarray:
    """x clipped to the box, scaled down onto the cap if it exceeds it."""
    x = x.clip(0.0, 1.0)
    cap = _effective_cap(ctx)
    total = _weighted_sum(x, ctx.c_weights)
    if total > cap and total > 0.0:
        x = x * (cap / total)
    return x


def pseudo_cost_objective(x: np.ndarray, ctx: StepContext) -> float:
    """Hitting + switching minus the threshold credit of the added utilization.

    ``x`` must lie in the box with c(x) <= min(1, cap), up to FEAS_TOL.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != ctx.f_t.shape:
        raise DimensionMismatch("x length != context dimension")
    if np.any(x < -FEAS_TOL) or np.any(x > 1.0 + FEAS_TOL):
        raise DomainError("x outside the unit box")
    y = constraint_value(x, ctx.c_weights)
    if y > _effective_cap(ctx) + FEAS_TOL:
        raise DomainError(f"c(x)={y} exceeds cap {_effective_cap(ctx)}")
    hit = float(ctx.f_t @ x)
    switch = weighted_l1(x - ctx.x_prev, ctx.w_weights)
    p = ctx.params
    return hit + switch - phi_rate_integral(ctx.z, min(1.0, ctx.z + y), p.U, p.beta, p.rate)


class _Relaxation:
    """Everything about a step's Lagrangian relaxation that does not depend
    on the multiplier, computed once per step.

    Without ``cc`` it is the pseudo-cost itself (only ``s == 0`` applies);
    with ``cc`` it also carries the advice breakpoints of the movement cost
    and the invariant parts of ``consistency_slack``.
    """

    def __init__(self, ctx: StepContext, cc: Optional[ConsistencyContext] = None) -> None:
        run = ctx.run
        self.ctx, self.cc = ctx, cc
        self.y_max = min(_effective_cap(ctx), run.sum_c, max(0.0, 1.0 - ctx.z))
        self.rate = run.rate
        self.dcoef = run.dcoef
        self.move_prev = _weighted_sum(ctx.x_prev, ctx.w_weights)
        if cc is None:
            self.kink, self.move_adv = math.inf, 0.0
            self.pieces = _pieces(ctx)
        else:
            self.kink = cc.advice_utilization - cc.z_prev
            self.move_adv = _weighted_sum(cc.a_t, ctx.w_weights)
            self.budget = _budget(ctx, cc, self.move_adv)
            self.pieces = _pieces(ctx, cc.a_t)
            self.slopes = {(i, lo): (base, slope) for base, slope, i, lo, _ in self.pieces}

    def phi(self, y: float) -> float:
        """The active threshold at utilization z + y."""
        p = self.ctx.params
        return phi_rate(self.ctx.z + y, p.U, p.beta, self.rate)

    def slack_and_cost(self, x: np.ndarray) -> tuple[float, float, float]:
        """(c(x), consistency slack, pseudo-cost) of x; the slack is
        ``consistency_slack`` to the last bit."""
        ctx, p = self.ctx, self.ctx.params
        y, hit, switch, slack = _slack_terms(x, ctx, self.cc, self.move_adv, self.budget)
        credit = phi_rate_integral(ctx.z, min(1.0, ctx.z + y), p.U, p.beta, self.rate)
        return y, slack, hit + switch - credit


def _pieces(ctx: StepContext, a: Optional[np.ndarray] = None) -> list[tuple]:
    """Per-coordinate linear pieces of the separable movement cost
    f.x + ||x - x_prev||_w + s ||x - a||_w.

    Coordinate i is split at x_prev and, when advice ``a`` is given, at a.
    Each entry is (base, slope, i, lo, hi): raising x_i from lo to hi costs
    base + s * slope per unit of x_i.
    """
    # Python floats: the same doubles as the arrays, cheaper to combine.
    f, w, xp = ctx.f_t.tolist(), ctx.run.w, ctx.x_prev.tolist()
    a = None if a is None else a.tolist()
    pieces = []
    for i in range(len(f)):
        split = min(1.0, max(0.0, xp[i]))
        if a is not None:
            points = sorted({0.0, split, min(1.0, max(0.0, a[i])), 1.0})
        else:
            points = (0.0, split, 1.0) if 0.0 < split < 1.0 else (0.0, 1.0)
        # The points are distinct, so every piece has positive length.
        for lo, hi in zip(points[:-1], points[1:]):
            mid = 0.5 * (lo + hi)
            slope = 0.0 if a is None else w[i] * math.copysign(1.0, mid - a[i])
            pieces.append((f[i] + w[i] * math.copysign(1.0, mid - xp[i]), slope, i, lo, hi))
    return pieces


def _segments(pieces: list[tuple], s: float, c: list[float]) -> list[tuple]:
    """The pieces at multiplier ``s`` as (rate, i, lo, hi), sorted by marginal
    cost per unit of utilization: raising x_i from lo to hi costs
    rate * c_i per unit.  Within a coordinate the pieces are convex
    (nondecreasing rates).  The tuples sort on (rate, coordinate, lo), a
    key no two pieces share, so fills are deterministic.
    """
    segs = [((base + s * slope) / c[i], i, lo, hi) for base, slope, i, lo, hi in pieces]
    segs.sort()
    return segs


def _fill(segs, c: list[float], d: int, y: float) -> np.ndarray:
    """Cheapest x with c(x) == y, filling sorted segments greedily."""
    x = np.zeros(d)
    remaining = y
    for rate, i, lo, hi in segs:
        if remaining <= _EMPTY_STEP:
            break
        room = c[i] * (hi - lo)
        take = min(room, remaining)
        x[i] = lo + take / c[i]
        remaining -= take
    return x


def _minimize(step: _Relaxation, s: float = 0.0) -> np.ndarray:
    """Exact minimizer over {x in [0,1]^d : c(x) <= cap} of

        f.x + ||x - x_prev||_w + s ||x - a||_w - (1 - s) credit(y) - s B(y),

    where y = c(x), credit is the threshold integral the step adds and
    B(y) = L y - (U - L) max(k - y, 0), with k = advice_utilization - z_prev,
    is the utilization part of the consistency budget.  ``s`` is the
    normalized multiplier nu / (1 + nu) of the consistency constraint:
    ``s == 0`` is the pseudo-cost itself and ``s == 1`` the constraint's
    own left-hand side minus its budget.

    At fixed y the movement part is the greedy fill of ``_segments``, linear
    in y on each segment.  The y-part is convex (concave credit and budget),
    so on each linear piece the derivative rate - (1 - s) phi(z + y) - s B'(y)
    has at most one root, with a closed form because phi is an exponential.
    The minimum is attained at a segment end, the budget kink or such a
    root; the walk below visits them in increasing y and keeps the first
    best, so ties go to smaller added utilization.
    """
    ctx = step.ctx
    y_max = step.y_max
    if y_max <= _EMPTY_STEP:
        return np.zeros(ctx.d)

    p, c = ctx.params, ctx.run.c
    U, L, beta = p.U, p.L, p.beta
    rate, dcoef, kink = step.rate, step.dcoef, step.kink
    segs = _segments(step.pieces, s, c)

    def value(y: float, move: float) -> float:
        v = move
        if s < 1.0:
            v -= (1.0 - s) * phi_rate_integral(ctx.z, min(1.0, ctx.z + y), U, beta, rate)
        if s > 0.0:
            v -= s * (L * y - (U - L) * max(kink - y, 0.0))
        return v

    # Movement cost of x = 0, then of the fill as it grows.
    move0 = step.move_prev
    if s > 0.0:
        move0 += s * step.move_adv
    best_v, best_y = value(0.0, move0), 0.0
    y0 = 0.0
    for seg_rate, i, lo, hi in segs:
        y1 = min(y0 + c[i] * (hi - lo), y_max)
        u0 = y0
        for u1 in ((kink, y1) if y0 < kink < y1 else (y1,)):
            candidates = [u1]
            # Interior stationary point: phi(z + y) == (rate - s B') / (1 - s).
            # dcoef < 0 off the degenerate L == U case, where phi is constant
            # and the piece ends already cover the minimum.
            if s < 1.0 and dcoef < 0.0:
                target = (seg_rate - s * (U if u1 <= kink else L)) / (1.0 - s)
                if target < U - beta:
                    ystar = rate * math.log((target - U + beta) / dcoef) - ctx.z
                    if u0 < ystar < u1:
                        candidates.insert(0, ystar)
            for y in candidates:
                v = value(y, move0 + seg_rate * (y - y0))
                if v < best_v - _TIE:
                    best_v, best_y = v, y
            u0 = u1
        if y1 >= y_max:
            break
        move0 += seg_rate * (y1 - y0)
        y0 = y1

    return _within_cap(ctx, _fill(segs, c, ctx.d, best_y))


def minimize_pseudo_cost(ctx: StepContext) -> np.ndarray:
    """Exact minimizer of the pseudo-cost over {x in [0,1]^d : c(x) <= cap}.

    The movement cost at fixed added utilization y is piecewise linear in y
    (greedy segment fill), and on each linear piece the objective's
    y-derivative is rate - phi(z + y), which has an explicit root.  The
    global minimum is therefore attained at a segment boundary, an interior
    stationary point, or an endpoint; all are enumerated.

    Ties are broken toward smaller added utilization, then lexicographically
    smaller x (the greedy fill is itself deterministic).
    """
    return _minimize(_Relaxation(ctx))


def fill_to_utilization(ctx: StepContext, y: float) -> np.ndarray:
    """Cheapest decision adding exactly ``y`` utilization (capped at what the
    box and the step cap allow).

    Chooses coordinates greedily by marginal movement cost per unit of
    utilization, the same ordering the pseudo-cost solvers use.  At a fixed
    utilization the threshold credit is a constant, so this is the exact
    minimizer of the pseudo-cost over {x : c(x) == y}.
    """
    if y < -FEAS_TOL:
        raise DomainError(f"target utilization {y} is negative")
    y_max = min(_effective_cap(ctx), ctx.run.sum_c)
    y = min(max(0.0, y), y_max)
    if y <= _EMPTY_STEP:
        return np.zeros(ctx.d)
    c = ctx.run.c
    return np.clip(_fill(_segments(_pieces(ctx), 0.0, c), c, ctx.d, y), 0.0, 1.0)


def _budget(ctx: StepContext, cc: ConsistencyContext, adv_norm: float) -> float:
    """(1 + epsilon) times the advice's worst-case completion cost."""
    return (1.0 + cc.epsilon) * (
        cc.adv_cost + adv_norm + (1.0 - cc.advice_utilization) * ctx.params.L
    )


def _slack_terms(
    x: np.ndarray, ctx: StepContext, cc: ConsistencyContext, adv_norm: float, budget: float
) -> tuple[float, float, float, float]:
    """(c(x), hitting cost, switching cost, consistency slack) of x, given
    the step's advice norm ||a||_w and ``_budget``."""
    L, U, w = ctx.params.L, ctx.params.U, ctx.w_weights
    y = _weighted_sum(x, ctx.c_weights)
    hit = float(ctx.f_t @ x)
    switch = _weighted_sum(x - ctx.x_prev, w)
    z_new = cc.z_prev + y
    spent = (
        cc.clip_cost_so_far
        + hit
        + switch
        + _weighted_sum(x - cc.a_t, w)
        + adv_norm
        + (1.0 - z_new) * L
        + max(cc.advice_utilization - z_new, 0.0) * (U - L)
    )
    return y, hit, switch, budget - spent


def consistency_slack(x: np.ndarray, ctx: StepContext, cc: ConsistencyContext) -> float:
    """Margin of the advice-consistency constraint at decision x.

    Nonnegative slack means choosing x keeps the run's worst-case completion
    within (1 + epsilon) of the advice's worst-case completion, assuming both
    finish at the cheapest possible rate L except where the advice has
    already over-covered (the max term charges the difference at U - L).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != ctx.f_t.shape:
        raise DimensionMismatch("x length != context dimension")
    return _consistency_slack(x, ctx, cc)


def _consistency_slack(x: np.ndarray, ctx: StepContext, cc: ConsistencyContext) -> float:
    adv_norm = _weighted_sum(cc.a_t, ctx.w_weights)
    return _slack_terms(x, ctx, cc, adv_norm, _budget(ctx, cc, adv_norm))[3]


def minimize_pseudo_cost_constrained(ctx: StepContext, cc: ConsistencyContext) -> np.ndarray:
    """Minimize the pseudo-cost subject to the advice-consistency constraint.

    The step is a convex program: the pseudo-cost is convex, and the
    constraint's left-hand side is convex piecewise linear against a budget
    that is concave in the added utilization.  It is solved with one
    Lagrange multiplier nu >= 0 on the constraint, normalized to
    s = nu / (1 + nu) in [0, 1]; at fixed s, ``_minimize`` is exact.

    * s = 0 is the free minimizer, returned when it is already consistent.
    * s = 1 minimizes the constraint itself.  If even that point violates it
      by more than SLACK_TOL, no decision is consistent: the advice
      decision, truncated to the step's cap, is returned and the event is
      flagged with a warning; the caller decides how to account for it.
    * Otherwise a dual search keeps two relaxed minimizers, one short of the
      constraint and one meeting it, and solves at a multiplier between
      them.  It alternates a piece step, which solves in closed form for the
      multiplier that makes the secant point's utilization stationary on
      its fill segment (exact once both ends lie on that segment), and a
      Kelley step, which intersects the two ends' Lagrangian lines.  It
      stops when the dual value meets the chord value of the two ends
      within DUAL_GAP_TOL.  The slack is concave along the segment between
      the ends, so the secant mix of them onto the constraint boundary is
      consistent, and its pseudo-cost is at most that chord value: the
      returned point is optimal within the gap.
    """
    return _constrained_with_free(ctx, cc)[0]


class _Solve(NamedTuple):
    """One relaxed minimizer of the constrained search."""

    s: float
    x: np.ndarray
    y: float
    slack: float
    cost: float


def _solve(step: _Relaxation, s: float) -> _Solve:
    x = _minimize(step, s)
    return _Solve(s, x, *step.slack_and_cost(x))


def _piece_multiplier(step: _Relaxation, lo: _Solve, hi: _Solve, y_m: float) -> float:
    """A multiplier strictly between ``lo.s`` and ``hi.s`` at which
    utilization ``y_m`` is the stationary point of the relaxation, on a fill
    segment (in the order at ``lo.s``) whose span holds ``y_m``.  On such a
    segment the rate is (base + s slope) / c_i, so stationarity,
    rate - (1 - s) phi(z + y_m) - s B'(y_m) = 0, is linear in s.  Returns
    nan when no segment gives one."""
    p, c = step.ctx.params, step.ctx.run.c
    phi_m = step.phi(y_m)
    b_slope = p.U if y_m < step.kink else p.L
    y1 = 0.0
    for _, i, start, end in _segments(step.pieces, lo.s, c):
        y0, y1 = y1, y1 + c[i] * (end - start)
        # Spans are matched within the fill's empty-step margin, so that a
        # sliver of a segment (x_prev or the advice a hair off a bound)
        # does not hide its neighbour.
        if y1 < y_m - _EMPTY_STEP:
            continue
        if y0 > y_m + _EMPTY_STEP:
            break
        base, slope = step.slopes[i, start]
        denom = phi_m - b_slope + slope / c[i]
        if denom != 0.0:
            s = (phi_m - base / c[i]) / denom
            if lo.s < s < hi.s:
                return s
    return math.nan


def _constrained_with_free(
    ctx: StepContext, cc: ConsistencyContext
) -> tuple[np.ndarray, np.ndarray]:
    """``minimize_pseudo_cost_constrained`` together with the free minimizer
    it starts from, for callers that need both."""
    x_free = _minimize(_Relaxation(ctx))
    if _consistency_slack(x_free, ctx, cc) >= 0.0:
        return x_free, x_free
    step = _Relaxation(ctx, cc)
    lo, hi = _Solve(0.0, x_free, *step.slack_and_cost(x_free)), _solve(step, 1.0)
    if hi.slack < -SLACK_TOL:
        warnings.warn(
            "consistency constraint infeasible at every utilization level; "
            "returning truncated advice",
            RuntimeWarning,
            stacklevel=3,
        )
        return _within_cap(ctx, cc.a_t), x_free

    # Within SLACK_TOL of infeasible, aim for the least violation there is.
    target = min(0.0, hi.slack)
    if lo.slack >= target:
        return x_free, x_free
    # The dual value at nu = 0 is the free minimizer's pseudo-cost.
    dual = lo.cost - _TIE
    for k in range(MAX_SEARCH_SOLVES):
        theta = (target - lo.slack) / (hi.slack - lo.slack)  # secant weight of hi
        chord = lo.cost + theta * (hi.cost - lo.cost)
        if dual >= chord - DUAL_GAP_TOL * max(abs(chord), ctx.params.L):
            break
        s = math.nan
        if k % 2 == 0:
            s = _piece_multiplier(step, lo, hi, lo.y + theta * (hi.y - lo.y))
        if not lo.s < s < hi.s:
            # Kelley step: the ends' lines P - nu (slack - target) cross at
            # nu = rise / (hi.slack - lo.slack).
            rise = hi.cost - lo.cost
            s = rise / (rise + hi.slack - lo.slack)
        if not lo.s < s < hi.s:
            s = 0.5 * (lo.s + hi.s)
            if not lo.s < s < hi.s:
                break
        m = _solve(step, s)
        # The Lagrangian value at m, less what the enumerator's tie margin
        # may hide, bounds the optimum from below.
        dual = m.cost - (s * (m.slack - target) + _TIE) / (1.0 - s)
        if m.slack >= target:
            hi = m
        else:
            lo = m

    # The slack is concave on the segment to hi.x, so the secant step onto
    # the boundary lands on its feasible side; it is repeated only while
    # rounding leaves the computed slack short of the target, each time
    # aiming twice as far so that the step does not vanish below the
    # resolution of x.
    x, slack = lo.x, lo.slack
    for j in range(_SECANT_STEPS):
        x = x + min(1.0, 2.0**j * (target - slack) / (hi.slack - slack)) * (hi.x - x)
        slack = step.slack_and_cost(x)[1]
        if slack >= target:
            break
    else:
        x = hi.x
    return _within_cap(ctx, x), x_free
