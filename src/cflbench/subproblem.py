"""Per-step pseudo-cost subproblems.

Every online decision in this package reduces to one of two single-step
problems over the box [0, 1]^d with a budget-rate cap on c(x):

* unconstrained: minimize hitting + switching minus the threshold credit
  for the utilization the step adds;
* constrained: the same objective with a consistency-slack constraint that
  ties the step to an advice trajectory.

One closed-form enumerator (``_minimize``) solves both: the free problem
exactly, and the constrained one at any fixed Lagrange multiplier of the
consistency constraint, so the constrained solver is a single bisection on
that multiplier.  Both are deterministic.  A brute-force grid oracle is
included for cross-checking in low dimension.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FEAS_TOL, DimensionMismatch, DomainError, constraint_value, weighted_l1
from .thresholds import ThresholdParams, phi_eps_integral, phi_integral, phi_rate_integral

__all__ = [
    "StepContext",
    "ConsistencyContext",
    "pseudo_cost_objective",
    "minimize_pseudo_cost",
    "consistency_slack",
    "minimize_pseudo_cost_constrained",
    "grid_oracle",
]

# Slack allowed when classifying a decision as satisfying the consistency
# constraint; matches the post-hoc check used by the advice-following runner.
SLACK_TOL = 1e-9

# Halvings of the normalized multiplier in the constrained solve; the loop
# also stops once the bracket reaches float resolution.
_BISECT_STEPS = 60
_SECANT_STEPS = 3


@dataclass(frozen=True)
class StepContext:
    """Everything a single-step solve needs to know.

    ``z`` is the utilization already priced by the threshold (the lower
    integration limit) and ``cap`` bounds the utilization this step may
    add.  ``z + cap`` never exceeds 1: the threshold is only defined on
    the unit interval.
    """

    f_t: np.ndarray
    x_prev: np.ndarray
    z: float
    cap: float
    c_weights: np.ndarray
    w_weights: np.ndarray
    params: ThresholdParams

    def __post_init__(self) -> None:
        for name in ("f_t", "x_prev", "c_weights", "w_weights"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise DimensionMismatch(f"{name} must be one-dimensional")
            object.__setattr__(self, name, arr)
        d = self.f_t.shape[0]
        for name in ("x_prev", "c_weights", "w_weights"):
            if getattr(self, name).shape[0] != d:
                raise DimensionMismatch(f"{name} length != f_t length {d}")
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "cap", float(self.cap))
        if not 0.0 <= self.z <= 1.0 + FEAS_TOL:
            raise DomainError(f"z={self.z} outside [0, 1]")
        if self.cap < -FEAS_TOL:
            raise DomainError(f"cap={self.cap} negative")
        if self.z + self.cap > 1.0 + FEAS_TOL:
            raise DomainError(f"z + cap = {self.z + self.cap} exceeds 1")
        if np.any(self.c_weights <= 0.0):
            raise DomainError("c_weights must be strictly positive")

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


def _credit(ctx: StepContext, z0: float, z1: float) -> float:
    """Threshold integral over [z0, z1], using the augmented threshold when
    the context's params carry one."""
    p = ctx.params
    if p.gamma_eps is not None:
        return float(phi_eps_integral(z0, z1, p))
    return float(phi_integral(z0, z1, p))


def _marginal_rate(ctx: StepContext) -> float:
    """Rate parameter of the active threshold (alpha or gamma_eps)."""
    p = ctx.params
    return p.alpha if p.gamma_eps is None else p.gamma_eps


def _effective_cap(ctx: StepContext) -> float:
    # c(x) <= 1 always; cap can only tighten it.
    return max(0.0, min(1.0, ctx.cap))


def _within_cap(ctx: StepContext, x: np.ndarray) -> np.ndarray:
    """x clipped to the box, scaled down onto the cap if it exceeds it."""
    x = np.clip(x, 0.0, 1.0)
    cap = _effective_cap(ctx)
    total = constraint_value(x, ctx.c_weights)
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
    return hit + switch - _credit(ctx, ctx.z, min(1.0, ctx.z + y))


def _segments(
    ctx: StepContext,
    s: float = 0.0,
    a: Optional[np.ndarray] = None,
) -> list[tuple[float, int, float, float]]:
    """Per-coordinate linear pieces of the separable movement cost, sorted by
    marginal cost per unit of utilization.

    With ``s == 0`` the cost is f.x + ||x - x_prev||_w; with ``0 < s <= 1``
    and advice ``a`` it is f.x + ||x - x_prev||_w + s ||x - a||_w.
    Each entry is (rate, coordinate, lo, hi): raising x_i from lo to hi costs
    rate * c_i per unit of utilization.  Within a coordinate the pieces are
    convex (nondecreasing rates), and the sort is stable on
    (rate, coordinate, lo) so fills are deterministic.
    """
    f, w, c, xp = ctx.f_t, ctx.w_weights, ctx.c_weights, ctx.x_prev
    segs: list[tuple[float, int, float, float]] = []
    for i in range(ctx.d):
        if s > 0.0:
            points = sorted({0.0, min(1.0, max(0.0, xp[i])), min(1.0, max(0.0, a[i])), 1.0})
        else:
            points = sorted({0.0, min(1.0, max(0.0, xp[i])), 1.0})
        for lo, hi in zip(points[:-1], points[1:]):
            if hi - lo <= 0.0:
                continue
            mid = 0.5 * (lo + hi)
            slope = f[i] + w[i] * math.copysign(1.0, mid - xp[i])
            if s > 0.0:
                slope += s * w[i] * math.copysign(1.0, mid - a[i])
            segs.append((slope / c[i], i, lo, hi))
    segs.sort(key=lambda seg: (seg[0], seg[1], seg[2]))
    return segs


def _fill(segs, c: np.ndarray, d: int, y: float) -> np.ndarray:
    """Cheapest x with c(x) == y, filling sorted segments greedily."""
    x = np.zeros(d)
    remaining = y
    for rate, i, lo, hi in segs:
        if remaining <= 1e-15:
            break
        room = c[i] * (hi - lo)
        take = min(room, remaining)
        x[i] = lo + take / c[i]
        remaining -= take
    return x


def _minimize(
    ctx: StepContext,
    s: float = 0.0,
    cc: Optional[ConsistencyContext] = None,
) -> np.ndarray:
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
    cap = _effective_cap(ctx)
    y_max = min(cap, float(np.sum(ctx.c_weights)), max(0.0, 1.0 - ctx.z))
    if y_max <= 1e-15:
        return np.zeros(ctx.d)

    p = ctx.params
    U, L, beta = p.U, p.L, p.beta
    rate = _marginal_rate(ctx)
    dcoef = U / rate - U + 2.0 * beta  # exponential coefficient of the threshold
    a = None if cc is None else cc.a_t
    kink = math.inf if cc is None else cc.advice_utilization - cc.z_prev
    segs = _segments(ctx, s, a)

    def value(y: float, move: float) -> float:
        v = move
        if s < 1.0:
            v -= (1.0 - s) * phi_rate_integral(ctx.z, min(1.0, ctx.z + y), U, beta, rate)
        if s > 0.0:
            v -= s * (L * y - (U - L) * max(kink - y, 0.0))
        return v

    # Movement cost of x = 0, then of the fill as it grows.
    move0 = weighted_l1(ctx.x_prev, ctx.w_weights)
    if s > 0.0:
        move0 += s * weighted_l1(a, ctx.w_weights)
    best_v, best_y = value(0.0, move0), 0.0
    y0 = 0.0
    for seg_rate, i, lo, hi in segs:
        y1 = min(y0 + ctx.c_weights[i] * (hi - lo), y_max)
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
                if v < best_v - 1e-15:
                    best_v, best_y = v, y
            u0 = u1
        if y1 >= y_max:
            break
        move0 += seg_rate * (y1 - y0)
        y0 = y1

    return _within_cap(ctx, _fill(segs, ctx.c_weights, ctx.d, best_y))


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
    return _minimize(ctx)


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
    y_max = min(_effective_cap(ctx), float(np.sum(ctx.c_weights)))
    y = min(max(0.0, y), y_max)
    if y <= 1e-15:
        return np.zeros(ctx.d)
    x = np.clip(_fill(_segments(ctx), ctx.c_weights, ctx.d, y), 0.0, 1.0)
    total = constraint_value(x, ctx.c_weights)
    if total > 0.0 and abs(total - y) > 1e-12:
        x = np.clip(x * (y / total), 0.0, 1.0)
    return x


def consistency_slack(x: np.ndarray, ctx: StepContext, cc: ConsistencyContext) -> float:
    """Margin of the advice-consistency constraint at decision x.

    Nonnegative slack means choosing x keeps the run's worst-case completion
    within (1 + epsilon) of the advice's worst-case completion, assuming both
    finish at the cheapest possible rate L except where the advice has
    already over-covered (the max term charges the difference at U - L).
    """
    x = np.asarray(x, dtype=float)
    L, U = ctx.params.L, ctx.params.U
    a = cc.a_t
    w = ctx.w_weights
    y = constraint_value(x, ctx.c_weights)
    adv_norm = weighted_l1(a, w)
    budget = (1.0 + cc.epsilon) * (
        cc.adv_cost + adv_norm + (1.0 - cc.advice_utilization) * L
    )
    z_new = cc.z_prev + y
    spent = (
        cc.clip_cost_so_far
        + float(ctx.f_t @ x)
        + weighted_l1(x - ctx.x_prev, w)
        + weighted_l1(x - a, w)
        + adv_norm
        + (1.0 - z_new) * L
        + max(cc.advice_utilization - z_new, 0.0) * (U - L)
    )
    return budget - spent


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
    * Otherwise the slack of the relaxed minimizer is nondecreasing in s,
      so s* is bisected down to float resolution.  The relaxed minimizers
      on either side of s* are mixed onto the constraint boundary: the
      slack is concave along the segment between them, so the secant
      through their slacks gives a consistent point.
    """
    return _constrained_with_free(ctx, cc)[0]


def _constrained_with_free(
    ctx: StepContext, cc: ConsistencyContext
) -> tuple[np.ndarray, np.ndarray]:
    """``minimize_pseudo_cost_constrained`` together with the free minimizer
    it starts from, for callers that need both."""
    x_free = x_lo = _minimize(ctx)
    slack_lo = consistency_slack(x_lo, ctx, cc)
    if slack_lo >= 0.0:
        return x_lo, x_free
    x_hi = _minimize(ctx, 1.0, cc)
    slack_hi = consistency_slack(x_hi, ctx, cc)
    if slack_hi < -SLACK_TOL:
        warnings.warn(
            "consistency constraint infeasible at every utilization level; "
            "returning truncated advice",
            RuntimeWarning,
            stacklevel=3,
        )
        return _within_cap(ctx, cc.a_t), x_free

    # Within SLACK_TOL of infeasible, aim for the least violation there is.
    target = min(0.0, slack_hi)
    if slack_lo >= target:
        return x_lo, x_free
    s_lo, s_hi = 0.0, 1.0
    for _ in range(_BISECT_STEPS):
        s = 0.5 * (s_lo + s_hi)
        if not s_lo < s < s_hi:
            break
        x = _minimize(ctx, s, cc)
        slack = consistency_slack(x, ctx, cc)
        if slack >= target:
            s_hi, x_hi, slack_hi = s, x, slack
        else:
            s_lo, x_lo, slack_lo = s, x, slack

    # The slack is concave on the segment to x_hi, so the secant step onto
    # the boundary lands on its feasible side; it is repeated only while
    # rounding leaves the computed slack short of the target.
    x, slack = x_lo, slack_lo
    for _ in range(_SECANT_STEPS):
        x = x + (target - slack) / (slack_hi - slack) * (x_hi - x)
        slack = consistency_slack(x, ctx, cc)
        if slack >= target:
            break
    else:
        x = x_hi
    return _within_cap(ctx, x), x_free


def grid_oracle(
    ctx: StepContext,
    cc: Optional[ConsistencyContext] = None,
    grid_n: int = 200,
) -> np.ndarray:
    """Brute-force reference minimizer on a uniform grid, d <= 3 only.

    Enumerates grid_n levels per coordinate, masks out decisions violating
    the cap (and the consistency constraint when ``cc`` is given), and
    returns the best surviving grid point.  Intended purely as a test
    oracle for the structured solvers.
    """
    if ctx.d > 3:
        raise DomainError("grid oracle is limited to d <= 3")
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    levels = np.linspace(0.0, 1.0, grid_n)
    cap = _effective_cap(ctx)
    p = ctx.params

    best_obj = math.inf
    best_first: Optional[float] = None
    best_rest: Optional[np.ndarray] = None
    # Chunk over the leading coordinate so the d == 3 case stays in memory.
    # The trailing coordinates' contributions (utilization, hitting cost,
    # movement toward x_prev and toward the advice) only depend on the chunk
    # through the scalar ``first``, so they are precomputed once.
    if ctx.d > 1:
        mesh = np.meshgrid(*([levels] * (ctx.d - 1)), indexing="ij")
        rest = np.stack([m.ravel() for m in mesh], axis=1)
    else:
        rest = np.zeros((1, 0))
    rest_util = rest @ ctx.c_weights[1:]
    rest_hit = rest @ ctx.f_t[1:]
    rest_move = np.abs(rest - ctx.x_prev[1:]) @ ctx.w_weights[1:]
    if cc is not None:
        rest_amove = np.abs(rest - cc.a_t[1:]) @ ctx.w_weights[1:]
        adv_norm = weighted_l1(cc.a_t, ctx.w_weights)
        budget = (1.0 + cc.epsilon) * (
            cc.adv_cost + adv_norm + (1.0 - cc.advice_utilization) * p.L
        )
    for first in levels:
        util = rest_util + first * ctx.c_weights[0]
        hit = rest_hit + first * ctx.f_t[0]
        move = rest_move + abs(first - ctx.x_prev[0]) * ctx.w_weights[0]
        mask = util <= cap + FEAS_TOL
        if cc is not None:
            z_new = cc.z_prev + util
            spent = (
                cc.clip_cost_so_far
                + hit
                + move
                + rest_amove
                + abs(first - cc.a_t[0]) * ctx.w_weights[0]
                + adv_norm
                + (1.0 - z_new) * p.L
                + np.maximum(cc.advice_utilization - z_new, 0.0) * (p.U - p.L)
            )
            mask &= budget - spent >= -SLACK_TOL
        if not np.any(mask):
            continue
        util_m = util[mask]
        if p.gamma_eps is not None:
            credit = phi_eps_integral(ctx.z, np.minimum(1.0, ctx.z + util_m), p)
        else:
            credit = phi_integral(ctx.z, np.minimum(1.0, ctx.z + util_m), p)
        obj = hit[mask] + move[mask] - credit
        k = int(np.argmin(obj))
        if obj[k] < best_obj:
            best_obj = float(obj[k])
            best_first = first
            best_rest = rest[np.flatnonzero(mask)[k]].copy()
    if best_first is None:
        raise DomainError("no feasible grid point")
    return np.concatenate([[best_first], best_rest])
