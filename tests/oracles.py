"""Reference step solvers the tests check the package's solvers against.

``grid_oracle`` enumerates a uniform grid; ``bisect_constrained`` solves the
constrained step by bisecting the normalized multiplier to float resolution,
a slow search that ``minimize_pseudo_cost_constrained``'s dual search is
checked against.  Both are kept out of the package.
"""

import math
import warnings
from typing import Optional

import numpy as np

import cflbench.subproblem as subproblem
from cflbench.core import FEAS_TOL, DomainError, weighted_l1
from cflbench.subproblem import (
    SLACK_TOL,
    ConsistencyContext,
    StepContext,
    consistency_slack,
)
from cflbench.thresholds import phi_eps_integral, phi_integral


def grid_oracle(
    ctx: StepContext,
    cc: Optional[ConsistencyContext] = None,
    grid_n: int = 200,
) -> np.ndarray:
    """Brute-force reference minimizer on a uniform grid, d <= 3 only.

    Enumerates grid_n levels per coordinate, masks out decisions violating
    the cap (and the consistency constraint when ``cc`` is given), and
    returns the best surviving grid point.
    """
    if ctx.d > 3:
        raise DomainError("grid oracle is limited to d <= 3")
    if grid_n < 2:
        raise DomainError("grid_n must be at least 2")
    levels = np.linspace(0.0, 1.0, grid_n)
    cap = max(0.0, min(1.0, ctx.cap))
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


def bisect_constrained(ctx: StepContext, cc: ConsistencyContext) -> tuple[np.ndarray, float]:
    """The constrained step by bisection: up to 60 halvings of the normalized
    multiplier s, stopping early only at float resolution, then the same
    secant mix onto the constraint boundary as the package's search.

    Returns the decision and the multiplier s of the consistent end of the
    final bracket (0 when the free minimizer is returned).  The relaxed
    solves go through ``subproblem._minimize``, looked up at call time so
    that tests can count them."""
    x_lo = subproblem._minimize(subproblem._Relaxation(ctx))
    slack_lo = consistency_slack(x_lo, ctx, cc)
    if slack_lo >= 0.0:
        return x_lo, 0.0
    step = subproblem._Relaxation(ctx, cc)
    x_hi = subproblem._minimize(step, 1.0)
    slack_hi = consistency_slack(x_hi, ctx, cc)
    if slack_hi < -SLACK_TOL:
        warnings.warn(
            "consistency constraint infeasible at every utilization level; "
            "returning truncated advice",
            RuntimeWarning,
            stacklevel=2,
        )
        return subproblem._within_cap(ctx, cc.a_t), 1.0

    target = min(0.0, slack_hi)
    if slack_lo >= target:
        return x_lo, 0.0
    s_lo, s_hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (s_lo + s_hi)
        if not s_lo < s < s_hi:
            break
        x = subproblem._minimize(step, s)
        slack = consistency_slack(x, ctx, cc)
        if slack >= target:
            s_hi, x_hi, slack_hi = s, x, slack
        else:
            s_lo, x_lo, slack_lo = s, x, slack

    x, slack = x_lo, slack_lo
    for _ in range(3):
        x = x + (target - slack) / (slack_hi - slack) * (x_hi - x)
        slack = consistency_slack(x, ctx, cc)
        if slack >= target:
            break
    else:
        x = x_hi
    return subproblem._within_cap(ctx, x), s_hi
