"""Offline reference solutions.

The hindsight optimum is solved exactly without an LP solver.  Pricing the
one covering constraint with a multiplier splits the problem into one
interval-selection problem per coordinate, whose 0/1 optimum a two-state
dynamic program finds in O(T); an exact search over the breakpoints of the
concave dual then finds the multiplier, and the mix of the two plans on
either side of it that covers exactly one unit is optimal.  The dual value
certifies every solution.  The program's recurrence runs as a scalar loop
on short horizons and as whole-array sweeps on long ones (from
``_SWEEP_MIN_CELLS`` steps times coordinates, a measured crossover); both
give the same bits.

The cost-maximizing plan behind the anti-advice is a fractional knapsack,
solved exactly by sorting the items by price per unit of utilization.
Neither solver needs scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    FEAS_TOL,
    DomainError,
    Instance,
    NumericError,
    Trajectory,
    make_trajectory,
)

__all__ = [
    "OfflineSolution",
    "AdviceConfig",
    "solve_opt",
    "solve_worst",
    "make_advice",
]

# Dual search steps before solve_opt gives up; each is one dynamic program.
# Generator instances settle in at most about ten.
_MAX_DUAL_SOLVES = 100
# The dual value meets the bracket lines within this share of the size of
# the program's terms, |line| + lam max(c): the search stops there.
_DUAL_MEET_TOL = 1e-12
# The dual bound certifies the returned plan: its cost must equal the bound
# within this share of max(1, |cost|).
_DUAL_BOUND_TOL = 1e-7
# The dynamic program sweeps whole arrays from this many cells (steps times
# coordinates) on, the measured crossover.  Sweeping every horizon, against
# the scalar recurrence, over whole dual searches on generator-like and
# trace-like prices: 0.6-0.9x at T <= 24 (d = 5, 10) and T = 96 (d = 2),
# 0.9-0.95x at 500 cells (T = 250, d = 2), 1.05-1.1x at 1,000 (T = 500,
# d = 2), 1.5x at 1,500 (T = 300, d = 5), 1.5-2.1x at T = 1000 and 2000
# with d = 1, and 2.8-3.0x at T = 4380, d = 10.
_SWEEP_MIN_CELLS = 1000
# Sweeps before a coordinate still moving finishes with the scalar
# recurrence.  A year of two-hour steps in ten regions settles in 4 to 13.
_MAX_SWEEPS = 32


@dataclass(frozen=True)
class OfflineSolution:
    """Hindsight trajectory with its exact cost and solver metadata."""

    decisions: np.ndarray
    objective: float
    trajectory: Trajectory
    solver_stats: dict


@dataclass(frozen=True)
class AdviceConfig:
    """Advice quality dial: xi = 0 reproduces the hindsight optimum, xi = 1
    the cost-maximizing feasible plan."""

    xi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError(f"xi={self.xi} outside [0, 1]")


@dataclass(frozen=True)
class _Plan:
    """A 0/1 plan with the two numbers that fix its Lagrangian line
    ``cost + lam * (1 - coverage)``."""

    on: np.ndarray  # bool, shape (T, d)
    cost: float
    coverage: float


def _plan(instance: Instance, on: np.ndarray) -> _Plan:
    # Each maximal run of on-steps is entered and left once.
    runs = on[0] + np.sum(on[1:] & ~on[:-1], axis=0)
    return _Plan(
        on=on,
        cost=float(np.sum(instance.costs, where=on)) + 2.0 * float(instance.w_weights @ runs),
        coverage=float(np.sum(on, axis=0) @ instance.c_weights),
    )


def _recurrence(prev: float, gains: list[float], w: float) -> list[float]:
    """``prev`` and the recurrence's values after it, one per gain, on
    Python floats: per step two comparisons and one IEEE addition instead
    of three numpy calls.  The comparisons include ties because numpy
    returns its second operand on a tie, which settles the sign of a zero.
    """
    low = -w
    out = [prev]
    for g in gains:
        if prev <= low:
            prev = low
        if prev >= w:
            prev = w
        prev += g
        out.append(prev)
    return out


def _settle_by_sweeps(diff: np.ndarray, gain: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Run up to ``_MAX_SWEEPS`` Jacobi sweeps ``diff[1:] = clip(diff[:-1],
    -w, w) + gain[1:]`` over all coordinates at once, in place, and return
    per coordinate the last step known exact, or ``T - 1`` where every step
    is.

    A sweep that leaves steps ``< k`` unchanged has made steps ``<= k``
    exact, since each of those was computed from an exact predecessor by
    the recurrence's own clip and addition; a sweep that changes no bit has
    reached the recurrence's unique solution.  Bits are compared as
    integers, so that a changed sign of zero counts.  Rows at or before the
    first changed one are exact, so the next sweep starts after it.
    """
    T, d = diff.shape
    low = -w
    buf = np.empty((T - 1, d))
    start = 1  # steps before start are exact in every coordinate
    for _ in range(_MAX_SWEEPS):
        new = buf[: T - start]
        np.maximum(diff[start - 1 : -1], low, out=new)
        np.minimum(new, w, out=new)
        np.add(new, gain[start:], out=new)
        changed = new.view(np.int64) != diff[start:].view(np.int64)
        first = int(np.argmax(changed))  # row-major: its row is the first changed
        if not changed.flat[first]:
            return np.full(d, T - 1)
        row = first // d
        diff[start + row :] = new[row:]
        settled = start + row
        start = settled + 1
        if start == T:
            return np.full(d, T - 1)
    # Per coordinate: a coordinate the last sweep left alone is a fixed
    # point, and otherwise its first changed step is exact.
    moving = changed.any(axis=0)
    return np.where(moving, settled - row + np.argmax(changed, axis=0), T - 1)


def _difference(gain: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The recurrence ``diff[t] = clip(diff[t-1], -w, w) + gain[t]`` from
    ``diff[0] = w + gain[0]``, for every step and coordinate of ``gain``.

    Below ``_SWEEP_MIN_CELLS`` cells it runs as the scalar recurrence, one
    coordinate at a time.  From there on whole-array Jacobi sweeps
    (``_settle_by_sweeps``) solve it for every step and coordinate at once,
    starting from the guess that every predecessor is clamped at ``+w``,
    which is exact at ``t = 0``; a coordinate still moving after
    ``_MAX_SWEEPS`` sweeps finishes with the scalar recurrence from its
    last exact step.  Every entry comes from the same clip and the same
    single IEEE addition as ``np.minimum(np.maximum(x, -w), w) + gain``,
    so the result is the same bits whichever route ran.  The result is in
    C order.
    """
    T, d = gain.shape
    if T == 1 or T * d < _SWEEP_MIN_CELLS:
        diff = np.empty((T, d))
        for i, (col, w_i) in enumerate(zip(gain.T.tolist(), w.tolist())):
            diff[:, i] = _recurrence(w_i + col[0], col[1:], w_i)
        return diff
    diff = gain + w
    exact = _settle_by_sweeps(diff, gain, w)
    for i in np.flatnonzero(exact < T - 1).tolist():
        k = int(exact[i])
        diff[k:, i] = _recurrence(float(diff[k, i]), gain[k + 1 :, i].tolist(), float(w[i]))
    return diff


def _lagrangian_plan(instance: Instance, lam: float) -> tuple[float, _Plan]:
    """Dual value g(lam) and a 0/1 plan attaining it.

    With the covering constraint priced at ``lam`` the problem splits by
    coordinate into ``min sum_t (f_t - lam c) x_t + w sum |dx|`` over
    [0, 1]^T, zero at both ends, whose optimum is a set of on-intervals.
    A two-state (off/on) dynamic program finds it.  It is run on the
    difference ``diff[t]`` of the best costs of ending step t on and off,
    which obeys ``diff[t] = clip(diff[t-1], -w, w) + f_t - lam c``
    (``_difference``: a scalar loop on short horizons, whole-array sweeps
    on long ones, the same bits either way); the off state's cost grows by
    ``min(0, diff[t] + w)`` per step, the final move home included.  Ties
    go to the off state.
    """
    w = instance.w_weights
    diff = _difference(instance.costs - lam * instance.c_weights, w)
    T, d = diff.shape
    # diff is in C order, as the sum adds in memory order.
    value = lam + float(np.sum(np.minimum(diff + w, 0.0)))
    # Read the plan back: step t is on when diff[t] < -w (the on state is
    # best there whatever follows), off when diff[t] >= w, and otherwise
    # in the state of step t + 1; the last step is settled by the move home.
    on_here = diff < -w
    settled = on_here | (diff >= w)
    settled[-1] = True
    steps = np.where(settled, np.arange(T)[:, None], T)
    source = np.minimum.accumulate(steps[::-1], axis=0)[::-1]
    return value, _plan(instance, on_here[source, np.arange(d)])


def solve_opt(instance: Instance) -> OfflineSolution:
    """Hindsight-optimal trajectory: minimal hitting + switching cost subject
    to the covering constraint.

    Solved exactly through the Lagrangian dual of the covering constraint.
    The dual ``g(lam) = min_x [cost(x) + lam (1 - coverage(x))]`` is concave
    and piecewise linear; every 0/1 plan contributes the line
    ``cost + lam (1 - coverage)`` and ``g`` is their lower envelope.  The
    search keeps one plan below full coverage (rising line) and one above
    (falling line), starting from the empty plan and the all-on plan,
    evaluates ``g`` by the dynamic program where the two lines cross, and
    either stops there, when ``g`` meets the lines (that crossing is the
    maximizer ``lam*``), or replaces the side given by the new plan's
    coverage.  Both bracketing plans minimize the Lagrangian at ``lam*``,
    so their mix with exactly full coverage is optimal.  The dual value at
    ``lam*`` certifies it: it must equal the returned trajectory's cost.

    ``solver_stats["iterations"]`` counts dynamic-program solves.
    """
    T, d = instance.T, instance.d
    lo = _plan(instance, np.zeros((T, d), dtype=bool))
    hi = _plan(instance, np.ones((T, d), dtype=bool))
    if hi.coverage < 1.0 - FEAS_TOL:
        raise NumericError(
            f"covering constraint unreachable: T * sum(c) = {hi.coverage} < 1"
        )
    c_max = float(np.max(instance.c_weights))
    bound = hi.cost
    solves = 0
    # An all-on plan that covers no more than the demand is the only
    # feasible plan.
    while hi.coverage > 1.0:
        if solves == _MAX_DUAL_SOLVES:
            raise NumericError(f"dual search did not settle in {solves} solves")
        lam = (hi.cost - lo.cost) / (hi.coverage - lo.coverage)
        line = lo.cost + lam * (1.0 - lo.coverage)
        bound, plan = _lagrangian_plan(instance, lam)
        solves += 1
        # g meets the bracket lines at lam, which is then the dual maximizer.
        # The dynamic program's rounding grows with the size of its terms
        # f - lam c.  Where both lines are steep, rounding in lam alone can
        # keep g below them; the program returning a bracket plan shows the
        # meeting then.
        met = bound >= line - _DUAL_MEET_TOL * (abs(line) + lam * c_max)
        if met or (plan.cost, plan.coverage) in ((lo.cost, lo.coverage), (hi.cost, hi.coverage)):
            break
        if plan.coverage < 1.0:
            lo = plan
        else:
            hi = plan
    theta = (1.0 - lo.coverage) / (hi.coverage - lo.coverage) if hi.coverage > 1.0 else 1.0
    xs = theta * hi.on + (1.0 - theta) * lo.on
    traj = make_trajectory(instance, xs)
    cost = traj.total_cost
    if abs(bound - cost) > _DUAL_BOUND_TOL * max(1.0, abs(cost)):
        raise NumericError(f"dual bound {bound} disagrees with trajectory cost {cost}")
    if traj.final_utilization < 1.0 - FEAS_TOL:
        raise NumericError("optimal trajectory failed the covering constraint")
    return OfflineSolution(
        decisions=xs,
        objective=cost,
        trajectory=traj,
        solver_stats={"iterations": solves, "stage": "opt"},
    )


def solve_worst(instance: Instance) -> OfflineSolution:
    """Cost-maximizing feasible plan, the anti-advice.

    Maximizes hitting cost over plans in the box that use exactly one unit
    of utilization: a fractional knapsack, solved exactly by sorting.  The
    items ``(t, i)`` are taken in descending price per unit of utilization
    ``f_t^i / c^i``, each whole, and only the one that crosses full
    coverage is taken in part.  Among equally priced items the plan prefers
    even parity of ``t + i`` (so consecutive steps alternate dimensions and
    the plan also switches expensively), then the larger switching weight,
    then the earlier item.  Every step's utilization is at most the plan's
    total, one unit.  The reported objective is the returned trajectory's
    full cost.

    ``solver_stats["hitting_optimum"]`` is the maximal hitting cost;
    ``solver_stats["iterations"]`` is 0, as no iterative solver runs.
    """
    T, d = instance.T, instance.d
    c = np.tile(instance.c_weights, T)
    rate = instance.costs.ravel() / c
    steps, dims = np.divmod(np.arange(T * d), d)
    # lexsort is stable and its last key is the primary one, so the item
    # index settles what the keys leave tied.
    order = np.lexsort((-np.tile(instance.w_weights, T), (steps + dims) % 2, -rate))
    covered = np.cumsum(c[order])
    if covered[-1] < 1.0 - FEAS_TOL:
        raise NumericError(
            f"covering constraint unreachable: T * sum(c) = {covered[-1]} < 1"
        )
    k = int(np.searchsorted(covered, 1.0))
    x = np.zeros(T * d)
    x[order[:k]] = 1.0
    if k < T * d:
        before = covered[k - 1] if k else 0.0
        x[order[k]] = min(1.0, (1.0 - before) / c[order[k]])
    xs = x.reshape(T, d)
    traj = make_trajectory(instance, xs)
    stats = {
        "iterations": 0,
        "stage": "worst",
        "hitting_optimum": float(instance.costs.ravel() @ x),
    }
    return OfflineSolution(
        decisions=xs, objective=traj.total_cost, trajectory=traj, solver_stats=stats
    )


def make_advice(
    instance: Instance,
    config: AdviceConfig,
    opt: Optional[OfflineSolution] = None,
    worst: Optional[OfflineSolution] = None,
) -> np.ndarray:
    """Advice of tunable quality: pointwise mix of the hindsight optimum and
    the cost-maximizing plan.  Precomputed solutions can be passed in when
    sweeping xi over one instance."""
    opt = opt or solve_opt(instance)
    worst = worst if worst is not None else (
        solve_worst(instance) if config.xi > 0.0 else opt
    )
    return (1.0 - config.xi) * opt.decisions + config.xi * worst.decisions
