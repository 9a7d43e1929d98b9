"""Reference solvers the tests check the package's solvers against.

``grid_oracle`` enumerates a uniform grid; ``bisect_constrained`` solves the
constrained step by bisecting the normalized multiplier to float resolution,
a slow search that ``minimize_pseudo_cost_constrained``'s dual search is
checked against; ``checked_decisions`` runs a player with every input check
repeated on every step, the reference for the players' lean step path.
``vectorized_lagrangian_plan``, ``streaming_save_instance``,
``dict_ingest_trace`` and ``padded_trajectory_cost`` are the earlier forms
of the hindsight program, the instance writer, the trace reader and the
switching cost, which the package's faster forms must match bit for bit;
``bisection_checked_alpha`` is the earlier ``compute_alpha``, which checked
the closed form against a full bisection run, and whose verdicts the sign
certificate must reproduce.  All are kept out of the package.
"""

import csv
import json
import math
import warnings
from typing import Optional

import numpy as np

import cflbench.subproblem as subproblem
from cflbench.algorithms import (
    _AgnosticPlayer,
    _Alg1Player,
    _ClipPlayer,
    _MoveToMinimizerPlayer,
    _SimpleThresholdPlayer,
    _check_advice,
    _top_up,
)
from cflbench.core import (
    FEAS_TOL,
    CostBreakdown,
    DomainError,
    Instance,
    NumericError,
    compulsory_start,
    validate_instance,
    weighted_l1,
)
from cflbench.offline import _plan, _Plan
from cflbench.subproblem import (
    SLACK_TOL,
    ConsistencyContext,
    StepContext,
    consistency_slack,
)
from cflbench.thresholds import (
    compute_alpha_bisection,
    lambert_w0,
    make_threshold_params,
    phi_eps_integral,
    phi_integral,
)


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


def _norm(x: np.ndarray, weights: np.ndarray) -> float:
    """``constraint_value``/``weighted_l1``, shape check and ``np.sum``
    spelled out, so that a change to the package's sum shows."""
    x, weights = np.asarray(x, dtype=float), np.asarray(weights, dtype=float)
    if x.shape != weights.shape or x.ndim != 1:
        raise DomainError(f"shape mismatch: x {x.shape}, weights {weights.shape}")
    return float(np.sum(weights * np.abs(x)))


class _CheckedSteps:
    """The players' step loop with every check on every step: fully
    validated contexts, ``core.compulsory_start``, and checked sums."""

    def decide(self, f_t: np.ndarray) -> np.ndarray:
        f_t = np.asarray(f_t, dtype=float)
        x = np.zeros(self.d) if self.z >= 1.0 - FEAS_TOL else self._step(f_t)
        self.z += _norm(x, self.c_weights)
        self.t += 1
        self.x_prev = x
        return x

    def _compulsory(self) -> bool:
        return compulsory_start(self.t, self.z, self)

    def _context(self, f_t: np.ndarray, z: float) -> StepContext:
        return StepContext(f_t=f_t, x_prev=self.x_prev, z=z, cap=1.0 - self.z,
                           c_weights=self.c_weights, w_weights=self.w_weights,
                           params=self.run.params)


class _CheckedAlg1(_CheckedSteps, _Alg1Player):
    def _step(self, f_t: np.ndarray) -> np.ndarray:
        ctx = self._context(f_t, self.z)
        if self._compulsory():
            y = min(1.0 - self.z, 1.0, float(np.sum(self.c_weights)))
            return subproblem.fill_to_utilization(ctx, y)
        return subproblem.minimize_pseudo_cost(ctx)


class _CheckedInactiveAdvice(_CheckedAlg1):
    def _step(self, f_t: np.ndarray) -> np.ndarray:
        if self._compulsory():
            return super()._step(f_t)
        return np.zeros(self.d)


class _CheckedClip(_CheckedSteps, _ClipPlayer):
    def _step(self, f_t: np.ndarray) -> np.ndarray:
        c, w = self.c_weights, self.w_weights
        a_t = self.advice[self.t - 1]
        self.advice_utilization += _norm(a_t, c)
        self.adv_cost += float(f_t @ a_t) + _norm(a_t - self.a_prev, w)
        self.a_prev = a_t
        self.p = min(self.p, self.z)
        if self._compulsory():
            if self.follow_ratio is None:
                adv_rest = float(np.sum(self.advice[self.t - 1:] @ c))
                need = 1.0 - self.z
                self.follow_ratio = min(1.0, need / adv_rest) if adv_rest > FEAS_TOL else 0.0
            x = np.clip(a_t * self.follow_ratio, 0.0, 1.0)
            used = _norm(x, c)
            if used > 1.0 - self.z + FEAS_TOL:
                x *= (1.0 - self.z) / used
                used = 1.0 - self.z
            shortfall = (1.0 - self.z - used) - (self.T - self.t) * float(np.max(c))
            if shortfall > FEAS_TOL:
                x = _top_up(x, shortfall, f_t, c)
        else:
            cc = ConsistencyContext(a_t=a_t, adv_cost=self.adv_cost,
                                    clip_cost_so_far=self.clip_cost,
                                    advice_utilization=self.advice_utilization,
                                    z_prev=self.z, epsilon=self.epsilon)
            x, x_bar = subproblem._constrained_with_free(self._context(f_t, self.p), cc)
            self.p += min(_norm(x_bar, c), _norm(x, c))
        self.clip_cost += float(f_t @ x) + _norm(x - self.x_prev, w)
        return x


CHECKED_PLAYERS = {
    "alg1": _CheckedAlg1,
    "agnostic": type("_CheckedAgnostic", (_CheckedSteps, _AgnosticPlayer), {}),
    "move_to_minimizer": type("_CheckedMoveToMinimizer",
                              (_CheckedSteps, _MoveToMinimizerPlayer), {}),
    "simple_threshold": type("_CheckedSimpleThreshold",
                             (_CheckedSteps, _SimpleThresholdPlayer), {}),
    "clip": _CheckedClip,
    "inactive_advice": _CheckedInactiveAdvice,
}


def checked_decisions(name: str, instance: Instance, advice: Optional[np.ndarray] = None,
                      epsilon: Optional[float] = None) -> np.ndarray:
    """Decisions of the ``CHECKED_PLAYERS[name]`` player over the instance.
    ``clip`` takes the advice and epsilon, and is built as ``run_clip``
    builds it."""
    kwargs = {}
    if name == "clip":
        L, U, beta = instance.L, instance.U, instance.beta
        params = make_threshold_params(L, U, beta)
        if params.alpha > 1.0 + 1e-12:
            params = make_threshold_params(L, U, beta, epsilon=min(epsilon, params.alpha - 1.0))
        kwargs = dict(advice=_check_advice(instance, advice), epsilon=epsilon, params=params)
    player = CHECKED_PLAYERS[name](instance.d, instance.T, instance.L, instance.U,
                                   instance.c_weights, instance.w_weights, **kwargs)
    return np.asarray([player.decide(f_t) for f_t in instance.costs])


def vectorized_lagrangian_plan(instance: Instance, lam: float) -> tuple[float, _Plan]:
    """``offline._lagrangian_plan`` with its recurrence stepped over time,
    each step one numpy call on the d-vector of coordinates."""
    gain = instance.costs - lam * instance.c_weights
    w = instance.w_weights
    T, d = gain.shape
    diff = np.empty((T, d))
    diff[0] = w + gain[0]
    for t in range(1, T):
        np.add(np.minimum(np.maximum(diff[t - 1], -w), w), gain[t], out=diff[t])
    value = lam + float(np.sum(np.minimum(diff + w, 0.0)))
    on_here = diff < -w
    settled = on_here | (diff >= w)
    settled[-1] = True
    steps = np.where(settled, np.arange(T)[:, None], T)
    source = np.minimum.accumulate(steps[::-1], axis=0)[::-1]
    return value, _plan(instance, on_here[source, np.arange(d)])


def streaming_save_instance(instance: Instance, path) -> None:
    """``core.save_instance`` through ``json.dump``, which streams the
    document through the pure-Python encoder, with the lists built one
    ``float`` at a time."""
    doc = {
        "d": instance.d,
        "T": instance.T,
        "L": instance.L,
        "U": instance.U,
        "c": [float(v) for v in instance.c_weights],
        "w": [float(v) for v in instance.w_weights],
        "costs": [[float(v) for v in row] for row in instance.costs],
        "seed": instance.seed,
        "generator_config": instance.generator_config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def dict_ingest_trace(path: str, L: float = 1.0, U: float = 250.0,
                      w_weights: Optional[np.ndarray] = None) -> Instance:
    """``instances.ingest_trace`` filling the prices one cell at a time,
    region by region, from the dict of cells."""
    cells: dict[tuple[str, str], float] = {}
    timestamps: dict[str, None] = {}
    regions: dict[str, None] = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not field.strip() for field in row):
                continue
            if len(row) != 3:
                raise DomainError(f"line {lineno}: expected 3 fields, got {len(row)}")
            ts, region, raw = (field.strip() for field in row)
            try:
                value = float(raw)
            except ValueError:
                if lineno == 1:
                    continue
                raise DomainError(f"line {lineno}: bad intensity {raw!r}") from None
            if not math.isfinite(value):
                raise DomainError(f"line {lineno}: intensity {raw!r} is not finite")
            if (ts, region) in cells:
                raise DomainError(f"line {lineno}: duplicate cell ({ts}, {region})")
            cells[(ts, region)] = value
            timestamps[ts] = None
            regions[region] = None
    if not cells:
        raise DomainError("trace contains no data rows")

    def order(keys: dict[str, None]) -> list[str]:
        try:
            return sorted(keys, key=float)
        except ValueError:
            return sorted(keys)

    timestamps = order(timestamps)
    regions = order(regions)
    T, d = len(timestamps), len(regions)
    raw = np.empty((T, d))
    for j, region in enumerate(regions):
        for i, ts in enumerate(timestamps):
            try:
                raw[i, j] = cells[(ts, region)]
            except KeyError:
                raise DomainError(f"missing cell for ({ts}, {region})") from None
        lo, hi = float(np.min(raw[:, j])), float(np.max(raw[:, j]))
        if hi - lo <= 0.0:
            raw[:, j] = L
        else:
            raw[:, j] = L + (raw[:, j] - lo) / (hi - lo) * (U - L)
    w = np.zeros(d) if w_weights is None else np.asarray(w_weights, dtype=float)
    inst = Instance(
        d=d, T=T, L=L, U=U, c_weights=np.ones(d), w_weights=w, costs=raw,
    )
    issues = validate_instance(inst)
    if issues:
        raise DomainError("trace instance is invalid: " + "; ".join(issues))
    return inst


def padded_trajectory_cost(instance: Instance, decisions) -> CostBreakdown:
    """``core.trajectory_cost`` padding the decisions with the origin on
    both ends (``vstack``) and taking the moves with ``np.diff``."""
    xs = np.asarray(decisions, dtype=float)
    hitting = float(np.sum(instance.costs * xs))
    padded = np.vstack([np.zeros(instance.d), xs, np.zeros(instance.d)])
    moves = np.abs(np.diff(padded, axis=0))
    switching = float(np.sum(moves @ instance.w_weights))
    return CostBreakdown(hitting=hitting, switching=switching)


def bisection_checked_alpha(L: float, U: float, beta: float) -> float:
    """``thresholds.compute_alpha`` accepting the Lambert W closed form only
    within 1e-9 (relative to max(1, alpha)) of ``compute_alpha_bisection``."""
    check = compute_alpha_bisection(L, U, beta)  # validates (L, U, beta)
    if L == U:
        return 1.0
    u = 2.0 * beta / U
    ell = L / U
    w = lambert_w0((u + ell - 1.0) * math.exp(u - 1.0))
    alpha = 1.0 / (w + 1.0 - u)
    if abs(alpha - check) > 1e-9 * max(1.0, abs(alpha)):
        raise NumericError(
            f"alpha routes disagree: closed form {alpha} vs bisection {check}"
        )
    return alpha
