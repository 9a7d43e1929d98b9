"""Instance construction: synthetic generator, adaptive adversary, advice
helpers, the star-metric allocation reduction, and trace ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algorithms import _Alg1Player, _drive, make_player
from .subproblem import StepContext, fill_to_utilization
from .thresholds import make_threshold_params  # noqa: F401  (bench/layers.py wraps this name)
from .core import (
    DimensionMismatch,
    DomainError,
    Instance,
    _weighted_sum,
    make_trajectory,
    validate_instance,
)

__all__ = [
    "GeneratorConfig",
    "generate_synthetic",
    "AdversaryConfig",
    "y_adversary_run",
    "make_inactive_advice",
    "MalInstance",
    "star_distance",
    "drop_off_state",
    "restore_off_state",
    "mal_to_cfl",
    "ingest_trace",
]

# AdversaryConfig: y sits on the walk's price grid when it is within this
# share of max(1, U) of a grid level.
_GRID_LEVEL_TOL = 1e-9
# y_adversary_run: the player's demand counts as covered within this of one
# unit, and a decision whose utilization, or whose largest entry, is at most
# this buys nothing (it declined the offer, or is back at the origin).
_COVERED_SLACK = 1e-12
_IDLE_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic workload generator.

    Prices are normalized so the floor is L; U_over_L sets the price range.
    Demand weights are all ones, so per-step utilization equals the decision
    mass and T >= 1/max(c) always holds for the sampled horizons.
    """

    d: int = 5
    U_over_L: float = 250.0
    beta_nominal: float = 50.0
    sigma: float = 50.0
    L: float = 1.0
    T_min: int = 6
    T_max: int = 24

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError("d must be at least 1")
        if self.L <= 0.0 or self.U_over_L < 1.0:
            raise DomainError("need L > 0 and U_over_L >= 1")
        if self.sigma < 0.0:
            raise DomainError("sigma must be nonnegative")
        if not 1 <= self.T_min <= self.T_max:
            raise DomainError("need 1 <= T_min <= T_max")
        U = self.L * self.U_over_L
        if self.beta_nominal < 0.0 or (self.beta_nominal > 0.0 and
                                       self.beta_nominal >= (U - self.L) / 2.0):
            raise DomainError("beta_nominal must lie in [0, (U - L) / 2)")

    @property
    def U(self) -> float:
        return self.L * self.U_over_L


def generate_synthetic(seed: int, index: int, config: GeneratorConfig) -> Instance:
    """Draw one reproducible instance from the (seed, index) substream.

    Identical (seed, index, config) always produces the identical instance,
    independent of how many instances were drawn before it.  Draw order:
    movement weights, horizon, then per step a price level followed by the
    per-dimension prices around it.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    L, U, d = config.L, config.U, config.d
    w = rng.uniform(0.0, config.beta_nominal, d)
    T = int(rng.integers(config.T_min, config.T_max + 1))
    rows = np.empty((T, d))
    for t in range(T):
        mu = float(rng.uniform(L, U))
        rows[t] = np.clip(rng.normal(mu, config.sigma, d), L, U)
    inst = Instance(
        d=d,
        T=T,
        L=L,
        U=U,
        c_weights=np.ones(d),
        w_weights=w,
        costs=rows,
        seed=seed,
        generator_config={
            "index": index,
            "d": d,
            "U_over_L": config.U_over_L,
            "beta_nominal": config.beta_nominal,
            "sigma": config.sigma,
            "L": L,
            "T_min": config.T_min,
            "T_max": config.T_max,
        },
    )
    issues = validate_instance(inst)
    if issues:
        raise DomainError("generator produced an invalid instance: " + "; ".join(issues))
    return inst


@dataclass(frozen=True)
class AdversaryConfig:
    """Parameters of the adaptive price stream probing one target level y.

    y must sit on the walk's own price grid: y = U - w_y * delta for an
    integer w_y in [1, w_steps], delta = (U - L) / w_steps.  The horizon is
    fixed at m * (w_steps + 4) so every phase fits whatever the player does.
    """

    y: float
    m: int = 50
    w_steps: int = 100
    d: int = 2
    L: float = 1.0
    U: float = 250.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 2 or self.w_steps < 1 or self.d < 1:
            raise DomainError("need m >= 2, w_steps >= 1, d >= 1")
        if not 0.0 < self.L <= self.U:
            raise DomainError("need 0 < L <= U")
        if self.beta < 0.0 or (self.beta > 0.0 and self.beta >= (self.U - self.L) / 2.0):
            raise DomainError("beta must lie in [0, (U - L) / 2)")
        w_y = round((self.U - self.y) / self.delta)
        if not 1 <= w_y <= self.w_steps or abs(
            self.y - (self.U - w_y * self.delta)
        ) > _GRID_LEVEL_TOL * max(1.0, self.U):
            raise DomainError(
                f"y={self.y} is not U - k * delta for an integer k in [1, {self.w_steps}]"
            )

    @property
    def delta(self) -> float:
        return (self.U - self.L) / self.w_steps

    @property
    def level_index(self) -> int:
        return round((self.U - self.y) / self.delta)

    @property
    def T(self) -> int:
        return self.m * (self.w_steps + 4)


def y_adversary_run(algorithm: str, config: AdversaryConfig) -> tuple[float, float]:
    """Play one adaptive stream against an advice-free player.

    The stream opens with m price ceilings, walks the first dimension's
    price down toward y one delta at a time (re-offering a level while the
    player keeps accepting, and snapping prices back to the ceiling after
    every acceptance until the player retreats to the origin), then offers
    y + delta/10 m times and closes at the ceiling.

    Returns (player_cost, reference_cost) where the reference is the exact
    hindsight optimum of the emitted stream: buy 1/m per step across the
    y-block, paying y + delta/10 plus 2 beta / m of movement.
    """
    d, T = config.d, config.T
    c = np.ones(d)
    w = np.full(d, config.beta)
    player = make_player(algorithm, d, T, config.L, config.U, c, w)

    up = np.full(d, config.U)
    prices: list[np.ndarray] = []
    decisions: list[np.ndarray] = []

    def feed(f: np.ndarray) -> np.ndarray:
        x = player.decide(f)
        prices.append(f.copy())
        decisions.append(np.asarray(x, dtype=float))
        return decisions[-1]

    for _ in range(config.m):
        feed(up)

    reserve = 2 * config.m
    full = 1.0 - _COVERED_SLACK
    for i in range(1, config.level_index):
        level = config.U - i * config.delta
        offer = up.copy()
        offer[0] = level
        accepted_any = True
        offers = 0
        while offers < config.m and accepted_any:
            if len(prices) >= T - reserve or player.z >= full:
                break
            x = feed(offer)
            offers += 1
            accepted_any = _weighted_sum(x, c) > _IDLE_TOL
            if accepted_any:
                while (
                    np.max(np.abs(decisions[-1])) > _IDLE_TOL
                    and len(prices) < T - reserve
                    and player.z < full
                ):
                    feed(up)
        if len(prices) >= T - reserve or player.z >= full:
            break

    probe = up.copy()
    probe[0] = config.y + config.delta / 10.0
    for _ in range(config.m):
        if len(prices) >= T:
            break
        feed(probe)
    while len(prices) < T:
        feed(up)

    instance = Instance(
        d=d, T=T, L=config.L, U=config.U, c_weights=c, w_weights=w,
        costs=np.asarray(prices),
    )
    traj = make_trajectory(instance, np.asarray(decisions))
    reference = (config.y + config.delta / 10.0) + 2.0 * config.beta / config.m
    return traj.total_cost, reference


class _InactiveAdvicePlayer(_Alg1Player):
    """Idles until its own compulsory trade, then fills all the demand it
    can in each step, cheapest coordinates first."""

    def _step(self, f_t: np.ndarray) -> np.ndarray:
        if not self._compulsory():
            return np.zeros(self.d)
        ctx = StepContext._in_run(self.run, f_t, self.x_prev, self.z, 1.0 - self.z)
        return fill_to_utilization(ctx, min(1.0 - self.z, 1.0, self.run.sum_c))


def make_inactive_advice(instance: Instance) -> np.ndarray:
    """Advice that reveals nothing: idle until its own compulsory trade, then
    force maximal amounts into the cheapest coordinates (the same forced-fill
    rule the online players use, so following this advice is indistinguishable
    from having none)."""
    return _drive(_InactiveAdvicePlayer, instance).decisions


@dataclass(frozen=True)
class MalInstance:
    """Allocation problem on a star metric with a free OFF state.

    State 0 is OFF: it incurs no service cost and earns no utilization.
    ``weights[i]`` is the edge weight between state i and the star center,
    so moving mass between states i and j costs (weights[i] + weights[j])
    per unit.  Allocations live on the probability simplex over all d + 1
    states.
    """

    T: int
    L: float
    U: float
    weights: np.ndarray
    c_weights: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        c = np.asarray(self.c_weights, dtype=float)
        costs = np.asarray(self.costs, dtype=float)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "c_weights", c)
        object.__setattr__(self, "costs", costs)
        if weights.ndim != 1 or weights.shape[0] < 2:
            raise DimensionMismatch("weights must cover OFF plus at least one state")
        n = weights.shape[0]
        if c.shape != (n,) or costs.shape != (self.T, n):
            raise DimensionMismatch("c_weights/costs shapes disagree with weights")
        if np.any(weights < 0.0):
            raise DomainError("star edge weights must be nonnegative")
        if abs(float(c[0])) > 0.0 or np.any(np.abs(costs[:, 0]) > 0.0):
            raise DomainError("the OFF state must have zero cost and zero utilization")

    @property
    def d(self) -> int:
        return self.weights.shape[0] - 1


def star_distance(q: np.ndarray, q2: np.ndarray, weights: np.ndarray) -> float:
    """Distance between two allocations on the star: every unit of imbalance
    at a state crosses that state's edge."""
    q = np.asarray(q, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if q.shape != q2.shape or q.shape != weights.shape:
        raise DimensionMismatch("allocation/weight shapes disagree")
    return float(np.abs(q - q2) @ weights)


def drop_off_state(q: np.ndarray) -> np.ndarray:
    """Map a simplex allocation to box coordinates by dropping OFF."""
    return np.asarray(q, dtype=float)[1:].copy()


def restore_off_state(x: np.ndarray) -> np.ndarray:
    """Inverse of drop_off_state: OFF absorbs the unallocated mass."""
    x = np.asarray(x, dtype=float)
    return np.concatenate([[1.0 - float(np.sum(x))], x])


def mal_to_cfl(mal: MalInstance) -> Instance:
    """Reduce the star allocation problem to the box-constrained one.

    The OFF coordinate is dropped; each remaining movement weight picks up
    the OFF edge weight, which charges every reallocation as if it went
    through OFF.  Hitting costs are preserved exactly and movement costs
    are never undercharged (they match when the OFF edge is free).
    """
    inst = Instance(
        d=mal.d,
        T=mal.T,
        L=mal.L,
        U=mal.U,
        c_weights=mal.c_weights[1:],
        w_weights=mal.weights[1:] + mal.weights[0],
        costs=mal.costs[:, 1:],
    )
    issues = validate_instance(inst)
    if issues:
        raise DomainError("reduced instance is invalid: " + "; ".join(issues))
    return inst


def ingest_trace(
    path: str,
    L: float = 1.0,
    U: float = 250.0,
    w_weights: Optional[np.ndarray] = None,
) -> Instance:
    """Build an instance from a (timestamp, region_id, intensity) CSV.

    Each region becomes a dimension; its intensities are mapped affinely so
    the region's minimum lands on L and its maximum on U (a flat region maps
    to L).  Rows may arrive in any order but every (timestamp, region) pair
    must appear exactly once.  A header row is skipped if present.
    """
    cells: dict[tuple[str, str], float] = {}
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if len(row) != 3:
                if not "".join(row).strip():  # blank: no fields, or only whitespace
                    continue
                raise DomainError(f"line {lineno}: expected 3 fields, got {len(row)}")
            ts, region, raw = row[0].strip(), row[1].strip(), row[2].strip()
            if not (ts or region or raw):
                continue
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
    if not cells:
        raise DomainError("trace contains no data rows")

    def order(keys) -> list[str]:
        # dict.fromkeys keeps first appearance, the order ties sort in.
        keys = dict.fromkeys(keys)
        try:
            return sorted(keys, key=float)
        except ValueError:
            return sorted(keys)

    timestamps = order(ts for ts, _ in cells)
    regions = order(region for _, region in cells)
    T, d = len(timestamps), len(regions)
    step = {ts: i for i, ts in enumerate(timestamps)}
    dim = {region: j for j, region in enumerate(regions)}
    rows = [step[ts] for ts, _ in cells]
    cols = [dim[region] for _, region in cells]
    raw = np.empty((T, d))
    raw[rows, cols] = list(cells.values())
    # Distinct keys land on distinct entries of raw, so fewer than T * d
    # keys leave a gap; name the first one, scanning region by region.
    if len(cells) < T * d:
        filled = np.zeros((d, T), dtype=bool)
        filled[cols, rows] = True
        j, i = np.argwhere(~filled)[0]
        raise DomainError(f"missing cell for ({timestamps[i]}, {regions[j]})")
    for j in range(d):
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
