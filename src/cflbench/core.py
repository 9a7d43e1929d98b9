"""Problem primitives: instances, trajectories, cost accounting, feasibility.

An instance is an online decision problem over a horizon of ``T`` steps.  At
each step the player picks a point ``x_t`` in the unit box ``[0, 1]^d`` with
weighted utilization ``c(x_t) <= 1``, pays the linear hitting cost
``f_t . x_t`` plus a weighted-l1 switching cost relative to the previous
decision (the player starts and ends at the origin), and over the whole
horizon must accumulate total utilization ``sum_t c(x_t) >= 1``.

Per-unit prices are bounded: ``L <= f_t^i / c^i <= U`` for every step and
coordinate.  Switching weights are bounded relative to utilization weights by
``beta = max_i w^i / c^i``, which must stay below ``(U - L) / 2`` for the
threshold machinery to be well defined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for feasibility checks (box membership, utilization caps,
# long-term constraint completion).
FEAS_TOL = 1e-9


class CflError(Exception):
    """Base class for errors raised by this package."""


class DimensionMismatch(CflError, ValueError):
    """Operands disagree on the number of coordinates or steps."""


class DomainError(CflError, ValueError):
    """A scalar argument lies outside its mathematical domain."""


class ConfigError(CflError, ValueError):
    """A configuration object is internally inconsistent."""


class NumericError(CflError, RuntimeError):
    """A numeric routine failed to certify its result."""


class InfeasibleError(CflError, RuntimeError):
    """The long-term constraint cannot be met from the current state."""


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Instance:
    """A fully specified problem instance with linear hitting costs.

    ``costs`` has shape ``(T, d)``; row ``t`` holds the cost coefficients
    revealed at step ``t + 1``.  ``seed`` and ``generator_config`` are
    bookkeeping for synthetically generated instances and may be None.
    """

    d: int
    T: int
    L: float
    U: float
    c_weights: np.ndarray
    w_weights: np.ndarray
    costs: np.ndarray
    seed: int | None = None
    generator_config: dict | None = None

    def __post_init__(self):
        object.__setattr__(self, "c_weights", _as_vector(self.c_weights, "c_weights"))
        object.__setattr__(self, "w_weights", _as_vector(self.w_weights, "w_weights"))
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=float))

    @property
    def beta(self) -> float:
        """Realized switching-to-utilization ratio max_i w^i / c^i."""
        return float(np.max(self.w_weights / self.c_weights))


@dataclass(frozen=True)
class CostBreakdown:
    hitting: float
    switching: float

    @property
    def total(self) -> float:
        return self.hitting + self.switching


@dataclass(frozen=True)
class Trajectory:
    """Decisions of one run plus derived cost and utilization accounting."""

    decisions: np.ndarray  # shape (T, d)
    hitting_cost: float
    switching_cost: float
    utilization_profile: np.ndarray  # shape (T,), cumulative c(x_1..x_t)

    @property
    def total_cost(self) -> float:
        return self.hitting_cost + self.switching_cost

    @property
    def final_utilization(self) -> float:
        return float(self.utilization_profile[-1]) if len(self.utilization_profile) else 0.0


def weighted_l1(x, weights) -> float:
    """Weighted l1 norm sum_i weights^i |x^i|.

    Movement costs are this norm of a difference of decisions.
    """
    x = _as_vector(x, "x")
    w = _as_vector(weights, "weights")
    if x.shape != w.shape:
        raise DimensionMismatch(f"shape mismatch: x {x.shape}, weights {w.shape}")
    return _weighted_sum(x, w)


def constraint_value(x, c_weights) -> float:
    """Utilization c(x) = sum_i c^i |x^i| contributed by decision x."""
    x = _as_vector(x, "x")
    c = _as_vector(c_weights, "c_weights")
    if x.shape != c.shape:
        raise DimensionMismatch(f"shape mismatch: x {x.shape}, c_weights {c.shape}")
    return _weighted_sum(x, c)


def _weighted_sum(x: np.ndarray, weights: np.ndarray) -> float:
    """sum_i weights^i |x^i| of float vectors of one length, unchecked: the
    step loops' form of ``weighted_l1`` and ``constraint_value``.
    ``np.add.reduce`` is the reduction ``np.sum`` performs (pairwise from
    eight terms on), so all three agree to the last bit."""
    return float(np.add.reduce(weights * np.abs(x)))


def trajectory_cost(instance: Instance, decisions) -> CostBreakdown:
    """Total hitting and switching cost of a full decision sequence.

    Switching includes the boundary terms: the move from the origin into
    ``x_1`` and the final move from ``x_T`` back to the origin.
    """
    xs = np.asarray(decisions, dtype=float)
    if xs.shape != (instance.T, instance.d):
        raise DimensionMismatch(
            f"decisions shape {xs.shape} does not match (T, d) = "
            f"({instance.T}, {instance.d})"
        )
    hitting = float(np.sum(instance.costs * xs))
    padded = np.vstack([np.zeros(instance.d), xs, np.zeros(instance.d)])
    moves = np.abs(np.diff(padded, axis=0))
    switching = float(np.sum(moves @ instance.w_weights))
    return CostBreakdown(hitting=hitting, switching=switching)


def make_trajectory(instance: Instance, decisions) -> Trajectory:
    """Bundle a decision sequence with its costs and utilization profile."""
    xs = np.asarray(decisions, dtype=float)
    cost = trajectory_cost(instance, xs)
    profile = np.cumsum(xs @ instance.c_weights)
    return Trajectory(
        decisions=xs,
        hitting_cost=cost.hitting,
        switching_cost=cost.switching,
        utilization_profile=profile,
    )


def validate_instance(instance: Instance) -> list[str]:
    """Check instance invariants; returns human-readable violations (empty if valid)."""
    v: list[str] = []
    if instance.d < 1:
        v.append(f"d must be >= 1, got {instance.d}")
    if instance.T < 1:
        v.append(f"T must be >= 1, got {instance.T}")
    arrays = ((instance.L, instance.U), instance.c_weights, instance.w_weights, instance.costs)
    if not all(np.isfinite(a).all() for a in arrays):
        v.append("L, U, c, w and costs must be finite")
        return v
    if not (0 < instance.L <= instance.U):
        v.append(f"need 0 < L <= U, got L={instance.L}, U={instance.U}")
    if instance.c_weights.shape != (instance.d,):
        v.append(f"c_weights shape {instance.c_weights.shape} != ({instance.d},)")
        return v
    if instance.w_weights.shape != (instance.d,):
        v.append(f"w_weights shape {instance.w_weights.shape} != ({instance.d},)")
        return v
    if instance.costs.shape != (instance.T, instance.d):
        v.append(
            f"costs shape {instance.costs.shape} != ({instance.T}, {instance.d})"
        )
        return v
    if np.any(instance.c_weights <= 0):
        v.append("c_weights must be strictly positive")
        return v
    if np.any(instance.w_weights < 0):
        v.append("w_weights must be non-negative")
    rates = instance.costs / instance.c_weights
    if np.any(rates < instance.L - FEAS_TOL) or np.any(rates > instance.U + FEAS_TOL):
        lo, hi = float(np.min(rates)), float(np.max(rates))
        v.append(
            f"per-unit prices must lie in [L, U] = [{instance.L}, {instance.U}], "
            f"observed range [{lo}, {hi}]"
        )
    if instance.L < instance.U:
        limit = (instance.U - instance.L) / 2.0
        if instance.beta >= limit:
            v.append(
                f"beta = max w/c = {instance.beta} must be < (U - L)/2 = {limit}"
            )
    elif instance.beta > 0:
        v.append("L == U requires all-zero switching weights")
    if instance.T * float(np.max(instance.c_weights)) < 1.0 - FEAS_TOL:
        v.append(
            "long-term constraint unreachable: T * max_i c^i = "
            f"{instance.T * float(np.max(instance.c_weights))} < 1"
        )
    return v


def decision_violations(instance: Instance, x, cap: float = 1.0) -> list[str]:
    """Feasibility violations of a single decision against box and cap."""
    x = _as_vector(x, "x")
    if x.shape != (instance.d,):
        return [f"decision shape {x.shape} != ({instance.d},)"]
    v = []
    if np.any(x < -FEAS_TOL) or np.any(x > 1.0 + FEAS_TOL):
        v.append(f"decision leaves the unit box: {x}")
    cx = constraint_value(x, instance.c_weights)
    if cx > min(1.0, cap) + FEAS_TOL:
        v.append(f"c(x) = {cx} exceeds cap {min(1.0, cap)}")
    return v


def trajectory_violations(instance: Instance, decisions) -> list[str]:
    """Feasibility violations of a full run, including constraint completion."""
    xs = np.asarray(decisions, dtype=float)
    if xs.shape != (instance.T, instance.d):
        return [f"decisions shape {xs.shape} != ({instance.T}, {instance.d})"]
    v = []
    z = 0.0
    for t in range(instance.T):
        step = decision_violations(instance, xs[t], cap=1.0 - z)
        v.extend(f"step {t + 1}: {s}" for s in step)
        z += constraint_value(xs[t], instance.c_weights)
    if z < 1.0 - FEAS_TOL:
        v.append(f"final utilization {z} < 1")
    return v


def compulsory_start(t: int, z: float, instance: Instance) -> bool:
    """Whether the compulsory trade is active at step t given utilization z.

    ``instance`` is an Instance or anything carrying its ``T`` and
    ``c_weights``, such as an incremental player.  True once the steps
    remaining after this one can no longer close the residual constraint
    even at maximal throughput, i.e. ``(T - t) * c^i < 1 - z`` for every
    coordinate: from then on, step t must buy what the later steps cannot.
    """
    if not 1 <= t <= instance.T:
        raise DomainError(f"step index {t} outside 1..{instance.T}")
    return bool(np.all((instance.T - t) * instance.c_weights < 1.0 - z))


# Serialization: one JSON document per instance.  Field names are part of the
# CLI contract; instances round-trip exactly (binary64 via repr).


def instance_to_dict(instance: Instance) -> dict:
    return {
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


def _is_number(value, integer: bool = False) -> bool:
    """A JSON number (an integer when ``integer``), not a boolean."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise ConfigError(f"instance document must be a JSON object, got {type(doc).__name__}")
    seed = doc.get("seed")
    if seed is not None and not _is_number(seed, integer=True):
        raise ConfigError(
            f"instance document seed must be an integer or null, got {type(seed).__name__}"
        )
    gc = doc.get("generator_config")
    if gc is not None and not isinstance(gc, dict):
        raise ConfigError(
            f"instance document generator_config must be an object or null, got {type(gc).__name__}"
        )
    for key in ("index", "sigma", "beta_nominal"):
        if gc and key in gc and not _is_number(gc[key], integer=key == "index"):
            kind = "an integer" if key == "index" else "a number"
            raise ConfigError(f"instance document generator_config.{key} must be {kind}, "
                              f"got {type(gc[key]).__name__}")
    try:
        return Instance(
            d=int(doc["d"]),
            T=int(doc["T"]),
            L=float(doc["L"]),
            U=float(doc["U"]),
            c_weights=np.asarray(doc["c"], dtype=float),
            w_weights=np.asarray(doc["w"], dtype=float),
            costs=np.asarray(doc["costs"], dtype=float),
            seed=seed,
            generator_config=gc,
        )
    except KeyError as exc:
        raise ConfigError(f"instance document missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"instance document has a malformed field: {exc}") from exc


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=None, separators=(",", ":"))
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path} is not a JSON instance document: {exc}") from exc
    try:
        return instance_from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
