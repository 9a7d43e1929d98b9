"""Threshold machinery for pseudo-cost minimization.

The online algorithms in this package price utilization through a decreasing
threshold function ``phi`` on [0, 1].  Its decay rate ``alpha`` is the optimal
competitive ratio for the problem class and is obtained in closed form from
the principal branch of the Lambert W function, with an independent bisection
root-finder used as a construction-time cross-check.

The advice-aware variant ``phi_eps`` decays at rate ``gamma_eps``, the target
robustness factor for a given consistency slack ``epsilon``; ``gamma_eps`` has
no closed form and is computed by bisection.  Both are one formula keyed by
the decay rate (:func:`phi_rate`, :func:`phi_rate_integral`), and
``ThresholdParams.rate`` is the rate the step solvers price with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, NumericError

_BISECT_TOL = 1e-12
_BISECT_MAX_ITER = 200
# Slack allowed when checking that the public threshold functions' arguments
# lie in the unit interval and are in order.
_UNIT_SLACK = 1e-12


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for real ``x >= -1/e``.

    Solves ``w * exp(w) = x`` for the branch with ``w >= -1``, by Halley's
    iteration from a piecewise initial guess.

    Parameters
    ----------
    x : float
        Argument, must satisfy ``x >= -1/e`` up to a 1e-12 slack.

    Returns
    -------
    float
        ``W_0(x)``, with residual ``|w exp(w) - x| <= 1e-13 * max(1, |x|)``.

    Raises
    ------
    NumericError
        When the iteration does not meet that residual.  That happens only
        above about 2.76e307, where ``w exp(w)`` or the Halley step overflows.
    """
    x = float(x)
    branch = -1.0 / math.e
    if x < branch - 1e-12:
        raise DomainError(f"lambert_w0 argument {x} below -1/e")
    if x <= branch:
        return -1.0
    if x == 0.0:
        return 0.0

    # Initial guess: branch-point series near -1/e, w ~= x near 0, asymptotic
    # log form for large arguments.
    if x < -0.25:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif x < 1.0:
        w = x * math.exp(-x)
    else:
        lx = math.log(x)
        llx = math.log(lx) if lx > 0 else 0.0
        w = lx - llx

    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            return w
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise NumericError(f"lambert_w0 failed to certify residual at x={x}")


def _validate_lub(L: float, U: float, beta: float) -> None:
    if not (0 < L <= U):
        raise DomainError(f"need 0 < L <= U, got L={L}, U={U}")
    if beta < 0:
        raise DomainError(f"beta must be non-negative, got {beta}")
    if L == U:
        if beta != 0:
            raise DomainError("L == U admits only beta == 0")
    elif beta >= (U - L) / 2.0:
        raise DomainError(f"beta = {beta} must be < (U - L)/2 = {(U - L) / 2.0}")


def compute_alpha(L: float, U: float, beta: float) -> float:
    """Optimal competitive ratio for price bounds [L, U] and switching level beta.

    Closed form via the Lambert W principal branch; the result is verified at
    construction against an independent bisection solve of the defining fixed
    point ``(U - L - 2 beta) / (U - U/alpha - 2 beta) = exp(1/alpha)``.
    Lies in ``[1, U/L]``; equals 1 exactly when L == U (and beta == 0).
    """
    _validate_lub(L, U, beta)
    if L == U:
        return 1.0
    u = 2.0 * beta / U
    ell = L / U
    w = lambert_w0((u + ell - 1.0) * math.exp(u - 1.0))
    alpha = 1.0 / (w + 1.0 - u)
    check = compute_alpha_bisection(L, U, beta)
    if abs(alpha - check) > 1e-9 * max(1.0, abs(alpha)):
        raise NumericError(
            f"alpha routes disagree: closed form {alpha} vs bisection {check}"
        )
    return alpha


def compute_alpha_bisection(L: float, U: float, beta: float) -> float:
    """Reference route for alpha: bisection on its defining fixed point.

    Kept separate from :func:`compute_alpha` so the two derivations stay
    independent; do not fold one into the other.
    """
    _validate_lub(L, U, beta)
    if L == U:
        return 1.0

    def h(a: float) -> float:
        return (U - L - 2.0 * beta) - (U - U / a - 2.0 * beta) * math.exp(1.0 / a)

    # h(1) = (U - L - 2 beta) + 2 beta e > 0 and h(U/L) < 0.
    lo, hi = _bisect(h, 1.0, U / L)
    return 0.5 * (lo + hi)


def _bisect(f, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi], keeping f(lo) > 0 >= f(hi), until it is no wider than
    _BISECT_TOL relative to lo (or _BISECT_MAX_ITER halvings); returns the
    final bracket."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL * max(1.0, lo):
            break
    return lo, hi


def compute_gamma(L: float, U: float, beta: float, epsilon: float) -> float:
    """Robustness factor gamma_eps for consistency slack epsilon in [0, alpha - 1].

    Unique root in ``(U/(U - 2 beta), U/L]`` of

        gamma = epsilon + U/L - (gamma/L) (U - L) ln((U-L-2b)/(U - U/gamma - 2b)).

    Endpoints: ``gamma_0 = U/L`` (no slack buys no robustness improvement) and
    ``gamma_{alpha-1} = alpha``.  Decreases as epsilon grows.
    """
    return _gamma(L, U, beta, epsilon, compute_alpha(L, U, beta))


def _gamma(L: float, U: float, beta: float, epsilon: float, alpha: float) -> float:
    """``compute_gamma`` for valid (L, U, beta) whose certified alpha is
    given."""
    if epsilon < 0 or epsilon > alpha - 1.0 + 1e-12:
        raise DomainError(
            f"epsilon = {epsilon} outside [0, alpha - 1] = [0, {alpha - 1.0}]"
        )
    if L == U:
        return 1.0
    if epsilon == 0.0:
        return U / L

    def F(g: float) -> float:
        arg = (U - L - 2.0 * beta) / (U - U / g - 2.0 * beta)
        return g - epsilon - U / L + (g / L) * (U - L) * math.log(arg)

    lo_start = U / (U - 2.0 * beta) + 1e-12
    # F -> +inf at the lower bracket edge and F(U/L) = -epsilon < 0.
    lo, hi = _bisect(F, lo_start, U / L)
    # Certified when F changes sign across a bracket no wider than the
    # tolerance.  A residual test cannot work here: next to the pole F is
    # too steep for any point of the bracket to make it small.
    f_lo = F(lo) if lo != lo_start else math.inf
    f_hi = F(hi)
    if not f_lo > 0.0 >= f_hi or hi - lo > _BISECT_TOL * max(1.0, lo):
        raise NumericError(
            f"gamma bisection did not certify a root: F({lo}) = {f_lo}, "
            f"F({hi}) = {f_hi}"
        )
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ThresholdParams:
    """Frozen bundle of price bounds and derived threshold constants.

    ``epsilon`` and ``gamma_eps`` are only set for advice-aware runs; the
    plain threshold uses ``alpha``.
    """

    L: float
    U: float
    beta: float
    alpha: float
    epsilon: float | None = None
    gamma_eps: float | None = None

    @property
    def rate(self) -> float:
        """Decay rate of the threshold the step solvers price with:
        ``gamma_eps`` when set (``phi_eps``), else ``alpha`` (``phi``)."""
        return self.alpha if self.gamma_eps is None else self.gamma_eps


def make_threshold_params(
    L: float, U: float, beta: float, epsilon: float | None = None
) -> ThresholdParams:
    """Validate inputs and derive alpha (and gamma_eps when epsilon is given)."""
    alpha = compute_alpha(L, U, beta)
    gamma = None
    if epsilon is not None:
        gamma = _gamma(L, U, beta, epsilon, alpha)
    return ThresholdParams(
        L=float(L), U=float(U), beta=float(beta), alpha=alpha,
        epsilon=None if epsilon is None else float(epsilon), gamma_eps=gamma,
    )


def _check_unit_range(z, name: str) -> np.ndarray:
    arr = np.asarray(z, dtype=float)
    if np.any(arr < -_UNIT_SLACK) or np.any(arr > 1.0 + _UNIT_SLACK):
        raise DomainError(f"{name} must lie in [0, 1], got {arr}")
    return np.clip(arr, 0.0, 1.0)


def phi_rate_coeff(U: float, beta: float, rate: float) -> float:
    """Coefficient of exp(z / rate) in the threshold decaying at ``rate``;
    negative unless L == U."""
    return U / rate - U + 2.0 * beta


def phi_rate(z, U: float, beta: float, rate: float, exp=math.exp):
    """The threshold decaying at ``rate`` (alpha for phi, gamma_eps for
    phi_eps) at utilization z: U - beta + (U/rate - U + 2 beta) e^(z/rate).
    Unvalidated; ``exp`` is ``math.exp`` for the step solvers' floats and
    ``np.exp`` for arrays."""
    return U - beta + phi_rate_coeff(U, beta, rate) * exp(z / rate)


def phi_rate_integral(z1, z2, U: float, beta: float, rate: float, exp=math.exp):
    """Integral of :func:`phi_rate` over [z1, z2].  Unvalidated: the caller
    keeps 0 <= z1 <= z2 <= 1."""
    return (U - beta) * (z2 - z1) + rate * phi_rate_coeff(U, beta, rate) * (
        exp(z2 / rate) - exp(z1 / rate)
    )


def _augmented_rate(params: ThresholdParams, caller: str) -> float:
    if params.gamma_eps is None:
        raise DomainError(f"{caller} requires params built with an epsilon")
    return params.gamma_eps


def _value(z, params: ThresholdParams, rate: float, name: str):
    z = _check_unit_range(z, name)
    out = phi_rate(z, params.U, params.beta, rate, np.exp)
    return float(out) if out.ndim == 0 else out


def _integral(z1, z2, params: ThresholdParams, rate: float, caller: str, names: tuple):
    z1 = _check_unit_range(z1, names[0])
    z2 = _check_unit_range(z2, names[1])
    if np.any(z2 < z1 - _UNIT_SLACK):
        raise DomainError(f"{caller} requires {names[0]} <= {names[1]}")
    out = phi_rate_integral(z1, np.maximum(z1, z2), params.U, params.beta, rate, np.exp)
    return float(out) if out.ndim == 0 else out


def phi(z, params: ThresholdParams):
    """Threshold value at utilization z; decreasing from U/alpha + beta to L + beta."""
    return _value(z, params, params.alpha, "z")


def phi_integral(z1, z2, params: ThresholdParams):
    """Exact integral of phi over [z1, z2] for 0 <= z1 <= z2 <= 1 (closed form)."""
    return _integral(z1, z2, params, params.alpha, "phi_integral", ("z1", "z2"))


def phi_eps(p, params: ThresholdParams):
    """Advice-aware threshold at pseudo-utilization p (requires gamma_eps)."""
    return _value(p, params, _augmented_rate(params, "phi_eps"), "p")


def phi_eps_integral(p1, p2, params: ThresholdParams):
    """Exact integral of phi_eps over [p1, p2] (closed form)."""
    rate = _augmented_rate(params, "phi_eps_integral")
    return _integral(p1, p2, params, rate, "phi_eps_integral", ("p1", "p2"))


def z_pcm(params: ThresholdParams) -> float:
    """Utilization the robust pricing rule is willing to reach on its own.

    Defined by ``phi_eps(z_pcm) = L + beta``; equals 1 when epsilon = alpha - 1
    (pure robust play) and 0 when epsilon = 0 (advice followed exactly).
    """
    if params.gamma_eps is None:
        raise DomainError("z_pcm requires params built with an epsilon")
    g = params.gamma_eps
    if params.L == params.U:
        return 1.0
    arg = (params.U - params.L - 2.0 * params.beta) / (
        params.U - params.U / g - 2.0 * params.beta
    )
    return float(min(1.0, max(0.0, g * math.log(arg))))
