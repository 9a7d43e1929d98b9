"""Threshold constants and the threshold family.

Closed forms are checked against independent oracles: quadrature for the
integrals, plain bisection on the defining equations for alpha and gamma.
"""

import math

import numpy as np
import pytest

from oracles import bisection_checked_alpha

import cflbench.thresholds as thresholds
from cflbench.cli import main
from cflbench.core import DomainError, NumericError
from cflbench.thresholds import (
    compute_alpha,
    compute_alpha_bisection,
    compute_gamma,
    lambert_w0,
    make_threshold_params,
    phi,
    phi_eps,
    phi_eps_integral,
    phi_integral,
    z_pcm,
)

# frozen from the bisection oracle below (300 halvings on the defining
# equation), cross-checked against the closed form to 3e-14 relative
ALPHA_1_250_50 = 101.72993742279644
ALPHA_1_250_0 = 11.510060402008913
GAMMA_1_250_50_EPS2 = 247.02030034392087
# omega constant, literature value
W_AT_ONE = 0.5671432904097838


def alpha_oracle(L, U, b):
    """Bisection on e^{1/a} = (U-L-2b)/(U - U/a - 2b), independent of W."""
    lo = U / (U - 2 * b) + 1e-12 if b > 0 else 1.0 + 1e-12
    hi = U / L

    def g(a):
        return (U - L - 2 * b) / (U - U / a - 2 * b) - math.exp(1.0 / a)

    glo = g(lo)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def simpson(f, a, b, n=4000):
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_lambert_identity_points():
    assert lambert_w0(0.0) == pytest.approx(0.0, abs=1e-15)
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)
    assert lambert_w0(1.0) == pytest.approx(W_AT_ONE, rel=1e-12)
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-6)


def test_lambert_residual_random():
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = float(rng.uniform(-1.0 / math.e + 1e-9, 50.0))
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) < 1e-9 * max(1.0, abs(x))


def test_lambert_domain():
    with pytest.raises(DomainError):
        lambert_w0(-1.0)


@pytest.mark.parametrize("x", [9e307, 1e308])
def test_lambert_uncertified_raises_numeric_error(x):
    # w exp(w) and the Halley step overflow up here, so no root is
    # certified: a NumericError (exit 3), not an OverflowError traceback.
    with pytest.raises(NumericError):
        lambert_w0(x)


def test_alpha_headline_values():
    assert compute_alpha(1.0, 250.0, 50.0) == pytest.approx(ALPHA_1_250_50, rel=1e-12)
    assert compute_alpha(1.0, 250.0, 0.0) == pytest.approx(ALPHA_1_250_0, rel=1e-12)


def test_alpha_against_bisection_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        L = float(rng.uniform(0.5, 5.0))
        U = L * float(rng.uniform(1.5, 300.0))
        b = float(rng.uniform(0.0, 0.49)) * (U - L)
        got = compute_alpha(L, U, b)
        ref = alpha_oracle(L, U, b)
        assert abs(got - ref) < 1e-9 * ref
        # package's own second route must agree too
        assert abs(compute_alpha_bisection(L, U, b) - got) < 1e-9 * got


def test_alpha_endpoints():
    # L == U collapses the search band to a single price
    assert compute_alpha(3.0, 3.0, 0.0) == pytest.approx(1.0)
    # beta near (U-L)/2 forces alpha toward U/L
    L, U = 1.0, 50.0
    b = (U - L) / 2.0 * (1 - 1e-9)
    assert compute_alpha(L, U, b) == pytest.approx(U / L, rel=1e-4)


def test_alpha_rejects_bad_domain():
    with pytest.raises(DomainError):
        compute_alpha(1.0, 10.0, 4.5)  # beta == (U-L)/2
    with pytest.raises(DomainError):
        compute_alpha(0.0, 10.0, 0.0)
    with pytest.raises(DomainError):
        compute_alpha(10.0, 1.0, 0.0)


def test_params_rate_is_the_active_threshold_rate():
    plain = make_threshold_params(1.0, 250.0, 50.0)
    augmented = make_threshold_params(1.0, 250.0, 50.0, epsilon=2.0)
    assert plain.rate == plain.alpha
    assert augmented.rate == augmented.gamma_eps != augmented.alpha


def test_phi_boundary_values():
    p = make_threshold_params(1.0, 250.0, 50.0)
    assert float(phi(0.0, p)) == pytest.approx(250.0 / p.alpha + 50.0, rel=1e-12)
    assert float(phi(1.0, p)) == pytest.approx(1.0 + 50.0, rel=1e-12)
    grid = np.linspace(0, 1, 101)
    vals = phi(grid, p)
    assert np.all(np.diff(vals) <= 1e-12)  # non-increasing toward L + beta


def test_phi_integral_against_quadrature():
    rng = np.random.default_rng(23)
    for _ in range(40):
        L = float(rng.uniform(0.5, 3.0))
        U = L * float(rng.uniform(2.0, 200.0))
        b = float(rng.uniform(0.0, 0.45)) * (U - L)
        p = make_threshold_params(L, U, b)
        z1, z2 = sorted(rng.uniform(0, 1, 2).tolist())
        ref = simpson(lambda z: float(phi(z, p)), z1, z2)
        assert float(phi_integral(z1, z2, p)) == pytest.approx(ref, abs=1e-7 * U)


def test_threshold_identity():
    # integral_0^z phi + beta z + (1-z) U == alpha (phi(z) - beta) for all z
    rng = np.random.default_rng(31)
    for _ in range(50):
        L = float(rng.uniform(0.5, 3.0))
        U = L * float(rng.uniform(1.5, 300.0))
        b = float(rng.uniform(0.0, 0.49)) * (U - L)
        p = make_threshold_params(L, U, b)
        z = np.linspace(0, 1, 257)
        lhs = phi_integral(0.0, z, p) + b * z + (1 - z) * U
        rhs = p.alpha * (phi(z, p) - b)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * U


def test_gamma_endpoints_and_value():
    L, U, b = 1.0, 250.0, 50.0
    a = compute_alpha(L, U, b)
    assert compute_gamma(L, U, b, a - 1.0) == pytest.approx(a, rel=1e-6)
    assert compute_gamma(L, U, b, 1e-12) == pytest.approx(U / L, rel=1e-6)
    assert compute_gamma(L, U, b, 2.0) == pytest.approx(GAMMA_1_250_50_EPS2, rel=1e-9)


def test_gamma_monotone_in_epsilon():
    # looser consistency target -> stronger robustness (smaller gamma)
    L, U, b = 1.0, 250.0, 50.0
    a = compute_alpha(L, U, b)
    eps = np.linspace(1e-6, a - 1.0, 25)
    gs = [compute_gamma(L, U, b, float(e)) for e in eps]
    assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gs[:-1], gs[1:]))


def gamma_oracle(L, U, b, eps):
    """Plain bisection on the gamma equation's sign, 300 halvings."""
    lo, hi = U / (U - 2 * b), U / L

    def F(g):
        arg = (U - L - 2 * b) / (U - U / g - 2 * b)
        return g - eps - U / L + (g / L) * (U - L) * math.log(arg)

    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if F(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("share", [1.0 - 1e-9, 1.0 - 1e-4, 1.0 - 1e-2])
def test_gamma_certified_next_to_beta_bound(share):
    # F is too steep near its pole for a residual test to pass here; the
    # bisection's sign change is the certificate.
    rng = np.random.default_rng(int(share * 1e9) % 1000)
    for _ in range(200):
        L = float(rng.uniform(0.3, 5.0))
        U = L * float(rng.uniform(1.2, 400.0))
        b = share * (U - L) / 2.0
        a = compute_alpha(L, U, b)
        eps = float(rng.uniform(0.01, 1.0)) * (a - 1.0)
        g = compute_gamma(L, U, b, eps)
        assert U / (U - 2 * b) < g <= U / L
        assert g == pytest.approx(gamma_oracle(L, U, b, eps), rel=1e-9)
        params = make_threshold_params(L, U, b, epsilon=eps)
        assert params.gamma_eps == g


def test_gamma_domain():
    L, U, b = 1.0, 250.0, 50.0
    a = compute_alpha(L, U, b)
    with pytest.raises(DomainError):
        compute_gamma(L, U, b, a - 0.9999)  # above alpha - 1
    with pytest.raises(DomainError):
        compute_gamma(L, U, b, -0.1)
    # the closed end of the interval is a defined value, not an error
    assert compute_gamma(L, U, b, 0.0) == pytest.approx(U / L)


def test_phi_eps_and_z_pcm_identity():
    # integral_0^{z_pcm} phi^eps + beta z_pcm + (1 - z_pcm) L == (1+eps) L
    rng = np.random.default_rng(41)
    for _ in range(30):
        L = float(rng.uniform(0.5, 3.0))
        U = L * float(rng.uniform(3.0, 300.0))
        b = float(rng.uniform(0.0, 0.45)) * (U - L)
        a = compute_alpha(L, U, b)
        eps = float(rng.uniform(1e-3, 1.0)) * (a - 1.0)
        p = make_threshold_params(L, U, b, epsilon=eps)
        zp = z_pcm(p)
        assert 0.0 <= zp <= 1.0
        lhs = float(phi_eps_integral(0.0, zp, p)) + b * zp + (1 - zp) * L
        assert lhs == pytest.approx((1 + eps) * L, abs=1e-8 * U)
        # the augmented threshold hits L + beta exactly at z_pcm
        assert float(phi_eps(zp, p)) == pytest.approx(L + b, abs=1e-8 * U)


def test_phi_eps_integral_against_quadrature():
    L, U, b = 1.0, 250.0, 50.0
    p = make_threshold_params(L, U, b, epsilon=2.0)
    ref = simpson(lambda z: float(phi_eps(z, p)), 0.1, 0.6)
    assert float(phi_eps_integral(0.1, 0.6, p)) == pytest.approx(ref, abs=1e-7 * U)


def test_phi_rejects_out_of_range():
    p = make_threshold_params(1.0, 10.0, 0.0)
    with pytest.raises(DomainError):
        phi(1.5, p)
    with pytest.raises(DomainError):
        phi(-0.2, p)


@pytest.mark.parametrize("L, U, beta, eps", [(1.0, 250.0, 50.0, 2.0), (1.0, 250.0, 0.0, 5.0),
                                             (2.0, 2.0, 0.0, 0.0), (1.0, 40.0, 19.0, 0.5)])
def test_params_certify_alpha_once(L, U, beta, eps, monkeypatch):
    # make_threshold_params hands its certified alpha to the gamma solve;
    # alpha and gamma_eps stay those of the public functions to the bit.
    expected = (compute_alpha(L, U, beta), compute_gamma(L, U, beta, eps))
    calls = []

    def counted(*args):
        calls.append(args)
        return compute_alpha(*args)

    monkeypatch.setattr(thresholds, "compute_alpha", counted)
    params = make_threshold_params(L, U, beta, epsilon=eps)
    assert len(calls) == 1
    assert (params.alpha, params.gamma_eps) == expected


def _verdict(route, L, U, beta):
    try:
        return route(L, U, beta)
    except NumericError:
        return "rejected"


def test_alpha_certificate_rejects_where_the_bisection_check_did():
    # The sign certificate h(alpha - tol) > 0 >= h(alpha + tol) accepts the
    # closed form exactly where the earlier check against a full bisection
    # run did, and returns the same double.  Draws: L in [0.01, 100], U/L
    # log-uniform up to 1e5, beta at 0, uniform below (U - L)/2, or within
    # a relative 1e-12..1e-1 of it.  About 1% are rejected by both, the
    # closed form's known inaccuracy at wide price ranges.  Above U/L of
    # about 3.6e5 the two verdicts can differ: there h's sign next to the
    # closed form and the bisection's midpoint both turn on rounding.
    rng = np.random.default_rng(2026)
    rejected = 0
    for _ in range(6000):
        L = 10.0 ** rng.uniform(-2.0, 2.0)
        U = L * 10.0 ** rng.uniform(0.0, 5.0)
        half = (U - L) / 2.0
        kind = rng.integers(3)
        if kind == 0:
            b = 0.0
        elif kind == 1:
            b = rng.uniform(0.0, 1.0) * half
        else:
            b = half * (1.0 - 10.0 ** rng.uniform(-12.0, -1.0))
        if not b < half:  # rounded onto the bound, or L == U
            b = 0.0
        old, new = _verdict(bisection_checked_alpha, L, U, b), _verdict(compute_alpha, L, U, b)
        assert old == new, (L, U, b, old, new)
        rejected += new == "rejected"
    assert 20 <= rejected <= 200


@pytest.mark.parametrize("L, U, beta", [(1.0, 250.0, 50.0), (1.0, 250.0, 0.0),
                                        (0.5, 20.0, 3.0), (3.0, 1000.0, 400.0)])
@pytest.mark.parametrize("factor", [1.0 + 1e-8, 1.0 - 1e-8])
def test_alpha_certificate_catches_a_perturbed_lambert_root(L, U, beta, factor, monkeypatch):
    # A Lambert W root off by 1e-8 relative moves alpha by |w| alpha 1e-8
    # relative (1e-7 to 6e-7 here), far outside the certificate's 1e-9
    # bracket, so h no longer changes sign across it.
    compute_alpha(L, U, beta)
    lambert = thresholds.lambert_w0
    monkeypatch.setattr(thresholds, "lambert_w0", lambda x: lambert(x) * factor)
    with pytest.raises(NumericError):
        compute_alpha(L, U, beta)


def test_cli_wide_price_range_is_a_numeric_failure(tmp_path, capsys):
    # At U/L = 1e5, beta = 0, the closed form is off by 7e-9 relative
    # (223.93994344716103 against a root near 223.939945039): the
    # certificate rejects it, and the sweep exits 3 with one line.
    argv = ["sweep", "--quick", "--cells", "d=5,u=100000,beta=0,sigma=50", "--algs", "alg1",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:") and err.count("\n") == 1, err
