import math

import numpy as np
import pytest
from scipy.integrate import quad

from ttfun.targets import get_target

P_POLY = np.polynomial.polynomial
POLY = (1.0, -2.0, 0.5, 3.0)


def _derivative(name, k):
    """f^(k) of a target, written out independently of ttfun.targets."""
    if name == "sin2pi":
        return lambda x: (2.0 * math.pi) ** k * np.sin(2.0 * math.pi * x + k * math.pi / 2.0)
    if name == "exp":
        return np.exp
    if name == "inv_xplus2":
        return lambda x: (-1.0) ** k * math.factorial(k) / (x + 2.0) ** (k + 1)
    der = P_POLY.polyder(POLY, k) if k < len(POLY) else np.zeros(1)
    return lambda x: P_POLY.polyval(x, der)


def _kinks(name, k):
    """The zeros of f^(k) inside (0, 1), where |f^(k)|^p has a kink."""
    if name == "sin2pi":
        return [0.5] if k % 2 == 0 else [0.25, 0.75]
    if name == "poly" and k < len(POLY) - 1:
        roots = P_POLY.polyroots(P_POLY.polyder(POLY, k))
        return sorted(r.real for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1)
    return []


def _reference(name, k, p):
    g = _derivative(name, k)
    if math.isinf(p):
        return float(np.abs(g(np.linspace(0.0, 1.0, 2_000_001))).max())
    val, _ = quad(
        lambda x: abs(float(g(x))) ** p, 0.0, 1.0,
        points=_kinks(name, k) or None, epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return val ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("name", ["sin2pi", "exp", "inv_xplus2", "poly"])
def test_closed_form_seminorms_match_quadrature(name, p):
    target = get_target("poly:" + ",".join(map(str, POLY)) if name == "poly" else name)
    for k in range(5):
        got, want = target.sobolev_seminorm(k, p), _reference(name, k, p)
        assert math.isclose(got, want, rel_tol=1e-8), (k, got, want)


@pytest.mark.parametrize("p", [12.0, 20.0, 25.0, 40.0])
def test_poly_seminorm_matches_the_closed_form_at_large_p(p):
    # ||2x - 1||_p = (p + 1)^(-1/p); the monomial antiderivative of
    # (2x - 1)^p cancels catastrophically at large p
    got = get_target("poly:-1,2").sobolev_seminorm(0, p)
    assert math.isclose(got, (p + 1) ** (-1 / p), rel_tol=1e-12)


@pytest.mark.parametrize("name", ["haar", "hat"])
def test_the_mother_targets_sample_their_trains(name):
    x = np.mod(0.5 + np.arange(1, 201) * 0.6180339887498949, 1.0)
    want = np.where(x < 0.5, -1.0, 1.0) if name == "haar" else 1.0 - np.abs(2.0 * x - 1.0)
    target = get_target(name)
    assert target.name == name
    assert np.abs(target.sampler(x) - want).max() < 1e-14
