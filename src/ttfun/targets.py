"""Builtin study targets with analytic smoothness metadata.

Registered targets carry closed-form derivative seminorms so that studies
never estimate smoothness numerically. Names with a parameter use a colon,
e.g. "x_pow:0.6".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import DomainError

_P = np.polynomial.polynomial


@dataclass(frozen=True)
class Target:
    name: str
    sampler: Callable
    # |f|_{W^{k,p}} = ||f^(k)||_p, exact where a closed form exists
    sobolev_seminorm: Optional[Callable] = None
    # adaptive-scale smoothness alpha(p) for singular targets
    besov_alpha: Optional[Callable] = None


def _sin_norm_p(p: float) -> float:
    """||sin(2 pi x + phase)||_p over one period, any phase."""
    if math.isinf(p):
        return 1.0
    if p == 1:
        return 2.0 / math.pi
    if p == 2:
        return 1.0 / math.sqrt(2.0)
    from scipy.integrate import quad

    val, _ = quad(lambda x: abs(math.sin(2 * math.pi * x)) ** p, 0.0, 1.0, limit=200)
    return val ** (1.0 / p)


def _sin2pi_seminorm(k: int, p: float) -> float:
    return (2.0 * math.pi) ** k * _sin_norm_p(p)


def _exp_seminorm(k: int, p: float) -> float:
    if math.isinf(p):
        return math.e
    return ((math.exp(p) - 1.0) / p) ** (1.0 / p)


def _inv_xplus2_seminorm(k: int, p: float) -> float:
    if math.isinf(p):
        return math.factorial(k) / 2.0 ** (k + 1)
    if p == 2:
        e = 2 * k + 1
        return math.factorial(k) * math.sqrt((2.0**-e - 3.0**-e) / e)
    from scipy.integrate import quad

    val, _ = quad(lambda x: (math.factorial(k) / (x + 2) ** (k + 1)) ** p, 0.0, 1.0)
    return val ** (1.0 / p)


def _poly_seminorm(c: np.ndarray, k: int, p: float) -> float:
    """||f^(k)||_p on [0, 1) for the polynomial f with coefficients c."""
    from .analysis import _unit_poly_lp

    return _unit_poly_lp(_P.polyder(c, k), p)


def _x_pow(alpha: float):
    def f(x):
        return np.asarray(x, dtype=float) ** alpha

    return f


def _number(name: str, text: str, kind=float):
    """text as a kind, or DomainError naming the target it parameterizes."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"target {name!r}: {text!r} is not a number") from None


def get_target(name: str) -> Target:
    """Resolve a target name (possibly parameterized) to its spec."""
    base, _, arg = name.partition(":")
    if base == "sin2pi":
        return Target(
            name,
            lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float)),
            sobolev_seminorm=_sin2pi_seminorm,
        )
    if base == "exp":
        return Target(
            name,
            lambda x: np.exp(np.asarray(x, dtype=float)),
            sobolev_seminorm=_exp_seminorm,
        )
    if base == "inv_xplus2":
        return Target(
            name,
            lambda x: 1.0 / (np.asarray(x, dtype=float) + 2.0),
            sobolev_seminorm=_inv_xplus2_seminorm,
        )
    if base == "poly":
        coeffs = np.array([_number(name, t) for t in arg.split(",")], dtype=float)
        return Target(
            name,
            lambda x: _P.polyval(np.asarray(x, dtype=float), coeffs),
            sobolev_seminorm=lambda k, p: _poly_seminorm(coeffs, k, p),
        )
    if base == "x_pow" or base == "sqrt":
        alpha = 0.5 if base == "sqrt" else _number(name, arg)
        if not 0 < alpha < 1:
            raise DomainError(f"x_pow exponent must be in (0, 1), got {alpha}")
        return Target(
            name,
            _x_pow(alpha),
            besov_alpha=lambda p, a=alpha: a + 1.0 / p,
        )
    if base == "haar":
        from .encoders import haar_mother

        tt = haar_mother()
        return Target(name, tt)
    if base == "hat":
        from .encoders import hat_mother

        tt = hat_mother()
        return Target(name, tt)
    if base == "sawtooth":
        from .encoders import sawtooth_function

        depth = _number(name, arg, int) if arg else 4
        return Target(name, sawtooth_function(depth))
    raise DomainError(f"unknown target {name!r}")
