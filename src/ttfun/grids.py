"""Base-b tensorization of [0, 1): conversion map, leaves and leaf norms.

The conversion map sends (i_1, ..., i_d, y) to sum_k i_k b^-k + b^-d y,
identifying a point x in [0, 1) with d digits and a remainder y in [0, 1).
All intervals are half open; points that land exactly on a grid line belong
to the interval on their right. x < 1 rounds x b below b, so no clamp is needed.
Every integer parameter of the library goes through _check_int.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# Flat leaf indices must stay addressable as int64 (dense sweeps use them).
_MAX_LEAVES = 2**62


class DomainError(ValueError):
    """Raised when an argument leaves the domain of an operation."""


def _check_tol(tol, name: str = "tol"):
    """DomainError unless tol >= 0; NaN fails the comparison, so it is
    rejected too rather than read as a tolerance that keeps nothing."""
    if not tol >= 0:
        raise DomainError(f"{name} must be >= 0, got {tol}")


def _is_int(value) -> bool:
    """Whether value is an int or a numpy integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, low=None, high=None):
    """value, or DomainError unless it is an integer (_is_int) in low..high;
    a None end is open."""
    if not _is_int(value):
        raise DomainError(f"{name} {value!r} is not an integer")
    if (low is not None and value < low) or (high is not None and value > high):
        if high is None:
            raise DomainError(f"{name} must be >= {low}, got {value}")
        raise DomainError(f"{name} {value} outside {low}..{high}")
    return value


def _check_p(p):
    """DomainError unless the L^p exponent p > 0 (NaN fails too)."""
    if not p > 0:
        raise DomainError(f"p must be positive, got {p}")


@dataclass(frozen=True)
class Grid:
    """Uniform base-b partition of [0, 1) at depth d (b^d leaves)."""

    base: int
    depth: int

    def __post_init__(self):
        _check_int("base", self.base, 2)
        _check_int("depth", self.depth, 0)
        if self.base**self.depth >= _MAX_LEAVES:
            raise DomainError(
                f"b^d = {self.base}^{self.depth} exceeds the desk-scale guard"
            )

    @property
    def leaf_count(self) -> int:
        return self.base**self.depth

    @property
    def leaf_width(self) -> float:
        return float(self.base) ** (-self.depth)


def _check_digits(digits, base: int):
    """DomainError unless every digit is an integer in 0..base-1."""
    for k, i in enumerate(digits, start=1):
        _check_int(f"digit i_{k}", i, 0, base - 1)


@dataclass(frozen=True)
class MultiIndexPoint:
    """A point of [0, 1) in factored form: digits plus remainder."""

    base: int
    digits: tuple
    remainder: float

    def __post_init__(self):
        if not 0.0 <= self.remainder < 1.0:
            raise DomainError(f"remainder {self.remainder} outside [0, 1)")
        _check_digits(self.digits, _check_int("base", self.base, 2))


@dataclass(frozen=True)
class LeafIndex:
    """One depth-d leaf, addressed by its flat index j in 0..b^d - 1."""

    grid: Grid
    flat: int

    def __post_init__(self):
        _check_int("leaf index", self.flat, 0, self.grid.leaf_count - 1)

    @property
    def digits(self) -> tuple:
        return flat_to_digits(self.flat, self.grid)

    @classmethod
    def from_digits(cls, digits: Sequence[int], grid: Grid) -> "LeafIndex":
        return cls(grid, digits_to_flat(digits, grid))


def digits_to_flat(digits: Sequence[int], grid: Grid) -> int:
    """Flat index j = sum_k i_k b^(d-k)."""
    if len(digits) != grid.depth:
        raise DomainError(f"expected {grid.depth} digits, got {len(digits)}")
    _check_digits(digits, grid.base)
    j = 0
    for i in digits:
        j = j * grid.base + int(i)
    return j


def flat_to_digits(flat: int, grid: Grid) -> tuple:
    out = []
    j = int(_check_int("leaf index", flat))
    for _ in range(grid.depth):
        j, r = divmod(j, grid.base)
        out.append(r)
    return tuple(reversed(out))


def encode_point(x: float, grid: Grid) -> MultiIndexPoint:
    """Factor x in [0, 1) into depth-d digits and a remainder (the digit
    rule of encode_points, in Python floats)."""
    digits, t = _point_digits(float(x), grid)
    return MultiIndexPoint(grid.base, tuple(digits), t)


def decode_point(p: MultiIndexPoint) -> float:
    """Evaluate the conversion map: sum_k i_k b^-k + b^-d y."""
    b = p.base
    x = 0.0
    for k, i in enumerate(p.digits, start=1):
        x += i * float(b) ** (-k)
    x += p.remainder * float(b) ** (-len(p.digits))
    if not 0.0 <= x < 1.0:
        raise DomainError(f"decoded point {x} outside [0, 1)")
    return x


def encode_points(x: np.ndarray, grid: Grid) -> tuple:
    """Factor points in [0, 1): returns (digits array of shape (n, d), remainders).

    Digits come from repeated multiply-by-b and floor on the running
    fractional part; boundary ties resolve downward, so a grid point gets
    remainder 0 and belongs to the interval on its right. No clamp: as
    x <= 1 - 2^-53, x b rounds below b for b <= 2^53, so every digit is < b.
    The digits of level k are written as row k of a (d, n) matrix, and the
    digits returned are its transpose, a view: digits.T holds one row per
    level. NaN and infinite points are outside [0, 1).
    """
    t = np.array(x, dtype=float)
    frac = t.reshape(-1)  # a view of the copy: the running fractions
    inside = (frac >= 0.0) & (frac < 1.0)
    if not inside.all():
        raise DomainError(f"point {float(frac[~inside][0])} outside [0, 1)")
    b = grid.base
    rows = np.empty((grid.depth, frac.size), dtype=np.int64)
    # frac is updated in place: the same IEEE operations as x * b and x - i,
    # without a temporary per level
    for i in rows:
        np.multiply(frac, b, out=frac)
        i[...] = frac  # frac >= 0: the cast is the floor
        np.subtract(frac, i, out=frac)
    return rows.T, t


def _point_digits(x: float, grid: Grid) -> tuple:
    """The digit rule of encode_points for one point, in Python floats:
    returns (digits as a list of ints, remainder). The same IEEE operations
    as the array rule, so both give the same bits and need no clamp."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"point {x} outside [0, 1)")
    b = grid.base
    digits = []
    for _ in range(grid.depth):
        x *= b
        i = int(x)  # the floor, since x >= 0
        x -= i
        digits.append(i)
    return digits, x


def leaf_restriction(f: Callable, grid: Grid, j) -> Callable:
    """Restrict f to leaf j and rescale to [0, 1): y -> f(b^-d (j + y)), for
    y in [0, 1) (DomainError naming a point outside it, NaN included)."""
    j = LeafIndex(grid, j.flat if isinstance(j, LeafIndex) else j).flat
    w = grid.leaf_width

    def g(y):
        # the remainders at depth 0 are the points themselves, once checked
        return f((j + encode_points(y, Grid(grid.base, 0))[1]) * w)

    return g


def lp_norm_from_leaves(leaf_norms: Sequence[float], grid: Grid, p: float) -> float:
    """Combine per-leaf L^p norms into the norm on [0, 1).

    ||f||_p^p = b^-d sum_j ||f(b^-d (j + .))||_p^p for finite p; the max of
    the leaf norms for p = inf.
    """
    _check_p(p)
    norms = np.asarray(leaf_norms, dtype=float)
    if norms.size != grid.leaf_count:
        raise DomainError(f"expected {grid.leaf_count} leaf norms, got {norms.size}")
    if not np.all(norms >= 0):  # NaN too
        raise DomainError("leaf norms must be nonnegative")
    scale = norms.max()
    if math.isinf(p) or scale in (0.0, math.inf):
        return float(scale)
    # factor out the peak to keep powers in range for large p; the power is
    # taken in place, so one temporary the size of the norms is held
    ratios = norms / scale
    ratios **= p
    return float(scale * (np.sum(ratios) / grid.leaf_count) ** (1.0 / p))
