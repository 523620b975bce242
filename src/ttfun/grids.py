"""Base-b tensorization of [0, 1): conversion map, leaves and leaf norms.

The conversion map sends (i_1, ..., i_d, y) to sum_k i_k b^-k + b^-d y,
identifying a point x in [0, 1) with d digits and a remainder y in [0, 1).
All intervals are half open; points that land exactly on a grid line belong
to the interval on their right.
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


@dataclass(frozen=True)
class Grid:
    """Uniform base-b partition of [0, 1) at depth d (b^d leaves)."""

    base: int
    depth: int

    def __post_init__(self):
        if self.base < 2:
            raise DomainError(f"base must be >= 2, got {self.base}")
        if self.depth < 0:
            raise DomainError(f"depth must be >= 0, got {self.depth}")
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


@dataclass(frozen=True)
class MultiIndexPoint:
    """A point of [0, 1) in factored form: digits plus remainder."""

    base: int
    digits: tuple
    remainder: float

    def __post_init__(self):
        if not 0.0 <= self.remainder < 1.0:
            raise DomainError(f"remainder {self.remainder} outside [0, 1)")
        for k, i in enumerate(self.digits):
            if not 0 <= i < self.base:
                raise DomainError(f"digit {i} at position {k + 1} outside 0..{self.base - 1}")


@dataclass(frozen=True)
class LeafIndex:
    """One depth-d leaf, addressed by its flat index j in 0..b^d - 1."""

    grid: Grid
    flat: int

    def __post_init__(self):
        if not 0 <= self.flat < self.grid.leaf_count:
            raise DomainError(f"leaf index {self.flat} outside 0..{self.grid.leaf_count - 1}")

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
    j = 0
    for i in digits:
        if not 0 <= i < grid.base:
            raise DomainError(f"digit {i} outside 0..{grid.base - 1}")
        j = j * grid.base + int(i)
    return j


def flat_to_digits(flat: int, grid: Grid) -> tuple:
    out = []
    j = int(flat)
    for _ in range(grid.depth):
        j, r = divmod(j, grid.base)
        out.append(r)
    return tuple(reversed(out))


def encode_point(x: float, grid: Grid) -> MultiIndexPoint:
    """Factor x in [0, 1) into depth-d digits and a remainder.

    A one-point call of encode_points, so both share one digit path.
    """
    digits, t = encode_points(np.array([float(x)]), grid)
    return MultiIndexPoint(grid.base, tuple(digits[0].tolist()), float(t[0]))


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
    remainder 0 and belongs to the interval on its right. NaN and infinite
    points are outside [0, 1).
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x < 1.0)
    if not np.all(inside):
        raise DomainError(f"point {float(x[~inside].flat[0])} outside [0, 1)")
    b = grid.base
    t = x.copy()
    digits = np.empty((x.size, grid.depth), dtype=np.int64)
    for k in range(grid.depth):
        t = t * b
        i = np.floor(t).astype(np.int64)
        np.minimum(i, b - 1, out=i)
        digits[:, k] = i
        t = t - i
    np.clip(t, 0.0, np.nextafter(1.0, 0.0), out=t)
    return digits, t


def leaf_restriction(f: Callable, grid: Grid, j) -> Callable:
    """Restrict f to leaf j and rescale to [0, 1): y -> f(b^-d (j + y))."""
    if isinstance(j, LeafIndex):
        j = j.flat
    if not 0 <= j < grid.leaf_count:
        raise DomainError(f"leaf index {j} outside 0..{grid.leaf_count - 1}")
    w = grid.leaf_width

    def g(y):
        return f((j + np.asarray(y)) * w)

    return g


def lp_norm_from_leaves(leaf_norms: Sequence[float], grid: Grid, p: float) -> float:
    """Combine per-leaf L^p norms into the norm on [0, 1).

    ||f||_p^p = b^-d sum_j ||f(b^-d (j + .))||_p^p for finite p; the max of
    the leaf norms for p = inf.
    """
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    norms = np.asarray(leaf_norms, dtype=float)
    if norms.size != grid.leaf_count:
        raise DomainError(f"expected {grid.leaf_count} leaf norms, got {norms.size}")
    if np.any(norms < 0):
        raise DomainError("leaf norms must be nonnegative")
    if math.isinf(p):
        return float(norms.max()) if norms.size else 0.0
    scale = norms.max()
    if scale == 0.0:
        return 0.0
    # factor out the peak to keep powers in range for large p
    return float(scale * (np.sum((norms / scale) ** p) / grid.leaf_count) ** (1.0 / p))
