import math

import numpy as np
import pytest

from ttfun.grids import (
    DomainError,
    Grid,
    LeafIndex,
    MultiIndexPoint,
    decode_point,
    digits_to_flat,
    encode_point,
    encode_points,
    flat_to_digits,
    leaf_restriction,
    lp_norm_from_leaves,
)


def test_grid_validation():
    assert Grid(2, 3).leaf_count == 8
    assert Grid(3, 0).leaf_count == 1
    with pytest.raises(DomainError):
        Grid(1, 3)
    with pytest.raises(DomainError):
        Grid(2, -1)
    with pytest.raises(DomainError):
        Grid(2, 80)


def test_encode_examples():
    p = encode_point(0.625, Grid(2, 2))
    assert p.digits == (1, 0) and p.remainder == 0.5

    p0 = encode_point(0.0, Grid(3, 4))
    assert p0.digits == (0, 0, 0, 0) and p0.remainder == 0.0

    p3 = encode_point(7 / 9, Grid(3, 2))
    assert p3.digits == (2, 1)
    assert abs(p3.remainder) < 1e-15  # y = 0 up to base-3 digit roundoff
    # verify by evaluating the conversion map at the stated factorization
    assert abs(decode_point(MultiIndexPoint(3, (2, 1), 0.0)) - 7 / 9) <= 4 * np.finfo(float).eps


def test_encode_domain_errors():
    with pytest.raises(DomainError):
        encode_point(-0.1, Grid(2, 2))
    with pytest.raises(DomainError):
        encode_point(1.0, Grid(2, 2))


def test_decode_examples():
    assert decode_point(MultiIndexPoint(2, (1, 0), 0.5)) == 0.625
    assert decode_point(MultiIndexPoint(2, (0, 0), 0.0)) == 0.0
    assert decode_point(MultiIndexPoint(2, (1, 1), 0.25)) == 0.8125


def test_decode_validation():
    with pytest.raises(DomainError):
        MultiIndexPoint(2, (2, 0), 0.5)
    with pytest.raises(DomainError):
        MultiIndexPoint(2, (1, 0), 1.0)


def test_round_trip_dyadic_bit_exact():
    # 10^4 random dyadic-representable points survive encode/decode exactly
    rng = np.random.default_rng(42)
    grid = Grid(2, 7)
    xs = rng.integers(0, 2**52, size=10_000) / 2.0**52
    for x in xs:
        p = encode_point(x, grid)
        assert decode_point(p) == x


def test_round_trip_general_base():
    rng = np.random.default_rng(7)
    grid = Grid(3, 6)
    xs = rng.random(2000)
    for x in xs:
        assert abs(decode_point(encode_point(x, grid)) - x) <= 4 * np.finfo(float).eps


def test_grid_point_belongs_right():
    # a grid point gets remainder zero: the half-open interval on its right
    p = encode_point(0.5, Grid(2, 1))
    assert p.digits == (1,) and p.remainder == 0.0


def test_encode_points_matches_scalar():
    grid = Grid(2, 5)
    xs = np.random.default_rng(1).random(257)
    digits, ys = encode_points(xs, grid)
    for k, x in enumerate(xs):
        p = encode_point(x, grid)
        assert tuple(digits[k]) == p.digits
        assert ys[k] == p.remainder


def test_flat_digit_duality():
    grid = Grid(3, 4)
    for j in range(grid.leaf_count):
        assert digits_to_flat(flat_to_digits(j, grid), grid) == j
    assert LeafIndex.from_digits((2, 1, 0, 2), grid).flat == 2 * 27 + 9 + 2
    with pytest.raises(DomainError):
        LeafIndex(grid, 81)


def test_leaf_restriction_examples():
    g = leaf_restriction(lambda x: x, Grid(2, 1), 1)
    assert g(0.0) == 0.5

    const = leaf_restriction(lambda x: np.full_like(np.asarray(x, float), 3.25), Grid(2, 2), 2)
    assert const(0.7) == 3.25

    g2 = leaf_restriction(lambda x: np.asarray(x) ** 2, Grid(2, 2), 3)
    assert g2(0.5) == 0.765625  # f(0.875)


def test_leaf_consistency_random():
    # leaf_restriction(f, grid, j)(y) == f(decode(digits(j), y)) pointwise
    rng = np.random.default_rng(3)
    grid = Grid(2, 6)
    f = lambda x: np.sin(3.0 * np.asarray(x)) + np.asarray(x) ** 2
    for _ in range(1000):
        j = int(rng.integers(0, grid.leaf_count))
        y = float(rng.random())
        x = decode_point(MultiIndexPoint(2, flat_to_digits(j, grid), y))
        assert leaf_restriction(f, grid, j)(y) == pytest.approx(f(x), abs=1e-15)


def test_lp_norm_from_leaves():
    grid = Grid(2, 3)
    ones = np.ones(8)
    assert lp_norm_from_leaves(ones, grid, 2.0) == pytest.approx(1.0, rel=1e-15)
    assert lp_norm_from_leaves(ones, grid, math.inf) == 1.0
    # sawtooth leaves: every leaf norm is (1/(p+1))^(1/p)
    for p in (1.0, 2.0, 3.0):
        leafs = np.full(8, (1.0 / (p + 1)) ** (1.0 / p))
        total = lp_norm_from_leaves(leafs, grid, p)
        assert total**p == pytest.approx(1.0 / (p + 1), rel=1e-14)
    with pytest.raises(DomainError):
        lp_norm_from_leaves(ones, grid, 0.0)
    with pytest.raises(DomainError):
        lp_norm_from_leaves(np.ones(7), grid, 2.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_raise(bad):
    grid = Grid(2, 4)
    with pytest.raises(DomainError):
        encode_point(bad, grid)
    with pytest.raises(DomainError):
        encode_points(np.array([0.25, bad, 0.5]), grid)


def test_non_finite_points_do_not_reach_evaluate():
    from ttfun.encoders import encode_polynomial
    from ttfun.train import evaluate

    tt = encode_polynomial([0.0, 0.0, 1.0], Grid(2, 4))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            evaluate(tt, [bad, 0.5])
        with pytest.raises(DomainError):
            evaluate(tt, bad)
