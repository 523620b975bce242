import math

import numpy as np
import pytest

from ttfun.analysis import greedy_badic_knots, lp_error, rank_span_oracle
from ttfun.encoders import (
    PiecewisePolynomial,
    WaveletSpec,
    badic_from_float,
    encode_dilated,
    encode_polynomial,
    haar_mother,
    random_fixed_knot_spline,
    random_free_knot_spline,
)
from ttfun.grids import (
    DomainError,
    Grid,
    LeafIndex,
    MultiIndexPoint,
    _check_int,
    decode_point,
    digits_to_flat,
    encode_point,
    encode_points,
    flat_to_digits,
    leaf_restriction,
    lp_norm_from_leaves,
)
from ttfun.interpolation import Interpolator, reinterpolate


def test_grid_validation():
    assert Grid(2, 3).leaf_count == 8
    assert Grid(3, 0).leaf_count == 1
    with pytest.raises(DomainError):
        Grid(1, 3)
    with pytest.raises(DomainError):
        Grid(2, -1)
    with pytest.raises(DomainError):
        Grid(2, 80)


@pytest.mark.parametrize(
    "base, depth", [(2.5, 3), (2, 2.5), (2.0, 3), (2, 3.0), ("2", 3), (2, True)]
)
def test_grid_rejects_a_non_integer_base_or_depth(base, depth):
    # Grid(2.5, 3).leaf_count used to be 15.625
    with pytest.raises(DomainError, match="is not an integer"):
        Grid(base, depth)
    assert Grid(np.int64(3), np.int32(2)).leaf_count == 9


@pytest.mark.parametrize("flat", [1.5, 1.0, np.float64(2.0), True])
def test_a_non_integer_leaf_index_has_no_digits(flat):
    # 1.5 used to give the digits (0, 1) of leaf 1
    with pytest.raises(DomainError, match="is not an integer"):
        flat_to_digits(flat, Grid(2, 2))
    with pytest.raises(DomainError, match="is not an integer"):
        LeafIndex(Grid(2, 2), flat).digits
    assert flat_to_digits(np.int64(1), Grid(2, 2)) == (0, 1)
    assert LeafIndex(Grid(2, 2), np.int32(3)).digits == (1, 1)


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


@pytest.mark.parametrize("digit", [0.5, 1.9, 1.0, "1", True])
def test_a_digit_that_is_not_an_integer_is_rejected(digit):
    # (1.9, 1) used to give leaf 3, (0.5, 1) leaf 1, and the point (0.5,), 0.2 decoded to 0.35
    grid = Grid(2, 2)
    with pytest.raises(DomainError, match="not an integer"):
        digits_to_flat((digit, 1), grid)
    with pytest.raises(DomainError, match="not an integer"):
        LeafIndex.from_digits((digit, 1), grid)
    with pytest.raises(DomainError, match="not an integer"):
        MultiIndexPoint(2, (digit,), 0.2)
    assert digits_to_flat((np.int64(1), 1), grid) == 3
    assert decode_point(MultiIndexPoint(2, (np.int32(1),), 0.5)) == 0.75


@pytest.mark.parametrize("flat", [1.5, 1.0, "1", None])
def test_a_leaf_index_that_is_not_an_integer_is_rejected_at_construction(flat):
    with pytest.raises(DomainError, match="not an integer"):
        LeafIndex(Grid(2, 2), flat)
    assert LeafIndex(Grid(2, 2), np.int64(3)).flat == 3


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


@pytest.mark.parametrize("j", [1.5, 1.0, "1", True, (LeafIndex, 1.5)])
def test_leaf_restriction_rejects_a_non_integer_index(j):
    # 1.5 used to sample [0.375, 0.625), across two leaves
    with pytest.raises(DomainError, match="not an integer"):
        if isinstance(j, tuple):  # a LeafIndex of 1.5, which its constructor rejects
            j = j[0](Grid(2, 2), j[1])
        leaf_restriction(lambda x: x, Grid(2, 2), j)
    assert leaf_restriction(lambda x: x, Grid(2, 2), np.int64(1))(0.0) == 0.25


@pytest.mark.parametrize("y, bad", [(1.5, 1.5), (-0.25, -0.25), (math.nan, math.nan), ([0.5, 1.0], 1.0)])
def test_leaf_restriction_rejects_a_point_outside_the_unit_interval(y, bad):
    # 1.5 on leaf 0 of Grid(2, 2) returned f(0.375), a value from leaf 1
    g = leaf_restriction(lambda x: x, Grid(2, 2), 0)
    with pytest.raises(DomainError, match=f"point {bad} outside"):
        g(y)


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
    with pytest.raises(DomainError, match="nonnegative"):
        lp_norm_from_leaves(np.array([1.0, math.nan, *ones[2:]]), grid, 2.0)
    assert lp_norm_from_leaves(np.array([1.0, math.inf, *ones[2:]]), grid, 2.0) == math.inf


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


def _repeated_multiply_digits(x, b, d):
    """The digit rule written out: multiply by b, floor, clamp to b - 1."""
    t = np.array(x, dtype=float)
    digits = np.empty((t.size, d), dtype=np.int64)
    for k in range(d):
        t = t * b
        i = np.minimum(np.floor(t).astype(np.int64), b - 1)
        digits[:, k] = i
        t = t - i
    return digits, np.clip(t, 0.0, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("b, d", [(2, 30), (3, 12), (5, 8), (7, 7)])
def test_encode_points_follows_the_repeated_multiply_rule(b, d):
    rng = np.random.default_rng(b)
    j = rng.integers(1, d + 1, size=500)
    on_grid = np.floor(rng.random(500) * np.power(float(b), j)) / np.power(float(b), j)
    grid = Grid(b, d)
    for x in (rng.random(500), on_grid, np.array([0.0, np.nextafter(1.0, 0.0)])):
        digits, y = encode_points(x, grid)
        want_digits, want_y = _repeated_multiply_digits(x, b, d)
        assert np.array_equal(digits, want_digits) and np.array_equal(y, want_y)
        p = encode_point(x[-1], grid)
        assert p.digits == tuple(want_digits[-1]) and p.remainder == want_y[-1]
    x.setflags(write=False)
    encode_points(x, grid)  # the input is copied, never overwritten


@pytest.mark.parametrize("b, d", [(2, 30), (3, 12), (5, 8), (7, 7)])
def test_scalar_and_array_digit_rules_agree_bitwise(b, d):
    rng = np.random.default_rng(10 + b)
    j = rng.integers(1, d + 1, size=300)
    on_grid = np.floor(rng.random(300) * np.power(float(b), j)) / np.power(float(b), j)
    x = np.concatenate([rng.random(300), on_grid, [0.0, np.nextafter(1.0, 0.0)]])
    grid = Grid(b, d)
    digits, y = encode_points(x, grid)
    for k, p in enumerate(x):
        got = encode_point(p, grid)
        assert got.digits == tuple(digits[k].tolist())
        assert got.remainder.hex() == float(y[k]).hex()


def test_check_int_returns_the_value_or_raises_in_three_shapes():
    assert _check_int("n", 3) == 3
    assert _check_int("n", np.int64(3), 0, 3) == 3
    assert _check_int("n", -7, high=0) == -7  # a None end is open
    for bad in (1.5, 2.0, True, "1", None):
        with pytest.raises(DomainError, match=f"^n {bad!r} is not an integer$"):
            _check_int("n", bad, 0)
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        _check_int("n", 0, 1)
    with pytest.raises(DomainError, match=r"^n 4 outside 0\.\.3$"):
        _check_int("n", np.int32(4), 0, 3)


def _train():
    return encode_polynomial([1.0, 2.0], Grid(2, 3))


def _rng():
    return np.random.default_rng(0)


# (entry point, parameter, a value that is not an integer, a valid one, the call)
_INTEGER_PARAMETERS = [
    ("random_free_knot_spline", "pieces", 2.5, 3,
     lambda v: random_free_knot_spline(_rng(), 2, v, 1, 3)),
    ("random_free_knot_spline", "max_level", 2.5, 2,
     lambda v: random_free_knot_spline(_rng(), 2, 2, 1, v)),
    ("random_fixed_knot_spline", "degree", 1.5, 1,
     lambda v: random_fixed_knot_spline(_rng(), 2, 2, v)),
    ("random_fixed_knot_spline", "depth", 1.5, 2,
     lambda v: random_fixed_knot_spline(_rng(), 2, v, 1)),
    ("MultiIndexPoint", "base", 2.5, 2, lambda v: MultiIndexPoint(v, (1,), 0.2)),
    ("badic_from_float", "base", 2.5, 2, lambda v: badic_from_float(0.5, v)),
    ("PiecewisePolynomial", "base", 2.5, 2, lambda v: PiecewisePolynomial(v, (), ([1.0],))),
    ("PiecewisePolynomial.uniform", "depth", 1.5, 1,
     lambda v: PiecewisePolynomial.uniform(2, v, [[1.0], [2.0]])),
    ("Interpolator", "degree", 1.5, 1, lambda v: Interpolator(v)),
    ("greedy_badic_knots", "quad_order", 2.5, 4,
     lambda v: greedy_badic_knots(np.sin, 4, 1, 2.0, quad_order=v)),
    ("greedy_badic_knots", "max_depth", 2.5, 3,
     lambda v: greedy_badic_knots(np.sin, 4, 1, 2.0, max_depth=v)),
    ("greedy_badic_knots", "base", 2.5, 3,
     lambda v: greedy_badic_knots(np.sin, 5, 1, 2.0, base=v)),
    ("greedy_badic_knots", "degree", 1.5, 1, lambda v: greedy_badic_knots(np.sin, 4, v, 2.0)),
    ("lp_error", "quad_order", 2.5, 3, lambda v: lp_error(np.sin, _train(), 2.0, quad_order=v)),
    ("lp_error", "max_cells", 2.5, 4, lambda v: lp_error(np.sin, _train(), 2.0, max_cells=v)),
    ("rank_span_oracle", "nu", 1.5, 2, lambda v: rank_span_oracle(np.sin, Grid(2, 3), v)),
    ("encode_dilated", "target_depth", 2.5, 3,
     lambda v: encode_dilated(WaveletSpec(haar_mother(), 1, 0), v)),
    ("reinterpolate", "target_depth", 2.5, 4, lambda v: reinterpolate(_train(), v, 1)),
    ("reinterpolate", "target_degree", 0.5, 1, lambda v: reinterpolate(_train(), 3, v)),
]


@pytest.mark.parametrize(
    "name, bad, good, call",
    [pytest.param(*row[1:], id=f"{row[0]}-{row[1]}") for row in _INTEGER_PARAMETERS],
)
def test_an_integer_parameter_is_checked_by_name(name, bad, good, call):
    # each of these used to end in a traceback, return a result, or blame
    # another parameter
    with pytest.raises(DomainError, match=f"^{name} {bad!r} is not an integer$"):
        call(bad)
    call(np.int64(good))
