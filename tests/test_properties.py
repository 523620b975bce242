"""Property tests for the train algebra on random trains.

Trains are drawn over bases 2, 3, 5 and 7, depths 0-12, bonds 1-8, leaf
degrees 0-5 and all three leaf kinds. The draws are derandomized, so every
run checks the same examples.
"""

import json
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttfun import train as train_module
from ttfun.basis import KINDS, PolyBasis
from ttfun.grids import Grid
from ttfun.train import (
    _CHUNK,
    TensorTrain,
    add,
    block_sum,
    dot_l2,
    evaluate,
    from_json_dict,
    norm_l2,
    orthogonalize,
    scale,
    to_json_dict,
    tt_round,
)

from test_train import _reference_evaluate, _reference_right_orthogonalize

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SCALES = (1e-170, 1.0, 1e200)


@st.composite
def layouts(draw):
    """(grid, bonds, basis) of a random train."""
    grid = Grid(draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(0, 12)))
    bonds = draw(st.lists(st.integers(1, 8), min_size=grid.depth, max_size=grid.depth))
    basis = PolyBasis(draw(st.integers(0, 5)), draw(st.sampled_from(KINDS)))
    return grid, bonds, basis


def _train(layout, seed, signed=False):
    """A train with entries uniform in [0, 1), or in [-1, 1) if signed.

    Nonnegative cores and leaf keep the core chain free of cancellation, so
    roundoff stays relative to the function values.
    """
    grid, bonds, basis = layout
    rng = np.random.default_rng(seed)

    def draw(*shape):
        u = rng.random(shape)
        return 2.0 * u - 1.0 if signed else u

    cores, r = [], 1
    for r_next in bonds:
        cores.append(draw(grid.base, r, r_next))
        r = r_next
    return TensorTrain(grid, cores, draw(r, basis.dim), basis)


seeds = st.integers(0, 2**32 - 1)


@PROPERTY
@given(layouts(), seeds, st.integers(2, 30), st.integers(0, 30))
def test_single_point_route_agrees_with_the_batch_sweep(layout, seed, others, k):
    tt = _train(layout, seed)
    x = np.random.default_rng(seed).random(others + 1)
    k %= x.size
    batch = evaluate(tt, x)
    single = evaluate(tt, float(x[k]))
    assert abs(single - batch[k]) <= 1e-14 * np.abs(batch).max()
    assert evaluate(tt, x[k : k + 1]).item() == single


@PROPERTY
@given(layouts(), seeds, st.integers(2, 3 * _CHUNK))
def test_sweep_keeps_the_bits_of_the_per_point_sweep(layout, seed, n):
    tt = _train(layout, seed, signed=True)
    x = np.random.default_rng(seed).random(n)
    assert np.array_equal(evaluate(tt, x), _reference_evaluate(tt, x))


@PROPERTY
@given(
    layouts(),
    seeds,
    seeds,
    st.one_of(st.floats(-1e3, 1e3, allow_subnormal=False), st.sampled_from([1e-170, -1e200])),
)
def test_add_and_scale_are_linear_under_evaluate(layout, seed_a, seed_b, c):
    grid, _, basis = layout
    a = _train(layout, seed_a)
    bonds_b = np.random.default_rng(seed_b).integers(1, 9, size=grid.depth).tolist()
    b = _train((grid, bonds_b, basis), seed_b)
    x = np.random.default_rng(seed_a ^ seed_b).random(17)
    fa, fb = evaluate(a, x), evaluate(b, x)
    scale_ab = np.abs(fa).max() + np.abs(fb).max()
    assert np.abs(evaluate(add(a, b), x) - (fa + fb)).max() <= 1e-13 * scale_ab
    assert np.abs(evaluate(scale(a, c), x) - c * fa).max() <= 1e-13 * abs(c) * np.abs(fa).max()


@PROPERTY
@given(layouts(), seeds)
def test_norm_squared_is_the_self_inner_product(layout, seed):
    tt = _train(layout, seed, signed=True)
    unit = norm_l2(tt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in SCALES:
            # <s t, t / s> = ||t||^2 stays in range where ||s t||^2 would not
            big, small = scale(tt, s), scale(tt, 1.0 / s)
            assert abs(norm_l2(big) - s * unit) <= 1e-13 * s * unit
            want = dot_l2(big, small)
            assert abs(norm_l2(big) * norm_l2(small) - want) <= 1e-12 * abs(want)


@PROPERTY
@given(layouts(), seeds, st.sampled_from(SCALES))
def test_json_round_trip_is_bit_exact(layout, seed, s):
    tt = scale(_train(layout, seed, signed=True), s)
    back = from_json_dict(json.loads(json.dumps(to_json_dict(tt))))
    assert back.grid == tt.grid and back.basis == tt.basis
    assert len(back.cores) == len(tt.cores)
    for c, c_back in zip(tt.cores, back.cores):
        assert c_back.shape == c.shape and c_back.tobytes() == c.tobytes()
    assert back.leaf.tobytes() == tt.leaf.tobytes()
    x = np.random.default_rng(seed).random(5)
    assert evaluate(back, x).tobytes() == evaluate(tt, x).tobytes()


def _over_bonded(layout, seed, signed):
    """Block sum of 2-4 random trains on the layout's grid and basis: bonds
    above the dimension bound, so the interface merge and the right sweep act."""
    grid, _, basis = layout
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(rng.integers(2, 5)):
        bonds = rng.integers(1, 9, size=grid.depth).tolist()
        terms.append(_train((grid, bonds, basis), int(rng.integers(2**32)), signed))
    return block_sum(terms)


@PROPERTY
@given(layouts(), seeds, st.sampled_from([1e-8, 1e-4, 1e-2]))
def test_rounding_error_is_within_the_tolerance(layout, seed, tol):
    tt = _over_bonded(layout, seed, signed=True)
    rounded = tt_round(tt, tol)
    assert all(r <= s for r, s in zip(rounded.bond_dims, tt.bond_dims))
    assert norm_l2(add(rounded, scale(tt, -1.0))) <= tol * norm_l2(tt)


@PROPERTY
@given(layouts(), seeds, st.sampled_from(["left", "right"]))
def test_orthogonalize_keeps_values_and_orthonormalizes(layout, seed, direction):
    tt = _over_bonded(layout, seed, signed=False)
    ot = orthogonalize(tt, direction)
    x = np.random.default_rng(seed).random(33)
    f = evaluate(tt, x)
    assert np.abs(evaluate(ot, x) - f).max() <= 1e-12 * np.abs(f).max()
    if direction == "left":
        blocks = [c.transpose(1, 0, 2).reshape(-1, c.shape[2]) for c in ot.cores]
    else:
        rows = [c.transpose(1, 0, 2).reshape(c.shape[1], -1) for c in ot.cores[1:]]
        blocks = [m.T for m in rows + [ot.leaf]] if ot.depth else []
    for Q in blocks:
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-12


@PROPERTY
@given(layouts(), seeds, st.lists(st.integers(0, 2), min_size=1, max_size=2))
def test_rounding_a_sum_with_repeated_terms_keeps_the_reference_bonds(layout, seed, pattern):
    # terms such as [s, t, s]: the merge folds the repeats before the sweep
    grid, _, basis = layout
    rng = np.random.default_rng(seed)
    distinct = [
        _train((grid, rng.integers(1, 9, size=grid.depth).tolist(), basis), seed + k)
        for k in range(3)
    ]
    tt = block_sum([distinct[k] for k in [0, *pattern, 0]])
    rounded = tt_round(tt, 1e-12)
    with mock.patch.object(train_module, "_right_orthogonalize", _reference_right_orthogonalize):
        assert rounded.bond_dims == tt_round(tt, 1e-12).bond_dims
    x = rng.random(33)
    f = evaluate(tt, x)
    assert np.abs(evaluate(rounded, x) - f).max() <= 1e-12 * np.abs(f).max()
