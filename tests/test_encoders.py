import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import Polynomial

import ttfun
from ttfun.basis import PolyBasis
from ttfun.complexity import complexity
from ttfun.encoders import (
    KnotError,
    MixedBaseError,
    PiecewisePolynomial,
    WaveletSpec,
    _affine_recoeff,
    badic_cover,
    badic_from_float,
    encode_dilated,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    hat_mother,
    n_term_wavelet,
    random_fixed_knot_spline,
    random_free_knot_spline,
    sawtooth_function,
)
from ttfun.grids import DomainError, Grid, flat_to_digits
from ttfun.train import (
    TensorTrain,
    add,
    block_sum,
    dilation_cores,
    dot_l2,
    evaluate,
    norm_l2,
    ranks,
    scale,
    singular_values,
    tt_round,
)
from ttfun.analysis import greedy_badic_knots, rank_span_oracle

from fixtures import encoder_catalog, spline_space_basis

QUASI = np.mod(0.5 + np.arange(1, 1001) * 0.6180339887498949, 1.0)


# ---------------------------------------------------------------------------
# PiecewisePolynomial plumbing
# ---------------------------------------------------------------------------


def test_badic_from_float():
    assert badic_from_float(0.375, 2) == (3, 3)
    assert badic_from_float(0.5, 2) == (1, 1)
    with pytest.raises(KnotError, match="0.3333333333333333"):
        badic_from_float(1 / 3, 2)


@pytest.mark.parametrize("max_level", [2.5, -1])
def test_badic_from_float_rejects_a_max_level_that_is_not_a_level(max_level):
    # 2.5 was accepted and read as a bound between levels 2 and 3
    with pytest.raises(DomainError, match="max_level"):
        badic_from_float(0.5, 2, max_level=max_level)


def test_knot_normalization_and_validation():
    pp = PiecewisePolynomial(2, ((2, 2),), ([1.0], [2.0]))
    assert pp.knots == ((1, 1),)  # 2/4 reduces to 1/2
    with pytest.raises(KnotError):
        PiecewisePolynomial(2, ((1, 1), (1, 1)), ([1.0], [2.0], [3.0]))
    with pytest.raises(DomainError):
        PiecewisePolynomial(2, ((1, 1),), ([1.0],))


def test_a_piece_without_coefficients_is_rejected():
    # the spline used to construct, and its first call raised IndexError
    with pytest.raises(DomainError, match="piece 0 has no coefficient"):
        PiecewisePolynomial(2, (), ([],))
    with pytest.raises(DomainError, match="piece 1 has no coefficient"):
        PiecewisePolynomial(2, ((1, 1),), ([1.0], np.zeros(0)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(DomainError, match="non-finite"):
        PiecewisePolynomial(2, ((1, 1),), ([1.0], [0.5, bad]))
    with pytest.raises(DomainError, match="non-finite"):
        encode_polynomial([bad, 1.0], Grid(2, 3))


def test_json_round_trip():
    pp = PiecewisePolynomial(2, ((3, 3), (1, 1)), ([0.0, 1.0], [2.0], [1.0, 0.0, -1.0]))
    doc = json.loads(json.dumps(pp.to_json_dict()))
    back = PiecewisePolynomial.from_json_dict(doc)
    assert back.base == pp.base and back.knots == pp.knots
    assert all(np.array_equal(a, b) for a, b in zip(back.pieces, pp.pieces))
    # float knots are accepted when exactly b-adic
    doc2 = {"base": 2, "knots": [0.375], "pieces": [[1.0], [0.0]]}
    assert PiecewisePolynomial.from_json_dict(doc2).knots == ((3, 3),)


def test_evaluation_half_open():
    pp = PiecewisePolynomial(2, ((1, 1),), ([0.0, 1.0], [5.0]))
    assert pp(0.25) == 0.5  # local coordinate of the left piece
    assert pp(0.5) == 5.0  # knots belong to the right piece
    with pytest.raises(DomainError):
        pp(1.0)


def _per_piece_polyval(pp, x):
    """The per-piece reference: one mask and one polyval per piece."""
    bp = pp.breakpoints()
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, pp.piece_count - 1)
    out = np.empty_like(x)
    for k, coeffs in enumerate(pp.pieces):
        sel = idx == k
        out[sel] = np.polynomial.polynomial.polyval((x[sel] - bp[k]) / (bp[k + 1] - bp[k]), coeffs)
    return out


def test_piecewise_polynomial_keeps_the_bits_of_polyval_per_piece():
    rng = np.random.default_rng(41)
    pieces = [rng.standard_normal(rng.integers(1, 7)) for _ in range(9)]
    pieces[2] = np.array([0.0, -0.0, 1.0])  # signed zeros
    pieces[3] = np.array([-0.0])
    pieces[4] = np.array([1.0, 2.0, -0.0])  # a top coefficient -0
    pp = PiecewisePolynomial(3, tuple((i, 2) for i in range(1, 9)), tuple(pieces))
    # three chunks and a tail, every knot, and both ends of [0, 1)
    x = np.concatenate([rng.random(3 * 8192 + 5), pp.breakpoints()[:-1], [np.nextafter(1.0, 0.0)]])
    want = _per_piece_polyval(pp, x)
    got = pp(x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(pp(x.reshape(-1, 3)).view(np.int64), want.view(np.int64).reshape(-1, 3))
    assert np.array_equal(np.array([pp(p) for p in x[:50]]).view(np.int64), want[:50].view(np.int64))
    assert pp(np.array([])).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, [0.2, math.nan], [[math.nan]], [0.5, -1e-300]])
def test_piecewise_polynomial_rejects_nan_as_outside_the_domain(bad):
    pp = PiecewisePolynomial(2, ((1, 1),), ([0.0, 1.0], [5.0]))
    with pytest.raises(DomainError, match=r"points outside \[0, 1\)"):
        pp(bad)


def test_piecewise_polynomial_allocates_about_its_output():
    rng = np.random.default_rng(42)
    pp = PiecewisePolynomial.uniform(3, 4, rng.standard_normal((81, 3)))
    x = rng.random(10**6)
    tracemalloc.start()
    try:
        out = pp(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunks' gathers are small; a per-piece mask pass held a second
    # point-sized index array besides the output
    assert peak <= out.nbytes + 2**20, peak


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_constant_is_rank_one():
    tt = encode_polynomial([2.5], Grid(2, 4))
    assert tt.bond_dims == (1, 1, 1, 1)
    assert np.abs(evaluate(tt, QUASI) - 2.5).max() < 1e-14


def test_x_squared_ranks():
    tt = encode_polynomial([0.0, 0.0, 1.0], Grid(2, 2))
    assert ranks(tt).ranks == (2, 3)
    f = lambda x: np.asarray(x) ** 2
    assert [rank_span_oracle(f, Grid(2, 2), nu) for nu in (1, 2)] == [2, 3]


def test_degree5_ranks_frozen_from_oracle():
    # dimension bound min(6, 2^nu) holds; the numerically visible counts at
    # the stated tolerances are frozen from the span oracle itself
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)
    f = lambda x: np.polynomial.polynomial.polyval(np.asarray(x), c)
    tt = encode_polynomial(c, Grid(2, 6))
    rk = ranks(tt).ranks
    oracle = [rank_span_oracle(f, Grid(2, 6), nu) for nu in range(1, 7)]
    assert oracle == [2, 4, 5, 4, 4, 4]
    assert rk == (2, 4, 5, 5, 5, 4)
    for nu, (a, b) in enumerate(zip(rk, oracle), start=1):
        assert max(a, b) <= min(6, 2**nu)


@pytest.mark.parametrize("deg", [1, 2, 3])
def test_low_degree_generic_equality(deg):
    rng = np.random.default_rng(deg)
    c = rng.standard_normal(deg + 1)
    tt = encode_polynomial(c, Grid(2, 5))
    assert ranks(tt).ranks == tuple(min(deg + 1, 2**nu) for nu in range(1, 6))


def test_polynomial_pointwise_exactness():
    rng = np.random.default_rng(1)
    for b, d in ((2, 6), (3, 4)):
        c = rng.standard_normal(5)
        tt = encode_polynomial(c, Grid(b, d))
        ref = np.polynomial.polynomial.polyval(QUASI, c)
        assert np.abs(evaluate(tt, QUASI) - ref).max() < 1e-12


# ---------------------------------------------------------------------------
# fixed-knot splines
# ---------------------------------------------------------------------------


def test_haar_mother():
    h = haar_mother()
    assert ranks(h).ranks == (1,)
    assert h(0.25) == pytest.approx(-1.0, abs=1e-14)
    assert h(0.75) == pytest.approx(1.0, abs=1e-14)
    assert norm_l2(h) == pytest.approx(1.0, abs=1e-14)


def test_hat_ranks_depth4():
    t = encode_dilated(WaveletSpec(hat_mother(), 0, 0, 2.0), 4)
    assert all(r <= 2 for r in ranks(t).ranks)
    hat = lambda x: np.where(np.asarray(x) < 0.5, 2 * np.asarray(x), 2 * (1 - np.asarray(x)))
    assert np.abs(evaluate(t, QUASI) - hat(QUASI)).max() < 1e-14


def test_random_spline_rank_bound():
    rng = np.random.default_rng(2)
    s = random_fixed_knot_spline(rng, 2, 3, 1, -1)
    tt = encode_fixed_knot_spline(s)
    for nu, r in enumerate(ranks(tt).ranks, start=1):
        assert r <= min(2 * 2 ** (3 - nu), 2**nu)
    assert np.abs(evaluate(tt, QUASI) - s(QUASI)).max() < 1e-12


def test_uniform_grid_required():
    pp = PiecewisePolynomial(2, ((1, 2),), ([1.0], [2.0]))  # knot at 1/4 only
    with pytest.raises(DomainError):
        encode_fixed_knot_spline(pp)


@pytest.mark.parametrize(
    "base,depth,degree,cont",
    [(2, 2, 1, -1), (2, 2, 1, 0), (2, 1, 3, 1), (3, 1, 2, 0), (2, 2, 2, 1)],
)
def test_spline_space_dimension(base, depth, degree, cont):
    # Gram rank of the encoded truncated-power basis equals
    # (m+1)N - (N-1)(c+1)
    fns = spline_space_basis(base, depth, degree, cont)
    n = base**depth
    expected = (degree + 1) * n - (n - 1) * (cont + 1)
    assert len(fns) == expected
    trains = [encode_fixed_knot_spline(f, degree=degree) for f in fns]
    G = np.array([[dot_l2(a, b) for b in trains] for a in trains])
    sv = np.linalg.svd(G, compute_uv=False)
    assert int(np.sum(sv > 1e-10 * sv[0])) == expected


def test_random_spline_continuity():
    rng = np.random.default_rng(3)
    s = random_fixed_knot_spline(rng, 2, 3, 3, 1)  # C^1 cubic spline
    eps = 1e-7
    for k in range(1, 8):
        x = k / 8.0
        left, right = s(x - eps), s(x)
        assert abs(left - right) < 1e-5
        dl = (s(x - eps) - s(x - 2 * eps)) / eps
        dr = (s(x + eps) - s(x)) / eps
        assert abs(dl - dr) < 1e-3


# ---------------------------------------------------------------------------
# free-knot splines
# ---------------------------------------------------------------------------


def test_single_piece_reduces_to_polynomial():
    pp = PiecewisePolynomial(2, (), ([0.5, -1.0, 2.0],))
    tt = encode_free_knot_spline(pp, depth=3)
    ref = encode_polynomial([0.5, -1.0, 2.0], Grid(2, 3))
    assert np.abs(evaluate(tt, QUASI) - evaluate(ref, QUASI)).max() < 1e-13


def test_two_piece_constant_rank_collapse():
    # one dyadic knot at 1/2 and constant pieces: every level span is the
    # constants, so the rounded ranks are all 1 (frozen from the oracle)
    pp = PiecewisePolynomial(2, ((1, 1),), ([1.0], [2.5]))
    tt = tt_round(encode_free_knot_spline(pp, depth=4), 1e-12)
    assert ranks(tt).ranks == (1, 1, 1, 1)
    assert [rank_span_oracle(pp, Grid(2, 4), nu) for nu in range(1, 5)] == [1, 1, 1, 1]


def test_badic_cover_examples():
    assert badic_cover(Fraction(0), Fraction(3, 8), 2, 3) == [(0, 2), (2, 3)]
    assert badic_cover(Fraction(0), Fraction(1), 2, 3) == [(0, 0)]
    # worst-ish case stays under 2 d (b-1)
    cov = badic_cover(Fraction(1, 16), Fraction(15, 16), 2, 4)
    assert len(cov) <= 2 * 4 * (2 - 1)


def test_cover_bound_random_sweep():
    rng = np.random.default_rng(6)
    for b in (2, 3):
        for _ in range(40):
            d = int(rng.integers(1, 9))
            lo = int(rng.integers(0, b**d))
            hi = int(rng.integers(lo + 1, b**d + 1))
            cov = badic_cover(Fraction(lo, b**d), Fraction(hi, b**d), b, d)
            assert len(cov) <= 2 * d * (b - 1)
            total = sum(Fraction(1, b**lv) for _, lv in cov)
            assert total == Fraction(hi - lo, b**d)


def test_free_knot_exactness_and_ranks():
    rng = np.random.default_rng(7)
    s = random_free_knot_spline(rng, 2, 3, 2, 4)
    tt = encode_free_knot_spline(s)
    assert np.abs(evaluate(tt, QUASI) - s(QUASI)).max() < 1e-12
    d = max(s.max_level, 1)
    rk = ranks(tt_round(tt, 1e-12))
    for nu, r in enumerate(rk.ranks, start=1):
        assert r <= min(2**nu, 3 * 2 ** (d - nu), 2 + 3)


@pytest.mark.parametrize(
    "base, pieces, max_level, room",
    [(2, 10, 2, 3), (3, 10, 2, 8), (2, 2, 0, 0), (2, 3, -1, 0)],
)
def test_random_free_knot_spline_needs_room_for_its_knots(base, pieces, max_level, room):
    # levels 1..max_level hold b^max_level - 1 distinct knots; asking for
    # more used to spin forever, and max_level < 1 to fail in rng.integers
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match=f"need {pieces - 1} distinct knots; .* hold {room}$"):
        random_free_knot_spline(rng, base, pieces, 1, max_level)
    full = random_free_knot_spline(rng, base, room + 1, 1, max_level)  # every knot taken
    assert full.piece_count == room + 1


def _reference_free_knot(s, depth=None, basis_kind="legendre"):
    """Reference construction, cell by cell: Fraction cell bounds, the
    piece composed with the cell's affine map by the Polynomial class, delta
    cores selecting the cell, the monomial binomial chain below it, each
    leaf mapped to the leaf basis, and one block_sum over the cells."""
    b, m = s.base, s.degree
    d = s.max_level if depth is None else depth
    basis = PolyBasis(m, basis_kind)
    D = dilation_cores(PolyBasis(m, "monomial"), b)
    bps = [Fraction(0)] + [Fraction(i, b**lv) for i, lv in s.knots] + [Fraction(1)]
    terms = []
    for k, coeffs in enumerate(s.pieces):
        lo, hi = bps[k], bps[k + 1]
        for j, level in badic_cover(lo, hi, b, d):
            cell = Polynomial([float((Fraction(j, b**level) - lo) / (hi - lo)),
                               float(Fraction(1, b**level) / (hi - lo))])
            local = np.zeros(m + 1)
            composed = Polynomial(np.pad(coeffs, (0, m + 1 - coeffs.size)))(cell).coef
            local[: composed.size] = composed
            cores = []
            for dig in flat_to_digits(j, Grid(b, level)):
                c = np.zeros((b, 1, 1))
                c[dig, 0, 0] = 1.0
                cores.append(c)
            if level < d:
                cores.append(np.stack([local @ D[i] for i in range(b)])[:, None, :])
                cores += [D] * (d - level - 1)
                leaf = np.eye(m + 1)
            else:
                leaf = local[None, :]
            terms.append(TensorTrain(Grid(b, d), cores, leaf @ basis.from_monomial(), basis))
    return block_sum(terms)


def _free_knot_cases():
    cases = []
    for alpha, b, m in ((0.6, 2, 1), (0.695, 2, 2), (0.5, 3, 2)):
        for n_pieces in (9, 27, 64):
            f = lambda x, a=alpha: np.asarray(x, dtype=float) ** a
            cases.append((greedy_badic_knots(f, n_pieces, m, 2.0, base=b), None))
    rng = np.random.default_rng(11)
    for k in range(30):
        b, m = (2, 3)[k % 2], k % 4
        cases.append((random_free_knot_spline(rng, b, 1 + k % 5, m, 3 + k % 3), None))
    cases.append((PiecewisePolynomial(3, (), ([0.5, -1.0, 2.0],)), 3))  # knot-free
    s = random_free_knot_spline(rng, 2, 4, 2, 3)
    cases.append((s, s.max_level + 2))  # depth above the finest knot level
    return cases


def test_free_knot_matches_cell_by_cell_reference():
    for s, depth in _free_knot_cases():
        tt = encode_free_knot_spline(s, depth=depth)
        ref = _reference_free_knot(s, depth)
        assert tt.bond_dims == ref.bond_dims
        a, r = complexity(tt), complexity(ref)
        assert (a.cost_n, a.cost_c, a.cost_s) == (r.cost_n, r.cost_c, r.cost_s)
        for x, y in zip((*tt.cores, tt.leaf), (*ref.cores, ref.leaf)):
            assert np.abs(x - y).max() <= 1e-15 * np.abs(y).max()
        want = evaluate(ref, QUASI)
        assert np.abs(evaluate(tt, QUASI) - want).max() <= 1e-15 * np.abs(want).max()


def _block_sum_free_knot(s, depth=None, basis_kind="legendre", summed=block_sum):
    """The former encoder, kept as an oracle: one dilated depth-0 monomial
    train per cover cell (encode_dilated), summed by block_sum (or by
    summed), with the summed leaf mapped to the leaf basis."""
    b = s.base
    d = s.max_level if depth is None else depth
    mono = PolyBasis(s.degree, "monomial")
    n = b**d
    edges = [0] + [i * b ** (d - lv) for i, lv in s.knots] + [n]
    terms = []
    for coeffs, lo, hi in zip(s.pieces, edges, edges[1:]):
        coeffs = np.pad(coeffs, (0, mono.dim - coeffs.size))
        for j, level in badic_cover(Fraction(lo, n), Fraction(hi, n), b, d):
            w = b ** (d - level)
            local = _affine_recoeff(coeffs, (j * w - lo) / (hi - lo), w / (hi - lo))
            cell = TensorTrain(Grid(b, 0), [], local[None, :], mono)
            terms.append(encode_dilated(WaveletSpec(cell, level, j, math.inf), d))
    total = summed(terms)
    basis = PolyBasis(s.degree, basis_kind)
    return TensorTrain(total.grid, total.cores, total.leaf @ basis.from_monomial(), basis)


def _level_write_cases():
    sqrt = lambda x: np.sqrt(np.asarray(x, dtype=float))
    x695 = lambda x: np.asarray(x, dtype=float) ** 0.695
    return _free_knot_cases() + [
        (greedy_badic_knots(x695, 512, 1, 2.0), None),
        (greedy_badic_knots(sqrt, 81, 2, 2.0, base=3), None),
        (PiecewisePolynomial(5, (), ([1.0, -2.0, 0.5, 3.0],)), None),  # knot-free, d = 0
        (greedy_badic_knots(x695, 40, 4, 1.0, base=5), 6),  # depth above the finest knot
    ]


@pytest.mark.parametrize("basis_kind", ["legendre", "chebyshev", "monomial"])
def test_free_knot_level_write_is_bitwise_the_block_sum(basis_kind):
    for s, depth in _level_write_cases():
        tt = encode_free_knot_spline(s, depth=depth, basis_kind=basis_kind)
        ref = _block_sum_free_knot(s, depth, basis_kind)
        assert tt.grid == ref.grid and tt.bond_dims == ref.bond_dims
        for x, y in zip((*tt.cores, tt.leaf), (*ref.cores, ref.leaf)):
            assert np.array_equal(x, y)


def test_free_knot_encoder_builds_no_per_cell_train(monkeypatch):
    import ttfun.encoders as enc

    def refuse(*args, **kwargs):
        raise AssertionError("per-cell construction")

    monkeypatch.setattr(enc, "encode_dilated", refuse)
    monkeypatch.setattr(enc, "block_sum", refuse)
    s = greedy_badic_knots(lambda x: np.asarray(x) ** 0.6, 64, 1, 2.0)
    assert encode_free_knot_spline(s).bond_dims == _block_sum_free_knot(s).bond_dims


# ---------------------------------------------------------------------------
# block-diagonal trains held as their entries
# ---------------------------------------------------------------------------


def _dense_block_sum(trains):
    """block_sum as it wrote its cores before the entry form: each train's
    blocks assigned into np.zeros at their offsets, level 1 concatenated."""
    trains = list(trains)
    first = trains[0]
    cores = []
    for nu in range(first.depth):
        parts = [t.cores[nu] for t in trains]
        if nu == 0:
            cores.append(np.concatenate(parts, axis=2))
            continue
        r1, r2 = sum(c.shape[1] for c in parts), sum(c.shape[2] for c in parts)
        block = np.zeros((first.base, r1, r2))
        o1 = o2 = 0
        for c in parts:
            block[:, o1 : o1 + c.shape[1], o2 : o2 + c.shape[2]] = c
            o1, o2 = o1 + c.shape[1], o2 + c.shape[2]
        cores.append(block)
    leaf = np.concatenate([t.leaf for t in trains], axis=0)
    return TensorTrain(first.grid, cores, leaf, first.basis)


def _wavelet_terms():
    """Signed Haar and hat terms at levels 0..3, all shifts, at depth 6."""
    rng = np.random.default_rng(4)
    haar, hat = haar_mother(degree=1), hat_mother(degree=1)
    return [
        scale(encode_dilated(WaveletSpec(mother, level, shift), 6), rng.standard_normal())
        for mother in (haar, hat)
        for level in range(4)
        for shift in range(2**level)
    ]


def _entry_form_cases():
    """name -> (make, dense): make() builds a train in entry form, dense()
    the dense write of the same train as it was made before the entry form."""
    x07 = lambda x: np.asarray(x, dtype=float) ** 0.7
    splines = {name: s for name, s, _, _ in encoder_catalog() if name.startswith("free_")}
    splines.update({f"x07-N{n}": greedy_badic_knots(x07, n, 1, 2.0) for n in (64, 128, 256, 512)})
    splines["sqrt-b3"] = greedy_badic_knots(np.sqrt, 81, 2, 2.0, base=3)
    cases = {
        name: (lambda s=s: encode_free_knot_spline(s),
               lambda s=s: _block_sum_free_knot(s, summed=_dense_block_sum))
        for name, s in splines.items()
    }
    terms = _wavelet_terms()
    cases["wavelet-block-sum"] = (lambda: block_sum(terms), lambda: _dense_block_sum(terms))
    # add hands over the entries of a train in entry form, with and without a dense one
    cases["add-entries-dense"] = (
        lambda: add(block_sum(terms[:9]), terms[9]),
        lambda: _dense_block_sum([_dense_block_sum(terms[:9]), terms[9]]),
    )
    cases["add-entries-entries"] = (
        lambda: add(block_sum(terms[:9]), block_sum(terms[9:])),
        lambda: _dense_block_sum([_dense_block_sum(terms[:9]), _dense_block_sum(terms[9:])]),
    )
    # a sum and its copy with -0.0 for every zero: the bytes keep the signs,
    # and the merge folds the two as a scan of the dense cores does
    t = _dense_block_sum(terms[3:7])
    signed = TensorTrain(t.grid, [np.where(c == 0, -0.0, c) for c in t.cores], t.leaf, t.basis)
    cases["add-signed-zeros"] = (lambda: add(t, signed), lambda: _dense_block_sum([t, signed]))
    return cases


_ENTRY_FORM_NAMES = [
    *(f"free_b{b}_N{n}_m{m}" for b, n, m in ((2, 2, 1), (2, 3, 2), (2, 4, 1), (3, 2, 1), (3, 3, 2))),
    *(f"x07-N{n}" for n in (64, 128, 256, 512)),
    "sqrt-b3", "wavelet-block-sum", "add-entries-dense", "add-entries-entries", "add-signed-zeros",
]


@pytest.fixture(scope="module")
def entry_form():
    """entry_form(name): (a fresh train in entry form, the dense write),
    the dense write built once per module."""
    cases, dense = _entry_form_cases(), {}
    assert sorted(cases) == sorted(_ENTRY_FORM_NAMES)

    def get(name):
        make, write = cases[name]
        if name not in dense:
            dense[name] = write()
        return make(), dense[name]

    yield get
    dense.clear()


@pytest.mark.parametrize("name", _ENTRY_FORM_NAMES)
def test_entry_form_cores_are_the_bytes_of_the_dense_write(entry_form, name):
    tt, ref = entry_form(name)
    assert tt._cores is None  # in entry form until the first read
    assert tt.grid == ref.grid and tt.bond_dims == ref.bond_dims
    assert tt.cores is tt.cores  # written once, then cached
    for x, y in zip((*tt.cores, tt.leaf), (*ref.cores, ref.leaf)):
        assert not x.flags.writeable
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _sweep_results(tt):
    rounded = tt_round(tt, 1e-12)
    rep = complexity(tt)
    return (
        [a.tobytes() for a in (*rounded.cores, rounded.leaf)],
        rounded.bond_dims,
        ranks(tt),
        norm_l2(tt),
        [S.tobytes() for S in singular_values(tt)],
        (rep.cost_n, rep.cost_c, rep.cost_s, rep.ranks),
        complexity(tt, 1e-3),
    )


@pytest.mark.parametrize("name", _ENTRY_FORM_NAMES)
def test_entry_form_sweeps_give_the_bits_of_the_dense_rebuild(entry_form, name):
    tt, _ = entry_form(name)
    got = _sweep_results(tt)
    if tt.bond_dims[0] > tt.base:  # the merge reads the entries
        assert tt._cores is None
    assert got == _sweep_results(TensorTrain(tt.grid, tt.cores, tt.leaf, tt.basis))


def test_free_knot_encode_and_round_never_write_the_dense_block_sum():
    s = greedy_badic_knots(lambda x: np.asarray(x, dtype=float) ** 0.7, 512, 1, 2.0)
    tracemalloc.start()
    try:
        tt = encode_free_knot_spline(s)
        rounded = tt_round(tt, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense_bytes = 8 * sum(math.prod(shape) for shape in tt._shapes)
    assert dense_bytes > 150 * 2**20  # the dense cores: about 160 MiB
    assert peak <= 24 * 2**20, peak  # about 8 MiB measured
    want = s(QUASI)
    assert np.abs(evaluate(rounded, QUASI) - want).max() <= 1e-9 * np.abs(want).max()


def test_entry_form_cores_are_written_once_under_concurrent_reads():
    # more readers than cores, switching often: a second write of the cores
    # would hand some reader another tuple
    s = greedy_badic_knots(np.sqrt, 64, 1, 2.0)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            tt = encode_free_knot_spline(s)
            barrier = threading.Barrier(8, timeout=10)
            seen = []

            def read():
                barrier.wait()
                seen.append(tt.cores)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(c is seen[0] for c in seen)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("degree", range(9))
def test_affine_recoeff_is_polynomial_composition(degree):
    rng = np.random.default_rng(degree)
    c = rng.standard_normal(degree + 1)
    for shift, h in ((0.0, 1.0), (0.0, 0.25), (0.375, 1.0), (rng.random(), rng.random())):
        want = Polynomial(c)(Polynomial([shift, h])).coef
        got = _affine_recoeff(c, shift, h)
        assert got.size == degree + 1
        assert np.array_equal(got, np.pad(want, (0, degree + 1 - want.size)))


@pytest.mark.parametrize(
    "base, knots",
    [
        (2.9, [[1, 1]]),
        (2.0, [[1, 1]]),
        (True, [[1, 1]]),
        (2, [[1.7, 1]]),
        (2, [[1, 1, 5]]),
        (2, [[1]]),
        (2, [True]),
        (2, ["0.5"]),
        (0, [0.5]),
    ],
)
def test_from_json_dict_rejects_a_malformed_base_or_knot(base, knots):
    doc = {"base": base, "knots": knots, "pieces": [[1.0], [2.0]]}
    with pytest.raises(DomainError) as info:
        PiecewisePolynomial.from_json_dict(doc)
    assert not isinstance(info.value, KnotError)


def test_from_json_dict_reads_an_object_of_integer_pairs_and_numbers():
    doc = {"base": 2, "knots": [[1, 2], 0.375, [np.int64(7), 3]], "pieces": [[0.0]] * 4}
    assert PiecewisePolynomial.from_json_dict(doc).knots == ((1, 2), (3, 3), (7, 3))
    with pytest.raises(DomainError, match="JSON object"):
        PiecewisePolynomial.from_json_dict([2, [], [[0.0]]])


def test_free_knot_reports_offending_knot():
    with pytest.raises(KnotError, match="0.3"):
        PiecewisePolynomial.from_json_dict(
            {"base": 2, "knots": [0.3], "pieces": [[1.0], [2.0]]}
        )


# ---------------------------------------------------------------------------
# dilations and wavelet sums
# ---------------------------------------------------------------------------


def _haar_fn(level, shift, p=2.0):
    def f(x):
        x = np.asarray(x, dtype=float)
        t = 2.0**level * x - shift
        inside = (t >= 0) & (t < 1)
        return 2.0 ** (level / p) * np.where(t < 0.5, -1.0, 1.0) * inside

    return f


def test_dilated_haar():
    tt = encode_dilated(WaveletSpec(haar_mother(), 2, 1, 2.0), 6)
    assert ranks(tt).ranks == (1, 1, 1, 1, 1, 1)
    assert norm_l2(tt) == pytest.approx(1.0, abs=1e-13)
    ref = _haar_fn(2, 1)
    assert np.abs(evaluate(tt, QUASI) - ref(QUASI)).max() < 1e-13


def test_dilated_hat():
    tt = encode_dilated(WaveletSpec(hat_mother(), 1, 0, 2.0), 5)
    assert ranks(tt).ranks[0] == 1
    assert all(r <= 2 for r in ranks(tt).ranks[1:])


def test_dilated_level_zero_identity():
    h = haar_mother()
    tt = encode_dilated(WaveletSpec(h, 0, 0, 2.0), 1)
    assert np.abs(evaluate(tt, QUASI) - evaluate(h, QUASI)).max() == 0.0


@pytest.mark.parametrize("level, shift", [(1.0, 0), (1, 0.0), (1.5, 1), (True, 0), (1, "1")])
def test_wavelet_spec_rejects_a_level_or_shift_that_is_not_an_integer(level, shift):
    with pytest.raises(DomainError, match="is not an integer"):
        WaveletSpec(haar_mother(), level, shift)
    assert encode_dilated(WaveletSpec(haar_mother(), np.int64(2), np.int32(1)), 6).depth == 6


def test_dilated_depth_error():
    with pytest.raises(DomainError):
        encode_dilated(WaveletSpec(haar_mother(), 2, 0, 2.0), 2)


def test_n_term_single_matches_dilated():
    spec = WaveletSpec(haar_mother(), 1, 1, 2.0)
    a = n_term_wavelet([(1.0, spec)], 4)
    b = encode_dilated(spec, 4)
    assert np.abs(evaluate(a, QUASI) - evaluate(b, QUASI)).max() == 0.0


def test_n_term_disjoint_rounds_small():
    h = haar_mother()
    s = n_term_wavelet(
        [(1.0, WaveletSpec(h, 2, 0, 2.0)), (-3.0, WaveletSpec(h, 2, 3, 2.0))], 5
    )
    assert max(ranks(tt_round(s, 1e-12)).ranks) <= 2


def test_n_term_vanishing_moment():
    h = haar_mother()
    rng = np.random.default_rng(8)
    terms = [(float(c), WaveletSpec(h, 2, j, 2.0)) for j, c in enumerate(rng.standard_normal(4))]
    s = n_term_wavelet(terms, 5)
    one = encode_polynomial([1.0], Grid(2, 5), basis_kind=s.basis.kind)
    assert abs(dot_l2(s, one)) < 1e-12


def test_n_term_mixed_base_error():
    h2 = haar_mother()
    s3 = PiecewisePolynomial.uniform(3, 1, [[1.0], [0.0], [-1.0]])
    m3 = encode_fixed_knot_spline(s3)
    with pytest.raises(MixedBaseError):
        n_term_wavelet([(1.0, WaveletSpec(h2, 0, 0)), (1.0, WaveletSpec(m3, 0, 0))])


# ---------------------------------------------------------------------------
# sawtooth family
# ---------------------------------------------------------------------------


def test_sawtooth_depth1_is_hat_tooth():
    tt = encode_sawtooth(Grid(2, 1), 1)
    # single tooth: rises on the left half-leaf (psi_1(y) = y)
    assert tt(0.25) == pytest.approx(0.5, abs=1e-15)
    assert tt(0.75) == pytest.approx(0.5, abs=1e-15)
    assert tt(0.5) == pytest.approx(1.0, abs=1e-15)


def test_sawtooth_norms():
    tt = encode_sawtooth(Grid(2, 3), 1)
    assert norm_l2(tt) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_sawtooth_ranks_exactly_two():
    for d in (2, 4, 6):
        tt = encode_sawtooth(Grid(2, d), 1)
        assert ranks(tt).ranks == tuple([2] * d)
        f = sawtooth_function(d)
        assert [rank_span_oracle(f, Grid(2, d), nu) for nu in range(1, d + 1)] == [2] * d


def test_sawtooth_matches_sampler():
    for d in (1, 3, 6):
        tt = encode_sawtooth(Grid(2, d), 2)
        f = sawtooth_function(d)
        assert np.abs(evaluate(tt, QUASI) - f(QUASI)).max() < 1e-14


def test_sawtooth_base_error():
    with pytest.raises(DomainError):
        encode_sawtooth(Grid(3, 3), 1)
    with pytest.raises(DomainError):
        encode_sawtooth(Grid(2, 3), 0)
    with pytest.raises(DomainError, match="not an integer"):  # used to be a TypeError
        encode_sawtooth(Grid(2, 3), 1.5)


@pytest.mark.parametrize("depth, message", [(0, "depth must be >= 1, got 0"), (2.5, "not an integer")])
def test_sawtooth_function_rejects_a_depth_below_1(depth, message):
    # depth 0 built a sampler that ended in an IndexError at its first call
    with pytest.raises(DomainError, match=message):
        sawtooth_function(depth)


# ---------------------------------------------------------------------------
# every encoder matches its source pointwise
# ---------------------------------------------------------------------------


def test_encoder_outputs_match_sources():
    rng = np.random.default_rng(10)
    cases = []
    c = rng.standard_normal(4)
    cases.append((lambda x: np.polynomial.polynomial.polyval(np.asarray(x), c),
                  encode_polynomial(c, Grid(2, 5))))
    s = random_fixed_knot_spline(rng, 2, 3, 2, 0)
    cases.append((s, encode_fixed_knot_spline(s)))
    fs = random_free_knot_spline(rng, 2, 3, 1, 4)
    cases.append((fs, encode_free_knot_spline(fs)))
    cases.append((_haar_fn(1, 1), encode_dilated(WaveletSpec(haar_mother(), 1, 1, 2.0), 4)))
    cases.append((sawtooth_function(4), encode_sawtooth(Grid(2, 4), 1)))
    for f, tt in cases:
        assert np.abs(evaluate(tt, QUASI) - np.asarray(f(QUASI))).max() < 1e-12


_NO_SCIPY_SCRIPT = """
import json, sys
import numpy as np
import ttfun
from ttfun.analysis import greedy_badic_knots
from ttfun.complexity import complexity
from ttfun.encoders import encode_free_knot_spline
from ttfun.interpolation import chebyshev_truncate
from ttfun.train import evaluate, from_json_dict, ranks, to_json_dict, tt_round

pp = greedy_badic_knots(lambda x: x**0.7, 64, 1, 2.0)
rounded = tt_round(encode_free_knot_spline(pp), 1e-12)
ranks(rounded)
complexity(rounded)
back = from_json_dict(json.loads(json.dumps(to_json_dict(rounded))))
x = np.random.default_rng(0).random(1000)
assert np.array_equal(evaluate(back, x), evaluate(rounded, x))
assert np.abs(evaluate(rounded, x) - pp(x)).max() <= 1e-9
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
c = chebyshev_truncate(lambda t: t**2, 4)
assert np.allclose(c, [0.375, 0.5, 0.125, 0, 0], atol=1e-15), c
print("ok")
"""


def test_the_free_knot_path_loads_no_scipy():
    # one BLAS per process: scipy's own OpenBLAS doubles the resident memory
    # after import; only chebyshev_truncate and the target seminorms load it
    env = dict(os.environ, PYTHONPATH=str(Path(ttfun.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


@pytest.mark.parametrize(
    "knot, message",
    [
        ((1.5, 1), "knot index 1.5 is not an integer"),
        ((True, 1), "knot index True is not an integer"),
        ((1, 1.0), "knot level 1.0 is not an integer"),
        ((1, -1), "knot level must be >= 0, got -1"),
    ],
)
def test_a_knot_index_or_level_that_is_not_an_integer_is_rejected(knot, message):
    # (1.5, 1) used to read as 1/2, and (1, -1) to end in a TypeError from Fraction
    with pytest.raises(DomainError, match=f"^{message}$"):
        PiecewisePolynomial(2, (knot,), ([1.0], [2.0]))
    s = PiecewisePolynomial(np.int64(2), ((np.int64(1), np.int32(2)),), ([1.0], [2.0]))
    assert s.knots == ((1, 2),)
    assert json.loads(json.dumps(s.to_json_dict())) == {
        "base": 2, "knots": [[1, 2]], "pieces": [[1.0], [2.0]]
    }


@pytest.mark.parametrize("key", ["base", "pieces"])
def test_from_json_dict_names_a_missing_base_or_pieces(key):
    doc = {"base": 2, "knots": [[1, 1]], "pieces": [[1.0], [2.0]]}
    del doc[key]
    with pytest.raises(DomainError, match=f"^spline document lacks '{key}'$"):
        PiecewisePolynomial.from_json_dict(doc)


def test_encode_polynomial_maps_a_chebyshev_input_to_a_monomial_leaf():
    c = np.array([0.3, -1.2, 0.7, 0.25])
    tt = encode_polynomial(c, Grid(2, 4), input_basis="chebyshev", basis_kind="monomial")
    assert tt.basis == PolyBasis(3, "monomial")
    want = np.polynomial.chebyshev.chebval(2.0 * QUASI - 1.0, c)
    assert np.abs(evaluate(tt, QUASI) - want).max() < 1e-13
