import json
import math
import tracemalloc

import numpy as np
import pytest

from ttfun.analysis import greedy_badic_knots
from ttfun.basis import PolyBasis
from ttfun.encoders import (
    WaveletSpec,
    encode_dilated,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    hat_mother,
)
from ttfun.grids import DomainError, Grid
from ttfun.train import (
    MismatchError,
    TensorTrain,
    add,
    block_sum,
    deepen,
    dot_l2,
    evaluate,
    from_json_dict,
    norm_l2,
    orthogonalize,
    ranks,
    scale,
    singular_values,
    to_json_dict,
    tt_round,
    zero_train,
)

QUASI = np.mod(0.5 + np.arange(1, 201) * 0.6180339887498949, 1.0)


def test_structure_validation():
    grid = Grid(2, 2)
    basis = PolyBasis(1)
    with pytest.raises(MismatchError):
        TensorTrain(grid, [np.ones((2, 1, 2))], np.ones((2, 2)), basis)
    with pytest.raises(MismatchError):
        TensorTrain(grid, [np.ones((2, 1, 2)), np.ones((2, 3, 1))], np.ones((1, 2)), basis)


def test_evaluate_identity_polynomial():
    tt = encode_polynomial([0.0, 1.0], Grid(2, 3))
    assert tt(0.375) == pytest.approx(0.375, abs=1e-15)
    xs = QUASI
    assert np.abs(evaluate(tt, xs) - xs).max() < 1e-14


def test_evaluate_sawtooth_at_zero():
    tt = encode_sawtooth(Grid(2, 4), 1)
    assert tt(0.0) == 0.0  # leftmost leaf carries psi_1(y) = y


def test_evaluate_hat_peak():
    tt = hat_mother()
    assert tt(0.5) == pytest.approx(1.0, abs=1e-14)


def test_evaluate_domain_error():
    tt = encode_polynomial([1.0], Grid(2, 2))
    with pytest.raises(DomainError):
        tt(1.0)
    with pytest.raises(DomainError):
        tt(-0.5)


def test_add_zero_train():
    a = encode_polynomial([0.2, -1.0, 0.7], Grid(2, 4))
    z = zero_train(a.grid, a.basis)
    s = add(a, z)
    xs = QUASI[:100]
    assert np.abs(evaluate(s, xs) - evaluate(a, xs)).max() < 1e-14


def test_add_complementary_lines():
    a = encode_polynomial([0.0, 1.0], Grid(2, 3))
    b = encode_polynomial([1.0, -1.0], Grid(2, 3))
    s = add(a, b)
    assert np.abs(evaluate(s, QUASI) - 1.0).max() < 1e-14


def test_add_rank_growth_haar_shifts():
    h = haar_mother()
    a = encode_dilated(WaveletSpec(h, 1, 0, 2.0), 4)
    b = encode_dilated(WaveletSpec(h, 1, 1, 2.0), 4)
    s = add(a, b)
    assert all(r <= ra + rb for r, ra, rb in zip(s.bond_dims, a.bond_dims, b.bond_dims))
    assert max(s.bond_dims) <= 2


def test_add_mismatch():
    a = encode_polynomial([1.0], Grid(2, 2))
    b = encode_polynomial([1.0], Grid(2, 3))
    with pytest.raises(MismatchError):
        add(a, b)
    c = encode_polynomial([1.0, 0.0], Grid(2, 2))  # different leaf degree
    with pytest.raises(MismatchError):
        add(a, c)


def test_block_sum_matches_folded_add():
    rng = np.random.default_rng(0)
    parts = [encode_polynomial(rng.standard_normal(3), Grid(2, 3)) for _ in range(4)]
    folded = parts[0]
    for p in parts[1:]:
        folded = add(folded, p)
    bulk = block_sum(parts)
    assert np.abs(evaluate(bulk, QUASI) - evaluate(folded, QUASI)).max() < 1e-13


def test_scale():
    a = encode_polynomial([0.0, 0.0, 1.0], Grid(2, 4))
    assert np.abs(evaluate(scale(a, 0.0), QUASI)).max() == 0.0
    assert np.abs(evaluate(scale(a, 1.0), QUASI) - evaluate(a, QUASI)).max() == 0.0
    assert scale(a, 3.0)(0.5) == pytest.approx(0.75, abs=1e-14)
    assert scale(a, 3.0).bond_dims == a.bond_dims


def test_evaluation_linearity():
    rng = np.random.default_rng(5)
    a = encode_polynomial(rng.standard_normal(4), Grid(2, 5))
    b = encode_sawtooth(Grid(2, 5), 3)
    s = add(a, scale(b, -2.5))
    ref = evaluate(a, QUASI) - 2.5 * evaluate(b, QUASI)
    assert np.abs(evaluate(s, QUASI) - ref).max() < 1e-12


@pytest.mark.parametrize("direction", ["left", "right"])
def test_orthogonalize_preserves_evaluations(direction):
    rng = np.random.default_rng(1)
    tt = encode_polynomial(rng.standard_normal(5), Grid(2, 6))
    ot = orthogonalize(tt, direction)
    ref = evaluate(tt, QUASI)
    rel = np.abs(evaluate(ot, QUASI) - ref).max() / np.abs(ref).max()
    assert rel < 1e-12
    # double orthogonalization stays put
    oot = orthogonalize(ot, direction)
    assert np.abs(evaluate(oot, QUASI) - ref).max() / np.abs(ref).max() < 1e-12


def test_orthogonalize_zero():
    z = zero_train(Grid(2, 3), PolyBasis(1))
    assert np.abs(evaluate(orthogonalize(z, "right"), QUASI)).max() == 0.0


def test_round_collapses_duplicate_block():
    a = encode_sawtooth(Grid(2, 5), 1)
    dup = add(a, scale(a, 0.0))
    assert max(dup.bond_dims) == 4
    r = tt_round(dup, 1e-12)
    assert r.bond_dims == a.bond_dims
    assert np.abs(evaluate(r, QUASI) - evaluate(a, QUASI)).max() < 1e-12


def test_round_haar_pair():
    h = haar_mother()
    s = add(
        encode_dilated(WaveletSpec(h, 2, 0, 2.0), 5),
        encode_dilated(WaveletSpec(h, 2, 3, 2.0), 5),
    )
    r = tt_round(s, 1e-12)
    assert max(r.bond_dims) <= 2


def test_round_degree5_profile():
    # with tol=0 the exact dimension profile min(6, 2^nu) survives; the
    # deepest sixth directions sit below 1e-12 relative, so the 1e-12
    # rounding is checked through its evaluation contract instead
    rng = np.random.default_rng(0)
    c = rng.standard_normal(6)
    tt = encode_polynomial(c, Grid(2, 6))
    r0 = tt_round(tt, 0.0)
    assert r0.bond_dims == tuple(min(6, 2**nu) for nu in range(1, 7))
    r = tt_round(tt, 1e-12)
    assert all(a <= b for a, b in zip(r.bond_dims, r0.bond_dims))
    num = norm_l2(add(r, scale(tt, -1.0)))
    assert num <= 1e-12 * norm_l2(tt)


def test_round_l2_contract():
    rng = np.random.default_rng(9)
    tt = block_sum(
        [encode_polynomial(rng.standard_normal(4), Grid(2, 5)) for _ in range(3)]
    )
    for tol in (0.0, 1e-12, 1e-6):
        r = tt_round(tt, tol)
        diff = norm_l2(add(r, scale(tt, -1.0)))
        assert diff <= max(tol, 1e-12) * norm_l2(tt) * 1.01
        assert all(a <= b for a, b in zip(r.bond_dims, tt.bond_dims))


def test_ranks_known_values():
    assert ranks(encode_sawtooth(Grid(2, 5), 1)).ranks == (2, 2, 2, 2, 2)
    h = encode_dilated(WaveletSpec(haar_mother(), 2, 1, 2.0), 6)
    assert ranks(h).ranks == (1, 1, 1, 1, 1, 1)
    t = encode_dilated(WaveletSpec(hat_mother(), 0, 0, 2.0), 5)
    assert all(r <= 2 for r in ranks(t).ranks)


def test_ranks_dimension_bound():
    rng = np.random.default_rng(4)
    for b, d, deg in ((2, 5, 3), (3, 3, 2), (2, 6, 1)):
        tt = encode_polynomial(rng.standard_normal(deg + 1), Grid(b, d))
        for nu, r in enumerate(ranks(tt).ranks, start=1):
            assert r <= min(b**nu, (deg + 1) * b ** (d - nu))


def test_ranks_zero_train():
    assert ranks(zero_train(Grid(2, 3), PolyBasis(2))).ranks == (0, 0, 0)


def test_norm_against_quadrature():
    # right-orthogonalized first-core Frobenius norm (with the leaf Gram)
    # against direct composite quadrature
    rng = np.random.default_rng(11)
    for kind in ("legendre", "monomial", "chebyshev"):
        tt = encode_polynomial(rng.standard_normal(4), Grid(2, 5), basis_kind=kind)
        nodes, weights = np.polynomial.legendre.leggauss(12)
        ys = 0.5 * (nodes + 1.0)
        cells = 2**7
        xs = np.minimum((np.arange(cells)[:, None] + ys) / cells, np.nextafter(1, 0))
        quad = math.sqrt(np.sum(0.5 * weights / cells * evaluate(tt, xs.ravel()).reshape(cells, -1) ** 2))
        assert norm_l2(tt) == pytest.approx(quad, rel=1e-10)


def test_dot_l2():
    a = encode_polynomial([0.0, 1.0], Grid(2, 4))  # x
    b = encode_polynomial([1.0, 0.0], Grid(2, 4))  # 1
    assert dot_l2(a, b) == pytest.approx(0.5, abs=1e-14)
    assert dot_l2(a, a) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_singular_values_match_dense_unfolding():
    rng = np.random.default_rng(2)
    s = encode_fixed_knot_spline(
        __import__("ttfun").encoders.random_fixed_knot_spline(rng, 2, 3, 1, -1)
    )
    spectra = singular_values(s)
    # dense check at nu = 2: unfolding of the Gram-weighted coefficients
    C = s.leaf_coefficients() @ s.basis.gram_cholesky()
    M = C.reshape(4, -1)
    dense = np.linalg.svd(M, compute_uv=False)
    mine = spectra[1]
    assert np.allclose(np.sort(dense)[::-1][: mine.size], mine, rtol=1e-10, atol=1e-12)


def test_deepen_exact():
    rng = np.random.default_rng(8)
    tt = encode_polynomial(rng.standard_normal(4), Grid(2, 3))
    dd = deepen(tt, 4)
    assert dd.depth == 7
    assert np.abs(evaluate(dd, QUASI) - evaluate(tt, QUASI)).max() < 1e-13


def test_json_round_trip():
    rng = np.random.default_rng(13)
    tt = encode_polynomial(rng.standard_normal(3), Grid(2, 4), basis_kind="chebyshev")
    doc = json.loads(json.dumps(to_json_dict(tt)))
    back = from_json_dict(doc)
    assert back.grid == tt.grid and back.basis == tt.basis
    assert np.abs(evaluate(back, QUASI) - evaluate(tt, QUASI)).max() == 0.0


def test_immutability():
    tt = encode_polynomial([1.0, 2.0], Grid(2, 2))
    with pytest.raises(ValueError):
        tt.cores[0][0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        tt.leaf[0, 0] = 5.0


@pytest.mark.parametrize("input_basis", ["monomial", "chebyshev"])
@pytest.mark.parametrize("leaf", ["legendre", "chebyshev"])
def test_polynomial_chains_exact_to_degree_30(input_basis, leaf):
    # deepen by 10 levels and a depth-12 encode stay at roundoff relative
    # to sum |c| at every degree, in both orthogonal leaf bases
    xs = QUASI[:100]
    for deg in range(31):
        c = np.random.default_rng(deg).standard_normal(deg + 1)
        if input_basis == "monomial":
            ref = np.polynomial.polynomial.polyval(xs, c)
        else:
            ref = np.polynomial.chebyshev.chebval(2.0 * xs - 1.0, c)
        shallow = encode_polynomial(c, Grid(2, 2), input_basis=input_basis, basis_kind=leaf)
        deep = encode_polynomial(c, Grid(2, 12), input_basis=input_basis, basis_kind=leaf)
        for tt in (deepen(shallow, 10), deep):
            err = np.abs(evaluate(tt, xs) - ref).max()
            assert err <= 1e-12 * np.abs(c).sum(), (deg, tt.depth, err)


def test_norm_l2_agrees_across_orthogonal_leaves():
    rng = np.random.default_rng(30)
    for deg in (0, 1, 5, 8, 12, 20, 30):
        c = rng.standard_normal(deg + 1)
        leg = norm_l2(encode_polynomial(c, Grid(2, 3), input_basis="chebyshev"))
        cheb = norm_l2(
            encode_polynomial(c, Grid(2, 3), input_basis="chebyshev", basis_kind="chebyshev")
        )
        assert cheb == pytest.approx(leg, rel=1e-12), deg


def _block_sum_train(n_pieces):
    """Free-knot train of x^0.7 as stored by the encoder: dense block-sum cores."""
    return encode_free_knot_spline(greedy_badic_knots(lambda x: x**0.7, n_pieces, 1, 2.0))


def test_round_allocates_less_than_its_input():
    t = _block_sum_train(128)
    core_bytes = sum(c.nbytes for c in t.cores)
    tracemalloc.start()
    try:
        tt_round(t, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * core_bytes, (peak, core_bytes)


def test_rounding_and_rank_sweeps_leave_input_cores_untouched():
    t = _block_sum_train(64)
    before = [c.copy() for c in t.cores] + [t.leaf.copy()]
    tt_round(t, 1e-12)
    orthogonalize(t, "left")
    orthogonalize(t, "right")
    norm_l2(t)
    ranks(t)
    for a, c in zip(before, list(t.cores) + [t.leaf]):
        assert not c.flags.writeable
        assert np.array_equal(a, c)


@pytest.mark.parametrize("n_pieces", [64, 128])
def test_block_sum_norm_dot_and_round(n_pieces):
    t = _block_sum_train(n_pieces)
    nrm = norm_l2(t)
    assert math.isclose(nrm**2, dot_l2(t, t), rel_tol=1e-12)
    residual = add(tt_round(t, 1e-6), scale(t, -1.0))
    assert norm_l2(residual) <= 1e-6 * nrm
