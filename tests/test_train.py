import itertools
import json
import math
import multiprocessing
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from ttfun import encoders as encoders_module
from ttfun import interpolation as interpolation_module
from ttfun import train as train_module
from ttfun.analysis import greedy_badic_knots
from ttfun.basis import PolyBasis
from ttfun.complexity import complexity
from ttfun.encoders import (
    WaveletSpec,
    encode_dilated,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    hat_mother,
    n_term_wavelet,
    random_fixed_knot_spline,
)
from ttfun.grids import DomainError, Grid, encode_points
from ttfun.interpolation import Interpolator, tensor_interpolate
from ttfun.train import (
    _CHUNK,
    MismatchError,
    TensorTrain,
    _sweep_chunk,
    _unweighted,
    add,
    block_sum,
    deepen,
    dilation_cores,
    dot_l2,
    evaluate,
    fit_coefficients,
    from_json_dict,
    norm_l2,
    orthogonalize,
    ranks,
    scale,
    singular_values,
    to_json_dict,
    train_from_leaf_coefficients,
    tt_round,
    zero_train,
)

from fixtures import _block_sum_free_knot, encoder_catalog

QUASI = np.mod(0.5 + np.arange(1, 201) * 0.6180339887498949, 1.0)


def test_structure_validation():
    grid = Grid(2, 2)
    basis = PolyBasis(1)
    with pytest.raises(MismatchError):
        TensorTrain(grid, [np.ones((2, 1, 2))], np.ones((2, 2)), basis)
    with pytest.raises(MismatchError):
        TensorTrain(grid, [np.ones((2, 1, 2)), np.ones((2, 3, 1))], np.ones((1, 2)), basis)
    with pytest.raises(MismatchError, match=r"core 2 has shape \(3, 2, 1\)"):
        TensorTrain(grid, [np.ones((2, 1, 2)), np.ones((3, 2, 1))], np.ones((1, 2)), basis)
    with pytest.raises(MismatchError, match=r"leaf shape \(2, 2\), want \(1, 2\)"):
        TensorTrain(grid, [np.ones((2, 1, 2)), np.ones((2, 2, 1))], np.ones((2, 2)), basis)


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


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 1e308, np.float64(-1e308)])
@pytest.mark.parametrize("depth", [0, 5])
def test_scale_rejects_a_non_finite_factor_or_result(c, depth):
    # nan used to pass through silently; inf and 1e308 overflowed the core
    a = encode_polynomial([1.0, 2.0, 3.0], Grid(2, depth))
    with pytest.raises(DomainError):
        scale(a, c)
    assert scale(a, 1e300)(0.5) == pytest.approx(1e300 * 2.75)


def test_scale_keeps_a_block_sum_as_its_entries():
    # the dense cores of the N=512 free-knot block sum are about 174 MiB
    tt = encode_free_knot_spline(greedy_badic_knots(lambda x: x**0.6, 512, 1, 2.0))
    tracemalloc.start()
    try:
        out = scale(tt, -2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tt._cores is None and out._cores is None
    assert peak < 8 * 2**20, peak  # about 0.7 MiB measured
    dense = scale(TensorTrain(tt.grid, tt.cores, tt.leaf, tt.basis), -2.0)
    x = np.random.default_rng(512).random(1000)
    assert np.array_equal(evaluate(out, x), evaluate(dense, x))


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
    profile = ranks(zero_train(Grid(2, 3), PolyBasis(2)))
    assert profile.ranks == (0, 0, 0) and len(profile) == 3 and profile[-1] == 0


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
    assert dot_l2(zero_train(a.grid, a.basis), a) == 0.0  # every product is zero


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


@pytest.mark.parametrize("extra", [1.5, 2.0, "2", True, -1])
def test_deepen_rejects_an_extra_that_is_not_a_count(extra):
    # a float used to end in a TypeError from list repetition
    tt = encode_polynomial([1.0, 2.0], Grid(2, 3))
    with pytest.raises(DomainError, match="extra"):
        deepen(tt, extra)
    assert deepen(tt, np.int64(2)).depth == 5


def _fitted_dilation_cores(basis, b):
    """dilation_cores as one fit_coefficients call per basis function and child.

    dilation_cores repeats the steps of numpy's polyutils._fit with the
    Vandermonde matrix hoisted out of the loop; a numpy whose fit takes other
    steps shows up here as a byte mismatch."""
    _, val = train_module._FITS[basis.kind]
    A = np.zeros((b, basis.dim, basis.dim))
    for i in range(b):
        for q, e in enumerate(np.eye(basis.dim)):
            g = lambda x, e=e: val(2.0 * np.asarray(x) - 1.0, e)
            A[i, q] = fit_coefficients(g, basis, i / b, (i + 1) / b)
    return A


@pytest.mark.parametrize("kind", ["chebyshev", "legendre"])
@pytest.mark.parametrize(
    "b, degrees", [(2, (0, 1, 2, 7, 22, 60)), (3, (0, 3, 13)), (5, (1, 9)), (7, (2, 17))]
)
def test_dilation_cores_keep_the_bytes_of_the_per_function_fit(kind, b, degrees):
    for degree in degrees:
        basis = PolyBasis(degree, kind)
        want = _fitted_dilation_cores(basis, b)
        assert dilation_cores(basis, b).tobytes() == want.tobytes()


def test_json_round_trip():
    rng = np.random.default_rng(13)
    tt = encode_polynomial(rng.standard_normal(3), Grid(2, 4), basis_kind="chebyshev")
    doc = json.loads(json.dumps(to_json_dict(tt)))
    back = from_json_dict(doc)
    assert back.grid == tt.grid and back.basis == tt.basis
    assert np.abs(evaluate(back, QUASI) - evaluate(tt, QUASI)).max() == 0.0


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        (lambda doc: [doc], DomainError, "not a ttfun train document"),
        (lambda doc: {**doc, "base": [2]}, DomainError, "bad train document: int"),
        (lambda doc: {**doc, "cores": [["a"] * 2, doc["cores"][1]]}, DomainError,
         "core 1 is not a numeric array"),
        (lambda doc: {**doc, "cores": doc["cores"][:1]}, MismatchError, "1 cores but 2 core shapes"),
    ],
)
def test_from_json_dict_rejects_a_malformed_document(spoil, error, message):
    doc = to_json_dict(encode_polynomial([0.0, 1.0], Grid(2, 2)))
    with pytest.raises(error, match=message):
        from_json_dict(spoil(doc))


def test_train_operations_reject_out_of_range_arguments():
    tt = encode_polynomial([0.0, 1.0], Grid(2, 2))
    with pytest.raises(DomainError, match="4 leaves exceed the dense cap 3"):
        tt.leaf_coefficients(max_cells=3)
    with pytest.raises(MismatchError, match="empty train list"):
        block_sum([])
    with pytest.raises(DomainError, match="direction must be 'left' or 'right', got 'up'"):
        orthogonalize(tt, "up")
    with pytest.raises(DomainError, match=r"coefficient matrix shape \(3, 2\) does not match"):
        train_from_leaf_coefficients(np.ones((3, 2)), tt.grid, tt.basis)


@pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25, 1.0])
def test_leaf_values_rejects_a_y_outside_the_unit_interval(bad):
    # NaN used to give a row of NaN, and 1.5 extrapolated leaf j's polynomial
    # instead of reading leaf j + 1
    tt = encode_polynomial([0.0, 1.0], Grid(2, 2))
    with pytest.raises(DomainError, match=f"point {bad} outside"):
        tt.leaf_values([0.5, bad])
    ys = np.array([0.0, 0.25, np.nextafter(1.0, 0.0)])
    want = tt.leaf_coefficients() @ tt.basis.eval(ys).T
    assert tt.leaf_values(ys).tobytes() == want.tobytes()


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
    """Free-knot train of x^0.7 as block_sum of its per-cell trains (the
    tests' oracle, bitwise the encoder's cores): a block sum held as its
    entries."""
    return _block_sum_free_knot(greedy_badic_knots(lambda x: x**0.7, n_pieces, 1, 2.0))


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


@pytest.mark.parametrize("direction", ["left", "right"])
def test_orthogonalize_yields_orthonormal_unfoldings(direction):
    # a block sum: redundant bonds, so neither sweep is a no-op
    rng = np.random.default_rng(3)
    t = add(
        encode_polynomial(rng.standard_normal(4), Grid(3, 4)),
        encode_polynomial(rng.standard_normal(4), Grid(3, 4)),
    )
    ot = orthogonalize(t, direction)
    assert np.abs(evaluate(ot, QUASI) - evaluate(t, QUASI)).max() < 1e-12
    if direction == "left":
        blocks = [c.transpose(1, 0, 2).reshape(-1, c.shape[2]) for c in ot.cores]
    else:
        rows = [c.transpose(1, 0, 2).reshape(c.shape[1], -1) for c in ot.cores[1:]]
        blocks = [m.T for m in rows + [ot.leaf]]
    for Q in blocks:
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-12


@pytest.mark.parametrize("b, d, m, c", [(2, 6, 2, -1), (2, 10, 1, 0), (3, 3, 3, 1), (3, 4, 2, -1)])
def test_dense_svd_and_rounding_share_one_truncation_rule(b, d, m, c):
    s = random_fixed_knot_spline(np.random.default_rng(40 + d), b, d, m, c)
    basis = PolyBasis(m)
    C = np.stack(s.pieces) @ basis.from_monomial()
    exact = train_from_leaf_coefficients(C, Grid(b, d), basis, 0.0)
    for tol in (0.0, 1e-12, 1e-6, 1e-3, 1e-1):
        dense = train_from_leaf_coefficients(C, Grid(b, d), basis, tol)
        assert dense.bond_dims == tt_round(exact, tol).bond_dims, tol
    with pytest.raises(DomainError):
        train_from_leaf_coefficients(C, Grid(b, d), basis, -1e-3)


def _mask_sweep(tt, x):
    """Reference evaluation: the per-core, per-digit mask sweep over the
    (n, d) digit matrix of encode_points."""
    digits, y = encode_points(x, tt.grid)
    v = np.ones((x.size, 1))
    for nu, core in enumerate(tt.cores):
        out = np.empty((x.size, core.shape[2]))
        for s in range(tt.base):
            sel = digits[:, nu] == s
            if np.any(sel):
                out[sel] = v[sel] @ core[s]
        v = out
    return np.einsum("nr,rq,nq->n", v, tt.leaf, tt.basis.eval(y))


_SWEEP_DEPTH = {2: 30, 3: 12, 5: 8, 7: 7}


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_evaluate_matches_mask_sweep_over_encode_points_digits(b):
    rng = np.random.default_rng(b)
    d = _SWEEP_DEPTH[b]
    grid = Grid(b, d)
    poly = encode_polynomial(rng.standard_normal(6), grid)
    cores = [rng.standard_normal((b, 1 if nu == 0 else 4, 4)) / 2 for nu in range(d)]
    rand = TensorTrain(grid, cores, rng.standard_normal((4, 3)), PolyBasis(2))
    bitwise = 0
    for n in (0, 1, 2, 7, 4097, 8191, 8192, 8193):
        j = rng.integers(1, d + 1, size=n)
        k = np.floor(rng.random(n) * np.power(float(b), j))
        on_grid = k / np.power(float(b), j)  # b-adic points, where ties resolve downward
        for x in (rng.random(n), on_grid):
            digits, _ = encode_points(x, grid)
            one_row = any(1 in np.bincount(digits[:, nu], minlength=b) for nu in range(d))
            for tt in (poly, rand):
                got, want = evaluate(tt, x), _mask_sweep(tt, x)
                if not one_row:
                    assert np.array_equal(got, want), (n, tt.bond_dims)
                    bitwise += 1
                else:
                    # a one-row digit group took the BLAS vector kernel in the
                    # reference, where the sweep multiplies the whole chunk
                    scale = np.abs(want).max()
                    assert np.abs(got - want).max() <= 1e-14 * scale, (n, tt.bond_dims)
    assert bitwise >= 16


def test_evaluate_allocates_o_chunk_memory():
    tt = encode_polynomial(np.arange(1.0, 7.0), Grid(2, 30))
    x = np.random.default_rng(7).random(200_000)
    tracemalloc.start()
    try:
        vals = evaluate(tt, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * vals.nbytes, (peak, vals.nbytes)


def test_evaluate_edge_shapes():
    tt = encode_polynomial([1.0, -2.0, 3.0], Grid(3, 5))
    x = np.random.default_rng(3).random((4, 5))
    assert evaluate(tt, np.array([])).shape == (0,)
    assert evaluate(tt, np.empty((0, 3))).shape == (0, 3)
    s = evaluate(tt, np.float64(x[1, 2]))
    assert type(s) is float and s == evaluate(tt, x[1, 2:3])[0]
    two_d = evaluate(tt, x)
    assert two_d.shape == x.shape
    assert np.array_equal(two_d, evaluate(tt, x.ravel()).reshape(x.shape))


def test_evaluate_depth_zero_train():
    basis = PolyBasis(3)
    leaf = np.array([[0.5, -1.0, 0.25, 2.0]])
    tt = TensorTrain(Grid(5, 0), [], leaf, basis)
    x = QUASI
    assert np.abs(evaluate(tt, x) - basis.eval(x) @ leaf[0]).max() < 1e-14
    assert evaluate(tt, 0.0) == pytest.approx(leaf[0] @ basis.eval(0.0))


def test_evaluate_leaves_read_only_input_untouched():
    tt = encode_polynomial([0.0, 0.0, 1.0], Grid(2, 12))
    x = np.random.default_rng(5).random(20_000)
    x.setflags(write=False)
    before = x.copy()
    vals = evaluate(tt, x)
    assert np.array_equal(x, before)
    assert np.abs(vals - x**2).max() < 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -0.5])
def test_evaluate_names_a_bad_point_past_the_first_chunk(bad):
    tt = encode_polynomial([0.0, 1.0], Grid(2, 8))
    x = np.random.default_rng(9).random(20_000)
    x[17_000] = bad
    with pytest.raises(DomainError, match=f"point {bad} outside"):
        evaluate(tt, x)


@pytest.mark.parametrize("where", ["core", "leaf", "overflow"])
def test_sweeps_reject_non_finite_trains(where):
    # "overflow": finite entries, but f = 1e308 (1 + x) exceeds the float range
    tt = encode_polynomial([1e308, 1e308] if where == "overflow" else [1.0, 2.0], Grid(2, 3))
    cores, leaf = [c.copy() for c in tt.cores], tt.leaf.copy()
    if where == "core":
        cores[1][0, 0, 0] = np.nan
    elif where == "leaf":
        leaf[0, 0] = np.inf
    bad = TensorTrain(tt.grid, cores, leaf, tt.basis)
    for sweep in (ranks, norm_l2, singular_values, orthogonalize, lambda t: tt_round(t, 0.0)):
        with pytest.raises(DomainError, match="non-finite entry or overflows"):
            sweep(bad)


@pytest.mark.parametrize("s", [1e-170, 1.0, 1e200])
def test_norm_and_rounding_are_scale_safe(s):
    # unscaled sums of squares overflow above ~1e154 and underflow below
    # ~1e-154, and rounding then dropped real directions
    unit = norm_l2(encode_polynomial([1.0] * 3, Grid(2, 4)))
    tt = encode_polynomial([s] * 3, Grid(2, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rounded = tt_round(tt, 1e-12)
        assert rounded.bond_dims == (2, 3, 3, 3)
        err = norm_l2(add(rounded, scale(tt, -1.0)))
        assert err <= 1e-12 * norm_l2(tt)
        assert abs(norm_l2(tt) - s * unit) <= 1e-14 * s * unit
        dense = train_from_leaf_coefficients(tt.leaf_coefficients(), tt.grid, tt.basis, 1e-12)
        assert dense.bond_dims == (2, 3, 3, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0, -0.5])
def test_single_point_route_names_a_bad_point_as_the_batch_does(bad):
    tt = encode_polynomial([0.0, 1.0], Grid(3, 5))
    with pytest.raises(DomainError) as batch:
        evaluate(tt, np.array([0.25, bad, 0.5]))
    assert str(batch.value) == f"point {bad} outside [0, 1)"
    for x in (bad, np.array(bad), np.array([bad]), np.array([[bad]])):
        with pytest.raises(DomainError) as single:
            evaluate(tt, x)
        assert str(single.value) == str(batch.value)


@pytest.mark.parametrize("b, d, m", [(2, 30, 5), (3, 12, 3), (5, 0, 2), (7, 6, 4)])
def test_single_point_route_matches_the_batch_sweep(b, d, m):
    rng = np.random.default_rng(b + d)
    tt = encode_polynomial(rng.standard_normal(m + 1), Grid(b, d))
    x = np.concatenate([rng.random(200), [0.0, 1.0 / b, np.nextafter(1.0, 0.0)]])
    batch = evaluate(tt, x)
    single = np.array([evaluate(tt, float(p)) for p in x])
    assert np.abs(single - batch).max() <= 1e-14 * np.abs(batch).max()
    for shape in ((1,), (1, 1)):
        out = evaluate(tt, x[:1].reshape(shape))
        assert out.shape == shape and out.dtype == float and out.item() == single[0]
    assert type(evaluate(tt, x[0])) is float


def _point_table_levels(b, bonds):
    """l of the single-point table: levels are added while a level's table
    holds at most 8 _CHUNK entries."""
    ell = 0
    while ell < len(bonds) and b ** (ell + 1) * bonds[ell] <= 8 * _CHUNK:
        ell += 1
    return ell


def _single_against_batch(tt, rng):
    """The worst single-point error against the batch route, relative to
    the largest batch value."""
    b = tt.base
    x = np.concatenate([rng.random(200), [0.0, 1.0 / b, 1.0 - 1.0 / b, np.nextafter(1.0, 0.0)]])
    batch = evaluate(tt, x)
    single = np.array([evaluate(tt, float(p)) for p in x])
    return np.abs(single - batch).max() / np.abs(batch).max()


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_single_point_evaluate_reads_its_table_at_every_depth(b):
    rng = np.random.default_rng(110 + b)
    top = next(k for k in range(40) if b ** (k + 1) > 8 * _CHUNK)  # b^top <= 8 _CHUNK
    d = _SWEEP_DEPTH[b]
    trains = {
        "depth-0": (),
        "d < l": (3, 4),
        "d = l": (2,) * (top - 1) + (8 * _CHUNK // b**top,),
        "d > l": (3,) * d,
        "wide": (1, 2, 3, 16, 17, 33, 64, 40, 9, 1, 64, 7)[:d],
    }
    for name, bonds in trains.items():
        tt = _train_with_bonds(b, bonds, 110 + b)
        assert _single_against_batch(tt, rng) <= 1e-14, name
        ell, table, slices = tt._point_tables
        assert ell == _point_table_levels(b, bonds), name
        assert table.shape == (b**ell, bonds[ell - 1] if ell else 1), name
        assert len(slices) == len(bonds) - ell, name
        assert (ell == len(bonds)) == (name in ("depth-0", "d < l", "d = l")), name
    # an unrounded free-knot train, whose dense cores the first call writes
    pp = greedy_badic_knots(np.sqrt, 3 * b, 1, 2.0, base=b)
    tt = encode_free_knot_spline(pp)
    assert tt._cores is None
    assert _single_against_batch(tt, rng) <= 1e-14
    assert tt._point_tables[0] == _point_table_levels(b, tt.bond_dims)


def test_single_point_evaluate_builds_its_table_once(monkeypatch):
    calls = []
    real = np.matmul

    def counting(*args, **kw):
        calls.append(1)
        return real(*args, **kw)

    tt = _random_train(3, 111)
    x = np.random.default_rng(111).random(50).tolist()
    monkeypatch.setattr(train_module.np, "matmul", counting)
    first = evaluate(tt, x[0])
    tables = tt._point_tables
    assert len(calls) == tables[0] >= 1  # one product per table level
    rest = [evaluate(tt, p) for p in x]
    monkeypatch.undo()
    assert len(calls) == tables[0] and tt._point_tables is tables
    assert rest[0] == first


def test_single_point_evaluate_table_stays_within_8_chunk_entries_at_bond_512():
    bonds = (2, 4, 8, 16, 32, 64, 128, 256, 512, 512, 512, 512)
    tt = _train_with_bonds(2, bonds, 112)
    assert _single_against_batch(tt, np.random.default_rng(112)) <= 1e-14
    ell, table, _ = tt._point_tables
    assert ell == 8 and table.size == 8 * _CHUNK  # level 9 would hold 2^9 * 512


def test_single_point_evaluate_first_calls_from_eight_threads():
    pp = greedy_badic_knots(np.sqrt, 27, 1, 2.0, base=3)
    x = np.random.default_rng(113).random(16).tolist()
    for _ in range(3):
        # a fresh train in entry form: the first call writes its dense
        # cores under _cores_lock and builds its table
        tt = encode_free_knot_spline(pp)
        assert tt._cores is None
        results = [None] * 8
        start = threading.Barrier(8, timeout=30)

        def run(k):
            start.wait()
            results[k] = [evaluate(tt, p) for p in x]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        want = [evaluate(tt, p) for p in x]
        assert all(got == want for got in results)


def _random_train(b, seed):
    rng = np.random.default_rng(seed)
    d = _SWEEP_DEPTH[b]
    cores = [rng.standard_normal((b, 1 if nu == 0 else 4, 4)) / 2 for nu in range(d)]
    return TensorTrain(Grid(b, d), cores, rng.standard_normal((4, 3)), PolyBasis(2))


@pytest.mark.parametrize("n", [_CHUNK + 1, 3 * _CHUNK + 1, 100_000])
@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_pooled_evaluate_equals_the_serial_chunk_sweep(b, n, monkeypatch):
    tt = _random_train(b, 60 + b)
    x = np.random.default_rng(n).random(n)
    chunks = _chunks(x)
    serial = _serial_sweep(tt, x)
    names = _record_sweep_threads(monkeypatch)
    assert np.array_equal(evaluate(tt, x), serial)
    assert len(names) == len(chunks)
    if train_module._per_point_madds(tt, chunks[0].size) >= train_module._POOL_MADDS:
        assert _on_the_pool(names), names
    else:
        assert names == [threading.current_thread().name] * len(chunks)


def test_evaluate_from_four_threads_at_once():
    tt = _random_train(3, 71)
    x = np.random.default_rng(71).random(5 * _CHUNK)
    want = evaluate(tt, x)
    results = [None] * 4
    start = threading.Barrier(4, timeout=30)

    def run(k):
        start.wait()
        results[k] = evaluate(tt, x)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        assert np.array_equal(got, want)


def _evaluate_in_child(conn, tt, x, want):
    conn.send(np.array_equal(evaluate(tt, x), want))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_evaluates_after_the_parent_made_its_pool():
    tt = _random_train(2, 72)
    x = np.random.default_rng(72).random(3 * _CHUNK + 1)
    want = evaluate(tt, x)  # creates the pool in this process
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_in_child, args=(send, tt, x, want))
    with warnings.catch_warnings():
        # forking a process that runs threads is the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert recv.poll(timeout=60), "the forked child hung in evaluate"
        assert recv.recv() is True
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0


def _pooled_train(seed):
    """A random b=2, d=30 train of bond 6: its chunks of 4097..8192 points
    carry 1224 or more multiply-adds per point below the prefix table, so
    evaluate maps them on the pool."""
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((2, 1 if nu == 0 else 6, 6)) / 2 for nu in range(30)]
    tt = TensorTrain(Grid(2, 30), cores, rng.standard_normal((6, 3)), PolyBasis(2))
    assert train_module._per_point_madds(tt, _CHUNK) >= train_module._POOL_MADDS
    return tt


def _serial_sweep(tt, x):
    """evaluate's chunks of x swept one after another on this thread."""
    chunks = _chunks(x)
    vals = np.empty(x.size)
    for t, out in zip(chunks, np.array_split(vals, len(chunks))):
        _sweep_chunk(tt, t, out)
    return vals


def _record_sweep_threads(monkeypatch):
    """The list that the name of the thread running each chunk sweep is
    appended to, from now on."""
    names, real = [], train_module._sweep_chunk

    def recording(tt, t, out):
        names.append(threading.current_thread().name)
        real(tt, t, out)

    monkeypatch.setattr(train_module, "_sweep_chunk", recording)
    return names


def _on_the_pool(names):
    return train_module._cpu_count() == 1 or all(
        n.startswith(train_module._POOL_NAME) for n in names
    )


@pytest.mark.parametrize("n", [_CHUNK + 1, 3 * _CHUNK + 1, 100_000])
def test_evaluate_maps_chunks_that_pay_on_the_pool(n, monkeypatch):
    tt = _pooled_train(73)
    x = np.random.default_rng(n).random(n)
    x.setflags(write=False)
    before = x.copy()
    serial = _serial_sweep(tt, x)
    names = _record_sweep_threads(monkeypatch)
    assert np.array_equal(evaluate(tt, x), serial)
    assert len(names) == -(-n // _CHUNK) and _on_the_pool(names), names
    assert np.array_equal(x, before)


def test_evaluate_on_the_pool_names_the_first_bad_point_of_a_later_chunk(monkeypatch):
    tt = _pooled_train(78)
    x = np.random.default_rng(78).random(3 * _CHUNK)
    x[_CHUNK + 5], x[_CHUNK + 9], x[2 * _CHUNK + 1] = np.nan, 1.5, -0.25
    names = _record_sweep_threads(monkeypatch)
    with pytest.raises(DomainError) as got:
        evaluate(tt, x)
    assert str(got.value) == "point nan outside [0, 1)"
    # the pool may cancel the third chunk once the second has raised
    assert len(names) >= 2 and _on_the_pool(names), names


def test_evaluate_joins_its_workers_before_it_returns_or_raises(monkeypatch):
    monkeypatch.setattr(train_module, "_cpu_count", lambda: 2)  # workers even on one CPU
    tt = _pooled_train(79)
    x = np.random.default_rng(79).random(3 * _CHUNK)
    want = _serial_sweep(tt, x)
    names = _record_sweep_threads(monkeypatch)

    def workers():
        return [
            th.name for th in threading.enumerate() if th.name.startswith(train_module._POOL_NAME)
        ]

    assert np.array_equal(evaluate(tt, x), want)
    assert len(names) == 3 and _on_the_pool(names), names
    assert workers() == []
    x[_CHUNK + 5] = np.nan
    with pytest.raises(DomainError, match="^point nan outside"):
        evaluate(tt, x)
    assert workers() == []


@pytest.mark.parametrize(
    "make",
    [lambda: encode_sawtooth(Grid(2, 10), 1), lambda: _random_train(3, 74)],
    ids=["sawtooth-0", "random-b3-192"],
)
def test_evaluate_keeps_narrow_chunks_on_the_callers_thread(make, monkeypatch):
    tt = make()
    x = np.random.default_rng(74).random(5 * _CHUNK + 3)
    assert train_module._per_point_madds(tt, _CHUNK) < train_module._POOL_MADDS
    serial = _serial_sweep(tt, x)
    names = _record_sweep_threads(monkeypatch)
    assert np.array_equal(evaluate(tt, x), serial)
    assert names == [threading.current_thread().name] * 6


def test_evaluate_on_the_pool_from_four_threads_at_once(monkeypatch):
    tt = _pooled_train(75)
    x = np.random.default_rng(75).random(5 * _CHUNK)
    want = _serial_sweep(tt, x)
    names = _record_sweep_threads(monkeypatch)
    results = [None] * 4
    start = threading.Barrier(4, timeout=30)

    def run(k):
        start.wait()
        results[k] = evaluate(tt, x)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for got in results:
        assert np.array_equal(got, want)
    assert len(names) == 4 * 5 and _on_the_pool(names), names


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork on this platform"
)
def test_forked_child_evaluates_a_pooled_train_after_the_parent_used_the_pool(monkeypatch):
    tt = _pooled_train(76)
    x = np.random.default_rng(76).random(3 * _CHUNK + 1)
    names = _record_sweep_threads(monkeypatch)
    want = evaluate(tt, x)
    assert len(names) == 4 and _on_the_pool(names), names
    monkeypatch.undo()  # the child runs the real sweep, and its own pool
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_evaluate_in_child, args=(send, tt, x, want))
    with warnings.catch_warnings():
        # forking a process that runs threads is the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        child.start()
    send.close()
    try:
        assert recv.poll(timeout=60), "the forked child hung in evaluate"
        assert recv.recv() is True
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert child.exitcode == 0


def test_column_order_einsums_keep_the_bits_of_the_default_order():
    """The premise of the column-order einsums (order="F"), which numpy
    does not promise: the leaf contraction of _sweep_chunk at n > 2 points,
    and each level of _extend_states, give the bits of einsum's default
    order; _extend_states also hands rows (C order) to the next product."""
    rng = np.random.default_rng(77)
    pool = rng.standard_normal(8192 * 70)  # operands are views of one draw

    def draw(*shape):
        size = math.prod(shape)
        start = rng.integers(0, pool.size - size + 1)
        return pool[start : start + size].reshape(shape)

    def same(got, want):
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    # every width up to 70 on few rows, a spread of widths on many rows
    # (the whole grid at 4096 rows would take a minute)
    every, some = range(1, 71), (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 70)
    for n in [*range(3, 65), 4097, 8192]:  # two points keep the default order
        for r in every if n <= 64 else some:
            for q in range(1, 9):
                v, leaf, phi = draw(n, r), draw(r, q), draw(n, q)
                got = np.einsum("nr,rq,nq->n", v, leaf, phi, order="F")
                assert same(got, np.einsum("nr,rq,nq->n", v, leaf, phi)), (n, r, q)
    for a, b in itertools.product((1, 2, 3, 7, 64, 4096), (2, 3, 5, 7)):
        widths = every if a <= 7 and b == 2 else some if a <= 64 else some[:9]
        for r in widths:
            for s in widths:
                V, c = draw(a, r), draw(b, r, s)
                got = train_module._extend_states(V, [c])
                want = np.einsum("ar,irs->ais", V, c).reshape(-1, s)
                assert got.flags.c_contiguous and same(got, want), (a, b, r, s)


def _unscaled_dot_l2(a, b):
    """The transfer without rescaling: the reference for in-range inputs."""
    E = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        n, r1, r2 = ca.shape
        E = ca.reshape(n * r1, r2).T @ (E @ cb).reshape(n * r1, -1)
    return float(np.sum((a.leaf.T @ E @ b.leaf) * a.basis.gram()) * a.base ** (-a.depth))


def test_dot_l2_raises_when_the_inner_product_overflows():
    u = scale(encode_polynomial([1.0, 2.0], Grid(2, 3)), 1e200)  # <u, u> ~ 4.3e400
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows float64"):
            dot_l2(u, u)


def test_dot_l2_rescales_a_transfer_that_overflows():
    # core 1 carries 1e200 and the leaf 1e-200: E passes 1e400 after level 1,
    # the function is 1 + 2x, and <f, f> = 13/3
    t = encode_polynomial([1.0, 2.0], Grid(2, 3))
    f = TensorTrain(t.grid, [t.cores[0] * 1e200, *t.cores[1:]], t.leaf * 1e-200, t.basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dot_l2(f, f) == pytest.approx(13.0 / 3.0, rel=1e-14)
        assert dot_l2(f, t) == pytest.approx(13.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_dot_l2_keeps_the_bits_of_the_unscaled_transfer(b):
    u, v = _random_train(b, 80 + b), _random_train(b, 90 + b)
    for a, c in ((u, v), (u, u), (scale(v, 1e-3), u)):
        assert dot_l2(a, c) == _unscaled_dot_l2(a, c)


def test_norm_l2_of_a_depth_zero_train_rejects_an_overflowing_leaf():
    tt = TensorTrain(Grid(2, 0), [], [[1.5e308, 1.5e308]], PolyBasis(1, "monomial"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite entry or overflows"):
            norm_l2(tt)


def test_ranks_of_a_depth_zero_train_reject_an_overflowing_leaf():
    # depth 0 has no level for the rank sweep, so an inf leaf gave ranks ()
    for leaf in ([[math.inf, 0.0]], [[1.5e308, 1.5e308]]):
        tt = TensorTrain(Grid(2, 0), [], leaf, PolyBasis(1, "monomial"))
        with pytest.raises(DomainError, match="non-finite entry or overflows"):
            ranks(tt)
        with pytest.raises(DomainError, match="non-finite entry or overflows"):
            singular_values(tt)
    assert ranks(encode_polynomial([1.0, 2.0], Grid(3, 0))).ranks == ()


def _reference_right_orthogonalize(tt, leaf):
    """The right sweep alone over tt's dense cores, without the interface
    merge that opens train._right_orthogonalize."""
    cores = list(tt.cores)
    with np.errstate(over="ignore", invalid="ignore"):
        carry, leaf = train_module._lq(leaf)
        for nu in range(len(cores) - 1, 0, -1):
            c = cores[nu] @ carry
            b, r1, r2 = c.shape
            carry, Q = train_module._lq(c.transpose(1, 0, 2).reshape(r1, b * r2))
            cores[nu] = Q.reshape(Q.shape[0], b, r2).transpose(1, 0, 2)
        cores[0] = train_module._finite(cores[0] @ carry)
    return cores, leaf


def _dense(tt):
    """tt rebuilt from its dense cores, not held as its entries."""
    return TensorTrain(tt.grid, tt.cores, tt.leaf, tt.basis)


@pytest.fixture
def reference(monkeypatch):
    """reference(fn, *args): fn(*args) with the sweeps on the reference right
    sweep."""

    def call(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(train_module, "_right_orthogonalize", _reference_right_orthogonalize)
            return fn(*args)

    return call


def _train_with_bonds(b, bonds, seed, m=2):
    """Random train with nonnegative entries (no cancellation) and the given bonds."""
    rng = np.random.default_rng(seed)
    cores = [rng.random((b, r, s)) for r, s in zip((1,) + bonds, bonds)]
    leaf = rng.random((bonds[-1] if bonds else 1, m + 1))
    return TensorTrain(Grid(b, len(bonds)), cores, leaf, PolyBasis(m))


_NARROW_FIRST_BOND = {
    "rounded-block-sum": lambda: tt_round(_block_sum_train(64), 1e-12),
    "sawtooth": lambda: encode_sawtooth(Grid(2, 6), 1),
    "polynomial-b3": lambda: encode_polynomial([0.5, -1.0, 2.0], Grid(3, 5)),
    "random-b5": lambda: _random_train(5, 7),
    "random-b7": lambda: _random_train(7, 7),
    # r_2 > b r_1, but r_1 <= b: the merge still skips it
    "wide-after-level-1": lambda: _train_with_bonds(2, (2, 8, 8, 3), 5),
}


@pytest.mark.parametrize("name", list(_NARROW_FIRST_BOND))
def test_left_pass_keeps_the_bits_of_a_train_with_r1_at_most_b(reference, name):
    tt = _NARROW_FIRST_BOND[name]()
    assert tt.bond_dims[0] <= tt.base
    for fn, args in ((tt_round, (tt, 1e-10)), (orthogonalize, (tt, "right"))):
        got, want = fn(*args), reference(fn, *args)
        assert got.bond_dims == want.bond_dims
        for a, c in zip(got.cores + (got.leaf,), want.cores + (want.leaf,)):
            assert a.tobytes() == c.tobytes()
    assert ranks(tt) == reference(ranks, tt)
    assert norm_l2(tt) == reference(norm_l2, tt)


@pytest.mark.parametrize("n_pieces", [64, 128, 256])
def test_left_pass_keeps_the_rank_profiles_of_block_sums(reference, n_pieces):
    t = _block_sum_train(n_pieces)
    assert t.bond_dims[0] > t.base  # the pass acts
    assert ranks(t) == reference(ranks, t)
    assert tt_round(t, 1e-12).bond_dims == reference(tt_round, t, 1e-12).bond_dims


def _former_dense_tt_svd(coeff, grid, basis, tol=0.0):
    """train_from_leaf_coefficients' own SVD loop, before it shared the
    rounding sweep's truncation step (train._split)."""
    b, d = grid.base, grid.depth
    gram_L = basis.gram_cholesky()
    M = coeff @ gram_L
    budget = tol * train_module._norm(M) / math.sqrt(d)
    cores, r = [], 1
    for _ in range(d):
        U, S, Vt = np.linalg.svd(M.reshape(r * b, -1), full_matrices=False)
        keep = train_module._kept_rank(S, budget)
        cores.append(U[:, :keep].reshape(r, b, keep).transpose(1, 0, 2))
        M, r = S[:keep, None] * Vt[:keep], keep
    return TensorTrain(grid, cores, _unweighted(M, gram_L), basis)


def _former_svd_sweep(tt, tol=None):
    """train._svd_sweep's own SVD loop, before it shared train._split."""
    cores, leaf = train_module._right_orthogonalize(tt, train_module._weighted_leaf(tt))
    budget = None if tol is None else tol * train_module._norm(cores[0]) / math.sqrt(tt.depth)
    spectra, carry = [], np.ones((1, 1))
    for nu in range(len(cores)):
        c = carry @ cores[nu]
        b, r1, r2 = c.shape
        U, S, Vt = np.linalg.svd(c.transpose(1, 0, 2).reshape(r1 * b, r2), full_matrices=False)
        keep = train_module._kept_rank(S, budget)
        cores[nu] = U[:, :keep].reshape(r1, b, keep).transpose(1, 0, 2)
        carry = S[:keep, None] * Vt[:keep]
        spectra.append(train_module._finite(S))
    return cores, carry @ leaf, spectra


def _assert_same_bytes(got, want):
    assert got.bond_dims == want.bond_dims
    for a, c in zip(got.cores + (got.leaf,), want.cores + (want.leaf,)):
        assert a.tobytes() == c.tobytes()


@pytest.mark.parametrize("tol", [0.0, 1e-12])
@pytest.mark.parametrize("b", [2, 3])
def test_tt_svd_step_keeps_the_bytes_of_the_former_dense_loop_on_splines(monkeypatch, b, tol):
    rng = np.random.default_rng(280 + b)
    for d in range(1, 7):
        for m in range(4):
            s = random_fixed_knot_spline(rng, b, d, m)
            got = encode_fixed_knot_spline(s, tol=tol)
            with monkeypatch.context() as patch:
                patch.setattr(encoders_module, "train_from_leaf_coefficients", _former_dense_tt_svd)
                _assert_same_bytes(got, encode_fixed_knot_spline(s, tol=tol))


def test_tt_svd_step_keeps_the_bytes_of_the_former_dense_loop_on_tensor_interpolate(monkeypatch):
    got = tensor_interpolate(np.sin, Grid(2, 8), Interpolator(3), tol=0)
    monkeypatch.setattr(interpolation_module, "train_from_leaf_coefficients", _former_dense_tt_svd)
    _assert_same_bytes(got, tensor_interpolate(np.sin, Grid(2, 8), Interpolator(3), tol=0))


@pytest.mark.parametrize("name", list(_NARROW_FIRST_BOND))
def test_tt_svd_step_keeps_the_bytes_of_the_former_rounding_sweep(monkeypatch, name):
    tt = _NARROW_FIRST_BOND[name]()
    got = tt_round(tt, 1e-12), orthogonalize(tt, "left")
    monkeypatch.setattr(train_module, "_svd_sweep", _former_svd_sweep)
    for a, c in zip(got, (tt_round(tt, 1e-12), orthogonalize(tt, "left"))):
        _assert_same_bytes(a, c)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1e308])
def test_tt_svd_step_rejects_a_non_finite_or_overflowing_coefficient_matrix(value):
    # each ended in "LinAlgError: SVD did not converge"
    with pytest.raises(DomainError, match="train has a non-finite entry or overflows"):
        train_from_leaf_coefficients(np.full((8, 3), value), Grid(2, 3), PolyBasis(2))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_tt_svd_step_rejects_a_non_finite_coefficient_row_at_depth_0(value):
    # depth 0 runs no step, and returned a train with a non-finite leaf
    with pytest.raises(DomainError, match="train has a non-finite entry or overflows"):
        train_from_leaf_coefficients(np.full((1, 3), value), Grid(2, 0), PolyBasis(2))


def test_tt_svd_step_rejects_an_interpolant_that_overflows():
    with pytest.raises(DomainError, match="train has a non-finite entry or overflows"):
        tensor_interpolate(lambda x: 1e308 * np.ones_like(x), Grid(2, 3), Interpolator(2))


def test_tt_svd_step_turns_a_failed_svd_into_domain_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(DomainError, match="the truncation SVD failed: SVD did not converge"):
        tt_round(encode_polynomial([1.0, 2.0], Grid(2, 3)), 1e-12)


def test_left_pass_keeps_the_rank_profiles_of_the_catalog_free_knot_trains(reference):
    free = [(name, tt) for name, _, _, tt in encoder_catalog() if name.startswith("free_")]
    assert len(free) == 5
    for name, tt in free:
        assert ranks(tt) == reference(ranks, tt), name
        assert tt_round(tt, 1e-12).bond_dims == reference(tt_round, tt, 1e-12).bond_dims, name


def test_left_pass_that_reaches_the_leaf_keeps_values():
    tt = _train_with_bonds(2, (3, 5, 9, 17), 11)  # every bond above b^nu
    f = evaluate(tt, QUASI)
    top = np.abs(f).max()
    for direction in ("left", "right"):
        assert np.abs(evaluate(orthogonalize(tt, direction), QUASI) - f).max() <= 1e-12 * top
    assert math.isclose(norm_l2(tt) ** 2, dot_l2(tt, tt), rel_tol=1e-12)
    residual = add(tt_round(tt, 1e-8), scale(tt, -1.0))
    assert norm_l2(residual) <= 1e-8 * norm_l2(tt)


@pytest.mark.parametrize("n_pieces", [64, 128])
def test_right_orthogonalize_cuts_block_sum_bonds_to_the_dimension_bound(n_pieces):
    t = _block_sum_train(n_pieces)
    bonds = orthogonalize(t, "right").bond_dims
    assert all(r <= t.base**nu for nu, r in enumerate(bonds, start=1)), bonds


def test_round_of_a_wide_block_sum_allocates_under_a_third_of_its_input():
    t = _block_sum_train(256)
    core_bytes = sum(c.nbytes for c in t.cores)
    tracemalloc.start()
    try:
        tt_round(t, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.3 * core_bytes, (peak, core_bytes)


@pytest.mark.parametrize("bad", [math.nan, -1e-3])
@pytest.mark.parametrize(
    "call", ["tt_round", "ranks", "complexity", "train_from_leaf_coefficients"]
)
def test_a_nan_or_negative_tolerance_raises(call, bad):
    # a NaN tolerance used to keep rank 1 (tt_round), count nothing (ranks,
    # complexity) or pass unnoticed
    tt = encode_polynomial([1, 2, 3], Grid(2, 5))
    calls = {
        "tt_round": lambda: tt_round(tt, bad),
        "ranks": lambda: ranks(tt, bad),
        "complexity": lambda: complexity(tt, zero_tol=bad),
        "train_from_leaf_coefficients": lambda: train_from_leaf_coefficients(
            tt.leaf_coefficients(), tt.grid, tt.basis, bad
        ),
    }
    with pytest.raises(DomainError, match="must be >= 0"):
        calls[call]()


@pytest.mark.parametrize("kind, max_degree", [("legendre", 30), ("chebyshev", 30), ("monomial", 12)])
def test_unweighted_keeps_the_bits_of_the_triangular_solve(kind, max_degree):
    # the triangular solve that _unweighted ran before is the reference
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(20)
    for degree in range(max_degree + 1):
        gram_L = PolyBasis(degree, kind).gram_cholesky()
        for rows in (1, 2, 9, 257, 4097):
            for magnitude in (1e-8, 1.0, 1e8):
                leaf = magnitude * rng.standard_normal((rows, degree + 1))
                want = solve_triangular(gram_L, leaf.T, lower=True, trans="T").T
                got = _unweighted(leaf, gram_L)
                assert np.isfinite(want).all()
                assert got.tobytes() == want.tobytes(), (degree, rows, magnitude)


@pytest.mark.parametrize(
    "call", [lambda tt: tt_round(tt, 1e-10), ranks, norm_l2], ids=["tt_round", "ranks", "norm_l2"]
)
def test_a_monomial_leaf_past_degree_12_raises_domain_error(call):
    # its Gram matrix, the Hilbert matrix, has no numerical Cholesky factor
    rng = np.random.default_rng(13)
    cores = [rng.random((2, 1, 2)), rng.random((2, 2, 2)), rng.random((2, 2, 1))]
    for degree in (13, 20):
        tt = TensorTrain(Grid(2, 3), cores, rng.random((1, degree + 1)), PolyBasis(degree, "monomial"))
        with pytest.raises(DomainError, match=f"monomial Gram matrix of degree {degree}"):
            call(tt)
    # the well-conditioned bases keep working far past that degree
    for degree, kind in ((60, "legendre"), (40, "chebyshev")):
        tt = TensorTrain(Grid(2, 3), cores, rng.random((1, degree + 1)), PolyBasis(degree, kind))
        call(tt)


def _reference_sweep_chunk(tt, t, out):
    """The chunk sweep as it ran before the prefix-state table: every level
    advances the state of every point."""
    digits, t = encode_points(t, tt.grid)
    n, rows = t.size, np.arange(t.size)
    v = np.ones((n, 1))
    for nu, i in enumerate(digits.T):
        w = np.matmul(v, tt.cores[nu])
        del v
        i *= n
        i += rows
        v = w.reshape(-1, w.shape[2]).take(i, axis=0)
        del w
    np.einsum("nr,rq,nq->n", v, tt.leaf, tt.basis.eval(t), out=out)


def _chunks(x):
    """evaluate's chunks of x."""
    return np.array_split(x, max(1, -(-x.size // _CHUNK)))


def _reference_evaluate(tt, x):
    """evaluate of a batch of points, through the reference chunk sweep."""
    chunks = _chunks(x)
    vals = np.empty(x.size)
    for t, out in zip(chunks, np.array_split(vals, len(chunks))):
        _reference_sweep_chunk(tt, t, out)
    return vals


def _table_levels(b, d, n):
    """l, the levels that a chunk of n points sweeps over digit prefixes."""
    ell = 0
    while ell < d and b ** (ell + 1) <= n:
        ell += 1
    return ell


def _dgemm_rows_keep_their_bits(tt, x):
    """Whether this BLAS gives a row of matmul(A, C_nu) the same bits in a
    product of b^(nu-1) rows as at any row of a product of n rows, at every
    table level nu >= 2 of every chunk of x: the premise under which the
    table's rows carry the bits of the per-point states. (Level 1
    multiplies by 1, which is exact.)"""
    rng = np.random.default_rng(0)
    for n in {t.size for t in _chunks(x)}:
        for nu in range(1, _table_levels(tt.base, tt.depth, n)):
            core, P = tt.cores[nu], tt.base**nu
            A = np.resize(rng.standard_normal((P, core.shape[1])), (n, core.shape[1]))
            if not np.array_equal(np.matmul(A, core), np.matmul(A[:P], core)[:, np.arange(n) % P]):
                return False
    return True


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_prefix_table_sweep_keeps_the_bits_of_the_per_point_sweep(b):
    rng = np.random.default_rng(80 + b)
    d = _SWEEP_DEPTH[b]
    narrow = {  # every n
        "depth-0": (),
        "below-l": (5, 8),
        "above-l": tuple(int(r) for r in rng.integers(1, 9, size=d)),
    }
    wide = {  # up to 8193 points: bonds up to 64 at every level
        "wide-below-l": (64, 33),
        "wide-above-l": (1, 2, 3, 16, 17, 33, 64, 40, 9, 1, 64, 7)[:d],
    }
    k = {2: 6, 3: 4, 5: 3, 7: 2}[b]
    for n in (2, b**k - 1, b**k, b**k + 1, 1000, 8192, 8193, 10**5):
        x = rng.random(n)
        trains = {**narrow, **wide} if n <= 8193 else narrow
        for name, bonds in trains.items():
            tt = _train_with_bonds(b, bonds, n)
            got, want = evaluate(tt, x), _reference_evaluate(tt, x)
            # the second call reads the tables that the first one stored
            assert np.array_equal(evaluate(tt, x), got), (name, n)
            if _dgemm_rows_keep_their_bits(tt, x):
                assert np.array_equal(got, want), (name, n)
            else:
                # this BLAS rounds a row differently at another row count or
                # position, so no sweep that multiplies fewer rows keeps its
                # bits; the narrow trains (bonds up to 8, near the benchmark
                # trains' 6 and 9) must not meet that
                assert name in wide, (name, n)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (name, n)


def _record_product_rows(monkeypatch):
    """The list that the row count of the left operand of each np.matmul
    in the train module is appended to, from now on."""
    rows, real = [], np.matmul

    def counting(a, c, *args, **kw):
        rows.append(np.shape(a)[0])
        return real(a, c, *args, **kw)

    monkeypatch.setattr(train_module.np, "matmul", counting)
    return rows


@pytest.mark.parametrize("b", [2, 3, 5, 7])
def test_sweep_multiplies_each_digit_prefix_once(b, monkeypatch):
    """The rows that reach a core product. A fresh train's first chunk
    stores its tables: b^(nu-1) rows at each level nu <= l_c. Its levels
    past l_c (none on this train) multiply b^(nu-1) rows on every call,
    and then every point of the chunk. A second call multiplies no table
    row at levels <= min(l_c, l)."""
    tt = _random_train(b, 90 + b)
    x = np.random.default_rng(90).random(_CHUNK)
    want = _reference_evaluate(tt, x)
    rows = _record_product_rows(monkeypatch)
    _sweep_chunk(tt, x, got := np.empty(x.size))
    first, rows[:] = rows[:], []
    _sweep_chunk(tt, x, again := np.empty(x.size))
    monkeypatch.undo()
    ell, stored = _table_levels(b, tt.depth, x.size), tt._point_tables[0]
    assert 1 <= ell < tt.depth and stored >= ell
    per_call = [b**nu for nu in range(stored, ell)] + [x.size] * (tt.depth - ell)
    assert first == [b**nu for nu in range(stored)] + per_call
    assert rows == per_call
    assert np.array_equal(got, want) and np.array_equal(again, want)


@pytest.mark.parametrize("first", ["batch", "single"])
def test_batch_and_single_point_routes_share_one_stored_table(first, monkeypatch):
    """Whichever route comes first stores the tables; the other route reads
    them and multiplies no table row."""
    x = np.random.default_rng(114).random(1000)
    fresh = _random_train(3, 114)
    want_batch, want_single = evaluate(fresh, x), evaluate(fresh, x[0])
    tt = _random_train(3, 114)
    routes = {"batch": lambda: evaluate(tt, x), "single": lambda: evaluate(tt, x[0])}
    second = "single" if first == "batch" else "batch"
    rows = _record_product_rows(monkeypatch)
    got = {first: routes[first]()}
    tables, rows[:] = tt._point_tables, []
    got[second] = routes[second]()
    monkeypatch.undo()
    # the batch route's products are its per-point levels, of 1000 rows each
    assert rows == ([] if second == "single" else [x.size] * (tt.depth - _table_levels(3, tt.depth, x.size)))
    assert tt._point_tables is tables
    assert np.array_equal(got["batch"], want_batch) and got["single"] == want_single


def test_batch_evaluate_first_calls_from_eight_threads(monkeypatch):
    pp = greedy_badic_knots(np.sqrt, 27, 1, 2.0, base=3)
    x = np.random.default_rng(115).random(1000)
    real, read = train_module._tables, []

    def recording(tt):
        tables = real(tt)
        read.append(tables)
        return tables

    monkeypatch.setattr(train_module, "_tables", recording)
    for _ in range(3):
        # a fresh train in entry form: the first call writes its dense
        # cores under _cores_lock and builds its tables
        tt = encode_free_knot_spline(pp)
        assert tt._cores is None
        results, read[:] = [None] * 8, []
        start = threading.Barrier(8, timeout=30)

        def run(k):
            start.wait()
            results[k] = evaluate(tt, x)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(read) == 8 and all(tables is tt._point_tables for tables in read)
        want = evaluate(tt, x)
        assert all(np.array_equal(got, want) for got in results)


@pytest.mark.parametrize("b, d", [(2, 8), (7, 3), (5, 0)])
def test_sweep_names_the_first_bad_point_of_a_later_chunk(b, d):
    tt = _train_with_bonds(b, (3,) * d, 95)
    x = np.random.default_rng(95).random(3 * _CHUNK)
    x[_CHUNK + 5], x[_CHUNK + 9], x[2 * _CHUNK + 1] = np.nan, 1.5, -0.25
    with pytest.raises(DomainError) as got:
        evaluate(tt, x)
    assert str(got.value) == "point nan outside [0, 1)"
    with pytest.raises(DomainError) as want:
        _reference_evaluate(tt, x)
    assert str(got.value) == str(want.value)
    # one point has no table level; six points have one below b = 7
    for t in (x[_CHUNK + 5 : _CHUNK + 6], x[_CHUNK + 4 : _CHUNK + 10]):
        with pytest.raises(DomainError, match="point nan outside"):
            _sweep_chunk(tt, t, np.empty(t.size))


# -- the interface merge ------------------------------------------------------


_FREE_KNOT_SUMS = ["8", "64", "512", "sqrt-b3"]


@pytest.fixture(scope="module")
def free_knot_sum():
    """free_knot_sum(name): free-knot block sums from the tests' oracle,
    built once per module: greedy x^0.7 (b=2, m=1) at N = name pieces, and
    "sqrt-b3", the base-3 sqrt train of the benchmark (m=2, N=81)."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = (
                _block_sum_free_knot(greedy_badic_knots(np.sqrt, 81, 2, 2.0, base=3))
                if name == "sqrt-b3"
                else _block_sum_train(int(name))
            )
        return cache[name]

    yield get
    cache.clear()


def _wavelet_sum():
    """Haar terms at levels 0..4 and hat terms at levels 1..3, all shifts."""
    rng = np.random.default_rng(3)
    haar, hat = haar_mother(degree=1), hat_mother(degree=1)
    terms = [
        (rng.standard_normal(), WaveletSpec(mother, level, shift))
        for mother, levels in ((haar, range(5)), (hat, range(1, 4)))
        for level in levels
        for shift in range(2**level)
    ]
    return n_term_wavelet(terms, 7)


def _merged(tt):
    cores, leaf = train_module._merge_entries(tt, tt.leaf)
    return TensorTrain(tt.grid, cores, leaf, tt.basis)


@pytest.mark.parametrize("name", [*_FREE_KNOT_SUMS, "haar-and-hat", "add-t-t"])
def test_merged_train_keeps_values(free_knot_sum, name):
    if name == "haar-and-hat":
        tt = _wavelet_sum()
    elif name == "add-t-t":
        t = tt_round(free_knot_sum("64"), 1e-12)
        tt = add(t, t)
    else:
        tt = free_knot_sum(name)
    merged = _merged(tt)
    assert merged.bond_dims[0] < tt.bond_dims[0]  # it merged
    x = np.concatenate([QUASI, np.random.default_rng(5).random(800)])
    f = evaluate(tt, x)
    assert np.abs(evaluate(merged, x) - f).max() <= 1e-15 * np.abs(f).max()


@pytest.mark.parametrize("name", _FREE_KNOT_SUMS)
def test_merge_cuts_free_knot_bonds_to_the_dimension_bound(free_knot_sum, name):
    tt = free_knot_sum(name)
    bound = [min(r, tt.base**nu) for nu, r in enumerate(tt.bond_dims, start=1)]
    merged = _merged(tt).bond_dims
    assert all(r <= s for r, s in zip(merged, bound)), (merged, bound)


def test_merge_of_add_t_t_gives_the_bonds_of_t(free_knot_sum):
    t = tt_round(free_knot_sum("64"), 1e-12)
    tt = add(t, t)
    assert tt.bond_dims == tuple(2 * r for r in t.bond_dims)
    assert _merged(tt).bond_dims == t.bond_dims


def test_merge_reads_a_signed_zero_as_zero():
    w = _dense(_wavelet_sum())
    flip = lambda a: np.where(a == 0, -0.0, a)
    signed = TensorTrain(w.grid, [flip(c) for c in w.cores], flip(w.leaf), w.basis)
    want = _merged(add(w, w)).bond_dims
    tt = add(w, signed)  # in entry form, -0.0 kept
    assert any(np.signbit(c).any() for c in tt.cores)
    assert _merged(_dense(tt)).bond_dims == want
    assert _merged(tt).bond_dims == want


def test_merge_returns_none_with_nothing_to_merge():
    tt = _train_with_bonds(2, (3, 5, 9, 17), 11)
    assert train_module._merge_entries(tt, tt.leaf) is None


@pytest.mark.parametrize("name", ["512", "sqrt-b3"])
def test_merge_keeps_the_rank_profiles_of_the_reference_sweep(reference, free_knot_sum, name):
    tt = free_knot_sum(name)
    assert tt.bond_dims[0] > tt.base  # the merge acts
    assert ranks(tt) == reference(ranks, tt)
    assert tt_round(tt, 1e-12).bond_dims == reference(tt_round, tt, 1e-12).bond_dims


def test_round_of_a_merged_block_sum_allocates_under_a_tenth_of_its_input(free_knot_sum):
    t = free_knot_sum("512")
    core_bytes = sum(c.nbytes for c in t.cores)
    tracemalloc.start()
    try:
        tt_round(t, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * core_bytes, (peak, core_bytes)


def test_rounding_the_zero_function_gives_the_zero_train():
    tt = encode_polynomial([1.0, 2.0, -0.5], Grid(3, 3))
    got = tt_round(scale(tt, 0.0), 1e-12)
    want = zero_train(tt.grid, tt.basis)
    assert got.bond_dims == want.bond_dims and got.basis == tt.basis
    assert all(np.array_equal(a, b) for a, b in zip(got.cores, want.cores))
    assert np.array_equal(got.leaf, want.leaf)


def test_leaf_coefficients_at_depth_zero_are_the_leaf():
    basis = PolyBasis(2, "chebyshev")
    coeff = np.array([[0.5, -1.0, 2.0]])
    tt = train_from_leaf_coefficients(coeff, Grid(3, 0), basis)
    assert tt.depth == 0 and len(tt.cores) == 0 and np.array_equal(tt.leaf, coeff)
    assert np.array_equal(tt.leaf_coefficients(), coeff)
