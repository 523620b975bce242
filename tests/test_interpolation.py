import math
import tracemalloc

import numpy as np
import pytest

from ttfun.complexity import complexity
from ttfun.encoders import (
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_polynomial,
    haar_mother,
    random_fixed_knot_spline,
)
from ttfun.grids import DomainError, Grid
from ttfun.interpolation import (
    Interpolator,
    cgl_nodes,
    cheb_interpolation_matrix,
    chebyshev_truncate,
    interpolate_unit,
    polynomial_interpolant_train,
    power_interpolation_matrix,
    reinterpolate,
    tensor_interpolate,
)
from ttfun.train import TensorTrain, evaluate, norm_l2, ranks, tt_round
from ttfun.analysis import fit_linear, greedy_badic_knots, lp_error

QUASI = np.mod(0.5 + np.arange(1, 501) * 0.6180339887498949, 1.0)
DENSE = np.linspace(0.0, 1.0, 2001)


def test_interpolator_nodes():
    assert np.allclose(cgl_nodes(1), [0.0, 1.0])
    assert np.allclose(cgl_nodes(3), [0.0, 0.25, 0.75, 1.0])
    with pytest.raises(DomainError):
        Interpolator(2, nodes=[0.0, 0.0, 1.0])
    for nodes in ([0.0, math.nan, 1.0], [-0.5, 0.5, 1.0], [0.0, 0.5, 1.5]):
        with pytest.raises(DomainError, match=r"nodes must lie in \[0, 1\]"):
            Interpolator(2, nodes=nodes)


@pytest.mark.parametrize("nodes", [None, [0.1, 0.5, 0.7, 0.95]])
def test_vandermonde_is_cached_and_read_only(nodes):
    it = Interpolator(3, nodes=nodes)
    V = it.vandermonde()
    assert V is it.vandermonde()
    assert not V.flags.writeable
    assert np.array_equal(V, np.vander(it.nodes, 4, increasing=True))


def test_interpolate_unit_projection():
    q = lambda y: 2.0 * y**2 - y + 0.25
    c = interpolate_unit(q, Interpolator(2))
    assert np.allclose(c, [0.25, -1.0, 2.0], atol=1e-13)


def test_interpolate_unit_conditions():
    it = Interpolator(1)
    f = lambda y: y**2
    c = interpolate_unit(f, it)
    for t in it.nodes:
        assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(f(t), abs=1e-13)


def test_interpolate_unit_exp():
    # frozen from the dense-grid oracle for CGL nodes (1.09e-3 measured)
    c = interpolate_unit(np.exp, Interpolator(3))
    err = np.abs(np.exp(DENSE) - np.polynomial.polynomial.polyval(DENSE, c)).max()
    assert err < 2e-3


def test_interpolate_unit_nonfinite():
    with pytest.raises(DomainError):
        interpolate_unit(lambda y: float("nan"), Interpolator(1))


@pytest.mark.parametrize("m", range(4))
def test_cheb_interpolation_matrix_keeps_the_bytes_of_the_per_row_form(m):
    interp = Interpolator(m)
    for degree in range(m, 61):
        rows = [
            np.polynomial.chebyshev.chebval(2.0 * interp.nodes - 1.0, e)
            for e in np.eye(degree + 1)
        ]
        want = np.linalg.solve(interp.vandermonde(), np.stack(rows).T).T
        assert cheb_interpolation_matrix(degree, interp).tobytes() == want.tobytes()


def test_power_interpolation_matrix_projection_rows():
    T = power_interpolation_matrix(4, Interpolator(2))
    assert np.array_equal(T[:3], np.eye(3, 3))


def test_tensor_interpolate_projection():
    rng = np.random.default_rng(5)
    s = random_fixed_knot_spline(rng, 2, 3, 2, -1)
    tt = tensor_interpolate(s, Grid(2, 3), Interpolator(2))
    assert np.abs(evaluate(tt, QUASI) - s(QUASI)).max() < 1e-11


def test_tensor_interpolate_idempotent():
    f = lambda x: np.exp(np.asarray(x))
    a = tensor_interpolate(f, Grid(2, 4), Interpolator(2))
    b = tensor_interpolate(lambda x: evaluate(a, x), Grid(2, 4), Interpolator(2))
    assert np.abs(evaluate(a, QUASI) - evaluate(b, QUASI)).max() < 1e-11


def test_tensor_interpolate_haar_rank_monotone():
    h = haar_mother()
    tt = tensor_interpolate(lambda x: evaluate(h, x), Grid(2, 4), Interpolator(1))
    assert ranks(tt).ranks == (1, 1, 1, 1)


def test_tensor_interpolate_rank_monotonicity():
    # interpolation never exceeds the ranks of an exact encoding
    rng = np.random.default_rng(6)
    s = random_fixed_knot_spline(rng, 2, 4, 1, 0)
    exact = ranks(encode_fixed_knot_spline(s)).ranks
    interp = ranks(tensor_interpolate(s, Grid(2, 4), Interpolator(1))).ranks
    assert all(a <= b for a, b in zip(interp, exact))


def test_tensor_interpolate_depth_cap():
    with pytest.raises(DomainError):
        tensor_interpolate(np.sin, Grid(2, 15), Interpolator(1))


def test_smooth_error_constant_stable():
    # W^{m+1,inf} error bound: C = err * b^{d(m+1)} stays bounded across d
    f = lambda x: np.exp(np.asarray(x))
    m = 2
    consts = []
    for d in (4, 5, 6, 7):
        tt = tensor_interpolate(f, Grid(2, d), Interpolator(m))
        err = np.abs(evaluate(tt, DENSE[:-1]) - f(DENSE[:-1])).max()
        consts.append(err * 2.0 ** (d * (m + 1)))
    assert max(consts) / min(consts) < 1.5


@pytest.mark.parametrize("m", [1, 2, 3])
def test_convergence_order_sin(m):
    # slope of log2 sup-error against d is -(m+1) +- 0.1 over d in 4..9
    f = lambda x: np.sin(2 * np.pi * np.asarray(x))
    ds = np.arange(4, 10)
    errs = []
    for d in ds:
        tt = tensor_interpolate(f, Grid(2, d), Interpolator(m))
        errs.append(np.abs(evaluate(tt, DENSE[:-1]) - f(DENSE[:-1])).max())
    slope, _, _ = fit_linear(ds, np.log2(errs))
    assert abs(slope + (m + 1)) < 0.1


def test_reinterpolate_identity():
    rng = np.random.default_rng(7)
    tt = encode_polynomial(rng.standard_normal(4), Grid(2, 3))
    same = reinterpolate(tt, 3, 3)
    assert np.abs(evaluate(same, QUASI) - evaluate(tt, QUASI)).max() < 1e-12


def test_reinterpolate_superspace_projection_exact():
    rng = np.random.default_rng(8)
    s = random_fixed_knot_spline(rng, 2, 2, 1, -1)
    tt = encode_fixed_knot_spline(s)
    deeper = reinterpolate(tt, 6, 1)
    assert np.abs(evaluate(deeper, QUASI) - s(QUASI)).max() < 1e-11


def test_reinterpolate_rank_structure():
    rng = np.random.default_rng(9)
    tt = encode_polynomial(rng.standard_normal(4), Grid(2, 3))
    out = reinterpolate(tt, 7, 1)
    assert out.bond_dims[:3] == tt.bond_dims
    assert all(r <= 4 for r in out.bond_dims[3:])
    assert out.basis.degree == 1


def test_reinterpolate_error_regime():
    # degree reduction 3 -> 1: error tracks b^(-2 dbar) |p''|
    rng = np.random.default_rng(10)
    c = rng.standard_normal(4)
    tt = encode_polynomial(c, Grid(2, 2))
    pp2 = np.polynomial.polynomial.polyder(c, 2)
    ref = np.polynomial.polynomial.polyval(QUASI, c)
    consts = []
    for dbar in (4, 5, 6, 7):
        st = reinterpolate(tt, dbar, 1)
        err = np.abs(evaluate(st, QUASI) - ref).max()
        consts.append(err * 4.0**dbar)
    norm_pp = np.abs(np.polynomial.polynomial.polyval(DENSE, pp2)).max()
    assert max(consts) <= norm_pp  # C_1 <= 1/8 for CGL, generous cap
    assert max(consts) / min(consts) < 1.5


def test_reinterpolate_validation():
    tt = encode_polynomial([1.0, 1.0], Grid(2, 3))
    with pytest.raises(DomainError):
        reinterpolate(tt, 2, 1)
    with pytest.raises(DomainError):
        reinterpolate(tt, 4, 2)


def test_chebyshev_truncate_exact_polynomial():
    coeffs = np.array([0.3, -1.0, 0.5, 2.0])
    f = lambda x: np.polynomial.chebyshev.chebval(2 * np.asarray(x) - 1, coeffs)
    c = chebyshev_truncate(f, 6)
    assert np.allclose(c[:4], coeffs, atol=1e-13)
    assert np.abs(c[4:]).max() < 1e-13


def test_chebyshev_truncate_orthogonality():
    f = lambda x: np.polynomial.chebyshev.chebval(2 * np.asarray(x) - 1, [0, 0, 0, 1.0])
    c = chebyshev_truncate(f, 5)
    assert c[3] == pytest.approx(1.0, abs=1e-13)
    assert np.abs(np.delete(c, 3)).max() < 1e-13


def test_chebyshev_truncate_analytic_decay():
    f = lambda x: 1.0 / (np.asarray(x) + 2.0)
    c = chebyshev_truncate(f, 20)
    vals = np.polynomial.chebyshev.chebval(2 * DENSE - 1, c)
    assert np.abs(vals - f(DENSE)).max() < 1e-9


def test_chebyshev_truncate_nonfinite():
    with pytest.raises(DomainError):
        chebyshev_truncate(lambda x: np.asarray(x) * np.nan, 3)


@pytest.mark.parametrize("degree", [2.5, 3.0, "3", True, -1])
def test_chebyshev_truncate_rejects_a_degree_that_is_not_a_count(degree):
    # a float used to end in a TypeError from the DCT slice
    with pytest.raises(DomainError, match="degree"):
        chebyshev_truncate(np.exp, degree)
    assert chebyshev_truncate(np.exp, np.int64(3)).size == 4


@pytest.mark.parametrize("input_basis", ["monomial", "chebyshev"])
def test_interpolants_reject_an_interpolator_of_another_degree(input_basis):
    # polynomial_interpolant_train used to end in numpy's matmul ValueError
    with pytest.raises(DomainError, match="interpolator degree 2"):
        polynomial_interpolant_train(
            [1.0, 2.0, 3.0], Grid(2, 2), 1, input_basis=input_basis, interp=Interpolator(2)
        )
    with pytest.raises(DomainError, match="interpolator degree 2"):
        reinterpolate(encode_polynomial([1.0, 2.0, 3.0], Grid(2, 2)), 3, 1, Interpolator(2))
    tt = polynomial_interpolant_train(
        [1.0, 2.0, 3.0], Grid(2, 2), 1, input_basis=input_basis, interp=Interpolator(1)
    )
    assert tt.basis.degree == 1 and tt.depth == 2


def test_polynomial_interpolant_matches_reinterpolate():
    rng = np.random.default_rng(11)
    c = rng.standard_normal(4)
    grid = Grid(2, 4)
    a = polynomial_interpolant_train(c, grid, 1)
    b = reinterpolate(encode_polynomial(c, grid), 4, 1)
    assert np.abs(evaluate(a, QUASI) - evaluate(b, QUASI)).max() < 1e-12


def test_polynomial_interpolant_high_degree_stability():
    f = lambda x: 1.0 / (np.asarray(x) + 2.0)
    a = chebyshev_truncate(f, 53)
    tt = polynomial_interpolant_train(a, Grid(2, 54), 1, input_basis="chebyshev")
    assert np.abs(evaluate(tt, QUASI) - f(QUASI)).max() < 5e-12


def test_interpolant_cost_structure():
    # bond dimension mbar+1 throughout: cost_N = (mbar+1) d exactly
    from ttfun.complexity import complexity

    c = np.random.default_rng(12).standard_normal(5)
    tt = polynomial_interpolant_train(c, Grid(2, 6), 1)
    assert complexity(tt).cost_n == 5 * 6


def test_scalar_only_sampler_is_sampled_point_by_point():
    c = interpolate_unit(math.exp, Interpolator(4))
    ts = np.linspace(0.0, 1.0, 11)
    assert np.abs(np.polynomial.polynomial.polyval(ts, c) - np.exp(ts)).max() < 1e-4
    tt = tensor_interpolate(math.exp, Grid(2, 3), Interpolator(3))
    assert np.abs(evaluate(tt, QUASI) - np.exp(QUASI)).max() < 1e-6


def test_reinterpolate_keeps_a_block_sum_as_its_entries():
    # the adaptive study's step at N=256: the free-knot block sum, whose dense
    # cores are about 40 MB, re-interpolated to depth 26 and costed
    tt = encode_free_knot_spline(greedy_badic_knots(lambda x: x**0.6, 256, 1, 2.0))
    complexity(reinterpolate(tt, 26, 1))  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        out = reinterpolate(tt, 26, 1)
        rep = complexity(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tt._cores is None and out._cores is None
    assert peak <= 4 * 2**20
    dense = reinterpolate(TensorTrain(tt.grid, tt.cores, tt.leaf, tt.basis), 26, 1)
    assert rep == complexity(dense)
    x = np.random.default_rng(256).random(1000)
    assert np.array_equal(evaluate(out, x), evaluate(dense, x))
