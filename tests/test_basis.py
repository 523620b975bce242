import numpy as np
import pytest

from ttfun.basis import PolyBasis
from ttfun.grids import DomainError


@pytest.mark.parametrize("kind", ["monomial", "chebyshev", "legendre"])
def test_dimension_and_independence(kind):
    basis = PolyBasis(4, kind)
    assert basis.dim == 5
    ys = np.linspace(0, 0.999, 64)
    vals = basis.eval(ys)
    assert vals.shape == (64, 5)
    assert np.all(np.isfinite(vals))
    # linear independence on [0,1): Gram matrix positive definite
    w = np.linalg.eigvalsh(basis.gram())
    assert w.min() > 0


@pytest.mark.parametrize("kind", ["monomial", "chebyshev", "legendre"])
def test_gram_matches_quadrature(kind):
    basis = PolyBasis(3, kind)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    ys = 0.5 * (nodes + 1.0)
    V = basis.eval(ys)
    G_quad = np.einsum("s,si,sj->ij", 0.5 * weights, V, V)
    assert np.allclose(G_quad, basis.gram(), atol=1e-14)


def test_legendre_gram_diagonal():
    G = PolyBasis(5, "legendre").gram()
    assert np.allclose(G, np.diag(np.diag(G)))
    assert np.allclose(np.diag(G), 1.0 / (2.0 * np.arange(6) + 1.0))


@pytest.mark.parametrize("kind", ["chebyshev", "legendre"])
def test_monomial_conversion_round_trip(kind):
    basis = PolyBasis(6, kind)
    M = basis.to_monomial() @ basis.from_monomial()
    assert np.allclose(M, np.eye(7), atol=1e-10)
    # converting the basis through monomials reproduces its values
    ys = np.linspace(0, 0.999, 33)
    direct = basis.eval(ys)
    via_mono = PolyBasis(6, "monomial").eval(ys) @ basis.to_monomial().T
    assert np.allclose(direct, via_mono, atol=1e-12)


def test_validation():
    with pytest.raises(DomainError):
        PolyBasis(-1)
    with pytest.raises(DomainError):
        PolyBasis(2, "hermite")


@pytest.mark.parametrize("degree", [1.5, 2.0, "2", True])
def test_a_degree_that_is_not_an_integer_is_rejected(degree):
    # PolyBasis(1.5).dim used to be 2.5
    with pytest.raises(DomainError, match="not an integer"):
        PolyBasis(degree)
    assert PolyBasis(np.int64(2)) == PolyBasis(2) and PolyBasis(np.int32(2)).dim == 3


@pytest.mark.parametrize("degree", [8, 12, 30])
def test_chebyshev_gram_closed_form_high_degree(degree):
    basis = PolyBasis(degree, "chebyshev")
    nodes, weights = np.polynomial.legendre.leggauss(degree + 2)
    V = basis.eval(0.5 * (nodes + 1.0))
    G_quad = np.einsum("s,si,sj->ij", 0.5 * weights, V, V)
    assert np.allclose(G_quad, basis.gram(), rtol=0, atol=1e-14)


@pytest.mark.parametrize("kind", ["monomial", "chebyshev", "legendre"])
def test_one_point_takes_the_same_recurrence_bitwise(kind):
    ys = np.concatenate([np.random.default_rng(4).random(50), [0.0, 0.5, np.nextafter(1.0, 0.0)]])
    for degree in (0, 1, 2, 7, 30):
        basis = PolyBasis(degree, kind)
        rows = basis.eval(ys)
        assert np.array_equal(basis.eval(ys.reshape(-1, 1))[:, 0], rows)
        for y, row in zip(ys, rows):
            assert basis.eval(float(y)).shape == (degree + 1,)
            assert basis.eval(float(y)).tobytes() == row.tobytes()
            assert basis.eval(np.array(y)).tobytes() == row.tobytes()
        if kind == "monomial":
            want = np.vander(ys, degree + 1, increasing=True)
        else:
            val = {"chebyshev": np.polynomial.chebyshev.chebval, "legendre": np.polynomial.legendre.legval}
            want = val[kind](2.0 * ys - 1.0, np.eye(degree + 1)).T
        assert np.abs(rows - want).max() < 1e-13


@pytest.mark.parametrize("degree", [13, 20])
def test_monomial_gram_cholesky_past_degree_12_raises_domain_error(degree):
    with pytest.raises(DomainError, match=f"monomial Gram matrix of degree {degree} "):
        PolyBasis(degree, "monomial").gram_cholesky()


@pytest.mark.parametrize("kind, degree", [("monomial", 12), ("legendre", 60), ("chebyshev", 40)])
def test_gram_cholesky_factors_the_gram_matrix(kind, degree):
    basis = PolyBasis(degree, kind)
    L = basis.gram_cholesky()
    assert np.array_equal(L, np.tril(L)) and (np.diag(L) > 0).all()
    G = basis.gram()
    assert np.abs(L @ L.T - G).max() <= 1e-14 * np.abs(G).max()
