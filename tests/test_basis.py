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


@pytest.mark.parametrize("degree", [8, 12, 30])
def test_chebyshev_gram_closed_form_high_degree(degree):
    basis = PolyBasis(degree, "chebyshev")
    nodes, weights = np.polynomial.legendre.leggauss(degree + 2)
    V = basis.eval(0.5 * (nodes + 1.0))
    G_quad = np.einsum("s,si,sj->ij", 0.5 * weights, V, V)
    assert np.allclose(G_quad, basis.gram(), rtol=0, atol=1e-14)
