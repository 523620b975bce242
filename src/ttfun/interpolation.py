"""Unit-interval interpolation, leaf-wise interpolation, re-interpolation.

The leaf-wise operator applies one fixed degree-m interpolation operator
independently on every depth-d leaf; re-interpolation maps a train at
(depth d, degree mbar) to (depth dbar >= d, degree m <= mbar) by encoding
the interpolants of the leaf basis polynomials, which appends cores of
bond dimension at most mbar+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import PolyBasis
from .encoders import encode_polynomial
from .grids import DomainError, Grid, _check_int
from .train import TensorTrain, _extended, deepen, train_from_leaf_coefficients

_DENSE_CAP = 2**14


def cgl_nodes(degree: int) -> np.ndarray:
    """Chebyshev-Gauss-Lobatto points mapped to [0, 1]."""
    if degree == 0:
        return np.array([0.5])
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(degree + 1) / degree))


@dataclass(frozen=True)
class Interpolator:
    """Degree-m interpolation operator at m+1 fixed nodes in [0, 1].

    Reproduces polynomials of degree <= m exactly; the default nodes are
    Chebyshev-Gauss-Lobatto, a uniformly stable choice.
    """

    degree: int
    nodes: np.ndarray = None

    def __post_init__(self):
        _check_int("degree", self.degree, 0)
        nodes = cgl_nodes(self.degree) if self.nodes is None else np.asarray(self.nodes, float)
        if nodes.size != self.degree + 1 or np.unique(nodes).size != nodes.size:
            raise DomainError(f"need {self.degree + 1} distinct nodes")
        if not np.all((nodes >= 0) & (nodes <= 1)):  # NaN too
            raise DomainError("nodes must lie in [0, 1]")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        V = np.vander(nodes, self.degree + 1, increasing=True)
        V.setflags(write=False)
        object.__setattr__(self, "_vandermonde", V)

    def vandermonde(self) -> np.ndarray:
        """V[i, k] = nodes[i]^k, computed once; read-only."""
        return self._vandermonde


def _sample(f, xs: np.ndarray) -> np.ndarray:
    """f at the points xs, any shape: one call on the array, or one call per
    point when f returns another shape or raises TypeError on an array
    (scalar-only samplers such as math.exp). A non-finite sample, an
    overflow included, raises DomainError."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        try:
            vals = np.asarray(f(xs), dtype=float)
        except TypeError:
            vals = None
        if vals is None or vals.shape != xs.shape:
            vals = np.vectorize(f, otypes=[float])(xs)
    if not np.isfinite(vals).all():
        raise DomainError("non-finite sample of f")
    return vals


def _fit_cells(f, starts: np.ndarray, w: float, interp: Interpolator) -> np.ndarray:
    """Monomial coefficients, one row per cell, of the degree-m interpolants
    of f on the half-open cells [start, start + w) rescaled to [0, 1).

    A node at the right end is sampled just inside its cell, matching the
    half-open convention (the one-sided limit for piecewise functions).
    """
    xs = np.add.outer(starts, interp.nodes * w)
    np.minimum(xs, np.nextafter(starts + w, 0.0)[:, None], out=xs)
    return np.linalg.solve(interp.vandermonde(), _sample(f, xs).T).T


def interpolate_unit(f, interp: Interpolator) -> np.ndarray:
    """Monomial coefficients of the degree-m interpolant of f on [0, 1];
    a node at 1 is sampled just inside the interval."""
    return _fit_cells(f, np.zeros(1), 1.0, interp)[0]


def power_interpolation_matrix(source_degree: int, interp: Interpolator) -> np.ndarray:
    """Rows q = monomial coefficients of the interpolant of t^q, q <= source_degree.

    Rows with q <= m are exact unit vectors (projection property)."""
    m = interp.degree
    T = np.zeros((source_degree + 1, m + 1))
    V = interp.vandermonde()
    for q in range(source_degree + 1):
        if q <= m:
            T[q, q] = 1.0
        else:
            T[q] = np.linalg.solve(V, interp.nodes**q)
    return T


def cheb_interpolation_matrix(source_degree: int, interp: Interpolator) -> np.ndarray:
    """Rows q = monomial coefficients of the interpolant of T_q(2t - 1).

    Stable at any source degree: the basis values stay bounded by one."""
    vals = np.polynomial.chebyshev.chebval(2.0 * interp.nodes - 1.0, np.eye(source_degree + 1))
    return np.linalg.solve(interp.vandermonde(), vals.T).T


def tensor_interpolate(
    f,
    grid: Grid,
    interp: Interpolator,
    *,
    basis_kind: str = "legendre",
    tol: float = 1e-12,
) -> TensorTrain:
    """Leaf-wise interpolation of f as a train (dense build, then TT-SVD).

    tol = 0 keeps the dimension-bound rank profile of the construction;
    the default 1e-12 compresses to the numerically minimal ranks.
    """
    if grid.leaf_count > _DENSE_CAP:
        raise DomainError(
            f"{grid.leaf_count} leaves exceed the dense interpolation cap {_DENSE_CAP}"
        )
    basis = PolyBasis(interp.degree, basis_kind)
    w = grid.leaf_width
    mono = _fit_cells(f, np.arange(grid.leaf_count) * w, w, interp)
    coeff = mono @ basis.from_monomial()
    return train_from_leaf_coefficients(coeff, grid, basis, tol=tol)


def reinterpolate(
    tt: TensorTrain,
    target_depth: int,
    target_degree: int,
    interp: Interpolator | None = None,
) -> TensorTrain:
    """Apply the leaf-wise interpolator at (target_depth, target_degree).

    Source cores are kept as stored (a block sum stays in entry form);
    appended cores encode the interpolants of the source leaf basis
    polynomials (bond dimension source degree + 1).
    """
    mbar = tt.basis.degree
    _check_int("target_depth", target_depth, tt.depth)
    _check_int("target_degree", target_degree, 0, mbar)
    mono = _extended(tt, tt.leaf @ tt.basis.to_monomial(), PolyBasis(mbar, "monomial"))
    chain = deepen(mono, target_depth - tt.depth)
    return _relabeled(chain, target_degree, tt.basis.kind, interp)


def polynomial_interpolant_train(
    coeffs,
    grid: Grid,
    target_degree: int,
    *,
    input_basis: str = "monomial",
    basis_kind: str = "legendre",
    interp: Interpolator | None = None,
) -> TensorTrain:
    """Leaf-wise degree-m interpolant of a global polynomial, built
    structurally (bond dimension deg+1 throughout, no dense tensor).

    This is the workhorse of the spectral construction: a truncated
    Chebyshev series enters through input_basis="chebyshev" and stays in
    stable coordinate systems end to end.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    _check_int("target_degree", target_degree, 0, coeffs.size - 1)
    chain = encode_polynomial(coeffs, grid, input_basis=input_basis, basis_kind=input_basis)
    return _relabeled(chain, target_degree, basis_kind, interp)


def _relabeled(chain: TensorTrain, target_degree: int, basis_kind: str, interp) -> TensorTrain:
    """chain under the leaf of interp's interpolants (default: at the CGL nodes) of its
    monomial or Chebyshev leaf basis, written in the target_degree basis of basis_kind."""
    interp = Interpolator(target_degree) if interp is None else interp
    if interp.degree != target_degree:
        raise DomainError(f"interpolator degree {interp.degree} != target degree {target_degree}")
    cheb = chain.basis.kind == "chebyshev"
    matrix = cheb_interpolation_matrix if cheb else power_interpolation_matrix
    out_basis = PolyBasis(target_degree, basis_kind)
    T = matrix(chain.basis.degree, interp) @ out_basis.from_monomial()
    return _extended(chain, chain.leaf @ T, out_basis)


def chebyshev_truncate(f, degree: int) -> np.ndarray:
    """Shifted-Chebyshev series of f on [0, 1], truncated at the degree.

    Coefficients c with f ~ sum_k c_k T_k(2x - 1), computed by a type-II
    DCT on 4 (degree+1) Chebyshev points; the constant-term halving of the
    raw cosine sums is folded in.
    """
    _check_int("degree", degree, 0)
    from scipy.fft import dct  # imported here, so that import ttfun loads no scipy

    K = 4 * (degree + 1)
    theta = np.pi * (np.arange(K) + 0.5) / K
    xs = 0.5 * (1.0 + np.cos(theta))
    a = dct(_sample(f, xs), type=2, norm=None)[: degree + 1] / K
    a[0] *= 0.5
    return a
