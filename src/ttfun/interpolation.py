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
from scipy.fft import dct

from .basis import PolyBasis
from .encoders import encode_polynomial, train_from_leaf_coefficients
from .grids import DomainError, Grid
from .train import TensorTrain, deepen

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
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")
        nodes = cgl_nodes(self.degree) if self.nodes is None else np.asarray(self.nodes, float)
        if nodes.size != self.degree + 1 or np.unique(nodes).size != nodes.size:
            raise DomainError(f"need {self.degree + 1} distinct nodes")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    def vandermonde(self) -> np.ndarray:
        return np.vander(self.nodes, self.degree + 1, increasing=True)


_INSIDE = np.nextafter(1.0, 0.0)  # samplers live on the half-open interval


def interpolate_unit(f, interp: Interpolator) -> np.ndarray:
    """Monomial coefficients of the degree-m interpolant of f on [0, 1].

    A node at 1 is sampled just inside the interval, matching the half-open
    convention (the one-sided limit for piecewise functions).
    """
    vals = np.asarray([f(min(t, _INSIDE)) for t in interp.nodes], dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DomainError("non-finite sample at an interpolation node")
    return np.linalg.solve(interp.vandermonde(), vals)


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
    from numpy.polynomial import chebyshev as _chebmod

    vals = np.stack(
        [
            _chebmod.chebval(2.0 * interp.nodes - 1.0, np.eye(source_degree + 1)[q])
            for q in range(source_degree + 1)
        ]
    )
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
    starts = np.arange(grid.leaf_count) * w
    # sample inside each half-open leaf: a node at 1 takes the left limit
    xs = starts[:, None] + np.minimum(interp.nodes, _INSIDE)[None, :] * w
    np.minimum(xs, np.nextafter(starts[:, None] + w, 0.0), out=xs)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:  # non-vectorized sampler
        vals = np.vectorize(f)(xs)
    if not np.all(np.isfinite(vals)):
        raise DomainError("non-finite sample during leaf interpolation")
    mono = np.linalg.solve(interp.vandermonde(), vals.T).T
    coeff = mono @ basis.from_monomial()
    return train_from_leaf_coefficients(coeff, grid, basis, tol=tol)


def reinterpolate(
    tt: TensorTrain,
    target_depth: int,
    target_degree: int,
    interp: Interpolator | None = None,
) -> TensorTrain:
    """Apply the leaf-wise interpolator at (target_depth, target_degree).

    Source cores are kept; appended cores encode the interpolants of the
    source leaf basis polynomials (bond dimension source degree + 1).
    """
    mbar = tt.basis.degree
    if target_depth < tt.depth:
        raise DomainError(f"target depth {target_depth} below source depth {tt.depth}")
    if target_degree > mbar:
        raise DomainError(f"target degree {target_degree} above source degree {mbar}")
    if interp is None:
        interp = Interpolator(target_degree)
    if interp.degree != target_degree:
        raise DomainError("interpolator degree does not match target degree")
    out_basis = PolyBasis(target_degree, tt.basis.kind)
    T = power_interpolation_matrix(mbar, interp) @ out_basis.from_monomial()
    mono = TensorTrain(
        tt.grid, tt.cores, tt.leaf @ tt.basis.to_monomial(), PolyBasis(mbar, "monomial")
    )
    chain = deepen(mono, target_depth - tt.depth)
    return TensorTrain(chain.grid, chain.cores, chain.leaf @ T, out_basis)


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
    degree = coeffs.size - 1
    if target_degree > degree:
        raise DomainError(f"target degree {target_degree} above polynomial degree {degree}")
    if interp is None:
        interp = Interpolator(target_degree)
    out_basis = PolyBasis(target_degree, basis_kind)
    if input_basis == "chebyshev":
        T = cheb_interpolation_matrix(degree, interp) @ out_basis.from_monomial()
    else:
        T = power_interpolation_matrix(degree, interp) @ out_basis.from_monomial()
    chain = encode_polynomial(coeffs, grid, input_basis=input_basis, basis_kind=input_basis)
    return TensorTrain(grid, chain.cores, chain.leaf @ T, out_basis)


def chebyshev_truncate(f, degree: int) -> np.ndarray:
    """Shifted-Chebyshev series of f on [0, 1], truncated at the degree.

    Coefficients c with f ~ sum_k c_k T_k(2x - 1), computed by a type-II
    DCT on 4 (degree+1) Chebyshev points; the constant-term halving of the
    raw cosine sums is folded in.
    """
    if degree < 0:
        raise DomainError(f"degree must be >= 0, got {degree}")
    K = 4 * (degree + 1)
    theta = np.pi * (np.arange(K) + 0.5) / K
    xs = 0.5 * (1.0 + np.cos(theta))
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.vectorize(f)(xs)
    if not np.all(np.isfinite(vals)):
        raise DomainError("non-finite sample at a Chebyshev point")
    a = dct(vals, type=2, norm=None)[: degree + 1] / K
    a[0] *= 0.5
    return a
