"""Polynomial leaf bases on the reference interval [0, 1)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg

from .grids import DomainError

KINDS = ("monomial", "chebyshev", "legendre")


@dataclass(frozen=True)
class PolyBasis:
    """Degree-m polynomial basis of P_m on [0, 1).

    Kinds: plain monomials y^k, shifted Chebyshev T_k(2y-1), or shifted
    Legendre P_k(2y-1). Legendre is the default elsewhere because its Gram
    matrix is diagonal.
    """

    degree: int
    kind: str = "legendre"

    def __post_init__(self):
        if self.degree < 0:
            raise DomainError(f"degree must be >= 0, got {self.degree}")
        if self.kind not in KINDS:
            raise DomainError(f"unknown basis kind {self.kind!r}; choose from {KINDS}")

    @property
    def dim(self) -> int:
        return self.degree + 1

    def eval(self, y) -> np.ndarray:
        """Basis values at points y: array of shape y.shape + (m+1,)."""
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape + (self.dim,))
        if self.kind == "monomial":
            out[..., 0] = 1.0
            for k in range(1, self.dim):
                out[..., k] = out[..., k - 1] * y
            return out
        t = 2.0 * y - 1.0
        out[..., 0] = 1.0
        if self.dim > 1:
            out[..., 1] = t
        if self.kind == "chebyshev":
            for k in range(2, self.dim):
                out[..., k] = 2.0 * t * out[..., k - 1] - out[..., k - 2]
        else:
            for k in range(2, self.dim):
                out[..., k] = ((2 * k - 1) * t * out[..., k - 1] - (k - 1) * out[..., k - 2]) / k
        return out

    def to_monomial(self) -> np.ndarray:
        """Matrix C with basis_k(y) = sum_j C[k, j] y^j."""
        return _basis_to_monomial(self.kind, self.degree).copy()

    def from_monomial(self) -> np.ndarray:
        """Inverse of to_monomial: monomial coefficients -> basis coefficients."""
        return _monomial_to_basis(self.kind, self.degree).copy()

    def gram(self) -> np.ndarray:
        """Exact Gram matrix G[i, j] = integral_0^1 basis_i basis_j dy."""
        return _gram(self.kind, self.degree).copy()

    def gram_cholesky(self) -> np.ndarray:
        return _gram_cholesky(self.kind, self.degree).copy()


@lru_cache(maxsize=None)
def _basis_to_monomial(kind: str, degree: int) -> np.ndarray:
    n = degree + 1
    C = np.zeros((n, n))
    if kind == "monomial":
        return np.eye(n)
    for k in range(n):
        e = np.zeros(k + 1)
        e[k] = 1.0
        if kind == "chebyshev":
            mono_t = _cheb.cheb2poly(e)  # coefficients in t = 2y - 1
        else:
            mono_t = _leg.leg2poly(e)
        # substitute t = 2y - 1
        poly = np.polynomial.Polynomial(mono_t)(np.polynomial.Polynomial([-1.0, 2.0]))
        C[k, : poly.coef.size] = poly.coef
    C.setflags(write=False)
    return C


@lru_cache(maxsize=None)
def _monomial_to_basis(kind: str, degree: int) -> np.ndarray:
    M = np.linalg.inv(_basis_to_monomial(kind, degree))
    M.setflags(write=False)
    return M


@lru_cache(maxsize=None)
def _gram(kind: str, degree: int) -> np.ndarray:
    n = degree + 1
    if kind == "legendre":
        G = np.diag(1.0 / (2.0 * np.arange(n) + 1.0))
    elif kind == "chebyshev":
        # T_i T_j = (T_{i+j} + T_{|i-j|}) / 2 and int_{-1}^{1} T_k = J(k):
        # 2 / (1 - k^2) for even k, 0 for odd k
        J = np.zeros(2 * n - 1)
        J[::2] = 2.0 / (1.0 - np.arange(0, 2 * n - 1, 2) ** 2.0)
        i, j = np.indices((n, n))
        G = 0.25 * (J[i + j] + J[np.abs(i - j)])
    else:
        C = _basis_to_monomial(kind, degree)
        H = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)  # Hilbert
        G = C @ H @ C.T
    G.setflags(write=False)
    return G


@lru_cache(maxsize=None)
def _gram_cholesky(kind: str, degree: int) -> np.ndarray:
    L = np.linalg.cholesky(_gram(kind, degree))
    L.setflags(write=False)
    return L
