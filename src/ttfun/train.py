"""Tensor trains with a polynomial leaf: evaluation, arithmetic, rounding.

A train over Grid(b, d) stores d discrete cores, core nu having shape
(b, r_{nu-1}, r_nu) with r_0 = 1, plus a leaf matrix (r_d, m+1) of
coefficients over a PolyBasis. The represented function is the contraction
of the core chain at the digits of x with the leaf basis at the remainder.

L2 quantities use the exact Gram matrix of the leaf basis together with the
tensorization isometry: the function norm equals b^(-d/2) times the
Frobenius norm of the train once the leaf is Gram-weighted.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg
from scipy.linalg import solve_triangular

from .basis import PolyBasis
from .grids import DomainError, Grid, encode_points

_FULL_GRID_CAP = 2**20


class MismatchError(ValueError):
    """Raised when two trains disagree on grid or basis."""


@dataclass(frozen=True)
class RankProfile:
    """Numerical ranks (r_1, ..., r_d) of the level unfoldings."""

    ranks: tuple
    tolerance: float

    def __iter__(self):
        return iter(self.ranks)

    def __getitem__(self, i):
        return self.ranks[i]

    def __len__(self):
        return len(self.ranks)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


class TensorTrain:
    """Immutable TT representation of a function in V_{b,d,m}."""

    def __init__(self, grid: Grid, cores, leaf, basis: PolyBasis):
        cores = [np.asarray(c, dtype=float) for c in cores]
        leaf = np.asarray(leaf, dtype=float)
        if len(cores) != grid.depth:
            raise MismatchError(f"expected {grid.depth} cores, got {len(cores)}")
        r = 1
        for nu, c in enumerate(cores, start=1):
            if c.ndim != 3 or c.shape[0] != grid.base:
                raise MismatchError(f"core {nu} has shape {c.shape}, want (b, r, r')")
            if c.shape[1] != r:
                raise MismatchError(f"core {nu} left rank {c.shape[1]} != {r}")
            r = c.shape[2]
        if leaf.ndim != 2 or leaf.shape != (r, basis.dim):
            raise MismatchError(f"leaf shape {leaf.shape}, want ({r}, {basis.dim})")
        self.grid = grid
        self.cores = tuple(_frozen(c) for c in cores)
        self.leaf = _frozen(leaf)
        self.basis = basis

    # -- structure ---------------------------------------------------------
    @property
    def depth(self) -> int:
        return self.grid.depth

    @property
    def base(self) -> int:
        return self.grid.base

    @property
    def bond_dims(self) -> tuple:
        """Representation ranks (r_1, ..., r_d) of the stored cores."""
        return tuple(c.shape[2] for c in self.cores)

    def __repr__(self):
        return (
            f"TensorTrain(b={self.base}, d={self.depth}, "
            f"basis={self.basis.kind}/{self.basis.degree}, bonds={self.bond_dims})"
        )

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        return evaluate(self, x)

    def leaf_coefficients(self, max_cells: int = _FULL_GRID_CAP) -> np.ndarray:
        """Dense (b^d, m+1) matrix of per-leaf basis coefficients."""
        if self.grid.leaf_count > max_cells:
            raise DomainError(
                f"{self.grid.leaf_count} leaves exceed the dense cap {max_cells}"
            )
        V = np.ones((1, 1))
        for c in self.cores:
            # row order: flat index j*b + i, first digit most significant
            V = np.einsum("ar,irs->ais", V, c).reshape(-1, c.shape[2])
        return V @ self.leaf

    def leaf_values(self, ys, max_cells: int = _FULL_GRID_CAP) -> np.ndarray:
        """Values f(b^-d (j + y)) on the full leaf grid: shape (b^d, len(ys))."""
        coeff = self.leaf_coefficients(max_cells=max_cells)
        return coeff @ self.basis.eval(np.asarray(ys, dtype=float)).T


def evaluate(tt: TensorTrain, x):
    """Evaluate the represented function at x (scalar or array) in [0, 1)."""
    arr = np.asarray(x, dtype=float)
    xs = np.atleast_1d(arr).ravel()
    digits, y = encode_points(xs, tt.grid)
    v = np.ones((xs.size, 1))
    for nu, core in enumerate(tt.cores):
        out = np.empty((xs.size, core.shape[2]))
        for s in range(tt.base):
            sel = digits[:, nu] == s
            if np.any(sel):
                out[sel] = v[sel] @ core[s]
        v = out
    vals = np.einsum("nr,rq,nq->n", v, tt.leaf, tt.basis.eval(y))
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def zero_train(grid: Grid, basis: PolyBasis) -> TensorTrain:
    """The zero function as a bond-dimension-1 train."""
    cores = [np.ones((grid.base, 1, 1)) for _ in range(grid.depth)]
    return TensorTrain(grid, cores, np.zeros((1, basis.dim)), basis)


def _check_compatible(a: TensorTrain, b: TensorTrain):
    if a.grid != b.grid:
        raise MismatchError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.basis != b.basis:
        raise MismatchError(f"basis mismatch: {a.basis} vs {b.basis}")


def add(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Pointwise sum via the block-diagonal core construction."""
    return block_sum((a, b))


def block_sum(trains) -> TensorTrain:
    """Sum of many trains in one block-diagonal pass (same result as
    folding with add, without the quadratic rebuilds)."""
    trains = list(trains)
    if not trains:
        raise MismatchError("empty train list")
    first = trains[0]
    for t in trains[1:]:
        _check_compatible(first, t)
    if len(trains) == 1:
        return first
    if first.depth == 0:
        leaf = np.sum([t.leaf for t in trains], axis=0)
        return TensorTrain(first.grid, [], leaf, first.basis)
    cores = []
    for nu in range(first.depth):
        parts = [t.cores[nu] for t in trains]
        if nu == 0:
            cores.append(np.concatenate(parts, axis=2))
            continue
        r1 = sum(c.shape[1] for c in parts)
        r2 = sum(c.shape[2] for c in parts)
        block = np.zeros((first.base, r1, r2))
        o1 = o2 = 0
        for c in parts:
            block[:, o1 : o1 + c.shape[1], o2 : o2 + c.shape[2]] = c
            o1 += c.shape[1]
            o2 += c.shape[2]
        cores.append(block)
    leaf = np.concatenate([t.leaf for t in trains], axis=0)
    return TensorTrain(first.grid, cores, leaf, first.basis)


def scale(a: TensorTrain, c: float) -> TensorTrain:
    """Pointwise scaling; ranks unchanged."""
    if a.depth == 0:
        return TensorTrain(a.grid, [], c * a.leaf, a.basis)
    cores = [c * a.cores[0], *a.cores[1:]]
    return TensorTrain(a.grid, cores, a.leaf, a.basis)


# -- orthogonalization / rounding / ranks ----------------------------------


def _lq(M: np.ndarray):
    """M = L @ Q with Q having orthonormal rows."""
    Q, R = np.linalg.qr(M.T)
    return R.T, Q.T


# The sweeps below rebind slots of a caller's list and never write into a
# core, so trains hand over their read-only cores without copying them.


def _right_orthogonalize_arrays(cores, leaf):
    """Row-orthonormalize the leaf and cores 2..d; weight collects in core 1."""
    carry, leaf = _lq(leaf)
    for nu in range(len(cores) - 1, 0, -1):
        c = cores[nu] @ carry
        b, r1, r2 = c.shape
        carry, Q = _lq(c.transpose(1, 0, 2).reshape(r1, b * r2))
        cores[nu] = Q.reshape(Q.shape[0], b, r2).transpose(1, 0, 2)
    cores[0] = cores[0] @ carry
    return cores, leaf


def _left_orthogonalize_arrays(cores, leaf):
    """Column-orthonormalize all cores; weight collects in the leaf."""
    carry = np.ones((1, 1))
    for nu in range(len(cores)):
        c = carry @ cores[nu]
        b, r1, r2 = c.shape
        Q, R = np.linalg.qr(c.transpose(1, 0, 2).reshape(r1 * b, r2))
        cores[nu] = Q.reshape(r1, b, Q.shape[1]).transpose(1, 0, 2)
        carry = R
    leaf = carry @ leaf
    return cores, leaf


def orthogonalize(tt: TensorTrain, direction: str = "right") -> TensorTrain:
    """Return an equivalent train with orthonormal core unfoldings.

    direction="right": leaf and cores 2..d get orthonormal rows (weight in
    core 1); direction="left": cores get orthonormal columns (weight in the
    leaf). Evaluations are unchanged up to roundoff.
    """
    if direction not in ("left", "right"):
        raise DomainError(f"direction must be 'left' or 'right', got {direction!r}")
    if tt.depth == 0:
        return tt
    if direction == "right":
        cores, leaf = _right_orthogonalize_arrays(list(tt.cores), tt.leaf)
    else:
        cores, leaf = _left_orthogonalize_arrays(list(tt.cores), tt.leaf)
    return TensorTrain(tt.grid, cores, leaf, tt.basis)


def _gram_weighted(tt: TensorTrain):
    """Cores plus leaf with the basis Gram Cholesky factor absorbed."""
    L = tt.basis.gram_cholesky()
    return list(tt.cores), tt.leaf @ L


def norm_l2(tt: TensorTrain) -> float:
    """Exact L2([0,1)) norm of the represented function."""
    if tt.depth == 0:
        return float(np.linalg.norm(tt.leaf @ tt.basis.gram_cholesky()))
    cores, _ = _right_orthogonalize_arrays(*_gram_weighted(tt))
    return float(np.linalg.norm(cores[0]) * tt.base ** (-tt.depth / 2.0))


def dot_l2(a: TensorTrain, b: TensorTrain) -> float:
    """L2 inner product <a, b> over [0, 1)."""
    _check_compatible(a, b)
    E = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        # per-digit transfer E <- sum_i ca[i]^T E cb[i], as one stacked product
        n, r1, r2 = ca.shape
        E = ca.reshape(n * r1, r2).T @ (E @ cb).reshape(n * r1, -1)
    G = a.basis.gram()
    return float(np.sum((a.leaf.T @ E @ b.leaf) * G) * a.base ** (-a.depth))


def singular_values(tt: TensorTrain):
    """Singular values of every level unfolding of the represented function.

    Entry nu-1 holds the spectrum of the unfolding separating digits 1..nu
    from the rest. The leaf enters through the basis Gram matrix, so these
    are singular values of the function, not of raw coefficient arrays.
    """
    if tt.depth == 0:
        return []
    cores, _ = _right_orthogonalize_arrays(*_gram_weighted(tt))
    spectra = []
    carry = np.ones((1, 1))
    for nu in range(len(cores)):
        c = carry @ cores[nu]
        b, r1, r2 = c.shape
        U, S, Vt = np.linalg.svd(
            c.transpose(1, 0, 2).reshape(r1 * b, r2), full_matrices=False
        )
        spectra.append(S)
        carry = S[:, None] * Vt
    return spectra


def ranks(tt: TensorTrain, tol: float = 1e-10) -> RankProfile:
    """Numerical ranks of the level unfoldings after orthogonalization.

    Per unfolding, singular values below tol times its largest singular
    value are discarded.
    """
    out = []
    for S in singular_values(tt):
        smax = S[0] if S.size else 0.0
        out.append(0 if smax == 0.0 else int(np.sum(S > tol * smax)))
    return RankProfile(tuple(out), tol)


def tt_round(tt: TensorTrain, tol: float) -> TensorTrain:
    """SVD truncation sweep: ||result - tt||_2 <= tol * ||tt||_2 (L2 norm).

    Ranks never increase; tol = 0 still removes exactly redundant
    directions (zero singular values).
    """
    if tol < 0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    if tt.depth == 0:
        return tt
    gram_L = tt.basis.gram_cholesky()
    cores, leaf = _right_orthogonalize_arrays(list(tt.cores), tt.leaf @ gram_L)
    total = np.linalg.norm(cores[0])
    if total == 0.0:
        return zero_train(tt.grid, tt.basis)
    budget = tol * total / math.sqrt(tt.depth)
    carry = np.ones((1, 1))
    for nu in range(len(cores)):
        c = carry @ cores[nu]
        b, r1, r2 = c.shape
        U, S, Vt = np.linalg.svd(
            c.transpose(1, 0, 2).reshape(r1 * b, r2), full_matrices=False
        )
        keep = S.size
        tail = 0.0
        while keep > 1:
            t = tail + S[keep - 1] ** 2
            if math.sqrt(t) > budget:
                break
            tail = t
            keep -= 1
        cores[nu] = U[:, :keep].reshape(r1, b, keep).transpose(1, 0, 2)
        carry = S[:keep, None] * Vt[:keep]
    leaf = carry @ leaf
    leaf = solve_triangular(gram_L, leaf.T, lower=True, trans="T").T
    return TensorTrain(tt.grid, cores, leaf, tt.basis)


def deepen(tt: TensorTrain, extra: int) -> TensorTrain:
    """Re-express the same function at depth d + extra (exact).

    Works because the polynomial leaf space is closed under b-adic
    dilation: each appended core dilates leaf coefficients onto the b
    children of a leaf. This is the only place that appends dilation cores;
    every polynomial chain is a first-level core followed by deepen.
    """
    if extra < 0:
        raise DomainError(f"extra must be >= 0, got {extra}")
    if extra == 0:
        return tt
    A = dilation_cores(tt.basis, tt.base)
    cores = list(tt.cores) + [np.einsum("rq,iqp->irp", tt.leaf, A)] + [A] * (extra - 1)
    return TensorTrain(Grid(tt.base, tt.depth + extra), cores, np.eye(tt.basis.dim), tt.basis)


_FITS = {"chebyshev": (_cheb.chebfit, _cheb.chebval), "legendre": (_leg.legfit, _leg.legval)}


def fit_coefficients(f, basis: PolyBasis, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Coefficients in an orthogonal basis of f on [lo, hi) rescaled to [0, 1).

    Interpolates at the m+1 Chebyshev points of the subinterval, so it is
    exact for polynomials of degree <= m; the fit happens in the basis
    itself, which keeps it well conditioned at any degree. A sampler that
    returns shape (m+1, k) is fitted column by column: shape (m+1, k).
    """
    fit, _ = _FITS[basis.kind]
    n = basis.dim
    nodes = 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))
    xs = lo + (hi - lo) * nodes
    return fit(2.0 * nodes - 1.0, f(xs), basis.degree)


@lru_cache(maxsize=None)
def dilation_cores(basis: PolyBasis, base: int) -> np.ndarray:
    """Coefficient dilation tensor A (read-only, cached): A[i] maps a
    polynomial on a leaf to the same polynomial on child i of that leaf,
    in basis coordinates.

    Monomial coordinates use the exact binomial table C(q,r) i^(q-r) b^-q;
    the orthogonal bases fit every basis function on every child, so no
    ill-conditioned change of coordinates enters at high degree.
    """
    n = basis.dim
    A = np.zeros((base, n, n))
    if basis.kind == "monomial":
        for i in range(base):
            for q in range(n):
                for r in range(q + 1):
                    A[i, q, r] = math.comb(q, r) * float(i) ** (q - r) * float(base) ** (-q)
    else:
        _, val = _FITS[basis.kind]
        for i in range(base):
            for q, e in enumerate(np.eye(n)):
                A[i, q] = fit_coefficients(
                    lambda x: val(2.0 * np.asarray(x) - 1.0, e), basis, i / base, (i + 1) / base
                )
    A.setflags(write=False)
    return A


# -- serialization ----------------------------------------------------------


def to_json_dict(tt: TensorTrain) -> dict:
    return {
        "format": "ttfun-train",
        "version": 1,
        "base": tt.base,
        "depth": tt.depth,
        "basis": {"kind": tt.basis.kind, "degree": tt.basis.degree},
        "core_shapes": [list(c.shape) for c in tt.cores],
        "cores": [c.ravel().tolist() for c in tt.cores],
        "leaf": tt.leaf.tolist(),
    }


def _finite_array(value, what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} is not a numeric array: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} has non-finite entries")
    return arr


def from_json_dict(doc: dict) -> TensorTrain:
    """Inverse of to_json_dict. A malformed document (missing key, core that
    does not fill its shape, non-finite entry) raises DomainError or
    MismatchError; the checks live here, at the file boundary, not in
    TensorTrain, which the encoders build many times per call."""
    if not isinstance(doc, dict) or doc.get("format") != "ttfun-train":
        raise DomainError("not a ttfun train document")
    try:
        grid = Grid(int(doc["base"]), int(doc["depth"]))
        basis = PolyBasis(int(doc["basis"]["degree"]), doc["basis"]["kind"])
        flats, shapes = list(doc["cores"]), list(doc["core_shapes"])
        leaf = doc["leaf"]
    except KeyError as exc:
        raise DomainError(f"train document lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad train document: {exc}") from None
    if len(flats) != len(shapes):
        raise MismatchError(f"{len(flats)} cores but {len(shapes)} core shapes")
    cores = []
    for nu, (flat, shape) in enumerate(zip(flats, shapes), start=1):
        c = _finite_array(flat, f"core {nu}")
        try:
            dims = tuple(operator.index(n) for n in shape)
            c = c.reshape(dims)
        except (TypeError, ValueError):
            dims = None
        if c.shape != dims:
            raise MismatchError(f"core {nu}: {c.size} entries do not fill shape {shape}")
        cores.append(c)
    return TensorTrain(grid, cores, _finite_array(leaf, "leaf"), basis)


def dump_json(tt: TensorTrain, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(tt), fh)


def load_json(path) -> TensorTrain:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"cannot parse {path}: {exc}") from None
    return from_json_dict(doc)
