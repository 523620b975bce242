"""Exact tensor-train constructions for classical function families.

Covers global polynomials, splines on the uniform b-adic grid, free
b-adic-knot splines (through the sparse shortest-path sub-partition),
dilated/shifted mother functions (Haar, hat, anything representable), and
the self-similar rank-2 sawtooth family.

Polynomial chains propagate the coefficient vector of the polynomial on
the running prefix interval. Every chain is a first-level core followed by
train.deepen, which appends the one dilation operator of its basis:
the exact binomial table C(q,r) i^(q-r) b^-q in monomial coordinates, a
per-child Chebyshev-node fit in the shifted Chebyshev and Legendre bases.
Inputs and leaves in an orthogonal basis stay stable at any degree;
interpolation.reinterpolate runs its chain in monomial coordinates, which
are stable only to moderate degree.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.polynomial import Polynomial

from .basis import PolyBasis
from .grids import DomainError, Grid, encode_points, flat_to_digits
from .train import TensorTrain, block_sum, deepen, dilation_cores, fit_coefficients, scale


class KnotError(DomainError):
    """Raised for breakpoints that are not b-adic."""


class MixedBaseError(DomainError):
    """Raised when wavelet terms do not share a base."""


# ---------------------------------------------------------------------------
# piecewise polynomials with b-adic breakpoints
# ---------------------------------------------------------------------------


def badic_from_float(x: float, base: int, max_level: int = 52):
    """Exact (i, level) with x = i * b^-level, or KnotError naming the knot."""
    fr = Fraction(x)
    num, den = fr.numerator, fr.denominator
    level = 0
    while den > 1 and level <= max_level:
        if den % base:
            raise KnotError(f"knot {x!r} is not {base}-adic")
        den //= base
        level += 1
    if den > 1:
        raise KnotError(f"knot {x!r} is not {base}-adic within level {max_level}")
    return int(num), level


def _normalize_knot(i: int, level: int, base: int):
    while level > 0 and i % base == 0:
        i //= base
        level -= 1
    return i, level


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Piecewise polynomial on [0, 1) with b-adic breakpoints.

    knots lists the interior breakpoints as exact pairs (i, level) meaning
    i * base^-level; pieces holds one monomial coefficient vector per piece,
    in the local coordinate of that piece rescaled to [0, 1).
    """

    base: int
    knots: tuple = field(default_factory=tuple)
    pieces: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.base < 2:
            raise DomainError(f"base must be >= 2, got {self.base}")
        knots = tuple(_normalize_knot(int(i), int(lv), self.base) for i, lv in self.knots)
        object.__setattr__(self, "knots", knots)
        pieces = []
        for p in self.pieces:
            arr = np.ascontiguousarray(p, dtype=float).ravel()
            arr.setflags(write=False)
            pieces.append(arr)
        object.__setattr__(self, "pieces", tuple(pieces))
        if len(self.pieces) != len(knots) + 1:
            raise DomainError(
                f"{len(knots)} interior knots require {len(knots) + 1} pieces, "
                f"got {len(self.pieces)}"
            )
        if not self.pieces:
            raise DomainError("at least one piece is required")
        vals = [Fraction(i, self.base**lv) for i, lv in knots]
        for v, (i, lv) in zip(vals, knots):
            if not 0 < v < 1:
                raise KnotError(f"interior knot {i}/{self.base}^{lv} outside (0, 1)")
        if any(v2 <= v1 for v1, v2 in zip(vals, vals[1:])):
            raise KnotError("knots must be strictly increasing")

    @property
    def piece_count(self) -> int:
        return len(self.pieces)

    @property
    def degree(self) -> int:
        return max(p.size - 1 for p in self.pieces)

    @property
    def max_level(self) -> int:
        """Finest knot level d; 0 when there are no interior knots."""
        return max((lv for _, lv in self.knots), default=0)

    def breakpoints(self) -> np.ndarray:
        return np.array(
            [0.0] + [i / self.base**lv for i, lv in self.knots] + [1.0], dtype=float
        )

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr).ravel()
        if np.any((xs < 0) | (xs >= 1)):
            raise DomainError("points outside [0, 1)")
        bp = self.breakpoints()
        idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, self.piece_count - 1)
        out = np.empty_like(xs)
        for k, coeffs in enumerate(self.pieces):
            sel = idx == k
            if np.any(sel):
                t = (xs[sel] - bp[k]) / (bp[k + 1] - bp[k])
                out[sel] = np.polynomial.polynomial.polyval(t, coeffs)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    # -- JSON wire format ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "base": self.base,
            "knots": [[i, lv] for i, lv in self.knots],
            "pieces": [p.tolist() for p in self.pieces],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewisePolynomial":
        knots = []
        for entry in doc.get("knots", []):
            if isinstance(entry, (int, float)):
                knots.append(badic_from_float(float(entry), int(doc["base"])))
            else:
                knots.append((int(entry[0]), int(entry[1])))
        return cls(int(doc["base"]), tuple(knots), tuple(doc["pieces"]))

    @classmethod
    def from_json(cls, text: str) -> "PiecewisePolynomial":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def uniform(cls, base: int, depth: int, pieces) -> "PiecewisePolynomial":
        """Spline on the uniform grid of b^depth pieces."""
        n = base**depth
        if len(pieces) != n:
            raise DomainError(f"expected {n} pieces, got {len(pieces)}")
        knots = tuple((k, depth) for k in range(1, n))
        return cls(base, knots, tuple(pieces))


# ---------------------------------------------------------------------------
# polynomial chains
# ---------------------------------------------------------------------------


def _polynomial_chain(coeffs: np.ndarray, chain_basis: PolyBasis, grid: Grid) -> TensorTrain:
    """Train for the polynomial with coefficients coeffs in chain_basis
    (monomial or shifted Chebyshev).

    The first core holds the polynomial on each child of [0, 1): the
    binomial dilation of the coefficients in monomial coordinates, a direct
    Chebyshev fit on the child otherwise; deepen appends the rest. The leaf
    is the identity in chain_basis coordinates (the coefficient row itself
    at depth 0), ready to be composed with a leaf map.
    """
    if grid.depth == 0:
        return TensorTrain(grid, [], coeffs[None, :], chain_basis)
    b = grid.base
    if chain_basis.kind == "monomial":
        D = dilation_cores(chain_basis, b)
        first = np.stack([coeffs @ D[i] for i in range(b)])
    else:
        def f(x):
            return _cheb.chebval(2.0 * np.asarray(x) - 1.0, coeffs)

        first = np.stack([fit_coefficients(f, chain_basis, i / b, (i + 1) / b) for i in range(b)])
    top = TensorTrain(Grid(b, 1), [first[:, None, :]], np.eye(chain_basis.dim), chain_basis)
    return deepen(top, grid.depth - 1)


def encode_polynomial(
    coeffs,
    grid: Grid,
    *,
    input_basis: str = "monomial",
    basis_kind: str = "legendre",
) -> TensorTrain:
    """Exact train for a global polynomial; ranks at most min(deg+1, b^nu).

    coeffs are the coefficients of the polynomial on [0, 1), either in the
    monomial basis or in the shifted Chebyshev basis (input_basis). The
    chain runs in input coordinates; the leaf maps them to the leaf basis.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    degree = coeffs.size - 1
    if degree < 0:
        raise DomainError("empty coefficient vector")
    if input_basis not in ("monomial", "chebyshev"):
        raise DomainError(f"unknown input basis {input_basis!r}")
    source = PolyBasis(degree, input_basis)
    leaf_basis = PolyBasis(degree, basis_kind)
    if basis_kind == input_basis:
        local_to_leaf = np.eye(degree + 1)
    elif basis_kind == "monomial":
        local_to_leaf = source.to_monomial()
    else:
        local_to_leaf = fit_coefficients(source.eval, leaf_basis).T
    chain = _polynomial_chain(coeffs, source, grid)
    return TensorTrain(grid, chain.cores, chain.leaf @ local_to_leaf, leaf_basis)


# ---------------------------------------------------------------------------
# TT-SVD from dense leaf coefficients
# ---------------------------------------------------------------------------


def train_from_leaf_coefficients(
    coeff: np.ndarray, grid: Grid, basis: PolyBasis, tol: float = 0.0
) -> TensorTrain:
    """Sequential-SVD compression of a dense (b^d, m+1) coefficient matrix.

    tol is relative to the L2 norm of the represented function (the matrix
    is Gram-weighted during the sweep); tol = 0 keeps everything except
    exact zero directions, reproducing the dimension-bound rank profile.
    """
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (grid.leaf_count, basis.dim):
        raise DomainError(f"coefficient matrix shape {coeff.shape} does not match grid/basis")
    gram_L = basis.gram_cholesky()
    C = coeff @ gram_L
    b, d = grid.base, grid.depth
    if d == 0:
        return TensorTrain(grid, [], coeff, basis)
    total = np.linalg.norm(C)
    budget = tol * total / math.sqrt(d) if total > 0 else 0.0
    cores = []
    r = 1
    M = C.reshape(b, -1)
    for nu in range(d):
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
        keep = int(np.sum(S > 0.0))
        keep = max(keep, 1)
        tail = 0.0
        while keep > 1:
            t = tail + S[keep - 1] ** 2
            if math.sqrt(t) > budget:
                break
            tail = t
            keep -= 1
        cores.append(U[:, :keep].reshape(r, b, keep).transpose(1, 0, 2))
        M = S[:keep, None] * Vt[:keep]
        r = keep
        if nu < d - 1:
            M = M.reshape(r * b, -1)
    from scipy.linalg import solve_triangular

    leaf = solve_triangular(gram_L, M.T, lower=True, trans="T").T
    return TensorTrain(grid, cores, leaf, basis)


# ---------------------------------------------------------------------------
# splines
# ---------------------------------------------------------------------------


def _pad(coeffs: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros(dim)
    out[: coeffs.size] = coeffs
    return out


def encode_fixed_knot_spline(
    s: PiecewisePolynomial,
    *,
    degree: int | None = None,
    basis_kind: str = "legendre",
    tol: float = 0.0,
) -> TensorTrain:
    """Exact train for a spline on the uniform grid of N = b^d pieces.

    Pieces coincide with depth-d leaves, so the leaf coefficient matrix is
    the piece table itself; sequential SVD then realizes the rank profile
    of the fixed-knot rank bound.
    """
    b = s.base
    n = s.piece_count
    d = round(math.log(n, b))
    if b**d != n:
        raise DomainError(f"piece count {n} is not a power of base {b}")
    want = tuple(_normalize_knot(k, d, b) for k in range(1, n))
    if s.knots != want:
        raise DomainError("breakpoints are not the uniform b^-d grid")
    m = degree if degree is not None else s.degree
    if m < s.degree:
        raise DomainError(f"leaf degree {m} below piece degree {s.degree}")
    basis = PolyBasis(m, basis_kind)
    grid = Grid(b, d)
    C = np.stack([_pad(p, m + 1) for p in s.pieces]) @ basis.from_monomial()
    return train_from_leaf_coefficients(C, grid, basis, tol=tol)


def badic_cover(start: Fraction, end: Fraction, base: int, depth: int):
    """Greedy leftmost cover of [start, end) by aligned b-adic intervals.

    Both endpoints must be multiples of base^-depth. Returns (j, level)
    pairs meaning [j b^-level, (j+1) b^-level); the count is at most
    2 * depth * (base - 1) (shortest path in the partition tree).
    """
    scale_den = base**depth
    a = start * scale_den
    z = end * scale_den
    if a.denominator != 1 or z.denominator != 1:
        raise KnotError(f"interval [{start}, {end}) is not aligned at level {depth}")
    a, z = int(a), int(z)
    if not 0 <= a < z <= scale_den:
        raise DomainError(f"bad interval [{start}, {end})")
    out = []
    while a < z:
        width = 1
        level = depth
        while level > 0 and a % (width * base) == 0 and a + width * base <= z:
            width *= base
            level -= 1
        out.append((a // width, level))
        a += width
    return out


def _affine_recoeff(coeffs: np.ndarray, shift: float, scale_: float) -> np.ndarray:
    """Coefficients of p(shift + scale * t) from those of p(t)."""
    return Polynomial(coeffs)(Polynomial([shift, scale_])).coef


def encode_free_knot_spline(
    s: PiecewisePolynomial,
    *,
    depth: int | None = None,
    basis_kind: str = "legendre",
) -> TensorTrain:
    """Exact sparse train for a free b-adic-knot spline.

    Every piece is covered by at most 2d(b-1) aligned b-adic intervals;
    each localized piece tensorizes as delta cores over the interval's
    digits followed by a polynomial chain, and the pieces are summed
    block-diagonally. The result is returned unrounded (its nonzero count
    is the sparse-complexity witness); round it to expose minimal ranks.
    """
    b = s.base
    d = s.max_level if depth is None else depth
    if d < s.max_level:
        raise DomainError(f"depth {d} below finest knot level {s.max_level}")
    m = s.degree
    basis = PolyBasis(m, basis_kind)
    grid = Grid(b, d)
    bps = [Fraction(0)] + [Fraction(i, b**lv) for i, lv in s.knots] + [Fraction(1)]
    terms = []
    for k, coeffs in enumerate(s.pieces):
        lo, hi = bps[k], bps[k + 1]
        w = hi - lo
        for j, level in badic_cover(lo, hi, b, d):
            sub_lo = Fraction(j, b**level)
            sub_w = Fraction(1, b**level)
            local = _affine_recoeff(
                _pad(coeffs, m + 1), float((sub_lo - lo) / w), float(sub_w / w)
            )
            terms.append(_localized_polynomial_train(local, j, level, grid, basis))
    return block_sum(terms)


def _localized_polynomial_train(
    mono_coeffs: np.ndarray, j: int, level: int, grid: Grid, basis: PolyBasis
) -> TensorTrain:
    """Train for a polynomial supported on [j b^-level, (j+1) b^-level):
    delta cores selecting the interval, then the monomial chain below it."""
    b = grid.base
    cores = []
    for dig in flat_to_digits(j, Grid(b, level)):
        c = np.zeros((b, 1, 1))
        c[dig, 0, 0] = 1.0
        cores.append(c)
    mono = PolyBasis(basis.degree, "monomial")
    chain = _polynomial_chain(_pad(mono_coeffs, basis.dim), mono, Grid(b, grid.depth - level))
    return TensorTrain(grid, cores + list(chain.cores), chain.leaf @ basis.from_monomial(), basis)


# ---------------------------------------------------------------------------
# mother functions, dilations, wavelet sums
# ---------------------------------------------------------------------------


def haar_mother(*, degree: int = 0, basis_kind: str = "legendre") -> TensorTrain:
    """Haar mother: -1 on [0, 1/2), +1 on [1/2, 1)."""
    s = PiecewisePolynomial.uniform(2, 1, [[-1.0], [1.0]])
    return encode_fixed_knot_spline(s, degree=degree, basis_kind=basis_kind)


def hat_mother(*, degree: int = 1, basis_kind: str = "legendre") -> TensorTrain:
    """Hat: 2x on [0, 1/2), 2(1-x) on [1/2, 1)."""
    s = PiecewisePolynomial.uniform(2, 1, [[0.0, 1.0], [1.0, -1.0]])
    return encode_fixed_knot_spline(s, degree=degree, basis_kind=basis_kind)


@dataclass(frozen=True)
class WaveletSpec:
    """A mother train dilated to level `level` and shifted by `shift`.

    The dilation carries the L^p normalization factor b^(level/p); use
    p = math.inf for no normalization.
    """

    mother: TensorTrain
    level: int
    shift: int
    p: float = 2.0

    def __post_init__(self):
        if self.level < 0:
            raise DomainError(f"level must be >= 0, got {self.level}")
        if not 0 <= self.shift < self.mother.base**self.level:
            raise DomainError(
                f"shift {self.shift} outside 0..{self.mother.base ** self.level - 1}"
            )
        if self.p <= 0:
            raise DomainError(f"p must be positive, got {self.p}")


def encode_dilated(spec: WaveletSpec, target_depth: int | None = None) -> TensorTrain:
    """Train for b^(level/p) * mother(b^level x - shift) on its support.

    The first `level` cores are scaled unit vectors selecting the digits of
    the shift; the remaining cores are the mother's, deepened if the target
    depth exceeds level + depth(mother).
    """
    mother = spec.mother
    b = mother.base
    d0 = mother.depth
    if target_depth is None:
        target_depth = spec.level + d0
    if target_depth < spec.level + d0:
        raise DomainError(
            f"target depth {target_depth} below level {spec.level} + mother depth {d0}"
        )
    body = deepen(mother, target_depth - spec.level - d0)
    factor = 1.0 if math.isinf(spec.p) else float(b) ** (spec.level / spec.p)
    digits = flat_to_digits(spec.shift, Grid(b, spec.level)) if spec.level else ()
    cores = []
    for k, dig in enumerate(digits):
        c = np.zeros((b, 1, 1))
        c[dig, 0, 0] = factor if k == 0 else 1.0
        cores.append(c)
    if spec.level == 0:
        body = scale(body, factor) if factor != 1.0 else body
        return body
    cores.extend(np.array(c) for c in body.cores)
    return TensorTrain(Grid(b, target_depth), cores, body.leaf, body.basis)


def n_term_wavelet(terms, target_depth: int | None = None) -> TensorTrain:
    """Sum of coefficient-weighted dilated terms on a common grid."""
    terms = list(terms)
    if not terms:
        raise DomainError("empty term list")
    bases = {spec.mother.base for _, spec in terms}
    if len(bases) > 1:
        raise MixedBaseError(f"terms mix bases {sorted(bases)}")
    if target_depth is None:
        target_depth = max(spec.level + spec.mother.depth for _, spec in terms)
    return block_sum(
        scale(encode_dilated(spec, target_depth), c) for c, spec in terms
    )


# ---------------------------------------------------------------------------
# sawtooth family
# ---------------------------------------------------------------------------


def encode_sawtooth(grid: Grid, degree: int = 1, *, basis_kind: str = "legendre") -> TensorTrain:
    """Self-similar piecewise-linear family with every level rank exactly 2.

    The level-d tensorization is delta_0(i_1) psi_1(y) + delta_1(i_1) psi_2(y)
    with psi_1(y) = y, psi_2(y) = 1 - y: a ramp sawtooth with 2^d linear
    pieces whose parameter count grows linearly in d. Requires base 2 and
    degree >= 1.
    """
    if grid.base != 2:
        raise DomainError(f"sawtooth requires base 2, got {grid.base}")
    if grid.depth < 1:
        raise DomainError("sawtooth requires depth >= 1")
    if degree < 1:
        raise DomainError(f"degree must be >= 1, got {degree}")
    basis = PolyBasis(degree, basis_kind)
    first = np.zeros((2, 1, 2))
    first[0, 0, 0] = 1.0
    first[1, 0, 1] = 1.0
    cores = [first]
    for _ in range(grid.depth - 1):
        mid = np.zeros((2, 2, 2))
        mid[0] = np.eye(2)
        mid[1] = np.eye(2)
        cores.append(mid)
    mono = np.zeros((2, degree + 1))
    mono[0, 1] = 1.0  # psi_1(y) = y
    mono[1, 0] = 1.0  # psi_2(y) = 1 - y
    mono[1, 1] = -1.0
    return TensorTrain(grid, cores, mono @ basis.from_monomial(), basis)


def sawtooth_function(depth: int):
    """Reference sampler matching encode_sawtooth at the given depth."""
    grid = Grid(2, depth)

    def f(x):
        arr = np.asarray(x, dtype=float)
        digits, y = encode_points(np.atleast_1d(arr).ravel(), grid)
        vals = np.where(digits[:, 0] == 0, y, 1.0 - y)
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    return f


# ---------------------------------------------------------------------------
# random spline generators (exact continuity via truncated powers)
# ---------------------------------------------------------------------------


def spline_space_basis(base: int, depth: int, degree: int, continuity: int):
    """Truncated-power basis of the fixed-knot spline space S_{N,m,c}.

    Returns PiecewisePolynomial instances: the m+1 global monomials plus,
    per interior knot, the powers (x - x_k)_+^j for j = c+1..m. Their count
    is (m+1)N - (N-1)(c+1), the dimension of the space.
    """
    if not -1 <= continuity <= degree:
        raise DomainError(f"continuity {continuity} outside -1..{degree}")
    n = base**depth
    w = 1.0 / n
    bps = np.arange(n + 1) * w
    out = []

    def assemble(pieces):
        return PiecewisePolynomial.uniform(base, depth, pieces)

    for j in range(degree + 1):
        pieces = [_affine_recoeff(np.eye(j + 1)[j], bps[k], w) for k in range(n)]
        out.append(assemble(pieces))
    for knot in range(1, n):
        for j in range(continuity + 1, degree + 1):
            pieces = []
            for k in range(n):
                if k < knot:
                    pieces.append(np.zeros(1))
                else:
                    pieces.append(_affine_recoeff(np.eye(j + 1)[j], bps[k] - bps[knot], w))
            out.append(assemble(pieces))
    return out


def random_fixed_knot_spline(
    rng: np.random.Generator, base: int, depth: int, degree: int, continuity: int = -1
) -> PiecewisePolynomial:
    """Random element of S_{N,m,c} with exact continuity.

    Pieces are built left to right: the first c+1 local coefficients match
    the derivatives of the previous piece at the shared knot, the remaining
    m-c are fresh standard normals. Keeping the free coefficients O(1) in
    the local coordinate makes the element generic at every level (all
    unfolding directions carry comparable energy).
    """
    if not -1 <= continuity <= degree:
        raise DomainError(f"continuity {continuity} outside -1..{degree}")
    n = base**depth
    pieces = [rng.standard_normal(degree + 1)]
    for _ in range(1, n):
        prev = pieces[-1]
        new = np.empty(degree + 1)
        der = prev.copy()
        for j in range(continuity + 1):
            # j-th derivative of the previous piece at t=1, over j!
            new[j] = np.polynomial.polynomial.polyval(1.0, der) / math.factorial(j)
            der = np.polynomial.polynomial.polyder(der)
        new[continuity + 1 :] = rng.standard_normal(degree - continuity)
        pieces.append(new)
    return PiecewisePolynomial.uniform(base, depth, pieces)


def random_free_knot_spline(
    rng: np.random.Generator, base: int, pieces: int, degree: int, max_level: int
) -> PiecewisePolynomial:
    """Random piecewise polynomial with distinct random b-adic knots."""
    if pieces < 1:
        raise DomainError("need at least one piece")
    knots = set()
    while len(knots) < pieces - 1:
        lv = int(rng.integers(1, max_level + 1))
        i = int(rng.integers(1, base**lv))
        knots.add(_normalize_knot(i, lv, base))
    knots = sorted(knots, key=lambda t: Fraction(t[0], base ** t[1]))
    coeffs = [rng.standard_normal(degree + 1) for _ in range(pieces)]
    return PiecewisePolynomial(base, tuple(knots), tuple(coeffs))
