"""Exact tensor-train constructions for classical function families.

Covers global polynomials, splines on the uniform b-adic grid, free
b-adic-knot splines (through the sparse shortest-path sub-partition),
dilated/shifted mother functions (Haar, hat, anything representable), and
the self-similar rank-2 sawtooth family.

Polynomial chains propagate the coefficient vector of the polynomial on
the running prefix interval. train.deepen appends them: it applies the one
dilation operator of the basis, the exact binomial table
C(q,r) i^(q-r) b^-q in monomial coordinates, a per-child Chebyshev-node
fit in the shifted Chebyshev and Legendre bases. A monomial chain is
deepen of a depth-0 train; a Chebyshev-input chain starts with a direct
fit on each child of [0, 1). Inputs and leaves in an orthogonal basis stay
stable at any degree; interpolation.reinterpolate runs its chain in
monomial coordinates, which are stable only to moderate degree.

One construction localizes a polynomial to a b-adic cell: encode_dilated,
delta cores selecting the cell's digits above a deepened mother; n-term
wavelet sums are block sums of such cells. The free-knot spline holds a
dilated depth-0 monomial train per cover cell, written level by level as
the entries of its block-diagonal cores, with the bits of that block sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .basis import PolyBasis
from .grids import DomainError, Grid, _check_int, _check_p, _is_int, encode_points, flat_to_digits
from .train import (
    _CHUNK,
    TensorTrain,
    _extended,
    block_sum,
    deepen,
    dilation_cores,
    fit_coefficients,
    scale,
    train_from_leaf_coefficients,
)


class KnotError(DomainError):
    """Raised for breakpoints that are not b-adic."""


class MixedBaseError(DomainError):
    """Raised when wavelet terms do not share a base."""


# ---------------------------------------------------------------------------
# piecewise polynomials with b-adic breakpoints
# ---------------------------------------------------------------------------


def badic_from_float(x: float, base: int, max_level: int = 52):
    """Exact (i, level) with x = i * b^-level, or KnotError naming the knot."""
    _check_int("base", base, 2)
    _check_int("max_level", max_level, 0)
    if not math.isfinite(x):
        raise DomainError(f"knot {x!r} is not finite")
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
        # int(): a numpy integer too, so that the spline serializes
        b = int(_check_int("base", self.base, 2))
        knots = tuple(
            _normalize_knot(
                int(_check_int("knot index", i)), int(_check_int("knot level", lv, 0)), b
            )
            for i, lv in self.knots
        )
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "knots", knots)
        pieces = []
        for k, p in enumerate(self.pieces):
            arr = np.ascontiguousarray(p, dtype=float).ravel()
            if arr.size == 0 or not np.all(np.isfinite(arr)):
                raise DomainError(f"piece {k} has no coefficient or a non-finite one")
            arr.setflags(write=False)
            pieces.append(arr)
        object.__setattr__(self, "pieces", tuple(pieces))
        if len(self.pieces) != len(knots) + 1:
            raise DomainError(
                f"{len(knots)} interior knots require {len(knots) + 1} pieces, "
                f"got {len(self.pieces)}"
            )
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
        """Values at x (scalar or array); DomainError for a point outside
        [0, 1), NaN included. One pass over chunks of at most _CHUNK points:
        each point gathers its piece's coefficients, zero-padded at the top,
        and Horner runs as polyval does, so the bits are those of polyval on
        each piece."""
        arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(arr).ravel()
        if not np.all((xs >= 0) & (xs < 1)):
            raise DomainError("points outside [0, 1)")
        bp = self.breakpoints()
        coef = np.zeros((self.degree + 1, self.piece_count))  # column k: piece k
        for k, p in enumerate(self.pieces):
            coef[: p.size, k] = p
        out = np.empty_like(xs)
        for lo in range(0, xs.size, _CHUNK):
            t = xs[lo : lo + _CHUNK]
            k = np.clip(np.searchsorted(bp, t, side="right") - 1, 0, self.piece_count - 1)
            t = (t - bp[k]) / (bp[k + 1] - bp[k])
            out[lo : lo + _CHUNK] = np.polynomial.polynomial.polyval(t, coef[:, k], tensor=False)
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
        """The spline of a JSON object with an integer base and knots that are
        pairs of two integers or exactly b-adic numbers; DomainError for any
        other base or knot, KnotError for a number that is not b-adic."""
        if not isinstance(doc, dict):
            raise DomainError("a spline document is a JSON object")
        try:
            base, pieces = doc["base"], doc["pieces"]
        except KeyError as exc:
            raise DomainError(f"spline document lacks {exc}") from None
        knots = []
        for entry in doc.get("knots", []):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                knots.append(badic_from_float(float(entry), base))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2 and all(map(_is_int, entry)):
                knots.append(tuple(entry))
            else:
                raise DomainError(f"knot {entry!r} is neither a pair of integers nor a number")
        return cls(base, tuple(knots), tuple(pieces))

    @classmethod
    def from_json(cls, text: str) -> "PiecewisePolynomial":
        return cls.from_json_dict(json.loads(text))

    @classmethod
    def uniform(cls, base: int, depth: int, pieces) -> "PiecewisePolynomial":
        """Spline on the uniform grid of b^depth pieces."""
        n = _check_int("base", base, 2) ** _check_int("depth", depth, 0)
        if len(pieces) != n:
            raise DomainError(f"expected {n} pieces, got {len(pieces)}")
        knots = tuple((k, depth) for k in range(1, n))
        return cls(base, knots, tuple(pieces))


# ---------------------------------------------------------------------------
# global polynomials
# ---------------------------------------------------------------------------


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
    chain runs in input coordinates: deepen of the depth-0 train in
    monomial coordinates, a Chebyshev fit on each child of [0, 1) followed
    by deepen otherwise. The leaf maps them to the leaf basis.
    """
    coeffs = np.asarray(coeffs, dtype=float).ravel()
    degree = coeffs.size - 1
    if degree < 0:
        raise DomainError("empty coefficient vector")
    if not np.all(np.isfinite(coeffs)):
        raise DomainError("non-finite polynomial coefficient")
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
    b = grid.base
    if input_basis == "monomial" or grid.depth == 0:
        chain = deepen(TensorTrain(Grid(b, 0), [], coeffs[None, :], source), grid.depth)
    else:
        def f(x):
            return _cheb.chebval(2.0 * np.asarray(x) - 1.0, coeffs)

        first = np.stack([fit_coefficients(f, source, i / b, (i + 1) / b) for i in range(b)])
        top = TensorTrain(Grid(b, 1), [first[:, None, :]], np.eye(degree + 1), source)
        chain = deepen(top, grid.depth - 1)
    return _extended(chain, chain.leaf @ local_to_leaf, leaf_basis)


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
    m = s.degree if degree is None else _check_int("degree", degree, s.degree)
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
    """Coefficients of p(shift + scale * t) from those of p(t), same length:
    Horner's rule with coefficient arrays in place of numbers."""
    out = np.array(coeffs[-1:], dtype=float)
    for c in coeffs[-2::-1]:
        out = np.convolve(out, [shift, scale_])
        out[0] += c
    return out


def encode_free_knot_spline(
    s: PiecewisePolynomial,
    *,
    depth: int | None = None,
    basis_kind: str = "legendre",
) -> TensorTrain:
    """Exact sparse train for a free b-adic-knot spline.

    Every piece is covered by at most 2d(b-1) aligned b-adic cells
    (badic_cover). On each cell the piece is a polynomial in the cell's
    local coordinate. The cells sit block-diagonally, bond 1 down to the
    cell's level and m+1 below, and each level's entries are written once
    for all cells: a 1 at the cell's digit above it, its local monomial row
    through the dilation table just below, the table deeper. The train
    stores only these entries (TensorTrain._from_entries). The leaf
    (identity blocks, local rows of level-d cells) is mapped to the leaf
    basis once. The result is returned unrounded (its nonzero count is the
    sparse-complexity witness); round it to expose minimal ranks.
    """
    b = s.base
    d = s.max_level if depth is None else _check_int("depth", depth, s.max_level)
    grid = Grid(b, d)
    mono = PolyBasis(s.degree, "monomial")
    m1 = mono.dim
    n = b**d
    edges = [0] + [i * b ** (d - lv) for i, lv in s.knots] + [n]  # in units of b^-d
    cells, rows = [], []
    for coeffs, lo, hi in zip(s.pieces, edges, edges[1:]):
        coeffs = _pad(coeffs, m1)
        for j, level in badic_cover(Fraction(lo, n), Fraction(hi, n), b, d):
            w = b ** (d - level)
            # int true division rounds correctly: the exact shift and scale
            rows.append(_affine_recoeff(coeffs, (j * w - lo) / (hi - lo), w / (hi - lo)))
            cells.append((j, level))
    j, lv = np.array(cells, dtype=np.int64).T
    loc = np.array(rows)
    A = dilation_cores(mono, b)
    span = np.arange(m1)
    shapes, entries = [], []
    at, r = np.zeros(len(cells), dtype=np.int64), 1  # at: cell offsets in bond r
    for nu in range(1, d + 1):
        width = np.where(lv >= nu, 1, m1)
        off = np.cumsum(width) - width
        c = int(width.sum())
        up, first, deep = lv >= nu, lv == nu - 1, lv < nu - 1
        # the three writes: (digit, row, column) index arrays that broadcast
        # to the shape of their values
        digit = np.arange(b)[:, None, None]
        writes = [
            (j[up] // b ** (lv[up] - nu) % b, at[up], off[up], np.ones(np.count_nonzero(up))),
            (digit, at[first, None], off[first, None] + span,
             np.einsum("cq,iqp->icp", loc[first], A)),
            (digit[..., None], at[deep, None, None] + span[:, None], off[deep, None, None] + span,
             A[:, None].repeat(np.count_nonzero(deep), axis=1)),
        ]
        flat = [((i * r + row) * c + col).ravel() for i, row, col, _ in writes]
        shapes.append((b, r, c))
        entries.append((np.concatenate(flat), np.concatenate([v.ravel() for *_, v in writes])))
        at, r = off, c
    leaf = np.zeros((r, m1))
    leaf[at[lv < d, None] + span, span] = 1.0
    leaf[at[lv == d]] = loc[lv == d]
    basis = PolyBasis(s.degree, basis_kind)
    return TensorTrain._from_entries(grid, shapes, entries, leaf @ basis.from_monomial(), basis)


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
        top = self.mother.base ** _check_int("level", self.level, 0) - 1
        _check_int("shift", self.shift, 0, top)
        _check_p(self.p)


def encode_dilated(spec: WaveletSpec, target_depth: int | None = None) -> TensorTrain:
    """Train for b^(level/p) * mother(b^level x - shift) on its support.

    The first `level` cores are unit vectors selecting the digits of the
    shift, put in front of the stored entries of the mother (deepened if the
    target depth exceeds level + depth(mother)); scale applies the factor.
    """
    mother = spec.mother
    b = mother.base
    d0 = mother.depth
    if target_depth is None:
        target_depth = spec.level + d0
    _check_int("target_depth", target_depth, spec.level + d0)
    body = deepen(mother, target_depth - spec.level - d0)
    factor = 1.0 if math.isinf(spec.p) else float(b) ** (spec.level / spec.p)
    selectors = np.zeros((spec.level, b))
    selectors[np.arange(spec.level), flat_to_digits(spec.shift, Grid(b, spec.level))] = 1.0
    entries = [*((None, s) for s in selectors), *body._entries]
    shapes = [(b, 1, 1)] * spec.level + [*body._shapes]
    tt = TensorTrain._from_entries(Grid(b, target_depth), shapes, entries, body.leaf, body.basis)
    return scale(tt, factor) if factor != 1.0 else tt


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
    basis = PolyBasis(_check_int("degree", degree, 1), basis_kind)
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
    """Reference sampler matching encode_sawtooth at the given depth >= 1."""
    grid = Grid(2, _check_int("depth", depth, 1))

    def f(x):
        arr = np.asarray(x, dtype=float)
        digits, y = encode_points(np.atleast_1d(arr).ravel(), grid)
        vals = np.where(digits[:, 0] == 0, y, 1.0 - y)
        return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)

    return f


# ---------------------------------------------------------------------------
# random spline generators (exact continuity via truncated powers)
# ---------------------------------------------------------------------------


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
    _check_int("continuity", continuity, -1, _check_int("degree", degree, 0))
    n = _check_int("base", base, 2) ** _check_int("depth", depth, 0)
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
    """Random piecewise polynomial with distinct random b-adic knots at
    levels 1..max_level, which hold b^max_level - 1 of them."""
    _check_int("base", base, 2)
    _check_int("pieces", pieces, 1)
    _check_int("degree", degree, 0)
    room = base**max_level - 1 if _check_int("max_level", max_level) >= 1 else 0
    if pieces - 1 > room:
        raise DomainError(
            f"{pieces} pieces need {pieces - 1} distinct knots; levels 1..{max_level} hold {room}"
        )
    knots = set()
    while len(knots) < pieces - 1:
        lv = int(rng.integers(1, max_level + 1))
        i = int(rng.integers(1, base**lv))
        knots.add(_normalize_knot(i, lv, base))
    knots = sorted(knots, key=lambda t: Fraction(t[0], base ** t[1]))
    coeffs = [rng.standard_normal(degree + 1) for _ in range(pieces)]
    return PiecewisePolynomial(base, tuple(knots), tuple(coeffs))
