"""Test-only fixtures: the encoder catalog and the truncated-power spline basis.

Only tests import these; the library ships none of them.
"""

import numpy as np

from ttfun.encoders import (
    PiecewisePolynomial,
    WaveletSpec,
    _affine_recoeff,
    encode_dilated,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    hat_mother,
    n_term_wavelet,
    random_fixed_knot_spline,
    random_free_knot_spline,
    sawtooth_function,
)
from ttfun.grids import DomainError, Grid


def _dilated_closure(mother_fn, base, level, shift, p):
    factor = float(base) ** (level / p)

    def f(x):
        x = np.asarray(x, dtype=float)
        t = float(base) ** level * x - shift
        inside = (t >= 0) & (t < 1)
        return factor * np.where(inside, mother_fn(np.clip(t, 0.0, np.nextafter(1, 0))), 0.0)

    return f


def encoder_catalog():
    """Named (sampler, grid, train) triples spanning the encoder families.

    Samplers are closed forms or piecewise-polynomial evaluations,
    independent of the tensor contraction path; the catalog backs the
    rank-oracle equivalence sweep over b in {2,3}, depths up to 6 and
    degrees up to 4. Polynomial instances sit at combinations where the
    unfolding spectra are resolvable at both tolerances.
    """
    out = []

    def poly_fn(c):
        return lambda x: np.polynomial.polynomial.polyval(np.asarray(x, dtype=float), c)

    for b, deg, d, seed in (
        (2, 0, 4, 1), (2, 1, 4, 2), (2, 1, 6, 3), (2, 2, 4, 4), (2, 2, 6, 5),
        (2, 3, 3, 14), (2, 3, 4, 7),
        (3, 0, 3, 8), (3, 1, 3, 9), (3, 1, 4, 10), (3, 2, 3, 11), (3, 2, 4, 12),
    ):
        c = np.random.default_rng(seed).standard_normal(deg + 1)
        out.append(
            (f"poly_b{b}_deg{deg}_d{d}", poly_fn(c), Grid(b, d),
             encode_polynomial(c, Grid(b, d)))
        )
    for b, ds in ((2, (3, 4, 5, 6)), (3, (2, 3))):
        for d in ds:
            for m in (0, 1, 2, 3, 4):
                for c in ([-1] if m == 0 else [-1, 0]):
                    rng = np.random.default_rng(1000 + 100 * d + 10 * m + c)
                    s = random_fixed_knot_spline(rng, b, d, m, c)
                    out.append(
                        (f"fixed_b{b}_d{d}_m{m}_c{c}", s, Grid(b, d),
                         encode_fixed_knot_spline(s))
                    )
    for b, n_pieces, deg, lvl, seed in (
        (2, 2, 1, 3, 20), (2, 3, 2, 4, 21), (2, 4, 1, 5, 22),
        (3, 2, 1, 2, 23), (3, 3, 2, 3, 24),
    ):
        s = random_free_knot_spline(np.random.default_rng(seed), b, n_pieces, deg, lvl)
        d = max(s.max_level, 1)
        out.append(
            (f"free_b{b}_N{n_pieces}_m{deg}", s, Grid(b, d),
             encode_free_knot_spline(s))
        )
    haar_fn = lambda t: np.where(np.asarray(t) < 0.5, -1.0, 1.0)
    hat_fn = lambda t: np.where(np.asarray(t) < 0.5, 2.0 * np.asarray(t), 2.0 * (1.0 - np.asarray(t)))
    h = haar_mother()
    t = hat_mother()
    for level, shift in ((0, 0), (1, 1), (2, 3), (3, 5)):
        depth = max(level + 1, 5)
        out.append(
            (f"haar_l{level}_j{shift}",
             _dilated_closure(haar_fn, 2, level, shift, 2.0), Grid(2, depth),
             encode_dilated(WaveletSpec(h, level, shift, 2.0), depth))
        )
    for level, shift in ((0, 0), (1, 0), (2, 2)):
        depth = max(level + 1, 5)
        out.append(
            (f"hat_l{level}_j{shift}",
             _dilated_closure(hat_fn, 2, level, shift, 2.0), Grid(2, depth),
             encode_dilated(WaveletSpec(t, level, shift, 2.0), depth))
        )
    for d in (3, 4, 5, 6):
        out.append(
            (f"sawtooth_d{d}", sawtooth_function(d), Grid(2, d),
             encode_sawtooth(Grid(2, d), 1))
        )
    for seed, shifts in ((30, (0, 2)), (31, (1, 3))):
        coeffs = np.random.default_rng(seed).standard_normal(len(shifts))
        specs = [(float(c), WaveletSpec(h, 2, j, 2.0)) for c, j in zip(coeffs, shifts)]
        closures = [
            (float(c), _dilated_closure(haar_fn, 2, 2, j, 2.0)) for c, j in zip(coeffs, shifts)
        ]

        def sum_fn(x, closures=closures):
            return sum(c * g(x) for c, g in closures)

        out.append(
            (f"nterm_haar_{seed}", sum_fn, Grid(2, 5),
             n_term_wavelet(specs, 5))
        )
    return out


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
