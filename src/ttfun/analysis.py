"""Error norms, rank oracles, greedy free-knot refinement, rate studies.

The studies reproduce the rate regimes of the re-interpolation, spectral
and adaptive constructions. Recorded costs are those of the construction's
own representation (unrounded); rounding first would expose target-specific
low ranks and measure the tool's opportunism rather than the construction.
"""

from __future__ import annotations

import csv
import heapq
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .complexity import complexity
from .encoders import (
    PiecewisePolynomial,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_sawtooth,
    sawtooth_function,
)
from .grids import DomainError, Grid, lp_norm_from_leaves
from .interpolation import (
    Interpolator,
    chebyshev_truncate,
    polynomial_interpolant_train,
    reinterpolate,
    tensor_interpolate,
)
from .targets import get_target
from .train import TensorTrain, evaluate

_CELL_CAP = 2**20
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _sample_f(f, xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.vectorize(f)(xs)
    return vals


@lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre rule on [0, 1]: (nodes, weights), read-only and cached."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quasi_random(n: int, seed_shift: float = 0.0) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)."""
    return np.mod(seed_shift + (np.arange(1, n + 1)) * _GOLDEN, 1.0)


def lp_error(f, tt: TensorTrain, p: float, quad_order: int = 0, max_cells: int = _CELL_CAP) -> float:
    """L^p distance between a sampler and a train.

    Composite Gauss-Legendre quadrature per depth-d leaf combined through
    the isometry formula; p = inf uses dense sampling (>= 64 points per
    cell). When b^d exceeds max_cells the quadrature cells are the leaves
    of the deepest affordable level instead.
    """
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    b, d = tt.base, tt.depth
    level = d
    while b**level > max_cells:
        level -= 1
    cells = b**level
    grid = Grid(b, level)
    if math.isinf(p):
        ys = np.sort(np.concatenate([quasi_random(62), [0.0, 0.5]]))
    else:
        q = quad_order if quad_order > 0 else max(tt.basis.degree + 2, 6)
        ys, ws = _gauss01(q)
    xs = (np.arange(cells)[:, None] + ys[None, :]) / cells
    np.minimum(xs, np.nextafter(1.0, 0.0), out=xs)
    if level == d:
        tvals = tt.leaf_values(ys, max_cells=max_cells)
    else:
        tvals = evaluate(tt, xs.ravel()).reshape(cells, ys.size)
    err = np.abs(_sample_f(f, xs) - tvals)
    if math.isinf(p):
        return float(err.max())
    leaf_norms = (err**p @ ws) ** (1.0 / p)
    return lp_norm_from_leaves(leaf_norms, grid, p)


def rank_span_oracle(
    f, grid: Grid, nu: int, samples_per_leaf: int = 0, tol: float = 1e-8
) -> int:
    """Dimension of span{f(b^-nu (j + .)) : j} by sampled SVD.

    Brute-force oracle for the level-nu rank, independent of any train
    representation: rows are the dilated leaf functions sampled at shared
    quasi-random points.
    """
    if not 1 <= nu <= grid.depth:
        raise DomainError(f"nu = {nu} outside 1..{grid.depth}")
    rows = grid.base**nu
    n_samples = samples_per_leaf if samples_per_leaf > 0 else min(max(64, 2 * rows), 8192)
    ts = quasi_random(n_samples)
    xs = (np.arange(rows)[:, None] + ts[None, :]) / rows
    M = _sample_f(f, xs)
    scale = np.abs(M).max()
    if scale == 0.0:
        return 0
    S = np.linalg.svd(M / scale, compute_uv=False)
    return int(np.sum(S > tol * S[0]))


# ---------------------------------------------------------------------------
# exact piecewise-polynomial norms (root-splitting quadrature)
# ---------------------------------------------------------------------------


def _segment_lp(coeffs: np.ndarray, lo: float, hi: float, p: float, order: int) -> float:
    """integral_lo^hi |poly(t)|^p dt for a sign-definite segment."""
    nodes, ws = _gauss01(order)
    ts = lo + (hi - lo) * nodes
    vals = np.abs(np.polynomial.polynomial.polyval(ts, coeffs))
    return float((hi - lo) * np.sum(ws * vals**p))


def _unit_poly_lp(coeffs: np.ndarray, p: float) -> float:
    """||poly||_p on [0, 1), exact for integer p via root splitting."""
    coeffs = np.asarray(coeffs, dtype=float)
    if math.isinf(p):
        cands = [0.0, 1.0]
        der = np.polynomial.polynomial.polyder(coeffs)
        if der.size and np.any(der != 0):
            roots = np.polynomial.polynomial.polyroots(der)
            cands += [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
        return float(np.abs(np.polynomial.polynomial.polyval(np.array(cands), coeffs)).max())
    cuts = [0.0, 1.0]
    if coeffs.size > 1 and np.any(coeffs[1:] != 0):
        roots = np.polynomial.polynomial.polyroots(coeffs)
        cuts += [float(r.real) for r in roots if abs(r.imag) < 1e-12 and 0 < r.real < 1]
    cuts = sorted(set(cuts))
    deg = coeffs.size - 1
    order = max(int(math.ceil((deg * p + 1) / 2)) + 1, 4) if float(p).is_integer() else 20
    total = sum(_segment_lp(coeffs, a, b_, p, order) for a, b_ in zip(cuts, cuts[1:]))
    return total ** (1.0 / p)


def piecewise_poly_lp_norm(s: PiecewisePolynomial, p: float) -> float:
    """||s||_p over [0, 1) by per-piece quadrature split at sign changes."""
    if p <= 0:
        raise DomainError(f"p must be positive, got {p}")
    bp = s.breakpoints()
    if math.isinf(p):
        return max(_unit_poly_lp(c, p) for c in s.pieces)
    total = 0.0
    for k, coeffs in enumerate(s.pieces):
        w = bp[k + 1] - bp[k]
        total += w * _unit_poly_lp(coeffs, p) ** p
    return total ** (1.0 / p)


def leaf_lp_norms(s: PiecewisePolynomial, grid: Grid, p: float) -> np.ndarray:
    """Per-leaf L^p norms of the rescaled restrictions of s."""
    if grid.depth < s.max_level:
        raise DomainError("grid depth below the finest knot level")
    from .encoders import _affine_recoeff, _pad

    bp = s.breakpoints()
    w = grid.leaf_width
    out = np.empty(grid.leaf_count)
    m1 = s.degree + 1
    for j in range(grid.leaf_count):
        lo = j * w
        k = min(int(np.searchsorted(bp, lo, side="right")) - 1, s.piece_count - 1)
        local = _affine_recoeff(
            _pad(s.pieces[k], m1), (lo - bp[k]) / (bp[k + 1] - bp[k]), w / (bp[k + 1] - bp[k])
        )
        out[j] = _unit_poly_lp(local, p)
    return out


# ---------------------------------------------------------------------------
# greedy b-adic free-knot refinement
# ---------------------------------------------------------------------------


def _local_fit_and_error(f, i: int, level: int, base: int, interp, p, quad_order):
    lo = i * float(base) ** (-level)
    w = float(base) ** (-level)
    xs = np.minimum(lo + w * interp.nodes, np.nextafter(lo + w, 0.0))
    vals = _sample_f(f, xs)
    coeffs = np.linalg.solve(interp.vandermonde(), vals)
    if math.isinf(p):
        ts = quasi_random(64)
        err = float(
            np.abs(_sample_f(f, lo + w * ts) - np.polynomial.polynomial.polyval(ts, coeffs)).max()
        )
    else:
        nodes, ws = _gauss01(quad_order)
        resid = np.abs(
            _sample_f(f, lo + w * nodes) - np.polynomial.polynomial.polyval(nodes, coeffs)
        )
        err = float((w * np.sum(ws * resid**p)) ** (1.0 / p))
    return coeffs, err


def greedy_badic_knots(
    f,
    n_pieces: int,
    degree: int,
    p: float,
    *,
    base: int = 2,
    max_depth: int = 30,
    quad_order: int = 12,
    interp: Interpolator | None = None,
    with_info: bool = False,
):
    """Adaptive free b-adic-knot spline by worst-leaf refinement.

    Repeatedly splits the b-adic interval with the largest local L^p
    interpolation error into its b children until n_pieces pieces or
    max_depth is reached; each piece carries its local near-best (node
    interpolation) polynomial. Budget or depth exhaustion is reported in
    the info dict, not raised.
    """
    if n_pieces < 1:
        raise DomainError("need at least one piece")
    if interp is None:
        interp = Interpolator(degree)
    counter = 0
    coeffs, err = _local_fit_and_error(f, 0, 0, base, interp, p, quad_order)
    heap = [(-err, counter, 0, 0, coeffs)]
    frozen = []
    while len(heap) + len(frozen) < n_pieces and heap:
        neg_err, _, i, level, c = heapq.heappop(heap)
        if -neg_err <= 1e-15 or level >= max_depth:
            frozen.append((-neg_err, i, level, c))
            continue
        for child in range(base):
            counter += 1
            ci = i * base + child
            cc, ce = _local_fit_and_error(f, ci, level + 1, base, interp, p, quad_order)
            heapq.heappush(heap, (-ce, counter, ci, level + 1, cc))
    pieces = frozen + [(-e, i, lv, c) for e, _, i, lv, c in heap]
    pieces.sort(key=lambda t: t[1] * base ** (max_depth - t[2]))
    knots = []
    for _, i, lv, _c in pieces[:-1]:
        knots.append((i + 1, lv))
    pp = PiecewisePolynomial(base, tuple(knots), tuple(c for *_1, c in pieces))
    if not with_info:
        return pp
    errs = np.array([e for e, *_ in pieces])
    total = errs.max() if math.isinf(p) else (np.sum(errs**p)) ** (1.0 / p)
    info = {
        "error": float(total),
        "pieces": len(pieces),
        "max_level": pp.max_level,
        "depth_exhausted": bool(any(lv >= max_depth for _, _i, lv, _c in pieces)),
    }
    return pp, info


# ---------------------------------------------------------------------------
# rate studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyConfig:
    """Inputs of one convergence study."""

    target: str
    b: int = 2
    m: int = 1
    p: float = 2.0
    schedule: tuple = ()
    seed: int = 20250811
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ErrorRecord:
    study: str
    target: str
    b: int
    m: int
    p: float
    n: int
    cost_kind: str
    depth: int
    degree: int
    error: float
    seconds: float
    seed: int

    def __post_init__(self):
        if self.error < 0 or self.n < 1:
            raise DomainError("invalid record")


def _cost_rows(study, cfg, rep, depth, degree, error, seconds, kinds=("N", "C", "S")):
    by_kind = {"N": rep.cost_n, "C": rep.cost_c, "S": rep.cost_s}
    return [
        ErrorRecord(
            study, cfg.target, cfg.b, cfg.m, cfg.p, by_kind[k], k, depth, degree,
            error, seconds, cfg.seed,
        )
        for k in kinds
    ]


def study_sobolev(cfg: StudyConfig):
    """Re-interpolation schedule dbar = ceil(d r / (m+1)) for W^{r,p} targets."""
    target = get_target(cfg.target)
    f = target.sampler
    r = int(cfg.params.get("r", 4))
    mbar = r - 1
    schedule = cfg.schedule or tuple(range(3, 11))
    records = []
    for d in schedule:
        t0 = time.perf_counter()
        s = tensor_interpolate(f, Grid(cfg.b, d), Interpolator(mbar), tol=0.0)
        dbar = math.ceil(d * r / (cfg.m + 1))
        st = reinterpolate(s, dbar, cfg.m)
        err = lp_error(f, st, cfg.p)
        rep = complexity(st)
        dt = time.perf_counter() - t0
        records += _cost_rows("sobolev", cfg, rep, dbar, cfg.m, err, dt)
    return records


def _sup_error_sampled(f, tt: TensorTrain, n_points: int = 4096) -> float:
    xs = np.sort(np.concatenate([quasi_random(n_points), [0.0]]))
    return float(np.abs(_sample_f(f, xs) - evaluate(tt, xs)).max())


def study_analytic(cfg: StudyConfig):
    """Chebyshev truncation + leaf interpolation on the proof's schedules.

    cost_C track: d = floor(n^(1/3)/b - (m+1) n^(-2/3)), mbar = floor(n^(1/3) - 1).
    cost_N track: d = floor(n^(1/2)), mbar = floor(n^(1/2) - 1).
    """
    target = get_target(cfg.target)
    f = target.sampler
    b, m = cfg.b, cfg.m
    # small budgets feed the n^(1/2) track, large ones the n^(1/3) track
    schedule = cfg.schedule or (
        9, 16, 25, 36, 49, 64, 100, 144, 196,
        216, 343, 512, 729, 1000, 1331, 1728, 2197, 2744, 3000,
    )
    records = []
    for n in schedule:
        t0 = time.perf_counter()
        d_c = math.floor(n ** (1.0 / 3.0) / b - (m + 1) * n ** (-2.0 / 3.0))
        mbar_c = math.floor(n ** (1.0 / 3.0) - 1.0)
        if d_c >= 2 and mbar_c >= max(m, 1):
            a = chebyshev_truncate(f, mbar_c)
            tt = polynomial_interpolant_train(a, Grid(b, d_c), m, input_basis="chebyshev")
            err = _sup_error_sampled(f, tt)
            rep = complexity(tt)
            dt = time.perf_counter() - t0
            records += _cost_rows("analytic", cfg, rep, d_c, m, err, dt, kinds=("C", "S"))
        t0 = time.perf_counter()
        d_n = math.floor(math.sqrt(n))
        mbar_n = math.floor(math.sqrt(n) - 1.0)
        if d_n >= 2 and mbar_n >= max(m, 1):
            a = chebyshev_truncate(f, mbar_n)
            tt = polynomial_interpolant_train(a, Grid(b, d_n), m, input_basis="chebyshev")
            err = _sup_error_sampled(f, tt)
            rep = complexity(tt)
            dt = time.perf_counter() - t0
            records += _cost_rows("analytic", cfg, rep, d_n, m, err, dt, kinds=("N",))
    return records


def _aggregate_local_errors(errs, p):
    errs = np.asarray(errs, dtype=float)
    return float(errs.max()) if math.isinf(p) else float(np.sum(errs**p) ** (1.0 / p))


def study_adaptive(cfg: StudyConfig):
    """Greedy b-adic refinement vs the uniform grid at equal piece counts.

    Both error tracks aggregate per-interval errors from the same local
    fit-and-quadrature routine; with target degree equal to the spline
    degree the re-interpolation stage is exact, so the spline error is the
    recorded error.
    """
    target = get_target(cfg.target)
    f = target.sampler
    mbar = int(cfg.params.get("mbar", max(cfg.m, 1)))
    max_depth = int(cfg.params.get("max_depth", 30))
    quad_order = int(cfg.params.get("quad_order", 12))
    alpha = target.besov_alpha(cfg.p) if target.besov_alpha else mbar + 1.0
    interp = Interpolator(mbar)
    schedule = cfg.schedule or (8, 16, 32, 64, 128, 256)
    records = []
    for n_pieces in schedule:
        t0 = time.perf_counter()
        pp, info = greedy_badic_knots(
            f, n_pieces, mbar, cfg.p, base=cfg.b, max_depth=max_depth,
            quad_order=quad_order, with_info=True,
        )
        err = info["error"]
        d = max(pp.max_level, 1)
        sparse = encode_free_knot_spline(pp, depth=d)
        dbar = math.ceil(
            (d * (cfg.m + 1 + 1.0 / cfg.p) + alpha * math.log(n_pieces, cfg.b)) / (cfg.m + 1)
        )
        dbar = max(dbar, d)
        rep = complexity(reinterpolate(sparse, dbar, cfg.m))
        dt = time.perf_counter() - t0
        records += _cost_rows("adaptive", cfg, rep, dbar, cfg.m, err, dt)
        records.append(
            ErrorRecord(
                "adaptive", cfg.target, cfg.b, cfg.m, cfg.p, n_pieces, "pieces",
                dbar, cfg.m, err, dt, cfg.seed,
            )
        )
        # uniform comparison at the same piece count (same local machinery)
        t0 = time.perf_counter()
        du = round(math.log(n_pieces, cfg.b))
        if cfg.b**du == n_pieces:
            locs = [
                _local_fit_and_error(f, i, du, cfg.b, interp, cfg.p, quad_order)
                for i in range(n_pieces)
            ]
            uerr = _aggregate_local_errors([e for _, e in locs], cfg.p)
            upp = PiecewisePolynomial.uniform(cfg.b, du, [c for c, _ in locs])
            urep = complexity(encode_fixed_knot_spline(upp))
            dt = time.perf_counter() - t0
            records += _cost_rows("adaptive_uniform", cfg, urep, du, mbar, uerr, dt)
            records.append(
                ErrorRecord(
                    "adaptive_uniform", cfg.target, cfg.b, cfg.m, cfg.p, n_pieces,
                    "pieces", du, mbar, uerr, dt, cfg.seed,
                )
            )
    return records


def study_sawtooth(cfg: StudyConfig):
    """Exactness and linear cost growth of the sawtooth family."""
    if cfg.b != 2:
        raise DomainError("the sawtooth family requires base 2")
    schedule = cfg.schedule or tuple(range(1, 11))
    records = []
    for d in schedule:
        t0 = time.perf_counter()
        tt = encode_sawtooth(Grid(2, d), max(cfg.m, 1))
        err = lp_error(sawtooth_function(d), tt, math.inf)
        rep = complexity(tt)
        dt = time.perf_counter() - t0
        records += _cost_rows("sawtooth", cfg, rep, d, max(cfg.m, 1), err, dt)
    return records


STUDIES = {
    "sobolev": study_sobolev,
    "analytic": study_analytic,
    "adaptive": study_adaptive,
    "sawtooth": study_sawtooth,
}


# ---------------------------------------------------------------------------
# encoder catalog (oracle-equivalence instances)
# ---------------------------------------------------------------------------


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
    from .encoders import (
        WaveletSpec,
        encode_dilated,
        encode_fixed_knot_spline,
        encode_polynomial,
        haar_mother,
        hat_mother,
        random_fixed_knot_spline,
        random_free_knot_spline,
        n_term_wavelet,
    )

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


# ---------------------------------------------------------------------------
# fits and output
# ---------------------------------------------------------------------------


def fit_linear(x, y):
    """Least-squares line: returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two points to fit")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def fit_loglog(ns, errs, floor: float = 0.0):
    """Slope of log(err) against log(n), dropping sub-floor errors."""
    ns = np.asarray(ns, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > floor
    return fit_linear(np.log(ns[keep]), np.log(errs[keep]))


CSV_COLUMNS = (
    "study", "target", "b", "m", "p", "n", "cost_kind", "depth", "degree",
    "error", "seconds", "seed",
)


def write_csv(records, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow(
                [
                    r.study, r.target, r.b, r.m, repr(r.p), r.n, r.cost_kind,
                    r.depth, r.degree, repr(r.error), f"{r.seconds:.6f}", r.seed,
                ]
            )


def write_json(records, cfg: StudyConfig, path):
    doc = {
        "config": asdict(cfg),
        "records": [asdict(r) for r in records],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
