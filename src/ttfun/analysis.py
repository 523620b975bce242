"""Error norms, rank oracles, greedy free-knot refinement, rate studies.

The studies reproduce the rate regimes of the re-interpolation, spectral
and adaptive constructions. Recorded costs are those of the construction's
own representation (unrounded); rounding first would expose target-specific
low ranks and measure the tool's opportunism rather than the construction.

In every study, each row group takes its start time, builds a train and
its error, and hands them to `_rows`, which costs the train and writes one
ErrorRecord per cost kind. `rate_fits` fits each (study, cost kind).
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
    _affine_recoeff,
    _pad,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_sawtooth,
    sawtooth_function,
)
from .grids import (
    DomainError,
    Grid,
    _check_int,
    _check_p,
    _check_tol,
    encode_points,
    lp_norm_from_leaves,
)
from .interpolation import (
    Interpolator,
    _sample,
    chebyshev_truncate,
    polynomial_interpolant_train,
    reinterpolate,
    tensor_interpolate,
)
from .targets import get_target
from .train import (
    _CHUNK, _FULL_GRID_CAP, TensorTrain, _extend_states, _finite, evaluate,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Gauss-Legendre order of the greedy's local errors and of the uniform track
# of study_adaptive, which must measure them the same way.
_QUAD_ORDER = 12
_P = np.polynomial.polynomial


@lru_cache(maxsize=None)
def _gauss01(order: int):
    """Gauss-Legendre rule on [0, 1]: (nodes, weights), read-only and cached."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quasi_random(n: int) -> np.ndarray:
    """Deterministic low-discrepancy points in [0, 1)."""
    return np.mod(np.arange(1, _check_int("n", n, 0) + 1) * _GOLDEN, 1.0)


def lp_error(
    f, tt: TensorTrain, p: float, quad_order: int = 0, max_cells: int = _FULL_GRID_CAP
) -> float:
    """L^p distance between a sampler and a train.

    Composite Gauss-Legendre quadrature on each of the b^l cells of level
    l = d, or of the deepest level with b^l <= max_cells, combined through
    the isometry formula; p = inf uses dense sampling (64 points per cell).

    The cells are streamed in blocks of at most train._CHUNK: each block
    extends one prefix state to its cells' states V. At l = d its values
    are (V @ leaf) @ phi(ys)^T, the association of leaf_values; at l < d
    they are V @ W, where W holds the levels below l at each node's own
    digits, then the leaf. The blocks run one after another on the caller's
    thread, in increasing x, and f is called once per block of cells, so it
    need not be thread-safe. Each block's arrays are freed before the next
    block starts: working memory is one block plus the per-cell norms.
    """
    _check_p(p)
    _check_int("quad_order", quad_order, 0)
    _check_int("max_cells", max_cells, 1)
    b, d = tt.base, tt.depth
    level = d
    while b**level > max_cells:
        level -= 1
    cells = b**level
    if math.isinf(p):
        ys = np.sort(np.concatenate([quasi_random(62), [0.0, 0.5]]))
    else:
        q = quad_order if quad_order > 0 else max(tt.basis.degree + 2, 6)
        ys, ws = _gauss01(q)
    if level < d:
        digits, rem = encode_points(ys, Grid(b, d - level))  # rem: below the cell level
        W = tt.basis.eval(rem) @ tt.leaf.T  # row k: the leaf at node k
        for core, i in zip(reversed(tt.cores[level:]), reversed(digits.T)):
            W = np.einsum("krs,ks->kr", core[i], W)
    else:
        phi = tt.basis.eval(ys)
    block_levels = next(k for k in range(level, -1, -1) if b**k <= _CHUNK)
    block = b**block_levels
    norms = np.empty(cells)
    prefixes = _extend_states(np.ones((1, 1)), tt.cores[: level - block_levels])
    for k in range(len(prefixes)):
        xs = (np.arange(k * block, (k + 1) * block)[:, None] + ys[None, :]) / cells
        np.minimum(xs, np.nextafter(1.0, 0.0), out=xs)
        samples = _sample(f, xs)
        del xs  # the block's values take its place
        V = _extend_states(prefixes[k][None, :], tt.cores[level - block_levels : level])
        err = V @ W.T if level < d else (V @ tt.leaf) @ phi.T
        np.abs(np.subtract(samples, err, out=err), out=err)
        with np.errstate(over="ignore"):  # _finite reports it
            norms[k * block : (k + 1) * block] = _finite(
                err.max(axis=1) if math.isinf(p) else (err**p @ ws) ** (1.0 / p), "L^p error"
            )
        del samples, V, err  # freed before the next block's arrays are made
    return lp_norm_from_leaves(norms, Grid(b, level), p)


def rank_span_oracle(
    f, grid: Grid, nu: int, samples_per_leaf: int = 0, tol: float = 1e-8
) -> int:
    """Dimension of span{f(b^-nu (j + .)) : j} by sampled SVD.

    Brute-force oracle for the level-nu rank, independent of any train
    representation: rows are the dilated leaf functions sampled at shared
    quasi-random points.
    """
    _check_int("nu", nu, 1, grid.depth)
    _check_int("samples_per_leaf", samples_per_leaf, 0)
    _check_tol(tol)
    rows = grid.base**nu
    n_samples = samples_per_leaf if samples_per_leaf > 0 else min(max(64, 2 * rows), 8192)
    ts = quasi_random(n_samples)
    xs = (np.arange(rows)[:, None] + ts[None, :]) / rows
    M = _sample(f, xs)
    scale = np.abs(M).max()
    if scale == 0.0:
        return 0
    S = np.linalg.svd(M / scale, compute_uv=False)
    return int(np.sum(S > tol * S[0]))


# ---------------------------------------------------------------------------
# exact piecewise-polynomial norms (root-splitting quadrature)
# ---------------------------------------------------------------------------


def _unit_poly_lp(coeffs: np.ndarray, p: float) -> float:
    """||q||_p on [0, 1) for the polynomial q (coefficients, lowest first),
    cut at the zeros of q (of q' for p = inf): the max over the cuts for
    p = inf, exact Gauss-Legendre on each sign-definite piece for an
    integer p, adaptive quadrature to 1e-12 relative for any other p."""
    q = np.asarray(coeffs, dtype=float)
    roots = _P.polyroots(_P.polyder(q) if math.isinf(p) else q)
    inside = (z.real for z in roots if abs(z.imag) < 1e-12 and 0 < z.real < 1)
    edges = [0.0, *sorted(inside), 1.0]
    if math.isinf(p):
        return float(np.abs(_P.polyval(np.array(edges), q)).max())
    pieces = zip(edges, edges[1:])
    if float(p).is_integer():
        ts, ws = _gauss01(math.ceil(((q.size - 1) * p + 1) / 2))
        total = sum(
            (hi - lo) * (ws @ np.abs(_P.polyval(lo + (hi - lo) * ts, q)) ** p) for lo, hi in pieces
        )
    else:
        from scipy.integrate import quad  # here, so that import ttfun loads no scipy

        total = sum(
            quad(lambda t: abs(_P.polyval(t, q)) ** p, lo, hi, epsabs=0.0, epsrel=1e-12)[0]
            for lo, hi in pieces
        )
    return float(total) ** (1.0 / p)


def piecewise_poly_lp_norm(s: PiecewisePolynomial, p: float) -> float:
    """||s||_p over [0, 1) by per-piece quadrature split at sign changes."""
    _check_p(p)
    norms = [_unit_poly_lp(c, p) for c in s.pieces]
    if math.isinf(p):
        return max(norms)
    return float(np.diff(s.breakpoints()) @ np.power(norms, p)) ** (1.0 / p)


def leaf_lp_norms(s: PiecewisePolynomial, grid: Grid, p: float) -> np.ndarray:
    """Per-leaf L^p norms of the rescaled restrictions of s."""
    if grid.depth < s.max_level:
        raise DomainError("grid depth below the finest knot level")
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


def _local_fits(f, cells, levels, base: int, interp, p, quad_order):
    """Monomial rows of the node interpolants of f on the b-adic cells with
    indices `cells`, at `levels` (one per cell, or one for all), and their
    local L^p errors. One sampler call takes every fit and error node; the
    stacked solve is one LAPACK call per cell and the residual runs per row,
    and each width is float(base) ** -level in Python, so a cell's bits do
    not depend on the batch."""
    w = np.array([float(base) ** -int(lv) for lv in np.broadcast_to(levels, len(cells))])
    starts = np.array(cells, dtype=float) * w
    xs = starts[:, None] + interp.nodes * w[:, None]
    np.minimum(xs, np.nextafter(starts + w, 0.0)[:, None], out=xs)
    ts, ws = (quasi_random(64), None) if math.isinf(p) else _gauss01(quad_order)
    vals = _sample(f, np.concatenate([xs, starts[:, None] + w[:, None] * ts], axis=1))
    k = interp.nodes.size
    coeffs = np.linalg.solve(interp.vandermonde(), vals[:, :k, None])[:, :, 0]
    resid = np.abs(vals[:, k:] - np.polynomial.polynomial.polyval(ts, coeffs.T))
    with np.errstate(over="ignore"):  # _finite reports it
        if math.isinf(p):
            errs = resid.max(axis=1)
        else:
            sums = np.sum(ws * resid**p, axis=1)
            errs = [(wi * e) ** (1.0 / p) for wi, e in zip(w, sums)]
    return coeffs, [float(e) for e in _finite(np.array(errs), "local L^p error")]


def _local_fit_and_error(f, i: int, level: int, base: int, interp, p, quad_order):
    coeffs, errs = _local_fits(f, [i], level, base, interp, p, quad_order)
    return coeffs[0], errs[0]


def _aggregate_local_errors(errs, p):
    errs = np.asarray(errs, dtype=float)
    with np.errstate(over="ignore"):  # _finite reports it
        err = errs.max() if math.isinf(p) else np.sum(errs**p) ** (1.0 / p)
    return float(_finite(err, "L^p error"))


def greedy_badic_knots(
    f,
    n_pieces: int,
    degree: int,
    p: float,
    *,
    base: int = 2,
    max_depth: int = 30,
    quad_order: int = _QUAD_ORDER,
    interp: Interpolator | None = None,
    with_info: bool = False,
):
    """Adaptive free b-adic-knot spline by worst-leaf refinement.

    Repeatedly splits the b-adic interval with the largest local L^p
    interpolation error into its b children while the count stays at most
    n_pieces, a split adding b - 1, and max_depth is not reached; each
    piece carries its local near-best (node interpolation) polynomial.
    Budget or depth exhaustion is reported in the info dict, not raised.

    The fits come a generation at a time: a popped leaf whose children are
    not fitted yet has them fitted in one _local_fits call together with
    the children of the next leaves in heap order that the remaining budget
    could still split, and the call stores them for later pops. A cell's
    bits do not depend on its batch, so the splits are those of fitting one
    leaf's children per pop. If that call raises, only the popped leaf's
    children are fitted, and an error surfaces where that fit raises it.
    """
    _check_int("n_pieces", n_pieces, 1)
    _check_p(p)
    _check_int("quad_order", quad_order, 1)
    _check_int("max_depth", max_depth, 0)
    _check_int("base", base, 2)
    if interp is None:
        interp = Interpolator(degree)

    def splittable(entry):  # a leaf that popping would split, not freeze
        return -entry[0] > 1e-15 and entry[3] < max_depth

    def fit(leaves):  # leaves: (i, level); stores each one's children
        cells = [i * base + child for i, _ in leaves for child in range(base)]
        levels = [level + 1 for _, level in leaves for _ in range(base)]
        rows = list(zip(cells, *_local_fits(f, cells, levels, base, interp, p, quad_order)))
        for k, leaf in enumerate(leaves):
            fitted[leaf] = rows[k * base : (k + 1) * base]

    counter, fitted = 0, {}
    coeffs, err = _local_fit_and_error(f, 0, 0, base, interp, p, quad_order)
    heap = [(-err, counter, 0, 0, coeffs)]
    frozen = []
    while heap and len(heap) + len(frozen) + base - 1 <= n_pieces:
        entry = heapq.heappop(heap)
        neg_err, _, i, level, c = entry
        if not splittable(entry):
            frozen.append((-neg_err, i, level, c))
            continue
        if (i, level) not in fitted:
            budget = (n_pieces - len(heap) - len(frozen) - 1) // (base - 1)
            ahead = heapq.nsmallest(budget - 1, filter(splittable, heap))
            leaves = [(i, level)] + [(j, lv) for _, _, j, lv, _ in ahead if (j, lv) not in fitted]
            try:
                fit(leaves)
            except Exception:
                if len(leaves) == 1:
                    raise
                fit(leaves[:1])
        for ci, cc, ce in fitted.pop((i, level)):
            counter += 1
            heapq.heappush(heap, (-ce, counter, ci, level + 1, cc))
    pieces = frozen + [(-e, i, lv, c) for e, _, i, lv, c in heap]
    pieces.sort(key=lambda t: t[1] * base ** (max_depth - t[2]))
    knots = tuple((i + 1, lv) for _, i, lv, _c in pieces[:-1])
    pp = PiecewisePolynomial(base, knots, tuple(c for *_1, c in pieces))
    if not with_info:
        return pp
    info = {
        "error": _aggregate_local_errors([e for e, *_ in pieces], p),
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

    def __post_init__(self):
        for n in self.schedule:
            if _check_int("schedule entry", n) < 1:
                raise DomainError(f"schedule entry {n} is below 1")
        _check_p(self.p)
        _check_int("m", self.m, 0)
        _check_int("base", self.b, 2)


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


def _rows(study, cfg, t0, tt, depth, degree, error, kinds=("N", "C", "S"), pieces=None):
    """One ErrorRecord per cost kind of tt, and one of kind "pieces" if given,
    all with the seconds from t0 (before the build) through complexity(tt)."""
    rep = complexity(tt)
    seconds = time.perf_counter() - t0
    n = {"N": rep.cost_n, "C": rep.cost_c, "S": rep.cost_s, "pieces": pieces}
    return [
        ErrorRecord(
            study, cfg.target, cfg.b, cfg.m, cfg.p, n[k], k, depth, degree,
            error, seconds, cfg.seed,
        )
        for k in kinds + (("pieces",) if pieces is not None else ())
    ]


def _dbar(cfg, value, source) -> int:
    """ceil(value) as a depth; DomainError naming dbar and source past Grid's guard."""
    try:
        return Grid(cfg.b, math.ceil(value)).depth
    except DomainError as exc:
        raise DomainError(f"dbar = {math.ceil(value)} from {source}: {exc}") from None


def study_sobolev(cfg: StudyConfig):
    """Re-interpolation schedule dbar = ceil(d r / (m+1)) for W^{r,p} targets."""
    target = get_target(cfg.target)
    f = target.sampler
    r = int(cfg.params.get("r", 4))
    if r < cfg.m + 1:  # dbar = ceil(d r / (m+1)) would fall below d
        raise DomainError(f"r must be >= m + 1 = {cfg.m + 1}, got {r}")
    mbar = r - 1
    schedule = cfg.schedule or tuple(range(3, 11))
    records = []
    for d in schedule:
        t0 = time.perf_counter()
        dbar = _dbar(cfg, d * r / (cfg.m + 1), f"r = {r}")
        s = tensor_interpolate(f, Grid(cfg.b, d), Interpolator(mbar), tol=0.0)
        st = reinterpolate(s, dbar, cfg.m)
        records += _rows("sobolev", cfg, t0, st, dbar, cfg.m, lp_error(f, st, cfg.p))
    return records


# Default budgets n of study_analytic (and of `ttfun study analytic --nmax`):
# small budgets feed the n^(1/2) track, large ones the n^(1/3) track.
_ANALYTIC_SCHEDULE = (
    9, 16, 25, 36, 49, 64, 100, 144, 196,
    216, 343, 512, 729, 1000, 1331, 1728, 2197, 2744, 3000,
)
# The tracks of study_analytic: the cost kinds each records and the power of
# the budget n whose root sets its depth and degree. The error falls like
# exp(-c n^power), so rate_fits reads log error against cost^power.
_ANALYTIC_TRACKS = ((("C", "S"), 1.0 / 3.0), (("N",), 0.5))


def study_analytic(cfg: StudyConfig):
    """Chebyshev truncation + leaf interpolation on the proof's schedules.

    cost_C track: d = floor(n^(1/3)/b - (m+1) n^(-2/3)), mbar = floor(n^(1/3) - 1).
    cost_N track: d = floor(n^(1/2)), mbar = floor(n^(1/2) - 1).
    """
    target = get_target(cfg.target)
    f = target.sampler
    b, m = cfg.b, cfg.m
    import scipy.fft  # chebyshev_truncate's first-call import, kept out of row 1's seconds

    xs = np.sort(np.concatenate([quasi_random(4096), [0.0]]))  # where the sup error is sampled
    records = []
    for n in cfg.schedule or _ANALYTIC_SCHEDULE:
        for kinds, power in _ANALYTIC_TRACKS:
            root = n**power
            d = math.floor(root if kinds == ("N",) else root / b - (m + 1) * n ** (-2.0 / 3.0))
            mbar = math.floor(root - 1.0)
            if d < 2 or mbar < max(m, 1):
                continue
            t0 = time.perf_counter()
            a = chebyshev_truncate(f, mbar)
            tt = polynomial_interpolant_train(a, Grid(b, d), m, input_basis="chebyshev")
            err = float(np.abs(_sample(f, xs) - evaluate(tt, xs)).max())
            records += _rows("analytic", cfg, t0, tt, d, m, err, kinds)
    return records


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
    if mbar < cfg.m:  # the spline is re-interpolated at degree m
        raise DomainError(f"mbar must be >= m = {cfg.m}, got {mbar}")
    alpha = target.besov_alpha(cfg.p) if target.besov_alpha else mbar + 1.0
    interp = Interpolator(mbar)
    schedule = cfg.schedule or (8, 16, 32, 64, 128, 256)
    if min(schedule) < 2:  # one piece is the depth-0 uniform train, of no cost
        raise DomainError(f"schedule entry {min(schedule)} is below 2 pieces")
    records = []
    for n_pieces in schedule:
        t0 = time.perf_counter()
        pp, info = greedy_badic_knots(f, n_pieces, mbar, cfg.p, base=cfg.b, with_info=True)
        d = max(pp.max_level, 1)
        built = info["pieces"]  # at b >= 3 the greedy may stop short of n_pieces
        num = d * (cfg.m + 1 + 1.0 / cfg.p) + alpha * math.log(built, cfg.b)
        dbar = _dbar(cfg, num / (cfg.m + 1), f"p = {cfg.p}")
        tt = reinterpolate(encode_free_knot_spline(pp, depth=d), dbar, cfg.m)
        records += _rows("adaptive", cfg, t0, tt, dbar, cfg.m, info["error"], pieces=built)
        # uniform comparison at the same piece count (same local machinery)
        t0 = time.perf_counter()
        du = round(math.log(n_pieces, cfg.b))
        if cfg.b**du == n_pieces:
            coeffs, errs = _local_fits(f, range(n_pieces), du, cfg.b, interp, cfg.p, _QUAD_ORDER)
            tt = encode_fixed_knot_spline(PiecewisePolynomial.uniform(cfg.b, du, coeffs))
            uerr = _aggregate_local_errors(errs, cfg.p)
            records += _rows("adaptive_uniform", cfg, t0, tt, du, mbar, uerr, pieces=n_pieces)
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
        records += _rows("sawtooth", cfg, t0, tt, d, max(cfg.m, 1), err)
    return records


STUDIES = {
    "sobolev": study_sobolev,
    "analytic": study_analytic,
    "adaptive": study_adaptive,
    "sawtooth": study_sawtooth,
}


# ---------------------------------------------------------------------------
# fits and output
# ---------------------------------------------------------------------------


def fit_linear(x, y):
    """Least-squares line: returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2:
        raise DomainError("need at least two distinct x to fit")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def fit_loglog(ns, errs):
    """Slope of log(err) against log(n), dropping errors that are not positive."""
    ns, errs = np.asarray(ns, dtype=float), np.asarray(errs, dtype=float)
    keep = errs > 0
    return fit_linear(np.log(ns[keep]), np.log(errs[keep]))


def rate_fits(records):
    """(study, kind, points, axis, slope, r2) of each (study, cost kind),
    sorted: log error against log n, or against n^power on an analytic
    track. Errors at or below 1e-12 are left out of the fits."""
    groups = {}
    for r in records:
        if r.error > 1e-12:
            groups.setdefault((r.study, r.cost_kind), []).append(r)
    fits = []
    for (study, kind), sub in sorted(groups.items()):
        if len({r.n for r in sub}) < 2:
            continue  # a repeated schedule entry gives one x: there is no line to fit
        if study == "analytic":
            power = next(pw for kinds, pw in _ANALYTIC_TRACKS if kind in kinds)
            slope, _, r2 = fit_linear([r.n**power for r in sub], [math.log(r.error) for r in sub])
            axis = f"n^{power:.2g}"
        else:
            slope, _, r2 = fit_loglog([r.n for r in sub], [r.error for r in sub])
            axis = "log n"
        fits.append((study, kind, len(sub), axis, slope, r2))
    return fits


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
