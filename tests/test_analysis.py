import heapq
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ttfun import analysis
from ttfun.analysis import (
    ErrorRecord,
    StudyConfig,
    _aggregate_local_errors,
    _gauss01,
    fit_linear,
    fit_loglog,
    greedy_badic_knots,
    leaf_lp_norms,
    lp_error,
    piecewise_poly_lp_norm,
    quasi_random,
    rank_span_oracle,
    study_adaptive,
    study_analytic,
    study_sawtooth,
    study_sobolev,
    write_csv,
    write_json,
)
from ttfun.encoders import (
    PiecewisePolynomial,
    WaveletSpec,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    random_fixed_knot_spline,
    sawtooth_function,
)
from ttfun.grids import DomainError, Grid, lp_norm_from_leaves
from ttfun.interpolation import (
    Interpolator,
    _fit_cells,
    _sample,
    reinterpolate,
    tensor_interpolate,
)
from ttfun.targets import get_target
from ttfun.train import TensorTrain, evaluate, zero_train
from ttfun.basis import PolyBasis


def test_lp_error_self():
    tt = encode_polynomial([0.3, 1.0, -0.4], Grid(2, 5))
    err = lp_error(lambda x: evaluate(tt, x), tt, 2.0)
    assert err < 1e-12


def test_lp_error_x_vs_zero():
    z = zero_train(Grid(2, 4), PolyBasis(1))
    err = lp_error(lambda x: np.asarray(x), z, 2.0)
    assert err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_lp_error_sawtooth_vs_zero():
    z = zero_train(Grid(2, 5), PolyBasis(1))
    err = lp_error(sawtooth_function(5), z, 2.0)
    assert err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-10)


def test_lp_error_sup():
    tt = encode_polynomial([0.0, 1.0], Grid(2, 4))
    err = lp_error(lambda x: np.asarray(x) + 0.25, tt, math.inf)
    assert err == pytest.approx(0.25, abs=1e-12)


def test_lp_error_deep_train_coarse_cells():
    # depths beyond the cell cap fall back to coarser quadrature cells
    from ttfun.train import deepen

    tt = deepen(encode_polynomial([0.0, 1.0], Grid(2, 4)), 20)
    err = lp_error(lambda x: np.zeros_like(np.asarray(x, dtype=float)), tt, 2.0, max_cells=2**10)
    assert err == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


@pytest.mark.parametrize("max_cells", [0, -1])
def test_lp_error_needs_at_least_one_cell(max_cells):
    # max_cells = -1 used to loop forever, and 0 to blame a depth of 1078
    tt = encode_polynomial([0.0, 1.0], Grid(2, 4))
    with pytest.raises(DomainError, match=f"^max_cells must be >= 1, got {max_cells}$"):
        lp_error(np.sin, tt, 2.0, max_cells=max_cells)


def test_rank_span_oracle_examples():
    f2 = lambda x: np.asarray(x) ** 2
    assert rank_span_oracle(f2, Grid(2, 3), 2) == 3
    h = haar_mother()
    assert rank_span_oracle(lambda x: evaluate(h, x), Grid(2, 4), 3) == 1
    st = sawtooth_function(5)
    assert all(rank_span_oracle(st, Grid(2, 5), nu) == 2 for nu in range(1, 5))
    with pytest.raises(DomainError):
        rank_span_oracle(f2, Grid(2, 3), 4)
    for tol in (math.nan, -1e-8):
        with pytest.raises(DomainError, match="tol must be >= 0"):
            rank_span_oracle(f2, Grid(2, 3), 2, tol=tol)


def test_piecewise_norm_p1_with_sign_change():
    # |2t - 1| on one piece: integral = 1/2 exactly, needs root splitting
    pp = PiecewisePolynomial(2, (), ([-1.0, 2.0],))
    assert piecewise_poly_lp_norm(pp, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert piecewise_poly_lp_norm(pp, math.inf) == pytest.approx(1.0, abs=1e-14)
    assert piecewise_poly_lp_norm(pp, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-14
    )
    # ||2t - 1||_p = (p + 1)^(-1/p); a non-integer p has a kink at the zero
    for p in (0.5, 1.5, 2.7):
        assert piecewise_poly_lp_norm(pp, p) == pytest.approx((p + 1) ** (-1 / p), rel=1e-10)


def test_isometry_direct_vs_leafsum():
    rng = np.random.default_rng(0)
    grid = Grid(2, 4)
    for _ in range(10):
        s = random_fixed_knot_spline(rng, 2, 4, 2, -1)
        for p in (1.0, 2.0, math.inf):
            direct = piecewise_poly_lp_norm(s, p)
            leafs = lp_norm_from_leaves(leaf_lp_norms(s, grid, p), grid, p)
            assert abs(direct - leafs) <= 1e-10 * direct


def test_a_record_or_leaf_norm_out_of_range_is_rejected():
    with pytest.raises(DomainError, match="invalid record"):
        ErrorRecord("sobolev", "sin2pi", 2, 1, 2.0, 4, "N", 3, 1, -1e-3, 0.0, 1)
    s = PiecewisePolynomial(2, ((1, 3),), ([1.0], [2.0]))  # a knot at level 3
    with pytest.raises(DomainError, match="grid depth below the finest knot level"):
        leaf_lp_norms(s, Grid(2, 2), 2.0)


def test_greedy_polynomial_is_single_piece():
    f = lambda x: 0.5 - np.asarray(x)
    pp, info = greedy_badic_knots(f, 8, 1, 2.0, with_info=True)
    assert pp.piece_count == 1
    assert info["error"] < 1e-12


def test_greedy_beats_uniform_frozen():
    # frozen from this routine: adaptive error at N=32 beats the uniform
    # 32-piece spline by a factor ~15; the gate is a conservative 5x
    f = lambda x: np.asarray(x) ** 0.6
    pp, info = greedy_badic_knots(f, 32, 1, 2.0, with_info=True)
    assert pp.piece_count == 32
    from ttfun.analysis import _aggregate_local_errors, _local_fit_and_error
    from ttfun.interpolation import Interpolator

    it = Interpolator(1)
    locs = [_local_fit_and_error(f, i, 5, 2, it, 2.0, 12) for i in range(32)]
    uerr = _aggregate_local_errors([e for _, e in locs], 2.0)
    assert uerr / info["error"] > 5.0


def test_greedy_badic_structure_and_depth_cap():
    f = lambda x: np.sqrt(np.asarray(x))
    pp, info = greedy_badic_knots(f, 16, 1, 2.0, max_depth=6, with_info=True)
    assert pp.max_level <= 6
    assert info["pieces"] <= 16
    widths = np.diff(pp.breakpoints())
    assert widths.min() >= 2.0**-6 - 1e-15
    with pytest.raises(DomainError, match="quad_order must be >= 1, got 0"):
        greedy_badic_knots(f, 16, 1, 2.0, quad_order=0)


def test_study_sobolev_plateau_on_exact_target():
    # a target already in V_{2,d0,m} plateaus at roundoff once d >= d0
    cfg = StudyConfig(target="sawtooth:3", b=2, m=1, p=2.0, schedule=(3, 4, 5), params={"r": 2})
    recs = study_sobolev(cfg)
    errs = [r.error for r in recs if r.cost_kind == "C"]
    assert all(e < 1e-11 for e in errs)


def test_study_analytic_polynomial_target_exact():
    # a target already in P_m is reproduced exactly at every budget
    cfg = StudyConfig(target="poly:0.25,1.5", b=2, m=1, schedule=(216, 343))
    recs = study_analytic(cfg)
    assert recs
    assert all(r.error < 1e-11 for r in recs)


_FIRST_TRUNCATE_SCRIPT = """
import sys
from ttfun import analysis

truncate, seen = analysis.chebyshev_truncate, []


def traced(*args, **kwargs):
    seen.append("scipy.fft" in sys.modules)
    return truncate(*args, **kwargs)


analysis.chebyshev_truncate = traced
assert "scipy.fft" not in sys.modules
analysis.study_analytic(analysis.StudyConfig("exp", schedule=(216,)))
print(seen)
"""


def test_study_analytic_loads_scipy_fft_before_its_first_timed_row():
    # the first chebyshev_truncate call would otherwise import scipy.fft
    # inside row 1's timed region and charge that row for it
    env = dict(os.environ, PYTHONPATH=str(Path(analysis.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_TRUNCATE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True]\n"


def test_study_monotone_errors():
    cfg = StudyConfig(target="sin2pi", b=2, m=1, p=2.0, schedule=(3, 4, 5, 6), params={"r": 4})
    recs = study_sobolev(cfg)
    errs = [r.error for r in recs if r.cost_kind == "C"]
    assert all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))


def test_quadrature_self_consistency():
    rng = np.random.default_rng(4)
    s = random_fixed_knot_spline(rng, 2, 3, 1, -1)
    from ttfun.encoders import encode_fixed_knot_spline

    tt = encode_fixed_knot_spline(random_fixed_knot_spline(rng, 2, 3, 1, 0))
    e1 = lp_error(s, tt, 2.0, quad_order=8)
    e2 = lp_error(s, tt, 2.0, quad_order=16)
    assert abs(e1 - e2) < 1e-9 * max(e1, 1e-30)


def test_study_determinism():
    cfg = StudyConfig(target="x_pow:0.6", b=2, m=1, p=2.0, schedule=(8, 16), params={"mbar": 1})
    a = study_adaptive(cfg)
    b = study_adaptive(cfg)
    sa = [(r.study, r.cost_kind, r.n, r.depth, r.error) for r in a]
    sb = [(r.study, r.cost_kind, r.n, r.depth, r.error) for r in b]
    assert sa == sb


def test_study_sawtooth_rows():
    cfg = StudyConfig(target="sawtooth", b=2, m=1, schedule=(1, 2, 3, 4))
    recs = study_sawtooth(cfg)
    cs = [r for r in recs if r.cost_kind == "C"]
    assert [r.error <= 1e-12 for r in cs] == [True] * 4
    assert [r.n for r in cs] == [8 * d + 2 * 1 - 2 for d in (1, 2, 3, 4)]


def test_fit_helpers():
    slope, intercept, r2 = fit_linear([0, 1, 2], [1, 3, 5])
    assert slope == pytest.approx(2.0) and intercept == pytest.approx(1.0) and r2 == 1.0
    slope, _, _ = fit_loglog([2, 4, 8], [1.0, 0.25, 0.0625])
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert fit_loglog([2, 4, 8, 16], [1.0, 0.25, 0.0625, 0.0])[0] == slope  # 0 is dropped
    with pytest.raises(DomainError):
        fit_linear([1.0], [1.0])
    # two equal x used to reach np.polyfit and its RankWarning
    with pytest.raises(DomainError, match="two distinct x"):
        fit_linear([1.0, 1.0], [1.0, 2.0])


def test_csv_and_json_outputs(tmp_path):
    cfg = StudyConfig(target="sawtooth", b=2, m=1, schedule=(1, 2))
    recs = study_sawtooth(cfg)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    write_csv(recs, csv_path)
    write_json(recs, cfg, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "study,target,b,m,p,n,cost_kind,depth,degree,error,seconds,seed"
    assert len(lines) == len(recs) + 1
    import json as _json

    doc = _json.loads(json_path.read_text())
    assert doc["config"]["target"] == "sawtooth"
    assert len(doc["records"]) == len(recs)


@pytest.mark.parametrize("q", [4, 12, 30])
def test_gauss_rule_is_cached_read_only_and_exact(q):
    nodes, weights = np.polynomial.legendre.leggauss(q)
    ys, ws = _gauss01(q)
    assert _gauss01(q)[0] is ys
    assert np.array_equal(ys, 0.5 * (nodes + 1.0)) and np.array_equal(ws, 0.5 * weights)
    assert not ys.flags.writeable and not ws.flags.writeable


def _nan_on_left_half(x):
    return np.where(np.asarray(x) < 0.5, np.nan, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda f: lp_error(f, encode_polynomial([1, 2], Grid(2, 4)), 2.0), id="lp_error_2"
        ),
        pytest.param(
            lambda f: lp_error(f, encode_polynomial([1, 2], Grid(2, 4)), math.inf),
            id="lp_error_inf",
        ),
        pytest.param(lambda f: greedy_badic_knots(f, 8, 1, 2.0, with_info=True), id="greedy"),
        pytest.param(lambda f: rank_span_oracle(f, Grid(2, 4), 2), id="rank_span_oracle"),
    ],
)
def test_nan_sampler_raises_domain_error(call):
    with pytest.raises(DomainError, match="non-finite"):
        call(_nan_on_left_half)


@pytest.mark.parametrize("p", [math.nan, 0.0, -1.0])
def test_every_lp_entry_point_rejects_a_p_that_is_not_positive(p):
    # a NaN p slipped past the old `p <= 0` checks and gave NaN errors
    tt = encode_polynomial([0.0, 1.0], Grid(2, 3))
    s = PiecewisePolynomial(2, [(1, 1)], [[0.0, 1.0], [1.0]])
    calls = [
        lambda: lp_error(lambda x: x, tt, p),
        lambda: piecewise_poly_lp_norm(s, p),
        lambda: lp_norm_from_leaves(np.ones(8), Grid(2, 3), p),
        lambda: WaveletSpec(haar_mother(), 0, 0, p),
        lambda: StudyConfig("sin2pi", p=p),
        lambda: greedy_badic_knots(lambda x: x, 4, 1, p),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="p must be positive"):
            call()


@pytest.mark.parametrize(
    "schedule, message",
    [((0,), "schedule entry 0 is below 1"), ((3, -1), "schedule entry -1 is below 1"),
     ((2.5,), "schedule entry 2.5 is not an integer")],
)
def test_study_config_checks_its_schedule(schedule, message):
    # the library's study_sobolev said only "invalid record" for entry 0
    with pytest.raises(DomainError, match=message):
        study_sobolev(StudyConfig("sin2pi", schedule=schedule))


@pytest.mark.parametrize("n", [2.5, -1, "3"])
def test_quasi_random_rejects_a_count_that_is_not_a_count(n):
    # 2.5 returned 3 points
    with pytest.raises(DomainError, match="n "):
        quasi_random(n)


def _huge(x):
    return 1e200 * np.asarray(x) ** 2


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: lp_error(_huge, zero_train(Grid(2, 3), PolyBasis(1)), 2.0), id="lp_error"),
        pytest.param(lambda: greedy_badic_knots(_huge, 4, 1, 2.0), id="local_fits"),
        pytest.param(lambda: _aggregate_local_errors([1e200, 1e200], 2.0), id="aggregate"),
    ],
)
def test_an_error_whose_pth_power_overflows_raises_domain_error(call):
    # the p-th powers overflowed and the studies recorded an error of inf
    with pytest.raises(DomainError, match="L\\^p error has a non-finite entry or overflows"):
        call()


# ---------------------------------------------------------------------------
# lp_error's streamed contraction against the full-grid route it replaced
# ---------------------------------------------------------------------------


def _reference_lp_error(f, tt, p, quad_order=0, max_cells=2**20):
    """lp_error over the whole cell grid at once: leaf_values on every leaf
    when b^d <= max_cells, else every cell's nodes through evaluate."""
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
    xs = (np.arange(cells)[:, None] + ys[None, :]) / cells
    np.minimum(xs, np.nextafter(1.0, 0.0), out=xs)
    if level == d:
        tvals = tt.leaf_values(ys, max_cells=max_cells)
    else:
        tvals = evaluate(tt, xs.ravel()).reshape(cells, ys.size)
    err = np.abs(_sample(f, xs) - tvals)
    if math.isinf(p):
        return float(err.max())
    return lp_norm_from_leaves((err**p @ ws) ** (1.0 / p), Grid(b, level), p)


def _sobolev_train(d):
    """The train study_sobolev measures at depth d (sin2pi, r=4, m=1)."""
    f = get_target("sin2pi").sampler
    return f, reinterpolate(tensor_interpolate(f, Grid(2, d), Interpolator(3), tol=0.0), 2 * d, 1)


@pytest.mark.parametrize("d", range(3, 11))
def test_lp_error_keeps_the_full_grid_bits_on_the_sobolev_trains(d):
    f, tt = _sobolev_train(d)
    assert lp_error(f, tt, 2.0) == _reference_lp_error(f, tt, 2.0)


def test_lp_error_keeps_the_full_grid_bits_on_the_sawtooth_trains():
    for d in range(1, 11):
        tt, f = encode_sawtooth(Grid(2, d), 1), sawtooth_function(d)
        assert lp_error(f, tt, math.inf) == _reference_lp_error(f, tt, math.inf)


@pytest.mark.parametrize(
    "b, d, bond, degree", [(2, 14, 33, 17), (3, 9, 17, 5), (5, 6, 9, 12), (7, 5, 33, 2)]
)
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_error_matches_the_full_grid_on_random_trains(b, d, bond, degree, p):
    # more than train._CHUNK cells, so the cells come in several blocks
    rng = np.random.default_rng(100 * b + d)
    bonds = [1] + [int(r) for r in rng.integers(1, bond + 1, size=d - 1)] + [bond]
    cores = [
        rng.standard_normal((b, r, s)) / math.sqrt(b * r) for r, s in zip(bonds, bonds[1:])
    ]
    tt = TensorTrain(Grid(b, d), cores, rng.standard_normal((bond, degree + 1)), PolyBasis(degree))
    f = lambda x: np.cos(7.0 * x)
    want = _reference_lp_error(f, tt, p)
    assert lp_error(f, tt, p) == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [11, 12])  # dbar = 22, 24: deeper than the cells
@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_error_below_the_cell_level_matches_evaluate(d, p):
    _, tt = _sobolev_train(d)
    g = lambda x: np.cos(2.0 * np.pi * np.asarray(x))  # an O(1) distance from the train
    for max_cells in (2**10, 2**12):
        want = _reference_lp_error(g, tt, p, max_cells=max_cells)
        assert lp_error(g, tt, p, max_cells=max_cells) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lp_error_below_the_cell_level_matches_evaluate_at_base_3():
    rng = np.random.default_rng(33)
    cores = [rng.standard_normal((3, 1 if nu == 0 else 5, 5)) / 4 for nu in range(12)]
    tt = TensorTrain(Grid(3, 12), cores, rng.standard_normal((5, 4)), PolyBasis(3))
    g = lambda x: np.exp(np.asarray(x))
    for p in (1.0, 2.0, math.inf):
        want = _reference_lp_error(g, tt, p, max_cells=3**7)
        assert lp_error(g, tt, p, max_cells=3**7) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_lp_error_streams_the_cells_in_bounded_memory():
    # the full grid held about 200 MB at d=10: 2^20 cells x 6 nodes, several arrays
    f, tt = _sobolev_train(10)
    lp_error(f, tt, 2.0)  # lazy set-up (quadrature rule, basis tables) outside the trace
    tracemalloc.start()
    try:
        lp_error(f, tt, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_lp_error_holds_one_cell_sized_temporary_beside_the_norms():
    # the per-cell norms at d=10 are 2^20 floats; the power of their ratios
    # is taken in place, so no second buffer of that size is held with them
    f, tt = _sobolev_train(10)
    lp_error(f, tt, 2.0)
    tracemalloc.start()
    try:
        lp_error(f, tt, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * 2**20


def test_lp_error_streams_the_sup_error_in_bounded_memory():
    # 2^20 cells x 64 points: 4 MiB arrays per block, 512 MiB for the grid
    f, tt = _sobolev_train(10)
    lp_error(f, tt, math.inf)
    tracemalloc.start()
    try:
        lp_error(f, tt, math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


# 2^17 norms: past the size where numpy reuses a temporary in place
@pytest.mark.parametrize("b, d", [(2, 0), (7, 1), (10, 3), (2, 17)])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_lp_norm_from_leaves_keeps_the_bits_of_the_two_temporary_form(b, d, p):
    rng = np.random.default_rng(b**d)
    for spread in (1.0, 1e-200, 1e200):
        norms = spread * rng.random(b**d)
        scale = norms.max()
        want = float(scale * (np.sum((norms / scale) ** p) / b**d) ** (1.0 / p))
        assert lp_norm_from_leaves(norms, Grid(b, d), p) == want


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_error_non_finite_sample_in_a_later_block_raises(p):
    tt = encode_polynomial([0.0, 1.0], Grid(2, 15))  # 4 blocks of 2^13 cells
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(np.asarray(x) < 0.8, np.asarray(x), np.nan)

    with pytest.raises(DomainError, match="^non-finite sample of f$"):
        lp_error(f, tt, p)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# lp_error's cell blocks on the caller's thread
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2.0, math.inf])
def test_lp_error_samples_each_block_once_on_the_callers_thread_in_increasing_x(p):
    tt = encode_polynomial([0.0, 1.0], Grid(2, 15))  # 4 blocks of 2^13 cells
    calls = []

    def f(x):
        calls.append((threading.get_ident(), float(x.min()), float(x.max())))
        return np.asarray(x)

    lp_error(f, tt, p)
    assert [ident for ident, _, _ in calls] == [threading.get_ident()] * 4
    assert all(k / 4 <= lo and hi < (k + 1) / 4 for k, (_, lo, hi) in enumerate(calls)), calls


def _in_thread(call, timeout=60):
    """call() on a daemon thread: its result, or None if it did not finish."""
    out = []
    th = threading.Thread(target=lambda: out.append(call()), daemon=True)
    th.start()
    th.join(timeout)
    return out[0] if out else None


def test_lp_error_with_a_train_as_the_sampler_finishes_and_keeps_the_serial_value():
    # 4 blocks of 2^13 cells; each samples the other train at 6 * 2^13 points,
    # a multi-chunk evaluate inside the block
    a = encode_polynomial([0.0, 1.0, 0.5], Grid(2, 15))
    b = encode_polynomial([0.1, 1.0], Grid(2, 15))
    # a - b = 0.5 x^2 - 0.1, whose squared integral over [0, 1] is 1/20 - 1/30 + 1/100
    want = math.sqrt(1 / 20 - 1 / 30 + 1 / 100)
    got = _in_thread(lambda: lp_error(a, b, 2.0))
    assert got is not None and got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# greedy refinement: one sampler call fits the children of a generation
# ---------------------------------------------------------------------------


def _reference_fit(f, i, level, base, interp, p, quad_order):
    """The former one-cell fit: the interpolant from _fit_cells, then a
    second sampler call on the error nodes."""
    lo = i * float(base) ** (-level)
    w = float(base) ** (-level)
    coeffs = _fit_cells(f, np.array([lo]), w, interp)[0]
    ts = quasi_random(64) if math.isinf(p) else _gauss01(quad_order)[0]
    resid = np.abs(_sample(f, lo + w * ts) - np.polynomial.polynomial.polyval(ts, coeffs))
    if math.isinf(p):
        return coeffs, float(resid.max())
    return coeffs, float((w * np.sum(_gauss01(quad_order)[1] * resid**p)) ** (1.0 / p))


def _reference_greedy(f, n_pieces, degree, p, base=2, max_depth=30, quad_order=12):
    """Worst-leaf refinement one child at a time, stopping before a split
    would pass n_pieces: (knots, pieces, aggregated error)."""
    interp = Interpolator(degree)
    coeffs, err = _reference_fit(f, 0, 0, base, interp, p, quad_order)
    heap, frozen, counter = [(-err, 0, 0, 0, coeffs)], [], 0
    while heap and len(heap) + len(frozen) + base - 1 <= n_pieces:
        neg_err, _, i, level, c = heapq.heappop(heap)
        if -neg_err <= 1e-15 or level >= max_depth:
            frozen.append((-neg_err, i, level, c))
            continue
        for child in range(base):
            counter += 1
            ci = i * base + child
            cc, ce = _reference_fit(f, ci, level + 1, base, interp, p, quad_order)
            heapq.heappush(heap, (-ce, counter, ci, level + 1, cc))
    pieces = frozen + [(-e, i, lv, c) for e, _, i, lv, c in heap]
    pieces.sort(key=lambda t: t[1] * base ** (max_depth - t[2]))
    knots = tuple((i + 1, lv) for _, i, lv, _c in pieces[:-1])
    return knots, [c for *_1, c in pieces], _aggregate_local_errors([e for e, *_ in pieces], p)


def _assert_greedy_is_reference(f, n, m, p, base, max_depth=30):
    pp, info = greedy_badic_knots(f, n, m, p, base=base, max_depth=max_depth, with_info=True)
    knots, pieces, error = _reference_greedy(f, n, m, p, base=base, max_depth=max_depth)
    s = PiecewisePolynomial(base, knots, pieces)
    assert pp.knots == s.knots and info["pieces"] == len(pieces)
    assert all(np.array_equal(a, b) for a, b in zip(pp.pieces, s.pieces))
    assert info["error"] == error


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("base", [2, 3, 5])
def test_greedy_batched_fits_are_bitwise_the_per_child_loop(base, p):
    targets = (get_target("sqrt").sampler, lambda x: np.asarray(x) ** 0.695)
    for f in targets:
        for m in (0, 1, 2, 4):
            for n in (30, 81):
                _assert_greedy_is_reference(f, n, m, p, base)


def test_greedy_batched_fits_are_bitwise_at_the_bench_sizes():
    _assert_greedy_is_reference(lambda x: np.asarray(x) ** 0.695, 512, 1, 2.0, 2)
    _assert_greedy_is_reference(get_target("sqrt").sampler, 81, 2, 2.0, 3)
    _assert_greedy_is_reference(get_target("sin2pi").sampler, 41, 3, 2.0, 5)


def test_greedy_is_the_reference_at_the_ci_schedules_largest_budget():
    _assert_greedy_is_reference(lambda x: np.asarray(x) ** 0.6, 4096, 1, 2.0, 2)


@pytest.mark.parametrize("base", [2, 3, 5])
def test_greedy_is_the_reference_with_frozen_leaves_between_splittable_ones(base):
    # |x - 1/2| is exact on every cell that 1/2 does not cut, so at degree 1
    # zero-error leaves freeze between the cut ones; max_depth freezes more
    f = lambda x: np.abs(np.asarray(x) - 0.5)
    for m in (0, 1):
        for p in (2.0, math.inf):
            _assert_greedy_is_reference(f, 33, m, p, base, max_depth=4)


class _CountingSampler:
    def __init__(self, f):
        self.f, self.calls, self.points = f, 0, set()

    def __call__(self, x):
        self.calls += 1
        self.points.update(np.ravel(x).tolist())
        return self.f(x)


def test_greedy_samples_once_per_generation():
    # one sampler call per split would make 512 calls here
    f = _CountingSampler(lambda x: np.asarray(x) ** 0.695)
    pp = greedy_badic_knots(f, 512, 1, 2.0)
    assert f.calls <= pp.max_level + 2


@pytest.mark.parametrize("fails", ["nan", "raise"])
def test_greedy_speculative_fits_never_fail_where_the_reference_does_not(fails):
    f = lambda x: np.sin(7 * np.asarray(x))
    ref, batched = _CountingSampler(f), _CountingSampler(f)
    _reference_greedy(ref, 33, 1, 2.0)
    greedy_badic_knots(batched, 33, 1, 2.0)
    only_batched = list(batched.points - ref.points)
    assert only_batched  # premise: a batch fits cells that the reference never fits

    def g(x):
        hit = np.isin(x, only_batched)
        if fails == "raise" and hit.any():
            raise ValueError("a point that the reference never samples")
        return np.where(hit, np.nan, f(x))

    _assert_greedy_is_reference(g, 33, 1, 2.0, 2)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("base, schedule", [(2, (8, 32)), (3, (9, 27))])
def test_adaptive_uniform_rows_are_bitwise_the_per_cell_fits(base, schedule, p):
    cfg = StudyConfig("x_pow:0.6", b=base, m=1, p=p, schedule=schedule, params={"mbar": 2})
    got = {
        r.n: r.error for r in study_adaptive(cfg)
        if r.study == "adaptive_uniform" and r.cost_kind == "pieces"
    }
    f, it = get_target("x_pow:0.6").sampler, Interpolator(2)
    want = {}
    for n in schedule:
        du = round(math.log(n, base))
        errs = [_reference_fit(f, i, du, base, it, p, 12)[1] for i in range(n)]
        want[n] = _aggregate_local_errors(errs, p)
    assert got == want


@pytest.mark.parametrize("base", [2, 3])
def test_greedy_scalar_only_sampler_gives_the_same_pieces(base):
    for m in (1, 2):
        a = greedy_badic_knots(math.sqrt, 27, m, 2.0, base=base)
        b = greedy_badic_knots(np.sqrt, 27, m, 2.0, base=base)
        assert a.knots == b.knots
        assert all(np.array_equal(x, y) for x, y in zip(a.pieces, b.pieces))


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("base", [3, 5])
def test_greedy_nan_sampler_raises_at_any_base(base, p):
    with pytest.raises(DomainError, match="non-finite"):
        greedy_badic_knots(_nan_on_left_half, 9, 1, p, base=base)


@pytest.mark.parametrize("base", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 28, 80, 81])
def test_greedy_piece_count_is_the_largest_reachable_at_most_n(base, n):
    # a split adds b - 1 pieces; it used to overshoot n_pieces at b >= 3
    f = lambda x: np.asarray(x) ** 0.6
    pp, info = greedy_badic_knots(f, n, 1, 2.0, base=base, with_info=True)
    assert info["pieces"] == pp.piece_count == 1 + (n - 1) // (base - 1) * (base - 1)


@pytest.mark.parametrize("n", [2.5, 8.0, "8", True, 0])
def test_greedy_rejects_a_piece_count_that_is_not_a_count(n):
    # 2.5 used to return a spline
    with pytest.raises(DomainError, match="n_pieces"):
        greedy_badic_knots(np.sqrt, n, 1, 2.0)
    assert greedy_badic_knots(np.sqrt, np.int64(8), 1, 2.0).piece_count == 8


def test_greedy_piece_count_examples():
    f = lambda x: np.asarray(x) ** 0.6
    assert greedy_badic_knots(f, 80, 2, 2.0, base=3).piece_count == 79
    assert greedy_badic_knots(f, 7, 1, 1.0, base=5).piece_count == 5
    assert greedy_badic_knots(f, 81, 2, 2.0, base=3).piece_count == 81


def test_adaptive_pieces_rows_record_the_spline_piece_count():
    cfg = StudyConfig("x_pow:0.6", b=3, m=1, p=2.0, schedule=(8, 28), params={"mbar": 1})
    rows = [r.n for r in study_adaptive(cfg) if r.study == "adaptive" and r.cost_kind == "pieces"]
    assert rows == [7, 27]


def test_adaptive_depth_is_sized_from_the_pieces_built():
    # at b = 3 the greedy builds 3 and 7 pieces for 4 and 8; the depth follows
    # the built count (sized from the requested one, it read 5 and 10)
    cfg = StudyConfig("x_pow:0.6", b=3, m=0, p=1.0, schedule=(4, 8))
    rows = [
        (r.n, r.depth) for r in study_adaptive(cfg)
        if r.study == "adaptive" and r.cost_kind == "pieces"
    ]
    assert rows == [(3, 4), (7, 9)]


def test_rank_span_oracle_of_the_zero_function_is_zero():
    assert rank_span_oracle(lambda x: np.zeros_like(np.asarray(x, dtype=float)), Grid(2, 4), 2) == 0
