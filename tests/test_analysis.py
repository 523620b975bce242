import math

import numpy as np
import pytest

from ttfun.analysis import (
    StudyConfig,
    _gauss01,
    fit_linear,
    fit_loglog,
    greedy_badic_knots,
    leaf_lp_norms,
    lp_error,
    piecewise_poly_lp_norm,
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
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    random_fixed_knot_spline,
    sawtooth_function,
)
from ttfun.grids import DomainError, Grid, lp_norm_from_leaves
from ttfun.train import evaluate, zero_train
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


def test_rank_span_oracle_examples():
    f2 = lambda x: np.asarray(x) ** 2
    assert rank_span_oracle(f2, Grid(2, 3), 2) == 3
    h = haar_mother()
    assert rank_span_oracle(lambda x: evaluate(h, x), Grid(2, 4), 3) == 1
    st = sawtooth_function(5)
    assert all(rank_span_oracle(st, Grid(2, 5), nu) == 2 for nu in range(1, 5))
    with pytest.raises(DomainError):
        rank_span_oracle(f2, Grid(2, 3), 4)


def test_piecewise_norm_p1_with_sign_change():
    # |2t - 1| on one piece: integral = 1/2 exactly, needs root splitting
    pp = PiecewisePolynomial(2, (), ([-1.0, 2.0],))
    assert piecewise_poly_lp_norm(pp, 1.0) == pytest.approx(0.5, abs=1e-14)
    assert piecewise_poly_lp_norm(pp, math.inf) == pytest.approx(1.0, abs=1e-14)
    assert piecewise_poly_lp_norm(pp, 2.0) == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-14
    )


def test_isometry_direct_vs_leafsum():
    rng = np.random.default_rng(0)
    grid = Grid(2, 4)
    for _ in range(10):
        s = random_fixed_knot_spline(rng, 2, 4, 2, -1)
        for p in (1.0, 2.0, math.inf):
            direct = piecewise_poly_lp_norm(s, p)
            leafs = lp_norm_from_leaves(leaf_lp_norms(s, grid, p), grid, p)
            assert abs(direct - leafs) <= 1e-10 * direct


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
    with pytest.raises(DomainError):
        fit_linear([1.0], [1.0])


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
