"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
"""

import csv
import math
import time

import numpy as np

from ttfun.analysis import (
    StudyConfig,
    fit_linear,
    leaf_lp_norms,
    lp_error,
    piecewise_poly_lp_norm,
    rank_span_oracle,
    study_adaptive,
    study_analytic,
    study_sobolev,
)
from ttfun.cli import main as cli_main
from ttfun.complexity import complexity, default_audit_sweep
from ttfun.encoders import (
    encode_sawtooth,
    random_fixed_knot_spline,
)
from ttfun.grids import Grid, lp_norm_from_leaves
from ttfun.interpolation import Interpolator, reinterpolate, tensor_interpolate
from ttfun.targets import get_target
from ttfun.train import norm_l2, ranks, zero_train
from ttfun.basis import PolyBasis

from fixtures import encoder_catalog


def _report(k: int, ok: bool, detail: str):
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250811)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(0, 4))
        c = int(rng.integers(-1, m))
        s = random_fixed_knot_spline(rng, 2, d, m, c)
        grid = Grid(2, d)
        for p in (1.0, 2.0, math.inf):
            direct = piecewise_poly_lp_norm(s, p)
            leafs = lp_norm_from_leaves(leaf_lp_norms(s, grid, p), grid, p)
            worst = max(worst, abs(direct - leafs) / direct)
    dt = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-10 and dt < 10.0,
        f"direct vs leaf-sum norms, 50 splines x p in {{1,2,inf}}: "
        f"worst rel dev {worst:.2e} (<=1e-10), {dt:.1f}s (<10s)",
    )


def test_criterion_02_rank_oracle_equivalence():
    t0 = time.perf_counter()
    cat = encoder_catalog()
    mismatches = []
    for name, f, grid, tt in cat:
        rk = list(ranks(tt, 1e-10).ranks)
        orc = [rank_span_oracle(f, grid, nu, tol=1e-8) for nu in range(1, grid.depth + 1)]
        if rk != orc:
            mismatches.append((name, rk, orc))
    dt = time.perf_counter() - t0
    _report(
        2,
        len(cat) >= 60 and not mismatches and dt < 60.0,
        f"ranks() == span oracle on {len(cat)} catalog instances "
        f"(b in {{2,3}}, d<=6, deg<=4), {len(mismatches)} mismatches, {dt:.1f}s (<60s)",
    )


def test_criterion_03_known_rank_values():
    cat = {name: (f, grid, tt) for name, f, grid, tt in encoder_catalog()}
    ok = True
    notes = []
    for name, (_f, _g, tt) in cat.items():
        rk = ranks(tt).ranks
        if name.startswith("haar_"):
            ok &= all(r == 1 for r in rk)
        elif name.startswith("hat_"):
            ok &= all(r <= 2 for r in rk)
        elif name.startswith("sawtooth_"):
            ok &= all(r == 2 for r in rk)
        elif name.startswith("poly_"):
            deg = int(name.split("deg")[1].split("_")[0])
            b = int(name.split("_b")[1].split("_")[0])
            bound = tuple(min(deg + 1, b**nu) for nu in range(1, len(rk) + 1))
            ok &= all(r <= bb for r, bb in zip(rk, bound))
            if deg <= 2 or (b == 2 and deg == 3):  # resolvable spectra: equality
                ok &= tuple(rk) == bound
    notes.append("haar==1, hat<=2, sawtooth==2, poly==min(deg+1,b^nu) where resolvable")
    _report(3, ok, "; ".join(notes))


def test_criterion_04_sawtooth_numbers():
    ok = True
    worst = 0.0
    for d in range(1, 11):
        for m in (1, 2):
            tt = encode_sawtooth(Grid(2, d), m)
            ok &= complexity(tt).cost_c <= 8 * d + 2 * m + 2
        tt = encode_sawtooth(Grid(2, d), 1)
        for p in (1.0, 2.0, 3.0):
            z = zero_train(tt.grid, tt.basis)
            from ttfun.encoders import sawtooth_function

            norm_p = lp_error(sawtooth_function(d), z, p)
            worst = max(worst, abs(norm_p**p - 1.0 / (p + 1)))
    _report(
        4,
        ok and worst <= 1e-10,
        f"cost_C <= 8d+2m+2 for d in 1..10 and |phi_d|_p^p = 1/(p+1), "
        f"worst dev {worst:.2e} (<=1e-10)",
    )


def test_criterion_05_complexity_audit():
    recs = default_audit_sweep()
    bad = [r for r in recs if not r.passed]
    _report(
        5,
        len(recs) > 400 and not bad,
        f"bound audit sweep: {len(recs)} records "
        f"(explicit constants 2b/(b-1), max{{2b^2/(b^2-1),m+1}}, (mbar+1)d, "
        f"4b^3(m+1)^3 d^2 N), {len(bad)} violations",
    )


def test_criterion_06_sobolev_rate():
    t0 = time.perf_counter()
    cfg = StudyConfig(target="sin2pi", b=2, m=1, p=2.0, schedule=tuple(range(3, 11)), params={"r": 4})
    recs = study_sobolev(cfg)
    slopes = {}
    for kind in ("C", "N"):
        rows = [r for r in recs if r.cost_kind == kind]
        upper = rows[len(rows) // 2 :]  # fit the asymptotic half
        slope, _, _ = fit_linear(
            np.log2([r.n for r in upper]), np.log2([r.error for r in upper])
        )
        slopes[kind] = slope
    dt = time.perf_counter() - t0
    ok = -4.4 <= slopes["C"] <= -3.6 and -9.6 <= slopes["N"] <= -6.4 and dt < 120
    _report(
        6,
        ok,
        f"sin(2 pi x), r=4, dbar=ceil(4d/2): cost_C slope {slopes['C']:.2f} "
        f"(in [-4.4,-3.6]), cost_N slope {slopes['N']:.2f} (in [-9.6,-6.4]), {dt:.0f}s (<120s)",
    )


def test_criterion_07_analytic_rate():
    t0 = time.perf_counter()
    cfg = StudyConfig(target="inv_xplus2", b=2, m=1)
    recs = study_analytic(cfg)
    fits = {}
    for kind, power in (("C", 1.0 / 3.0), ("N", 0.5)):
        rows = [r for r in recs if r.cost_kind == kind and r.error > 1e-12]
        slope, _, r2 = fit_linear(
            [r.n**power for r in rows], np.log([r.error for r in rows])
        )
        fits[kind] = (slope, r2, len(rows))
    dt = time.perf_counter() - t0
    ok = all(s < 0 and r2 >= 0.95 for s, r2, _ in fits.values()) and dt < 180
    ok &= max(r.n for r in recs) <= 3000 and max(r.n for r in recs) > 2000
    _report(
        7,
        ok,
        f"1/(x+2), n to 3000: log err vs n^(1/3) slope {fits['C'][0]:.2f} R2 {fits['C'][1]:.3f}; "
        f"vs n^(1/2) slope {fits['N'][0]:.2f} R2 {fits['N'][1]:.3f} (both >=0.95), {dt:.0f}s (<180s)",
    )


def test_criterion_08_adaptive_beats_uniform():
    t0 = time.perf_counter()
    cfg = StudyConfig(
        target="x_pow:0.6", b=2, m=1, p=2.0, schedule=(8, 16, 32, 64, 128, 256),
        params={"mbar": 1},
    )
    recs = study_adaptive(cfg)
    ad = [r for r in recs if r.study == "adaptive" and r.cost_kind == "pieces"]
    un = [r for r in recs if r.study == "adaptive_uniform" and r.cost_kind == "pieces"]
    sa, _, _ = fit_linear(np.log([r.n for r in ad]), np.log([r.error for r in ad]))
    su, _, _ = fit_linear(np.log([r.n for r in un]), np.log([r.error for r in un]))
    ratio = [r for r in un if r.n == 256][0].error / [r for r in ad if r.n == 256][0].error
    dt = time.perf_counter() - t0
    ok = ratio >= 5.0 and sa <= -1.5 and su >= -1.3 and dt < 120
    _report(
        8,
        ok,
        f"x^0.6, p=2, mbar=1: error ratio at N=256 {ratio:.1f} (>=5), adaptive slope "
        f"{sa:.2f} (<=-1.5), uniform slope {su:.2f} (>=-1.3), {dt:.0f}s (<120s)",
    )


def test_criterion_09_reinterpolation_bound_shape():
    t0 = time.perf_counter()
    tgt = get_target("exp")
    f = tgt.sampler
    p = 2.0
    w2 = tgt.sobolev_seminorm(2, p)
    w4 = tgt.sobolev_seminorm(4, p)
    mbar, m, b = 3, 1, 2

    def measured(d, dbar):
        s = tensor_interpolate(f, Grid(b, d), Interpolator(mbar), tol=0.0)
        st = reinterpolate(s, dbar, m)
        return lp_error(lambda x: s(x), st, p)

    def bound(d, dbar):
        return b ** (-dbar * (m + 1)) * w2 + b ** (-(dbar - d) * (m + 1) - d * (mbar + 1)) * w4

    C = measured(2, 4) / bound(2, 4)
    worst = 0.0
    for d in (2, 3, 4):
        for dbar in range(d, d + 5):
            worst = max(worst, measured(d, dbar) / (C * bound(d, dbar)))
    dt = time.perf_counter() - t0
    _report(
        9,
        worst <= 3.0 and dt < 60,
        f"exp, mbar=3, m=1: two-term bound with C' fitted at (2,4): worst slack "
        f"{worst:.2f} (<=3) over (d,dbar) in {{2,3,4}}x{{d..d+4}}, {dt:.0f}s (<60s)",
    )


def test_criterion_10_study_determinism(tmp_path):
    args = [
        "study", "sobolev", "--target", "sin2pi", "--m", "1", "--r", "4",
        "--schedule", "3,4,5", "--seed", "4242",
    ]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--csv", str(c1)]) == 0
    assert cli_main(args + ["--csv", str(c2)]) == 0
    rows1 = list(csv.reader(c1.open()))
    rows2 = list(csv.reader(c2.open()))
    i = rows1[0].index("seconds")
    strip = lambda rows: [[c for k, c in enumerate(r) if k != i] for r in rows]
    ok = strip(rows1) == strip(rows2) and len(rows1) > 1
    _report(
        10,
        ok,
        f"cmd_study twice with seed 4242: {len(rows1) - 1} CSV rows identical "
        f"excluding the timing column",
    )
