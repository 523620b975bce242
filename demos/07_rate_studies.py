"""The four convergence studies, with their fitted rates.

Writes CSVs next to this script when run directly. The recorded cost is
that of each construction's own representation, so the curves reproduce
the predicted regimes: algebraic in cost for the re-interpolation
construction, exponential in a root of cost for the spectral one, the
adaptive rate for graded knots, and constant-zero error at linear cost
for the sawtooth family.
"""

import pathlib

import numpy as np

from ttfun.analysis import (
    StudyConfig, fit_linear, rate_fits, study_analytic, study_sawtooth, study_sobolev, write_csv,
)

OUT = pathlib.Path(__file__).resolve().parent


def main():
    cfg = StudyConfig(target="sin2pi", b=2, m=1, p=2.0, schedule=tuple(range(3, 11)), params={"r": 4})
    recs = study_sobolev(cfg)
    write_csv(recs, OUT / "study_sobolev.csv")
    for kind, target_slope in (("C", -4.0), ("N", -8.0)):
        rows = [r for r in recs if r.cost_kind == kind][4:]
        slope, _, r2 = fit_linear(np.log2([r.n for r in rows]), np.log2([r.error for r in rows]))
        print(f"sobolev sin(2 pi x) r=4, cost_{kind}: slope {slope:.2f} (target {target_slope})")

    cfg = StudyConfig(target="inv_xplus2", b=2, m=1)
    recs = study_analytic(cfg)
    write_csv(recs, OUT / "study_analytic.csv")
    for _, kind, _, axis, slope, r2 in rate_fits(recs):
        print(f"analytic 1/(x+2), cost_{kind}: log err vs {axis} slope {slope:.2f}, R2 {r2:.3f}")

    cfg = StudyConfig(target="sawtooth", b=2, m=1, schedule=tuple(range(1, 11)))
    recs = study_sawtooth(cfg)
    write_csv(recs, OUT / "study_sawtooth.csv")
    cs = [r for r in recs if r.cost_kind == "C"]
    print(f"sawtooth: cost_C grows {cs[0].n} -> {cs[-1].n} over d=1..10 "
          f"(linear), max error {max(r.error for r in cs):.1e}")


if __name__ == "__main__":
    main()
