"""Complexity measures of a concrete train and auditors for cost bounds.

cost_N counts rank indices, cost_C counts parameter slots, cost_S counts
nonzero parameters. All three are properties of the representation at
hand; after rounding they upper-bound the minimal cost over all
representations of the same function.

The audit is one table, _AUDITS: per instance, one auditor, which builds a
random member of the family and returns (quantity, measured, bound) rows,
and the default parameters. The bounds come from the constructions of arXiv
2007.00128: the rank profiles of fixed-knot and free-knot splines and of
the levels that re-interpolation appends, the costs of a profile (_cost_c),
the proof's explicit degree-0 constants, the free-knot cover's 2 d (b - 1)
cells per piece, and the closed forms of the polynomial interpolant and of
the sawtooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import DomainError, Grid, _check_int, _check_tol
from .train import RankProfile, TensorTrain, tt_round, ranks
from .encoders import (
    badic_cover,
    encode_fixed_knot_spline,
    encode_free_knot_spline,
    encode_sawtooth,
    random_fixed_knot_spline,
    random_free_knot_spline,
)
from .interpolation import polynomial_interpolant_train, reinterpolate


@dataclass(frozen=True)
class ComplexityReport:
    """cost_N, cost_C, cost_S of one representation plus its bond profile."""

    cost_n: int
    cost_c: int
    cost_s: int
    ranks: RankProfile

    def to_json_dict(self) -> dict:
        return {
            "cost_N": self.cost_n,
            "cost_C": self.cost_c,
            "cost_S": self.cost_s,
            "ranks": list(self.ranks.ranks),
        }


def _cost_c(b: int, bonds, dim: int) -> int:
    """Parameter slots of a train with bond profile bonds over a leaf of dim
    coefficients: b r_1 + b sum r_{k-1} r_k + r_d dim."""
    if not bonds:
        return dim
    inner = sum(bonds[k - 1] * bonds[k] for k in range(1, len(bonds)))
    return b * bonds[0] + b * inner + bonds[-1] * dim


def complexity(tt: TensorTrain, zero_tol: float = 0.0) -> ComplexityReport:
    """Exact complexity formulas applied to the stored cores.

    Entries with |entry| <= zero_tol count as zero for cost_S; the default
    0 counts structural zeros only. cost_S reads the train's store, never
    its dense cores.
    """
    _check_tol(zero_tol, "zero_tol")
    r = list(tt.bond_dims)
    b = tt.base
    dim = tt.basis.dim
    cost_n = int(sum(r))
    cost_c = _cost_c(b, r, dim)
    nnz = sum(int(np.sum(np.abs(val) > zero_tol)) for _, val in tt._entries)
    nnz += int(np.sum(np.abs(tt.leaf) > zero_tol))
    return ComplexityReport(cost_n, int(cost_c), int(nnz), RankProfile(tuple(r), 0.0))


@dataclass(frozen=True)
class AuditRecord:
    instance: str
    params: dict
    quantity: str
    measured: float
    bound: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "params": self.params,
            "quantity": self.quantity,
            "measured": self.measured,
            "bound": self.bound,
            "pass": self.passed,
        }


def _fixed_knot_profile(b, d, m, c) -> list:
    """Rank bounds at levels 1..d of a degree-m spline of continuity c (c >= m: one polynomial)."""
    top = lambda nu: m + 1 if c >= m else (m - c) * b ** (d - nu) + (c + 1)
    return [min(top(nu), b**nu) for nu in range(1, d + 1)]


def _free_knot_profile(b, d, m, n_pieces) -> list:
    """Rank bounds at levels 1..d of a degree-m spline of n_pieces b-adic pieces."""
    return [min(b**nu, (m + 1) * b ** (d - nu), m + n_pieces) for nu in range(1, d + 1)]


def _reinterpolation_tail(b, d, dbar, m, mbar) -> list:
    """Rank bounds of a degree-mbar train at the levels d+1..dbar that reinterpolate adds."""
    return [min((m + 1) * b ** (dbar - nu), mbar + 1) for nu in range(d + 1, dbar + 1)]


def _rank_rows(tt, bounds) -> list:
    """One rank_nu_<nu> row per level of tt against its bound."""
    levels = zip(ranks(tt), bounds, strict=True)
    return [(f"rank_nu_{nu}", r, bound) for nu, (r, bound) in enumerate(levels, 1)]


def _degree0_bounds(b, n_pieces, m):
    """The proof's explicit cost_N and cost_C bounds for degree 0 on n_pieces cells."""
    return 2 * b / (b - 1) * math.sqrt(n_pieces), max(2 * b**2 / (b**2 - 1), m + 1) * n_pieces


def _audit_poly_interpolant(rng, b, d, mbar, m):
    tt = polynomial_interpolant_train(rng.standard_normal(mbar + 1), Grid(b, d), m)
    rep = complexity(tt)
    return [
        ("cost_N", rep.cost_n, (mbar + 1) * d),
        ("cost_C", rep.cost_c, b * (mbar + 1) ** 2 * d + b * (m + 1)),
        ("cost_S<=cost_C", rep.cost_s, rep.cost_c),
    ]


def _audit_fixed_knot(rng, b, d, m, c):
    s = random_fixed_knot_spline(rng, b, d, m, c)
    # continuity shows up as roundoff-small singular values; audit the
    # rounded representation, not the tol=0 construction
    tt = tt_round(encode_fixed_knot_spline(s), 1e-12)
    rep = complexity(tt)
    profile = _fixed_knot_profile(b, d, m, c)
    rows = _rank_rows(tt, profile) + [
        ("cost_N(profile)", rep.cost_n, sum(profile)),
        ("cost_C(profile)", rep.cost_c, _cost_c(b, profile, m + 1)),
    ]
    if m == 0:
        bound_n, bound_c = _degree0_bounds(b, b**d, m)
        rows += [("cost_N", rep.cost_n, bound_n), ("cost_C", rep.cost_c, bound_c)]
    return rows + [("cost_S<=cost_C", rep.cost_s, rep.cost_c)]


def _audit_fixed_knot_interpolant(rng, b, d, mbar, m, c, dbar):
    dbar = max(dbar, d)
    s = random_fixed_knot_spline(rng, b, d, mbar, c)
    itt = reinterpolate(tt_round(encode_fixed_knot_spline(s), 1e-12), dbar, m)
    rep = complexity(itt)
    bounds = _fixed_knot_profile(b, d, mbar, c) + _reinterpolation_tail(b, d, dbar, m, mbar)
    rows = _rank_rows(itt, bounds)
    if mbar == 0:
        # the degree-0 constants plus the re-interpolation tail
        bound_n, bound_c = _degree0_bounds(b, b**d, m)
        rows += [
            ("cost_N", rep.cost_n, bound_n + (dbar - d) * (mbar + 1)),
            ("cost_C", rep.cost_c, bound_c + (dbar - d) * b * (mbar + 1) ** 2 + b * (m + 1)),
        ]
    return rows + [("cost_S<=cost_C", rep.cost_s, rep.cost_c)]


def _audit_free_knot(rng, b, N, m, d):
    s = random_free_knot_spline(rng, b, N, m, d)
    d_eff = max(s.max_level, 1)
    tt = encode_free_knot_spline(s, depth=d_eff)
    bps = [Fraction(0)] + [Fraction(i, b**lv) for i, lv in s.knots] + [Fraction(1)]
    rows = [("cost_S", complexity(tt).cost_s, 4 * b**3 * (m + 1) ** 3 * d_eff**2 * N)]
    rows += [
        (f"subintervals_piece_{k}", len(badic_cover(lo, hi, b, d_eff)), 2 * d_eff * (b - 1))
        for k, (lo, hi) in enumerate(zip(bps, bps[1:]))
    ]
    return rows + _rank_rows(tt_round(tt, 1e-12), _free_knot_profile(b, d_eff, m, N))


def _audit_free_knot_interpolant(rng, b, N, mbar, m, d, dbar):
    s = random_free_knot_spline(rng, b, N, mbar, d)
    d_eff = max(s.max_level, 1)
    dbar = max(dbar, d_eff)
    itt = reinterpolate(tt_round(encode_free_knot_spline(s), 1e-12), dbar, m)
    rep = complexity(itt)
    tail_c = (dbar - d_eff) * b * (mbar + 1) ** 2 + b * (m + 1)
    bounds = _free_knot_profile(b, d_eff, mbar, N) + _reinterpolation_tail(b, d_eff, dbar, m, mbar)
    return [
        ("cost_N", rep.cost_n, (mbar + 1) * d_eff * N + (dbar - d_eff) * (mbar + N)),
        ("cost_C", rep.cost_c, 2 * b * d_eff * (mbar + 1) ** 2 * N**2 + tail_c),
    ] + _rank_rows(itt, bounds)


def _audit_sawtooth(rng, d, m):
    rep = complexity(encode_sawtooth(Grid(2, d), m))
    return [("cost_C", rep.cost_c, 8 * d + 2 * m + 2), ("cost_N", rep.cost_n, 2 * d)]


# Each instance's auditor and its defaults, in the order a record's params gain
# the ones not given; a callable default reads the params set before it.
_AUDITS = {
    "poly_interpolant": (_audit_poly_interpolant, {"b": 2, "d": 4, "mbar": 3, "m": 1}),
    "fixed_knot": (_audit_fixed_knot, {"b": 2, "d": 4, "m": 0, "c": -1}),
    "fixed_knot_interpolant": (
        _audit_fixed_knot_interpolant,
        {"b": 2, "d": 4, "mbar": 0, "m": 0, "c": -1, "dbar": lambda p: p["d"] + 3},
    ),
    "free_knot": (_audit_free_knot, {"b": 2, "N": 3, "m": 1, "d": 6}),
    "free_knot_interpolant": (
        _audit_free_knot_interpolant,
        {"b": 2, "N": 3, "mbar": 2, "m": 1, "d": 5, "dbar": 8},
    ),
    "sawtooth": (_audit_sawtooth, {"d": 4, "m": 1}),
}

# The least value of each audit parameter (N pieces, continuity c >= -1).
_AUDIT_MINIMA = {"b": 2, "d": 0, "dbar": 0, "m": 0, "mbar": 0, "N": 1, "c": -1, "seed": 0}


def audit_bounds(instance: str, **params):
    """Measured-versus-bound records for one instance of _AUDITS; the
    parameters not given take the instance's defaults, and every record
    carries the full params."""
    for key, low in _AUDIT_MINIMA.items():
        if key in params:  # int(): a numpy integer too, so that records serialize
            params[key] = int(_check_int(key, params[key], low))
    rng = np.random.default_rng(int(params.pop("seed", 7)))
    if instance not in _AUDITS:
        raise DomainError(f"unknown audit instance {instance!r}")
    auditor, defaults = _AUDITS[instance]
    for key, default in defaults.items():
        params.setdefault(key, default(params) if callable(default) else default)
    rows = auditor(rng, **{key: params[key] for key in defaults})
    return [
        AuditRecord(instance, dict(params), quantity, float(x), float(bound), bool(x <= bound))
        for quantity, x, bound in rows
    ]


def default_audit_sweep():
    """The acceptance sweep: b in {2,3}, d <= 8, degrees <= 3, N <= 64."""
    records = []
    for b in (2, 3):
        for mbar in (1, 2, 3, 4):
            for m in sorted({1, min(mbar, 3)}):
                for d in (2, 4, 6, 8):
                    records += audit_bounds(
                        "poly_interpolant", b=b, d=d, mbar=mbar, m=m, seed=d * 10 + mbar
                    )
        dmax = {2: 6, 3: 3}[b]  # keeps N = b^d <= 64
        for d in range(1, dmax + 1):
            records += audit_bounds("fixed_knot", b=b, d=d, m=0, c=-1, seed=d)
        for m in (1, 2, 3):
            for c in sorted({-1, 0, m - 1}):
                records += audit_bounds(
                    "fixed_knot", b=b, d=dmax, m=m, c=c, seed=17 + m
                )
        for d in range(1, dmax + 1):
            records += audit_bounds(
                "fixed_knot_interpolant", b=b, d=d, mbar=0, m=0, c=-1,
                dbar=d + 3, seed=d,
            )
        for mbar, m, c in ((2, 1, -1), (3, 1, 0), (3, 2, 2)):
            records += audit_bounds(
                "fixed_knot_interpolant", b=b, d=dmax, mbar=mbar, m=m, c=c,
                dbar=dmax + 3, seed=29 + mbar,
            )
        for m in (0, 1, 2, 3):
            for n_pieces in (2, 4, 8):
                records += audit_bounds(
                    "free_knot", b=b, N=n_pieces, m=m, d=8 if b == 2 else 4,
                    seed=m * 10 + n_pieces,
                )
        for mbar, m in ((2, 1), (3, 1), (3, 2)):
            records += audit_bounds(
                "free_knot_interpolant",
                b=b,
                N=3,
                mbar=mbar,
                m=m,
                d=5 if b == 2 else 3,
                dbar=8 if b == 2 else 5,
                seed=mbar,
            )
    for d in range(1, 11):
        records += audit_bounds("sawtooth", d=d, m=1)
        records += audit_bounds("sawtooth", d=d, m=3)
    return records
