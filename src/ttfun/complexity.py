"""Complexity measures of a concrete train and auditors for cost bounds.

cost_N counts rank indices, cost_C counts parameter slots, cost_S counts
nonzero parameters. All three are properties of the representation at
hand; after rounding they upper-bound the minimal cost over all
representations of the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grids import DomainError, Grid
from .train import RankProfile, TensorTrain, _check_tol, tt_round, ranks
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
    0 counts structural zeros only. cost_S reads the cores' entries, so a
    train built from entries is not made dense.
    """
    _check_tol(zero_tol, "zero_tol")
    r = list(tt.bond_dims)
    b = tt.base
    dim = tt.basis.dim
    cost_n = int(sum(r))
    cost_c = _cost_c(b, r, dim)
    nnz = sum(int(np.sum(np.abs(val) > zero_tol)) for _, val in tt._core_entries())
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


def _rec(instance, params, quantity, measured, bound) -> AuditRecord:
    return AuditRecord(instance, dict(params), quantity, float(measured), float(bound), bool(measured <= bound))


def _fixed_knot_rank_bound(b, d, m, c, nu) -> int:
    if c >= m:  # globally polynomial
        return min(m + 1, b**nu)
    return min((m - c) * b ** (d - nu) + (c + 1), b**nu)


# The least value of each audit parameter (N pieces, continuity c >= -1).
_AUDIT_MINIMA = {"b": 2, "d": 0, "dbar": 0, "m": 0, "mbar": 0, "N": 1, "c": -1, "seed": 0}


def audit_bounds(instance: str, **params):
    """Measured-versus-bound records for one named construction.

    Known instances: poly_interpolant, fixed_knot, fixed_knot_interpolant,
    free_knot, free_knot_interpolant, sawtooth. Explicit constants come
    from the proofs; the degree-0 fixed-knot rows carry the cost constants
    (the regime the proof computes), degree-m rows audit the rank bounds.
    """
    for key, low in _AUDIT_MINIMA.items():
        if params.get(key, low) < low:
            raise DomainError(f"{key} must be >= {low}, got {params[key]}")
    rng = np.random.default_rng(int(params.pop("seed", 7)))
    if instance == "poly_interpolant":
        b = params.setdefault("b", 2)
        d = params.setdefault("d", 4)
        mbar = params.setdefault("mbar", 3)
        m = params.setdefault("m", 1)
        coeffs = rng.standard_normal(mbar + 1)
        tt = polynomial_interpolant_train(coeffs, Grid(b, d), m)
        rep = complexity(tt)
        return [
            _rec(instance, params, "cost_N", rep.cost_n, (mbar + 1) * d),
            _rec(
                instance,
                params,
                "cost_C",
                rep.cost_c,
                b * (mbar + 1) ** 2 * d + b * (m + 1),
            ),
            _rec(instance, params, "cost_S<=cost_C", rep.cost_s, rep.cost_c),
        ]

    if instance == "fixed_knot":
        b = params.setdefault("b", 2)
        d = params.setdefault("d", 4)
        m = params.setdefault("m", 0)
        c = params.setdefault("c", -1)
        n_pieces = b**d
        s = random_fixed_knot_spline(rng, b, d, m, c)
        # continuity shows up as roundoff-small singular values; report the
        # rounded representation, not the tol=0 construction
        tt = tt_round(encode_fixed_knot_spline(s), 1e-12)
        rep = complexity(tt)
        rk = ranks(tt)
        out = []
        for nu in range(1, d + 1):
            out.append(
                _rec(
                    instance,
                    params,
                    f"rank_nu_{nu}",
                    rk[nu - 1],
                    _fixed_knot_rank_bound(b, d, m, c, nu),
                )
            )
        profile = [_fixed_knot_rank_bound(b, d, m, c, nu) for nu in range(1, d + 1)]
        out.append(_rec(instance, params, "cost_N(profile)", rep.cost_n, sum(profile)))
        bound_c = _cost_c(b, profile, m + 1)
        out.append(_rec(instance, params, "cost_C(profile)", rep.cost_c, bound_c))
        if m == 0:
            # the proof's explicit constants, valid for the degree-0 profile
            out.append(
                _rec(
                    instance,
                    params,
                    "cost_N",
                    rep.cost_n,
                    2 * b / (b - 1) * math.sqrt(n_pieces),
                )
            )
            out.append(
                _rec(
                    instance,
                    params,
                    "cost_C",
                    rep.cost_c,
                    max(2 * b**2 / (b**2 - 1), m + 1) * n_pieces,
                )
            )
        out.append(_rec(instance, params, "cost_S<=cost_C", rep.cost_s, rep.cost_c))
        return out

    if instance == "free_knot":
        b = params.setdefault("b", 2)
        n_pieces = params.setdefault("N", 3)
        m = params.setdefault("m", 1)
        d = params.setdefault("d", 6)
        s = random_free_knot_spline(rng, b, n_pieces, m, d)
        d_eff = max(s.max_level, 1)
        tt = encode_free_knot_spline(s, depth=d_eff)
        rep = complexity(tt)
        out = [
            _rec(
                instance,
                params,
                "cost_S",
                rep.cost_s,
                4 * b**3 * (m + 1) ** 3 * d_eff**2 * n_pieces,
            )
        ]
        bps = [Fraction(0)] + [Fraction(i, b**lv) for i, lv in s.knots] + [Fraction(1)]
        for k in range(s.piece_count):
            nk = len(badic_cover(bps[k], bps[k + 1], b, d_eff))
            out.append(
                _rec(instance, params, f"subintervals_piece_{k}", nk, 2 * d_eff * (b - 1))
            )
        rk = ranks(tt_round(tt, 1e-12))
        for nu in range(1, d_eff + 1):
            bound = min(b**nu, (m + 1) * b ** (d_eff - nu), m + n_pieces)
            out.append(_rec(instance, params, f"rank_nu_{nu}", rk[nu - 1], bound))
        return out

    if instance == "fixed_knot_interpolant":
        b = params.setdefault("b", 2)
        d = params.setdefault("d", 4)
        mbar = params.setdefault("mbar", 0)
        m = params.setdefault("m", 0)
        c = params.setdefault("c", -1)
        dbar = max(params.setdefault("dbar", d + 3), d)
        n_pieces = b**d
        s = random_fixed_knot_spline(rng, b, d, mbar, c)
        itt = reinterpolate(tt_round(encode_fixed_knot_spline(s), 1e-12), dbar, m)
        rep = complexity(itt)
        rk = ranks(itt)
        out = []
        for nu in range(1, dbar + 1):
            if nu <= d:
                bound = _fixed_knot_rank_bound(b, d, mbar, c, nu)
            else:
                bound = min((m + 1) * b ** (dbar - nu), mbar + 1)
            out.append(_rec(instance, params, f"rank_nu_{nu}", rk[nu - 1], bound))
        if mbar == 0:
            # the proof's explicit constants plus its re-interpolation tail
            out.append(
                _rec(
                    instance,
                    params,
                    "cost_N",
                    rep.cost_n,
                    2 * b / (b - 1) * math.sqrt(n_pieces) + (dbar - d) * (mbar + 1),
                )
            )
            out.append(
                _rec(
                    instance,
                    params,
                    "cost_C",
                    rep.cost_c,
                    max(2 * b**2 / (b**2 - 1), m + 1) * n_pieces
                    + (dbar - d) * b * (mbar + 1) ** 2
                    + b * (m + 1),
                )
            )
        out.append(_rec(instance, params, "cost_S<=cost_C", rep.cost_s, rep.cost_c))
        return out

    if instance == "free_knot_interpolant":
        b = params.setdefault("b", 2)
        n_pieces = params.setdefault("N", 3)
        mbar = params.setdefault("mbar", 2)
        m = params.setdefault("m", 1)
        d = params.setdefault("d", 5)
        dbar = params.setdefault("dbar", 8)
        s = random_free_knot_spline(rng, b, n_pieces, mbar, d)
        d_eff = max(s.max_level, 1)
        dbar = max(dbar, d_eff)
        tt = tt_round(encode_free_knot_spline(s), 1e-12)
        itt = reinterpolate(tt, dbar, m)
        rep = complexity(itt)
        bound_n = (mbar + 1) * d_eff * n_pieces + (dbar - d_eff) * (mbar + n_pieces)
        bound_c = 2 * b * d_eff * (mbar + 1) ** 2 * n_pieces**2 + (dbar - d_eff) * b * (
            mbar + 1
        ) ** 2 + b * (m + 1)
        out = [
            _rec(instance, params, "cost_N", rep.cost_n, bound_n),
            _rec(instance, params, "cost_C", rep.cost_c, bound_c),
        ]
        rk = ranks(itt)
        for nu in range(1, dbar + 1):
            if nu <= d_eff:
                bound = min(b**nu, (mbar + 1) * b ** (d_eff - nu), mbar + n_pieces)
            else:
                bound = min((m + 1) * b ** (dbar - nu), mbar + 1)
            out.append(_rec(instance, params, f"rank_nu_{nu}", rk[nu - 1], bound))
        return out

    if instance == "sawtooth":
        d = params.setdefault("d", 4)
        m = params.setdefault("m", 1)
        tt = encode_sawtooth(Grid(2, d), m)
        rep = complexity(tt)
        return [
            _rec(instance, params, "cost_C", rep.cost_c, 8 * d + 2 * m + 2),
            _rec(instance, params, "cost_N", rep.cost_n, 2 * d),
        ]

    raise DomainError(f"unknown audit instance {instance!r}")


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
