"""Command-line front end: encode, eval, ranks, complexity, audit, study."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import analysis, train
from .complexity import audit_bounds, complexity, default_audit_sweep
from .encoders import (
    KnotError,
    PiecewisePolynomial,
    encode_free_knot_spline,
    encode_sawtooth,
    haar_mother,
    hat_mother,
)
from .grids import DomainError, Grid
from .train import ranks, tt_round

EXIT_PARSE = 2
EXIT_KNOT = 3
EXIT_UNKNOWN = 4


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _fail(message, code):
    raise CliError(message, code)


def _load_train_spec(args) -> train.TensorTrain:
    spec = args.spec
    b, d = args.base, args.depth
    if spec == "haar":
        from .encoders import WaveletSpec, encode_dilated

        return encode_dilated(WaveletSpec(haar_mother(degree=args.degree), 0, 0), d or 1)
    if spec == "hat":
        from .encoders import WaveletSpec, encode_dilated

        return encode_dilated(WaveletSpec(hat_mother(degree=max(args.degree, 1)), 0, 0), d or 1)
    if spec == "sawtooth":
        return encode_sawtooth(Grid(2, d or 4), max(args.degree, 1))
    if spec.startswith("poly:"):
        try:
            coeffs = [float(t) for t in spec[5:].split(",")]
        except ValueError as exc:
            _fail(f"bad polynomial coefficients: {exc}", EXIT_PARSE)
        from .encoders import encode_polynomial

        return encode_polynomial(coeffs, Grid(b, d if d is not None else 4))
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot parse {spec}: {exc}", EXIT_PARSE)
    try:
        pp = PiecewisePolynomial.from_json_dict(doc)
    except KnotError as exc:
        _fail(str(exc), EXIT_KNOT)
    except (KeyError, TypeError, ValueError) as exc:
        _fail(f"bad spline document: {exc}", EXIT_PARSE)
    depth = d if d is not None else max(pp.max_level, 1)
    try:
        return encode_free_knot_spline(pp, depth=depth)
    except KnotError as exc:
        _fail(str(exc), EXIT_KNOT)


def cmd_encode(args):
    tt = _load_train_spec(args)
    doc = train.to_json_dict(tt)
    with open(args.out, "w") as fh:
        json.dump(doc, fh)
    rk = ranks(tt)
    rep = complexity(tt)
    print(f"wrote {args.out}")
    print(f"ranks: {list(rk.ranks)}")
    print(
        f"cost_N={rep.cost_n} cost_C={rep.cost_c} cost_S={rep.cost_s} "
        f"bonds={list(tt.bond_dims)}"
    )
    return 0


def _load_train_file(path) -> train.TensorTrain:
    try:
        return train.load_json(path)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}", EXIT_PARSE)


def cmd_eval(args):
    if not args.x:
        _fail("eval needs at least one point", EXIT_PARSE)
    try:
        xs = [float(t) for t in args.x]
    except ValueError as exc:
        _fail(f"bad point: {exc}", EXIT_PARSE)
    tt = _load_train_file(args.train)
    for x in xs:
        print(f"{x!r}\t{tt(x)!r}")
    return 0


def cmd_ranks(args):
    tt = _load_train_file(args.train)
    rk = ranks(tt, args.tol)
    print(json.dumps({"ranks": list(rk.ranks), "tolerance": rk.tolerance}))
    return 0


def cmd_complexity(args):
    tt = _load_train_file(args.train)
    if args.round is not None:
        tt = tt_round(tt, args.round)
    print(json.dumps(complexity(tt, args.zero_tol).to_json_dict()))
    return 0


def cmd_audit(args):
    if args.instance:
        params = {}
        for key in ("b", "d", "dbar", "m", "mbar", "N", "c", "seed"):
            val = getattr(args, key if key != "N" else "pieces", None)
            if val is not None:
                params[key] = val
        try:
            records = audit_bounds(args.instance, **params)
        except DomainError as exc:
            _fail(str(exc), EXIT_UNKNOWN)
        except KeyError as exc:
            _fail(f"missing parameter {exc} for instance {args.instance}", EXIT_PARSE)
    else:
        records = default_audit_sweep()
    doc = [r.to_json_dict() for r in records]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    n_fail = sum(not r.passed for r in records)
    print(f"audited {len(records)} bounds, {n_fail} violations")
    if n_fail:
        for r in records:
            if not r.passed:
                print(f"FAIL {r.instance} {r.quantity}: {r.measured} > {r.bound}")
        return 1
    return 0


def cmd_study(args):
    if args.kind not in analysis.STUDIES:
        _fail(f"unknown study kind {args.kind!r}", EXIT_UNKNOWN)
    params = {}
    if args.r is not None:
        params["r"] = args.r
    if args.mbar is not None:
        params["mbar"] = args.mbar
    schedule = ()
    if args.schedule:
        schedule = tuple(int(t) for t in args.schedule.split(","))
    elif args.dmax is not None:
        schedule = tuple(range(1, args.dmax + 1))
    elif args.nmax is not None:
        schedule = tuple(
            n
            for n in (
                9, 16, 25, 36, 49, 64, 100, 144, 196,
                216, 343, 512, 729, 1000, 1331, 1728, 2197, 2744, 3000,
            )
            if n <= args.nmax
        )
    cfg = analysis.StudyConfig(
        target=args.target,
        b=args.base,
        m=args.m,
        p=math.inf if args.p == "inf" else float(args.p),
        schedule=schedule,
        seed=args.seed,
        params=params,
    )
    try:
        from .targets import get_target

        get_target(cfg.target)
    except DomainError as exc:
        _fail(str(exc), EXIT_UNKNOWN)
    records = analysis.STUDIES[args.kind](cfg)
    if args.csv:
        analysis.write_csv(records, args.csv)
    if args.json_out:
        analysis.write_json(records, cfg, args.json_out)
    for kind in sorted({r.cost_kind for r in records} - {"pieces"}):
        sub = [r for r in records if r.cost_kind == kind and r.error > 1e-12]
        if len(sub) < 2:
            continue
        if args.kind == "analytic":
            # exponential regime: fit log error against the schedule root
            power = 0.5 if kind == "N" else 1.0 / 3.0
            slope, _, r2 = analysis.fit_linear(
                [r.n**power for r in sub], [math.log(r.error) for r in sub]
            )
            axis = f"n^{power:.2g}"
        else:
            slope, _, r2 = analysis.fit_loglog(
                [r.n for r in sub], [r.error for r in sub], floor=1e-12
            )
            axis = "log n"
        print(
            f"{args.kind}/{kind}: {len(sub)} points, log-error vs {axis} "
            f"slope={slope:.3f}, R2={r2:.4f}"
        )
    print(f"recorded {len(records)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ttfun", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a spline JSON or builtin to a train file")
    enc.add_argument("spec", help="spline JSON path or haar|hat|sawtooth|poly:c0,c1,...")
    enc.add_argument("--base", type=int, default=2)
    enc.add_argument("--depth", type=int, default=None)
    enc.add_argument("--degree", type=int, default=0)
    enc.add_argument("--out", required=True)
    enc.set_defaults(fn=cmd_encode)

    ev = sub.add_parser("eval", help="evaluate a train file at points")
    ev.add_argument("train")
    # REMAINDER, so that a point such as -inf is a value, not an option
    ev.add_argument("x", nargs=argparse.REMAINDER, help="points in [0, 1)")
    ev.set_defaults(fn=cmd_eval)

    rk = sub.add_parser("ranks", help="numerical rank profile of a train file")
    rk.add_argument("train")
    rk.add_argument("--tol", type=float, default=1e-10)
    rk.set_defaults(fn=cmd_ranks)

    cx = sub.add_parser("complexity", help="cost_N / cost_C / cost_S of a train file")
    cx.add_argument("train")
    cx.add_argument("--zero-tol", type=float, default=0.0)
    cx.add_argument("--round", type=float, default=None)
    cx.set_defaults(fn=cmd_complexity)

    au = sub.add_parser("audit", help="complexity-bound audit")
    au.add_argument("--instance", default=None)
    au.add_argument("--b", type=int, default=None)
    au.add_argument("--d", type=int, default=None)
    au.add_argument("--dbar", type=int, default=None)
    au.add_argument("--m", type=int, default=None)
    au.add_argument("--mbar", type=int, default=None)
    au.add_argument("--pieces", type=int, default=None)
    au.add_argument("--c", type=int, default=None)
    au.add_argument("--seed", type=int, default=None)
    au.add_argument("--out", default=None)
    au.set_defaults(fn=cmd_audit)

    st = sub.add_parser("study", help="run a convergence study")
    st.add_argument("kind", choices=sorted(analysis.STUDIES))
    st.add_argument("--target", required=True)
    st.add_argument("--base", type=int, default=2)
    st.add_argument("--m", type=int, default=1)
    st.add_argument("--p", default="2")
    st.add_argument("--r", type=int, default=None)
    st.add_argument("--mbar", type=int, default=None)
    st.add_argument("--schedule", default=None)
    st.add_argument("--dmax", type=int, default=None)
    st.add_argument("--nmax", type=int, default=None)
    st.add_argument("--seed", type=int, default=20250811)
    st.add_argument("--csv", default=None)
    st.add_argument("--json", dest="json_out", default=None)
    st.set_defaults(fn=cmd_study)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DomainError, train.MismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
