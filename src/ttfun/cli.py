"""Command-line front end: encode, eval, ranks, complexity, audit, study."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, train
from .complexity import audit_bounds, complexity, default_audit_sweep
from .encoders import (
    KnotError,
    PiecewisePolynomial,
    WaveletSpec,
    encode_dilated,
    encode_free_knot_spline,
    encode_polynomial,
    encode_sawtooth,
    haar_mother,
    hat_mother,
)
from .grids import DomainError, Grid, _check_int
from .targets import get_target
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach main's `error:` line, without
    the usage text; subcommand parsers are of the same class."""

    def error(self, message):
        raise CliError(message, EXIT_PARSE)


def _load_train_spec(args) -> train.TensorTrain:
    spec = args.spec
    b, d = args.base, args.depth
    _check_int("--degree", args.degree, 0)
    builtin_depth = {"haar": 1, "hat": 1}.get(spec, 4) if d is None else d
    if spec == "haar":
        return encode_dilated(WaveletSpec(haar_mother(degree=args.degree), 0, 0), builtin_depth)
    if spec == "hat":
        mother = hat_mother(degree=max(args.degree, 1))
        return encode_dilated(WaveletSpec(mother, 0, 0), builtin_depth)
    if spec == "sawtooth":
        return encode_sawtooth(Grid(2, builtin_depth), max(args.degree, 1))
    if spec.startswith("poly:"):
        try:
            coeffs = [float(t) for t in spec[5:].split(",")]
        except ValueError as exc:
            _fail(f"bad polynomial coefficients: {exc}", EXIT_PARSE)
        return encode_polynomial(coeffs, Grid(b, builtin_depth))
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot parse {spec}: {exc}", EXIT_PARSE)
    try:
        pp = PiecewisePolynomial.from_json_dict(doc)
    except KnotError as exc:
        _fail(str(exc), EXIT_KNOT)
    except (TypeError, ValueError) as exc:
        _fail(f"bad spline document: {exc}", EXIT_PARSE)
    return encode_free_knot_spline(pp, depth=d if d is not None else max(pp.max_level, 1))


def cmd_encode(args):
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        tt = _load_train_spec(args)
    if not all(np.all(np.isfinite(a)) for a in (*tt.cores, tt.leaf)):
        _fail("the encoded train has a non-finite entry", EXIT_PARSE)
    rk = ranks(tt)  # DomainError if the train overflows in the sweep
    rep = complexity(tt)
    train.dump_json(tt, args.out)
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
    params = {}
    if args.r is not None:
        params["r"] = args.r
    if args.mbar is not None:
        params["mbar"] = args.mbar
    schedule, flag = (), None
    try:
        p = float(args.p)  # "inf" included
        if args.schedule:
            schedule = tuple(int(t) for t in args.schedule.split(","))
        elif args.dmax is not None:
            schedule = tuple(range(1, args.dmax + 1))
            flag = f"--dmax {args.dmax}"
        elif args.nmax is not None:
            schedule = tuple(n for n in analysis._ANALYTIC_SCHEDULE if n <= args.nmax)
            flag = f"--nmax {args.nmax}"
    except ValueError as exc:
        _fail(f"bad number: {exc}", EXIT_PARSE)
    if flag and not schedule:
        # an empty schedule would read as "use the default" in every study
        _fail(f"{flag} selects no schedule entry", EXIT_PARSE)
    cfg = analysis.StudyConfig(
        target=args.target,
        b=args.base,
        m=args.m,
        p=p,
        schedule=schedule,
        seed=args.seed,
        params=params,
    )
    try:
        get_target(cfg.target)
    except DomainError as exc:
        _fail(str(exc), EXIT_UNKNOWN)
    records = analysis.STUDIES[args.kind](cfg)
    if not records:
        _fail(f"the {args.kind} study records no rows for this schedule", EXIT_PARSE)
    if args.csv:
        analysis.write_csv(records, args.csv)
    if args.json_out:
        analysis.write_json(records, cfg, args.json_out)
    for study, kind, points, axis, slope, r2 in analysis.rate_fits(records):
        print(f"{study}/{kind}: {points} points, log-error vs {axis} "
              f"slope={slope:.3f}, R2={r2:.4f}")
    print(f"recorded {len(records)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="ttfun", description=__doc__)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--tol -1e-3" as "--tol=-1e-3": argparse takes -1e-3 for an option
    # (only forms like -1 and -0.5 read as numbers to it)
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] in ("--tol", "--round", "--zero-tol", "--p") and argv[k][:1] == "-":
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DomainError, train.MismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
