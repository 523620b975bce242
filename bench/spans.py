"""Span tracing from outside the library.

A Tracer replaces chosen ttfun functions, at every module binding that
holds them, with wrappers that record one span per call: name, start, end,
parent span and the job that caused it. Spans stay in memory until the
benchmark writes them out. Counters hooked to a wrapper turn a call's
arguments and result into per-pass counts (points evaluated, bond
dimensions, pieces, audit bounds).

Nothing is patched until `install`, and `restore` puts every original back,
so untraced passes run the library exactly as shipped. While `paused` is
set the wrappers only call through, so output checks and jobs that are not
part of a workload's layers leave no spans and no counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import sys
import time
from collections import defaultdict

import numpy as np
from ttfun.complexity import complexity as _complexity


def _eval_counts(res, args, kwargs):
    tt, x = args[0], args[1]
    n = np.size(x)
    bonds = (1,) + tuple(tt.bond_dims)
    per_point = sum(2 * bonds[k] * bonds[k + 1] for k in range(len(bonds) - 1))
    per_point += 2 * bonds[-1] * tt.basis.dim
    return {
        "points": n,
        "flops": n * per_point,
        "digit_mb": n * tt.depth * 8 / 1e6,
    }


def _points_count(res, args, kwargs):
    return {"points": np.size(args[0])}


def _round_counts(res, args, kwargs):
    return {"out_max_bond": max(res.bond_dims, default=1)}


def _freeknot_counts(res, args, kwargs):
    rep = _complexity(res)
    return {
        "cost_c": rep.cost_c,
        "cost_s": rep.cost_s,
        "max_bond": max(res.bond_dims, default=1),
        "mb_computed": rep.cost_c * 8 / 1e6,
    }


def _greedy_counts(res, args, kwargs):
    pp = res[0] if isinstance(res, tuple) else res
    return {"pieces": pp.piece_count}


def _audit_counts(res, args, kwargs):
    return {"bounds": len(res), "violations": sum(not r.passed for r in res)}


# Counters whose per-pass value is a maximum, not a sum.
MAX_COUNTERS = {"train.tt_round.out_max_bond", "encoders.encode_free_knot_spline.max_bond"}

# (span name, module, attribute, counter, counter prefix); an attribute with a
# dot names a method on a class of that module.
TRACED = (
    ("grids.encode_points", "ttfun.grids", "encode_points", _points_count, None),
    ("basis.eval", "ttfun.basis", "PolyBasis.eval", None, None),
    ("train.evaluate", "ttfun.train", "evaluate", _eval_counts, None),
    ("train.leaf_values", "ttfun.train", "TensorTrain.leaf_values", None, None),
    ("train.block_sum", "ttfun.train", "block_sum", None, None),
    ("train.tt_round", "ttfun.train", "tt_round", _round_counts, None),
    ("train.ranks", "ttfun.train", "ranks", None, None),
    ("train.to_json_dict", "ttfun.train", "to_json_dict", None, None),
    ("train.from_json_dict", "ttfun.train", "from_json_dict", None, None),
    ("encoders.encode_free_knot_spline", "ttfun.encoders", "encode_free_knot_spline",
     _freeknot_counts, None),
    ("analysis.greedy_badic_knots", "ttfun.analysis", "greedy_badic_knots", _greedy_counts, None),
    ("analysis.lp_error", "ttfun.analysis", "lp_error", None, None),
    ("analysis.study_sobolev", "ttfun.analysis", "study_sobolev", None, None),
    ("analysis.study_analytic", "ttfun.analysis", "study_analytic", None, None),
    ("analysis.study_adaptive", "ttfun.analysis", "study_adaptive", None, None),
    ("analysis.study_sawtooth", "ttfun.analysis", "study_sawtooth", None, None),
    ("interpolation.tensor_interpolate", "ttfun.interpolation", "tensor_interpolate", None, None),
    ("interpolation.reinterpolate", "ttfun.interpolation", "reinterpolate", None, None),
    ("interpolation.polynomial_interpolant_train", "ttfun.interpolation",
     "polynomial_interpolant_train", None, None),
    ("interpolation.chebyshev_truncate", "ttfun.interpolation", "chebyshev_truncate", None, None),
    ("complexity.complexity", "ttfun.complexity", "complexity", None, None),
    ("complexity.default_audit_sweep", "ttfun.complexity", "default_audit_sweep",
     _audit_counts, "complexity.audit"),
    ("cli.main", "ttfun.cli", "main", None, None),
)


class Tracer:
    """Wraps library functions; holds spans and per-pass counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job, pass]
        self.counters = defaultdict(float)  # (pass, metric) -> value
        self.job = ""
        self.pass_no = -1
        self.paused = False
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def pause(self):
        saved, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = saved

    def wrap(self, name, fn, counter=None, prefix=None):
        prefix = prefix or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent, self.job, self.pass_no]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, val in counter(res, args, kwargs).items():
                    self._count(f"{prefix}.{key}", val)
            return res

        return traced

    def _count(self, metric, val):
        key = (self.pass_no, metric)
        if metric in MAX_COUNTERS:
            self.counters[key] = max(self.counters.get(key, 0), val)
        else:
            self.counters[key] += val

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_item(self, table, key, new):
        self._patches.append((table, key, table[key]))
        table[key] = new

    def install(self):
        """Patch every binding of each traced function in loaded ttfun modules:
        module globals, and entries of module-level dicts such as
        `analysis.STUDIES`, through which the CLI dispatches."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "ttfun" or n.startswith("ttfun.")]
        for name, modname, attr, counter, prefix in TRACED:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(name, getattr(cls, meth), counter, prefix))
                continue
            orig = getattr(mod, attr)
            self._patch_bindings(modules, orig, self.wrap(name, orig, counter, prefix))
        # get_target hands out samplers wrapped as `targets.sampler`
        orig_get_target = sys.modules["ttfun.targets"].get_target

        def get_target(name):
            t = orig_get_target(name)
            return dataclasses.replace(t, sampler=self.wrap("targets.sampler", t.sampler))

        self._patch_bindings(modules, orig_get_target, get_target)

    def _patch_bindings(self, modules, orig, new):
        for m in modules:
            for key, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, key, new)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is orig:
                            self._patch_item(val, k, new)

    def restore(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def pass_summary(self, pass_no):
        """Per-function calls and self seconds, plus counters, for one pass."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[5] == pass_no]
        child_time = defaultdict(float)
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i, s in spans:
            out[f"{s[0]}.calls"] += 1
            out[f"{s[0]}.s"] += (s[2] - s[1]) - child_time[i]
        for (p, metric), val in self.counters.items():
            if p == pass_no:
                out[metric] = val
        return dict(out)

    def span_records(self):
        return [
            {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "job": s[4], "pass": s[5]}
            for s in self.spans
        ]
