import json

import numpy as np
import pytest

from ttfun.basis import PolyBasis
from ttfun.complexity import audit_bounds, complexity, default_audit_sweep
from ttfun.encoders import encode_polynomial, encode_sawtooth
from ttfun.grids import DomainError, Grid
from ttfun.train import TensorTrain, add, scale


def test_rank_one_constant_costs():
    # b=2, d=3, m=0, all bonds 1: cost_N = 3, cost_C = 2+2+2+1 = 7
    grid = Grid(2, 3)
    tt = TensorTrain(grid, [np.ones((2, 1, 1))] * 3, np.ones((1, 1)), PolyBasis(0))
    rep = complexity(tt)
    assert rep.cost_n == 3
    assert rep.cost_c == 7
    assert rep.cost_s == 7
    assert rep.ranks.ranks == (1, 1, 1)


def test_chain_inequalities():
    rng = np.random.default_rng(0)
    for d, deg in ((3, 2), (5, 4), (6, 1)):
        tt = encode_polynomial(rng.standard_normal(deg + 1), Grid(2, d))
        rep = complexity(tt)
        assert rep.cost_s <= rep.cost_c
        assert rep.cost_n <= rep.cost_c


def test_zero_tol_counts():
    tt = encode_sawtooth(Grid(2, 3), 1, basis_kind="monomial")
    strict = complexity(tt, 0.0)
    loose = complexity(tt, 10.0)  # everything counts as zero
    assert loose.cost_s == 0
    assert strict.cost_s > 0
    with pytest.raises(DomainError):
        complexity(tt, -1.0)


def test_sawtooth_cost_bound():
    for d in range(1, 11):
        for m in (1, 2, 3):
            rep = complexity(encode_sawtooth(Grid(2, d), m))
            assert rep.cost_c <= 8 * d + 2 * m + 2
            assert rep.cost_n == 2 * d


def test_subadditivity_witness():
    rng = np.random.default_rng(1)
    a = encode_polynomial(rng.standard_normal(3), Grid(2, 4))
    b = encode_sawtooth(Grid(2, 4), 2)
    assert complexity(add(a, b)).cost_n <= complexity(a).cost_n + complexity(b).cost_n


def test_audit_single_instances():
    recs = audit_bounds("poly_interpolant", b=2, d=5, mbar=3, m=1)
    assert recs and all(r.passed for r in recs)
    recs = audit_bounds("fixed_knot", b=3, d=3, m=0, c=-1)
    names = {r.quantity for r in recs}
    assert {"cost_N", "cost_C"} <= names
    assert all(r.passed for r in recs)
    recs = audit_bounds("free_knot", b=2, N=3, m=1, d=6)
    assert all(r.passed for r in recs)
    recs = audit_bounds("sawtooth", d=7, m=1)
    assert all(r.passed for r in recs)


# the default params of each audit instance, in the order its records carry them
_AUDIT_DEFAULTS = {
    "poly_interpolant": {"b": 2, "d": 4, "mbar": 3, "m": 1},
    "fixed_knot": {"b": 2, "d": 4, "m": 0, "c": -1},
    "fixed_knot_interpolant": {"b": 2, "d": 4, "mbar": 0, "m": 0, "c": -1, "dbar": 7},
    "free_knot": {"b": 2, "N": 3, "m": 1, "d": 6},
    "free_knot_interpolant": {"b": 2, "N": 3, "mbar": 2, "m": 1, "d": 5, "dbar": 8},
    "sawtooth": {"d": 4, "m": 1},
}


@pytest.mark.parametrize("instance", sorted(_AUDIT_DEFAULTS))
def test_audit_records_its_default_params_in_order(instance):
    recs = audit_bounds(instance)
    assert recs and all(r.passed for r in recs)
    want = list(_AUDIT_DEFAULTS[instance].items())
    assert all(list(r.params.items()) == want for r in recs)


def test_fixed_knot_interpolant_dbar_defaults_to_d_plus_3_before_the_max():
    recs = audit_bounds("fixed_knot_interpolant", d=3)
    want = [("d", 3), ("b", 2), ("mbar", 0), ("m", 0), ("c", -1), ("dbar", 6)]
    assert all(list(r.params.items()) == want for r in recs)
    assert sum(r.quantity.startswith("rank_nu_") for r in recs) == 6
    # a dbar below d is recorded as given and re-interpolates to depth d
    recs = audit_bounds("fixed_knot_interpolant", d=3, dbar=1)
    assert all(r.params["dbar"] == 1 for r in recs)
    assert sum(r.quantity.startswith("rank_nu_") for r in recs) == 3


def test_audit_unknown_instance():
    with pytest.raises(DomainError):
        audit_bounds("nonsense")


@pytest.mark.parametrize("params", [{"d": 2.5}, {"m": 1.5}, {"d": 3.0}, {"seed": None}])
def test_audit_rejects_a_non_integer_parameter(params):
    # d=2.5 and m=1.5 used to end in a TypeError inside the auditor
    (key, val), = params.items()
    with pytest.raises(DomainError, match=f"{key} {val!r} is not an integer"):
        audit_bounds("sawtooth", **params)
    recs = audit_bounds("sawtooth", d=np.int64(3), m=np.int32(1))
    assert json.loads(json.dumps([r.to_json_dict() for r in recs]))[0]["params"] == {"d": 3, "m": 1}


def test_audit_records_serialize():
    recs = audit_bounds("sawtooth", d=3, m=1)
    doc = json.dumps([r.to_json_dict() for r in recs])
    parsed = json.loads(doc)
    assert parsed[0]["instance"] == "sawtooth"
    assert set(parsed[0]) == {"instance", "params", "quantity", "measured", "bound", "pass"}


def test_default_sweep_passes():
    recs = default_audit_sweep()
    assert len(recs) >= 400
    bad = [r for r in recs if not r.passed]
    assert bad == []
