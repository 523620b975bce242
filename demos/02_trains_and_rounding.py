"""Tensor-train mechanics: evaluation, arithmetic, rounding, ranks, JSON.

Every function in V_{b,d,m} is a chain of b-slice cores plus a polynomial
leaf. Sums are block-diagonal (ranks add), rounding re-compresses, and the
numerical rank profile is read off the orthogonalized unfoldings.
"""

import os
import tempfile

import numpy as np

from ttfun import Grid, add, encode_polynomial, ranks, scale, tt_round
from ttfun.train import dump_json, evaluate, load_json, norm_l2


def main():
    grid = Grid(2, 6)
    rng = np.random.default_rng(1)
    p = encode_polynomial(rng.standard_normal(4), grid)   # random cubic
    q = encode_polynomial([0.0, 1.0, 0.0, 0.0], grid)     # x, padded to the same leaf space

    print("bond dimensions:")
    print("  cubic:", p.bond_dims, " x:", q.bond_dims)

    s = add(p, scale(q, -2.0))
    print("  cubic - 2x (block sum):", s.bond_dims)
    r = tt_round(s, 1e-12)
    print("  after rounding:        ", r.bond_dims)

    xs = np.linspace(0, 0.999, 5)
    print("\nevaluations agree:", np.allclose(evaluate(r, xs), evaluate(s, xs)))
    print("rank profile of the rounded sum:", ranks(r).ranks)
    print("L2 norm:", norm_l2(r))

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.json")
        dump_json(r, path)
        back = load_json(path)
    print("JSON round trip exact:", np.array_equal(evaluate(back, xs), evaluate(r, xs)))


if __name__ == "__main__":
    main()
