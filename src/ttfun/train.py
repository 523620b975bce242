"""Tensor trains with a polynomial leaf: evaluation, arithmetic, rounding.

A train over Grid(b, d) stores d discrete cores, core nu having shape
(b, r_{nu-1}, r_nu) with r_0 = 1, plus a leaf matrix (r_d, m+1) of
coefficients over a PolyBasis. The represented function is the contraction
of the core chain at the digits of x with the leaf basis at the remainder.

evaluate sweeps chunks of at most _CHUNK points (_sweep_chunk) left to
right as each digit becomes known, so no digit matrix is built and the
working set stays in cache: up to the largest level l with b^l <= n, the n
points of a chunk share a table of one state per digit prefix; each later
level advances v <- v C_nu[i_nu] for every point. Chunks never meet, so an
input of several chunks is swept on a process-wide thread pool, one worker
per CPU the process may run on, with the bits of the serial sweep; one
chunk runs on the caller's thread, and so does every chunk of a call made
on a pool worker (analysis.lp_error maps its cell blocks on the same pool,
and its sampler may evaluate a train). A single point (an input of size 1,
whatever its shape) skips the sweep: its digits come from the same rule in
Python floats, and it reads the state of its first l digits from a
prefix-state table that the train builds on its first single-point call and
keeps (_point_tables: the chunk sweep's table, grown while it holds at most
8 _CHUNK entries, so at most 512 KiB). A 1-D state then takes one
vector-matrix product per later level, on each core's slices listed once,
with no per-level array dispatch.

L2 quantities use the exact Gram matrix of the leaf basis together with the
tensorization isometry: the function norm equals b^(-d/2) times the
Frobenius norm of the train once the leaf is Gram-weighted.

Every train keeps its cores in one store, their entries: per core, the flat
indices and values written, indices None for every entry in order (a dense
core). A block sum of localized trains (a free-knot spline, an n-term
wavelet sum, add) has block-diagonal cores that are almost all zeros, and
its producers write only their entries (TensorTrain._from_entries). No
producer reads dense cores: block_sum, scale, deepen and _extended (the
re-labels under a new leaf) map stores to stores. The dense cores are
written on first read, where dense arithmetic runs (evaluate, dot_l2, the
right sweep when nothing merges, JSON); the merge and cost_S read the store.

One right sweep, _right_orthogonalize, is behind tt_round, ranks,
singular_values, norm_l2 and both orthogonalize directions; the truncated
SVD sweep _svd_sweep runs after it in all but norm_l2 and the right
orthogonalize. It and the dense TT-SVD train_from_leaf_coefficients run one
truncation step, _split, with its guard. On a train with r_1 > b the right
sweep opens with one exact pass, the interface merge (_merge_entries),
which folds bond indices that carry the same function: forward, equal
columns of a core merge and the matching rows of the next core are summed;
backward, equal rows merge and the matching columns of the previous core
are summed. It reads the store, so rounding a block sum costs about one
pass over its nonzeros and never writes its dense cores; a free-knot spline
of degree m < b comes out with bond <= b^nu at every level. A train with
r_1 <= b, every rounded train among them, skips it.
"""

from __future__ import annotations

import json
import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial import legendre as _leg

from .basis import PolyBasis
from .grids import DomainError, Grid, _check_int, _check_tol, _digit_steps, _point_digits

_FULL_GRID_CAP = 2**20
# Most points per evaluation chunk, so that the sweep's working set stays in
# cache. Chunks are of equal size: a one-point tail would take the BLAS
# vector kernel, which rounds differently from the matrix kernel.
_CHUNK = 8192


class MismatchError(ValueError):
    """Raised when two trains disagree on grid or basis."""


@dataclass(frozen=True)
class RankProfile:
    """Numerical ranks (r_1, ..., r_d) of the level unfoldings."""

    ranks: tuple
    tolerance: float

    def __iter__(self):
        return iter(self.ranks)

    def __getitem__(self, i):
        return self.ranks[i]

    def __len__(self):
        return len(self.ranks)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


_cores_lock = threading.Lock()  # writes the dense cores of trains built from entries


class TensorTrain:
    """Immutable TT representation of a function in V_{b,d,m}.

    The cores live in one store, _entries: per core, (flat indices, values)
    in index order, indices None for every entry in order. Dense cores are
    stored as (None, their values); the free-knot encoder and block_sum
    write only their entries (_from_entries), whose dense arrays cores
    writes on first read. The first single-point evaluate stores the
    train's _point_tables beside its cores."""

    def __init__(self, grid: Grid, cores, leaf, basis: PolyBasis):
        cores = tuple(_frozen(c) for c in cores)
        self._init(grid, [c.shape for c in cores], leaf, basis)
        self._cores, self._entries = cores, [(None, c.ravel()) for c in cores]

    @classmethod
    def _from_entries(cls, grid: Grid, shapes, entries, leaf, basis: PolyBasis):
        """The train whose core nu has shape shapes[nu] and, at the distinct
        flat indices entries[nu][0], the values entries[nu][1] (zero
        elsewhere); indices None mean every entry in order, and such values
        are kept without a copy."""
        tt = cls.__new__(cls)
        tt._init(grid, [tuple(s) for s in shapes], leaf, basis)
        tt._cores, tt._entries = None, []
        for flat, val in entries:
            val = np.asarray(val, dtype=float)
            if flat is not None:
                order = np.argsort(flat, kind="stable")
                flat, val = flat[order], val[order]
            tt._entries.append((flat, val))
        return tt

    def _init(self, grid, shapes, leaf, basis):
        if len(shapes) != grid.depth:
            raise MismatchError(f"expected {grid.depth} cores, got {len(shapes)}")
        r = 1
        for nu, s in enumerate(shapes, start=1):
            if len(s) != 3 or s[0] != grid.base:
                raise MismatchError(f"core {nu} has shape {s}, want (b, r, r')")
            if s[1] != r:
                raise MismatchError(f"core {nu} left rank {s[1]} != {r}")
            r = s[2]
        leaf = _frozen(leaf)
        if leaf.ndim != 2 or leaf.shape != (r, basis.dim):
            raise MismatchError(f"leaf shape {leaf.shape}, want ({r}, {basis.dim})")
        self.grid, self._shapes, self.leaf, self.basis = grid, tuple(shapes), leaf, basis

    @property
    def cores(self) -> tuple:
        """The read-only dense cores; a train built from entries writes them
        on first read (under a lock, so concurrent readers share one write).
        A core given as every entry in order is a reshape of its values."""
        if self._cores is None:
            with _cores_lock:
                if self._cores is None:
                    out = []
                    for shape, (flat, val) in zip(self._shapes, self._entries):
                        a = val
                        if flat is not None:
                            a = np.zeros(math.prod(shape))
                            a[flat] = val
                        out.append(_frozen(a.reshape(shape)))
                    self._cores = tuple(out)
        return self._cores

    # -- structure ---------------------------------------------------------
    @property
    def depth(self) -> int:
        return self.grid.depth

    @property
    def base(self) -> int:
        return self.grid.base

    @property
    def bond_dims(self) -> tuple:
        """Representation ranks (r_1, ..., r_d) of the stored cores."""
        return tuple(s[2] for s in self._shapes)

    def __repr__(self):
        return (
            f"TensorTrain(b={self.base}, d={self.depth}, "
            f"basis={self.basis.kind}/{self.basis.degree}, bonds={self.bond_dims})"
        )

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        return evaluate(self, x)

    def leaf_coefficients(self, max_cells: int = _FULL_GRID_CAP) -> np.ndarray:
        """Dense (b^d, m+1) matrix of per-leaf basis coefficients."""
        if self.grid.leaf_count > max_cells:
            raise DomainError(
                f"{self.grid.leaf_count} leaves exceed the dense cap {max_cells}"
            )
        return _extend_states(np.ones((1, 1)), self.cores) @ self.leaf

    def leaf_values(self, ys, max_cells: int = _FULL_GRID_CAP) -> np.ndarray:
        """Values f(b^-d (j + y)) on the full leaf grid: shape (b^d, len(ys))."""
        coeff = self.leaf_coefficients(max_cells=max_cells)
        return coeff @ self.basis.eval(np.asarray(ys, dtype=float)).T


def _extend_states(V: np.ndarray, cores) -> np.ndarray:
    """The states of every digit string of cores after each row of V: row
    j*b + i of a level is row j extended by digit i, so the first digit is
    the most significant."""
    for c in cores:
        V = np.einsum("ar,irs->ais", V, c).reshape(-1, c.shape[2])
    return V


def evaluate(tt: TensorTrain, x):
    """Evaluate the represented function at x (scalar or array) in [0, 1).

    A single point (x.size == 1, whatever its shape) takes its digits in
    Python floats, reads the state of its first l digits from the train's
    prefix-state table (row sum_nu i_nu b^(nu-1), see _point_tables) and
    advances that 1-D state by one vector-matrix product per later level:
    d - l + 2 products with the leaf and basis. More points are split into
    chunks of at most _CHUNK points, and _sweep_chunk writes each chunk's
    slice of the result (a prefix-state table for the leading levels, then
    a per-point sweep); several chunks run on the shared worker pool, with
    the bits of a serial sweep.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size == 1:
        digits, y = _point_digits(arr.item(), tt.grid)
        try:
            ell, table, slices = tt._point_tables
        except AttributeError:  # the train's first single-point call
            # concurrent first calls may each build equal tables; setdefault
            # keeps the first one stored, so every call reads that one
            ell, table, slices = vars(tt).setdefault("_point_tables", _point_tables(tt))
        row, b = 0, tt.base
        for i in reversed(digits[:ell]):
            row = row * b + i
        v = table[row]
        for s, i in zip(slices, digits[ell:]):
            v = v.dot(s[i])
        val = float(v.dot(tt.leaf).dot(tt.basis.eval(y)))
        return val if arr.ndim == 0 else np.full(arr.shape, val)
    chunks = np.array_split(arr.ravel(), max(1, -(-arr.size // _CHUNK)))
    vals = np.empty(arr.size)
    outs = np.array_split(vals, len(chunks))  # chunk k fills outs[k]
    # reading every result re-raises a chunk's DomainError, first chunk first
    list(_chunk_map(len(chunks))(_sweep_chunk, repeat(tt), chunks, outs))
    return float(vals[0]) if arr.ndim == 0 else vals.reshape(arr.shape)


def _point_tables(tt: TensorTrain):
    """(l, table, slices) of the single-point route of tt: the prefix-state
    table of _sweep_chunk (row sum_nu i_nu b^(nu-1) holds the state after
    digits i_1..i_l), extended by a level while the next table holds at
    most 8 _CHUNK entries (b^l r_l of them at level l), and each later core
    as the list of its b slices. Reads cores without holding a lock, since
    cores takes _cores_lock itself."""
    cores, table, ell = tt.cores, np.ones((1, 1)), 0
    while ell < tt.depth and tt.base * len(table) * cores[ell].shape[2] <= 8 * _CHUNK:
        table = np.matmul(table, cores[ell]).reshape(-1, cores[ell].shape[2])
        ell += 1
    table.setflags(write=False)
    return ell, table, [list(c) for c in cores[ell:]]


def _sweep_chunk(tt: TensorTrain, t: np.ndarray, out: np.ndarray):
    """Write the values of tt at the points t of one chunk into out.

    Levels 1..l (b^l <= n = t.size, l <= d) run over digit prefixes: a
    table of the b^nu prefix states grows by one product per level, and
    each point accumulates its row sum_nu i_nu b^(nu-1). Each later level
    advances every point's state v <- v C_nu[i_nu]. The table keeps the
    per-point association, so its rows carry the per-point bits wherever
    BLAS rounds a row alike at any row count and position. t is left
    untouched; each level's arrays are freed before the next level's are
    made, so a pool worker's heap holds one level's working set."""
    t, n = t.copy(), t.size  # t becomes the remainders
    steps = _digit_steps(t, tt.grid)
    # row i * P + p of the next table is prefix p (of P) extended by digit i
    table, prefix, ell = np.ones((1, 1)), np.zeros(n, dtype=np.int64), 0
    while ell < tt.depth and tt.base * len(table) <= n:
        prefix += len(table) * next(steps)
        table = np.matmul(table, tt.cores[ell]).reshape(-1, tt.cores[ell].shape[2])
        ell += 1
    v = table.take(prefix, axis=0)
    rows = np.arange(n)
    for nu, i in enumerate(steps, start=ell):
        w = np.matmul(v, tt.cores[nu])  # v C_nu[s] for every digit s
        del v
        i *= n  # in place: i becomes the row i * n + p of point p in w
        i += rows
        v = w.reshape(-1, w.shape[2]).take(i, axis=0)
        del w
    np.einsum("nr,rq,nq->n", v, tt.leaf, tt.basis.eval(t), out=out)


# The worker pool that evaluate and analysis.lp_error share across calls and
# threads: one worker per CPU in the process's affinity mask, created by the
# first call that spans more than one chunk on a machine with more than one
# CPU. Its threads' names begin with _POOL_NAME.
_pool = None
_pool_lock = threading.Lock()
_POOL_NAME = "ttfun-evaluate"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _chunk_map(n_chunks: int):
    """The map to run n_chunks independent chunks with: the built-in map, on
    the caller's thread, for one chunk, one CPU or a caller that is itself a
    pool worker (a sampler of lp_error that evaluates a train, say, which
    would otherwise wait on the pool it occupies); else the shared pool's
    map, which also yields in input order."""
    global _pool
    if n_chunks == 1 or _cpu_count() == 1:
        return map
    if threading.current_thread().name.startswith(_POOL_NAME):
        return map
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_cpu_count(), thread_name_prefix=_POOL_NAME)
    return _pool.map


def _drop_pool():
    """After fork: the child inherits the pool object but none of its worker
    threads, so it starts over without one, and with fresh locks."""
    global _pool, _pool_lock, _cores_lock
    _pool, _pool_lock, _cores_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def zero_train(grid: Grid, basis: PolyBasis) -> TensorTrain:
    """The zero function as a bond-dimension-1 train."""
    cores = [np.ones((grid.base, 1, 1)) for _ in range(grid.depth)]
    return TensorTrain(grid, cores, np.zeros((1, basis.dim)), basis)


def _check_compatible(a: TensorTrain, b: TensorTrain):
    if a.grid != b.grid:
        raise MismatchError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.basis != b.basis:
        raise MismatchError(f"basis mismatch: {a.basis} vs {b.basis}")


def add(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Pointwise sum via the block-diagonal core construction."""
    return block_sum((a, b))


def block_sum(trains) -> TensorTrain:
    """Sum of many trains in one block-diagonal pass (same result as
    folding with add, without the quadratic rebuilds)."""
    trains = list(trains)
    if not trains:
        raise MismatchError("empty train list")
    first = trains[0]
    for t in trains[1:]:
        _check_compatible(first, t)
    if len(trains) == 1:
        return first
    if first.depth == 0:
        leaf = np.sum([t.leaf for t in trains], axis=0)
        return TensorTrain(first.grid, [], leaf, first.basis)
    # each train's entries at its block's offsets; level 1 has one row
    entries = [t._entries for t in trains]
    shapes, out = [], []
    for nu in range(first.depth):
        parts = [(e[nu], t._shapes[nu]) for e, t in zip(entries, trains)]
        r1 = 1 if nu == 0 else sum(s[1] for _, s in parts)
        r2 = sum(s[2] for _, s in parts)
        flats, o1, o2 = [], 0, 0
        for (flat, val), (_, r, c) in parts:
            flat = np.arange(val.size) if flat is None else flat
            i, row = np.divmod(flat // c, r)
            flats.append((i * r1 + o1 + row) * r2 + o2 + flat % c)
            o1, o2 = o1 + (r if nu else 0), o2 + c
        shapes.append((first.base, r1, r2))
        out.append((np.concatenate(flats), np.concatenate([v for (_, v), _ in parts])))
    leaf = np.concatenate([t.leaf for t in trains], axis=0)
    return TensorTrain._from_entries(first.grid, shapes, out, leaf, first.basis)


def scale(a: TensorTrain, c: float) -> TensorTrain:
    """Pointwise scaling of core 1's stored values; ranks unchanged.
    DomainError for a non-finite c or a scaled core that overflows."""
    if not math.isfinite(c):
        raise DomainError(f"scale factor must be finite, got {c}")
    with np.errstate(over="ignore"):  # _finite reports it
        if a.depth == 0:
            return TensorTrain(a.grid, [], _finite(c * a.leaf), a.basis)
        (flat, val), *rest = a._entries
        first = (flat, _finite(c * val))
    return TensorTrain._from_entries(a.grid, a._shapes, [first, *rest], a.leaf, a.basis)


# -- orthogonalization / rounding / ranks ----------------------------------


def _lq(M: np.ndarray):
    """M = L @ Q with Q having orthonormal rows."""
    Q, R = np.linalg.qr(M.T)
    return R.T, Q.T


# The sweeps below rebind slots of a list of a train's read-only cores and
# never write into a core, so the cores are not copied.


def _finite(a: np.ndarray, what: str = "train") -> np.ndarray:
    """a itself; DomainError naming what if a sweep or a norm met a non-finite
    entry or overflowed (LAPACK would otherwise fail or return a wrong spectrum)."""
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} has a non-finite entry or overflows float64")
    return a


def _merge_segments(ent, n_pos, n_seg, digits) -> bool:
    """The forward half of _merge_entries, over arrays k = 0, 1, ... of a
    chain: ent[k] = [pos, seg, val] lists the nonzero entries of array k,
    whose segments seg < n_seg[k] are the bond indices to the next array,
    and pos = i * n_pos[k] + the index to the previous one, for digit
    i < digits[k]. Equal segments of array k (after its other index was
    merged) merge into the first of them, and the next array's entries on
    the merged indices are relabeled (so summed); the last array keeps its
    segments. Updates ent, n_pos and n_seg in place and tells whether
    anything merged. Duplicate entries are kept, not summed: a segment
    that holds one may miss a merge, never make a wrong one."""
    merged = False
    for k in range(len(ent) - 1):
        pos, seg, val = ent[k]
        n = n_seg[k]
        order = (seg * (digits[k] * n_pos[k]) + pos).argsort(kind="stable")
        pos, seg, val = pos[order], seg[order], val[order]
        # sorted segments are equal exactly when their bytes are
        raw = np.empty((pos.size, 2), dtype=np.int64)
        raw[:, 0], raw[:, 1] = pos, val.view(np.int64)
        raw = raw.tobytes()
        seen, label, reps, lo = {}, [], [], 0
        for s, count in enumerate(np.bincount(seg, minlength=n).tolist()):
            hi = lo + 16 * count
            label.append(seen.setdefault(raw[lo:hi], len(seen)))
            if label[-1] == len(reps):  # the first segment of its kind
                reps.append(s)
            lo = hi
        if len(reps) == n:
            continue
        label = np.array(label)
        keep = np.zeros(n, dtype=bool)
        keep[reps] = True
        kept = keep[seg]
        ent[k][:] = [pos[kept], label[seg[kept]], val[kept]]
        i, other = np.divmod(ent[k + 1][0], n)
        ent[k + 1][0] = i * len(seen) + label[other]
        n_seg[k] = n_pos[k + 1] = len(seen)
        merged = True
    return merged


def _merge_entries(tt: TensorTrain, leaf):
    """Merge the bond indices of tt (with leaf for its own) that carry
    identical interfaces; exact. None when nothing merges.

    Forward, level by level: indices whose columns in core nu are equal
    (after its rows were merged) carry the same function of digits 1..nu;
    one column stays and the matching rows of core nu+1 (or of the leaf)
    are summed. Backward, the same on the reversed chain: indices whose
    rows in core nu+1 (or the leaf) are equal (after its columns were
    merged) carry the same function of the later digits and the leaf
    variable; one row stays and the matching columns of core nu are
    summed. Runs over the nonzero entries of tt's store, so a train built
    from entries is merged without writing its dense cores. Zero
    values are dropped, so the merged arrays have the same bits whether tt
    holds its cores dense or as entries."""
    shapes = [*tt._shapes, (1, *leaf.shape)]  # the leaf as a core with one digit
    digits, rows, cols = (list(n) for n in zip(*shapes))
    ent = []
    for (flat, val), c in zip([*tt._entries, (None, leaf.ravel())], cols):
        nz = val != 0
        flat = nz.nonzero()[0] if flat is None else flat[nz]
        ent.append([*np.divmod(flat, c), val[nz]])
    merged = _merge_segments(ent, rows, cols, digits)
    for e, r, c in zip(ent, rows, cols):  # segments become the rows
        i, row = np.divmod(e[0], r)
        e[:2] = [i * c + e[1], row]
    cols, rows = cols[::-1], rows[::-1]
    merged |= _merge_segments(ent[::-1], cols, rows, digits[::-1])
    if not merged:
        return None
    out = []
    for (pos, row, val), b, r, c in zip(ent, digits, rows[::-1], cols[::-1]):
        a = np.zeros((b, r, c))
        i, col = np.divmod(pos, c)
        np.add.at(a, (i, row, col), val)
        out.append(a)
    return out[:-1], out[-1][0]


def _right_orthogonalize(tt: TensorTrain, leaf):
    """Row-orthonormalize leaf (tt's own or a weighted copy) and cores 2..d
    of tt; weight collects in core 1, and so does a non-finite entry or an
    overflow anywhere. On a train with r_1 > b the interface merge
    (_merge_entries) first folds the bond indices that carry the same
    function, so the LQ sweep runs at the merged bonds, and a train built
    from entries writes its dense cores only when nothing merges."""
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports them
        merged = _merge_entries(tt, leaf) if tt.bond_dims[0] > tt.base else None
        cores, leaf = merged or (list(tt.cores), leaf)
        carry, leaf = _lq(leaf)
        for nu in range(len(cores) - 1, 0, -1):
            c = cores[nu] @ carry
            b, r1, r2 = c.shape
            carry, Q = _lq(c.transpose(1, 0, 2).reshape(r1, b * r2))
            cores[nu] = Q.reshape(Q.shape[0], b, r2).transpose(1, 0, 2)
        cores[0] = _finite(cores[0] @ carry)
    return cores, leaf


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, summed relative to its largest entry, so that no
    square overflows or underflows (np.linalg.norm squares unscaled)."""
    top = float(np.max(np.abs(a), initial=0.0))
    return top * float(np.linalg.norm(a / top)) if top > 0.0 else 0.0


def _kept_rank(S: np.ndarray, budget) -> int:
    """The truncation rule: drop the longest tail of S whose norm is at most
    budget, keeping at least one value (exact zeros go even at budget 0);
    budget None keeps every direction. The tail is summed relative to the
    largest value, as in _norm."""
    keep = S.size
    if budget is None:
        return keep
    top = float(S.max(initial=0.0)) or 1.0
    tail = 0.0
    while keep > 1:
        t = tail + (S[keep - 1] / top) ** 2
        if top * math.sqrt(t) > budget:
            break
        tail = t
        keep -= 1
    return keep


def _split(X: np.ndarray, b: int, budget):
    """The truncation step of both TT-SVD sweeps: the SVD of X (r, b n) as
    (r b, n), cut by _kept_rank, gives the core (b, r, k), the carry (k, n)
    and the spectrum; DomainError for a non-finite X or S or a failed SVD."""
    try:
        U, S, Vt = np.linalg.svd(_finite(X).reshape(len(X) * b, -1), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"the truncation SVD failed: {exc}") from None
    k = _kept_rank(_finite(S), budget)
    return U[:, :k].reshape(len(X), b, k).transpose(1, 0, 2), S[:k, None] * Vt[:k], S


def _weighted_leaf(tt: TensorTrain) -> np.ndarray:
    """The Gram-weighted leaf leaf @ L, where L L^T is the basis Gram
    matrix; DomainError if it is not finite or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports them
        return _finite(tt.leaf @ tt.basis.gram_cholesky())


def _unweighted(leaf: np.ndarray, gram_L: np.ndarray) -> np.ndarray:
    """Undo the Gram weighting leaf @ gram_L. gram_L.T is upper triangular
    with a positive diagonal, so LU pivots on the diagonal without a row
    swap and ends in the back substitution of a triangular solve."""
    return np.linalg.solve(gram_L.T, leaf.T).T


def _svd_sweep(tt: TensorTrain, tol=None):
    """The one truncated-SVD sweep (TT-rounding, Oseledets 2011, Alg. 2).

    Gram-weights the leaf, right-orthogonalizes (_right_orthogonalize),
    then runs the SVD of every level unfolding from left to right,
    truncating each with a tail budget of tol * ||f|| / sqrt(d) (tol None
    keeps every direction). Returns the column-orthonormal cores, the
    Gram-weighted leaf (see _unweighted) and the full spectrum of every
    level. Requires depth >= 1.
    """
    cores, leaf = _right_orthogonalize(tt, _weighted_leaf(tt))
    budget = None if tol is None else tol * _norm(cores[0]) / math.sqrt(tt.depth)
    spectra, carry = [], np.ones((1, 1))
    for nu, c in enumerate(cores):
        X = (carry @ c).transpose(1, 0, 2).reshape(len(carry), -1)
        cores[nu], carry, S = _split(X, tt.base, budget)
        spectra.append(S)
    return cores, carry @ leaf, spectra


def orthogonalize(tt: TensorTrain, direction: str = "right") -> TensorTrain:
    """Return an equivalent train with orthonormal core unfoldings.

    direction="right": leaf and cores 2..d get orthonormal rows (weight in
    core 1); direction="left": cores get orthonormal columns (weight in the
    leaf), through the untruncated SVD sweep. Evaluations are unchanged up
    to roundoff.
    """
    if direction not in ("left", "right"):
        raise DomainError(f"direction must be 'left' or 'right', got {direction!r}")
    if tt.depth == 0:
        return tt
    if direction == "right":
        cores, leaf = _right_orthogonalize(tt, tt.leaf)
    else:
        cores, leaf, _ = _svd_sweep(tt)
        leaf = _unweighted(leaf, tt.basis.gram_cholesky())
    return TensorTrain(tt.grid, cores, leaf, tt.basis)


def norm_l2(tt: TensorTrain) -> float:
    """Exact L2([0,1)) norm of the represented function, from the right
    sweep alone, whose cost follows the bonds left by the interface merge."""
    weighted = _weighted_leaf(tt)
    if tt.depth == 0:
        return _norm(weighted)
    cores, _ = _right_orthogonalize(tt, weighted)  # the norm collects in core 1
    return _norm(cores[0]) * tt.base ** (-tt.depth / 2.0)


def _scaled_matmul(A: np.ndarray, B: np.ndarray):
    """(A @ B * 2^-e, e) with the largest |entry| in [0.5, 1); e = 0 if the
    product is zero or not finite. Exact unless an entry becomes subnormal."""
    P = A @ B
    top = float(np.max(np.abs(P), initial=0.0))
    if top == 0.0 or not math.isfinite(top):
        return P, 0
    e = math.frexp(top)[1]
    return np.ldexp(P, -e), e


def dot_l2(a: TensorTrain, b: TensorTrain) -> float:
    """L2 inner product <a, b> over [0, 1).

    Every product of the transfer is rescaled by a power of two, and the
    exponents are summed in k, so no intermediate overflows: a result in
    the float range comes out with the bits of the unscaled products, and
    one beyond it raises DomainError.
    """
    _check_compatible(a, b)
    E, k = np.ones((1, 1)), 0
    with np.errstate(over="ignore", invalid="ignore"):  # _finite reports them
        for ca, cb in zip(a.cores, b.cores):
            # per-digit transfer E <- sum_i ca[i]^T E cb[i], as one stacked product
            n, r1, r2 = ca.shape
            X, e1 = _scaled_matmul(E, cb)
            E, e2 = _scaled_matmul(ca.reshape(n * r1, r2).T, X.reshape(n * r1, -1))
            k += e1 + e2
        P, e1 = _scaled_matmul(a.leaf.T, E)
        P, e2 = _scaled_matmul(P, b.leaf)
        s = float(_finite(np.sum(P * a.basis.gram()) * a.base ** (-a.depth)))
    try:
        return math.ldexp(s, k + e1 + e2)
    except OverflowError:
        raise DomainError("the inner product overflows float64") from None


def singular_values(tt: TensorTrain):
    """Singular values of every level unfolding of the represented function.

    Entry nu-1 holds the spectrum of the unfolding separating digits 1..nu
    from the rest. The leaf enters through the basis Gram matrix, so these
    are singular values of the function, not of raw coefficient arrays.
    """
    if tt.depth == 0:
        return []
    return _svd_sweep(tt)[2]


def ranks(tt: TensorTrain, tol: float = 1e-10) -> RankProfile:
    """Numerical ranks of the level unfoldings after orthogonalization.

    Per unfolding, singular values below tol times its largest singular
    value are discarded. tol must be >= 0 (DomainError otherwise, NaN too).
    """
    _check_tol(tol)
    out = []
    for S in singular_values(tt):
        smax = S[0] if S.size else 0.0
        out.append(0 if smax == 0.0 else int(np.sum(S > tol * smax)))
    return RankProfile(tuple(out), tol)


def tt_round(tt: TensorTrain, tol: float) -> TensorTrain:
    """SVD truncation sweep: ||result - tt||_2 <= tol * ||tt||_2 (L2 norm).

    Ranks never increase; tol = 0 still removes exactly redundant
    directions (zero singular values).
    """
    _check_tol(tol)
    if tt.depth == 0:
        return tt
    cores, leaf, spectra = _svd_sweep(tt, tol)
    if not spectra[0].any():  # the level-1 spectrum carries all of ||f||
        return zero_train(tt.grid, tt.basis)
    return TensorTrain(tt.grid, cores, _unweighted(leaf, tt.basis.gram_cholesky()), tt.basis)


def train_from_leaf_coefficients(
    coeff: np.ndarray, grid: Grid, basis: PolyBasis, tol: float = 0.0
) -> TensorTrain:
    """TT-SVD (Oseledets 2011, Alg. 1) of a dense (b^d, m+1) coefficient matrix.

    The dense counterpart of the rounding sweep, with its step (_split)
    and Gram weighting: tol is relative to the L2 norm of the represented
    function; tol = 0 keeps everything except exact zero directions,
    reproducing the dimension-bound rank profile.
    """
    coeff = np.asarray(coeff, dtype=float)
    if coeff.shape != (grid.leaf_count, basis.dim):
        raise DomainError(f"coefficient matrix shape {coeff.shape} does not match grid/basis")
    _check_tol(tol)
    d = grid.depth
    if d == 0:
        return TensorTrain(grid, [], _finite(coeff), basis)
    gram_L = basis.gram_cholesky()
    with np.errstate(over="ignore", invalid="ignore"):  # _split reports them
        X = (coeff @ gram_L).reshape(1, -1)
        budget = tol * _norm(X) / math.sqrt(d)
    cores = [None] * d
    for nu in range(d):
        cores[nu], X, _ = _split(X, grid.base, budget)
    return TensorTrain(grid, cores, _unweighted(X, gram_L), basis)


def deepen(tt: TensorTrain, extra: int) -> TensorTrain:
    """Re-express the same function at depth d + extra (exact).

    Works because the polynomial leaf space is closed under b-adic
    dilation: each appended core dilates leaf coefficients onto the b
    children of a leaf. This is the only place that appends dilation cores.
    On a depth-0 train (a single polynomial) it builds the whole chain:
    encode_polynomial's monomial chain, and below its cell, every piece of
    a free-knot spline.
    """
    if _check_int("extra", extra, 0) == 0:
        return tt
    A = dilation_cores(tt.basis, tt.base)
    appended = [np.einsum("rq,iqp->irp", tt.leaf, A)] + [A] * (extra - 1)
    return _extended(tt, np.eye(tt.basis.dim), tt.basis, appended)


def _extended(tt: TensorTrain, leaf, basis: PolyBasis, appended=()) -> TensorTrain:
    """tt's stored entries as they are, then the dense cores appended, under
    a new leaf and basis; nothing is copied or made dense."""
    entries = [*tt._entries, *((None, a.ravel()) for a in appended)]
    shapes = [*tt._shapes, *(a.shape for a in appended)]
    grid = Grid(tt.base, tt.depth + len(appended))
    return TensorTrain._from_entries(grid, shapes, entries, leaf, basis)


_FITS = {"chebyshev": (_cheb.chebfit, _cheb.chebval), "legendre": (_leg.legfit, _leg.legval)}
_VANDERS = {"chebyshev": _cheb.chebvander, "legendre": _leg.legvander}


def _fit_nodes(n: int) -> np.ndarray:
    """The n Chebyshev points of [0, 1] that fit_coefficients samples at."""
    return 0.5 * (1.0 - np.cos(np.pi * (np.arange(n) + 0.5) / n))


def fit_coefficients(f, basis: PolyBasis, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Coefficients in an orthogonal basis of f on [lo, hi) rescaled to [0, 1).

    Interpolates at the m+1 Chebyshev points of the subinterval, so it is
    exact for polynomials of degree <= m; the fit happens in the basis
    itself, which keeps it well conditioned at any degree. A sampler that
    returns shape (m+1, k) is fitted column by column: shape (m+1, k).
    """
    fit, _ = _FITS[basis.kind]
    nodes = _fit_nodes(basis.dim)
    xs = lo + (hi - lo) * nodes
    return fit(2.0 * nodes - 1.0, f(xs), basis.degree)


@lru_cache(maxsize=None)
def dilation_cores(basis: PolyBasis, base: int) -> np.ndarray:
    """Coefficient dilation tensor A (read-only, cached): A[i] maps a
    polynomial on a leaf to the same polynomial on child i of that leaf,
    in basis coordinates.

    Monomial coordinates use the exact binomial table C(q,r) i^(q-r) b^-q;
    the orthogonal bases fit every basis function on every child, so no
    ill-conditioned change of coordinates enters at high degree. Each fit
    is fit_coefficients' (numpy's least-squares fit) with its scaled
    Vandermonde matrix built once: one lstsq per basis function and child,
    as a multi-column lstsq would round differently.
    """
    n = basis.dim
    A = np.zeros((base, n, n))
    if basis.kind == "monomial":
        for i in range(base):
            for q in range(n):
                for r in range(q + 1):
                    A[i, q, r] = math.comb(q, r) * float(i) ** (q - r) * float(base) ** (-q)
    else:
        _, val = _FITS[basis.kind]
        # the steps of numpy.polynomial.polyutils._fit (chebfit, legfit) with
        # w = None and rcond = None: the transposed Vandermonde lhs, its row
        # norms scl with zeros set to 1, rcond = len(x) * eps, lstsq on
        # lhs.T / scl, and the solution divided by scl
        nodes = _fit_nodes(n)
        lhs = _VANDERS[basis.kind](2.0 * nodes - 1.0, basis.degree).T
        scl = np.sqrt(np.square(lhs).sum(1))
        scl[scl == 0] = 1
        lhs = lhs.T / scl
        rcond = n * np.finfo(float).eps
        for i in range(base):
            lo, hi = i / base, (i + 1) / base
            vals = val(2.0 * (lo + (hi - lo) * nodes) - 1.0, np.eye(n))  # row q: function q
            for q in range(n):
                A[i, q] = np.linalg.lstsq(lhs, vals[q], rcond)[0] / scl
    A.setflags(write=False)
    return A


# -- serialization ----------------------------------------------------------


def to_json_dict(tt: TensorTrain) -> dict:
    return {
        "format": "ttfun-train",
        "version": 1,
        "base": tt.base,
        "depth": tt.depth,
        "basis": {"kind": tt.basis.kind, "degree": tt.basis.degree},
        "core_shapes": [list(c.shape) for c in tt.cores],
        "cores": [c.ravel().tolist() for c in tt.cores],
        "leaf": tt.leaf.tolist(),
    }


def _finite_array(value, what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} is not a numeric array: {exc}") from None
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} has non-finite entries")
    return arr


def from_json_dict(doc: dict) -> TensorTrain:
    """Inverse of to_json_dict. A malformed document (missing key, core that
    does not fill its shape, non-finite entry) raises DomainError or
    MismatchError; the checks live here, at the file boundary, not in
    TensorTrain, which the encoders build many times per call."""
    if not isinstance(doc, dict) or doc.get("format") != "ttfun-train":
        raise DomainError("not a ttfun train document")
    try:
        grid = Grid(int(doc["base"]), int(doc["depth"]))
        basis = PolyBasis(int(doc["basis"]["degree"]), doc["basis"]["kind"])
        flats, shapes = list(doc["cores"]), list(doc["core_shapes"])
        leaf = doc["leaf"]
    except KeyError as exc:
        raise DomainError(f"train document lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"bad train document: {exc}") from None
    if len(flats) != len(shapes):
        raise MismatchError(f"{len(flats)} cores but {len(shapes)} core shapes")
    cores = []
    for nu, (flat, shape) in enumerate(zip(flats, shapes), start=1):
        c = _finite_array(flat, f"core {nu}")
        try:
            dims = tuple(operator.index(n) for n in shape)
            c = c.reshape(dims)
        except (TypeError, ValueError):
            dims = None
        if c.shape != dims:
            raise MismatchError(f"core {nu}: {c.size} entries do not fill shape {shape}")
        cores.append(c)
    return TensorTrain(grid, cores, _finite_array(leaf, "leaf"), basis)


def dump_json(tt: TensorTrain, path):
    with open(path, "w") as fh:
        json.dump(to_json_dict(tt), fh)


def load_json(path) -> TensorTrain:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise DomainError(f"cannot parse {path}: {exc}") from None
    return from_json_dict(doc)
