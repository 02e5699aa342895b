"""Reproducible finite-box realizations of LRP, SFP, GIRG and edge-cost maps.

Every edge indicator is a deterministic function of (seed, {u, v}) via the
counter-based uniforms in `rng`, so two parameterizations sampled with the
same seed share their uniforms edge by edge.  That is what makes the
couplings in `couplings` exact rather than merely distributional.

A pair is decided one way: the hash state of its lower vertex, finished
with its higher one (`uniforms_from_states`), gives a uniform, and the pair
is an edge iff that falls below `_pair_probs`: the kernel of
(w_x^alpha * w_y^alpha) * lam |x - y|^(-alpha d), as in `connection_prob`.
LRP and SFP pairs read the second factor per lattice offset from the one
table `_offset_rates`, whose inf at distance 1 is the nearest-neighbour
grid: probability 1, above every uniform.  GIRG pairs call `connection_prob`.
Three walks apply it, and the box's dimension alone picks the eager one:

- the slab scan (`_slab_scan`), with which `sample_graph` decides all
  n(n-1)/2 pairs of a box of d >= 2, lattice or GIRG.  Row-major order
  cuts the box into slabs along axis 0; a block pairs contiguous slab
  slices, whose vertex ids and states broadcast against each other, and
  reads its pairs' offset ids from one small table per axis-0 offset.
  One worker per CPU the process may use pulls blocks from one shared
  iterator, and the blocks' edges are joined in block order, so the
  scan's result does not depend on the CPUs;
- the block scan (`_scan` over `_pair_blocks`), with which `sample_graph`
  decides all pairs of a 1-d box, whose slabs would be single vertices;
- the lazy rows of `LazyRealization`, which decide a pair only when a
  search asks for it, as the hop estimators do: a k-hop search sees about
  |B(k-1)| * n pairs, not n^2 / 2.

All three get their probabilities from `_pair_probs`, so a lazily sampled
realization is the scanned one, bit for bit, wherever it is observed.
CFFP cost rows read slices of the cost stream's vertex states and a window of
that table, mirrored, at lam = 1 without the grid.

Graphs and cost maps store one form of pairs, made once at construction by
`_canonical_pairs` from whatever they are given: (lo, hi) rows, lo < hi, sorted
and unique (`SampledGraph.edge_array`, `CostMap.pair_array` with its costs in
that order as `cost_array`).  Costs, searches, couplings and the text format
read these; the frozenset `SampledGraph.edges` and the dict `CostMap.costs`
are views, built only when read.

`BoxSpec` holds the lattice's one layout: vertex i is the point origin +
`coords[:, i]`, in row-major order.  `index` gives the vertex of lattice
coordinates, `offset_index` the vertex id of the offset between two
vertices, and `offset_dist2` each offset's squared length, by that id.
The offset rates of every walk and of the CFFP rows, the blow-up map and
its bins all read these.
"""

from __future__ import annotations

import io
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BudgetError, DomainError, integers, reals
from .kernels import (KernelVariant, ModelParams, apply_kernel, connection_prob,
                      distance_rate, pareto_quantile)
from .rng import (
    COST_STREAM,
    absorb_indices,
    edge_uniform,
    edge_uniforms,
    position_uniforms,
    seed_state,
    stream_seed,
    uniforms_from_states,
    vertex_uniform,
    vertex_uniforms,
)

__all__ = [
    "Model",
    "RateModel",
    "BoxSpec",
    "SampledGraph",
    "CostMap",
    "CffpRealization",
    "LazyRealization",
    "DEFAULT_SPARSE_BUDGET",
    "DEFAULT_COMPLETE_BUDGET",
    "edge_uniform",
    "edge_uniforms",
    "vertex_uniform",
    "sample_weights",
    "sample_graph",
    "sample_fpp_costs",
    "sample_cffp_costs",
    "save_graph",
    "load_graph",
]

DEFAULT_SPARSE_BUDGET = 200_000
DEFAULT_COMPLETE_BUDGET = 4_000
# When set, its integer value replaces both vertex budgets, read at each check.
BUDGET_ENV = "PERCOLATE_BUDGET_VERTICES"
# CFFP cost rows are fetched in batches of about this many pairs.
_ROW_BATCH_PAIRS = 16384
# A capped cost row keeps uniforms up to cap * rate * (1 + this): far above the
# few ulps by which the log, the divide and the product can round.
_SCREEN_MARGIN = 2.0**-40


class Model(str, Enum):
    LRP = "lrp"
    SFP = "sfp"
    GIRG = "girg"


class RateModel(str, Enum):
    UNIT_RATE = "unit"
    CFFP_RATE = "cffp"


@dataclass(frozen=True)
class BoxSpec:
    """A finite observation window: the lattice box origin + {0..side-1}^d."""

    d: int
    side: int
    origin: tuple[int, ...] | None = None

    def __post_init__(self):
        # Python ints: a fractional origin would not survive the text format
        d, side = integers("d", self.d, 1), integers("side", self.side, 1)
        origin = integers("origin", (0,) * d if self.origin is None else self.origin, None)
        if np.shape(origin) != (d,):
            raise DomainError(f"origin must be d = {d} integers, got {self.origin!r}")
        for name, value in (("d", d), ("side", side), ("origin", tuple(origin.tolist()))):
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self) -> int:
        return self.side**self.d

    @cached_property
    def coords(self) -> np.ndarray:
        """(d, n) int array of the vertices' lattice coordinates, origin aside:
        column i holds vertex i, in row-major order.  Read-only, as it is shared."""
        coords = np.stack(np.unravel_index(np.arange(self.n_vertices), (self.side,) * self.d))
        coords.setflags(write=False)
        return coords

    def index(self, coords) -> np.ndarray:
        """The vertex ids of lattice coordinates (d, ...), origin aside."""
        return np.ravel_multi_index(tuple(coords), (self.side,) * self.d)

    def offset_index(self, lo, hi) -> np.ndarray:
        """The vertex id of the offset |x_lo - x_hi| of vertices lo and hi.
        lo and hi index the vertices and broadcast."""
        first, *rest = self.coords
        index = np.asarray(first[lo] - first[hi])  # an array even for two vertices
        np.abs(index, out=index)
        for x in rest:  # Horner, in place
            index *= self.side
            step = np.asarray(x[lo] - x[hi])
            index += np.abs(step, out=step)
        return index

    @cached_property
    def offset_dist2(self) -> np.ndarray:
        """(n,) int array of the squared length of every offset, at its id
        `offset_index`.  Read-only, as it is shared."""
        dist2 = (self.coords**2).sum(axis=0)
        dist2.setflags(write=False)
        return dist2

    def lattice_positions(self) -> np.ndarray:
        """(n, d) float array of lattice points in row-major vertex order."""
        origin = np.asarray(self.origin, dtype=np.float64)
        return self.coords.T.astype(np.float64, order="C") + origin


class _ArrayBacked:
    """A dataclass field, with no default, that an instance keeps as arrays.

    Set to a value, it stores the arrays `canonical(instance, value)` returns
    as the instance's attributes `names`, and `view` of them builds the
    field's Python container on its first read, cached.  Read on the class,
    it raises AttributeError, so dataclasses finds no default.
    """

    def __init__(self, names: tuple, canonical, view):
        self.names, self.canonical, self.view = names, canonical, view

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(f"{owner.__name__}.{self.name} has no default")
        cache = obj.__dict__
        if self.name not in cache:
            cache[self.name] = self.view(*(cache[name] for name in self.names))
        return cache[self.name]

    def __set__(self, obj, value):  # once, from the frozen dataclass's __init__
        obj.__dict__.update(zip(self.names, self.canonical(obj, value)))


def _canonical_pairs(pairs, values=None, n: int | None = None) -> tuple:
    """(pairs, values) as stored: (m, 2) int64 (lo, hi) rows, lo < hi, sorted and unique, and
    float64 values in their order.  `pairs` is an array, an iterable of pairs or a dict of the
    values, in any order and orientation; an array already so is kept after an O(m) check.
    A self pair, a pair given twice or a vertex id outside [0, n) raises DomainError."""
    if isinstance(pairs, dict):
        pairs, values = list(pairs), list(pairs.values())
    if not isinstance(pairs, np.ndarray):
        pairs = np.array(list(pairs) or np.empty((0, 2), np.int64))
    values = None if values is None else np.asarray(values, dtype=np.float64)
    if (pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu"
            or values is not None and values.shape != pairs.shape[:1]):
        raise DomainError(f"need (m, 2) integer pairs, m values: got {pairs.dtype} {pairs.shape}")
    pairs = pairs.astype(np.int64, copy=False)
    if len(pairs) and (pairs.min() < 0 or n is not None and pairs.max() >= n):
        raise DomainError(f"a vertex id outside [0, {'inf' if n is None else n})")
    top = int(pairs.max(initial=-1)) + 1 if n is None else n
    lo, hi = pairs[:, 0], pairs[:, 1]
    if not ((lo < hi).all() and (np.diff(lo * top + hi) > 0).all()):  # orient and sort
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        key = lo * top + hi
        order = np.argsort(key)
        pairs = np.stack((lo[order], hi[order]), axis=1)
        values = None if values is None else values[order]
        bad = np.flatnonzero(np.append(np.diff(key[order]) == 0, False) | (lo == hi)[order])
        if len(bad):
            u, v = pairs[bad[0]].tolist()
            raise DomainError(f"pair ({u}, {v}) {'is a self pair' if u == v else 'given twice'}")
    return pairs, values


def _pair_set(pairs: np.ndarray) -> frozenset:
    return frozenset(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))


def _pair_dict(pairs: np.ndarray, values: np.ndarray) -> dict:
    return dict(zip(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()), values.tolist()))


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realization: positions, weights, symmetric edge set, and its seed.

    Its edges are stored as `edge_array`, the (m, 2) int64 array of (lo, hi)
    rows, lo < hi, sorted and unique, which `_canonical_pairs` makes of the
    `edges` given: such an array, or pairs in any order and orientation.
    `edges`, the frozenset of (lo, hi) pairs, is built from it on its first
    read.  Positions, weights and the box, if given, count the same vertices.

    `box` is the window it was sampled on; hand-built graphs may leave it
    out, and are then taken to sit on a box at the origin.
    """

    model: Model
    positions: np.ndarray
    weights: np.ndarray  # before `edges`, whose ids are checked against n
    edges: frozenset = _ArrayBacked(("edge_array",), lambda g, e: _canonical_pairs(e, n=g.n),
                                    lambda pairs: _pair_set(pairs))
    seed: int
    params: ModelParams
    box: BoxSpec | None = None

    def __post_init__(self):
        if len(self.positions) != self.n or self.box and self.box.n_vertices != self.n:
            raise DomainError(f"sizes differ: {len(self.positions)} positions, {self.n} weights, "
                              f"{self.box}")
        integers("seed", self.seed, 0, 2**64)  # so that `save_graph` writes what loads

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def neighbors(self) -> list[list[int]]:
        """Each vertex's neighbours, in increasing order.  Nothing in the package
        reads them: only the tests and perfbench's tracer."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in zip(*self.edge_array.T.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True, eq=False)
class CostMap:
    """Nonnegative costs keyed by unordered vertex pairs.

    They are stored as `pair_array`, the (m, 2) int64 array of (lo, hi) rows,
    lo < hi, sorted and unique, and `cost_array`, the (m,) costs in that order,
    which `_canonical_pairs` makes of the `costs` given: a tuple (pairs, values)
    or a dict {pair: cost}, in any order and orientation.  `costs`, the dict
    {(lo, hi): cost}, is built from them, in pair order, on its first read.
    """

    costs: dict = _ArrayBacked(("pair_array", "cost_array"), lambda _, costs: _canonical_pairs(
        *(costs if isinstance(costs, tuple) else (costs,))), lambda *arrays: _pair_dict(*arrays))
    rate_model: RateModel

    def __len__(self) -> int:
        return len(self.cost_array)


def sample_weights(n: int, tau: float, seed: int) -> np.ndarray:
    """n reproducible Pareto(tau) weights, one per vertex index."""
    n = integers("n", n, 1)
    u = vertex_uniforms(seed, np.arange(n))
    return np.asarray(pareto_quantile(u, tau), dtype=np.float64)


# Pairs per block of the scans and of the lazy rows.  A block's 8-byte
# arrays are then 1 MB.  At 4 M pairs each was mapped afresh and faulted in:
# a 2-d GIRG of n = 1,024, then one block, took twice as long and peaked
# 28 MB higher.  Arrays of 1 MB are not reliably reused either, as glibc
# maps them or trims them from its heap once freed: a 2-d SFP FPP trial of
# side 64 whose slab blocks allocated their arrays afresh took a median of
# 9 k to 15 k minor page faults (getrusage, 2-CPU Xeon), and 0 with
# MALLOC_MMAP_THRESHOLD_ and MALLOC_TRIM_THRESHOLD_ at 1 GB.  So each
# worker of the slab scan decides its blocks in buffers it allocates once
# per scan, and the trial takes 2.3 k to 2.8 k (medians of 12 trials).
_BLOCK_PAIRS = 131_072


def _coordinate_columns(positions: np.ndarray) -> tuple:
    """One contiguous 1-d coordinate array per axis of an (n, d) position array."""
    return tuple(np.ascontiguousarray(positions[:, k]) for k in range(positions.shape[1]))


def _squared_distances(columns: tuple, x, y: np.ndarray) -> np.ndarray:
    """|pos_x - pos_y|^2 of the vertex index arrays x and y, which broadcast,
    gathered axis by axis from the coordinate columns.  The pair walks read
    it for GIRG alone; lattice pairs read `_offset_rates`.

    The squares are added in two partial sums, over the even and over the
    odd axes, and then together.  That is the order in which the scan has
    always added them, so GIRG realizations, whose coordinates are not
    integers, keep their edges bit for bit.
    """
    partial = []
    for k, col in enumerate(columns):
        sq = col[x] - col[y]
        sq *= sq
        if k < 2:
            partial.append(sq)
        else:
            partial[k % 2] += sq
    if len(partial) == 2:
        partial[0] += partial[1]
    return partial[0]


@lru_cache(maxsize=32)
def _offset_rates(box: BoxSpec, params: ModelParams, grid: bool) -> np.ndarray:
    """`distance_rate` of every lattice offset of the box, at its id
    `BoxSpec.offset_index`; with `grid`, inf at distance 1, which the kernel
    takes to 1.  Offset 0 is no pair and reads 0.  Read-only, as shared."""
    rates = np.zeros(box.n_vertices)
    rates[1:] = distance_rate(np.sqrt(box.offset_dist2[1:]), params)
    if grid:
        rates[box.offset_dist2 == 1] = np.inf
    rates.setflags(write=False)
    return rates


@lru_cache(maxsize=32)
def _rate_window(box: BoxSpec, params: ModelParams) -> np.ndarray:
    """`_offset_rates` without the grid, mirrored on every axis, as read-only windows of
    the box's shape: the one at side - 1 - coords[:, u] holds u's rates, vertex by vertex."""
    mirror = np.abs(np.arange(1 - box.side, box.side))
    rates = _offset_rates(box, params, False).reshape((box.side,) * box.d)
    return sliding_window_view(rates[np.ix_(*(mirror,) * box.d)], (box.side,) * box.d)


def _pair_probs(real: LazyRealization, x, y, ids=None, out=None) -> np.ndarray:
    """Edge probabilities of the pairs {x, y} of vertex index arrays that
    broadcast: for a column against a row, or for slab slices, it gathers
    per vertex, not per pair.  The result broadcasts against the pairs.
    With `out`, a float64 array of the pairs' shape, the probabilities of
    lattice pairs with weights are made in it, not in a fresh array; unit
    weights and GIRG pairs leave it unused.

    A lattice pair's probability is the kernel of w_x^alpha * w_y^alpha
    times the `_offset_rates` entry of its offset, read by the offset's id:
    `ids`, which broadcasts against the pairs, where the walk has them, as
    the slab scan does, else `BoxSpec.offset_index`.  Unit weights skip
    their product, which is 1 and cost LRP rows a tenth of their time.
    GIRG pairs go to `connection_prob` with their `_squared_distances`.
    """
    if real.model is Model.GIRG:
        dist = np.sqrt(_squared_distances(real._columns, x, y))
        return connection_prob(real.weights[x], real.weights[y], dist, real.params)
    ids = real.box.offset_index(x, y) if ids is None else ids
    rates = _offset_rates(real.box, real.params, True)[ids]
    if real._w_alpha is None:  # every weight is 1, and so is their product
        return apply_kernel(rates, real.params.kernel_variant)
    arg = np.multiply(real._w_alpha[x], real._w_alpha[y], out=out)
    arg *= rates
    return apply_kernel(arg, real.params.kernel_variant)


def _pair_blocks(n: int):
    """All pairs (lo, hi), lo < hi, of n vertices in row order, in blocks of
    whole rows and about _BLOCK_PAIRS pairs."""
    rows_per_block = max(1, _BLOCK_PAIRS // max(n, 1))
    for i0 in range(0, n - 1, rows_per_block):
        rows = np.arange(i0, min(i0 + rows_per_block, n - 1))
        yield np.repeat(rows, n - 1 - rows), np.concatenate([np.arange(i + 1, n) for i in rows])


def _cross_blocks(rows: np.ndarray, others: np.ndarray):
    """The pairs rows x others, in blocks of about _BLOCK_PAIRS, as a column
    of rows and the row of others, which broadcast."""
    step = max(1, _BLOCK_PAIRS // max(len(others), 1))
    for i0 in range(0, len(rows), step):
        yield rows[i0:i0 + step, None], others


def _scan(real: LazyRealization, blocks):
    """The edges among the pairs of `blocks`, as two index arrays (lo, hi), lo < hi.

    A block is two vertex index arrays that broadcast.  A pair is an edge iff
    lo's hash state finished with hi, as a uniform, falls below `_pair_probs`."""
    los, his = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for x, y in blocks:
        p = _pair_probs(real, x, y).ravel()
        lo, hi = np.minimum(x, y).ravel(), np.maximum(x, y).ravel()
        del x, y  # a block holds up to _BLOCK_PAIRS pairs
        # the hash reads its words as uint64: a view of hi, not a copy
        sel = uniforms_from_states(real._states[lo], hi.view(np.uint64)) < p
        los.append(lo[sel])
        his.append(hi[sel])
    return np.concatenate(los), np.concatenate(his)


def _slab_blocks(box: BoxSpec):
    """The blocks of the slab scan of a box of d >= 2.

    Row-major order cuts the box into `side` slabs of m = side^(d-1)
    vertices, so the pairs at offset a on axis 0 are slab r x slab r + a.
    A block is (a, r0, r1, lo, hi, ids): it pairs the columns `lo` of the
    slabs r0..r1-1 with the columns `hi` of the slabs a further on, and
    `ids`, which broadcasts against it, holds the pairs' lattice offset ids
    (`BoxSpec.offset_index`), a * m + the id of their columns' offset.  At
    a = 0 the pairs are the c < c' of one slab, as index arrays; at a > 0
    they are all (c, c'), with the (m, m) id table cut into rows when m^2
    exceeds _BLOCK_PAIRS.  A block holds at most max(_BLOCK_PAIRS, m) pairs.
    """
    side = box.side
    m = box.n_vertices // side
    column_ids = box.offset_index(np.arange(m)[:, None], np.arange(m))
    for ci, cj in _pair_blocks(m):
        step = max(1, _BLOCK_PAIRS // len(ci))
        ids = column_ids[ci, cj]
        for r0 in range(0, side, step):
            yield 0, r0, min(r0 + step, side), (ci,), (cj,), ids
    table_rows = max(1, min(m, _BLOCK_PAIRS // m))
    for a in range(1, side):
        for c0 in range(0, m, table_rows):
            ids = a * m + column_ids[c0:c0 + table_rows]
            step = max(1, _BLOCK_PAIRS // ids.size)
            for r0 in range(0, side - a, step):
                yield (a, r0, min(r0 + step, side - a), (slice(c0, c0 + table_rows), None),
                       (None, slice(None)), ids)


# Below about this many pairs per block, handing blocks to threads costs
# more than a second CPU saves: a small block is many short numpy calls, and
# each release of the interpreter lock becomes a handoff between threads.
_POOL_MIN_PAIRS = 32_768


def _slab_block(real: LazyRealization, slabs: tuple, block, buffers: tuple) -> tuple:
    """The edges among the pairs of one block of `_slab_blocks`, as two
    vertex arrays (lo, hi).  `slabs` holds the (side, m) vertex ids and hash
    states of the box.

    The block's uniforms, probabilities and selection are made in `buffers`,
    two 8-byte arrays and a bool array of at least the block's size: the
    hash in both 8-byte buffers, leaving the uniforms in the second, then
    the probabilities in the first.  The edges returned are copies, so they
    outlive the buffers' next use."""
    vertex, states = slabs
    a, r0, r1, lo, hi, ids = block
    lo, hi = (slice(r0, r1),) + lo, (slice(r0 + a, r1 + a),) + hi
    x, y = vertex[lo], vertex[hi]
    shape = np.broadcast_shapes(x.shape, y.shape)
    size = math.prod(shape)
    first, second, chosen = buffers
    # the hash reads its words as uint64: a view of the vertex ids, not a copy
    u = uniforms_from_states(states[lo], y.view(np.uint64), out=(first, second))
    p = _pair_probs(real, x, y, ids, out=first[:size].view(np.float64).reshape(shape))
    sel = np.less(u.reshape(shape), p, out=chosen[:size].reshape(shape))
    return np.broadcast_to(x, shape)[sel], np.broadcast_to(y, shape)[sel]


def _slab_scan(real: LazyRealization):
    """The pairs (lo, hi) of a realization of d >= 2 that are edges, as two
    index arrays.

    Every block of `_slab_blocks` reads contiguous slices of the slabs'
    vertex ids and states, which broadcast against each other, so nothing
    is gathered per pair but the a = 0 columns.  `_pair_probs` gathers the
    weights and GIRG coordinates per vertex and reads a lattice pair's rate
    at the block's offset ids, so a lattice pair costs no power of its own.

    One worker per CPU this process may use pulls blocks from one shared
    iterator and decides each by `_slab_block`, in buffers it allocates once
    for the scan, sized for the largest block.  A box too small for threads
    to pay (`_POOL_MIN_PAIRS`), or one CPU, has the caller's thread as its
    one worker; else the workers are threads of their own.  An error in a
    block, or an interrupt of the caller, stops every worker after its
    current block.  The edges are joined in block order, so the arrays do
    not depend on the CPUs.
    """
    side, n = real.box.side, real.n
    vertex = np.arange(n).reshape(side, -1)
    slabs = vertex, real._states.reshape(side, -1)
    # An empty block fills the caches `_pair_probs` reads (weights, their
    # powers, GIRG coordinate columns, offset tables) before the workers
    # do, as `cached_property` has no lock from Python 3.12 on.
    _pair_probs(real, vertex[:0, 0], vertex[:0, 0])
    blocks, edges = enumerate(_slab_blocks(real.box)), {}
    lock, stop = threading.Lock(), threading.Event()
    size = max(_BLOCK_PAIRS, n // side)

    def decide():
        buffers = np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, bool)
        try:
            while not stop.is_set():
                with lock:
                    item = next(blocks, None)
                if item is None:
                    return
                edges[item[0]] = _slab_block(real, slabs, item[1], buffers)
        except BaseException:
            stop.set()
            raise

    workers = 1
    # n * m / 2 is the mean number of pairs per axis-0 offset, and a block
    # holds one offset's pairs unless they exceed _BLOCK_PAIRS
    if n * (n // side) // 2 >= _POOL_MIN_PAIRS:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity masks on this platform
            workers = os.cpu_count() or 1
    if workers < 2:
        decide()
    else:
        from concurrent.futures import ThreadPoolExecutor  # loaded by the first pooled scan

        with ThreadPoolExecutor(workers, "percolate-scan") as executor:
            try:
                for future in [executor.submit(decide) for _ in range(workers)]:
                    future.result()
            finally:  # on an error or an interrupt, no worker takes another block
                stop.set()
    # in block order, after an empty pair for a box of no blocks
    los, his = zip((np.empty(0, dtype=np.int64),) * 2, *(edges[i] for i in range(len(edges))))
    return np.concatenate(los), np.concatenate(his)


def _vertex_budget(default: int) -> int:
    """The default, or the value of the BUDGET_ENV variable when it is set."""
    text = os.environ.get(BUDGET_ENV)
    if not text:
        return default
    try:
        return int(text)
    except ValueError:
        raise DomainError(f"{BUDGET_ENV} must be an integer, got {text!r}") from None


def _check_box(real, default: int, budget: str) -> None:
    """A realization's box has its params' dimension and at most the named
    vertex budget, and its seed is one of the 2^64 that the hash tells apart."""
    integers("seed", real.seed, 0, 2**64)
    if real.box.d != real.params.d:
        raise DomainError(f"box dimension {real.box.d} != params dimension {real.params.d}")
    limit = _vertex_budget(default)
    if real.n > limit:
        raise BudgetError(f"{real.n} vertices exceed the {budget} of {limit}")


def _positions(box: BoxSpec, model: Model, seed: int) -> np.ndarray:
    """Lattice points, or for GIRG n = side^d uniform points in the box."""
    if model is Model.GIRG:
        return (box.side * position_uniforms(seed, box.n_vertices, box.d)
                + np.asarray(box.origin, dtype=np.float64))
    return box.lattice_positions()


def _weights(box: BoxSpec, params: ModelParams, model: Model, seed: int) -> np.ndarray:
    if model is Model.LRP:
        return np.ones(box.n_vertices, dtype=np.float64)
    return sample_weights(box.n_vertices, params.tau, seed)


def sample_graph(box: BoxSpec, params: ModelParams, model: Model, seed: int) -> SampledGraph:
    """Sample one finite-box realization of the requested model.

    Each pair {u, v} is an edge iff
    edge_uniform(seed, u, v) < connection_prob(w_u, w_v, |pos_u - pos_v|).
    LRP/SFP vertices are the lattice points of `box`, and their pairs at
    distance 1 have probability 1, so they always carry the grid edges.
    GIRG places n = side^d vertices uniformly in the cube and has no grid
    edges.  LRP forces all weights to 1.  This is a `LazyRealization` with
    all its pairs scanned at once.
    """
    real = LazyRealization(box, params, model, seed)
    model, n = real.model, real.n
    return SampledGraph(
        model=model,
        positions=real.positions,
        weights=real.weights,
        edges=np.stack(_slab_scan(real) if box.d >= 2 else _scan(real, _pair_blocks(n)), axis=1),
        seed=seed,
        params=params,
        box=box,
    )


def sample_fpp_costs(graph: SampledGraph, seed: int) -> CostMap:
    """Attach i.i.d. Exp(1) costs to the existing edges of a graph.

    Cost of edge e is -log(1 - u_e), with u_e drawn from a cost stream
    derived from `seed`, so costs are independent of edge existence.  The
    map's arrays are the graph's `edge_array` and the costs in its order.
    """
    pairs = graph.edge_array
    u = edge_uniforms(stream_seed(seed, COST_STREAM), pairs[:, 0], pairs[:, 1])
    return CostMap(costs=(pairs, -np.log1p(-u)), rate_model=RateModel.UNIT_RATE)


@dataclass(frozen=True, eq=False)
class CffpRealization:
    """Complete-graph cost model on the lattice with lazily derived costs.

    The cost of pair {u, v} is Exp with rate (w_u w_v)^alpha |u-v|^(-alpha d),
    computed on demand from the pair's uniform.  `cost_row` gives the costs
    from one vertex, or from each of B vertices as one (B, n) array whose
    rows equal the one-vertex rows bit for bit.  It hashes the n - 1 pairs of
    each row from slices of the cost stream's vertex states and reads a row's
    |offset|^(-alpha d) as one block of `_rate_window`: nothing per pair is
    gathered.  A call costs more than a pair, so callers fetch rows in
    batches.  `rate` and `cost` read `_offset_rates` in the rows' order and
    equal them bit for bit.  Ids outside [0, n), and u == v, raise
    DomainError.  Materializing via `sample_cffp_costs` yields the same values.

    `cost_row(u, cap)` gives only the costs <= cap, in compressed-row form:
    `(indptr, vertices, costs)`, where row b's entries are
    `vertices[indptr[b]:indptr[b + 1]]`, ascending, and their costs, equal
    bit for bit to the entries <= cap of the dense row.  As -log1p(-x) >= x,
    a cost <= cap has a uniform <= cap * rate, so the uniforms above that
    (widened by `_SCREEN_MARGIN` against rounding) are dropped before the
    log and the divide, which only the survivors take.  The pairs hashed are
    the dense row's.  A search to distance t_max reads no cost above it, and
    at the `cffp_growth` scale (n = 2,001, t_max = 1) about 8 entries of a
    row survive.
    """

    box: BoxSpec
    weights: np.ndarray
    params: ModelParams
    seed: int

    def __post_init__(self):
        if len(self.weights) != self.box.n_vertices:
            raise DomainError("weights length must equal the box vertex count")
        if self.params.lam != 1.0:
            raise DomainError("CFFP is normalized to lambda = 1")
        reals("weights", self.weights, 1)
        _check_box(self, DEFAULT_COMPLETE_BUDGET, "complete-graph budget")

    @property
    def n(self) -> int:
        return self.box.n_vertices

    @cached_property
    def positions(self) -> np.ndarray:
        return self.box.lattice_positions()

    @cached_property
    def _cost_seed(self) -> int:
        return stream_seed(self.seed, COST_STREAM)

    @cached_property
    def _w_alpha(self) -> np.ndarray:
        return self.weights**self.params.alpha

    @cached_property
    def _states(self) -> np.ndarray:
        return absorb_indices(seed_state(self._cost_seed), np.arange(self.n))

    def rate(self, u: int, v: int) -> float:
        if integers("vertex id", u, 0, self.n) == integers("vertex id", v, 0, self.n):
            raise DomainError("no self-loop rates")
        rates = _offset_rates(self.box, self.params, False)
        return float(self._w_alpha[u] * self._w_alpha[v] * rates[self.box.offset_index(u, v)])

    def cost(self, u: int, v: int) -> float:
        rate = self.rate(u, v)  # checks the ids
        return float(-np.log1p(-edge_uniform(self._cost_seed, u, v)) / rate)

    def cost_row(self, u, cap: float | None = None):
        """Costs from vertex u to every vertex, inf at u itself.  For a 1-d int
        array u of B vertices, the (B, n) array whose row b is cost_row(u[b]).
        With `cap`, a nonnegative finite number, the rows' entries <= cap as
        (indptr, vertices, costs), one row for a single u."""
        if cap is not None:
            reals("cap", cap, 0, math.inf, "[)")
        us = np.asarray(integers("vertex id", u, 0, self.n))
        rows, n, batch = us.reshape(-1), self.n, us.size
        # {u, v} hashes (state min, word max), as edge_uniform does.  Row u's n - 1 pairs
        # start as (state j, word j + 1); then columns j >= u take state u, j < u word u
        lo = np.repeat(self._states[None, :-1], batch, axis=0)
        hi = np.repeat(np.arange(1, n, dtype=np.uint64)[None], batch, axis=0)
        for b, v in enumerate(rows.tolist()):
            lo[b, v:], hi[b, :v] = self._states[v], v
        u01 = uniforms_from_states(lo, hi)
        del lo, hi  # freed first, so the rows and rates reuse their memory
        # the rows, flat: u01 with a 0 at each (u, u), in batch + 1 runs shifted by 0 .. batch
        diagonal = np.arange(0, batch * n, n) + rows
        out, start = np.empty(batch * n), 0
        for k, end in enumerate(diagonal.tolist() + [batch * n]):
            out[start:end] = u01[start - k:end - k]
            start = end + 1
        out[diagonal] = 0.0
        del u01
        starts = tuple(self.box.side - 1 - self.box.coords[:, rows])  # of u's rate blocks
        rates = self._w_alpha[rows, None] * self._w_alpha
        rates *= _rate_window(self.box, self.params)[starts].reshape(batch, n)
        if cap is not None:
            return _screened_rows(out, rates.reshape(-1), diagonal, n, cap)
        np.negative(np.log1p(np.negative(out, out=out), out=out), out=out)
        out[diagonal] = np.inf  # inf / 0 at u, whose rate is 0
        out /= rates.reshape(-1)  # -log1p(-u01) / rates, in place
        return out.reshape(us.shape + (n,))


def _screened_rows(u01: np.ndarray, rates: np.ndarray, diagonal: np.ndarray, n: int,
                   cap: float) -> tuple:
    """The costs <= cap of flat rows of n uniforms and rates, as (indptr,
    vertices, costs); `diagonal` holds the flat indices of the pairs (u, u),
    which are left out.  Only the pairs that pass the screen take the log
    and the divide."""
    bound = min(float(cap) * (1 + _SCREEN_MARGIN), np.finfo(np.float64).max)
    with np.errstate(over="ignore"):  # an inf bound keeps its pair, as it should
        keep = u01 <= rates * bound
    keep[diagonal] = False
    flat = np.flatnonzero(keep)
    costs = u01[flat]
    np.negative(np.log1p(np.negative(costs, out=costs), out=costs), out=costs)
    costs /= rates[flat]
    kept = costs <= cap
    flat, costs = flat[kept], costs[kept]
    row_starts = np.arange(0, len(u01) + 1, n)
    indptr = np.searchsorted(flat, row_starts)
    # each vertex is its flat index less its row's start (an int64 % n is 4x slower)
    return indptr, flat - np.repeat(row_starts[:-1], np.diff(indptr)), costs


@dataclass(frozen=True, eq=False)
class LazyRealization:
    """The realization `sample_graph` would return, with edges decided on demand.

    Positions and weights are drawn as `sample_graph` draws them.  An edge
    is decided only when `frontier_neighbors` reaches its pair, from the
    pair's own uniform and through the scan's `_pair_probs`, so every edge
    it reports is an edge of the scanned graph and vice versa.
    """

    box: BoxSpec
    params: ModelParams
    model: Model
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "model", Model(self.model))
        _check_box(self, DEFAULT_SPARSE_BUDGET, "budget")

    @property
    def n(self) -> int:
        return self.box.n_vertices

    @cached_property
    def positions(self) -> np.ndarray:
        return _positions(self.box, self.model, self.seed)

    @cached_property
    def weights(self) -> np.ndarray:
        return _weights(self.box, self.params, self.model, self.seed)

    @cached_property
    def _w_alpha(self) -> np.ndarray | None:
        """weights^alpha, or None when every weight is 1, as LRP's are."""
        return None if (self.weights == 1).all() else self.weights**self.params.alpha

    @cached_property
    def _columns(self) -> tuple:
        return _coordinate_columns(self.positions)

    @cached_property
    def _states(self) -> np.ndarray:
        return absorb_indices(seed_state(self.seed), np.arange(self.n))

    def frontier_neighbors(self, frontier, unvisited: np.ndarray) -> np.ndarray:
        """Sorted unvisited vertices joined to some vertex of `frontier`.

        `unvisited` is a boolean mask over the vertices that must be False
        on the frontier.  Only frontier x unvisited pairs are hashed, so a
        search that marks each expanded vertex visited hashes every pair
        at most once.  Grid neighbours are among them: their offsets' rate
        inf decides their pairs as edges, as it does in the scans.
        """
        return self._frontier_neighbors(integers("frontier", frontier, 0, self.n), unvisited)

    def _frontier_neighbors(self, frontier: np.ndarray, unvisited: np.ndarray) -> np.ndarray:
        """`frontier_neighbors` of an int64 array of vertex ids, unchecked, for the BFS."""
        reached = np.concatenate(_scan(self, _cross_blocks(frontier, np.flatnonzero(unvisited))))
        return np.unique(reached[unvisited[reached]])


def sample_cffp_costs(box: BoxSpec, weights: np.ndarray, params: ModelParams,
                      seed: int) -> CostMap:
    """Materialize the full quadratic cost map of a CFFP realization: every
    pair (u, v), u < v, in row order, which is the order of the pairs."""
    real = CffpRealization(box=box, weights=np.asarray(weights, dtype=np.float64),
                           params=params, seed=seed)
    n = real.n
    costs, batch = [np.empty(0)], max(1, _ROW_BATCH_PAIRS // n)
    for start in range(0, n - 1, batch):
        us = np.arange(start, min(start + batch, n - 1))
        costs.append(real.cost_row(us)[us[:, None] < np.arange(n)])  # each row's v > u
    return CostMap(costs=(np.stack(np.triu_indices(n, 1), axis=1), np.concatenate(costs)),
                   rate_model=RateModel.CFFP_RATE)


# ---------------------------------------------------------------------------
# Text serialization, one record per line, fields parted by single spaces: the
# header `model d L alpha tau lambda seed kernel origin_1 .. origin_d`, then
# `w <index> <weight>` for each vertex in index order, `e <u> <v>` for each
# edge, and `c <u> <v> <cost>` for each cost if there are costs, u < v and
# both blocks sorted by (u, v).  `load_graph` reads this layout and no other.
# Reals use 17 significant digits so doubles round-trip exactly, in these
# files and in the CSV files of `_write_csv`.
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, columns, rows) -> None:
    """A CSV file of the named columns: ints as they are, reals by `_fmt`."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(x) if isinstance(x, (int, np.integer)) else _fmt(x)
                              for x in row) + "\n")


def save_graph(graph: SampledGraph, path, costs: CostMap | None = None) -> None:
    params = graph.params
    box = graph.box or BoxSpec(d=params.d, side=round(graph.n ** (1.0 / params.d)))
    if box.n_vertices != graph.n:
        raise DomainError(f"a boxless graph needs n = side^d: n = {graph.n}, d = {params.d}")
    lines = [
        f"{graph.model.value} {params.d} {box.side} "
        f"{_fmt(params.alpha)} {_fmt(params.tau)} "
        f"{_fmt(params.lam)} {graph.seed} {params.kernel_variant.value} "
        + " ".join(str(int(o)) for o in box.origin)
    ]
    lines += (f"w {i} {_fmt(w)}" for i, w in enumerate(graph.weights))
    # columns as lists of ints: rows as lists would be m objects for the collector
    lines += (f"e {u} {v}" for u, v in zip(*graph.edge_array.T.tolist()))
    if costs is not None:
        lines += (f"c {u} {v} {_fmt(c)}" for u, v, c in
                  zip(*costs.pair_array.T.tolist(), costs.cost_array.tolist()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


_RECORD_DTYPES = {"w": [("u", np.int64), ("x", np.float64)],  # the fields after the kind
                  "e": [("u", np.int64), ("v", np.int64)],
                  "c": [("u", np.int64), ("v", np.int64), ("x", np.float64)]}


def _read_block(text: str, kind: str, n: int) -> np.ndarray | None:
    """The records of one block, a structured array of the fields after their
    kind, or None if a line breaks the layout: another kind or field count, a
    field that does not parse, `w` ids other than 0..n-1, or pairs (lo, hi)
    outside 0 <= lo < hi < n or not sorted and unique."""
    lines, dtype = text.count("\n"), _RECORD_DTYPES[kind]
    # each line has the kind and one space per field, since usecols would drop extra fields
    if text.count(" ") != len(dtype) * lines or ("\n" + text).count(f"\n{kind} ") != lines:
        return None
    try:  # loadtxt warns of an empty block
        rows = (np.loadtxt(io.StringIO(text), dtype, comments=None, delimiter=" ",
                           usecols=range(1, len(dtype) + 1), ndmin=1)
                if lines else np.empty(0, dtype))
    except ValueError:
        return None
    if kind == "w":
        return rows if np.array_equal(rows["u"], np.arange(n)) else None
    lo, hi = rows["u"], rows["v"]
    ok = ((0 <= lo) & (lo < hi) & (hi < n)).all() and (np.diff(lo * n + hi) > 0).all()
    return rows if ok else None


def _bad_line(path, blocks, n: int) -> DomainError:
    """The error naming the first line of the `w`, `e` and `c` blocks that
    breaks the layout, looked for once `_read_block` has refused a block."""
    line = 1
    for kind, text in zip("wec", blocks):
        last = -1
        for line, record in enumerate(text.splitlines(), line + 1):
            parts = record.split(" ")
            try:
                if parts[0] != kind or len(parts) != len(_RECORD_DTYPES[kind]) + 1:
                    raise ValueError(f"malformed record {record!r}, where {kind!r} records belong")
                u, v = int(parts[1]), int(parts[1 if kind == "w" else 2])
                if kind != "e":
                    float(parts[-1])
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"vertex id outside [0, {n})")
                if kind == "w" and u != last + 1:
                    raise ValueError(f"the weight of vertex {u} where vertex {last + 1}'s belongs")
                if kind != "w" and (u >= v or u * n + v <= last):
                    raise ValueError(f"self-pair ({u}, {v})" if u == v
                                     else f"pair ({u}, {v}) out of (lo, hi) order")
            except ValueError as exc:
                return DomainError(f"{path}, line {line}: {exc}")
            last = u if kind == "w" else u * n + v
        if kind == "w" and last < n - 1:
            return DomainError(f"{path}: no weight record for vertex {last + 1}")
    return DomainError(f"{path}: a number that numpy does not parse")


def load_graph(path) -> tuple[SampledGraph, CostMap | None]:
    """Read a graph (and costs, if present) in `save_graph`'s layout.

    The file is read once and cut into its `w`, `e` and `c` blocks, at its
    first `e` record and the first `c` record after that.  numpy parses each
    block whole (`_read_block`), and the arrays go to `SampledGraph` and
    `CostMap` as they are; the costs are UNIT_RATE if all their pairs are
    edges.  A malformed header or a block that breaks the layout raises
    DomainError, which names the first bad line.  GIRG positions are not part
    of the format; they are regenerated from the stored seed and box, as
    `sample_graph` drew them.
    """
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    if not header.split() and not body.strip():
        raise DomainError(f"{path}: empty graph file")
    try:
        model_s, d_s, side_s, alpha_s, tau_s, lam_s, seed_s, kernel_s, *origin = header.split()
        d = int(d_s)
        model, seed = Model(model_s), integers("seed", int(seed_s), 0, 2**64)
        params = ModelParams(d=d, alpha=float(alpha_s), tau=float(tau_s), lam=float(lam_s),
                             kernel_variant=KernelVariant(kernel_s))
        box = BoxSpec(d=d, side=int(side_s), origin=tuple(int(o) for o in origin))
    except ValueError as exc:  # DomainError included
        raise DomainError(f"{path}, line 1: malformed graph header ({exc})") from None
    n = box.n_vertices

    body += "\n" if body and not body.endswith("\n") else ""
    c_at = body.find("\nc ", body.find("\ne ") + 1) + 1 or len(body)  # the first c after an e
    e_at = body.find("\ne ", 0, c_at) + 1 or c_at
    blocks = body[:e_at], body[e_at:c_at], body[c_at:]
    w, e, c = (_read_block(text, kind, n) for text, kind in zip(blocks, "wec"))
    if w is None or e is None or c is None:
        raise _bad_line(path, blocks, n)
    graph = SampledGraph(
        model=model,
        positions=_positions(box, model, seed),
        weights=np.ascontiguousarray(w["x"]),
        edges=np.stack((e["u"], e["v"]), axis=1),
        seed=seed,
        params=params,
        box=box,
    )
    if not len(c):
        return graph, None
    edge_keys, cost_keys = e["u"] * n + e["v"], c["u"] * n + c["v"]
    at = np.searchsorted(edge_keys, cost_keys)  # both sorted: each cost's pair is an edge iff found
    unit = at[-1] < len(edge_keys) and np.array_equal(edge_keys[at], cost_keys)
    return graph, CostMap(costs=(np.stack((c["u"], c["v"]), axis=1), np.ascontiguousarray(c["x"])),
                          rate_model=RateModel.UNIT_RATE if unit else RateModel.CFFP_RATE)
