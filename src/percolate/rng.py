"""Counter-based pseudorandom uniforms.

Every random quantity in this package is a pure function of a 64-bit seed
and a small tuple of integer labels (vertex ids, edge endpoints, trial
indices).  This makes realizations reproducible, order-independent, and --
crucially for the coupling constructions -- lets two models share the exact
same uniform for the same edge.

The mixer is the splitmix64 finalizer applied to an absorb chain: the
state h takes a word w as mix(h + gold ^ w).  It is statistical-quality
only, not cryptographic.

The vectorized functions keep each state folded, as s ^ (s >> 30) of the
offset state s = h + gold.  The finalizer's first step is that fold, and
it is linear over XOR, so the fold of s ^ w is fold(s) ^ fold(w), and a
word below 2^30 (`WORD_BOUND`) is its own fold.  Every pair a walk decides
finishes a vertex's state with a vertex id as its word, so the fold is done
once per vertex, not once per pair; functions that take words of any size
fold them first.  Every uniform is the scalar chain's, bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, integers

_MASK = (1 << 64) - 1
_IV = 0x6A09E667F3BCC909
_GOLD = 0x9E3779B97F4A7C15
_P1 = 0xBF58476D1CE4E5B9
_P2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53

# Stream tags: distinct constants so that derived streams never collide.
COST_STREAM = 0x636F73745D17A1B3
TRIAL_STREAM = 0x747269616CF00D2B
POSITION_STREAM = 0x706F7369742E3D91


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _P1) & _MASK
    z = ((z ^ (z >> 27)) * _P2) & _MASK
    return z ^ (z >> 31)


def _absorb(h: int, w: int) -> int:
    return _mix64(((h + _GOLD) & _MASK) ^ (w & _MASK))


def _hash_words(seed: int, *words: int) -> int:
    """The words' hash under a seed in [0, 2^64); every public seed is checked here."""
    h = _mix64(integers("seed", seed, 0, 2**64) ^ _IV)
    for w in words:
        h = _absorb(h, w)
    return h


def _u01(h: int) -> float:
    return (h >> 11) * _INV53


def stream_seed(seed: int, tag: int) -> int:
    """Derive an independent child seed for a named stream."""
    return _hash_words(seed, tag)


def trial_seed(seed: int, index: int) -> int:
    """Seed for the index-th independent Monte Carlo trial."""
    return _hash_words(seed, TRIAL_STREAM, index)


def edge_uniform(seed: int, u: int, v: int) -> float:
    """Uniform in [0, 1) attached to the unordered pair {u, v}.

    Symmetric in (u, v) and deterministic in (seed, {u, v}).
    """
    if u == v:
        raise DomainError(f"edge_uniform needs two distinct endpoints, got u == v == {u}")
    lo, hi = (u, v) if u < v else (v, u)
    return _u01(_hash_words(seed, lo, hi))


def vertex_uniform(seed: int, index: int) -> float:
    """Uniform in [0, 1) attached to a single vertex."""
    return _u01(_hash_words(seed, index))


def position_uniform(seed: int, index: int, axis: int) -> float:
    """Uniform in [0, 1) for coordinate `axis` of vertex `index`."""
    return _u01(_hash_words(stream_seed(seed, POSITION_STREAM), index, axis))


# ---------------------------------------------------------------------------
# Vectorized variants.  Bit-identical to the scalar functions above; the
# equivalence is pinned by tests.
# ---------------------------------------------------------------------------

# The finalizer's steps as uint64 scalars made once: the hash runs on small
# blocks too, where making them per call is a measurable share.  Its first
# step, z ^= z >> 30, is the fold; the rest is (shift, multiplier) per round.
_FOLD_SHIFT = np.uint64(30)
_FIRST_MULT = np.uint64(_P1)
_MIX_ROUNDS = ((np.uint64(27), np.uint64(_P2)), (np.uint64(31), None))
_GOLD_VEC = np.uint64(_GOLD)
# Every word that `uniforms_from_states` absorbs as it is lies below this
# bound, where the fold leaves it unchanged; vertex ids do, as a box holds
# at most this many vertices.
WORD_BOUND = 2**30


def _fold_vec(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """z ^= z >> 30, in place, with t of z's shape for the shift."""
    np.right_shift(z, _FOLD_SHIFT, out=t)
    z ^= t
    return z


def _finish_vec(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer after its fold, mixed into a folded z in
    place; z must be a buffer the caller owns, and t, of z's shape, holds
    the temporaries."""
    z *= _FIRST_MULT
    for shift, mult in _MIX_ROUNDS:
        np.right_shift(z, shift, out=t)
        z ^= t
        if mult is not None:
            z *= mult
    return z


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """The whole splitmix64 finalizer, mixed into z in place."""
    t = np.empty_like(z)
    return _finish_vec(_fold_vec(z, t), t)


def _folded(values) -> np.ndarray:
    """Values of any size as a fresh uint64 array, folded: a folded state
    XORed with folded words is the fold of the state XORed with the words."""
    z = np.array(values, dtype=np.uint64)
    return _fold_vec(z, np.empty_like(z))


def seed_state(seed: int) -> np.uint64:
    """Pre-mixed per-seed state reused across vectorized calls, folded as
    every vectorized state is: the chain's state h offset by the golden
    ratio for its next absorb, s = h + gold, and stored as s ^ (s >> 30).

    The finalizer opens with z ^= z >> 30, which is linear over XOR, so
    absorbing a word w into s folds to fold(s) ^ fold(w), and fold(w) = w
    for w < 2^30.  A folded state thus takes such a word with one XOR and
    goes straight to the first multiply."""
    s = (_hash_words(seed) + _GOLD) & _MASK
    return np.uint64(s ^ (s >> 30))


def absorb_indices(state: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Absorb one word per element into a folded state; used to share hash
    prefixes.  The words may take any uint64 value, as they are folded
    here; the states come back folded."""
    z = _folded(idx)
    z ^= state
    t = np.empty_like(z)
    _finish_vec(z, t)
    z += _GOLD_VEC
    return _fold_vec(z, t)


def uniforms_from_states(states: np.ndarray, words: np.ndarray,
                         out: tuple | None = None, numerators: bool = False) -> np.ndarray:
    """Finish a hash chain with one more absorbed word, as uniforms.

    `states`, folded as `seed_state` and `absorb_indices` give them, and
    `words` broadcast against each other; the uniforms come back flat, one
    per element of the broadcast shape in C order.  Each word must lie
    below `WORD_BOUND`, 2^30, as every vertex id does, or come folded
    (w ^ (w >> 30)): it is XORed into its state as it is, and the finalizer
    goes on from its first multiply.  With `numerators`, each uniform u
    comes back as its 53-bit numerator k = u * 2^53, as uint64: u < p
    exactly when k < 2^53 p, so a caller can decide a pair without making
    floats.

    The computation runs in two 8-byte buffers: with `out`, a pair of flat
    arrays of at least that many elements, or else two fresh ones.  The
    first holds the hash states and then the numerators, the second the
    mixer's temporaries and then the uniforms; the result is a view of
    the one it ends in.
    """
    words = np.asarray(words, dtype=np.uint64)
    b = np.broadcast(states, words)
    if out is None:
        z, t = np.empty(b.shape, dtype=np.uint64), np.empty(b.shape, dtype=np.uint64)
    else:
        z, t = (buf[:b.size].view(np.uint64).reshape(b.shape) for buf in out)
    h = _finish_vec(np.bitwise_xor(states, words, out=z), t)
    h >>= np.uint64(11)
    if numerators:
        return h.ravel()
    u = t.view(np.float64)
    np.copyto(u, h)
    u *= _INV53
    return u.ravel()


def edge_uniforms(seed: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Vectorized `edge_uniform` over aligned endpoint arrays."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if np.any(us == vs):
        raise DomainError("edge_uniforms called with a self-pair")
    state = seed_state(seed)
    lo = absorb_indices(state, np.minimum(us, vs))
    return uniforms_from_states(lo, _folded(np.maximum(us, vs)))


def vertex_uniforms(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized `vertex_uniform`, for one seed or an array of seeds that
    broadcasts against `indices`; the uniforms come back flat."""
    if np.ndim(seed) == 0:
        state = seed_state(seed)
    else:
        state = _folded(_mix64_vec(np.asarray(seed, dtype=np.uint64) ^ np.uint64(_IV))
                        + _GOLD_VEC)
    return uniforms_from_states(state, _folded(indices))


def position_uniforms(seed: int, n: int, d: int) -> np.ndarray:
    """(n, d) array of per-vertex, per-axis uniforms."""
    states = absorb_indices(seed_state(stream_seed(seed, POSITION_STREAM)), np.arange(n))
    return uniforms_from_states(states[:, None], np.arange(d, dtype=np.uint64)).reshape(n, d)


def trial_seeds(seed: int, n: int) -> np.ndarray:
    """uint64 array of trial_seed(seed, 0..n-1), bit-identical to the scalar."""
    h1 = np.uint64((_hash_words(seed, TRIAL_STREAM) + _GOLD) & _MASK)
    return _mix64_vec(h1 ^ np.arange(n, dtype=np.uint64))
