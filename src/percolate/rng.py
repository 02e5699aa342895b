"""Counter-based pseudorandom uniforms.

Every random quantity in this package is a pure function of a 64-bit seed
and a small tuple of integer labels (vertex ids, edge endpoints, trial
indices).  This makes realizations reproducible, order-independent, and --
crucially for the coupling constructions -- lets two models share the exact
same uniform for the same edge.

The mixer is the splitmix64 finalizer applied to an absorb chain.  It is
statistical-quality only, not cryptographic.
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

# (shift, multiplier) per round, as uint64 scalars made once: the hash runs
# on small blocks too, where making them per call is a measurable share
_MIX_ROUNDS = ((np.uint64(30), np.uint64(_P1)), (np.uint64(27), np.uint64(_P2)),
               (np.uint64(31), None))


def _mix64_vec(z: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, mixed into z in place; z must be a buffer the
    caller owns.  t, of z's shape, holds the temporaries, fresh when None."""
    t = np.empty_like(z) if t is None else t
    for shift, mult in _MIX_ROUNDS:
        np.right_shift(z, shift, out=t)
        z ^= t
        if mult is not None:
            z *= mult
    return z


def _absorb_vec(h: np.ndarray, w: np.ndarray, z: np.ndarray | None = None,
                t: np.ndarray | None = None) -> np.ndarray:
    """Absorb w into the states h; neither is written.

    h and w may have any shapes that broadcast.  h is offset and XORed with
    w into z, a uint64 buffer of the broadcast shape, fresh when None; the
    mixer then finishes z in place, with t for its temporaries.
    """
    if z is None:
        z = np.empty(np.broadcast(h, w).shape, dtype=np.uint64)
    np.add(h, np.uint64(_GOLD), out=z)
    z ^= w
    return _mix64_vec(z, t)


def seed_state(seed: int) -> np.uint64:
    """Pre-mixed per-seed state reused across vectorized calls."""
    return np.uint64(_hash_words(seed))


def absorb_indices(state: np.uint64, idx: np.ndarray) -> np.ndarray:
    """Absorb one word per element; used to share hash prefixes."""
    return _absorb_vec(state, np.asarray(idx, dtype=np.uint64))


def uniforms_from_states(states: np.ndarray, words: np.ndarray,
                         out: tuple | None = None) -> np.ndarray:
    """Finish a hash chain with one more absorbed word, as uniforms.

    `states` and `words` broadcast against each other; the uniforms come
    back flat, one per element of the broadcast shape in C order.

    The computation runs in two 8-byte buffers: with `out`, a pair of flat
    arrays of at least that many elements, or else two fresh ones.  The
    first holds the hash states, the second the mixer's temporaries and then
    the uniforms, of which the result is a view.
    """
    words = np.asarray(words, dtype=np.uint64)
    b = np.broadcast(states, words)
    if out is None:
        z, t = np.empty(b.shape, dtype=np.uint64), np.empty(b.shape, dtype=np.uint64)
    else:
        z, t = (buf[:b.size].view(np.uint64).reshape(b.shape) for buf in out)
    h = _absorb_vec(states, words, z, t)
    h >>= np.uint64(11)
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
    lo = np.minimum(us, vs).astype(np.uint64)
    hi = np.maximum(us, vs).astype(np.uint64)
    state = seed_state(seed)
    return uniforms_from_states(absorb_indices(state, lo), hi)


def vertex_uniforms(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Vectorized `vertex_uniform`, for one seed or an array of seeds that
    broadcasts against `indices`; the uniforms come back flat."""
    if np.ndim(seed) == 0:
        state = seed_state(seed)
    else:
        state = _mix64_vec(np.asarray(seed, dtype=np.uint64) ^ np.uint64(_IV))
    return uniforms_from_states(state, indices)


def position_uniforms(seed: int, n: int, d: int) -> np.ndarray:
    """(n, d) array of per-vertex, per-axis uniforms."""
    pos_seed = stream_seed(seed, POSITION_STREAM)
    state = seed_state(pos_seed)
    idx = np.repeat(np.arange(n, dtype=np.uint64), d)
    axes = np.tile(np.arange(d, dtype=np.uint64), n)
    u = uniforms_from_states(absorb_indices(state, idx), axes)
    return u.reshape(n, d)


def trial_seeds(seed: int, n: int) -> np.ndarray:
    """uint64 array of trial_seed(seed, 0..n-1), bit-identical to the scalar."""
    h1 = np.uint64(_hash_words(seed, TRIAL_STREAM))
    return _absorb_vec(np.broadcast_to(h1, (n,)), np.arange(n, dtype=np.uint64))
