"""Counter-based random streams keyed by (seed, lattice edge).

Every edge weight is a pure function of the 64-bit session seed and the
edge's canonical coordinates, so a sampled environment does not depend on
iteration order and any single edge can be re-derived in isolation.  The
generator chains the splitmix64 finalizer (Steele et al., "Fast splittable
pseudorandom number generators") over the packed edge key, which is the
standard recipe for counter-based streams.

All functions accept numpy arrays and are vectorized; scalars work too.
"""

from __future__ import annotations

import operator

import numpy as np

# Coordinates are packed injectively into two 64-bit words, so the working
# region must keep coordinates inside (-COORD_BOUND, COORD_BOUND).
COORD_BITS = 21
COORD_BOUND = 1 << (COORD_BITS - 1)

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_M1, _M2 = int(_MIX1), int(_MIX2)  # the same multipliers for Python-int words


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer applied to a uint64 array in place."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def pack_edge_keys(coords: np.ndarray, axes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Injectively pack canonical edge identifiers into two uint64 words.

    ``coords`` has shape (n, d) and holds the lexicographically smaller
    endpoint of each edge; ``axes`` holds the edge direction index.  Three
    coordinates fill the low word and the axis plus two more the high word,
    so d <= 5 is supported.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    axes = np.asarray(axes, dtype=np.int64).reshape(-1)
    if coords.shape[1] > 5:
        raise ValueError(f"edge keys pack injectively only for d <= 5, got d={coords.shape[1]}")
    if np.any(np.abs(coords) >= COORD_BOUND):
        raise OverflowError("edge coordinate outside the supported working extent")
    shifted = (coords + COORD_BOUND).astype(np.uint64)
    lo = np.zeros(len(coords), dtype=np.uint64)
    hi = axes.astype(np.uint64)
    for i in range(coords.shape[1]):
        if i < 3:
            lo = (lo << np.uint64(COORD_BITS)) | shifted[:, i]
        else:
            hi = (hi << np.uint64(COORD_BITS)) | shifted[:, i]
    return lo, hi


def edge_uniforms(seed: int, key_lo: np.ndarray, key_hi: np.ndarray, draw: int = 0) -> np.ndarray:
    """Uniform(0,1) variate for each edge stream, draw index ``draw``."""
    seed_word = np.uint64(operator.index(seed) & _MASK) ^ _GOLDEN
    # one working array, mixed, shifted and scaled in place
    h = np.array(key_lo, dtype=np.uint64)
    h ^= seed_word
    _mix64_inplace(h)
    h ^= np.asarray(key_hi, dtype=np.uint64)
    h ^= np.uint64(int(_GOLDEN) * (operator.index(draw) + 1) & _MASK)
    _mix64_inplace(_mix64_inplace(h))
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _mix64_int(x: int) -> int:
    """_mix64_inplace of one word held as a Python int below 2**64."""
    x ^= x >> 30
    x = (x * _M1) & _MASK
    x ^= x >> 27
    x = (x * _M2) & _MASK
    return x ^ (x >> 31)


def derive_seed(master: int, *parts: int | str) -> int:
    """Stable child seed from a master seed and a tag path (experiment, n, trial).

    Integers (Python or numpy) enter as their value mod 2**64, a string as
    its length mixed with each UTF-8 byte; the chain runs on Python ints,
    since a per-call numpy scalar costs more than the arithmetic.
    """
    h = operator.index(master) & _MASK
    for part in parts:
        if isinstance(part, str):
            word = len(part)
            for b in part.encode():
                word = _mix64_int(word ^ b)
        else:
            word = operator.index(part) & _MASK
        h = _mix64_int(h ^ word)
    return h
