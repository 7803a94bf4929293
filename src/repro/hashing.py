"""Deterministic hashing — the single source of "randomness".

Every random priority in the reproduction (vertex ranks for MIS/MSF,
edge ranks for matching, coin flips for Borůvka/contraction, sampling
decisions) is derived from splitmix64 over (seed, key). The same numpy
function runs on the driver (which keys every DHT build and every MPC
pick), inside the AMPC adaptive rounds' tasks, and inside the
sequential reference implementations, so the AMPC algorithm, the MPC
algorithm and the sequential greedy oracle all observe the *identical*
permutation — which is what lets tests assert exact-result equality
(paper §5.3: both models compute the same MIS given the same
randomness).
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorized splitmix64 finalizer over int keys -> uint64.

    ``keys`` may be any integer dtype; negative inputs are rejected to
    keep Spark/driver behaviour identical.
    """
    k = np.asarray(keys)
    if k.size and k.min() < 0:
        raise ValueError("splitmix64 keys must be non-negative")
    with np.errstate(over="ignore"):
        z = (k.astype(np.uint64) + np.uint64(seed + 1) * _GOLDEN) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def hash01(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Uniform floats in [0, 1) — the rank π(·) used everywhere.

    53 mantissa bits of the splitmix64 output; collision-free in
    practice at our scales, and ties are broken by key id at call
    sites anyway.
    """
    return (splitmix64(keys, seed) >> np.uint64(11)) * 2.0**-53


def coin(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic fair coin per key (True = heads)."""
    return (splitmix64(keys, seed) & np.uint64(1)).astype(bool)


def edge_key(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Canonical undirected-edge key: min(u,v) * 2^32 + max(u,v).

    Vertex ids must fit in 32 bits — asserted, since a silent overflow
    would desynchronize edge priorities between models.
    """
    uu = np.asarray(u, dtype=np.int64)
    vv = np.asarray(v, dtype=np.int64)
    if uu.size and max(uu.max(), vv.max()) >= 1 << 32:
        raise ValueError("vertex ids must fit in 32 bits for edge keys")
    lo = np.minimum(uu, vv)
    hi = np.maximum(uu, vv)
    return lo * np.int64(1 << 32) + hi


def edge_rank(u: np.ndarray, v: np.ndarray, seed: int = 0) -> np.ndarray:
    """Rank π(e) in [0,1) of the undirected edge {u, v}."""
    return hash01(edge_key(u, v), seed)
