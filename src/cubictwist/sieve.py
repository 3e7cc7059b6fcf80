"""Segmented sieve of Eratosthenes on numpy boolean arrays.

Segments are fixed-size half-open ranges, so a prime range can be
sharded across workers and the per-segment results merged back in range
order — output never depends on scheduling.
"""

from __future__ import annotations

import math

import numpy as np

SEGMENT_SIZE = 1 << 20


def simple_sieve(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain one-shot sieve)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def segment_bounds(limit: int, segment_size: int = SEGMENT_SIZE) -> list[tuple[int, int]]:
    """Deterministic half-open [lo, hi) segments covering [2, limit]."""
    bounds = []
    lo = 2
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def primes_in_segment(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi), given base primes covering sqrt(hi - 1)."""
    flags = np.ones(hi - lo, dtype=bool)
    if lo <= 1:
        flags[: max(0, 2 - lo)] = False
    for p in base_primes:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    return (np.nonzero(flags)[0] + lo).astype(np.int64)
