"""Exact minimum-distance certificates shared by verification and snake validation.

A code has minimum distance >= 2 iff no codeword lies in the radius-1
ball of another, so the certificate looks balls up instead of comparing
all m(m-1)/2 pairs:

- Each codeword packs into one uint64 key, value - 1 in the 4 bits of
  its position, so every n <= 16 fits.  The keys are sorted once, and
  equal-key runs are the distance-0 pairs; the first repeated codeword
  is read off them too, so no codeword is hashed.
- Chebyshev: q is within distance 1 of p iff q is p with the values of
  some nonempty set of disjoint pairs {v, v+1} swapped, F(n+1) - 1
  neighbours (F the Fibonacci numbers).
- Kendall: the n - 1 swaps of adjacent positions.
- Every neighbour key is looked up with ``searchsorted``; a hit is a
  distance-1 pair.

With the balls clear the minimum is at least 2, and exactly 2 as soon as
one consecutive pair is at distance 2.  Otherwise, and when the
codewords do not pack, a chunked scan of every pair computes the exact
minimum.  Kendall distances in that scan are popcounts of XORed order
bitmaps: bit (u, v), u < v, records whether u precedes v.
"""
from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .perm import Perm

Violation = tuple[tuple[int, int], int]

VIOLATION_CAP = 50

_BITS = 4  # key bits per value
_MAX_PACKED_N = 64 // _BITS
_CHUNK = 1 << 16  # codewords per batch of ball lookups
_PAIR_CHUNK = 1 << 12  # codewords per batch when listing close pairs

Ball = Callable[[np.ndarray], Iterator[np.ndarray]]
Dist = Callable[[np.ndarray, np.ndarray], np.ndarray]


class Certificate(NamedTuple):
    """The exact pairwise verdict on one list of codewords.

    min_distance is None when there are fewer than two codewords.
    violations are the lexicographically first VIOLATION_CAP pairs (i, j),
    i < j, at distance < 2.  Every pair is certified, so pairs_checked is
    m(m-1)/2.  duplicate is the first repeat, as ``find_duplicate`` gives
    it, or None.
    """

    min_distance: int | None
    violations: list[Violation]
    pairs_checked: int
    duplicate: tuple[int, int] | None


def find_duplicate(codewords: Sequence[Perm]) -> tuple[int, int] | None:
    """(i, j) for the smallest j repeating an earlier codeword i, else None."""
    seen: dict[Perm, int] = {}
    for j, c in enumerate(codewords):
        if c in seen:
            return (seen[c], j)
        seen[c] = j
    return None


def min_pairwise_linf(codewords: Sequence[Perm]) -> Certificate:
    """Exact Chebyshev minimum over all pairs."""
    return _certify(codewords, _linf_ball, lambda arr: arr, _linf_dist)


def min_pairwise_kendall(codewords: Sequence[Perm]) -> Certificate:
    """Exact Kendall minimum over all pairs."""
    return _certify(codewords, _kendall_ball, _order_bitmaps, _kendall_dist)


def _certify(
    codewords: Sequence[Perm],
    ball: Ball,
    features: Callable[[np.ndarray], np.ndarray],
    dist: Dist,
) -> Certificate:
    m = len(codewords)
    if m < 2:
        return Certificate(None, [], 0, None)
    pairs = m * (m - 1) // 2
    arr = np.asarray(codewords, dtype=np.int16)
    keys = _pack(arr)
    # Without keys (n > 16) only the scan below is exact.
    if keys is None:
        best, violations = _pairwise_scan(features(arr), dist)
        return Certificate(best, violations, pairs, find_duplicate(codewords))
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    repeats = np.flatnonzero(skeys[1:] == skeys[:-1])
    if len(repeats):
        # Equal-key runs keep index order, so the smallest repeating index
        # is the second of its run, right after its first occurrence.
        t = int(repeats[np.argmin(order[repeats + 1])])
        duplicate = (int(order[t]), int(order[t + 1]))
        return Certificate(0, _close_pairs(arr, keys, order, skeys, ball), pairs, duplicate)
    if _ball_hit(arr, keys, skeys, ball):
        return Certificate(1, _close_pairs(arr, keys, order, skeys, ball), pairs, None)
    x = features(arr)
    if _consecutive_at_two(x, dist):
        return Certificate(2, [], pairs, None)
    best, violations = _pairwise_scan(x, dist)
    return Certificate(best, violations, pairs, None)


def _pack(arr: np.ndarray) -> np.ndarray | None:
    """One uint64 key per row, or None unless rows are permutations of 1..n <= 16."""
    m, n = arr.shape
    if not 1 <= n <= _MAX_PACKED_N or arr.min() < 1 or arr.max() > n:
        return None
    keys = np.zeros(m, dtype=np.uint64)
    seen = np.zeros(m, dtype=np.uint32)
    for k in range(n):
        col = arr[:, k].astype(np.uint64) - np.uint64(1)
        keys |= col << np.uint64(_BITS * k)
        seen |= np.uint32(1) << col.astype(np.uint32)
    if (seen != (1 << n) - 1).any():
        return None
    return keys


def _linf_ball(arr: np.ndarray) -> Iterator[np.ndarray]:
    """Key deltas of the Chebyshev radius-1 ball, one per nonempty matching.

    Swapping values v and v+1 adds 1 at the position of v and takes 1
    from the position of v+1; a matching's delta is the sum of its swaps.
    """
    unit = np.uint64(1) << (np.argsort(arr, axis=1).astype(np.uint64) * np.uint64(_BITS))
    return _matching_deltas(unit[:, :-1] - unit[:, 1:], np.uint64(0), 0)


def _matching_deltas(
    swap: np.ndarray, delta: np.ndarray | np.uint64, lowest: int
) -> Iterator[np.ndarray]:
    """delta plus each nonempty sum of swap columns >= lowest, no two adjacent."""
    for v in range(lowest, swap.shape[1]):
        grown = delta + swap[:, v]
        yield grown
        yield from _matching_deltas(swap, grown, v + 2)


def _kendall_ball(arr: np.ndarray) -> Iterator[np.ndarray]:
    """Key deltas of the Kendall radius-1 ball: the n - 1 adjacent swaps."""
    vals = arr.astype(np.uint64)
    for k in range(arr.shape[1] - 1):
        a, b = vals[:, k], vals[:, k + 1]
        lo, hi = np.uint64(_BITS * k), np.uint64(_BITS * (k + 1))
        yield (b << lo) + (a << hi) - (a << lo) - (b << hi)


def _ball_hit(arr: np.ndarray, keys: np.ndarray, skeys: np.ndarray, ball: Ball) -> bool:
    """True if some codeword lies in the radius-1 ball of another."""
    last = len(skeys) - 1
    for c0 in range(0, len(keys), _CHUNK):
        k = keys[c0 : c0 + _CHUNK]
        for delta in ball(arr[c0 : c0 + _CHUNK]):
            q = k + delta
            # Balls are symmetric: look each pair up once, from its smaller key.
            q = q[q > k]
            at = np.searchsorted(skeys, q)
            if (skeys[np.minimum(at, last)] == q).any():
                return True
    return False


def _close_pairs(
    arr: np.ndarray, keys: np.ndarray, order: np.ndarray, skeys: np.ndarray, ball: Ball
) -> list[Violation]:
    """The lexicographically first VIOLATION_CAP pairs at distance 0 or 1.

    Codewords are taken in index order, each with its own key (distance 0)
    and its ball (distance 1); a stable sort keeps every equal-key run in
    index order, so the partners j > i are a tail of each run.  Listing
    stops at the first codeword after the cap is reached.
    """
    found: list[Violation] = []
    for c0 in range(0, len(keys), _PAIR_CHUNK):
        k = keys[c0 : c0 + _PAIR_CHUNK]
        rows, lo, hi, dists = [], [], [], []
        deltas = ball(arr[c0 : c0 + _PAIR_CHUNK])
        for d, delta in ((0, np.uint64(0)), *((1, x) for x in deltas)):
            q = k + delta
            left = np.searchsorted(skeys, q, "left")
            right = np.searchsorted(skeys, q, "right")
            # A codeword's own key always finds its own run.
            hit = np.flatnonzero(right - left > (1 if d == 0 else 0))
            rows.append(hit)
            lo.append(left[hit])
            hi.append(right[hit])
            dists.append(np.full(len(hit), d))
        rows_a, lo_a, hi_a, d_a = (np.concatenate(v) for v in (rows, lo, hi, dists))
        last_i = None
        for t in np.argsort(rows_a, kind="stable"):
            i = c0 + int(rows_a[t])
            if i != last_i and len(found) >= VIOLATION_CAP:
                return sorted(found)[:VIOLATION_CAP]
            last_i = i
            js = order[lo_a[t] : hi_a[t]]
            found.extend(((i, int(j)), int(d_a[t])) for j in js[js > i][:VIOLATION_CAP])
        if len(found) >= VIOLATION_CAP:
            break
    return sorted(found)[:VIOLATION_CAP]


def _consecutive_at_two(x: np.ndarray, dist: Dist) -> bool:
    """True if some consecutive pair of rows is at distance exactly 2."""
    for c0 in range(0, len(x) - 1, _CHUNK):
        c1 = min(c0 + _CHUNK, len(x) - 1)
        if (dist(x[c0 + 1 : c1 + 1], x[c0:c1]) == 2).any():
            return True
    return False


def _linf_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.abs(x - y).max(axis=-1)


def _kendall_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x ^ y).sum(axis=-1, dtype=np.int64)


def _order_bitmaps(arr: np.ndarray) -> np.ndarray:
    """(m, words) uint64 order bitmaps: bit (u, v) set when rank u precedes rank v."""
    m, n = arr.shape
    pos = np.argsort(arr, axis=1)
    value_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    bits = np.zeros((m, max(1, -(-len(value_pairs) // 64))), dtype=np.uint64)
    for b, (u, v) in enumerate(value_pairs):
        before = (pos[:, u] < pos[:, v]).astype(np.uint64)
        bits[:, b // 64] |= before << np.uint64(b % 64)
    return bits


def _pairwise_scan(x: np.ndarray, dist: Dist) -> tuple[int, list[Violation]]:
    """Exact minimum and first close pairs over every pair of rows of x."""
    m = len(x)
    best: int | None = None
    violations: list[Violation] = []
    block = max(1, 4_000_000 // (m * x.shape[1]))
    for i0 in range(0, m - 1, block):
        i1 = min(i0 + block, m - 1)
        d = dist(x[i0:i1, None], x[None, :])
        upper = np.arange(m)[None, :] > np.arange(i0, i1)[:, None]
        chunk_min = int(d[upper].min())
        if best is None or chunk_min < best:
            best = chunk_min
        if chunk_min < 2 and len(violations) < VIOLATION_CAP:
            bad = np.argwhere(upper & (d < 2))
            for bi, j in bad[: VIOLATION_CAP - len(violations)]:
                violations.append(((int(bi) + i0, int(j)), int(d[bi, j])))
    return best, violations
