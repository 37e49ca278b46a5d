"""Exact minimum-distance certificates shared by verification and snake validation.

A code has minimum distance >= 2 iff no codeword lies in the radius-1
ball of another, so the certificate looks balls up instead of comparing
all m(m-1)/2 pairs.  It takes the codewords as one (m, n) array.

- Every row is a permutation of 1..n (``GrayCode`` checks its start).
- Each codeword is keyed by the Lehmer rank of a permutation: Chebyshev
  keys p by p, Kendall by p⁻¹.  Ranks fit an int64 for every n <= 20.
  The ranks are sorted once (stably), and equal-rank runs are the
  distance-0 pairs; the first repeated codeword is read off them too.
  The certificate keeps only the sort order (int32) and the sorted ranks,
  12 bytes per codeword; the ranks in index order are rebuilt from them,
  with one scatter, only when a repeat or a close pair is listed.
- Swapping the values v and v+1 of a key changes exactly one Lehmer
  digit, the one at the smaller of their two positions a, by +1 when v
  comes first and -1 otherwise: a rank step of ±(n-1-a)!.
- Chebyshev: q is within distance 1 of p iff q is p with the values of
  some nonempty set of disjoint pairs {v, v+1} swapped, F(n+1) - 1
  neighbours (F the Fibonacci numbers), each rank the sum of its steps.
- Kendall: a swap of adjacent positions in p is a swap of adjacent
  values in p⁻¹, so the n - 1 neighbours are single steps of p⁻¹.
- Every neighbour rank is looked up, each pair once from its smaller
  rank; a hit is a distance-1 pair.  A neighbour's steps change distinct
  Lehmer digits by ±1 each, so the leading digit moves by at most one:
  the larger rank of a pair lies in the slab (the (n-1)! ranks of one
  leading digit) of the smaller or the next.  Up to n = 13 the lookup is
  one gather from a window, a bitmap of the codeword ranks in two slabs,
  2·(n-1)! bits (10 MB at n = 12, 120 MB at n = 13), reused as the
  sorted codewords are taken slab by slab.  For 14 <= n <= 20 a window
  would take 1.6 GB or more, so the lookup is a ``searchsorted`` in the
  sorted ranks.

With the balls clear the minimum is at least 2, and exactly 2 as soon as
one consecutive pair is at distance 2.  Otherwise, and for n > 20, a
chunked scan of every pair computes the exact minimum.  Kendall
distances in that scan are popcounts of XORed order bitmaps: bit (u, v),
u < v, records whether u precedes v.
"""
from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .perm import Perm

Violation = tuple[tuple[int, int], int]

VIOLATION_CAP = 50

_MAX_RANK_N = 20  # 20! < 2**63: every rank fits an int64
_BITMAP_N = 13  # the largest n whose lookup is a rank window
_BIT = np.array([1 << b for b in range(8)], dtype=np.uint8)  # bit b of a bitmap byte
_FACT = np.array([math.factorial(k) for k in range(_MAX_RANK_N + 1)], dtype=np.int64)
_CHUNK = 1 << 13  # codewords per batch of ball lookups
_PAIR_CHUNK = 1 << 12  # codewords per batch when listing close pairs

Ball = Callable[[np.ndarray, np.ndarray], Iterator[np.ndarray]]
Dist = Callable[[np.ndarray, np.ndarray], np.ndarray]


class Certificate(NamedTuple):
    """The exact pairwise verdict on one list of codewords.

    min_distance is None when there are fewer than two codewords, and 0
    iff some codeword repeats.  violations are the lexicographically first
    VIOLATION_CAP pairs (i, j), i < j, at distance < 2, after the first
    repeat, as ``find_duplicate`` gives it, if there is one.  Every pair
    is certified, so pairs_checked is m(m-1)/2.
    """

    min_distance: int | None
    violations: list[Violation]
    pairs_checked: int


def find_duplicate(codewords: Iterable[Perm]) -> tuple[int, int] | None:
    """(i, j) for the smallest j repeating an earlier codeword i, else None."""
    seen: dict[Perm, int] = {}
    for j, c in enumerate(codewords):
        if c in seen:
            return (seen[c], j)
        seen[c] = j
    return None


def min_pairwise_linf(codewords: np.ndarray) -> Certificate:
    """Exact Chebyshev minimum over all pairs of rows of an (m, n) array."""
    return _certify(codewords, False, lambda arr: arr, _linf_dist)


def min_pairwise_kendall(codewords: np.ndarray) -> Certificate:
    """Exact Kendall minimum over all pairs of rows of an (m, n) array."""
    return _certify(codewords, True, _order_bitmaps, _kendall_dist)


def _certify(
    codewords: np.ndarray,
    kendall: bool,
    features: Callable[[np.ndarray], np.ndarray],
    dist: Dist,
) -> Certificate:
    arr = np.asarray(codewords)
    m = len(arr)
    if m < 2:
        return Certificate(None, [], 0)
    pairs = m * (m - 1) // 2
    if arr.shape[1] > _MAX_RANK_N:
        best, violations = _pairwise_scan(features(arr), dist)
        duplicate = find_duplicate(map(tuple, arr.tolist()))
        return Certificate(best, _repeat_first(duplicate, violations), pairs)

    def ball(rows: np.ndarray, k: np.ndarray) -> Iterator[np.ndarray]:
        return _ball(_keys(rows, kendall)[1], k, matchings=not kendall)

    order, sranks = _sorted_ranks(arr, kendall)
    repeats = np.flatnonzero(sranks[1:] == sranks[:-1])
    if len(repeats):
        # Equal-rank runs keep index order, so the smallest repeating index
        # is the second of its run, right after its first occurrence.
        t = int(repeats[np.argmin(order[repeats + 1])])
        duplicate = (int(order[t]), int(order[t + 1]))
        violations = _close_pairs(arr, order, sranks, ball)
        return Certificate(0, _repeat_first(duplicate, violations), pairs)
    if _ball_hit(arr, order, sranks, ball):
        return Certificate(1, _close_pairs(arr, order, sranks, ball), pairs)
    x = features(arr)
    if _consecutive_at_two(x, dist):
        return Certificate(2, [], pairs)
    best, violations = _pairwise_scan(x, dist)
    return Certificate(best, violations, pairs)


def _sorted_ranks(arr: np.ndarray, kendall: bool) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of the codewords' ranks, and the sorted ranks.

    The ranks in index order die here: only ``_close_pairs`` reads them,
    and it rebuilds them from these two.  order is int32 whenever m fits.
    """
    m = len(arr)
    ranks = np.concatenate(
        [_ranks(_keys(arr[c0 : c0 + _CHUNK], kendall)[0]) for c0 in range(0, m, _CHUNK)]
    )
    order = np.argsort(ranks, kind="stable").astype(np.int32 if m < 2**31 else np.int64)
    return order, ranks[order]


def _repeat_first(repeat: tuple[int, int] | None, close: list[Violation]) -> list[Violation]:
    """The close pairs led by the first repeat, which they then hold only once."""
    if repeat is None:
        return close
    return [(repeat, 0), *(v for v in close if v != (repeat, 0))]


def _keys(rows: np.ndarray, kendall: bool) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based key permutations of rows, and their inverses, as (n, m) int8.

    Chebyshev keys a codeword p by p and Kendall by p⁻¹, so the two
    metrics differ only in which of the pair is the key.
    """
    p = rows.T.astype(np.int8) - 1
    inv = np.empty_like(p)
    inv[p, np.arange(p.shape[1])] = np.arange(len(p), dtype=np.int8)[:, None]
    return (inv, p) if kendall else (p, inv)


def _ranks(p: np.ndarray) -> np.ndarray:
    """The Lehmer rank of each column of a 0-based (n, m) permutation array."""
    n = len(p)
    rank = np.zeros(p.shape[1], dtype=np.int64)
    for a in range(n - 1):
        # Digit a: how many later values are smaller than the one at a.
        digit = np.zeros(p.shape[1], dtype=np.int8)
        for b in range(a + 1, n):
            digit += p[b] < p[a]
        rank += digit * _FACT[n - 1 - a]
    return rank


def _ball(inv: np.ndarray, k: np.ndarray, matchings: bool) -> Iterator[np.ndarray]:
    """The neighbour ranks of each key's radius-1 ball, one array per neighbour.

    inv holds the (n, m) inverses of the keys, k their ranks.  Row v of
    the steps is the rank step of swapping the values v and v+1:
    ±(n-1-a)! with a the smaller of their positions, + when v comes
    first.  Chebyshev neighbours take the steps of every nonempty
    matching, Kendall neighbours one step each.
    """
    first, second = inv[:-1], inv[1:]
    step = _FACT[len(inv) - 1 - np.minimum(first, second)]
    step = np.where(first < second, step, -step)
    return _matchings(step, k, 0) if matchings else (k + s for s in step)


def _matchings(step: np.ndarray, k: np.ndarray, lowest: int) -> Iterator[np.ndarray]:
    """k plus each nonempty sum of step rows >= lowest, no two adjacent."""
    for v in range(lowest, len(step)):
        grown = k + step[v]
        yield grown
        yield from _matchings(step, grown, v + 2)


def _ball_hit(arr: np.ndarray, order: np.ndarray, sranks: np.ndarray, ball: Ball) -> bool:
    """True if some codeword lies in the radius-1 ball of another.

    Codewords are taken in rank order, so the probes of one batch land
    near one another in the window or the sorted ranks.  Up to n = 13, for
    each slab s one reused window holds slabs s and s+1 (none past n!),
    and the codewords of slab s probe it.
    """

    def hit(c0: int, c1: int, lo: int, member: Callable[[np.ndarray], np.ndarray]) -> bool:
        # Sorted codewords [c0, c1) probe with their ranks less lo.
        for b0 in range(c0, c1, _CHUNK):
            b1 = min(b0 + _CHUNK, c1)
            k = sranks[b0:b1] - lo
            for q in ball(arr[order[b0:b1]], k):
                # Balls are symmetric: look each pair up once, from its smaller rank.
                if member(q[q > k]).any():
                    return True
        return False

    n = arr.shape[1]
    if n > _BITMAP_N:
        last = len(sranks) - 1
        return hit(0, len(sranks), 0, lambda q: sranks[np.minimum(np.searchsorted(sranks, q), last)] == q)
    slab = math.factorial(n - 1)
    bits = np.zeros(-(-2 * slab // 8), dtype=np.uint8)
    edges = np.searchsorted(sranks, slab * np.arange(n + 2))  # first codeword of each slab
    for s in range(n):
        held = sranks[edges[s] : edges[s + 2]] - s * slab
        np.bitwise_or.at(bits, held >> 3, _BIT[held & 7])
        if hit(edges[s], edges[s + 1], s * slab, lambda q: bits[q >> 3] & _BIT[q & 7]):
            return True
        bits[held >> 3] = 0
    return False


def _close_pairs(
    arr: np.ndarray, order: np.ndarray, sranks: np.ndarray, ball: Ball
) -> list[Violation]:
    """The lexicographically first VIOLATION_CAP pairs at distance 0 or 1.

    Codewords are taken in index order, each with its own rank (distance 0)
    and its ball (distance 1); a stable sort keeps every equal-rank run in
    index order, so the partners j > i are a tail of each run.  Listing
    stops at the first codeword after the cap is reached.
    """
    ranks = np.empty_like(sranks)
    ranks[order] = sranks
    found: list[Violation] = []
    for c0 in range(0, len(ranks), _PAIR_CHUNK):
        k = ranks[c0 : c0 + _PAIR_CHUNK]
        rows, lo, hi, dists = [], [], [], []
        neighbours = ball(arr[c0 : c0 + _PAIR_CHUNK], k)
        for d, q in ((0, k), *((1, x) for x in neighbours)):
            left = np.searchsorted(sranks, q, "left")
            right = np.searchsorted(sranks, q, "right")
            # A codeword's own rank always finds its own run.
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
    # Codewords are unsigned: subtract them as signed values.
    return np.abs(x.astype(np.int32) - y).max(axis=-1)


def _kendall_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x ^ y).sum(axis=-1, dtype=np.int64)


def _order_bitmaps(arr: np.ndarray) -> np.ndarray:
    """(m, words) uint64 order bitmaps: bit (u, v) set when rank u precedes rank v."""
    m, n = arr.shape
    pos = np.argsort(arr, axis=1)
    pairs = n * (n - 1) // 2
    bits = np.zeros((m, 8 * max(1, -(-pairs // 64))), dtype=np.uint8)
    rows = max(1, (1 << 22) // max(1, pairs))  # rows per batch of pair comparisons
    for r0 in range(0, m, rows):
        p = pos[r0 : r0 + rows]
        before = np.concatenate([p[:, u, None] < p[:, u + 1 :] for u in range(n)], axis=1)
        packed = np.packbits(before, axis=1, bitorder="little")
        bits[r0 : r0 + rows, : packed.shape[1]] = packed
    return bits.view(np.uint64)


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
