"""The exact scan of every pair of codewords.

``_pairdist`` certifies a code by the ranks of its codewords.  The codes
the ranks cannot certify, those with n > 20 and those with no codeword
near another and no consecutive pair at distance 2, take
``_pairwise_scan``: one chunked pass over every pair of rows, which
computes the exact minimum and the first close pairs.  The few words of
a code over at most five symbols take ``scan_words``, the same scan in
pure Python, so certifying them loads no numpy.  Kendall distances in
both scans are popcounts of XORed order bitmaps: bit (u, v), u < v,
records whether u precedes v.
"""
from __future__ import annotations

from typing import Callable, Iterable

from ._numpy import np
from .perm import Perm, linf_distance

Violation = tuple[tuple[int, int], int]

VIOLATION_CAP = 50


def find_duplicate(codewords: Iterable[Perm]) -> tuple[int, int] | None:
    """(i, j) for the smallest j repeating an earlier codeword i, else None."""
    seen: dict[Perm, int] = {}
    for j, c in enumerate(codewords):
        if c in seen:
            return (seen[c], j)
        seen[c] = j
    return None


def scan_words(words: list[Perm], kendall: bool) -> tuple[int | None, list[Violation]]:
    """``_pairwise_scan`` over tuples: the exact minimum, None below two words, and first close pairs."""
    keys = words
    if kendall:  # bit k·u + v, u < v, of word w set when u precedes v in w
        k = len(words[0]) + 1 if words else 0
        keys = [sum(1 << k * u + v for i, u in enumerate(w) for v in w[i + 1 :] if u < v) for w in words]
    best = None
    violations = []
    for i, x in enumerate(keys):
        for j in range(i + 1, len(keys)):
            d = (x ^ keys[j]).bit_count() if kendall else linf_distance(x, keys[j])
            if best is None or d < best:
                best = d
            if d < 2 and len(violations) < VIOLATION_CAP:
                violations.append(((i, j), d))
    return best, violations


def _linf_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The larger less the smaller, in the rows' own (unsigned) type.
    return (np.maximum(x, y) - np.minimum(x, y)).max(axis=-1)


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


def _pairwise_scan(x: np.ndarray, dist: Callable[..., np.ndarray]) -> tuple[int, list[Violation]]:
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
