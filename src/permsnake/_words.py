"""Sorted Lehmer ranks in 4 bytes a codeword, for the certificate in ``_pairdist``.

A rank is kept as its low 32 bits, a uint32 word, in buckets of 2**32
ranks: one bucket up to n = 12, where n! < 2**32, 2 at n = 13 and 21 at
n = 14.  Above n = 14 there are more buckets than a uint8 names, and a
word is the whole int64 rank, in one bucket.

``RankWords`` takes the ranks a block at a time in index order, so the
code is walked once.  It writes each block's words in place and, with
more than one bucket, each codeword's bucket as a uint8.  ``sort`` then
groups the words by bucket in place and sorts each bucket in place.
``SortedRanks`` reads the words back as the int64 ranks they stand for.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from ._numpy import np

_WORD = 32  # a word keeps the low _WORD bits of a rank
_GROUP = 1 << 18  # positions per step of grouping and of the repeat search


class SortedRanks(NamedTuple):
    """m ranks in sorted order, as words in buckets of 2**32 ranks.

    Bucket b, the sorted positions buckets[b] to buckets[b + 1], holds the
    ranks b·2**32 + word.  With int64 words there is one bucket, and a
    word is its rank.
    """

    words: np.ndarray
    buckets: np.ndarray  # the first sorted position of each bucket, then m

    def read(self, at: np.ndarray | slice) -> np.ndarray:
        """The int64 ranks at the sorted positions at, an index array or a slice."""
        k = self.words[at].astype(np.int64)
        edges = self.buckets[1:-1]  # a position's bucket is the count of edges at or before it
        if not len(edges):
            return k
        if not isinstance(at, slice):
            return k + (np.searchsorted(edges, at, "right") << _WORD)
        # A slice is one batch, in one bucket or across an edge or two.
        first, last = np.searchsorted(edges, [at.start, at.stop - 1], "right").tolist()
        k += first << _WORD
        for e in edges[first:last].tolist():
            k[e - at.start :] += 1 << _WORD
        return k

    def find(self, r: np.ndarray) -> np.ndarray:
        """The first sorted position of a rank >= r, for each rank 0 <= r <= n!.

        Each needle takes the words' dtype first: one of another dtype
        would make numpy cast all m words to it on every call.
        """
        if len(self.buckets) == 2:
            return np.searchsorted(self.words, r.astype(self.words.dtype))
        bucket, low = r >> _WORD, (r & 0xFFFFFFFF).astype(np.uint32)
        at = np.empty(len(r), dtype=np.int64)
        for b in range(bucket.min(), bucket.max() + 1):
            i = np.flatnonzero(bucket == b)
            b0, b1 = self.buckets[b : b + 2]
            at[i] = b0 + np.searchsorted(self.words[b0:b1], low[i])
        return at

    def runs(self) -> np.ndarray:
        """The sorted positions t whose rank repeats at t + 1: the distance-0 pairs.

        Equal words on either side of a bucket edge are no repeat.
        """
        w, edges = self.words, self.buckets.tolist()
        runs = [np.empty(0, dtype=np.int64)]
        for b0, b1 in zip(edges, edges[1:]):
            # _GROUP words at a time: one compare of all m words would hold m more bytes.
            runs += [c + _repeats(w[c : min(c + _GROUP + 1, b1)]) for c in range(b0, b1 - 1, _GROUP)]
        return np.concatenate(runs)


def _repeats(x: np.ndarray) -> np.ndarray:
    """The positions t where x[t + 1] equals x[t]."""
    return np.flatnonzero(x[1:] == x[:-1])


class RankWords:
    """The ranks of m codewords of length n, written a block at a time in index order."""

    def __init__(self, m: int, n: int) -> None:
        count = ((math.factorial(n) - 1) >> _WORD) + 1
        wide = count > 256  # more buckets than a uint8 label names
        self.count = 1 if wide else count
        self.words = np.empty(m, dtype=np.int64 if wide else np.uint32)
        self.label = np.empty(m if self.count > 1 else 0, dtype=np.uint8)
        self.held = np.zeros(self.count, dtype=np.int64)  # codewords per bucket
        self.at = 0

    def put(self, k: np.ndarray) -> None:
        """Write the int64 ranks k of the next block."""
        at, self.at = self.at, self.at + len(k)
        self.words[at : self.at] = k  # a uint32 word keeps the low 32 bits of a rank
        if self.count > 1:
            self.label[at : self.at] = k >> _WORD
            self.held += np.bincount(self.label[at : self.at], minlength=self.count)
        else:
            self.held[0] += len(k)

    def sort(self) -> SortedRanks:
        """The ranks written, sorted in place."""
        buckets = np.concatenate(([0], np.cumsum(self.held)))
        if self.count > 1:
            _group(self.words, self.label, buckets)
        for b0, b1 in zip(buckets[:-1].tolist(), buckets[1:].tolist()):
            self.words[b0:b1].sort()
        return SortedRanks(self.words, buckets)


def _group(words: np.ndarray, label: np.ndarray, buckets: np.ndarray) -> None:
    """Move words in place so that bucket b fills positions buckets[b] to buckets[b + 1].

    label holds each word's bucket.  Bucket by bucket, the words in its
    positions that belong elsewhere swap places with its words further on,
    and their labels go with them.  Both are found _GROUP positions at a
    time, so no temporary grows with m.
    """
    for b, (i, end) in enumerate(zip(buckets[:-2].tolist(), buckets[1:-1].tolist())):
        j = end
        out = into = np.empty(0, dtype=np.int64)
        while i < end or len(out):
            if not len(out):
                out = i + np.flatnonzero(label[i : min(i + _GROUP, end)] != b)
                i += _GROUP
            elif not len(into):
                into = j + np.flatnonzero(label[j : j + _GROUP] == b)
                j += _GROUP
            else:
                t = min(len(out), len(into))
                o, w = out[:t], into[:t]
                words[o], words[w] = words[w], words[o]
                label[w] = label[o]
                out, into = out[t:], into[t:]
