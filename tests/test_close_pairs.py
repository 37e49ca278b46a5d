"""Close pairs are listed from the first 2·VIOLATION_CAP near codewords.

The certificate's ball walk marks every codeword within distance 1 of
another, and the report looks up only the first 2·VIOLATION_CAP of them
by index.  The first code here has more near codewords than that, and
its first VIOLATION_CAP close pairs are disjoint, so each of them needs
both of its codewords looked up.  The second plants ``t2 t2`` in thm1
n = 11, so every close pair holds one of the two new codewords, wherever
they sit, and the walk must mark them in every slab.
Both are checked against references that share no code with the
certificate.
"""
import itertools
import random

import numpy as np
import pytest

from permsnake._pairdist import VIOLATION_CAP, _key, _near_indices, _ranks, min_pairwise_linf
from permsnake.constructions import GrayCode, snake_from_rmgc


def chebyshev_close_pairs(rows):
    """Every pair ((i, j), d), i < j, at Chebyshev distance d < 2, in order."""
    close = []
    for i, j in itertools.combinations(range(len(rows)), 2):
        d = max(abs(a - b) for a, b in zip(rows[i], rows[j]))
        if d < 2:
            close.append(((i, j), d))
    return close


def disjoint_close_pairs(n=10, blocks=101, seed=5):
    """Codewords of blocks of four pushes from the identity, most ending in a close pair.

    Each block takes two random pushes t3..tn, then the push bringing the
    first value adjacent to the front value to the front (a random push
    t3..tn if the front pair is already adjacent), then t2, which swaps
    the two adjacent values back: distance 1.
    """
    rng = random.Random(seed)
    p = list(range(1, n + 1))
    rows = [tuple(p)]

    def push(i):
        p.insert(0, p.pop(i - 1))
        rows.append(tuple(p))

    for _ in range(blocks):
        push(rng.randint(3, n))
        push(rng.randint(3, n))
        if abs(p[1] - p[0]) == 1:
            push(rng.randint(3, n))
        else:
            push(next(i for i in range(3, n + 1) if abs(p[i - 1] - p[0]) == 1))
        push(2)
    return rows


def test_listing_past_the_first_near_codewords():
    rows = disjoint_close_pairs()
    m = len(rows)
    close = chebyshev_close_pairs(rows)
    near = {k for (i, j), _ in close for k in (i, j)}
    first = close[:VIOLATION_CAP]
    # The shape that makes the cut matter: more near codewords than are
    # looked up, and the first pairs use 2·VIOLATION_CAP distinct codewords.
    assert (m, len(near)) == (405, 187)
    assert len(near) > 2 * VIOLATION_CAP
    assert len({k for (i, j), _ in first for k in (i, j)}) == 2 * VIOLATION_CAP
    assert min(d for _, d in close) == 1
    assert min_pairwise_linf(np.array(rows, dtype=np.uint8)) == (1, first, m * (m - 1) // 2)


@pytest.fixture(scope="module")
def thm1_n11():
    return snake_from_rmgc(11)


@pytest.mark.parametrize("where", ["start", "middle", "adjacent front", "end"])
def test_planted_repeat_at_scale(thm1_n11, where):
    t = thm1_n11.transitions
    if where == "adjacent front":
        # Past the middle, the first codeword whose front values are adjacent:
        # its t2 image is at distance 1 from it.
        front = thm1_n11._codewords[len(t) // 2 :, :2].astype(np.int64)
        k = len(t) // 2 + int(np.flatnonzero(abs(front[:, 0] - front[:, 1]) == 1)[0])
    else:
        k = {"start": 0, "middle": len(t) // 2, "end": len(t) - 3}[where]
    code = GrayCode(11, thm1_n11.start, (*t[:k], 2, 2, *t[k:]), True, "linf")
    arr = code._codewords
    m = len(arr)
    assert m == 90_002

    # Codeword k + 2 repeats codeword k, and k + 1 differs from both in its
    # front pair; the valid code has no close pair, so each close pair holds
    # one of the two.
    close = set()
    for r in (k + 1, k + 2):
        d = np.abs(arr.astype(np.int64) - arr[r]).max(axis=1)
        close.update(((min(r, j), max(r, j)), int(d[j])) for j in np.flatnonzero(d < 2) if j != r)
    seen = {}
    repeat = None
    for j, c in enumerate(map(tuple, arr.tolist())):
        if c in seen:
            repeat = (seen[c], j)
            break
        seen[c] = j
    assert repeat[1] <= k + 2
    assert len(close) < VIOLATION_CAP
    assert (where == "adjacent front") == any(d == 1 for _, d in close)
    expected = [(repeat, 0), *sorted(close - {(repeat, 0)})]
    assert min_pairwise_linf(arr) == (0, expected, m * (m - 1) // 2)


def test_near_indices_look_up_sorted_ranks_and_repeats():
    """Every codeword whose rank is wanted is found, repeats in index order."""
    rows = np.array([[2, 1, 3], [1, 2, 3], [3, 2, 1], [2, 1, 3], [1, 3, 2]], dtype=np.uint8)
    ranks = _ranks(_key(rows, False))
    want = np.sort(ranks[[0, 4]])
    got_ranks, index = _near_indices(want, [rows[:2], rows[2:]], False)
    expected = sorted((r, i) for i, r in enumerate(ranks.tolist()) if r in want)
    assert (got_ranks.tolist(), index.tolist()) == tuple(map(list, zip(*expected)))
    got_ranks, index = _near_indices(want[:0], [rows], False)
    assert (len(got_ranks), len(index)) == (0, 0)
