"""The ball certificate's rank lookup at its slab edges.

Slab s is the (n-1)! ranks whose key leads with the 0-based value s.
Up to n = 13 the certificate looks ranks up in a window of one slab,
and a pair across the edge of slabs s and s+1, which swaps pair s, is
looked up from whichever of the two slabs holds fewer codewords.  For
n = 14 and n = 20 one pass walks each batch of codewords' whole balls
and binary-searches all the sorted ranks, whatever the slabs; at n = 20
the last slab holds ranks next to 20! - 1, the top of what an int64
rank holds.
Each code here holds exactly one pair at distance 1, planted across a
slab edge, inside slab 0 or inside the last slab, under either metric,
or across each edge in turn, with either side of the edge the larger.
The ball walk must mark exactly the first and the last codeword as
near, must mark none once the partner is dropped, and the certificate
must equal the pairwise scan.  A code with one codeword in each of the
20 slabs must walk one ball per batch, not one per slab and edge.
The window is read a byte first: a looked-up rank that shares a byte
with a codeword but not its bit marks nothing, and close pairs at bit 0
and bit 7 of a byte are both found.
"""
import math
import random

import numpy as np
import pytest

from permsnake import _pairdist
from permsnake._pairdist import (
    _key,
    _kendall_dist,
    _linf_dist,
    _near,
    _order_bitmaps,
    _pairwise_scan,
    _ranks,
    min_pairwise_kendall,
    min_pairwise_linf,
)
from permsnake.perm import METRIC_KENDALL, METRIC_LINF, GrayCode, inverse, kendall_distance, linf_distance


def route(p, target):
    """Pushes from p to target: target's values are pushed to the front, last first."""
    cur, out = list(p), []
    for x in reversed(target):
        i = cur.index(x) + 1
        if i > 1:
            out.append(i)
            cur.insert(0, cur.pop(i - 1))
    assert tuple(cur) == tuple(target)
    return tuple(out)


def swap_values(p, v):
    """p with the values v and v+1 exchanged: Chebyshev distance 1."""
    return tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)


def swap_positions(p, a):
    """p with the values at 0-based positions a and a+1 exchanged: Kendall distance 1."""
    q = list(p)
    q[a], q[a + 1] = q[a + 1], q[a]
    return tuple(q)


def planted(n, metric, case):
    """A noncyclic code from p to its partner q, and the slabs p and q key into.

    Chebyshev keys p by p, so its slab is p's first value less one;
    Kendall keys p by p⁻¹, so its slab is the position of the value 1 less one.
    """
    values = range(1, n + 1)
    if metric == METRIC_LINF:
        front = {"edge": (6, 7), "slab 0": (1,), "last slab": (n,)}[case]
        p = (*front, *(v for v in values if v not in front))
        q = swap_values(p, 6)
    else:
        p = {
            "edge": (2, 1, *values[2:]),
            "slab 0": tuple(values),
            "last slab": (*values[1:], 1),
        }[case]
        q = swap_positions(p, 0 if case == "edge" else 5)
    return GrayCode(n, p, route(p, q), False, metric)


def window_hit(arr, kendall):
    """The indices of the codewords that the ball walk marks as near."""
    ranks = _ranks(_key(arr, kendall))
    order = np.argsort(ranks, kind="stable")
    sranks = ranks[order]
    runs = np.flatnonzero(sranks[1:] == sranks[:-1])
    return set(order[_near(sranks, runs, arr.shape[1], kendall)].tolist())


@pytest.mark.parametrize("case", ["edge", "slab 0", "last slab"])
@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
@pytest.mark.parametrize("n", [9, 11, 12, 13, 14, 20])
def test_window_finds_the_planted_pair(n, metric, case):
    code = planted(n, metric, case)
    arr = code._codewords
    kendall = metric == METRIC_KENDALL
    slabs = (_ranks(_key(arr[[0, -1]], kendall)) // math.factorial(n - 1)).tolist()
    assert slabs == {"edge": [5, 6] if not kendall else [1, 0], "slab 0": [0, 0], "last slab": [n - 1] * 2}[case]

    assert_one_close_pair(arr, kendall)


def assert_one_close_pair(arr, kendall):
    """The first and last codewords are the one pair at distance 1, and every check says so."""
    m = len(arr)
    x = _order_bitmaps(arr) if kendall else arr
    dist = _kendall_dist if kendall else _linf_dist
    best, violations = _pairwise_scan(x, dist)
    assert (best, violations) == (1, [((0, m - 1), 1)])
    assert window_hit(arr, kendall) == {0, m - 1}
    certify = min_pairwise_kendall if kendall else min_pairwise_linf
    assert certify(arr) == (best, violations, m * (m - 1) // 2)

    # Without the partner no pair is close, and the walk marks nothing.
    assert _pairwise_scan(x[:-1], dist)[0] >= 2
    assert window_hit(arr[:-1], kendall) == set()


def across_edge(n, metric, s):
    """A noncyclic code from p in slab s to its partner q in slab s+1.

    Chebyshev: p leads with the value s+1, and q swaps pair s (the values
    s+1 and s+2) and one more pair, three values away.  Kendall: p holds
    the value 1 at 0-based position s, and q swaps positions s and s+1.
    """
    values = range(1, n + 1)
    if metric == METRIC_LINF:
        p = (s + 1, *(v for v in values if v != s + 1))
        q = swap_values(swap_values(p, s + 1), s + 4 if s + 4 < n else s - 2)
    else:
        p = (*values[1 : s + 1], 1, *values[s + 1 :])
        q = swap_positions(p, s)
    return GrayCode(n, p, route(p, q), False, metric)


def with_filler(arr, kendall, slab, rng, count=3):
    """arr with count more codewords keyed into slab, each at distance >= 2 from every other.

    They go before the last codeword, so the first and the last stay the
    planted pair.
    """
    n = arr.shape[1]
    dist = kendall_distance if kendall else linf_distance
    rows = [tuple(r) for r in arr.tolist()]
    filler = []
    while len(filler) < count:
        key = (slab + 1, *rng.sample([v for v in range(1, n + 1) if v != slab + 1], n - 1))
        row = inverse(key) if kendall else key
        if all(dist(row, other) >= 2 for other in rows + filler):
            filler.append(row)
    return np.array(rows[:-1] + filler + rows[-1:], dtype=arr.dtype)


@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
@pytest.mark.parametrize("n", [9, 12, 13, 14])
def test_window_finds_a_pair_across_every_slab_edge(n, metric):
    kendall = metric == METRIC_KENDALL
    rng = random.Random(n)
    for s in range(n - 1):
        code = across_edge(n, metric, s)._codewords
        slabs = _ranks(_key(code[[0, -1]], kendall)) // math.factorial(n - 1)
        assert slabs.tolist() == [s, s + 1]
        # Fill either side of the edge, so that each side is the larger once.
        for larger in (s, s + 1):
            arr = with_filler(code, kendall, larger, rng)
            held = np.bincount(_ranks(_key(arr, kendall)) // math.factorial(n - 1), minlength=n)
            assert held[larger] > held[2 * s + 1 - larger]
            assert_one_close_pair(arr, kendall)


@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
def test_one_ball_walk_per_batch_above_n13(monkeypatch, metric):
    # The rotations of 1..20 lead with every value and hold the value 1
    # at every position, so each of the 20 slabs holds one codeword.
    n = 20
    arr = np.array([[*range(s + 1, n + 1), *range(1, s + 1)] for s in range(n)], dtype=np.uint8)
    kendall = metric == METRIC_KENDALL
    slabs = _ranks(_key(arr, kendall)) // math.factorial(n - 1)
    assert sorted(slabs.tolist()) == list(range(n))
    calls = []
    ball = _pairdist._ball
    monkeypatch.setattr(_pairdist, "_ball", lambda *a, **kw: calls.append(1) or ball(*a, **kw))
    assert window_hit(arr, kendall) == set()
    assert len(calls) == math.ceil(len(arr) / _pairdist._CHUNK)


def unrank(r, n):
    """The permutation of 1..n with Lehmer rank r."""
    left, out = list(range(1, n + 1)), []
    for a in range(n - 1, -1, -1):
        digit, r = divmod(r, math.factorial(a))
        out.append(left.pop(digit))
    return tuple(out)


def probed(row, kendall):
    """The in-slab ranks that one codeword's oriented ball looks up in the window."""
    rows = np.array([row], dtype=np.uint8)
    k = _ranks(_key(rows, kendall))
    s = int(k[0]) // math.factorial(len(row) - 1)
    return [int(q) for _, t in _pairdist._ball(_key(rows, not kendall), k, kendall, avoid=(s - 1, s)) for q in t]


def codeword(key, kendall):
    return inverse(key) if kendall else key


def assert_certified_as_scanned(rows, kendall, near):
    """The ball walk marks exactly near, and the certificate equals the pairwise scan."""
    arr = np.array(rows, dtype=np.uint8)
    m = len(arr)
    best, violations = _pairwise_scan(_order_bitmaps(arr) if kendall else arr, _kendall_dist if kendall else _linf_dist)
    assert window_hit(arr, kendall) == near
    certify = min_pairwise_kendall if kendall else min_pairwise_linf
    assert certify(arr) == (best, violations, m * (m - 1) // 2)
    return best, violations


@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
@pytest.mark.parametrize("n", [9, 12])
def test_a_rank_sharing_a_byte_with_a_codeword_marks_nothing(n, metric):
    # The window is tested a byte first; a neighbour of p in the byte of a
    # codeword c must still miss when its bit is not c's.
    kendall = metric == METRIC_KENDALL
    dist = kendall_distance if kendall else linf_distance
    rng = random.Random(n)
    found = 0
    while found < 3:
        p = tuple(rng.sample(range(1, n + 1), n))
        for r in probed(p, kendall):
            c = codeword(unrank(r ^ (1 << rng.randrange(3)), n), kendall)
            if dist(p, c) >= 2:
                best, _ = assert_certified_as_scanned([p, c], kendall, set())
                assert best >= 2
                found += 1
                break


@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
@pytest.mark.parametrize("n", [9, 12])
def test_close_pairs_at_bit_0_and_bit_7_of_a_byte(n, metric):
    kendall = metric == METRIC_KENDALL
    rng = random.Random(10 * n + kendall)
    ends = {}
    while len(ends) < 2:
        p = tuple(rng.sample(range(1, n + 1), n))
        for r in probed(p, kendall):
            if r % 8 in (0, 7) and r % 8 not in ends:
                ends[r % 8] = [p, codeword(unrank(r, n), kendall)]
                break
    rows = ends[0] + ends[7]
    best, violations = assert_certified_as_scanned(rows, kendall, {0, 1, 2, 3})
    assert best == 1 and {((0, 1), 1), ((2, 3), 1)} <= set(violations)
