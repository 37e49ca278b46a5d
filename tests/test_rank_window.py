"""The rank window of the ball certificate at its slab edges.

Up to n = 13 the certificate looks ranks up in a window of two slabs, a
slab being the (n-1)! ranks of one leading Lehmer digit.  Each code
here holds exactly one pair at distance 1, planted across a slab edge,
inside slab 0 or inside the last slab, under either metric.  The ball
walk must mark exactly the first and the last codeword as near, must mark
none once the partner is dropped, and the certificate must equal the
pairwise scan.
"""
import math

import numpy as np
import pytest

from permsnake._pairdist import (
    _ball,
    _keys,
    _kendall_dist,
    _linf_dist,
    _near,
    _order_bitmaps,
    _pairwise_scan,
    _ranks,
    min_pairwise_kendall,
    min_pairwise_linf,
)
from permsnake.perm import METRIC_KENDALL, METRIC_LINF, GrayCode


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
    key, _ = _keys(arr, kendall)
    ranks = _ranks(key)
    order = np.argsort(ranks, kind="stable")

    def ball(rows, k):
        return _ball(_keys(rows, kendall)[1], k, matchings=not kendall)

    return set(order[_near(arr, order, ranks[order], ball)].tolist())


@pytest.mark.parametrize("case", ["edge", "slab 0", "last slab"])
@pytest.mark.parametrize("metric", [METRIC_LINF, METRIC_KENDALL])
@pytest.mark.parametrize("n", [9, 11, 12, 13])
def test_window_finds_the_planted_pair(n, metric, case):
    code = planted(n, metric, case)
    arr = code._codewords
    kendall = metric == METRIC_KENDALL
    m = len(arr)
    slabs = (_ranks(_keys(arr[[0, -1]], kendall)[0]) // math.factorial(n - 1)).tolist()
    assert slabs == {"edge": [5, 6] if not kendall else [1, 0], "slab 0": [0, 0], "last slab": [n - 1] * 2}[case]

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
