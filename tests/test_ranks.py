"""The rank step function of the ball certificate against brute force.

Permutations are ranked by their index in lexicographic order, as
``itertools.permutations`` lists them, and balls are found by comparing
a permutation with every other one; neither shares code with
``_pairdist``.  For every p with n <= 6, and for sampled p with n = 7,
the certificate's Chebyshev ball must be the ranks of the q at Chebyshev
distance 1 from p, and its Kendall ball must be the ranks of q⁻¹ for the
q at Kendall distance 1, each neighbour listed once.  At n = 20, where
ranks reach 20! - 1, the ranks and balls of three rows are checked
against Lehmer ranks in Python ints of the explicitly swapped rows.
The certificate splits each ball by slab; the parts must make up the
whole ball and land in the slabs that the split claims.  Inside a slab
only one end of each distance-1 pair looks it up; the edge groups take
the pairs across slab edges.
"""
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from permsnake._pairdist import _ball, _key, _ranks


def all_perms(n):
    """The (n!, n) array of permutations of 1..n in lexicographic order."""
    return np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.uint16).reshape(-1, n)


def inverses(perms):
    inv = np.empty_like(perms)
    rows = np.arange(len(perms))[:, None]
    inv[rows, perms - 1] = np.arange(1, perms.shape[1] + 1, dtype=perms.dtype)
    return inv


def lex_rank(perms, n):
    """Row index of each permutation in ``all_perms(n)``."""
    index = {p: r for r, p in enumerate(itertools.permutations(range(1, n + 1)))}
    return np.array([index[tuple(p)] for p in perms.tolist()], dtype=np.int64)


def chebyshev(p, table):
    return np.abs(table.astype(np.int32) - p.astype(np.int32)).max(axis=1)


def kendall(p, table):
    """Number of value pairs that p and each row of table order oppositely."""
    n = len(p)
    pos_p, pos_t = inverses(p[None])[0].astype(np.int32), inverses(table).astype(np.int32)
    d = np.zeros(len(table), dtype=np.int64)
    for u, v in itertools.combinations(range(n), 2):
        d += (pos_p[u] < pos_p[v]) != (pos_t[:, u] < pos_t[:, v])
    return d


def ball_lists(rows, k, kendall_metric, **split):
    """Each row's sorted neighbour ranks, from the tables of its whole ball in ``_pairdist``."""
    balls = [[] for _ in range(len(rows))]
    for cols, q in _ball(_key(rows, not kendall_metric), k, kendall_metric, both=True, **split):
        table = q.reshape(-1, len(cols))  # column j: neighbours of row cols[j]
        for j, r in enumerate(cols.tolist()):
            balls[r].extend(table[:, j].tolist())
    return [sorted(b) for b in balls]


def certificate_balls(rows, kendall_metric):
    """Sorted neighbour ranks per row, and each row's own rank, from ``_pairdist``."""
    k = _ranks(_key(rows, kendall_metric))
    return k, ball_lists(rows, k, kendall_metric)


def check(rows, n):
    table = all_perms(n)
    table_ranks = np.arange(len(table))
    inv_ranks = lex_rank(inverses(table), n)
    own_linf, linf_balls = certificate_balls(rows, False)
    own_kendall, kendall_balls = certificate_balls(rows, True)
    assert own_linf.tolist() == lex_rank(rows, n).tolist()
    assert own_kendall.tolist() == lex_rank(inverses(rows), n).tolist()
    for r, p in enumerate(rows):
        assert linf_balls[r] == sorted(table_ranks[chebyshev(p, table) == 1].tolist())
        assert kendall_balls[r] == sorted(inv_ranks[kendall(p, table) == 1].tolist())


@pytest.mark.parametrize("n", range(1, 7))
def test_every_ball_up_to_n6(n):
    check(all_perms(n), n)


def test_sampled_balls_at_n7():
    rng = random.Random(7)
    rows = np.array([rng.sample(range(1, 8), 7) for _ in range(40)], dtype=np.uint16)
    check(rows, 7)


def test_ball_sizes():
    # F(n+1) - 1 Chebyshev neighbours (F the Fibonacci numbers), n - 1 Kendall.
    rows = all_perms(6)[:1]
    assert len(certificate_balls(rows, False)[1][0]) == 12
    assert len(certificate_balls(rows, True)[1][0]) == 5


def lehmer(p):
    """The Lehmer rank of a permutation of 1..n, in Python ints."""
    n = len(p)
    return sum(sum(q < p[a] for q in p[a + 1 :]) * math.factorial(n - 1 - a) for a in range(n))


def inverse(p):
    inv = [0] * len(p)
    for a, v in enumerate(p):
        inv[v - 1] = a + 1
    return tuple(inv)


def value_swaps(p, lowest=1):
    """p with the values of each nonempty set of disjoint pairs {v, v+1}, v >= lowest, swapped."""
    for v in range(lowest, len(p)):
        q = tuple(v + 1 if x == v else v if x == v + 1 else x for x in p)
        yield q
        yield from value_swaps(q, v + 2)


def test_ranks_and_balls_at_n20_against_python_ints():
    n = 20
    drawn = tuple(random.Random(20).sample(range(1, n + 1), n))
    rows = [tuple(range(1, n + 1)), tuple(range(n, 0, -1)), drawn]
    own_linf, linf_balls = certificate_balls(np.array(rows, dtype=np.uint8), False)
    own_kendall, kendall_balls = certificate_balls(np.array(rows, dtype=np.uint8), True)
    assert own_linf.tolist()[:2] == own_kendall.tolist()[:2] == [0, math.factorial(n) - 1]
    assert math.factorial(n) - 1 == 2_432_902_008_176_639_999
    for r, p in enumerate(rows):
        assert own_linf[r] == lehmer(p)
        assert own_kendall[r] == lehmer(inverse(p))
        linf = sorted(lehmer(q) for q in value_swaps(p))
        assert len(linf) == 10_945  # F(21) - 1
        assert linf_balls[r] == linf
        kendall_ball = []
        for a in range(n - 1):
            q = list(p)
            q[a], q[a + 1] = q[a + 1], q[a]
            kendall_ball.append(lehmer(inverse(q)))
        assert kendall_balls[r] == sorted(kendall_ball)


def slab_rows(rng, n, s, kendall_metric, count=4):
    """Random codewords whose key (p, or p⁻¹ under Kendall) leads with the 0-based value s."""
    rows = []
    for _ in range(count):
        key = tuple(v + 1 for v in [s, *rng.sample([v for v in range(n) if v != s], n - 1)])
        rows.append(inverse(key) if kendall_metric else key)
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("kendall_metric", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 13, 14, 20])
def test_slab_split_of_the_ball(n, kendall_metric):
    """A ball is its steps inside the slab plus those that swap the pair up or down out of it.

    Slab s holds the keys that lead with the value s.  Only pair s-1
    (values s-1 and s) and pair s move that value, so the neighbours that
    swap neither stay in slab s, those that swap pair s land in slab s+1,
    and those that swap pair s-1 in slab s-1.
    """
    rng = random.Random(100 * n + kendall_metric)
    slab = math.factorial(n - 1)
    for s in range(n):
        rows = slab_rows(rng, n, s, kendall_metric)
        k = _ranks(_key(rows, kendall_metric))
        assert (k // slab == s).all()
        parts = [(ball_lists(rows, k, kendall_metric, avoid=(s - 1, s)), s)]
        if s < n - 1:
            parts.append((ball_lists(rows, k, kendall_metric, lead=s), s + 1))
        if s:
            parts.append((ball_lists(rows, k, kendall_metric, lead=s - 1), s - 1))
        for balls, to in parts:
            assert all(q // slab == to for ball in balls for q in ball)
        whole = ball_lists(rows, k, kendall_metric)
        for r in range(len(rows)):
            assert sorted(q for balls, _ in parts for q in balls[r]) == whole[r]


def listed(row, kendall_metric, by_slab):
    """The ranks that one codeword looks up, with repeats.

    By slab (the walk up to n = 14), slab s probes its oriented ball
    without pairs s-1 and s, and the pairs across the edge to slab s+1
    are taken here from the lower slab.  Otherwise (the one pass above
    n = 14) each codeword probes its whole oriented ball.
    """
    n = len(row)
    rows = np.array([row], dtype=np.uint8)
    k = _ranks(_key(rows, kendall_metric))
    s = int(k[0]) // math.factorial(n - 1)
    splits = [{"avoid": (s - 1, s)}, *([{"lead": s}] if s < n - 1 else [])] if by_slab else [{}]
    return Counter(q for split in splits for _, t in _ball(_key(rows, not kendall_metric), k, kendall_metric, **split) for q in t.tolist())


def neighbours(p, kendall_metric):
    """Every q at distance 1 from p, by value swaps (Chebyshev) or position swaps (Kendall)."""
    if not kendall_metric:
        return list(value_swaps(p))
    return [p[:a] + (p[a + 1], p[a]) + p[a + 2 :] for a in range(len(p) - 1)]


@pytest.mark.parametrize("kendall_metric", [False, True])
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 13, 14, 20])
def test_one_end_of_each_close_pair_looks_it_up(n, kendall_metric):
    """Of the two ends of a distance-1 pair, exactly one lists the other.

    Swapping a matching reverses its lowest pair, so only the end where
    that pair ascends probes it; by slab, a pair across a slab edge is
    left to the edge groups.  For random codewords, by slab and in one
    pass, every neighbour (a sample of 25 above n = 9) must be listed
    exactly once, from one end, and nothing outside the ball is listed.
    """
    rng = random.Random(1000 * n + kendall_metric)
    rank = (lambda p: lehmer(inverse(p))) if kendall_metric else lehmer
    for _ in range(6 if n <= 9 else 3):
        p = tuple(rng.sample(range(1, n + 1), n))
        ball = neighbours(p, kendall_metric)
        ranks = {rank(q) for q in ball}
        for by_slab in (True, False):
            from_p = listed(p, kendall_metric, by_slab)
            assert set(from_p) <= ranks
            for q in ball if n <= 9 else rng.sample(ball, min(25, len(ball))):
                assert from_p[rank(q)] + listed(q, kendall_metric, by_slab)[rank(p)] == 1
