"""The rank step function of the ball certificate against brute force.

Permutations are ranked by their index in lexicographic order, as
``itertools.permutations`` lists them, and balls are found by comparing
a permutation with every other one; neither shares code with
``_pairdist``.  For every p with n <= 6, and for sampled p with n = 7,
the certificate's Chebyshev ball must be the ranks of the q at Chebyshev
distance 1 from p, and its Kendall ball must be the ranks of q⁻¹ for the
q at Kendall distance 1, each neighbour listed once.
"""
import itertools
import random

import numpy as np
import pytest

from permsnake._pairdist import _ball, _keys, _ranks


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


def certificate_balls(rows, kendall_metric):
    """Sorted neighbour ranks per row, and each row's own rank, from ``_pairdist``."""
    key, inv = _keys(rows, kendall_metric)
    k = _ranks(key)
    neighbours = list(_ball(inv, k, matchings=not kendall_metric))
    if not neighbours:
        return k, [[] for _ in range(len(rows))]
    return k, np.sort(np.stack(neighbours), axis=0).T.tolist()


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
    assert len(list(_ball(_keys(rows, False)[1], _ranks(_keys(rows, False)[0]), True))) == 12
    assert len(list(_ball(_keys(rows, True)[1], _ranks(_keys(rows, True)[0]), False))) == 5
