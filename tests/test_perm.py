import doctest
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from permsnake import perm
from permsnake.errors import InvalidTransitionError
from permsnake.perm import (
    apply_sequence,
    apply_transition,
    compose,
    identity,
    inverse,
    kendall_distance,
    linf_distance,
    parity,
    parse_perm,
    parse_transitions,
    format_perm,
)
from permsnake.rmgc import RmgcSequence

from golden_rows import FIG1_ROWS, FIG1_TRANSITIONS, FIG2_ROWS, FIG2_TRANSITIONS


def random_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def test_doctests():
    failures, _ = doctest.testmod(perm)
    assert failures == 0


def test_apply_transition_examples():
    assert apply_transition((1, 2, 3), 2) == (2, 1, 3)
    assert apply_transition((1, 4, 2, 6, 3, 5), 3) == (2, 1, 4, 6, 3, 5)
    assert apply_transition((4, 2, 1, 6, 3, 5), 4) == (6, 4, 2, 1, 3, 5)


def test_apply_transition_rejects_bad_index():
    with pytest.raises(InvalidTransitionError):
        apply_transition((1, 2, 3), 1)
    with pytest.raises(InvalidTransitionError):
        apply_transition((1, 2, 3), 4)


def test_apply_transition_preserves_bijection():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 9)
        p = random_perm(rng, n)
        i = rng.randint(2, n)
        q = apply_transition(p, i)
        assert sorted(q) == list(range(1, n + 1))


def test_apply_sequence_block_rows():
    assert apply_sequence((1, 2, 3), ()) == [(1, 2, 3)]
    chain = apply_sequence((1, 4, 2, 6, 3, 5), FIG1_TRANSITIONS)
    assert chain == FIG1_ROWS
    chain = apply_sequence((1, 4, 2, 6, 3, 5), FIG2_TRANSITIONS)
    assert chain == FIG2_ROWS


def test_compose_convention():
    # compose(p, q)(i) = q(p(i)): p acts on positions first.
    assert compose((2, 1, 3), (1, 3, 2)) == (3, 1, 2)
    assert compose((1, 3, 2), (2, 1, 3)) == (2, 3, 1)
    assert compose(identity(3), (3, 1, 2)) == (3, 1, 2)
    assert compose((2, 1, 3), (2, 1, 3)) == (1, 2, 3)
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_inverse():
    assert inverse((1, 2, 3)) == (1, 2, 3)
    assert inverse((2, 1, 3)) == (2, 1, 3)
    assert inverse((2, 3, 1)) == (3, 1, 2)
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 10)
        p = random_perm(rng, n)
        assert compose(p, inverse(p)) == identity(n)
        assert compose(inverse(p), p) == identity(n)


def test_parity_basics():
    assert parity((1, 2, 3)) == 0
    assert parity((2, 1, 3)) == 1
    assert parity((2, 3, 1)) == 0


def test_parity_flip_rule():
    # Pushing position i to the front is an i-cycle: parity flips iff i even.
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 8)
        p = random_perm(rng, n)
        for i in range(2, n + 1):
            flipped = parity(apply_transition(p, i)) != parity(p)
            assert flipped == (i % 2 == 0)


def test_parity_matches_inversion_count():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = random_perm(rng, n)
        assert parity(p) == kendall_distance(p, identity(n)) % 2


def test_linf_examples():
    assert linf_distance((1, 2, 3), (1, 2, 3)) == 0
    assert linf_distance((1, 2, 3), (2, 1, 3)) == 1
    assert linf_distance((1, 4, 2, 6, 3, 5), (2, 1, 4, 6, 3, 5)) == 3


def test_kendall_examples():
    assert kendall_distance((1, 2, 3), (1, 2, 3)) == 0
    assert kendall_distance((1, 2, 3), (2, 1, 3)) == 1
    assert kendall_distance((1, 2, 3), (3, 2, 1)) == 3


def test_kendall_brute_force_agreement():
    # Independent definition: count value pairs ordered oppositely.
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(2, 7)
        p, q = random_perm(rng, n), random_perm(rng, n)
        pinv, qinv = inverse(p), inverse(q)
        expected = sum(
            1
            for u, v in itertools.combinations(range(1, n + 1), 2)
            if (pinv[u - 1] < pinv[v - 1]) != (qinv[u - 1] < qinv[v - 1])
        )
        assert kendall_distance(p, q) == expected


@pytest.mark.parametrize("dist", [linf_distance, kendall_distance])
def test_metric_axioms(dist):
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(2, 8)
        p, q, r = (random_perm(rng, n) for _ in range(3))
        assert dist(p, q) == dist(q, p)
        assert (dist(p, q) == 0) == (p == q)
        assert dist(p, r) <= dist(p, q) + dist(q, r)


def test_kendall_right_invariance():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 8)
        p, q, r = (random_perm(rng, n) for _ in range(3))
        assert kendall_distance(p, q) == kendall_distance(compose(p, r), compose(q, r))


def test_same_parity_mixed_prefix_pairs_spread():
    # Two distinct same-parity words whose first m+1 slots mix one
    # odd-one-out into a same-parity set, over an identical tail, are
    # always at Chebyshev distance >= 2.
    rng = random.Random(8)
    checked = 0
    while checked < 200:
        n = rng.randint(5, 9)
        same = [v for v in range(1, n + 1) if v % 2 == 1]
        other = [v for v in range(1, n + 1) if v % 2 == 0]
        if rng.random() < 0.5:
            same, other = other, same
        m = rng.randint(2, len(same))
        prefix_values = rng.sample(same, m) + [rng.choice(other)]
        tail = [v for v in range(1, n + 1) if v not in prefix_values]
        rng.shuffle(tail)
        first = tuple(rng.sample(prefix_values, m + 1)) + tuple(tail)
        second = tuple(rng.sample(prefix_values, m + 1)) + tuple(tail)
        if first == second or parity(first) != parity(second):
            continue
        checked += 1
        assert linf_distance(first, second) >= 2, (first, second)


def test_text_round_trips():
    assert parse_perm("1 4 2 6 3 5") == (1, 4, 2, 6, 3, 5)
    assert format_perm((1, 4, 2, 6, 3, 5)) == "1 4 2 6 3 5"
    assert parse_transitions("t3 t3 t2") == (3, 3, 2)
    assert parse_transitions("3  3\n2") == (3, 3, 2)
    with pytest.raises(ValueError):
        parse_perm("1 2 2")
    with pytest.raises(ValueError):
        parse_perm("1 x 3")
    with pytest.raises(ValueError):
        parse_transitions("tx")


def walk_cases():
    """(n, length) pairs: the smallest lengths and both sides of a chunk edge k*k."""
    for n in (2, 3, 9, 12, 20, 256, 300):
        for k in (3, 8):
            for m in (0, 1, 2, k * k - 1, k * k, k * k + 1):
                yield n, m


@pytest.mark.parametrize("n, m", sorted(set(walk_cases())))
def test_lockstep_walk_matches_apply_sequence(n, m):
    rng = random.Random(1000 * n + m)
    start = random_perm(rng, n)
    pushes = tuple(rng.randint(2, n) for _ in range(m))
    expected = [list(p) for p in apply_sequence(start, pushes)]
    inputs = [pushes, bytes(pushes)] if n <= 255 else [pushes]
    for given in inputs:
        chain = perm._walk(start, given)
        assert chain.shape == (m + 1, n)
        assert chain.tolist() == expected
        code = perm.GrayCode(n, start, given, False, perm.METRIC_LINF)
        assert list(code.end) == chain[-1].tolist()


def test_walk_of_three_pushes_over_65536_symbols():
    """The move table holds a row per push value that occurs, not n + 1 rows of n."""
    n = 65536
    start = random_perm(random.Random(n), n)
    pushes = (n, 2, n)
    tracemalloc.start()
    try:
        chain = perm._walk(start, pushes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain.dtype == np.uint32
    assert chain.tolist() == [list(p) for p in apply_sequence(start, pushes)]
    # The chain is 1 MB; a table of n + 1 int64 rows of n would be 34.4 GB.
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [3, 12, 300])
def test_walk_names_the_first_bad_push(n):
    """A code with a push outside 2..n is refused when it is made, so no walk sees one."""
    for bad in (1, n + 1, 0, -2, 256):
        if 2 <= bad <= n:
            continue  # 256 is a push at n = 300
        pushes = (2, n, bad, 2, 0)
        message = f"^transition index {bad} outside 2..{n}$"
        inputs = [pushes, bytes(pushes)] if 0 <= bad <= 255 and n <= 255 else [pushes]
        for given in inputs:
            with pytest.raises(InvalidTransitionError, match=message):
                perm.pack_pushes(given, n)
            with pytest.raises(InvalidTransitionError, match=message):
                perm.GrayCode(n, identity(n), given, True, perm.METRIC_LINF)


def push_forms(pushes):
    """The same pushes as a list, a tuple, bytes, a uint8 array and an int64 array."""
    return [list(pushes), tuple(pushes), bytes(pushes), np.array(pushes, dtype=np.uint8),
            np.array(pushes, dtype=np.int64)]


@pytest.mark.parametrize("n", [3, 255, 256, 300])
def test_pushes_pack_alike_whatever_sequence_they_come_as(n):
    rng = random.Random(n)
    start = random_perm(rng, n)
    pushes = [rng.randint(2, min(n, 255)) for _ in range(40)]
    codes = {perm.GrayCode(n, start, given, True, perm.METRIC_LINF) for given in push_forms(pushes)}
    assert len(codes) == 1
    (code,) = codes
    assert code.pushes == (bytes(pushes) if n <= 255 else tuple(pushes))
    assert code._chain.tolist() == [list(p) for p in apply_sequence(start, pushes)]
    at_n = [n] * 3 + pushes  # above 255 only a tuple or an int64 array holds n
    assert perm.pack_pushes(at_n, n) == perm.pack_pushes(np.array(at_n), n)


@pytest.mark.parametrize("n", [3, 4])
def test_gray_code_and_rmgc_name_the_same_first_bad_push(n):
    size = math.factorial(n)
    for bad in (1, n + 1, 0, -2, 256):
        pushes = [n] * (size - 4) + [2, bad, 3, 0]
        expected = f"transition index {bad} outside 2..{n}"
        forms = push_forms(pushes) if 0 <= bad <= 255 else [pushes, tuple(pushes), np.array(pushes)]
        for given in forms:
            for make in (
                lambda: perm.GrayCode(n, identity(n), given, True, perm.METRIC_LINF),
                lambda: RmgcSequence(n, given),
            ):
                with pytest.raises(InvalidTransitionError) as raised:
                    make()
                assert str(raised.value) == expected
