"""Differential and pinned tests for the two searches.

``path_scan_max_snake`` is the maximum-snake oracle as it was written
before it numbered S_n: it tests each child against the whole path with
its own distance functions.  ``exhaustive_max_snake`` must return the
same best size and the same witness under every budget, so node order
and node counts are unchanged too.  ``tuple_ksnake_search`` is the
Kendall-snake search as it was written before it numbered cosets up to
8!/2: tuple vertices, and a tuple BFS for the number of reachable
vertices, above which a target is rejected.  ``search_ksnake`` must match
its node count, exhaustion and snake.  The Kendall-snake search is also
pinned by node counts, which any change to move order or pruning would
move, and by a sha256 of each found snake's pushes, which pins the move
trail it rebuilds from the path.
"""
import functools
import hashlib
import itertools
import tracemalloc

import pytest

from permsnake.ksnake import search_ksnake, verify_snake
from permsnake.verify import exhaustive_max_snake


def push(p, i):
    return (p[i - 1],) + p[: i - 1] + p[i:]


def linf(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def kendall(p, q):
    where = {v: k for k, v in enumerate(q)}
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if where[p[a]] > where[p[b]])


def path_scan_max_snake(n, metric, cyclic, budget):
    """(best size, (start, transitions) of the witness) by a path-scanning DFS."""
    dist = functools.lru_cache(maxsize=None)(linf if metric == "linf" else kendall)
    moves = range(2, n + 1)
    perms = list(itertools.permutations(range(1, n + 1)))
    starts = perms[:1] if metric == "kendall" else perms
    best, witness, nodes = 0, None, 0
    for start in starts:
        path, trail = [start], []
        stack = [[(i, push(start, i)) for i in moves]]
        if not cyclic and best < 1:
            best, witness = 1, (start, ())
        while stack:
            if not stack[-1]:
                stack.pop()
                if trail:
                    path.pop()
                    trail.pop()
                continue
            move, child = stack[-1].pop(0)
            nodes += 1
            if budget is not None and nodes > budget:
                return best, witness
            if any(dist(child, p) < 2 for p in path):
                continue
            path.append(child)
            trail.append(move)
            if cyclic:
                close = [i for i in moves if push(child, i) == start]
                if close and len(path) > best and len(path) >= 2:
                    best, witness = len(path), (start, tuple(trail + close[:1]))
            elif len(path) > best:
                best, witness = len(path), (start, tuple(trail))
            stack.append([(i, push(child, i)) for i in moves])
    return best, witness


CASES = [
    (n, metric, cyclic, budget)
    for metric in ("linf", "kendall")
    for cyclic in (True, False)
    for n, budget in [
        *((n, b) for n in (2, 3, 4) for b in (0, 1, 50, 1_000, None)),
        *((5, b) for b in (0, 1, 50, 1_000, 20_000)),
    ]
]


@pytest.mark.parametrize("n, metric, cyclic, budget", CASES)
def test_max_snake_matches_the_path_scan(n, metric, cyclic, budget):
    best, witness = exhaustive_max_snake(n, metric, cyclic, node_budget=budget)
    expected_best, expected_witness = path_scan_max_snake(n, metric, cyclic, budget)
    assert best == expected_best
    got = None if witness is None else (witness.start, witness.transitions)
    assert got == expected_witness
    if witness is not None:
        assert witness.cyclic == cyclic and witness.metric_tag == metric


def unpush(p, i):
    return p[1:i] + (p[0],) + p[i:]


@functools.lru_cache(maxsize=None)
def reachable_size(n):
    """How many permutations t_3, t_5, ... reach from the identity: a tuple BFS."""
    moves = range(3, n + 1, 2)
    seen, frontier = set(), {tuple(range(1, n + 1))}
    while frontier:
        seen |= frontier
        frontier = {push(p, i) for p in frontier for i in moves} - seen
    return len(seen)


def tuple_ksnake_search(n, target, budget):
    """(nodes, exhausted, transitions or None) by a DFS over tuple vertices."""
    moves = tuple(range(3, n + 1, 2))
    start = tuple(range(1, n + 1))
    if target > reachable_size(n):
        return 0, True, None
    closers = {unpush(start, i): i for i in moves}

    nodes = 0
    path, trail, visited = [start], [], {start}
    stack = [[(i, push(start, i)) for i in moves]]
    while stack:
        if not stack[-1]:
            stack.pop()
            if trail:
                trail.pop()
                visited.discard(path.pop())
            continue
        move, child = stack[-1].pop(0)
        if child in visited:
            continue
        nodes += 1
        if nodes > budget:
            return nodes, False, None
        path.append(child)
        trail.append(move)
        visited.add(child)
        if len(path) >= target and child in closers:
            return nodes, False, tuple(trail + [closers[child]])
        stack.append([(i, push(child, i)) for i in moves])
    return nodes, True, None


KSNAKE_CASES = [
    *((n, t, b) for n in (3, 4) for t in (2, 3, 4) for b in (1, 1_000)),
    *((5, t, b) for t in (30, 57, 58) for b in (1_000, 30_000)),
    # The budget edges of the (5, 57) search: its snake closes at node 1,478.
    (5, 57, 0),
    (5, 57, 1_477),
    (5, 57, 1_478),
    *((6, t, b) for t in (20, 57, 61) for b in (1_000, 30_000)),
    *((n, t, b) for n in (7, 8) for t in (100, 1_000, 2_515) for b in (1_000, 100_000)),
    # n = 9 searches tuple vertices, so budgets stay small.
    *((9, t, b) for t in (100, 1_000) for b in (1_000, 20_000)),
    # Above m!/2 (m = 7 at n = 8, m = 9 at n = 10) no path reaches the target.
    (8, 2_521, 100_000),
    (10, 181_441, 100_000),
]


@pytest.mark.parametrize(
    "case", KSNAKE_CASES, ids=lambda case: "-".join(map(str, case))
)
def test_ksnake_search_matches_the_tuple_search(case):
    n, target, budget = case
    stats = {}
    snake = search_ksnake(n, target, budget=budget, stats=stats)
    got = (stats["nodes"], stats["exhausted"], None if snake is None else snake.transitions)
    assert got == tuple_ksnake_search(n, target, budget)


# (n, target, budget) -> (nodes, exhausted, snake size or None, sha256 of its pushes)
KSNAKE_PINS = {
    (5, 57, 1_000_000): (
        1_478, False, 57, "65fc69413f79b5d07e9990c950bac0173d8a0a92eb6c9f4b02f6e66f47bd7501"
    ),
    (5, 58, 30_000): (30_001, False, None, None),
    (7, 100, 1_000_000): (
        120, False, 105, "e7d26646d7a21fdcacb7125cc9269f7c23c8d9df4efe45e9eae366b3494846d8"
    ),
    (7, 2_515, 500_000): (500_001, False, None, None),
    (8, 100, 1_000_000): (
        120, False, 105, "e7d26646d7a21fdcacb7125cc9269f7c23c8d9df4efe45e9eae366b3494846d8"
    ),
    (4, 4, 1_000_000): (0, True, None, None),
    (9, 1_000, 20_000): (20_001, False, None, None),
    (8, 2_521, 100_000): (0, True, None, None),
    (10, 181_441, 100_000): (0, True, None, None),
    # Tuple vertices past n = 9, where the reference's BFS cannot number the coset.
    (11, 1_000, 20_000): (
        1_076, False, 1_041, "9ff4caa67c5233213f4491f9d335613015f99e1c40e9c4b48ea906a8c24c8424"
    ),
    (16, 1_000, 20_000): (
        2_186, False, 2_187, "902b56a43c666dcc623e80707709ffd398780882887fa91c9ced60e995cee9ba"
    ),
}


@pytest.mark.parametrize(
    "case", sorted(KSNAKE_PINS), ids=lambda case: "-".join(map(str, case))
)
def test_ksnake_search_is_pinned(case):
    n, target, budget = case
    stats = {}
    snake = search_ksnake(n, target, budget=budget, stats=stats)
    nodes, exhausted, size, digest = KSNAKE_PINS[case]
    assert (stats["nodes"], stats["exhausted"]) == (nodes, exhausted)
    assert (None if snake is None else snake.size) == size
    if snake is not None:
        assert hashlib.sha256(bytes(snake.pushes)).hexdigest() == digest
        assert verify_snake(snake).valid


def test_tuple_vertex_frames_make_each_child_only_when_it_is_tried():
    # A frame per path depth is one map over its moves, yielding children
    # only, not a list of child tuples: this 20,000-node search at n = 16
    # peaks at about 7.7 MiB under tracemalloc, at 12.7 MiB when each frame
    # also zips the moves in and the path maps each vertex to its move, and
    # at 29 MiB when every frame lists its children.
    tracemalloc.start()
    try:
        assert search_ksnake(16, 10**6, budget=20_000) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_search_arguments_are_bounded_before_anything_is_built():
    with pytest.raises(ValueError, match="n=17"):
        search_ksnake(17, 3, budget=10)
    with pytest.raises(ValueError, match="budget"):
        search_ksnake(5, 57, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        exhaustive_max_snake(4, node_budget=-1)
