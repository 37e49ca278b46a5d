"""Differential tests: the verifiers against a brute-force pairwise scan.

``brute_force`` recomputes every codeword with its own push-to-the-top
and compares every pair with its own distance functions.  It shares no
code with ``verify_code`` and stays here as the reference oracle for any
faster certificate that replaces the pairwise scan.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsnake.blocks import rmgc_block
from permsnake.constructions import GrayCode, snake_from_rmgc
from permsnake.errors import VerificationError
from permsnake.ksnake import build_ksnake, embedded_a5_snake
from permsnake.verify import verify_code

KNOWN = (
    snake_from_rmgc(6),
    embedded_a5_snake(),
    rmgc_block((1, 4, 2, 6, 3, 5), 1),
    rmgc_block((1, 4, 2, 6, 3, 5), 2),
    # Closes with pairwise Kendall distance >= 3, but t4 flips parity.
    GrayCode(4, (1, 2, 3, 4), (4, 4, 4, 4), True, "kendall"),
)


def push(p, i):
    return (p[i - 1],) + p[: i - 1] + p[i:]


def linf(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def kendall(p, q):
    where = {v: k for k, v in enumerate(q)}
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if where[p[a]] > where[p[b]])


def odd(p):
    return kendall(p, tuple(sorted(p))) % 2


def brute_force(code):
    """(codewords, closes, min distance, first violation) by direct scan.

    ``closes`` is None for a noncyclic code and False for an empty cyclic
    one.  The first violation is the earliest repeated codeword, paired
    with its first occurrence, if any word repeats; otherwise the
    lexicographically first pair at distance < 2.
    """
    chain = [code.start]
    for i in code.transitions:
        chain.append(push(chain[-1], i))
    words = chain[:-1] if code.cyclic else chain
    closes = (len(words) > 0 and chain[-1] == chain[0]) if code.cyclic else None
    dist = linf if code.metric_tag == "linf" else kendall
    pairs = {
        (i, j): dist(words[i], words[j])
        for i in range(len(words))
        for j in range(i + 1, len(words))
    }
    repeats = [(i, j) for (i, j), d in pairs.items() if d == 0]
    close = sorted(ij for ij, d in pairs.items() if d < 2)
    if repeats:
        first = (min(repeats, key=lambda ij: (ij[1], ij[0])), 0)
    elif close:
        first = (close[0], pairs[close[0]])
    else:
        first = None
    return words, closes, min(pairs.values(), default=None), first


@st.composite
def codes(draw):
    """Small codes: random walks, or known snakes and blocks, some planted.

    Planting ``t2 t2`` repeats a codeword; a lone ``t2`` swaps the first
    two values, which is Kendall distance 1 and Chebyshev distance 1 when
    the two values are adjacent.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from(KNOWN))
        n, start, transitions = base.n, base.start, list(base.transitions)
    else:
        n = draw(st.integers(2, 6))
        start = tuple(draw(st.permutations(range(1, n + 1))))
        transitions = draw(st.lists(st.integers(2, n), max_size=40))
    plant = draw(st.sampled_from([(), (2,), (2, 2)]))
    at = draw(st.integers(0, len(transitions)))
    transitions[at:at] = plant
    cyclic = draw(st.booleans())
    metric = draw(st.sampled_from(["linf", "kendall"]))
    return GrayCode(n, start, tuple(transitions), cyclic, metric)


@settings(max_examples=300, deadline=None)
@given(codes())
def test_verify_code_matches_brute_force(code):
    words, closes, min_d, first = brute_force(code)
    report = verify_code(code, "exhaustive")
    assert report.size == len(words)
    assert report.cyclic_ok == closes
    assert report.distinct == (first is None or first[1] != 0)
    assert report.min_distance == min_d
    assert report.valid == (closes is not False and (min_d is None or min_d >= 2))
    assert (report.violations[0] if report.violations else None) == first
    assert report.pairs_checked == len(words) * (len(words) - 1) // 2


@settings(max_examples=300, deadline=None)
@given(codes())
def test_kendall_constructor_raises_exactly_on_brute_force_failures(code):
    snake = GrayCode(code.n, code.start, code.transitions, True, "kendall")
    words, closes, _, first = brute_force(snake)
    if not code.transitions:
        expected = "at least one transition"
    elif not closes:
        expected = "does not close"
    elif first is not None:
        (i, j), d = first
        what = "coincide" if d == 0 else f"are at Kendall distance {d} < 2"
        expected = f"codewords {i} and {j} {what}"
    elif len({odd(w) for w in words}) > 1:
        expected = "uniform parity"
    else:
        expected = None
    if expected is None:
        assert build_ksnake(code.n, code.start, code.transitions) == snake
    else:
        with pytest.raises(VerificationError, match=expected):
            build_ksnake(code.n, code.start, code.transitions)
