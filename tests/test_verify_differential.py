"""Differential tests: the verifiers against a brute-force pairwise scan.

``brute_force`` recomputes every codeword with its own push-to-the-top
and compares every pair with its own distance functions.  It shares no
code with ``verify_code`` and stays here as the reference oracle for any
faster certificate that replaces the pairwise scan.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permsnake._pairdist import VIOLATION_CAP
from permsnake.blocks import rmgc_block
from permsnake.constructions import GrayCode, snake_from_rmgc
from permsnake.errors import VerificationError
from permsnake.ksnake import build_ksnake, embedded_a5_snake
from permsnake.verify import verify_code

# Rotations of 1..6: pairwise Chebyshev distance >= 3, consecutive ones 5,
# so no consecutive pair witnesses a minimum of 2.
ROTATIONS = GrayCode(6, (1, 2, 3, 4, 5, 6), (6,) * 6, True, "linf")

KNOWN = (
    snake_from_rmgc(6),
    embedded_a5_snake(),
    rmgc_block((1, 4, 2, 6, 3, 5), 1),
    rmgc_block((1, 4, 2, 6, 3, 5), 2),
    # Closes with pairwise Kendall distance >= 3, but t4 flips parity.
    GrayCode(4, (1, 2, 3, 4), (4, 4, 4, 4), True, "kendall"),
    ROTATIONS,
)

# Codes that reach each branch of the certificate, drawn on every run.
EXAMPLES = (
    ROTATIONS,
    # A codeword repeated three times (t2 t2 t2 t2).
    GrayCode(5, (2, 4, 1, 5, 3), (3, 2, 2, 2, 2, 5), False, "linf"),
    # 21 words alternating between two neighbours: 210 close pairs.
    GrayCode(4, (1, 2, 3, 4), (2,) * 20, False, "kendall"),
    GrayCode(4, (3, 4, 1, 2), (2,) * 20, True, "linf"),
    # Kendall at n = 12 and 13 once took a pure-Python scan; the last two
    # have minimum 2 and 3, and order bitmaps of two words.
    GrayCode(12, tuple(range(1, 13)), (3, 5, 12, 2, 7, 7, 3, 11), False, "kendall"),
    GrayCode(13, tuple(range(13, 0, -1)), (13, 3, 3, 3, 13, 2), True, "kendall"),
    GrayCode(13, tuple(range(1, 14)), (3, 5, 3, 7, 3), False, "kendall"),
    GrayCode(12, tuple(range(12, 0, -1)), (4, 4, 4, 9, 6), False, "kendall"),
    # n = 17 ranks are looked up in the sorted ranks, not a bitmap.
    GrayCode(17, tuple(range(1, 18)), (17, 2, 9, 2, 2, 16), False, "linf"),
    GrayCode(17, tuple(range(1, 18)), (17, 3, 9, 2, 2, 16), True, "kendall"),
    # n = 21 has no int64 rank: the pairwise scan runs.
    GrayCode(21, tuple(range(1, 22)), (21, 2, 9, 2, 2, 16), False, "linf"),
    GrayCode(21, tuple(range(1, 22)), (21, 3, 9, 2, 2, 16), True, "kendall"),
    # n = 300: values past 255, minimum 297 under Chebyshev.
    GrayCode(300, tuple(range(1, 301)), (300, 300, 300), False, "linf"),
    GrayCode(300, tuple(range(300, 0, -1)), (300, 2, 150), False, "kendall"),
)

PLANTS = ((), (2,), (2, 2), (2,) * 4, (2,) * 20)


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
    """(codewords, closes, min distance, violations) by direct scan.

    ``closes`` is None for a noncyclic code and False for an empty cyclic
    one.  The violations start with the earliest repeated codeword, paired
    with its first occurrence, if any word repeats; then follow the
    lexicographically first VIOLATION_CAP pairs at distance < 2, leaving
    out that repeat.
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
    close = [(ij, pairs[ij]) for ij in sorted(pairs) if pairs[ij] < 2]
    violations = []
    if repeats:
        violations.append((min(repeats, key=lambda ij: (ij[1], ij[0])), 0))
    violations += [v for v in close[:VIOLATION_CAP] if v not in violations]
    return words, closes, min(pairs.values(), default=None), violations


@st.composite
def codes(draw):
    """Small codes: random walks, or known snakes and blocks, some planted.

    Planting ``t2 t2`` repeats a codeword, and ``t2`` four times repeats it
    three times; a lone ``t2`` swaps the first two values, which is Kendall
    distance 1 and Chebyshev distance 1 when the two values are adjacent.
    Twenty ``t2`` give more close pairs than VIOLATION_CAP.  n runs to 12
    for the rank bitmap, to 13 and 17 for the sorted ranks, to 21, past
    what an int64 rank holds, and to 300, past what a byte holds.  At
    n = 300 a code has at most 6 words, since the brute-force Kendall
    distance takes O(n²) per pair.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from(KNOWN))
        n, start, transitions = base.n, base.start, list(base.transitions)
    else:
        n = draw(st.one_of(st.integers(2, 6), st.sampled_from([12, 13, 17, 21, 300])))
        start = tuple(draw(st.permutations(range(1, n + 1))))
        transitions = draw(st.lists(st.integers(2, n), max_size=40 if n < 300 else 3))
    plant = draw(st.sampled_from(PLANTS if n < 300 else PLANTS[:3]))
    at = draw(st.integers(0, len(transitions)))
    transitions[at:at] = plant
    cyclic = draw(st.booleans())
    metric = draw(st.sampled_from(["linf", "kendall"]))
    return GrayCode(n, start, tuple(transitions), cyclic, metric)


def with_examples(test):
    for code in EXAMPLES:
        test = example(code)(test)
    return test


@settings(max_examples=300, deadline=None)
@with_examples
@given(codes())
def test_verify_code_matches_brute_force(code):
    words, closes, min_d, violations = brute_force(code)
    report = verify_code(code)
    assert report.size == len(words)
    assert report.cyclic_ok == closes
    assert report.distinct == (not violations or violations[0][1] != 0)
    assert report.min_distance == min_d
    assert report.valid == (closes is not False and (min_d is None or min_d >= 2))
    assert report.violations == violations
    assert report.pairs_checked == len(words) * (len(words) - 1) // 2


def test_examples_reach_every_branch():
    # The repeated, crowded, large-n and minimum-3 draws above are what
    # they claim to be.
    reports = [verify_code(code) for code in EXAMPLES]
    assert reports[0].min_distance == 3
    assert [r.min_distance for r in reports[1:4]] == [0, 0, 0]
    assert [len(r.violations) for r in reports[2:4]] == [VIOLATION_CAP] * 2
    assert [r.min_distance for r in reports[6:8]] == [2, 3]
    assert {code.n for code in EXAMPLES} >= {12, 13, 17, 21, 300}


@settings(max_examples=300, deadline=None)
@with_examples
@given(codes())
def test_kendall_constructor_raises_exactly_on_brute_force_failures(code):
    snake = GrayCode(code.n, code.start, code.transitions, True, "kendall")
    words, closes, _, violations = brute_force(snake)
    first = violations[0] if violations else None
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
