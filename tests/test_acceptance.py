"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is exact; each criterion also carries a wall-clock limit
that generous desk hardware meets easily.
"""
import math
import random
import time

import pytest

from permsnake.blocks import rmgc_block
from permsnake.constructions import (
    GrayCode,
    size_table,
    snake_from_ksnake,
    snake_from_rmgc,
    snake_upper_bound,
)
from permsnake.figures import compare_to_goldens, generate_figure, golden_text
from permsnake.ksnake import embedded_a5_snake, transport
from permsnake.perm import (
    apply_sequence,
    apply_transition,
    compose,
    identity,
    kendall_distance,
    linf_distance,
    parity,
)
from permsnake.rmgc import build_rmgc, special_positions
from permsnake.verify import exhaustive_max_snake, verify_code

from golden_rows import FIG3_BOUNDARY, FIG5_BOUNDARY


class Criterion:
    def __init__(self, number, title, limit_s):
        self.number = number
        self.title = title
        self.limit_s = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit_s
        verdict = "PASS" if ok else "FAIL"
        print(f"criterion {self.number} [{verdict}] {self.title} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget"
            )
        return False


def random_perm(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def test_criterion_1_rmgc_completeness():
    with Criterion(1, "complete cyclic RMGCs for n=3..7", 5.0):
        for n in range(3, 8):
            r = build_rmgc(n)
            chain = apply_sequence(identity(n), r.seq)
            assert chain[-1] == chain[0]
            codes = chain[:-1]
            assert len(codes) == math.factorial(n)
            assert len(set(codes)) == math.factorial(n)
            assert special_positions(r) == (n, n * n - n, 1)
            assert r.seq[n - 1] == 2
            assert r.seq[n * n - n - 1] == n - 1
            assert r.seq[0] == n


def test_criterion_2_block_figures_reproduce():
    with Criterion(2, "both n=6 blocks byte-identical to the goldens", 1.0):
        block1 = rmgc_block((1, 4, 2, 6, 3, 5), 1)
        assert block1.transitions == (3, 3, 4, 2, 3, 3, 2, 3)
        assert block1.end == (4, 2, 6, 1, 3, 5)
        block2 = rmgc_block((1, 4, 2, 6, 3, 5), 2)
        assert block2.transitions == (3, 3, 4, 3, 3, 2, 3, 3)
        assert block2.end == (4, 6, 2, 1, 3, 5)
        for name in ("fig1", "fig2"):
            assert generate_figure(name) == golden_text(name)
        assert not compare_to_goldens()


def test_criterion_3_n6_snake():
    with Criterion(3, "n=6 snake: size 54, cyclic, exhaustive min >= 2", 1.0):
        code = snake_from_rmgc(6)
        assert code.size == 54
        cw = code.codewords()
        for idx, want in FIG3_BOUNDARY.items():
            assert cw[idx] == want
        assert apply_transition(cw[-1], code.transitions[-1]) == code.start
        report = verify_code(code)
        assert report.valid and report.cyclic_ok
        assert report.pairs_checked == 1431
        assert report.min_distance >= 2


def test_criterion_4_sizes_7_8_9():
    with Criterion(4, "sizes 216/672/3360 at n=7/8/9, all exhaustive", 30.0):
        for n, want in ((7, 216), (8, 672), (9, 3360)):
            code = snake_from_rmgc(n)
            assert code.size == want
            report = verify_code(code)
            assert report.valid
            assert report.pairs_checked == want * (want - 1) // 2


def test_criterion_5_embedded_kendall_snake():
    with Criterion(5, "embedded (5,57) Kendall snake fully verifies", 1.0):
        snake = embedded_a5_snake()
        assert snake.size == 57 == math.factorial(5) // 2 - 3
        codes = snake.codewords()
        assert len(set(codes)) == 57
        chain = apply_sequence(snake.start, snake.transitions)
        assert chain[-1] == chain[0]
        assert len({parity(c) for c in codes}) == 1
        assert (
            min(
                kendall_distance(a, b)
                for i, a in enumerate(codes)
                for b in codes[i + 1 :]
            )
            >= 2
        )


def test_criterion_6_n7_snake_from_kendall():
    with Criterion(6, "n=7 snake: size 342, boundaries, 58311 pairs", 5.0):
        code = snake_from_ksnake(7, embedded_a5_snake())
        assert code.size == 342
        assert code.start == (2, 1, 3, 5, 7, 4, 6)
        cw = code.codewords()
        for idx, want in FIG5_BOUNDARY.items():
            assert cw[idx] == want
        assert apply_transition(cw[-1], code.transitions[-1]) == code.start
        report = verify_code(code)
        assert report.valid
        assert report.pairs_checked == 58311
        t = size_table(7)
        assert t.m2 == 342 and t.m1 == 216 and t.m0 == 120
        assert t.m2 > t.m1 > t.m0


def test_criterion_7_bound_compliance_and_oracle():
    with Criterion(7, "bound holds; oracle max at n=4 equals the bound 6", 60.0):
        built = [
            snake_from_rmgc(6),
            snake_from_rmgc(7),
            snake_from_rmgc(8),
            snake_from_rmgc(9),
            snake_from_ksnake(7, embedded_a5_snake()),
        ]
        for code in built:
            assert code.size <= snake_upper_bound(code.n)
        block = rmgc_block((1, 4, 2, 6, 3, 5), 1)
        assert block.size <= snake_upper_bound(6)
        best, witness = exhaustive_max_snake(4, "linf", cyclic=True)
        assert best == 6 == snake_upper_bound(4)
        report = verify_code(witness)
        assert report.valid and report.cyclic_ok


def _mutations(transitions, n, rng, count=None):
    """Single-transition flips; all of them when count is None."""
    slots = range(len(transitions))
    if count is not None:
        slots = rng.sample(list(slots), count)
    for at in slots:
        for to in range(2, n + 1):
            if to != transitions[at]:
                yield transitions[:at] + (to,) + transitions[at + 1 :]


def test_criterion_8_property_suites():
    with Criterion(8, "property suites and mutation detection", 30.0):
        rng = random.Random(12)

        # parity flip under push-to-the-top
        for _ in range(250):
            n = rng.randint(2, 8)
            p = random_perm(rng, n)
            for i in range(2, n + 1):
                assert (parity(apply_transition(p, i)) != parity(p)) == (i % 2 == 0)

        # Kendall right invariance, 1000 random triples
        for _ in range(1000):
            n = rng.randint(2, 8)
            p, q, r = (random_perm(rng, n) for _ in range(3))
            assert kendall_distance(p, q) == kendall_distance(
                compose(p, r), compose(q, r)
            )

        # metric axioms for both distances
        for dist in (linf_distance, kendall_distance):
            for _ in range(300):
                n = rng.randint(2, 8)
                p, q, r = (random_perm(rng, n) for _ in range(3))
                assert dist(p, q) == dist(q, p)
                assert (dist(p, q) == 0) == (p == q)
                assert dist(p, r) <= dist(p, q) + dist(q, r)

        # snake transport across 20 random starts
        base = embedded_a5_snake()
        base_codes = base.codewords()
        base_min = min(
            kendall_distance(a, b)
            for i, a in enumerate(base_codes)
            for b in base_codes[i + 1 :]
        )
        for _ in range(20):
            moved = transport(base, random_perm(rng, 5))
            codes = moved.codewords()
            assert moved.size == base.size
            assert len(set(codes)) == 57
            assert len({parity(c) for c in codes}) == 1
            assert (
                min(
                    kendall_distance(a, b)
                    for i, a in enumerate(codes)
                    for b in codes[i + 1 :]
                )
                == base_min
            )

        # mutation detection on the cyclic golden codes: flipping any one
        # transition changes the net permutation, so the cycle cannot
        # close and verification must fail.
        n6 = snake_from_rmgc(6)
        for seq in _mutations(n6.transitions, 6, rng):
            report = verify_code(GrayCode(6, n6.start, seq, True, "linf"))
            assert not report.valid

        embedded = embedded_a5_snake()
        emb_code = GrayCode(5, embedded.start, embedded.transitions, True, "kendall")
        for seq in _mutations(embedded.transitions, 5, rng):
            report = verify_code(GrayCode(5, embedded.start, seq, True, "kendall"))
            assert not report.valid
        assert verify_code(emb_code).valid

        n7 = snake_from_ksnake(7, embedded)
        for seq in _mutations(n7.transitions, 7, rng, count=12):
            report = verify_code(GrayCode(7, n7.start, seq, True, "linf"))
            assert not report.valid

        # mutated noncyclic blocks may stay valid snakes, but they can
        # never silently reproduce the golden codewords: the first
        # changed transition alters the codeword after it.
        for variant in (1, 2):
            block = rmgc_block((1, 4, 2, 6, 3, 5), variant)
            golden = block.codewords()
            for seq in _mutations(block.transitions, 6, rng):
                mutated = apply_sequence(block.start, seq)
                assert mutated != golden


def test_stretch_n9_kendall_construction():
    # Not a numbered criterion: the n=9 build from the embedded snake.
    code = snake_from_ksnake(9, embedded_a5_snake())
    assert code.size == 6840 == 57 * math.factorial(5)
    assert code.size <= snake_upper_bound(9)
    report = verify_code(code)
    assert report.valid
    print(f"stretch n=9 [PASS] size 6840 verified ({report.pairs_checked} pairs)")
