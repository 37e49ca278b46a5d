import math

import pytest

from permsnake.constructions import (
    GrayCode,
    ksnake_snake_start,
    rmgc_snake_start,
    size_table,
    snake_from_ksnake,
    snake_from_rmgc,
    snake_upper_bound,
)
from permsnake.ksnake import build_ksnake, embedded_a5_snake, search_ksnake
from permsnake.perm import apply_transition, linf_distance
from permsnake.verify import verify_code

from golden_rows import FIG3_BOUNDARY, FIG5_BOUNDARY


def test_canonical_starts():
    assert rmgc_snake_start(6) == (1, 4, 2, 6, 3, 5)
    assert rmgc_snake_start(7) == (1, 4, 2, 6, 3, 5, 7)
    assert rmgc_snake_start(8) == (1, 4, 6, 2, 8, 3, 5, 7)
    assert ksnake_snake_start(5) == (1, 2, 4, 3, 5)
    assert ksnake_snake_start(7) == (2, 1, 3, 5, 7, 4, 6)
    assert ksnake_snake_start(9) == (1, 2, 4, 6, 8, 3, 5, 7, 9)
    with pytest.raises(ValueError):
        ksnake_snake_start(6)


def test_rmgc_snake_n6_matches_boundary_rows():
    code = snake_from_rmgc(6)
    assert code.size == 54
    assert code.cyclic and code.metric_tag == "linf"
    cw = code.codewords()
    for idx, want in FIG3_BOUNDARY.items():
        assert cw[idx] == want, idx
    # closure: the final transition returns to the start
    assert apply_transition(cw[-1], code.transitions[-1]) == code.start


def test_rmgc_snake_n6_verifies():
    report = verify_code(snake_from_rmgc(6))
    assert report.valid
    assert report.min_distance == 2
    assert report.pairs_checked == 54 * 53 // 2


@pytest.mark.parametrize("n,size", [(7, 216), (8, 672), (9, 3360)])
def test_rmgc_snake_sizes(n, size):
    code = snake_from_rmgc(n)
    assert code.size == size
    table = size_table(n)
    assert code.size == table.m1
    assert code.size <= table.bound


def test_rmgc_snake_n7_verifies_exhaustively():
    report = verify_code(snake_from_rmgc(7))
    assert report.valid
    assert report.min_distance >= 2


def test_rmgc_snake_tail_stays_odd():
    # Every codeword keeps odd values on positions q+2..n.
    for n in (6, 7, 8):
        q = n // 2
        code = snake_from_rmgc(n)
        for c in code.codewords():
            assert all(v % 2 == 1 for v in c[q + 1 :])


def test_rmgc_snake_boundary_gap():
    # At every block boundary the front value stays >= 2 away from the
    # value at position q+1.
    for n in (6, 7, 8):
        q = n // 2
        code = snake_from_rmgc(n)
        cw = code.codewords()
        block = math.factorial(q) + q
        for at in range(0, code.size, block):
            assert abs(cw[at][0] - cw[at][q]) >= 2


def test_rmgc_snake_rejects_out_of_range():
    with pytest.raises(ValueError):
        snake_from_rmgc(5)
    with pytest.raises(ValueError):
        snake_from_rmgc(13)


def test_rmgc_snake_n10_exact_plus_structure():
    # The certificate is exact at any size, whatever mode is asked for.
    code = snake_from_rmgc(10)
    assert code.size == 15000 == size_table(10).m1
    report = verify_code(code, "sampled")
    assert report.valid and report.mode == "exhaustive"
    assert report.pairs_checked == 15000 * 14999 // 2
    assert report.min_distance == 2
    q = 5
    for c in code.codewords():
        assert all(v % 2 == 1 for v in c[q + 1 :])


def test_ksnake_snake_n7_matches_boundary_rows():
    code = snake_from_ksnake(7, embedded_a5_snake())
    assert code.size == 342 == 57 * 6
    assert code.start == (2, 1, 3, 5, 7, 4, 6)
    cw = code.codewords()
    for idx, want in FIG5_BOUNDARY.items():
        assert cw[idx] == want, idx
    assert apply_transition(cw[-1], code.transitions[-1]) == code.start


def test_ksnake_snake_n7_verifies_exhaustively():
    report = verify_code(snake_from_ksnake(7, embedded_a5_snake()))
    assert report.valid
    assert report.min_distance >= 2
    assert report.pairs_checked == 342 * 341 // 2


def test_ksnake_snake_n5_from_searched_snake():
    tiny = search_ksnake(3, 3)
    code = snake_from_ksnake(5, tiny)
    assert code.size == 3 * 6 == 18
    report = verify_code(code)
    assert report.valid
    assert code.size <= snake_upper_bound(5)


def test_ksnake_snake_preconditions():
    snake = embedded_a5_snake()
    with pytest.raises(ValueError, match="4k"):
        snake_from_ksnake(6, snake)
    with pytest.raises(ValueError, match="over 3 symbols"):
        snake_from_ksnake(5, snake)
    # A rotation of the embedded snake is still a Kendall snake but ends
    # on t_3, which the builder must refuse.
    rotated = build_ksnake(
        5,
        (2, 3, 1, 4, 5),
        snake.transitions[2:] + snake.transitions[:2],
    )
    assert rotated.transitions[-1] == 3
    with pytest.raises(ValueError, match="last transition"):
        snake_from_ksnake(7, rotated)


def test_sizes_ordering_and_bound():
    t7 = size_table(7)
    assert (t7.m0, t7.m1, t7.m2, t7.bound) == (120, 216, 342, 630)
    t4 = size_table(4)
    assert (t4.m0, t4.m1, t4.m2, t4.bound) == (6, None, None, 6)
    t6 = size_table(6)
    assert (t6.m0, t6.m1, t6.m2, t6.bound) == (30, 54, None, 90)
    t9 = size_table(9)
    assert (t9.m0, t9.m1, t9.m2, t9.bound) == (1200, 3360, 6840, 22680)
    for n in range(4, 20):
        t = size_table(n)
        for value in (t.m0, t.m1, t.m2):
            assert value is None or value <= t.bound
        if t.m1 is not None:
            assert t.m0 <= t.m1
        if t.m2 is not None:
            assert t.m2 > t.m1 > t.m0
    with pytest.raises(ValueError):
        size_table(3)


def test_gray_code_size_and_codewords():
    code = GrayCode(3, (1, 2, 3), (3, 3, 3), True, "linf")
    assert code.size == 3
    assert code.codewords() == [(1, 2, 3), (3, 1, 2), (2, 3, 1)]
    open_code = GrayCode(3, (1, 2, 3), (3, 3), False, "linf")
    assert open_code.size == 3
    assert open_code.codewords() == [(1, 2, 3), (3, 1, 2), (2, 3, 1)]


def test_rmgc_snake_min_distance_pairs():
    # Direct spot check that nearby codewords keep their distance.
    code = snake_from_rmgc(6)
    cw = code.codewords()
    assert min(
        linf_distance(cw[i], cw[j])
        for i in range(54)
        for j in range(i + 1, 54)
    ) == 2
