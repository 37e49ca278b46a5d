import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from permsnake import perm
from permsnake.blocks import rmgc_block
from permsnake.constructions import (
    GrayCode,
    ksnake_snake_start,
    rmgc_snake_start,
    size_table,
    snake_from_ksnake,
    snake_from_rmgc,
    snake_upper_bound,
)
from permsnake.documents import CodeDocument, document_chunks, format_document, parse_document
from permsnake.ksnake import build_ksnake, embedded_a5_snake, search_ksnake
from permsnake.perm import apply_sequence, apply_transition, identity, linf_distance
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
        snake_from_rmgc(15)


def test_rmgc_snake_n10_exact_plus_structure():
    # The certificate is exact at any size.
    code = snake_from_rmgc(10)
    assert code.size == 15000 == size_table(10).m1
    report = verify_code(code)
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


# sha256 of format_document(..., include_codewords=True), captured from an
# implementation that walked every block to find its end: relabelled block
# ends must reproduce those documents byte for byte.
DOCUMENT_SHA256 = {
    ("thm1", 6): "ba1cf162c8bf8405466436dada861b97656a8125b16e3267735f0506510eee32",
    ("thm1", 7): "48e4ee23665b02e3716c7df4cac0753b025db96b0fc28d9d626d790c5c8c1ba5",
    ("thm1", 8): "d8788b58c7558c7ade05329e36d39bac73df3bfac8335c723db3f2be22737f7e",
    ("thm1", 9): "6af1d75ec47d7f77343db4d9ea1d40cf70309fe994f52ae786af4784059226e8",
    ("thm1", 10): "46353a87c3438b3178dca27eba6411257a6f662c54396da96b30263690853392",
    ("thm1", 11): "ee33816d2743b8421e4d360c602a21b00e768ef5be0b28ce316c524e7e732df7",
    ("thm2", 7): "1ea28c47f470c9dfd84792dcb0f9d60cb97ef48e3684298613530898c6b3f06d",
    ("thm2", 9): "bfb5403f0f573318920a675f0c1eb0b4375b1046fbf078482582903651c36e0c",
}


@pytest.mark.parametrize("method,n", sorted(DOCUMENT_SHA256))
def test_documents_with_codewords_are_pinned(method, n):
    if method == "thm1":
        code = snake_from_rmgc(n)
    else:
        code = snake_from_ksnake(n, embedded_a5_snake())
    text = format_document(CodeDocument(code, method), include_codewords=True)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == DOCUMENT_SHA256[method, n]


def test_construct_and_verify_walk_each_codeword_once(monkeypatch):
    # Rows walked: the whole code once, plus at most one walk per distinct
    # block transition tuple for the block ends, never one walk per block.
    a5 = embedded_a5_snake()
    start10 = rmgc_snake_start(10)
    cases = [
        (lambda: snake_from_rmgc(10), {rmgc_block(start10, v).transitions for v in (1, 2)}),
        (lambda: snake_from_ksnake(9, a5), {a5.transitions[:-1]}),
    ]
    walked = []
    walk = perm._walk

    def counted(start, transitions):
        walked.append(tuple(transitions))
        return walk(start, transitions)

    monkeypatch.setattr(perm, "_walk", counted)
    for build, block_tuples in cases:
        walked.clear()
        code = build()
        assert verify_code(code).valid
        assert walked.count(code.transitions) == 1
        rows = sum(len(t) + 1 for t in walked)
        assert rows <= code.size + 1 + sum(len(t) + 1 for t in block_tuples)


def test_end_of_thm1_n12_walks_one_segment_at_a_time():
    code = snake_from_rmgc(12)
    perm._end_positions.cache_clear()
    tracemalloc.start()
    try:
        end = code.end
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert end == code.start
    # The whole walk, 522,721 words of 12 bytes, would be 6.3 MB.
    assert peak < 3 * 2**20


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


@pytest.mark.parametrize("n, dtype", [(12, np.uint8), (255, np.uint8), (256, np.uint16), (300, np.uint16)])
def test_codeword_rows_are_one_byte_up_to_n255(n, dtype):
    code = GrayCode(n, identity(n), (n, 2, n - 1), False, "linf")
    assert code._codewords.dtype == dtype
    assert code.codewords() == apply_sequence(identity(n), (n, 2, n - 1))


@pytest.mark.parametrize(
    "n, start, metric, match",
    [
        (4, (1, 1, 5, 9), "linf", "not a permutation of 1..4"),
        (3, (1, 2, 3, 4), "linf", "not a permutation of 1..3"),
        (5, (1, 2, 3), "kendall", "not a permutation of 1..5"),
        (3, (1, 2, 3), "foo", "unknown metric 'foo'"),
    ],
)
def test_gray_code_rejects_a_start_or_metric_it_cannot_certify(n, start, metric, match):
    # Each codeword must be a permutation of 1..n for the rank certificate.
    with pytest.raises(ValueError, match=match):
        GrayCode(n, start, (n,) * 4, True, metric)


def test_rmgc_snake_min_distance_pairs():
    # Direct spot check that nearby codewords keep their distance.
    code = snake_from_rmgc(6)
    cw = code.codewords()
    assert min(
        linf_distance(cw[i], cw[j])
        for i in range(54)
        for j in range(i + 1, 54)
    ) == 2


def test_gray_codes_from_lists_tuples_and_bytes_are_equal():
    codes = [
        GrayCode(3, start, pushes, True, "linf")
        for start in ((1, 2, 3), [1, 2, 3])
        for pushes in ((3, 3, 3), [3, 3, 3], b"\x03\x03\x03")
    ]
    for code in codes:
        assert code == codes[0]
        assert hash(code) == hash(codes[0])
        assert code.end == (1, 2, 3)
        assert code.start == (1, 2, 3) and code.pushes == b"\x03\x03\x03"
    assert verify_code(codes[-1]).valid


def test_construct_write_parse_and_verify_never_build_the_transition_tuple():
    for code in (snake_from_rmgc(10), snake_from_ksnake(9, embedded_a5_snake())):
        assert verify_code(code).valid
        text = "".join(document_chunks(CodeDocument(code, "thm1")))
        parsed = parse_document(text).code
        assert verify_code(parsed).valid and parsed == code
        for c in (code, parsed):
            assert "transitions" not in vars(c)
            assert isinstance(c.pushes, bytes)
