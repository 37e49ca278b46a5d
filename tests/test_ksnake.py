import math
import random

import pytest

from permsnake.errors import ParseError, VerificationError
from permsnake.ksnake import (
    EMBEDDED_CORE,
    build_ksnake,
    embedded_a5_snake,
    format_ksnake,
    load_ksnake,
    parse_ksnake,
    search_ksnake,
    transport,
)
from permsnake.perm import identity, kendall_distance, parity, reachable_table


def min_kendall(codes):
    return min(
        kendall_distance(codes[i], codes[j])
        for i in range(len(codes))
        for j in range(i + 1, len(codes))
    )


def test_embedded_snake_shape():
    snake = embedded_a5_snake()
    assert snake.n == 5
    assert snake.start == (1, 2, 3, 4, 5)
    assert snake.size == 57 == 120 // 2 - 3
    assert len(EMBEDDED_CORE) == 19
    assert snake.transitions == EMBEDDED_CORE * 3
    assert snake.transitions[-1] == 5


def test_embedded_snake_is_a_kendall_snake():
    snake = embedded_a5_snake()
    codes = snake.codewords()
    assert len(codes) == 57
    assert len(set(codes)) == 57
    assert min_kendall(codes) >= 2
    assert len({parity(c) for c in codes}) == 1


def test_build_rejects_broken_sequences():
    with pytest.raises(VerificationError, match="does not close"):
        build_ksnake(5, identity(5), EMBEDDED_CORE * 3 + (3,))
    with pytest.raises(VerificationError, match="coincide"):
        build_ksnake(3, identity(3), (3, 3, 3, 3, 3, 3))
    # t_2 steps keep Kendall distance 1 between neighbours.
    with pytest.raises(VerificationError, match="distance 1"):
        build_ksnake(4, identity(4), (2, 2))
    with pytest.raises(VerificationError, match="uniform parity"):
        build_ksnake(4, identity(4), (4, 4, 4, 4))


def test_parity_failure_names_the_first_codeword_off_the_coset():
    # The sequence closes and keeps Kendall distance >= 2; t_4, the fifth
    # transition, is its first even one, so codeword 5 is the first odd word.
    with pytest.raises(VerificationError, match=r"^codeword 5 breaks the uniform parity$"):
        build_ksnake(5, identity(5), (3, 3, 5, 5, 4, 4, 5))


def test_transport_identity_is_noop():
    snake = embedded_a5_snake()
    assert transport(snake, identity(5)) == snake


def test_transport_to_odd_coset():
    snake = transport(embedded_a5_snake(), (2, 1, 3, 4, 5))
    codes = snake.codewords()
    assert snake.size == 57
    assert all(parity(c) == 1 for c in codes)
    assert min_kendall(codes) >= 2


def test_transport_random_starts_preserve_everything():
    base = embedded_a5_snake()
    rng = random.Random(10)
    for _ in range(5):
        start = list(range(1, 6))
        rng.shuffle(start)
        moved = transport(base, start)
        assert moved.size == base.size
        codes = moved.codewords()
        assert len(set(codes)) == 57
        assert min_kendall(codes) == 2
        assert len({parity(c) for c in codes}) == 1


def test_transport_length_mismatch():
    with pytest.raises(ValueError):
        transport(embedded_a5_snake(), (1, 2, 3))


def test_format_parse_round_trip():
    snake = embedded_a5_snake()
    text = format_ksnake(snake)
    assert text.splitlines()[0] == "ksnake n=5 size=57"
    assert parse_ksnake(text) == snake


def test_load_ksnake(tmp_path):
    path = tmp_path / "s.ksnake"
    path.write_text(format_ksnake(embedded_a5_snake()), encoding="utf-8")
    assert load_ksnake(str(path)) == embedded_a5_snake()


def test_parse_rejects_malformed_text():
    with pytest.raises(ParseError):
        parse_ksnake("")
    with pytest.raises(ParseError):
        parse_ksnake("snake n=5 size=57\n1 2 3 4 5\n3 3")
    with pytest.raises(ParseError):
        parse_ksnake("ksnake n=5 size=57\n1 2 3 4 5\n3 3 5")
    with pytest.raises(ParseError):
        parse_ksnake("ksnake n=5 size=2\n1 2 3 4\n3 3")


def test_parse_rejects_mutated_sequence():
    snake = embedded_a5_snake()
    toks = list(snake.transitions)
    toks[12] = 4 if toks[12] != 4 else 3
    text = (
        f"ksnake n=5 size=57\n1 2 3 4 5\n{' '.join(map(str, toks))}\n"
    )
    with pytest.raises(VerificationError):
        parse_ksnake(text)


def test_search_tiny_exact():
    stats = {}
    snake = search_ksnake(3, 3, stats=stats)
    assert snake is not None and snake.size == 3
    assert snake.transitions == (3, 3, 3)
    assert search_ksnake(3, 4, stats=stats) is None
    assert stats["exhausted"]


def test_search_n4():
    snake = search_ksnake(4, 3)
    assert snake is not None and snake.size == 3
    stats = {}
    assert search_ksnake(4, 4, stats=stats) is None
    assert stats["exhausted"]


def test_search_finds_the_n5_maximum():
    stats = {}
    snake = search_ksnake(5, 57, budget=100_000, stats=stats)
    assert snake is not None
    assert snake.size == 57
    assert snake.transitions[-1] == 5
    codes = snake.codewords()
    assert len(set(codes)) == 57 and min_kendall(codes) >= 2


def test_search_beyond_the_n5_maximum_is_budgeted():
    # 57 is the best known; the search cannot certify 58 within a desk
    # budget, so not-found here means "not within budget".
    stats = {}
    assert search_ksnake(5, 58, budget=30_000, stats=stats) is None
    assert stats["nodes"] >= 30_000 or stats["exhausted"]


@pytest.mark.parametrize("n", range(3, 11))
def test_search_rejects_targets_above_what_the_moves_reach(n):
    # With m the largest odd m <= n, t_3, t_5, ..., t_m generate the
    # alternating group on positions 1..m: m!/2 reachable words.
    reachable = math.factorial(n - 1 + n % 2) // 2
    assert len(reachable_table(identity(n), range(3, n + 1, 2))[0]) == reachable
    stats = {}
    assert search_ksnake(n, reachable + 1, budget=1, stats=stats) is None
    assert stats == {"nodes": 0, "exhausted": True}
    assert search_ksnake(n, reachable, budget=1, stats=stats) is None
    assert not stats["exhausted"]


def test_search_argument_checks():
    with pytest.raises(ValueError):
        search_ksnake(2, 2)
    with pytest.raises(ValueError):
        search_ksnake(5, 1)
