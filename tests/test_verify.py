import random

import pytest

from permsnake.blocks import rmgc_block
from permsnake.constructions import (
    GrayCode,
    snake_from_rmgc,
    snake_upper_bound,
)
from permsnake.perm import identity, kendall_distance, linf_distance, reachable_table
from permsnake.verify import (
    SnakeReport,
    _ball_masks,
    exhaustive_max_snake,
    verify_code,
)


def as_gray_code(block, n):
    return GrayCode(n, block.start, block.transitions, False, "linf")


def test_verify_noncyclic_block():
    block = rmgc_block((1, 4, 2, 6, 3, 5), 1)
    report = verify_code(as_gray_code(block, 6))
    assert report.valid
    assert report.size == 9
    assert report.distinct
    assert report.cyclic_ok is None
    assert report.min_distance >= 2
    assert report.violations == []


def test_verify_cyclic_snake():
    report = verify_code(snake_from_rmgc(6))
    assert report.valid and report.cyclic_ok
    assert report.bound == 90
    assert report.mode == "exhaustive"


def test_verify_detects_corruption():
    code = snake_from_rmgc(6)
    toks = list(code.transitions)
    toks[10] = 5 if toks[10] != 5 else 4
    bad = GrayCode(code.n, code.start, tuple(toks), True, code.metric_tag)
    report = verify_code(bad)
    assert not report.valid
    assert (not report.distinct) or report.cyclic_ok is False or report.violations


def test_verify_detects_distance_violation():
    # id and its t_2 image are at Chebyshev distance 1.
    code = GrayCode(4, (1, 2, 3, 4), (2, 2), True, "linf")
    report = verify_code(code)
    assert report.cyclic_ok
    assert report.min_distance == 1
    assert not report.valid
    assert report.violations


def test_verify_kendall_tagged_code():
    code = GrayCode(3, (1, 2, 3), (3, 3, 3), True, "kendall")
    report = verify_code(code)
    assert report.valid
    assert report.min_distance == 2
    assert report.bound == 3


def test_summary_line_format():
    report = verify_code(snake_from_rmgc(6))
    assert report.summary_line() == (
        "valid=true size=54 min_d=2 metric=linf bound=90 mode=exhaustive"
    )


def test_render_mentions_violations():
    code = GrayCode(4, (1, 2, 3, 4), (2, 2), True, "linf")
    text = verify_code(code).render()
    assert "INVALID" in text
    assert "violation" in text


def test_oracle_linf_cyclic():
    best3, wit3 = exhaustive_max_snake(3, "linf", cyclic=True)
    assert best3 == 3
    assert verify_code(wit3).valid
    best4, wit4 = exhaustive_max_snake(4, "linf", cyclic=True)
    assert best4 == 6 == snake_upper_bound(4)
    report = verify_code(wit4)
    assert report.valid and report.cyclic_ok


def test_oracle_linf_noncyclic():
    best, wit = exhaustive_max_snake(4, "linf", cyclic=False)
    assert best == 6
    assert verify_code(wit).valid


def test_oracle_kendall():
    best3, _ = exhaustive_max_snake(3, "kendall", cyclic=True)
    assert best3 == 3
    # The general oracle permits mixed-parity codes, so it can beat the
    # one-coset snakes that the rest of the package consumes.
    best4, wit4 = exhaustive_max_snake(4, "kendall", cyclic=True)
    assert best4 == 8
    assert verify_code(wit4).valid


def test_oracle_respects_bound():
    for n in (3, 4):
        best, _ = exhaustive_max_snake(n, "linf", cyclic=True)
        assert best <= snake_upper_bound(n)


def test_oracle_budget_is_best_effort():
    best, _ = exhaustive_max_snake(4, "linf", cyclic=True, node_budget=50)
    assert 0 <= best <= 6


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("metric, dist", [("linf", linf_distance), ("kendall", kendall_distance)])
def test_oracle_ball_masks_match_the_distances(n, metric, dist):
    # The oracle's masks come from the certificate's neighbour tables; a
    # brute-force build from the distance functions must give the same.
    ids, _ = reachable_table(identity(n), range(n, 1, -1))
    perms = list(ids)
    want = [sum(1 << u for u, q in enumerate(perms) if dist(p, q) < 2) for p in perms]
    assert _ball_masks(perms, metric == "kendall") == want


def test_oracle_argument_checks():
    with pytest.raises(ValueError):
        exhaustive_max_snake(6)
    with pytest.raises(ValueError):
        exhaustive_max_snake(4, "hamming")


def test_mutation_sample_is_detected():
    code = snake_from_rmgc(6)
    rng = random.Random(11)
    for _ in range(25):
        toks = list(code.transitions)
        at = rng.randrange(len(toks))
        choices = [i for i in range(2, 7) if i != toks[at]]
        toks[at] = rng.choice(choices)
        mutated = GrayCode(code.n, code.start, tuple(toks), True, code.metric_tag)
        report = verify_code(mutated)
        assert not report.valid
