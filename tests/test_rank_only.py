"""The rank-only certificate: a long code is certified from its segmented walk.

``verify_code`` certifies a code of more than one walk segment from
``GrayCode.blocks()``, one segment at a time, and keeps no chain.  The
certificate over the blocks must equal the array certificate over
``code._codewords`` for every example and plant of the differential
tests, with segments of any length, and so must the closure verdict.
"""
import tracemalloc

import pytest
from test_verify_differential import EXAMPLES, PLANTS

from permsnake import _pairdist, perm, verify
from permsnake.constructions import GrayCode, snake_from_rmgc
from permsnake.perm import METRIC_LINF
from permsnake.verify import verify_code


@pytest.mark.parametrize("n", [11, 12])
def test_a_valid_code_past_one_segment_keeps_no_chain(n):
    code = snake_from_rmgc(n)
    report = verify_code(code)
    assert report.valid and report.min_distance == 2 and report.size > perm._SEGMENT
    assert "_codewords" not in code.__dict__


def test_thm1_n9_in_short_segments_keeps_no_chain(monkeypatch):
    # 3,360 codewords fit one segment of 64 K; in segments of 1,000 they take four.
    monkeypatch.setattr(perm, "_SEGMENT", 1000)
    monkeypatch.setattr(verify, "_SEGMENT", 1000)
    code = snake_from_rmgc(9)
    assert verify_code(code).summary_line() == (
        "valid=true size=3360 min_d=2 metric=linf bound=22680 mode=exhaustive"
    )
    assert "_codewords" not in code.__dict__


@pytest.mark.parametrize("segment", [1, 7, 1 << 16])
@pytest.mark.parametrize("plant", PLANTS)
@pytest.mark.parametrize("example", range(len(EXAMPLES)))
def test_the_walk_certifies_as_the_array(monkeypatch, example, plant, segment):
    base = EXAMPLES[example]
    pushes = list(base.transitions)
    pushes[len(pushes) // 2 : len(pushes) // 2] = plant

    def make():
        return GrayCode(base.n, base.start, pushes, base.cyclic, base.metric_tag)

    arrayed = make()
    kernel = _pairdist.min_pairwise_kendall if base.metric_tag == "kendall" else _pairdist.min_pairwise_linf
    expected = kernel(arrayed._codewords)
    closes = len(arrayed._codewords) > 0 and arrayed.end == arrayed.start

    # Every code takes the walk, in segments of the given length.
    monkeypatch.setattr(verify, "_SEGMENT", 0)
    monkeypatch.setattr(perm, "_SEGMENT", segment)
    monkeypatch.setattr(_pairdist, "_SEGMENT", segment)
    assert kernel(arrayed._codewords) == expected
    walked = make()
    report = verify_code(walked)
    assert (report.min_distance, report.violations, report.pairs_checked) == expected
    assert report.cyclic_ok == (closes if base.cyclic else None)
    assert "_codewords" not in walked.__dict__


@pytest.mark.parametrize("planted", [False, True])
def test_thm1_n12_certifies_in_4_byte_words(planted):
    # 522,720 sorted ranks are 2.1 MB as uint32 words and 4.2 MB as int64;
    # the rank pass of the int64 certificate traced 7.4 MiB.  With t2 t2
    # planted in every walk segment, the repeats send hits through the
    # sorted-position lookup, and a needle of another dtype there would
    # make numpy cast all 522,720 words to int64 on each call.
    code = snake_from_rmgc(12)
    if planted:
        pushes = list(code.transitions)
        for at in reversed(range(10, len(pushes), perm._SEGMENT)):
            pushes[at:at] = [2, 2]
        code = GrayCode(12, code.start, pushes, False, METRIC_LINF)
    verify_code(GrayCode(6, tuple(range(1, 7)), (2, 3), False, METRIC_LINF))  # numpy's first-use set-up
    tracemalloc.start()
    try:
        report = verify_code(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.min_distance == (0 if planted else 2)
    assert peak < 6 * 2**20
