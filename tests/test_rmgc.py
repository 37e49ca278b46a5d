import doctest
import math
import random

import pytest

from permsnake import rmgc
from permsnake.documents import format_rmgc_document
from permsnake.perm import apply_sequence, identity
from permsnake.rmgc import (
    RmgcSequence,
    base_t3,
    build_rmgc,
    rotate_after,
    special_positions,
)


def test_doctests():
    failures, _ = doctest.testmod(rmgc)
    assert failures == 0


def is_complete_cyclic(n, seq, start=None):
    chain = apply_sequence(start or identity(n), seq)
    codes = chain[:-1]
    return chain[-1] == chain[0] and len(set(codes)) == math.factorial(n)


def test_base_sequence():
    r = base_t3()
    assert r.n == 3
    assert r.seq == (3, 3, 2, 3, 3, 2)
    assert [i + 1 for i, t in enumerate(r.seq) if t == 2] == [3, 6]
    assert is_complete_cyclic(3, r.seq)


def test_build_rmgc_small_sequences():
    assert build_rmgc(3).seq == (3, 3, 2, 3, 3, 2)
    r4 = build_rmgc(4)
    assert len(r4.seq) == 24
    # 1-based positions of the distinguished transitions
    assert r4.seq[3] == 2 and r4.seq[11] == 3 and r4.seq[0] == 4
    counts = {i: r4.seq.count(i) for i in (2, 3, 4)}
    assert counts == {4: 18, 2: 4, 3: 2}
    r5 = build_rmgc(5)
    assert len(r5.seq) == 120
    assert r5.seq[4] == 2 and r5.seq[19] == 4 and r5.seq[0] == 5


@pytest.mark.parametrize("n", range(3, 8))
def test_complete_and_cyclic(n):
    r = build_rmgc(n)
    assert len(r.seq) == math.factorial(n)
    assert all(2 <= i <= n for i in r.seq)
    assert is_complete_cyclic(n, r.seq)


@pytest.mark.parametrize("n", range(3, 8))
def test_special_positions(n):
    assert special_positions(build_rmgc(n)) == (n, n * n - n, 1)


def test_special_positions_rejects_wrong_sequence():
    bogus = RmgcSequence(3, (3, 2, 3, 3, 2, 3))
    with pytest.raises(AssertionError):
        special_positions(bogus)


def test_build_rmgc_bounds():
    with pytest.raises(ValueError):
        build_rmgc(2)
    with pytest.raises(ValueError):
        build_rmgc(11)


def test_build_rmgc_memoised():
    assert build_rmgc(5) is build_rmgc(5)


def test_rotate_after_basics():
    r = base_t3()
    assert rotate_after(r, 6) == r.seq
    assert rotate_after(r, 1) == (3, 2, 3, 3, 2, 3)
    # The base sequence has period 3, so rotating at 3 reproduces it.
    assert rotate_after(r, 3) == r.seq
    assert rotate_after(r, 3)[-1] == 2
    with pytest.raises(ValueError):
        rotate_after(r, 0)
    with pytest.raises(ValueError):
        rotate_after(r, 7)


def test_rotations_stay_complete_and_cyclic():
    rng = random.Random(9)
    for n in (3, 4):
        r = build_rmgc(n)
        for s in range(1, math.factorial(n) + 1):
            rotated = rotate_after(r, s)
            start = tuple(rng.sample(range(1, n + 1), n))
            assert is_complete_cyclic(n, rotated, start=start)
    r5 = build_rmgc(5)
    for s in rng.sample(range(1, 121), 8):
        assert is_complete_cyclic(5, rotate_after(r5, s))


def test_export_format():
    text = format_rmgc_document(build_rmgc(4))
    lines = text.splitlines()
    assert lines[0] == "rmgc n=4 len=24"
    tokens = " ".join(lines[1:]).split()
    assert len(tokens) == 24
    assert format_rmgc_document(build_rmgc(3)).splitlines()[1:] == ["3 3 2 3 3 2"]
