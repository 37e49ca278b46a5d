"""Codes over at most five symbols are certified in pure Python: differential tests.

``verify_code`` walks a code with n <= 5 and at most 120 codewords as
tuples and compares every pair (``_pairscan.scan_words``); the array
certificate ``_pairdist.min_pairwise_*`` of the same codewords must give
the same minimum, close pairs and pair count, at every size on both sides
of the cut, with repeats and with more close pairs than are listed.
"""
import random

import pytest

from permsnake import _pairdist
from permsnake._pairscan import VIOLATION_CAP
from permsnake.perm import GrayCode
from permsnake.verify import verify_code

SIZES = (0, 1, 2, 3, 30, 57, 119, 120, 121)


def codes(n, metric, cyclic):
    """Seeded codes of each size in SIZES: random pushes, t2 t2 planted, and t2 alone."""
    rng = random.Random(f"{n} {metric} {cyclic}")
    for m in SIZES:
        k = m if cyclic else m - 1  # pushes
        if k < 0:
            continue
        start = tuple(rng.sample(range(1, n + 1), n))
        pushes = [rng.randint(2, n) for _ in range(k)]
        yield GrayCode(n, start, pushes, cyclic, metric)
        if k >= 2:
            at = rng.randrange(k - 1)
            yield GrayCode(n, start, pushes[:at] + [2, 2] + pushes[at + 2 :], cyclic, metric)
        # Two neighbours in turn: every pair is at distance 0 or 1.
        yield GrayCode(n, start, [2] * k, cyclic, metric)


def array_certificate(code):
    words = code._codewords
    return (_pairdist.min_pairwise_kendall if code.metric_tag == "kendall" else _pairdist.min_pairwise_linf)(words)


@pytest.mark.parametrize("cyclic", [True, False], ids=["cyclic", "noncyclic"])
@pytest.mark.parametrize("metric", ["linf", "kendall"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pure_certificate_matches_the_array_certificate(n, metric, cyclic):
    crowded = repeats = 0
    for code in codes(n, metric, cyclic):
        report = verify_code(code)
        cert = array_certificate(code)
        assert (report.min_distance, report.violations, report.pairs_checked) == tuple(cert), code
        assert report.cyclic_ok == (code.size > 0 and code.end == code.start if cyclic else None)
        crowded += len(report.violations) >= VIOLATION_CAP
        repeats += report.min_distance == 0
    assert crowded and repeats


def test_pure_path_takes_codes_over_at_most_five_symbols_and_120_codewords(monkeypatch):
    taken = []
    for name in ("min_pairwise_linf", "min_pairwise_kendall"):
        certify = getattr(_pairdist, name)
        spy = lambda words, certify=certify: taken.append(len(words)) or certify(words)
        monkeypatch.setattr(_pairdist, name, spy)
    for n, m in ((5, 120), (5, 121), (6, 54), (2, 1)):
        verify_code(GrayCode(n, tuple(range(1, n + 1)), (2,) * (m - 1), False, "kendall"))
    assert taken == [121, 54]
