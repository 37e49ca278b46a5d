"""The docstring examples of the package run as part of the suite."""
import doctest

import pytest

from permsnake import perm, rmgc


@pytest.mark.parametrize("module", [perm, rmgc], ids=lambda m: m.__name__)
def test_module_doctests_pass(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
