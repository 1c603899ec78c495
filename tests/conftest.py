"""Every test runs at the working precision of the command line: the
library computes at its caller's mpmath precision, and importing it leaves
that precision alone."""

import pytest

from stableseq.numerics import working_precision


@pytest.fixture(autouse=True)
def _working_precision():
    with working_precision():
        yield
