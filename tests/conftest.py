"""Suite-wide fixtures."""

import pytest

from repro.runspec import TRACE_MEMO


@pytest.fixture(autouse=True)
def _fresh_trace_memo():
    """Every test starts and ends with an empty trace memo.

    A test that patches a trace builder (``runsim._build_traces``,
    ``frontend.build_op_graph``) then neither reads traces memoised by
    an earlier test nor leaves its own for a later one, and memo counts
    start from zero.
    """
    TRACE_MEMO.clear()
    TRACE_MEMO.take_counts()
    yield
    TRACE_MEMO.clear()
