"""Every point of the byte-identity record reproduces its committed entry.

``tests/golden/outputs.json`` pins the digest of each point's schema-v2
document with its ``total_time_ns`` and ``events_processed`` (see
``tests/golden/outputs.py``).  A change that moves an entry on purpose
re-pins it with ``PYTHONPATH=src python tests/golden/outputs.py --write``
and names the entry and its reason in CHANGES.md.
"""

import pytest

from tests.golden import outputs

RECORD = outputs.load()


def test_record_covers_every_point():
    assert sorted(RECORD) == sorted(outputs.names())


@pytest.mark.parametrize("name", outputs.names())
def test_entry_reproduces(name):
    assert outputs.compute(name) == RECORD[name]


def test_folding_leaves_the_document_unchanged():
    assert (RECORD["pp-gpt3-unfolded"]["digest"]
            == RECORD["pp-gpt3"]["digest"])
