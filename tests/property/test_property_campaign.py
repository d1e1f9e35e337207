"""Property: campaign results are byte-identical across execution modes.

The campaign runner's core contract (and what makes the run cache
sound): the merged document depends only on the spec — not on how many
processes executed it, not on completion order, not on whether the
workers were reused (the shared persistent fleet, already warmed by
earlier sweeps) or freshly started, not on cache temperature.  We run
the same sweep across ``jobs`` x reused/fresh fleets and compare the
canonical JSON
byte-for-byte — including a telemetry-bearing point, whose per-run
metrics are embedded in the result payloads.
"""

import pytest

from repro.campaign import (
    CampaignRunner,
    RunCache,
    SweepSpec,
    shutdown_shared_pool,
)

# Small enough to keep three executions (one per jobs count) cheap, but
# covering both schedulers and a telemetry-embedding trace level.
SPEC = SweepSpec(
    base={
        "topology": "Ring(4)", "bandwidths": "100",
        "workload": "allreduce", "trace_level": "collective",
    },
    grid={
        "payload_mib": [1, 2],
        "scheduler": ["baseline", "themis"],
    },
)


@pytest.fixture(autouse=True)
def _clean_shared_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


def test_results_identical_across_jobs_counts(tmp_path):
    docs = {}
    for jobs in (0, 1, 4):
        campaign = CampaignRunner(jobs=jobs).run(SPEC)
        assert not campaign.errors, campaign.errors
        docs[jobs] = campaign.canonical_results_json()
        # every payload carries the embedded telemetry block
        assert all("telemetry" in r for r in campaign.results)
    assert docs[0] == docs[1] == docs[4]

    # and a warm cache replays the same bytes without executing anything
    CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(SPEC)
    warm = CampaignRunner(jobs=0, cache=RunCache(tmp_path)).run(SPEC)
    assert warm.cache_counters["hits"] == len(SPEC)
    assert warm.canonical_results_json() == docs[0]


def test_results_identical_across_jobs_and_worker_reuse():
    """jobs x reused/fresh fleet: one merged document.

    The reused runs deliberately share one persistent fleet (that *is*
    the reuse under test: later runs hit workers already warmed by
    earlier ones); each fresh run starts a new fleet after
    ``shutdown_shared_pool()``.  The worker count changes completion
    order, which the spec-order merge must erase.
    """
    reference = CampaignRunner(jobs=0).run(SPEC).canonical_results_json()
    for fresh in (False, True):
        for jobs in (1, 2, 4):
            if fresh:
                shutdown_shared_pool()
            campaign = CampaignRunner(jobs=jobs).run(SPEC)
            assert not campaign.errors, campaign.errors
            assert campaign.canonical_results_json() == reference, (
                f"fresh={fresh} jobs={jobs} diverged")
