"""Sweep campaigns: declarative design-space exploration, in parallel.

The scale-out layer for the paper's headline usage model — "many cheap
analytical runs" over topology/bandwidth/workload grids (Table V,
Fig. 9b, Sec. IV-C):

- :class:`SweepSpec` — a grid/zip/list grammar over run-config fields
  that expands to an ordered list of fully-resolved configurations;
- :class:`CampaignRunner` — executes a spec serially (``jobs=0``) or
  over a persistent **warm** worker fleet (:mod:`repro.campaign.pool`):
  pre-imported workers reused across sweeps, one point per task;
  results merge back in spec order so output is bit-identical
  regardless of worker count or worker reuse;
- :class:`RunCache` — a content-addressed on-disk result cache keyed by
  canonical config JSON + code fingerprint, so re-running a sweep only
  simulates changed points;
- :mod:`repro.campaign.serve` — the ``repro serve`` HTTP daemon:
  ``POST /run`` / ``POST /sweep`` (NDJSON streaming) over the shared
  fleet and cache, with bounded-queue 429 backpressure;
- :mod:`repro.campaign.aggregate` — per-point CSV/text tables and
  per-sweep summary statistics.

CLI equivalent: ``repro sweep --grid "payload_mib=64|256" --jobs 4
--cache-dir .sweep-cache --out results.json``, or ``repro serve
--jobs 4 --cache-dir .sweep-cache``.

The names below resolve on first access, so ``import
repro.campaign.serve`` (the daemon) loads neither the aggregate tables
nor the simulator.
"""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.campaign.aggregate": "campaign_rows campaign_summary "
                                "campaign_table campaign_to_csv "
                                "dump_campaign_json metric_series "
                                "results_by_config varying_fields",
    "repro.campaign.cache": "CACHE_SCHEMA_VERSION RunCache code_fingerprint "
                            "fingerprint_sources",
    "repro.campaign.pool": "WarmPool get_shared_pool pick_start_method "
                           "run_one shared_pool_stats shutdown_shared_pool",
    "repro.campaign.runner": "CAMPAIGN_SCHEMA_VERSION CampaignError "
                             "CampaignResult CampaignRunner PointConfigError "
                             "base_point_from_args canonical_campaign_json "
                             "default_fields normalize_point run_point",
    "repro.campaign.serve": "ReproServer ServeConfig serve_forever "
                            "serve_in_thread",
    "repro.campaign.spec": "SweepSpec SweepSpecError canonical_json",
})
