"""Sweep campaigns: declarative design-space exploration, in parallel.

The scale-out layer for the paper's headline usage model — "many cheap
analytical runs" over topology/bandwidth/workload grids (Table V,
Fig. 9b, Sec. IV-C):

- :class:`SweepSpec` — a grid/zip/list grammar over run-config fields
  that expands to an ordered list of fully-resolved configurations;
- :class:`CampaignRunner` — executes a spec serially (``jobs=0``) or
  over a persistent **warm** worker fleet (:mod:`repro.campaign.pool`):
  pre-imported workers reused across sweeps, batched point dispatch,
  and base-config broadcast; results merge back in spec order so output
  is bit-identical regardless of worker count, batch size, or worker
  reuse;
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
"""

from repro.campaign.aggregate import (
    campaign_rows,
    campaign_summary,
    campaign_table,
    campaign_to_csv,
    dump_campaign_json,
    metric_series,
    results_by_config,
    varying_fields,
)
from repro.campaign.cache import (
    CACHE_SCHEMA_VERSION,
    RunCache,
    code_fingerprint,
    fingerprint_sources,
)
from repro.campaign.pool import (
    WarmPool,
    get_shared_pool,
    pick_start_method,
    plan_batches,
    run_batch,
    shared_pool_stats,
    shutdown_shared_pool,
    split_common_base,
)
from repro.campaign.runner import (
    CAMPAIGN_SCHEMA_VERSION,
    CampaignError,
    CampaignResult,
    CampaignRunner,
    PointConfigError,
    base_point_from_args,
    canonical_campaign_json,
    default_fields,
    normalize_point,
    run_point,
)
from repro.campaign.serve import (
    ReproServer,
    ServeConfig,
    serve_forever,
    serve_in_thread,
)
from repro.campaign.spec import SweepSpec, SweepSpecError, canonical_json

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CAMPAIGN_SCHEMA_VERSION",
    "CampaignError",
    "CampaignResult",
    "CampaignRunner",
    "PointConfigError",
    "ReproServer",
    "RunCache",
    "ServeConfig",
    "SweepSpec",
    "SweepSpecError",
    "WarmPool",
    "base_point_from_args",
    "campaign_rows",
    "campaign_summary",
    "campaign_table",
    "campaign_to_csv",
    "canonical_campaign_json",
    "canonical_json",
    "code_fingerprint",
    "default_fields",
    "dump_campaign_json",
    "fingerprint_sources",
    "get_shared_pool",
    "metric_series",
    "normalize_point",
    "pick_start_method",
    "plan_batches",
    "results_by_config",
    "run_batch",
    "run_point",
    "serve_forever",
    "serve_in_thread",
    "shared_pool_stats",
    "shutdown_shared_pool",
    "split_common_base",
    "varying_fields",
]
