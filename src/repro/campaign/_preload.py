"""Worker warm-up: import the simulate path once per worker process.

Imported by the forkserver parent (via ``set_forkserver_preload``) and by
every pool worker's initializer.  After this module loads, a worker can
execute :func:`repro.campaign.runner.run_point` on an analytical, flow,
garnet-lite, adaptive or disaggregated-memory point without paying any
import cost: the runner, the run-field table, the simulate path in
:mod:`repro.runsim` (which loads the simulator core, every network
backend and every memory model) and the result export are loaded once
per worker *lifetime*, not once per sweep or once per point.

Left out: the validate suites, the aggregate tables and the serve
daemon, which no point runs.  The frontend and the invariant checker
load on first use in the points that ask for them.  :mod:`repro.cli` is
not imported either: ``multiprocessing`` re-runs a ``python -m
repro.cli`` parent's main module in each worker, and it must not find
that module already imported.
"""

import repro.campaign.runner  # noqa: F401
import repro.runsim  # noqa: F401
import repro.stats.export  # noqa: F401
