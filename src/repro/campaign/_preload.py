"""Worker warm-up: import the whole simulator once per worker process.

Imported by the forkserver parent (via ``set_forkserver_preload``) and by
every pool worker's initializer.  After this module loads, a worker can
execute :func:`repro.campaign.runner.run_point` without paying any
import cost: the package, the simulate path in :mod:`repro.cli` and the
run-field table are loaded once per worker *lifetime*, not once per
sweep or once per point.
"""

import repro  # noqa: F401
import repro.campaign.runner  # noqa: F401
import repro.cli  # noqa: F401
