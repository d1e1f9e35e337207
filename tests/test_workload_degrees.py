"""Every builtin workload declares the degrees it models
(``runsim.WORKLOAD_DEGREES``) and rejects any other nonzero degree."""

import pytest

from repro import runsim
from repro.runspec import PointConfigError, run_namespace

SYSTEM = {"topology": "Ring(4)_Switch(8)", "bandwidths": "100,50"}


# Each of these points ran before, silently dropping the degree.
@pytest.mark.parametrize("fields, message", [
    ({"workload": "gpt3", "mp": 4, "pp": 2}, "'gpt3' does not model --pp"),
    ({"workload": "gpt3", "mp": 4, "ep": 2}, "'gpt3' does not model --ep"),
    ({"workload": "pp-gpt3", "pp": 4, "ep": 2},
     "'pp-gpt3' does not model --ep"),
    ({"workload": "dlrm", "mp": 4}, "'dlrm' does not model --mp"),
], ids=["gpt3-pp", "gpt3-ep", "pp-gpt3-ep", "dlrm-mp"])
def test_dropped_degree_is_a_point_error(fields, message):
    with pytest.raises(PointConfigError, match=message):
        runsim.simulate_from_args(run_namespace(dict(SYSTEM, **fields)))
