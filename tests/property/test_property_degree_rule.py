"""Property: the builtin and planned producers share one degree rule.

A builtin ``gpt3`` point and a planned ``gpt3-175b-hf`` point (the same
architecture through the frontend) with the same ``mp`` and ``dp`` either
both build their traces or both fail with the same message.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro import runsim
from repro.runspec import run_namespace

TOPOLOGIES = [("Ring(4)_Switch(8)", "100,50"), ("Ring(2)_Switch(4)", "100,50"),
              ("Switch(8)", "100")]


@functools.lru_cache(maxsize=None)
def _graph():
    return runsim.ingest_from_args(run_namespace(
        {"topology": "Switch(8)", "bandwidths": "100",
         "model": "gpt3-175b-hf"}))


def _build_builtin(args, topology):
    entry, degrees, _key = runsim._resolve(args, topology)
    return runsim._build(args, topology, entry, degrees)


def _build(build, *args):
    """``None`` when the build succeeds, else its error message."""
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(system=st.sampled_from(TOPOLOGIES), mp=st.integers(1, 40),
       dp=st.integers(0, 40))
def test_builtin_and_planned_points_share_the_degree_rule(system, mp, dp):
    topology, bandwidths = system
    fields = {"topology": topology, "bandwidths": bandwidths,
              "mp": mp, "dp": dp}
    builtin = run_namespace(dict(fields, workload="gpt3"))
    planned = run_namespace(dict(fields, model="gpt3-175b-hf"))
    topo = runsim.build_topology(builtin)
    builtin_error = _build(_build_builtin, builtin, topo)
    planned_error = _build(runsim.plan_from_args, planned, _graph(), topo)
    assert builtin_error == planned_error
