"""Lazy package namespaces and what each kind of process imports.

``repro`` and ``repro.campaign`` resolve their re-exports on first
access (PEP 562): ``import repro`` loads no submodule, and the ``repro
serve`` daemon, which only dispatches points to its worker fleet, loads
no simulator layer.  The worker preload names the simulate path
explicitly, so a warm worker still runs every plain point kind without
importing anything.  Import-order checks run in fresh interpreters:
this process has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.configs.table5 import TABLE5_HBM_GBPS, TABLE5_PEAK_TFLOPS

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The simulator's layers: none may load in the serve daemon.
SIMULATOR_LAYERS = ("core", "events", "faults", "frontend", "memory",
                    "network", "stats", "system", "trace", "validate",
                    "workload")

#: Re-exported constants, which carry no ``__module__`` of their own.
CONSTANTS = {"CACHE_SCHEMA_VERSION": "repro.campaign.cache",
             "CAMPAIGN_SCHEMA_VERSION": "repro.campaign.runner"}


def fresh_interpreter(code, *args):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(params=["repro", "repro.campaign"])
def package(request):
    return importlib.import_module(request.param)


class TestLazyNamespace:
    def test_every_export_is_its_defining_modules_object(self, package):
        for name in package.__all__:
            if name == "__version__":
                continue
            value = getattr(package, name)
            module = CONSTANTS.get(name) or value.__module__
            assert getattr(importlib.import_module(module), name) is value, \
                name

    def test_dir_lists_every_export(self, package):
        assert set(package.__all__) <= set(dir(package))

    def test_star_import_binds_every_export(self, package):
        namespace = {}
        exec(f"from {package.__name__} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    def test_unknown_attribute_raises_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            package.no_such_name  # noqa: B018
        assert not hasattr(package, "no_such_name")

    def test_submodules_still_import_by_name(self):
        from repro import frontend

        assert frontend is sys.modules["repro.frontend"]


class TestProcessImports:
    def test_import_repro_loads_no_submodule(self):
        loaded = fresh_interpreter(
            "import json, sys, repro; print(json.dumps("
            "[m for m in sys.modules if m.startswith('repro.')]))")
        assert loaded == []

    def test_serve_daemon_loads_no_simulator_layer(self):
        loaded = fresh_interpreter(
            "import json, sys, repro.cli, repro.campaign.serve; "
            "print(json.dumps(sorted(sys.modules)))")
        layers = {m.split(".")[1] for m in loaded if m.startswith("repro.")}
        assert not layers & set(SIMULATOR_LAYERS), sorted(layers)

    def test_themis_run_imports_no_scipy(self):
        """Themis solves its order mix in-repo: a Themis ``repro run``
        on Conv-4D leaves scipy unimported."""
        loaded = fresh_interpreter(
            "import json, sys\n"
            "from repro.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(json.dumps([code, sorted(\n"
            "    m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n",
            "run", "--topology", "Ring(2)_FC(8)_Ring(8)_Switch(4)",
            "--bandwidths", "250,200,100,50", "--workload", "allreduce",
            "--payload-mib", "64", "--scheduler", "themis")
        assert loaded == [0, []]

    def test_preloaded_worker_runs_every_point_kind_warm(self):
        collective = {"topology": "Ring(4)_Switch(2)",
                      "bandwidths": "200,50", "workload": "allreduce",
                      "payload_mib": 1}
        points = {
            "tableV-hiermem": {
                "topology": "Switch(16)_Switch(16)",
                "bandwidths": "256,12.5", "latencies": "250,1000",
                "workload": "moe1t", "scheduler": "themis",
                "memory_model": "hiermem", "inswitch": True,
                "peak_tflops": TABLE5_PEAK_TFLOPS,
                "hbm_gbps": TABLE5_HBM_GBPS,
                "fabric_bw_gbps": 512, "group_bw_gbps": 200},
            "analytical": collective,
            "flow": dict(collective, backend="flow"),
            "garnet": dict(collective, backend="garnet", payload_mib=0.25),
            "adaptive": dict(collective, granularity="adaptive"),
        }
        added = fresh_interpreter(
            "import json, sys\n"
            "import repro.campaign._preload\n"
            "from repro.campaign.runner import run_point\n"
            "added = {}\n"
            "for name, point in json.loads(sys.argv[1]).items():\n"
            "    before = set(sys.modules)\n"
            "    run_point(point)\n"
            "    added[name] = sorted(m for m in set(sys.modules) - before\n"
            "                         if m.startswith('repro'))\n"
            "print(json.dumps(added))\n",
            json.dumps(points))
        assert added == {name: [] for name in points}
