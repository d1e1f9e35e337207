"""Unit tests for the ZeRO-Infinity memory model."""

import pytest

from repro.memory import (
    MemoryRequest,
    ZeroInfinityConfig,
    ZeroInfinityMemory,
)
from repro.trace import TensorLocation

MiB = 1 << 20


def _remote(size):
    return MemoryRequest(size, location=TensorLocation.REMOTE)


class TestZeroInfinity:
    def test_dedicated_path_equation(self):
        mem = ZeroInfinityMemory(ZeroInfinityConfig(
            path_bandwidth_gbps=100.0, access_latency_ns=2000.0))
        assert mem.access_time_ns(_remote(100 * MiB)) == pytest.approx(
            2000.0 + 100 * MiB / 100.0
        )

    def test_local_rejected(self):
        mem = ZeroInfinityMemory(ZeroInfinityConfig())
        with pytest.raises(ValueError):
            mem.access_time_ns(MemoryRequest(10, location=TensorLocation.LOCAL))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZeroInfinityConfig(path_bandwidth_gbps=0)
        with pytest.raises(ValueError):
            ZeroInfinityConfig(access_latency_ns=-1)
