"""Fleet-front telemetry: the registry instruments are the only store."""

from repro.fleet import FleetTelemetry
from repro.obs.metrics import MetricsRegistry, Reservoir


def test_completion_is_sampled_once(monkeypatch):
    appended = []
    append = Reservoir.append

    def counting(self, value):
        appended.append(value)
        append(self, value)

    monkeypatch.setattr(Reservoir, "append", counting)
    registry = MetricsRegistry()
    telemetry = FleetTelemetry(["w0", "w1"], registry=registry)
    telemetry.record_dispatch("w0", 4)
    telemetry.record_completed("w0", 4, latency_s=0.002)
    assert appended == [2.0]
    stats = telemetry.stats()
    assert (stats["dispatched"], stats["completed"], stats["frames"]) \
        == (4, 4, 1)
    assert all(type(stats[name]) is int for name in FleetTelemetry.COUNTERS)
    assert stats["workers"]["w0"]["latency_ms"]["count"] == 1
    assert "latency_ms" not in stats["workers"]["w1"]
    assert telemetry.latency_ms().count == 1
    assert registry.total("fleet_completed",
                          instance=telemetry.instance) == 4
