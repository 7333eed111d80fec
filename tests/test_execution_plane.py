"""The ExecutionPlane registry: engines resolve by name, not string-if.

DESIGN.md §13: ``SimConfig(execution=...)`` and every CLI ``--engine``
flag resolve through :mod:`repro.execution` — one registry owning the
mapping from an engine name to how the wire plane carries a round
(``wire_mode``), whether the plane shards across worker processes,
and which *transport* carries the wire image (``sim`` in memory vs
``udp`` loopback datagrams).  These tests pin the registry surface,
its validation errors, the facade integration (``RunReport.engine`` /
``RunReport.shards`` everywhere), the *completed* deprecation cycle
(``ScenarioReport.execution`` and the ``--execution`` CLI flag warned
for one cycle and now raise), and the open one: the removed
``"batch"`` plane resolves to ``"batch-v2"`` with a
``DeprecationWarning``.
"""

import warnings

import pytest

from repro import execution
from repro.api import RunReport, SimConfig, Simulation


class TestRegistry:
    def test_registered_planes(self):
        assert execution.plane_names() == ("event", "batch-v2",
                                           "asyncio")

    def test_plane_specs(self):
        event = execution.get_plane("event")
        assert event.wire_mode == "event"
        assert not event.supports_shards
        v2 = execution.get_plane("batch-v2")
        assert v2.wire_mode == "vector"
        assert v2.supports_shards

    def test_batch_alias_warns_and_resolves_to_batch_v2(self):
        with pytest.warns(DeprecationWarning, match="batch-v2"):
            spec = execution.resolve("batch")
        assert spec.plane is execution.get_plane("batch-v2")
        assert spec.name == "batch-v2" and spec.shards == 1
        with pytest.warns(DeprecationWarning):
            assert execution.resolve("batch", 4).shards == 4
        # Registered names resolve silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execution.resolve("batch-v2")

    def test_transport_axis(self):
        # Every simulator plane runs on the "sim" transport; the
        # asyncio plane is the only one on real sockets.
        for name in ("event", "batch-v2"):
            assert execution.get_plane(name).transport == "sim"
        net = execution.get_plane("asyncio")
        assert net.transport == "udp"
        assert net.wire_mode == "socket"
        assert not net.supports_shards

    def test_create_wire_fabric_seam(self):
        # The transport seam hands protocol code a CellTransport
        # without it importing the simulator or socket module.
        from repro.core.transport import CellTransport
        fabric = execution.create_wire_fabric("batch-v2", seed=1)
        assert isinstance(fabric, CellTransport)
        assert fabric.net_report() is None
        net = execution.create_wire_fabric("asyncio", seed=1)
        assert isinstance(net, CellTransport)
        assert type(net).__name__ == "UdpFabric"
        net.finalize()

    def test_wirefabric_rejects_udp_planes(self):
        from repro.simulation.roundsync import WireFabric
        with pytest.raises(ValueError, match="create_wire_fabric"):
            WireFabric(seed=1, execution="asyncio")

    def test_unknown_name_suggests(self):
        with pytest.raises(ValueError, match="batch-v2"):
            execution.get_plane("batch-v3")
        with pytest.raises(ValueError, match="event"):
            execution.resolve("events")

    def test_resolve_defaults_and_shards(self):
        spec = execution.resolve("event")
        assert spec.name == "event" and spec.shards == 1
        spec = execution.resolve("batch-v2", 4)
        assert spec.name == "batch-v2" and spec.shards == 4
        # shards=1 is the no-op spelling every plane accepts.
        assert execution.resolve("asyncio", 1).shards == 1

    def test_resolve_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="shards"):
            execution.resolve("batch-v2", 0)
        with pytest.raises(ValueError, match="shard"):
            execution.resolve("event", 2)
        with pytest.raises(ValueError, match="shard"):
            execution.resolve("asyncio", 4)


class TestFacadeIntegration:
    def test_simconfig_resolves_plane(self):
        cfg = SimConfig(seed=1, execution="batch-v2", shards=2)
        assert cfg.execution == "batch-v2" and cfg.shards == 2
        assert SimConfig(seed=1).shards == 1
        with pytest.raises(ValueError):
            SimConfig(seed=1, execution="event", shards=2)
        with pytest.raises(ValueError):
            SimConfig(seed=1, execution="nope")

    def test_runreport_engine_vocabulary(self):
        report = Simulation(SimConfig(seed=3, n_clients=6,
                                      execution="batch-v2")).run(
                                          rounds=5)
        assert report.engine == "batch-v2"
        assert report.shards == 1
        assert report.detail["engine"] == "batch-v2"

    def test_scenario_report_execution_alias_removed(self):
        from repro.scenario import run_scenario
        from repro.scenario.loader import load_scenario
        scenario = load_scenario("scenarios/00-baseline.toml")
        report = run_scenario(scenario, execution="batch-v2")
        assert report.engine == "batch-v2"
        # The PR-9 deprecation cycle is complete: the alias raises.
        with pytest.raises(AttributeError, match="engine"):
            report.execution
        artifact = report.to_artifact_dict()
        assert artifact["engine"] == "batch-v2"
        assert "execution" not in artifact
        assert artifact["shards"] == 1

    def test_simconfig_net_processes_validation(self):
        with pytest.raises(ValueError, match="transport"):
            SimConfig(seed=1, execution="batch-v2",
                      net_processes=True)
        cfg = SimConfig(seed=1, execution="asyncio",
                        net_processes=True)
        assert cfg.net_processes is True
        assert SimConfig(seed=1, execution="asyncio").net_processes \
            is False

    def test_runreport_engine_default(self):
        report = RunReport(scenario="live", seed=0, rounds_run=0,
                           metrics={}, trace_events=[],
                           trace_path=None, detail=None)
        assert report.engine == "event" and report.shards == 1


class TestCLIVocabulary:
    """Satellite: ``repro metrics`` / ``repro scenario`` / ``repro
    bench`` all speak ``--engine`` / ``--shards``; ``--execution``
    finished its deprecation cycle and is now a hard parse error."""

    def test_metrics_engine_flag(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--engine", "batch-v2", "--shards",
                     "2", "--rounds", "5", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "herd_" in out

    def test_metrics_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "--execution", "batch", "--rounds",
                  "5", "--format", "json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "removed" in err and "--engine" in err

    def test_scenario_execution_alias_removed(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "scenarios/00-baseline.toml",
                  "--execution", "batch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "removed" in err and "--engine" in err

    def test_scenario_engine_flag(self, capsys):
        from repro.cli import main
        code = main(["scenario", "run", "scenarios/00-baseline.toml",
                     "--engine", "batch-v2", "--shards", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[batch-v2]" in out
