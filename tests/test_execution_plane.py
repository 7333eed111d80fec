"""The ExecutionPlane registry: engines resolve by name, not string-if.

DESIGN.md §13: ``SimConfig(execution=...)`` and every CLI ``--engine``
flag resolve through :mod:`repro.execution` — one registry owning the
mapping from an engine name to how the wire plane carries a round
(``wire_mode``) and which *transport* carries the wire image (``sim``
in memory vs ``udp`` loopback datagrams).  These tests pin the
registry surface, its validation errors, the facade integration
(``RunReport.engine`` everywhere), the completed deprecation cycles
(``ScenarioReport.execution``, the ``--execution`` CLI flag and the
``"batch"`` plane name all raise now) and the removal of zone
sharding: ``shards`` is gone from every config, report and CLI, and
the three benchmark entry points that still take it accept only
``None`` / ``1``.
"""

import pytest

from repro import execution
from repro.api import RunReport, SimConfig, Simulation


class TestRegistry:
    def test_registered_planes(self):
        assert execution.plane_names() == ("event", "batch-v2",
                                           "asyncio")

    def test_plane_specs(self):
        assert execution.resolve("event").wire_mode == "event"
        assert execution.resolve("batch-v2").wire_mode == "vector"

    def test_removed_batch_name_suggests_batch_v2(self):
        # The one-cycle "batch" alias is gone: the name is unknown
        # like any other, with the usual did-you-mean hint.
        with pytest.raises(ValueError,
                           match="did you mean 'batch-v2'"):
            execution.resolve("batch")

    def test_transport_axis(self):
        # Every simulator plane runs on the "sim" transport; the
        # asyncio plane is the only one on real sockets.
        for name in ("event", "batch-v2"):
            assert execution.resolve(name).transport == "sim"
        net = execution.resolve("asyncio")
        assert net.transport == "udp"
        assert net.wire_mode == "socket"

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
            execution.resolve("batch-v3")
        with pytest.raises(ValueError, match="event"):
            execution.resolve("events")

    def test_resolve_returns_the_registered_plane(self):
        for name in execution.plane_names():
            plane = execution.resolve(name)
            assert isinstance(plane, execution.ExecutionPlane)
            assert plane.name == name

    def test_check_shards_accepts_only_one(self):
        # The vestigial parameter of LiveZone, run_scenario and
        # run_backbone: the single-process spellings pass, anything
        # else names the removal.
        from repro.obs.prof.bench import run_backbone
        from repro.scenario import run_scenario
        from repro.scenario.loader import load_scenario
        from repro.simulation.live import LiveZone
        execution.check_shards(None)
        execution.check_shards(1)
        for bad in (0, 2, 4):
            with pytest.raises(ValueError,
                               match="zone sharding was removed"):
                execution.check_shards(bad)
        assert run_backbone("batch-v2", 100, 2, shards=1)["cells"] \
            == run_backbone("batch-v2", 100, 2)["cells"] == 400
        with pytest.raises(ValueError, match="sharding was removed"):
            run_backbone("batch-v2", 100, 2, shards=2)
        with pytest.raises(ValueError, match="sharding was removed"):
            LiveZone(n_clients=4, execution="batch-v2", shards=2)
        scenario = load_scenario("scenarios/00-baseline.toml")
        with pytest.raises(ValueError, match="sharding was removed"):
            run_scenario(scenario, execution="batch-v2", shards=4)


class TestFacadeIntegration:
    def test_simconfig_resolves_plane(self):
        cfg = SimConfig(seed=1, execution="batch-v2")
        assert cfg.execution == "batch-v2"
        assert not hasattr(cfg, "shards")
        with pytest.raises(TypeError):
            SimConfig(seed=1, execution="batch-v2", shards=2)
        with pytest.raises(ValueError):
            SimConfig(seed=1, execution="nope")

    def test_runreport_engine_vocabulary(self):
        report = Simulation(SimConfig(seed=3, n_clients=6,
                                      execution="batch-v2")).run(
                                          rounds=5)
        assert report.engine == "batch-v2"
        assert not hasattr(report, "shards")
        assert report.detail["engine"] == "batch-v2"
        assert "shards" not in report.detail

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
        assert "shards" not in artifact

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
        assert report.engine == "event"


class TestCLIVocabulary:
    """``repro metrics`` / ``repro scenario`` / ``repro bench`` all
    speak ``--engine``; ``--execution`` finished its deprecation cycle
    and is now a hard parse error, and ``--shards`` is gone."""

    def test_metrics_engine_flag(self, capsys):
        from repro.cli import main
        assert main(["metrics", "--engine", "batch-v2", "--rounds",
                     "5", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert "herd_" in out

    @pytest.mark.parametrize("argv", [
        ["metrics", "--engine", "batch-v2", "--shards", "2"],
        ["scenario", "run", "scenarios/00-baseline.toml",
         "--shards", "2"],
        ["bench", "run", "--shards", "2"],
    ])
    def test_shards_flag_removed(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--shards" in capsys.readouterr().err

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
                     "--engine", "batch-v2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[batch-v2]" in out
