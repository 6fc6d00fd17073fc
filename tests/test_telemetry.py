"""Tests for a run's host telemetry: the beat probe
(``repro.proc.BeatProbe``) behind ``repro run --progress/--heartbeat``
and every serve attempt's heartbeat."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.checkpoint import SimulationKilled
from repro.network.config import mesh_config
from repro.proc import BeatProbe, Heartbeat
from repro.sim.runner import KillAt, run_simulation

RUN = dict(rate=0.1, warmup=100, measure=200, drain=0, seed=3)


class FakeRun:
    """Just enough SimulationRun for a probe: cycle, phase, schedule."""

    def __init__(self, total_cycles):
        self.network = SimpleNamespace(cycle=0)
        self.phase = "measure"
        self.warmup, self.measure, self.drain = total_cycles, 0, 0


def drive(probe, run, to_cycle):
    """Step ``run`` to ``to_cycle``, firing ``probe`` when it is due."""
    for cycle in range(run.network.cycle + 1, to_cycle + 1):
        run.network.cycle = cycle
        if cycle >= probe.due:
            probe.on_cycle(run)


def beat_probe(path, min_interval=0.2, console=None):
    return BeatProbe(Heartbeat(None if path is None else str(path), "run", 1,
                               min_interval=min_interval), console=console)


def read(path):
    """The heartbeat file: always one whole JSON object."""
    return json.loads(path.read_text())


class TestRunTelemetry:
    """The beat probe on a stand-in run."""

    def test_heartbeat_records(self, tmp_path):
        path = tmp_path / "run.hb.json"
        probe = beat_probe(path, min_interval=0)
        run = FakeRun(total_cycles=40)
        probe.start(run)
        first = read(path)
        assert first["state"] == "running"
        assert first["total_cycles"] == 40
        assert (first["name"], first["attempt"]) == ("run", 1)
        assert first["pid"] > 0 and first["t"] > 0
        for cycle in (10, 25, 40):
            drive(probe, run, cycle)
            beat = read(path)  # every beat passes a zero throttle
            assert (beat["cycle"], beat["phase"]) == (cycle, "measure")
            assert beat["state"] == "running"

    def test_no_heartbeat_before_period(self, tmp_path):
        path = tmp_path / "run.hb.json"
        probe = beat_probe(path, min_interval=3600)
        run = FakeRun(total_cycles=100)
        # As run_attempt does: a forced beat starts the throttle period.
        probe.heartbeat.beat(force=True, state="constructing")
        probe.start(run)
        drive(probe, run, 100)
        assert read(path)["state"] == "constructing"
        assert "cycle" not in read(path)
        probe.finish(run, "done", None)  # forced: passes the throttle
        final = read(path)
        assert (final["state"], final["cycle"]) == ("done", 100)
        assert final["total_cycles"] == 100

    def test_finish_reports_status_and_result_summary(self, tmp_path):
        for status in ("done", "killed", "failed"):
            path = tmp_path / f"{status}.hb.json"
            probe = beat_probe(path, min_interval=3600)
            run = FakeRun(total_cycles=300)
            probe.start(run)
            run.network.cycle = 137
            probe.finish(run, status, None)
            final = read(path)
            assert (final["state"], final["cycle"]) == (status, 137)

    def test_finish_twice_is_safe(self, tmp_path):
        path = tmp_path / "run.hb.json"
        console = io.StringIO()
        probe = beat_probe(path, console=console)
        run = FakeRun(total_cycles=10)
        probe.start(run)
        run.network.cycle = 10
        probe.finish(run, "done", None)
        probe.finish(run, "done", None)  # must not raise
        assert read(path)["state"] == "done"
        assert console.getvalue().endswith("\n")
        # Finished without a start (a probe before it failed in start).
        unstarted = beat_probe(path, console=io.StringIO())
        unstarted.finish(run, "failed", None)
        assert read(path)["state"] == "failed"

    def test_console_progress_line(self, tmp_path):
        console = io.StringIO()
        probe = beat_probe(None, min_interval=0, console=console)
        run = FakeRun(total_cycles=20)
        probe.start(run)
        drive(probe, run, 20)
        probe.finish(run, "done", None)
        text = console.getvalue()
        assert "\rcycle 10/20" in text
        assert "cycles/sec" in text and "eta" in text
        assert text.endswith("\n")  # progress line terminated cleanly
        assert list(tmp_path.iterdir()) == []  # --progress alone: no file


class TestRunnerIntegration:
    def test_run_simulation_emits_heartbeats(self, tmp_path):
        path = tmp_path / "run.hb.json"
        result = run_simulation(mesh_config(mesh_k=4),
                                probes=[beat_probe(path)], **RUN)
        final = read(path)
        assert final["state"] == "done"
        assert final["total_cycles"] == 300
        assert final["cycle"] == result.cycles_run
        assert final["phase"] == "main"

    def test_killed_run_reports_killed_status(self, tmp_path):
        path = tmp_path / "run.hb.json"
        with pytest.raises(SimulationKilled):
            run_simulation(mesh_config(mesh_k=4),
                           probes=[beat_probe(path), KillAt(150)], **RUN)
        final = read(path)
        assert final["state"] == "killed"
        assert final["cycle"] == 150

    def test_telemetry_does_not_change_results(self, tmp_path):
        plain = run_simulation(mesh_config(mesh_k=4), **RUN)
        probe = beat_probe(tmp_path / "t.hb.json", min_interval=0,
                           console=io.StringIO())
        traced = run_simulation(mesh_config(mesh_k=4), probes=[probe], **RUN)
        assert plain.to_dict() == traced.to_dict()
