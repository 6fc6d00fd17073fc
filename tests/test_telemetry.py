"""Tests for host-performance run telemetry (obs.telemetry)."""

import io
import json

import pytest

from repro.checkpoint import SimulationKilled
from repro.network.config import mesh_config
from repro.obs.telemetry import RunTelemetry, rss_kb
from repro.obs.trace import read_jsonl
from repro.sim.runner import run_simulation

RUN = dict(rate=0.1, warmup=100, measure=200, drain=0, seed=3)


class FakeClock:
    """Deterministic monotonic clock: advances a fixed step per call."""

    def __init__(self, step=0.5):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestRunTelemetry:
    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            RunTelemetry(every=0)

    def test_heartbeat_records(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=10, rate=0.25,
                            clock=FakeClock())
        tele.begin(total_cycles=40)
        for cycle in range(1, 41):
            tele.on_cycle(cycle, "measure")
        tele.finish("done", cycle=40)

        records = read_jsonl(str(path))
        events = [r["ev"] for r in records]
        assert events[0] == "start"
        assert events[-1] == "finish"
        beats = [r for r in records if r["ev"] == "heartbeat"]
        assert [b["cycle"] for b in beats] == [10, 20, 30, 40]
        first = beats[0]
        assert "label" not in first
        assert first["rate"] == 0.25
        assert first["total_cycles"] == 40
        assert first["phase"] == "measure"
        assert first["cycles_per_sec"] > 0
        assert first["progress"] == pytest.approx(0.25)
        assert first["eta_sec"] is not None
        assert first["rss_kb"] >= 0

    def test_no_heartbeat_before_period(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=1000, clock=FakeClock())
        tele.begin(total_cycles=100)
        for cycle in range(1, 101):
            tele.on_cycle(cycle, "measure")
        tele.finish("done", cycle=100)
        events = [r["ev"] for r in read_jsonl(str(path))]
        assert events == ["start", "finish"]

    def test_finish_reports_status_and_result_summary(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        result = run_simulation(mesh_config(mesh_k=4), **RUN)
        tele = RunTelemetry(path=str(path), every=50, clock=FakeClock())
        tele.begin(total_cycles=300)
        tele.finish("done", cycle=300, result=result)
        finish = read_jsonl(str(path))[-1]
        assert finish["status"] == "done"
        assert finish["result"]["cycles_run"] == result.cycles_run
        assert finish["result"]["avg_throughput"] == result.avg_throughput

    def test_finish_twice_is_safe(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=10, clock=FakeClock())
        tele.begin(total_cycles=10)
        tele.finish("done", cycle=10)
        tele.finish("done", cycle=10)  # must not raise or duplicate
        events = [r["ev"] for r in read_jsonl(str(path))]
        assert events.count("finish") == 1

    def test_console_progress_line(self):
        console = io.StringIO()
        tele = RunTelemetry(console=console, every=10, clock=FakeClock())
        tele.begin(total_cycles=20)
        for cycle in range(1, 21):
            tele.on_cycle(cycle, "measure")
        tele.finish("done", cycle=20)
        text = console.getvalue()
        assert "\rcycle 10/20" in text
        assert "cycles/sec" in text
        assert text.endswith("\n")  # progress line terminated cleanly

    def test_console_untouched_when_no_heartbeat_fired(self):
        console = io.StringIO()
        tele = RunTelemetry(console=console, every=1000, clock=FakeClock())
        tele.begin(total_cycles=5)
        for cycle in range(1, 6):
            tele.on_cycle(cycle, "measure")
        tele.finish("done", cycle=5)
        assert console.getvalue() == ""

    def test_profiler_phase_split_embedded(self, tmp_path):
        class FakeProfiler:
            def phase_totals(self):
                return {"sa": 1.5, "stream": 0.5}

        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=10, clock=FakeClock())
        tele.begin(total_cycles=10, profiler=FakeProfiler())
        tele.on_cycle(10, "warmup")
        tele.finish()
        beat = [r for r in read_jsonl(str(path))
                if r["ev"] == "heartbeat"][0]
        assert beat["phase_seconds"] == {"sa": 1.5, "stream": 0.5}


class TestRunnerIntegration:
    def test_run_simulation_emits_heartbeats(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=100)
        result = run_simulation(mesh_config(mesh_k=4), telemetry=tele,
                                **RUN)
        records = read_jsonl(str(path))
        assert records[0]["ev"] == "start"
        assert records[0]["total_cycles"] == 300
        assert any(r["ev"] == "heartbeat" for r in records)
        finish = records[-1]
        assert finish["ev"] == "finish"
        assert finish["status"] == "done"
        assert finish["result"]["cycles_run"] == result.cycles_run

    def test_killed_run_reports_killed_status(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        tele = RunTelemetry(path=str(path), every=50)
        with pytest.raises(SimulationKilled):
            run_simulation(mesh_config(mesh_k=4), telemetry=tele,
                           kill_at=150, **RUN)
        finish = read_jsonl(str(path))[-1]
        assert finish["ev"] == "finish"
        assert finish["status"] == "killed"
        assert finish["cycle"] >= 150

    def test_telemetry_does_not_change_results(self, tmp_path):
        plain = run_simulation(mesh_config(mesh_k=4), **RUN)
        tele = RunTelemetry(path=str(tmp_path / "t.hb.jsonl"), every=50)
        traced = run_simulation(mesh_config(mesh_k=4), telemetry=tele,
                                **RUN)
        assert plain.to_dict() == traced.to_dict()


class TestHeartbeatFiles:
    def test_torn_tail_discarded(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        good = {"ev": "heartbeat", "cycle": 10}
        path.write_text(json.dumps(good) + "\n" + '{"ev": "hea')
        assert read_jsonl(str(path)) == [good]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.hb.jsonl"
        path.write_text('\n{"ev": "start"}\n\n{"ev": "finish"}\n')
        assert [r["ev"] for r in read_jsonl(str(path))] == \
            ["start", "finish"]


def test_rss_kb_positive_on_linux():
    assert rss_kb() > 0
