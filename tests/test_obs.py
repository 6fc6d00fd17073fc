"""Observability layer: trace bus, metrics registry, profiler, report."""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.config import mesh_config
from repro.network.network import Network
from repro.obs import (
    EVENT_TYPES,
    NULL_TRACE,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    PhaseProfiler,
    TraceBus,
    TraceFilter,
    format_report,
    read_jsonl,
    summarize_trace,
)
from repro.obs.trace import append_jsonl
from repro.sim.runner import SimulationRun, run_simulation
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern


def traced_run(config, rate=0.6, measure=300, drain=2000, packet_length=1,
               trace=None):
    """Run with window [0, measure) and a full drain; returns (result, net)."""
    import random

    net = Network(config, trace=trace)
    rng = random.Random(7)
    pat = build_pattern("uniform", net.num_terminals, rng)
    inj = BernoulliInjector(
        net.num_terminals, pat, rate, FixedLength(packet_length), rng
    )
    run = SimulationRun(net, inj, warmup=0, measure=measure, drain=drain)
    return run.execute(), net


class TestTraceBus:
    def test_null_trace_never_active(self):
        assert NULL_TRACE.active is False

    def test_active_requires_sink_and_enabled(self):
        bus = TraceBus()
        assert not bus.active  # no sink yet
        sink = bus.attach(MemorySink())
        assert bus.active
        bus.disable()
        assert not bus.active
        bus.enable()
        assert bus.active
        bus.detach(sink)
        assert not bus.active

    def test_emit_counts_and_fans_out(self):
        bus = TraceBus()
        a, b = bus.attach(MemorySink()), bus.attach(MemorySink())
        bus.emit("sa_grant", 5, router=1, port=2, pid=9)
        assert bus.counts == {"sa_grant": 1}
        assert a.events == b.events
        assert a.events[0] == {
            "ev": "sa_grant", "cycle": 5, "router": 1, "port": 2, "pid": 9
        }

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus()
        bus.attach(JsonlSink(str(path)))
        bus.emit("pc_chain", 3, router=0, port=1, pid=4)
        bus.emit("flit_ejected", 9, terminal=2, pid=4, tail=True)
        bus.close()
        events = read_jsonl(str(path))
        assert [e["ev"] for e in events] == ["pc_chain", "flit_ejected"]
        assert events[1]["tail"] is True


class TestTraceFilter:
    def test_parse_and_admit(self):
        filt = TraceFilter.parse("router=3|12,event=sa_grant|pc_chain")
        assert filt.admits({"ev": "sa_grant", "cycle": 0, "router": 3})
        assert not filt.admits({"ev": "sa_grant", "cycle": 0, "router": 4})
        assert not filt.admits({"ev": "flit_routed", "cycle": 0, "router": 3})

    def test_packet_and_port_filters(self):
        filt = TraceFilter(ports=[2], packets=[7])
        assert filt.admits({"ev": "sa_grant", "cycle": 0, "port": 2, "pid": 7})
        assert not filt.admits({"ev": "sa_grant", "cycle": 0, "port": 1, "pid": 7})
        # Events lacking a filtered key are dropped by that criterion.
        assert not filt.admits({"ev": "packet_created", "cycle": 0, "pid": 7})

    def test_bus_applies_filter(self):
        bus = TraceBus(filter=TraceFilter(events=["pc_chain"]))
        sink = bus.attach(MemorySink())
        bus.emit("sa_grant", 1, router=0, port=0)
        bus.emit("pc_chain", 1, router=0, port=0)
        assert [e["ev"] for e in sink.events] == ["pc_chain"]

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TraceFilter.parse("router3")
        with pytest.raises(ValueError):
            TraceFilter.parse("flavor=spicy")
        with pytest.raises(ValueError):
            TraceFilter.parse("event=not_an_event")

    def test_empty_expression_admits_all(self):
        filt = TraceFilter.parse("")
        assert filt.admits({"ev": "sa_grant", "cycle": 0})


class TestTraceReconciliation:
    """Acceptance: trace event counts match the StatsCollector totals."""

    @pytest.fixture(scope="class")
    def traced(self):
        bus = TraceBus()
        sink = bus.attach(MemorySink())
        cfg = mesh_config(mesh_k=4, chaining="any_input", seed=3)
        result, net = traced_run(cfg, rate=0.7, measure=300, trace=bus)
        return result, net, sink.events

    def test_drain_completed(self, traced):
        result, _, _ = traced
        assert result.drained is True

    def test_pc_chain_events_match_chain_stats(self, traced):
        result, _, events = traced
        chains = sum(1 for e in events if e["ev"] == "pc_chain")
        assert chains == result.chain_stats.total_chains > 0

    def test_ejection_events_match_collector(self, traced):
        _, net, events = traced
        window = net.stats.window
        in_window = [
            e for e in events
            if e["ev"] == "flit_ejected" and window[0] <= e["cycle"] < window[1]
        ]
        assert len(in_window) == net.stats.flits_ejected
        tails = sum(1 for e in in_window if e["tail"])
        assert tails == net.stats.packets_ejected

    def test_sa_grant_events_present_and_bounded(self, traced):
        _, _, events = traced
        grants = sum(1 for e in events if e["ev"] == "sa_grant")
        routed = sum(1 for e in events if e["ev"] == "flit_routed")
        assert 0 < grants <= routed

    def test_injected_events_match_created(self, traced):
        _, _, events = traced
        created = sum(1 for e in events if e["ev"] == "packet_created")
        heads = sum(
            1 for e in events if e["ev"] == "flit_injected" and e["idx"] == 0
        )
        assert heads == created  # fully drained: everything got injected

    def test_event_types_are_known(self, traced):
        _, _, events = traced
        assert {e["ev"] for e in events} <= EVENT_TYPES

    def test_report_reconstructs_chain_count(self, traced):
        result, _, events = traced
        summary = summarize_trace(events)
        chained = sum(
            (length - 1) * count
            for length, count in summary.chain_lengths.items()
        )
        assert chained == result.chain_stats.total_chains

    def test_conn_events_for_multiflit_packets(self):
        bus = TraceBus()
        sink = bus.attach(MemorySink())
        cfg = mesh_config(mesh_k=4, chaining="same_input", seed=5)
        traced_run(cfg, rate=0.5, measure=200, packet_length=4, trace=bus)
        kinds = {e["ev"] for e in sink.events}
        assert "conn_held" in kinds and "conn_released" in kinds
        reasons = {
            e["reason"] for e in sink.events if e["ev"] == "conn_released"
        }
        assert "tail" in reasons

    def test_starvation_tick_emitted_under_threshold(self):
        # Length-aware chaining refuses chains that would cross the
        # threshold, so forced releases only happen when a single packet
        # outlives it: packets (6 flits) longer than the threshold (4).
        bus = TraceBus()
        sink = bus.attach(MemorySink())
        cfg = mesh_config(
            mesh_k=4, chaining="any_input", starvation_threshold=4, seed=5
        )
        traced_run(cfg, rate=0.8, measure=300, packet_length=6, trace=bus)
        ticks = [e for e in sink.events if e["ev"] == "starvation_tick"]
        assert ticks and all(t["mode"] == "threshold" for t in ticks)
        cuts = [
            e for e in sink.events
            if e["ev"] == "conn_released" and e["reason"] == "starvation"
        ]
        assert len(cuts) == len(ticks)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("flits").inc(3)
        reg.counter("flits").inc(2)  # get-or-create accumulates
        reg.gauge("load").set(0.5)
        h = reg.histogram("lat", edges=(10, 20))
        h.observe(5)
        h.observe(15)
        h.observe(99)
        d = reg.to_dict()
        assert d["counters"]["flits"] == 5
        assert d["gauges"]["load"] == 0.5
        assert d["histograms"]["lat"]["counts"] == [1, 1, 1]
        assert d["histograms"]["lat"]["count"] == 3
        assert d["histograms"]["lat"]["sum"] == 119.0

    def test_counter_rejects_decrement(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_bucket_edges_are_inclusive_upper(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", edges=(10,))
        h.observe(10)  # lands in the le=10 bucket, not overflow
        assert h.counts == [1, 0]

    def test_save_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        path = tmp_path / "m.json"
        reg.save_json(str(path))
        assert json.loads(path.read_text())["counters"]["c"] == 1

    def test_publish_from_run(self):
        reg = MetricsRegistry()
        cfg = mesh_config(mesh_k=4, chaining="any_input", seed=2)
        result = run_simulation(
            cfg, rate=0.6, warmup=50, measure=150, drain=500, metrics=reg,
        )
        d = reg.to_dict()
        assert d["counters"]["chains_total"] == result.chain_stats.total_chains
        assert d["gauges"]["throughput_avg"] == pytest.approx(
            result.avg_throughput
        )
        assert (
            d["histograms"]["packet_latency_cycles"]["count"]
            == result.packet_latency.count
        )


class TestPhaseProfiler:
    def test_epoch_rollup(self):
        prof = PhaseProfiler(epoch_cycles=10)
        for _ in range(25):
            prof.add("sa", 0.001)
            prof.end_cycle()
        prof.finish()
        assert [e["cycles"] for e in prof.epochs] == [10, 10, 5]
        assert prof.cycles_per_sec() > 0
        assert prof.phase_totals()["sa"] == pytest.approx(0.025)

    def test_to_dict_and_save(self, tmp_path):
        prof = PhaseProfiler(epoch_cycles=5)
        for _ in range(5):
            prof.end_cycle()
        prof.finish()
        path = tmp_path / "p.json"
        prof.save(str(path))
        data = json.loads(path.read_text())
        assert data["total_cycles"] == 5
        assert data["epoch_cycles"] == 5
        assert len(data["epochs"]) == 1

    def test_run_simulation_attaches_profiler(self):
        prof = PhaseProfiler(epoch_cycles=50)
        cfg = mesh_config(mesh_k=4, chaining="same_input", seed=1)
        result = run_simulation(
            cfg, rate=0.3, warmup=50, measure=100, drain=100, profiler=prof,
        )
        assert result.timing is not None
        assert result.timing["cycles_per_sec"] > 0
        assert result.timing["phase_seconds"]["sa"] > 0
        assert prof.cycles == result.cycles_run

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            PhaseProfiler(epoch_cycles=0)


class TestTraceReport:
    def test_chain_run_stitching(self):
        # conn held -> two same-cycle chained takeovers -> final release.
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 0, "port": 2, "pid": 1},
            {"ev": "conn_released", "cycle": 5, "router": 0, "port": 2,
             "in_port": 1, "reason": "tail"},
            {"ev": "pc_chain", "cycle": 5, "router": 0, "port": 2, "pid": 2},
            {"ev": "conn_released", "cycle": 9, "router": 0, "port": 2,
             "in_port": 1, "reason": "tail"},
            {"ev": "pc_chain", "cycle": 9, "router": 0, "port": 2, "pid": 3},
            {"ev": "conn_released", "cycle": 12, "router": 0, "port": 2,
             "in_port": 1, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {3: 1}

    def test_sa_tail_chain_starts_at_two(self):
        events = [
            {"ev": "pc_chain", "cycle": 4, "router": 1, "port": 0, "pid": 8},
            {"ev": "conn_released", "cycle": 5, "router": 1, "port": 0,
             "in_port": 3, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {2: 1}

    def test_unchained_connection_counts_as_one(self):
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 0, "port": 1, "pid": 1},
            {"ev": "conn_released", "cycle": 4, "router": 0, "port": 1,
             "in_port": 0, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {1: 1}

    def test_stale_release_then_fresh_chain_splits_runs(self):
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 0, "port": 1, "pid": 1},
            {"ev": "conn_released", "cycle": 4, "router": 0, "port": 1,
             "in_port": 0, "reason": "tail"},
            # A later chain on the same port rides a NEW sa-tail
            # connection; the old run must finalize at length 1.
            {"ev": "pc_chain", "cycle": 9, "router": 0, "port": 1, "pid": 2},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {1: 1, 2: 1}

    def test_format_report_sections(self):
        events = [
            {"ev": "flit_routed", "cycle": 2, "router": 0, "port": 1,
             "pid": 1, "idx": 0, "in_port": 4, "in_vc": 0, "out_vc": 0},
            {"ev": "sa_grant", "cycle": 2, "router": 0, "port": 1, "pid": 1,
             "in_port": 4, "vc": 0, "out_vc": 0},
            {"ev": "flit_ejected", "cycle": 7, "terminal": 3, "pid": 1,
             "idx": 0, "tail": True, "latency": 7, "blocked": 2},
        ]
        text = format_report(summarize_trace(events))
        assert "event counts" in text
        assert "chain-length distribution" in text
        assert "per-output-port contention" in text
        assert "top 10 blocked packets" in text
        assert "sa_grant" in text


class TestCLIObservability:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_run_trace_and_report(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, text = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.6", "--chaining", "any_input",
            "--warmup", "50", "--measure", "200", "--drain", "500",
            "--trace", str(trace),
        )
        assert code == 0
        assert "drain             : complete" in text
        code, text = self.run_cli("report", str(trace))
        assert code == 0
        assert "chain-length distribution" in text
        assert "chained takeovers reconstructed" in text

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_report_and_spans_on_torn_trace(self, tmp_path, suffix):
        import zlib

        trace = tmp_path / ("t" + suffix)
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3",
            "--warmup", "20", "--measure", "60", "--drain", "0",
            "--trace", str(trace),
        )
        assert code == 0
        # Cut the file mid-record, as a writer killed mid-append leaves it.
        raw = trace.read_bytes()
        torn = tmp_path / ("torn" + suffix)
        torn.write_bytes(raw[:len(raw) // 2])
        text = raw[:len(raw) // 2]
        if suffix.endswith(".gz"):
            text = zlib.decompressobj(wbits=31).decompress(text)
        intact = text.count(b"\n")
        assert 0 < intact < len(read_jsonl(str(trace)))
        code, report = self.run_cli("report", str(torn))
        assert code == 0
        assert report.startswith(f"trace: {intact} events")
        code, spans = self.run_cli("spans", str(torn))
        assert code == 0
        assert "complete packets" in spans

    @pytest.mark.parametrize("cmd", ["report", "spans"])
    @pytest.mark.parametrize("name", ["d.jsonl", "art/summary.json"])
    def test_report_and_spans_refuse_a_non_trace(self, tmp_path, cmd, name):
        # A digest stream holds records without "ev"; a JSON document
        # yields no record at all. Neither is a trace.
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3",
            "--warmup", "20", "--measure", "60", "--drain", "0",
            "--digest", str(tmp_path / "d.jsonl"),
            "--artifacts", str(tmp_path / "art"),
        )
        assert code == 0
        path = tmp_path / name
        code, text = self.run_cli(cmd, str(path))
        assert code == 2
        assert text == f"repro {cmd}: {path} is not an event trace\n"

    def test_trace_filter_limits_events(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.4",
            "--warmup", "50", "--measure", "100", "--drain", "100",
            "--trace", str(trace), "--trace-filter", "event=sa_grant",
        )
        assert code == 0
        events = read_jsonl(str(trace))
        assert events and all(e["ev"] == "sa_grant" for e in events)

    def test_metrics_export_json_and_prom(self, tmp_path):
        mjson = tmp_path / "m.json"
        mprom = tmp_path / "m.prom"
        for path in (mjson, mprom):
            code, text = self.run_cli(
                "run", "--mesh-k", "4", "--rate", "0.2",
                "--warmup", "50", "--measure", "100", "--drain", "100",
                "--metrics", str(path),
            )
            assert code == 0
            assert "grant efficiency  : SA" in text
        # Every --metrics path gets JSON, whatever its suffix.
        counters = json.loads(mjson.read_text())["counters"]
        assert counters["flits_ejected"] > 0
        assert json.loads(mprom.read_text())["counters"] == counters

    def test_run_json_output(self):
        code, text = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.2",
            "--warmup", "50", "--measure", "100", "--drain", "100", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["drained"] is True
        assert "metrics" in payload
        assert payload["avg_throughput"] > 0

    def test_sweep_json_output(self):
        code, text = self.run_cli(
            "sweep", "--mesh-k", "4", "--rates", "0.05", "0.1",
            "--warmup", "50", "--measure", "100", "--json",
        )
        assert code == 0
        rows = json.loads(text)
        assert [r["rate"] for r in rows] == [0.05, 0.1]
        assert all("metrics" in r for r in rows)

    def test_profile_output(self, tmp_path):
        prof = tmp_path / "p.json"
        code, text = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.2",
            "--warmup", "50", "--measure", "100", "--drain", "0",
            "--profile", str(prof),
        )
        assert code == 0
        assert "simulation speed" in text
        data = json.loads(prof.read_text())
        assert data["cycles_per_sec"] > 0
        assert data["total_cycles"] == 150
        assert data["epoch_cycles"] == 1000


class TestTraceIO:
    def test_gzip_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        bus = TraceBus()
        bus.attach(JsonlSink(str(path)))
        bus.emit("sa_grant", 1, router=0, port=0, pid=1)
        bus.close()
        import gzip

        with gzip.open(path, "rt") as fh:
            assert json.loads(fh.readline())["ev"] == "sa_grant"
        assert read_jsonl(str(path))[0]["cycle"] == 1

    def test_jsonl_sink_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write({"ev": "vc_free", "cycle": 2})
        assert read_jsonl(str(path)) == [{"ev": "vc_free", "cycle": 2}]
        sink.close()  # idempotent after exit

    def test_trace_bus_context_manager(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceBus() as bus:
            bus.attach(JsonlSink(str(path)))
            bus.emit("pc_chain", 4, router=1, port=0, pid=2)
        assert not bus.active  # sinks closed and detached on exit
        assert read_jsonl(str(path))[0]["ev"] == "pc_chain"

    def test_read_jsonl_from_stdin(self, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"ev": "sa_grant", "cycle": 3}\n\n')
        )
        events = read_jsonl("-")
        assert events == [{"ev": "sa_grant", "cycle": 3}]

    def test_report_cli_reads_gzip(self, tmp_path):
        import io

        from repro.cli import main

        path = tmp_path / "t.jsonl.gz"
        with TraceBus() as bus:
            bus.attach(JsonlSink(str(path)))
            bus.emit("conn_held", 1, router=0, port=1, pid=1)
            bus.emit("conn_released", 4, router=0, port=1, in_port=0,
                     reason="tail")
        out = io.StringIO()
        assert main(["report", str(path)], out=out) == 0
        assert "chain-length distribution" in out.getvalue()


JSON_RECORDS = st.lists(
    st.dictionaries(
        st.text(max_size=4),
        st.one_of(st.none(), st.booleans(), st.integers(),
                  st.text(max_size=8)),
        max_size=4,
    ),
    max_size=30,
)


class TestJsonlLogFormat:
    """``append_jsonl`` and ``read_jsonl`` on logs cut at any byte."""

    def test_append_after_torn_tail_keeps_later_records(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        with open(path, "a") as fh:
            fh.write('{"n": 3, "pad')  # the writer died mid-append
        append_jsonl(path, {"n": 4})
        assert read_jsonl(path) == [{"n": 1}, {"n": 2}, {"n": 4}]
        with open(path, "rb") as fh:
            assert fh.read() == b'{"n":1}\n{"n":2}\n{"n":4}\n'

    def test_whole_record_without_its_newline_is_never_read(self, tmp_path):
        """A tear right on a record's final newline leaves whole JSON.
        The record was never acknowledged and the next append cuts it
        off, so no reader may see it in between."""
        path = str(tmp_path / "log.jsonl")
        append_jsonl(path, {"n": 1})
        append_jsonl(path, {"n": 2})
        with open(path, "r+b") as fh:
            fh.truncate(fh.seek(0, os.SEEK_END) - 1)
        assert read_jsonl(path) == [{"n": 1}]
        append_jsonl(path, {"n": 3})
        assert read_jsonl(path) == [{"n": 1}, {"n": 3}]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('\n{"n": 1}\n\n{"n": 2}\n')
        assert read_jsonl(str(path)) == [{"n": 1}, {"n": 2}]

    @given(records=JSON_RECORDS, data=st.data())
    def test_plain_log_cut_anywhere_loads_whole_lines(self, records, data):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl")
            open(path, "w").close()
            for record in records:
                append_jsonl(path, record)
            with open(path, "rb") as fh:
                raw = fh.read()
            cut = data.draw(st.integers(0, len(raw)), label="cut")
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            got = read_jsonl(path)
        # Exactly the records whose newline lies before the cut; a cut
        # right on a newline leaves that record's text whole, but it was
        # never acknowledged, so it does not load.
        assert got == records[:raw[:cut].count(b"\n")]

    @given(records=JSON_RECORDS, data=st.data())
    def test_gzip_log_cut_anywhere_loads_a_prefix(self, records, data):
        import tempfile
        import zlib

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.jsonl.gz")
            with JsonlSink(path) as sink:
                for record in records:
                    sink.write(record)
            with open(path, "rb") as fh:
                raw = fh.read()
            # A one-byte file is not yet a gzip magic number (a killed
            # buffered writer leaves none or all of the 10-byte header).
            cut = data.draw(st.integers(0, len(raw)).filter(lambda c: c != 1),
                            label="cut")
            with open(path, "wb") as fh:
                fh.write(raw[:cut])
            got = read_jsonl(path)
        assert got == records[:len(got)]
        text = zlib.decompressobj(wbits=31).decompress(raw[:cut])
        assert len(got) == text.count(b"\n")


class TestStatsListeners:
    def _collector(self):
        from repro.stats.collector import StatsCollector

        c = StatsCollector(num_terminals=4)
        c.set_window(0, 100)
        return c

    class _Recorder:
        def __init__(self):
            self.flits = []
            self.packets = []

        def on_flit_ejected(self, flit, cycle):
            self.flits.append(cycle)

        def on_packet_ejected(self, packet, cycle):
            self.packets.append(cycle)

    class _Packet:
        def __init__(self, src=0, size=1, created=0):
            self.src = src
            self.size = size
            self.time_created = created
            self.time_injected = created
            self.blocked_cycles = 0

    class _Flit:
        def __init__(self, packet):
            self.packet = packet

    def test_listener_receives_ejections(self):
        c = self._collector()
        rec = c.add_listener(self._Recorder())
        pkt = self._Packet()
        c.record_flit_ejected(self._Flit(pkt), 5)
        c.record_ejected(pkt, 5)
        assert rec.flits == [5]
        assert rec.packets == [5]

    def test_listener_sees_out_of_window_events(self):
        # Window filtering is the listener's business, not the
        # collector's: hooks fire on every ejection.
        c = self._collector()
        rec = c.add_listener(self._Recorder())
        pkt = self._Packet(created=500)
        c.record_flit_ejected(self._Flit(pkt), 500)
        c.record_ejected(pkt, 505)
        assert rec.flits == [500]
        assert rec.packets == [505]
        assert c.flits_ejected == 0  # collector's window still applies

    def test_remove_listener(self):
        c = self._collector()
        rec = c.add_listener(self._Recorder())
        c.remove_listener(rec)
        pkt = self._Packet()
        c.record_flit_ejected(self._Flit(pkt), 1)
        c.record_ejected(pkt, 1)
        assert rec.flits == [] and rec.packets == []

    def test_listeners_survive_reset(self):
        c = self._collector()
        rec = c.add_listener(self._Recorder())
        c.reset()
        c.record_flit_ejected(self._Flit(self._Packet()), 2)
        assert rec.flits == [2]

    def test_partial_listener_allowed(self):
        class FlitOnly:
            def __init__(self):
                self.seen = 0

            def on_flit_ejected(self, flit, cycle):
                self.seen += 1

        c = self._collector()
        listener = c.add_listener(FlitOnly())
        pkt = self._Packet()
        c.record_flit_ejected(self._Flit(pkt), 1)
        c.record_ejected(pkt, 1)
        assert listener.seen == 1

    def test_hookless_listener_rejected(self):
        c = self._collector()
        with pytest.raises(TypeError):
            c.add_listener(object())

    def test_timeseries_attach_uses_listener_api(self):
        from repro.stats.timeseries import attach

        c = self._collector()
        series = attach(c, window=10)
        pkt = self._Packet()
        c.record_flit_ejected(self._Flit(pkt), 3)
        c.record_ejected(pkt, 7)
        assert series.samples[0].flits == 1
        assert series.samples[0].packets == 1
        # The collector's own methods are untouched (no monkey-patching).
        assert c.record_flit_ejected.__func__ is (
            type(c).record_flit_ejected
        )


class TestTraceReportEdgeCases:
    """The three chain-run stitching branches under degraded traces."""

    def test_lost_release_finalizes_stale_run(self):
        # The release event was filtered out of the trace: a fresh
        # conn_held on the same port must close the old run at its
        # current length instead of merging the two holds.
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 0, "port": 2, "pid": 1},
            {"ev": "conn_released", "cycle": 3, "router": 0, "port": 2,
             "in_port": 1, "reason": "tail"},
            {"ev": "pc_chain", "cycle": 3, "router": 0, "port": 2, "pid": 2},
            # pid 2's release never made it into the trace.
            {"ev": "conn_held", "cycle": 9, "router": 0, "port": 2, "pid": 3},
            {"ev": "conn_released", "cycle": 12, "router": 0, "port": 2,
             "in_port": 1, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {2: 1, 1: 1}

    def test_same_cycle_chain_onto_sa_formed_connection(self):
        # An SA tail grant forms and consumes a connection in one cycle
        # (no conn_held is ever emitted); a same-cycle pc_chain rides
        # it, and further chains extend the same run.
        events = [
            {"ev": "pc_chain", "cycle": 6, "router": 2, "port": 3, "pid": 4},
            {"ev": "conn_released", "cycle": 8, "router": 2, "port": 3,
             "in_port": 0, "reason": "tail"},
            {"ev": "pc_chain", "cycle": 8, "router": 2, "port": 3, "pid": 5},
            {"ev": "conn_released", "cycle": 11, "router": 2, "port": 3,
             "in_port": 0, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {3: 1}

    def test_aged_out_release_splits_runs(self):
        # The held connection released un-chained; a pc_chain several
        # cycles later belongs to a NEW (SA-formed) connection, so the
        # old run finalizes at its pre-release length.
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 0, "port": 1, "pid": 1},
            {"ev": "conn_released", "cycle": 4, "router": 0, "port": 1,
             "in_port": 0, "reason": "tail"},
            {"ev": "pc_chain", "cycle": 9, "router": 0, "port": 1, "pid": 2},
            {"ev": "conn_released", "cycle": 12, "router": 0, "port": 1,
             "in_port": 0, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {1: 1, 2: 1}

    def test_starvation_release_then_rechain_splits_runs(self):
        # A starvation cut is a non-tail release: the next-cycle chain
        # rides a fresh connection, not the cut one.
        events = [
            {"ev": "conn_held", "cycle": 1, "router": 3, "port": 0, "pid": 1},
            {"ev": "pc_chain", "cycle": 4, "router": 3, "port": 0, "pid": 2},
            {"ev": "conn_released", "cycle": 7, "router": 3, "port": 0,
             "in_port": 2, "reason": "starvation"},
            {"ev": "pc_chain", "cycle": 9, "router": 3, "port": 0, "pid": 3},
            {"ev": "conn_released", "cycle": 11, "router": 3, "port": 0,
             "in_port": 1, "reason": "tail"},
        ]
        summary = summarize_trace(events)
        assert dict(summary.chain_lengths) == {2: 2}


class TestCLISpansAndSamples:
    def run_cli(self, *argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_spans_subcommand_text_and_perfetto(self, tmp_path):
        trace = tmp_path / "t.jsonl.gz"
        perfetto = tmp_path / "chrome.json"
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.4", "--chaining",
            "any_input", "--warmup", "50", "--measure", "200",
            "--drain", "500", "--trace", str(trace),
        )
        assert code == 0
        code, text = self.run_cli(
            "spans", str(trace), "--perfetto", str(perfetto),
            "--limit", "20", "--top", "3",
        )
        assert code == 0
        assert "latency decomposition" in text
        assert "complete packets (0 incomplete dropped)" in text
        chrome = json.loads(perfetto.read_text())
        assert chrome["traceEvents"]
        assert len({
            e["tid"] for e in chrome["traceEvents"]
        }) <= 20

    def test_spans_json_output(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3", "--warmup", "50",
            "--measure", "150", "--drain", "500", "--trace", str(trace),
        )
        code, text = self.run_cli("spans", str(trace), "--json")
        assert code == 0
        decomp = json.loads(text)
        assert decomp["packets"] > 0
        assert set(decomp["mean"]) == {
            "source_queue", "vc_wait", "sa_wait", "traversal",
            "serialization",
        }

    def test_samples_flag_writes_jsonl(self, tmp_path):
        samples = tmp_path / "s.jsonl"
        code, _ = self.run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3", "--warmup", "0",
            "--measure", "200", "--drain", "0",
            "--samples", str(samples), "--sample-period", "50",
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in samples.read_text().strip().split("\n")
        ]
        assert [r["cycle"] for r in rows] == [0, 50, 100, 150]
        assert all(len(r["buffered"]) == 16 for r in rows)


class TestDrainReporting:
    def test_incomplete_drain_reported(self):
        cfg = mesh_config(mesh_k=4, seed=1)
        result = run_simulation(
            cfg, rate=0.9, warmup=0, measure=200, drain=2,
        )
        assert result.drained is False
        assert result.drain_cycles == 2

    def test_no_drain_requested_is_none(self):
        cfg = mesh_config(mesh_k=4, seed=1)
        result = run_simulation(cfg, rate=0.1, warmup=0, measure=50, drain=0)
        assert result.drained is None
        assert result.drain_cycles == 0

    def test_to_dict_round_trips(self):
        cfg = mesh_config(mesh_k=4, seed=1)
        result = run_simulation(cfg, rate=0.1, warmup=0, measure=50, drain=200)
        data = result.to_dict()
        json.dumps(data)  # fully serializable
        assert data["drained"] is True
        assert data["drain_cycles"] == result.drain_cycles
        assert data["saturated"] == result.saturated
