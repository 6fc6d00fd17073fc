"""CLI smoke and behavior tests."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCLI:
    def test_run_basic(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "200",
        )
        assert code == 0
        assert "accepted (mean)" in text
        assert "0.1" in text

    def test_run_with_chaining_reports_chains(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.8",
            "--chaining", "any_input",
            "--warmup", "100", "--measure", "300", "--drain", "0",
        )
        assert code == 0
        assert "chains" in text

    def test_sweep(self):
        code, text = run_cli(
            "sweep", "--mesh-k", "4", "--rates", "0.05", "0.1",
            "--warmup", "100", "--measure", "200",
        )
        assert code == 0
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 3  # header + two rates

    def test_sweep_passes_drain(self):
        import json

        from repro import mesh_config, run_simulation

        rows = {}
        for drain in (None, "0", "800"):
            extra = ("--drain", drain) if drain is not None else ()
            code, text = run_cli(
                "sweep", "--mesh-k", "4", "--rates", "0.6", "--warmup", "100",
                "--measure", "300", "--json", *extra,
            )
            assert code == 0
            rows[drain] = json.loads(text)[0]
        for drain in (0, 800):
            expected = run_simulation(
                mesh_config(mesh_k=4), rate=0.6, warmup=100, measure=300,
                drain=drain,
            )
            row = rows[str(drain)]
            assert row["drain_cycles"] == expected.drain_cycles
            assert row["packet_latency"]["mean"] == \
                expected.packet_latency.mean
        # Without the flag a sweep does not drain, as before --drain
        # reached it.
        assert rows[None] == rows["0"]
        assert rows["800"]["drain_cycles"] > 0

    def test_saturation_passes_drain(self, monkeypatch):
        import repro.cli as cli

        seen = []

        def fake_find_saturation(config_factory, **kwargs):
            seen.append(kwargs["drain"])
            return 0.5, 0.49

        monkeypatch.setattr(cli, "find_saturation", fake_find_saturation)
        assert run_cli("saturation", "--mesh-k", "4")[0] == 0
        assert run_cli("saturation", "--mesh-k", "4", "--drain", "300")[0] == 0
        assert seen == [0, 300]

    def test_saturation(self):
        code, text = run_cli(
            "saturation", "--mesh-k", "4",
            "--warmup", "100", "--measure", "200",
        )
        assert code == 0
        assert "saturation rate" in text

    def test_cost(self):
        code, text = run_cli("cost", "--radix", "5")
        assert code == 0
        assert "wavefront vs packet chaining" in text
        assert "1.25x area" in text

    def test_cmp(self):
        code, text = run_cli(
            "cmp", "--workload", "canneal",
            "--warmup", "50", "--measure", "150",
        )
        assert code == 0
        assert "IPC" in text

    def test_bimodal_flag(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.2", "--bimodal",
            "--warmup", "100", "--measure", "200", "--drain", "200",
        )
        assert code == 0

    def test_fbfly_selects_ugal(self):
        code, text = run_cli(
            "run", "--topology", "fbfly", "--rate", "0.2",
            "--warmup", "100", "--measure", "200", "--drain", "200",
        )
        assert code == 0

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_parser_rejects_bad_chaining(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--chaining", "sometimes"])


class TestFaultCLI:
    def _plan(self, tmp_path):
        import json

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "links": [{"router": 5, "port": 0, "cycle": 50}],
        }))
        return str(path)

    def test_run_with_fault_flags(self, tmp_path):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--faults", self._plan(tmp_path), "--reliable",
            "--invariants", "strict", "--watchdog", "500",
        )
        assert code == 0
        assert "faults" in text
        assert "reliability" in text
        assert "invariants" in text
        assert "watchdog" in text

    def test_run_without_fault_flags_prints_no_fault_lines(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "50", "--measure", "100", "--drain", "200",
        )
        assert code == 0
        assert "reliability" not in text
        assert "invariants" not in text

    def test_faults_subcommand_with_plan(self, tmp_path):
        code, text = run_cli(
            "faults", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--plan", self._plan(tmp_path),
        )
        assert code == 0
        assert "1 link" in text
        assert "0 failed" in text
        assert "0 violations" in text

    def test_faults_subcommand_generated_plan(self, tmp_path):
        saved = tmp_path / "generated.json"
        code, text = run_cli(
            "faults", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--random-links", "2", "--drop", "0.001",
            "--save-plan", str(saved),
        )
        assert code == 0
        assert saved.exists()
        import json

        from repro.faults import FaultPlan

        plan = FaultPlan.load(saved)
        assert len(plan.links) == 2
        assert plan.flit_errors.drop == 0.001

    def test_faults_subcommand_json(self, tmp_path):
        import json

        code, text = run_cli(
            "faults", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--plan", self._plan(tmp_path), "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["faults"]["injection"]["failed_links"] == 1
        assert payload["plan"]["links"][0]["router"] == 5


class TestTelemetryCLI:
    def test_run_progress_keeps_json_stdout_clean(self, capsys):
        import json as json_mod
        import sys

        from repro.cli import main

        code = main([
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "1500", "--drain", "0",
            "--progress", "--json",
        ], out=sys.stdout)
        captured = capsys.readouterr()
        assert code == 0
        payload = json_mod.loads(captured.out)  # stdout stays machine-readable
        assert payload["cycles_run"] > 0
        assert "cycles/sec" in captured.err  # progress went to stderr

    def test_run_heartbeat_file(self, tmp_path):
        from repro.obs.trace import read_jsonl

        hb = tmp_path / "run.hb.jsonl"
        code, _ = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "400", "--drain", "0",
            "--heartbeat", str(hb), "--heartbeat-every", "100",
        )
        assert code == 0
        records = read_jsonl(str(hb))
        assert records[0]["ev"] == "start"
        assert records[-1]["ev"] == "finish"
        assert any(r["ev"] == "heartbeat" for r in records)

    def test_report_on_profile_with_collapsed_export(self, tmp_path):
        profile = tmp_path / "prof.json"
        stacks = tmp_path / "stacks.txt"
        code, _ = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.2",
            "--warmup", "100", "--measure", "400", "--drain", "0",
            "--profile", str(profile),
        )
        assert code == 0
        code, text = run_cli(
            "report", str(profile), "--collapsed", str(stacks)
        )
        assert code == 0
        assert "wall-clock hot spots" in text
        lines = stacks.read_text().splitlines()
        assert lines
        assert all(line.startswith("sim;") for line in lines)

    def test_report_on_metrics_export(self, tmp_path):
        metrics = tmp_path / "m.json"
        code, _ = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.3",
            "--warmup", "50", "--measure", "100", "--drain", "100",
            "--metrics", str(metrics),
        )
        assert code == 0
        code, text = run_cli("report", str(metrics), "--top", "3")
        assert code == 0
        assert text.startswith("metrics export\n")
        assert "grant efficiency" in text
        assert "switch alloc" in text
        counters = text.split("top 3 counters\n")[1].split("\n\n")[0]
        assert len(counters.splitlines()) == 3

    def test_report_collapsed_requires_profile(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text('["ev", 0, {}]\n')
        code, text = run_cli(
            "report", str(trace), "--collapsed", str(tmp_path / "s.txt")
        )
        assert code == 2
        assert "--collapsed needs a profile JSON" in text
