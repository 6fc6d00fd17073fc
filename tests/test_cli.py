"""CLI smoke and behavior tests."""

import io
import re

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

    def test_run_reliable_with_plan(self, tmp_path):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--faults", self._plan(tmp_path), "--reliable",
            "--invariants", "strict",
        )
        assert code == 0
        assert "1 link" in text
        assert "0 failed" in text
        assert "0 violations" in text

    def test_run_reliable_with_plan_json(self, tmp_path):
        import json

        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "4000",
            "--faults", self._plan(tmp_path), "--reliable",
            "--invariants", "strict", "--json",
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["faults"]["injection"]["failed_links"] == 1
        assert "plan" not in payload

    def test_run_exits_1_when_packets_are_lost(self, tmp_path):
        import json

        plan = tmp_path / "lossy.json"
        plan.write_text(json.dumps({"seed": 4, "flit_errors": {"drop": 0.05}}))
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "200", "--drain", "2000",
            "--faults", str(plan), "--reliable", "--reliable-retries", "0",
            "--reliable-timeout", "64",
        )
        assert code == 1
        assert re.search(r" [1-9][0-9]* failed\n", text)

    def test_run_hang_exits_3_with_one_line(self, tmp_path):
        """Three dead links wedge this 4x4 mesh at cycle ~1000; the
        watchdog's hang is a one-line diagnosis, not a traceback."""
        import json

        plan = tmp_path / "wedge.json"
        plan.write_text(json.dumps({"seed": 2, "links": [
            {"router": 1, "port": 1, "cycle": 21},
            {"router": 2, "port": 0, "cycle": 94},
            {"router": 7, "port": 3, "cycle": 85},
        ]}))
        dump = tmp_path / "hang.json"
        code, text = run_cli(
            "run", "--mesh-k", "4", "--seed", "2", "--rate", "0.2",
            "--warmup", "100", "--measure", "300", "--drain", "3000",
            "--faults", str(plan), "--reliable", "--invariants", "strict",
            "--watchdog", "500", "--watchdog-dump", str(dump),
        )
        assert code == 3
        assert text.startswith("repro run: deadlock detected at cycle ")
        assert f"diagnostics       : {dump}\n" in text
        assert dump.exists()


class TestCheckpointCLI:
    """``run --checkpoint --kill-at`` then ``run --resume``, as CI's
    resume-smoke job does across processes."""

    FLAGS = ("--mesh-k", "4", "--rate", "0.3", "--chaining", "any_input",
             "--warmup", "200", "--measure", "400", "--drain", "300",
             "--seed", "1")

    def _killed(self, tmp_path):
        from repro.network import flit as flitmod

        ck = str(tmp_path / "ck.json.gz")
        flitmod.set_next_packet_id(0)
        code, text = run_cli("run", *self.FLAGS, "--checkpoint", ck,
                             "--checkpoint-every", "100", "--kill-at", "350")
        assert code == 4
        assert f"checkpoint        : {ck}\n" in text
        return ck

    def test_resume_matches_uninterrupted_json(self, tmp_path):
        from repro.network import flit as flitmod

        flitmod.set_next_packet_id(0)
        code, ref = run_cli("run", *self.FLAGS, "--json")
        assert code == 0
        ck = self._killed(tmp_path)
        flitmod.set_next_packet_id(0)
        code, resumed = run_cli("run", *self.FLAGS, "--resume", ck, "--json")
        assert code == 0
        assert resumed == ref

    def test_resume_with_other_flags_exits_2(self, tmp_path):
        ck = self._killed(tmp_path)
        flags = list(self.FLAGS)
        flags[flags.index("--rate") + 1] = "0.25"
        code, text = run_cli("run", *flags, "--resume", ck)
        assert code == 2
        assert "refusing to resume" in text

    def test_refused_resume_leaves_no_digest_file(self, tmp_path):
        """The refusal comes before the run starts, so the digest
        stream is never opened: no empty file, no open handle."""
        ck = self._killed(tmp_path)
        digest = tmp_path / "d.jsonl"
        code, text = run_cli("run", "--mesh-k", "4", "--rate", "0.2",
                             "--warmup", "100", "--measure", "100",
                             "--drain", "0", "--resume", ck,
                             "--digest", str(digest))
        assert code == 2
        assert "refusing to resume" in text
        assert not digest.exists()


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
        import json as json_mod

        hb = tmp_path / "run.hb.json"
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "400", "--drain", "0",
            "--heartbeat", str(hb), "--json",
        )
        assert code == 0
        beat = json_mod.loads(hb.read_text())  # one object, not a stream
        assert beat["state"] == "done"
        assert beat["cycle"] == json_mod.loads(text)["cycles_run"]

    def test_run_heartbeat_is_a_serve_attempts_heartbeat(self, tmp_path):
        """``repro run --heartbeat F`` writes what a serve attempt
        writes to ``hb/<job>.a1.hb.json``: one JSON object, same keys."""
        import json as json_mod

        from repro import mesh_config
        from repro.serve import spec_for
        from repro.serve.supervisor import run_job_worker

        hb = tmp_path / "run.hb.json"
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1",
            "--warmup", "100", "--measure", "300", "--drain", "200",
            "--heartbeat", str(hb), "--json",
        )
        assert code == 0
        run_beat = json_mod.loads(hb.read_text())
        spec = spec_for(mesh_config(mesh_k=4), rate=0.1, warmup=100,
                        measure=300, drain=200)
        root = tmp_path / "svc"
        run_job_worker(str(root), "jschema", 1, spec.to_dict())
        serve_beat = json_mod.loads(
            (root / "hb" / "jschema.a1.hb.json").read_text())
        for beat in (run_beat, serve_beat):
            assert {"name", "attempt", "pid", "state", "cycle", "t"} <= \
                set(beat)
            assert beat["attempt"] == 1
        assert set(run_beat) == set(serve_beat)
        assert run_beat["state"] == serve_beat["state"] == "done"
        assert run_beat["cycle"] == json_mod.loads(text)["cycles_run"]
