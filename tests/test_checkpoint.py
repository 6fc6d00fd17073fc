"""Checkpoint machinery: component round-trips, file format, refusals."""

import gzip
import json
import os

import pytest

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.allocators import make_allocator
from repro.checkpoint import (
    Checkpointer,
    CheckpointError,
    RestoreContext,
    SnapshotContext,
    capture_run,
    config_hash,
    lengths_from_spec,
    lengths_spec,
    load_checkpoint,
    restore_run,
    save_checkpoint,
    verify_resumable,
)
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.network.flit import Flit, Packet
from repro.obs.artifacts import atomic_write
from repro.routing.torus_dor import TorusRouteState
from repro.routing.ugal import UGALState
from repro.sim.runner import SimulationRun, run_simulation
from repro.traffic.injection import BimodalLength, FixedLength


RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=200, drain=100)


def _fresh_pids():
    flitmod.set_next_packet_id(0)


# ---------------------------------------------------------------------------
# packet / flit interning


class TestPacketInterning:
    def test_flits_of_one_packet_share_identity_after_restore(self):
        packet = Packet(src=1, dest=2, size=3, time_created=7)
        flits = [Flit(packet, i, i == 0, i == 2) for i in range(3)]
        ctx = SnapshotContext()
        blobs = [ctx.flit(f) for f in flits]
        assert len(ctx.packets) == 1

        rctx = RestoreContext(ctx.packets)
        restored = [rctx.flit(b) for b in blobs]
        assert restored[0].packet is restored[1].packet is restored[2].packet
        assert restored[0].is_head and restored[2].is_tail
        assert restored[0].packet.pid == packet.pid

    def test_string_keys_from_json_round_trip(self):
        packet = Packet(src=0, dest=1, size=1, time_created=0)
        ctx = SnapshotContext()
        blob = ctx.flit(Flit(packet, 0, True, True))
        # JSON turns int dict keys into strings; the restore side must
        # cope with either form.
        table = json.loads(json.dumps(ctx.packets))
        restored = RestoreContext(table).flit(blob)
        assert restored.packet.pid == packet.pid
        assert restored.packet.dest == 1

    def test_non_scalar_payload_is_refused(self):
        packet = Packet(src=0, dest=1, size=1, time_created=0,
                        payload=object())
        with pytest.raises(CheckpointError, match="payload"):
            SnapshotContext().packet_ref(packet)

    def test_route_state_round_trips(self):
        ugal = UGALState(False, 5)
        ugal.phase = 1
        torus = TorusRouteState()
        torus.crossed_dateline = True
        for state in (None, ugal, torus, ("y_detour", 3)):
            packet = Packet(src=0, dest=1, size=1, time_created=0)
            packet.route_state = state
            ctx = SnapshotContext()
            pid = ctx.packet_ref(packet)
            restored = RestoreContext(ctx.packets).packet(pid)
            if state is None:
                assert restored.route_state is None
            elif isinstance(state, tuple):
                assert restored.route_state == state
            elif isinstance(state, UGALState):
                got = restored.route_state
                assert (got.phase, got.intermediate, got.minimal) == \
                    (state.phase, state.intermediate, state.minimal)
            else:
                got = restored.route_state
                assert (got.crossed_dateline, got.in_y) == \
                    (state.crossed_dateline, state.in_y)


# ---------------------------------------------------------------------------
# arbiter / allocator state


class TestArbiterAllocatorState:
    def test_round_robin_pointer_round_trips(self):
        arb = RoundRobinArbiter(4)
        arb.update(2)
        clone = RoundRobinArbiter(4)
        clone.load_state(arb.state_dict())
        assert clone.pointer == arb.pointer

    @pytest.mark.parametrize(
        "kind", ["islip1", "islip2", "pim2", "wavefront",
                 "augmenting"]
    )
    def test_allocator_state_round_trips_through_json(self, kind):
        alloc = make_allocator(kind, 5, 5, seed=17)
        requests = {(i, (i + 1) % 5): 0 for i in range(5)}
        requests.update({(i, i): 0 for i in range(5)})
        alloc.allocate(requests)
        state = json.loads(json.dumps(alloc.state_dict()))
        clone = make_allocator(kind, 5, 5, seed=17)
        clone.load_state(state)
        # Identical state must produce identical grant sequences.
        for _ in range(8):
            assert clone.allocate(requests) == alloc.allocate(requests)


# ---------------------------------------------------------------------------
# run spec / lengths / hashing


class TestRunSpec:
    def test_lengths_spec_round_trips(self):
        fixed = lengths_from_spec(lengths_spec(FixedLength(4)))
        assert isinstance(fixed, FixedLength) and fixed.length == 4
        bi = lengths_from_spec(lengths_spec(BimodalLength(1, 5, 0.6)))
        assert isinstance(bi, BimodalLength)
        assert (bi.short, bi.long, bi.short_fraction) == (1, 5, 0.6)

    def test_config_hash_is_sensitive_to_both_parts(self):
        cfg = mesh_config(mesh_k=4)
        spec = {"pattern": "uniform", "rate": 0.3}
        base = config_hash(cfg, spec)
        assert config_hash(mesh_config(mesh_k=4, seed=2), spec) != base
        assert config_hash(cfg, dict(spec, rate=0.4)) != base
        assert config_hash(mesh_config(mesh_k=4), dict(spec)) == base


# ---------------------------------------------------------------------------
# whole-run capture / restore


def _build_run(config, **kw):
    """A SimulationRun mid-flight (via the runner's own wiring)."""
    from repro.sim.runner import SimulationRun
    from repro.network.network import Network
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import build_pattern
    import random

    net = Network(config)
    rng = random.Random(config.seed + 0x5EED)
    pat = build_pattern(kw.get("pattern", "uniform"), net.num_terminals, rng)
    inj = BernoulliInjector(net.num_terminals, pat, kw.get("rate", 0.3),
                            FixedLength(1), rng)
    return SimulationRun(net, inj, kw.get("warmup", 100),
                         kw.get("measure", 200), kw.get("drain", 100))


class TestCaptureRestore:
    def test_capture_restore_capture_is_identical(self):
        _fresh_pids()
        cfg = mesh_config(mesh_k=4, seed=3, chaining="any_input")
        run = _build_run(cfg)
        spec = {"pattern": "uniform", "rate": 0.3}
        # Advance into the warmup so there is real in-flight state.
        net, inj = run.network, run.injector
        net.stats.set_window(100, 300)
        run.phase = "main"
        for _ in range(150):
            for packet in inj.generate(net.cycle):
                net.inject(packet)
            net.step()
        first = capture_run(run, cfg, spec)

        _fresh_pids()
        clone = _build_run(cfg)
        restore_run(clone, json.loads(json.dumps(first)))
        second = capture_run(clone, cfg, spec)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_restore_pins_the_packet_id_counter(self):
        _fresh_pids()
        cfg = mesh_config(mesh_k=4, seed=3)
        run = _build_run(cfg)
        net, inj = run.network, run.injector
        net.stats.set_window(100, 300)
        for _ in range(80):
            for packet in inj.generate(net.cycle):
                net.inject(packet)
            net.step()
        payload = capture_run(run, cfg, {})
        next_pid = flitmod.peek_next_packet_id()
        assert payload["next_pid"] == next_pid

        _fresh_pids()
        clone = _build_run(cfg)
        restore_run(clone, payload)
        assert flitmod.peek_next_packet_id() == next_pid

    def test_snapshot_refused_with_faults_attached(self):
        from repro.faults import FaultController, FaultPlan

        cfg = mesh_config(mesh_k=4)
        run = _build_run(cfg)
        run.network.attach_faults(FaultController(FaultPlan(seed=1)))
        with pytest.raises(CheckpointError, match="fault"):
            capture_run(run, cfg, {})

    def test_run_simulation_refuses_checkpoint_with_faults(self, tmp_path):
        from repro.faults import FaultPlan

        with pytest.raises(CheckpointError, match="fault injection"):
            run_simulation(
                mesh_config(mesh_k=4), faults=FaultPlan(seed=1),
                probes=[Checkpointer(str(tmp_path / "ck.json"))], **RUN
            )


# ---------------------------------------------------------------------------
# file format


class TestCheckpointFiles:
    def _payload(self, tmp_path):
        _fresh_pids()
        cfg = mesh_config(mesh_k=4, seed=3)
        run = _build_run(cfg)
        spec = {"pattern": "uniform", "rate": 0.3}
        return capture_run(run, cfg, spec), cfg, spec

    def test_save_load_round_trip_plain_and_gzip(self, tmp_path):
        payload, _, _ = self._payload(tmp_path)
        plain = tmp_path / "ck.json"
        packed = tmp_path / "ck.json.gz"
        save_checkpoint(str(plain), payload)
        save_checkpoint(str(packed), payload)
        assert load_checkpoint(str(plain)) == payload
        assert load_checkpoint(str(packed)) == payload
        # .gz really is gzip-compressed.
        assert packed.read_bytes()[:2] == b"\x1f\x8b"

    def test_same_state_saves_are_byte_identical(self, tmp_path):
        payload, _, _ = self._payload(tmp_path)
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        save_checkpoint(str(a), payload)
        save_checkpoint(str(b), payload)
        assert a.read_bytes() == b.read_bytes()

    def test_not_a_checkpoint_is_refused(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": "world"}')
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(str(bad))
        garbage = tmp_path / "noise.bin"
        garbage.write_bytes(b"\x00\x01\x02")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(garbage))

    def test_wrong_schema_is_refused(self, tmp_path):
        payload, _, _ = self._payload(tmp_path)
        payload["schema"] = 999
        path = tmp_path / "ck.json"
        save_checkpoint(str(path), payload)
        with pytest.raises(CheckpointError, match="schema"):
            load_checkpoint(str(path))

    def test_config_mismatch_is_refused(self, tmp_path):
        payload, cfg, spec = self._payload(tmp_path)
        with pytest.raises(CheckpointError, match="hash"):
            verify_resumable(payload, mesh_config(mesh_k=4, seed=99), spec)
        with pytest.raises(CheckpointError, match="hash"):
            verify_resumable(payload, cfg, dict(spec, rate=0.9))
        verify_resumable(payload, cfg, spec)  # matching: no raise

    def test_checkpointer_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path / "ck.json"), 0)
        ck = Checkpointer(str(tmp_path / "ck.json"), None)
        assert ck.every == 1000

    def test_checkpointer_fires_on_schedule_once_per_cycle(self, tmp_path):
        _fresh_pids()
        cfg = mesh_config(mesh_k=4, seed=3)
        run = _build_run(cfg, warmup=100, measure=20, drain=0)
        ck = Checkpointer(str(tmp_path / "ck.json"), 50)
        run.probes.append(ck)
        run.execute()
        assert run.network.cycle == 120
        assert ck.saves == 2  # cycles 50 and 100
        assert ck.last_cycle == 100
        assert ck.due == 150

    def test_checkpoint_with_legacy_backend_key_resumes(self):
        """A checkpoint written while the config still had a ``backend``
        field (cycle 50 of a 4x4 run, ``"backend": "reference"``)
        resumes to the uninterrupted run's result."""
        path = os.path.join(os.path.dirname(__file__), "data",
                            "legacy_backend_checkpoint.json.gz")
        assert load_checkpoint(path)["config"]["backend"] == "reference"
        _fresh_pids()
        config = mesh_config(mesh_k=4, seed=5, chaining="any_input")
        run = dict(pattern="uniform", rate=0.3, warmup=40, measure=80,
                   drain=60)
        expected = run_simulation(config, **run)
        resumed = run_simulation(config, **run, resume_from=path)
        assert resumed.to_dict() == expected.to_dict()


# ---------------------------------------------------------------------------
# atomic writes (satellite)


class TestAtomicWrite:
    def test_success_replaces_and_leaves_no_tmp(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with atomic_write(str(target)) as fh:
            fh.write("new")
        assert target.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_failure_mid_write_preserves_previous_contents(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("truncated garbage")
                raise RuntimeError("crash mid-dump")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["out.json"]  # no stray .tmp

    def test_failure_without_previous_file_leaves_nothing(self, tmp_path):
        target = tmp_path / "fresh.json"
        with pytest.raises(RuntimeError):
            with atomic_write(str(target)) as fh:
                fh.write("partial")
                raise RuntimeError("crash")
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# drain-abort warning (satellite)


class TestDrainAbortWarning:
    def test_aborted_drain_sets_warning_and_emits_event(self):
        from repro.obs.trace import MemorySink, TraceBus

        bus = TraceBus()
        sink = bus.attach(MemorySink())
        # A 1-cycle drain budget cannot empty the network at this load.
        result = run_simulation(
            mesh_config(mesh_k=4, seed=2), pattern="uniform", rate=0.4,
            warmup=100, measure=300, drain=1, trace=bus,
        )
        assert result.drained is False
        assert result.warnings == ["drain_aborted"]
        events = [e for e in sink.events if e["ev"] == "drain_aborted"]
        assert len(events) == 1
        assert events[0]["in_flight"] > 0
        assert "drain_aborted" in json.dumps(result.to_dict())

    def test_clean_drain_has_no_warnings(self):
        result = run_simulation(mesh_config(mesh_k=4, seed=2), **RUN)
        assert result.drained is True
        assert result.warnings is None
