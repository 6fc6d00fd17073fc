"""Hierarchical state digests: stability, sensitivity, stream format.

The digest tentpole's correctness bar: the same experiment always
produces the same whole-run fingerprint (in-process, across process
restarts, and across kill/resume), a single mutated state field changes
exactly the owning component's digest and is named field-exactly by
state_diff, and the JSONL stream round-trips.
"""

import json
import subprocess
import sys

import pytest

from repro.checkpoint import SimulationKilled, load_checkpoint
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.obs.digest import (
    OBSERVER_PATHS,
    DigestRecorder,
    MISSING,
    component_digest,
    digest_network,
    merkle_root,
    network_digests,
    network_states,
    read_digest_stream,
    state_diff,
)
from repro.sim.runner import resume_simulation, run_simulation

from tests.reference_core import reference_core

RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)


def _run_with_digest(config, path=None, every=32, **overrides):
    flitmod.set_next_packet_id(0)
    recorder = DigestRecorder(every=every, path=path)
    run_simulation(config, digest=recorder, **{**RUN, **overrides})
    return recorder


def _config(seed=7, **kw):
    return mesh_config(mesh_k=4, chaining="any_input", seed=seed, **kw)


# ---------------------------------------------------------------------------
# fingerprint stability


class TestFingerprintStability:
    def test_same_config_same_fingerprint_in_process(self):
        a = _run_with_digest(_config())
        b = _run_with_digest(_config())
        assert a.fingerprint == b.fingerprint
        assert a.digests_taken == b.digests_taken > 0

    def test_different_seed_different_fingerprint(self):
        a = _run_with_digest(_config(seed=7))
        b = _run_with_digest(_config(seed=8))
        assert a.fingerprint != b.fingerprint

    def test_backends_agree_on_fingerprint(self):
        """The production core and the test oracle hash alike."""
        with reference_core():
            a = _run_with_digest(_config())
        b = _run_with_digest(_config())
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_stable_across_process_restarts(self, tmp_path):
        def one_run(name):
            out = subprocess.run(
                [sys.executable, "-m", "repro", "run",
                 "--mesh-k", "4", "--chaining", "any_input", "--seed", "7",
                 "--rate", "0.3", "--warmup", "100", "--measure", "300",
                 "--drain", "200", "--digest", str(tmp_path / name),
                 "--digest-every", "32", "--json"],
                capture_output=True, text=True, check=True,
            )
            return json.loads(out.stdout)["digest"]["fingerprint"]

        first = one_run("a.jsonl")
        second = one_run("b.jsonl")
        assert first == second
        # And the subprocess agrees with an in-process run.
        assert first == _run_with_digest(_config(), every=32).fingerprint

    def test_resumed_run_reproduces_digest_suffix(self, tmp_path):
        ref = _run_with_digest(_config(), every=32)
        ck = str(tmp_path / "ck.json.gz")
        flitmod.set_next_packet_id(0)
        with pytest.raises(SimulationKilled):
            run_simulation(_config(), checkpoint_path=ck,
                           checkpoint_every=50, kill_at=220, **RUN)
        ck_cycle = load_checkpoint(ck)["cycle"]

        flitmod.set_next_packet_id(0)
        recorder = DigestRecorder(every=32)
        resume_simulation(ck, digest=recorder)

        by_cycle = {r["cycle"]: r for r in ref.records}
        resumed = [r for r in recorder.records if r["cycle"] > ck_cycle]
        assert resumed  # the comparison is not vacuous
        for record in resumed:
            assert record == by_cycle[record["cycle"]], (
                f"digest at cycle {record['cycle']} differs after resume"
            )


# ---------------------------------------------------------------------------
# sensitivity: a single mutated field is localized exactly


class TestMutationSensitivity:
    def _mid_run_network(self):
        import random

        from repro.network.network import build_network
        from repro.traffic.injection import BernoulliInjector, FixedLength
        from repro.traffic.patterns import build_pattern

        flitmod.set_next_packet_id(0)
        config = _config()
        net = build_network(config)
        rng = random.Random(config.seed + 0x5EED)
        pat = build_pattern("uniform", net.num_terminals, rng)
        injector = BernoulliInjector(
            net.num_terminals, pat, 0.3, FixedLength(1), rng
        )
        net.stats.set_window(100, 400)
        for _ in range(150):
            for packet in injector.generate(net.cycle):
                net.inject(packet)
            net.step()
        return net, injector

    def test_single_field_mutation_flips_only_owner_digest(self):
        net, injector = self._mid_run_network()
        before = network_digests(net, injector)
        states_before = network_states(net, injector)

        net.routers[5].credits[1][2] += 1
        after = network_digests(net, injector)

        changed = [p for p in before if before[p] != after[p]]
        assert changed == ["router[5]"]
        assert merkle_root(before) != merkle_root(after)

        states_after = network_states(net, injector)
        diff = state_diff(
            states_before["router[5]"]["state"],
            states_after["router[5]"]["state"],
        )
        assert [d["key"] for d in diff] == ["credits[1][2]"]
        assert diff[0]["b"] == diff[0]["a"] + 1

    def test_component_digest_reflects_arbiter_pointer(self):
        net, _ = self._mid_run_network()
        router = net.routers[0]
        before = component_digest(router)
        arb = router.switch_alloc._input_arbiters[0]
        arb.pointer = (arb.pointer + 1) % router.switch_alloc.num_outputs
        assert component_digest(router) != before


# ---------------------------------------------------------------------------
# stream format


class TestDigestStream:
    def test_stream_roundtrip(self, tmp_path):
        path = str(tmp_path / "digests.jsonl")
        recorder = _run_with_digest(_config(), path=path)

        stream = read_digest_stream(path)
        assert stream.header["schema"] == 1
        assert stream.every == 32
        assert stream.header["config"]["seed"] == 7
        assert stream.fingerprint == recorder.fingerprint
        assert stream.cycles()  # periodic records present
        # The on-disk records cover the recorder's (the final record
        # may overwrite a same-cycle periodic one in the cycle map).
        by_cycle = {r["cycle"]: r for r in recorder.records}
        for cycle, record in stream.records.items():
            assert record["root"] == by_cycle[cycle]["root"]

    def test_gzip_stream(self, tmp_path):
        path = str(tmp_path / "digests.jsonl.gz")
        recorder = _run_with_digest(_config(), path=path)
        stream = read_digest_stream(path)
        assert stream.fingerprint == recorder.fingerprint

    def test_periodic_records_skip_observers_final_covers_them(self):
        recorder = _run_with_digest(_config())
        periodic = [r for r in recorder.records if not r.get("final")]
        final = [r for r in recorder.records if r.get("final")]
        assert periodic and len(final) == 1
        for record in periodic:
            for path in OBSERVER_PATHS:
                assert path not in record["components"]
        for path in OBSERVER_PATHS:
            assert path in final[0]["components"]

    def test_recorder_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DigestRecorder(every=0)


# ---------------------------------------------------------------------------
# state_diff semantics


class TestStateDiff:
    def test_missing_keys_and_limit(self):
        a = {"x": [1, 2], "only_a": 1}
        b = {"x": [1, 3, 4], "only_b": 2}
        diff = state_diff(a, b)
        by_key = {d["key"]: d for d in diff}
        assert by_key["x[1]"] == {"key": "x[1]", "a": 2, "b": 3}
        assert by_key["x[2]"]["a"] == MISSING and by_key["x[2]"]["b"] == 4
        assert by_key["only_a"]["b"] == MISSING
        assert by_key["only_b"]["a"] == MISSING
        assert len(state_diff(a, b, limit=2)) == 2

    def test_equal_states_empty_diff(self):
        state = {"a": {"b": [1, {"c": None}]}}
        assert state_diff(state, json.loads(json.dumps(state))) == []
