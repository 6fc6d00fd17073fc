"""Hierarchical state digests: stability, sensitivity, stream format.

The digest tentpole's correctness bar: the same experiment always
produces the same whole-run fingerprint (in-process, across process
restarts, and across kill/resume), a single mutated state field changes
exactly the owning component's digest and is named field-exactly by
state_diff, the JSONL stream round-trips (and loads when torn), and two
recorded streams pinpoint where two runs first differ.
"""

import json
import random
import re
import subprocess
import sys

import pytest

from repro.checkpoint import Checkpointer, SimulationKilled, load_checkpoint
from repro.network import flit as flitmod
from repro.network.config import mesh_config
from repro.network.network import build_network
from repro.obs.digest import (
    OBSERVER_PATHS,
    DigestRecorder,
    MISSING,
    component_digest,
    merkle_root,
    network_digests,
    network_states,
    read_digest_stream,
    state_diff,
)
from repro.sim.runner import KillAt, SimulationRun, run_simulation
from repro.traffic.injection import BernoulliInjector, FixedLength
from repro.traffic.patterns import build_pattern

from tests.reference_core import reference_core

RUN = dict(pattern="uniform", rate=0.3, warmup=100, measure=300, drain=200)


def _run_with_digest(config, path=None, every=32, **overrides):
    flitmod.set_next_packet_id(0)
    recorder = DigestRecorder(every=every, path=path)
    run_simulation(config, probes=[recorder], **{**RUN, **overrides})
    return recorder


def _config(seed=7, **kw):
    return mesh_config(mesh_k=4, chaining="any_input", seed=seed, **kw)


def _network_and_injector(config):
    """A fresh network and the injector ``run_simulation`` would build."""
    flitmod.set_next_packet_id(0)
    net = build_network(config)
    rng = random.Random(config.seed + 0x5EED)
    pat = build_pattern("uniform", net.num_terminals, rng)
    injector = BernoulliInjector(net.num_terminals, pat, 0.3, FixedLength(1),
                                 rng)
    return net, injector


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
            run_simulation(_config(),
                           probes=[Checkpointer(ck, 50), KillAt(220)], **RUN)
        ck_cycle = load_checkpoint(ck)["cycle"]

        flitmod.set_next_packet_id(0)
        recorder = DigestRecorder(every=32)
        run_simulation(_config(), probes=[recorder], resume_from=ck, **RUN)

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
        net, injector = _network_and_injector(_config())
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

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_torn_tail_keeps_intact_records(self, tmp_path, suffix):
        path = tmp_path / f"digests{suffix}"
        _run_with_digest(_config(), path=str(path))
        full = read_digest_stream(str(path)).cycles()
        # A run killed halfway through writing its stream.
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])

        stream = read_digest_stream(str(path))
        assert stream.fingerprint is None
        assert stream.header["schema"] == 1
        assert 0 < len(stream.cycles()) < len(full)
        assert stream.cycles() == full[:len(stream.cycles())]

    def test_recorder_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DigestRecorder(every=0)


# ---------------------------------------------------------------------------
# where two runs first differ, from their recorded streams


def break_allocators(network):
    """Off-by-one in every switch allocator of one network (test-only).

    Whenever more than one input requests, every granted input's
    round-robin pointer advances one slot too far: the grants stay
    valid, only future arbitration drifts. Patched per allocator
    instance, so no other network is touched.
    """
    for router in network.routers:
        alloc = router.switch_alloc
        orig = alloc.allocate

        def broken(requests, alloc=alloc, orig=orig):
            grants = orig(requests)
            if len(requests) > 1:
                for i in grants:
                    arb = alloc._input_arbiters[i]
                    arb.pointer = (arb.pointer + 1) % alloc.num_outputs
            return grants

        alloc.allocate = broken


class TestFirstDivergence:
    """Record both runs at ``every=1``; the first record whose roots
    differ names the cycle and the components, and ``state_diff`` of
    the two sides' states at that cycle names the fields."""

    def _run(self, broken, digest=None):
        net, injector = _network_and_injector(_config(seed=1))
        if broken:
            break_allocators(net)
        return SimulationRun(net, injector, warmup=20, measure=40, drain=20,
                             probes=[] if digest is None else [digest])

    def test_injected_off_by_one_is_pinpointed(self, tmp_path):
        streams = []
        for broken in (False, True):
            path = str(tmp_path / f"broken{broken}.jsonl")
            self._run(broken, DigestRecorder(every=1, path=path)).execute()
            streams.append(read_digest_stream(path))
        clean, bugged = streams

        cycle = next(c for c in clean.cycles()
                     if clean.records[c]["root"] != bugged.records[c]["root"])
        a = clean.records[cycle]["components"]
        b = bugged.records[cycle]["components"]
        assert cycle == 4
        assert [path for path in a if a[path] != b[path]] == ["router[2]"]

        states = []
        for broken in (False, True):
            run = self._run(broken)
            while run.network.cycle < cycle:
                run.step_cycle()
            states.append(network_states(run.network)["router[2]"]["state"])
        diff = state_diff(*states)
        assert diff
        for entry in diff:
            assert re.fullmatch(r"switch_alloc\.input_arbiters\[\d\]\.pointer",
                                entry["key"])
            assert (entry["b"] - entry["a"]) % 5 == 1


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
