"""Tests for the sharded simulation runtime (repro.parallel).

Unit tests cover the row-band partition plan, the window schedule and
the merge rules; the equivalence matrix then asserts the headline
guarantee — a sharded run is bit-identical to a single-process run
(same SimResult and same digest Merkle root) across topologies,
allocators, seeds and shard counts. Crash/restart variants live in
``test_shard_chaos.py``.

The last part crosses execution modes *and* cores: the shard mask on
the production core and the test oracle (``tests/reference_core.py``),
which core a worker builds, the import-before-fork, and a generated
differential in which production shards must match both the oracle's
and the production core's single-process run.
"""

import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import canonical_run_spec
from repro.network.config import NetworkConfig
from repro.network.flit import Packet, set_next_packet_id
from repro.network.network import Network, build_network
from repro.network.router import Router
from repro.obs.digest import digest_network
from repro.parallel import (
    ShardPlan,
    ShardPlanError,
    shard_run,
    single_process_run,
)
from repro.parallel.merge import (
    MergeError,
    merge_packet_tables,
    merge_stats_states,
)
from repro.parallel.worker import _ShardWorker, window_schedule
from repro.traffic.injection import (
    BernoulliInjector,
    BimodalLength,
    FixedLength,
)
from repro.traffic.patterns import build_pattern

from tests.reference_core import ReferenceRouter, on_core, reference_core

#: Tiny-but-real phases: a 4x4 mesh clears this in a couple of seconds.
SMALL = dict(warmup=20, measure=60, drain=400)


def config_for(mesh_k=4, allocator="islip1", topology="mesh", seed=1,
               chaining="disabled", routing="dor"):
    return NetworkConfig(topology=topology, mesh_k=mesh_k, routing=routing,
                         allocator=allocator, pc_allocator="islip1",
                         chaining=chaining, seed=seed)


def assert_matches_single(tmp_path, config, seed, shards, *, rate=0.25,
                          chaos=None, drain=None, window=None, **overrides):
    knobs = dict(SMALL, **overrides)
    if drain is not None:
        knobs["drain"] = drain
    expected, expected_root = single_process_run(
        config, pattern="uniform", rate=rate, seed=seed, **knobs)
    run = shard_run(config, pattern="uniform", rate=rate, seed=seed,
                    shards=shards, out_dir=str(tmp_path / "state"),
                    chaos=chaos, window=window, **knobs)
    assert run.status == "done"
    assert run.result == expected
    assert run.digest_root == expected_root
    return run


class TestShardPlan:
    def test_row_bands_partition_all_routers(self):
        plan = ShardPlan(config_for(mesh_k=8), 4)
        seen = set()
        for shard in range(4):
            routers = set(plan.routers_of(shard))
            assert len(routers) == 16  # 2 full rows of 8
            assert not seen & routers
            seen |= routers
            for r in routers:
                assert plan.shard_of_router(r) == shard
        assert seen == set(range(64))

    def test_uneven_rows_go_to_leading_shards(self):
        plan = ShardPlan(config_for(mesh_k=5), 2)
        assert len(plan.routers_of(0)) == 15  # 3 rows
        assert len(plan.routers_of(1)) == 10  # 2 rows

    def test_terminals_follow_their_router(self):
        plan = ShardPlan(config_for(mesh_k=4), 2)
        for shard in range(2):
            for t in plan.terminals_of(shard):
                assert plan.shard_of_terminal(t) == shard

    def test_mesh_lookahead_is_min_boundary_latency(self):
        plan = ShardPlan(config_for(mesh_k=4), 2)
        assert plan.lookahead == 2
        assert plan.window_for(None) == 2
        assert plan.window_for(1) == 1
        with pytest.raises(ShardPlanError):
            plan.window_for(3)  # beyond the conservative bound

    def test_single_shard_has_no_boundaries(self):
        plan = ShardPlan(config_for(mesh_k=4), 1)
        assert plan.exports_of(0) == []
        assert plan.imports_of(0) == []
        assert plan.lookahead is None
        assert plan.window_for(None) == 64  # free-running default

    def test_export_import_symmetry(self):
        plan = ShardPlan(config_for(mesh_k=8, topology="torus"), 4)
        for shard in range(4):
            exported = {spec["key"] for spec in plan.exports_of(shard)}
            imported_elsewhere = {
                spec["key"]
                for other in range(4)
                for spec in plan.imports_of(other)
                if spec["writer"] == shard
            }
            assert exported == imported_elsewhere
            for spec in plan.exports_of(shard):
                assert spec["writer"] == shard
                assert spec["reader"] != shard

    def test_rejects_unsupported_shapes(self):
        with pytest.raises(ShardPlanError):
            ShardPlan(config_for(mesh_k=4), 5)  # more shards than rows
        with pytest.raises(ShardPlanError):
            ShardPlan(config_for(mesh_k=4), 0)
        with pytest.raises(ShardPlanError):
            ShardPlan(config_for(mesh_k=4, routing="ugal"), 2)
        with pytest.raises(ShardPlanError):
            fbfly = NetworkConfig(topology="fbfly", mesh_k=8,
                                  routing="ugal", allocator="islip1",
                                  pc_allocator="islip1", chaining="disabled")
            ShardPlan(fbfly, 2)


class TestWindowSchedule:
    def test_region_edge_is_a_window_boundary(self):
        assert window_schedule(5, 4, 2) == [
            (0, 2), (2, 4), (4, 5), (5, 7), (7, 9)]

    def test_no_drain(self):
        assert window_schedule(4, 0, 2) == [(0, 2), (2, 4)]

    def test_empty(self):
        assert window_schedule(0, 0, 2) == []

    def test_spans_tile_exactly(self):
        spans = window_schedule(7, 5, 3)
        assert spans[0][0] == 0 and spans[-1][1] == 12
        for (_, b), (a, _) in zip(spans, spans[1:]):
            assert b == a
        assert (7, 10) in spans  # drain region starts on its own window


class TestMergeRules:
    def test_live_flit_beats_ejected_record(self):
        live = {"network": {"buf": [{"pid": 7, "idx": 2, "vc": 0}]},
                "packets": {"7": {"time_ejected": None, "origin": "live"}}}
        done = {"network": {},
                "packets": {"7": {"time_ejected": 9, "origin": "ejected"}}}
        for payloads in ([live, done], [done, live]):
            merged = merge_packet_tables(payloads)
            assert merged["7"]["origin"] == "live"

    def test_lowest_live_flit_index_wins(self):
        head = {"network": {"buf": [{"pid": 3, "idx": 5, "vc": 1}]},
                "packets": {"3": {"time_ejected": None, "origin": "tail"}}}
        body = {"network": {"q": {"x": [{"pid": 3, "idx": 1, "vc": 0}]}},
                "packets": {"3": {"time_ejected": None, "origin": "head"}}}
        merged = merge_packet_tables([head, body])
        assert merged["3"]["origin"] == "head"

    def test_ejected_beats_stale_source_copy(self):
        stale = {"network": {},
                 "packets": {"4": {"time_ejected": None, "origin": "stale"}}}
        done = {"network": {},
                "packets": {"4": {"time_ejected": 6, "origin": "sink"}}}
        merged = merge_packet_tables([stale, done])
        assert merged["4"]["origin"] == "sink"

    def test_blocked_cycles_sum_over_every_copy(self):
        """Each shard zeroes its count when it hands flits downstream,
        so what the copies hold are disjoint shares of one total."""
        head = {"network": {"buf": [{"pid": 3, "idx": 0, "vc": 0}]},
                "packets": {"3": {"time_ejected": None, "origin": "head",
                                  "blocked_cycles": 4}}}
        tail = {"network": {"buf": [{"pid": 3, "idx": 4, "vc": 0}]},
                "packets": {"3": {"time_ejected": None, "origin": "tail",
                                  "blocked_cycles": 2}}}
        for payloads in ([head, tail], [tail, head]):
            merged = merge_packet_tables(payloads)
            assert merged["3"]["origin"] == "head"
            assert merged["3"]["blocked_cycles"] == 6
        assert head["packets"]["3"]["blocked_cycles"] == 4  # not mutated

    def _stats_state(self, keys, pl, counts):
        return {
            "window": [0, 100],
            "flits_ejected_per_source": counts,
            "flits_injected_per_source": counts,
            "packets_created_per_source": counts,
            "max_packet_latency": max(pl, default=0),
            "packets_ejected": len(pl),
            "flits_ejected": len(pl),
            "packet_latencies": pl,
            "network_latencies": [v - 1 for v in pl],
            "blocked_cycles": [0] * len(pl),
            "eject_keys": keys,
        }

    def test_stats_merge_restores_global_sink_order(self):
        a = self._stats_state([[5, 0], [9, 2]], [50, 90], [1, 0])
        b = self._stats_state([[7, 1]], [70], [0, 1])
        merged = merge_stats_states([a, b])
        assert merged["packet_latencies"] == [50, 70, 90]
        assert merged["network_latencies"] == [49, 69, 89]
        assert merged["flits_ejected_per_source"] == [1, 1]
        assert merged["packets_ejected"] == 3
        assert merged["max_packet_latency"] == 90
        assert "eject_keys" not in merged  # consumed, not forwarded

    def test_stats_merge_rejects_misaligned_samples(self):
        bad = self._stats_state([[5, 0]], [50], [1, 0])
        bad["eject_keys"] = []
        with pytest.raises(MergeError):
            merge_stats_states([bad])

    def test_stats_merge_rejects_window_disagreement(self):
        a = self._stats_state([], [], [0, 0])
        b = self._stats_state([], [], [0, 0])
        b["window"] = [0, 200]
        with pytest.raises(MergeError):
            merge_stats_states([a, b])


class TestEquivalence:
    """Sharded == single-process, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("allocator", ["islip1", "wavefront"])
    def test_mesh4_two_shards(self, tmp_path, allocator, seed):
        assert_matches_single(
            tmp_path, config_for(mesh_k=4, allocator=allocator),
            seed=seed, shards=2)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("allocator", ["islip1", "wavefront"])
    def test_mesh8_two_shards(self, tmp_path, allocator, seed):
        assert_matches_single(
            tmp_path, config_for(mesh_k=8, allocator=allocator),
            seed=seed, shards=2)

    def test_mesh8_four_shards(self, tmp_path):
        run = assert_matches_single(
            tmp_path, config_for(mesh_k=8), seed=1, shards=4)
        assert run.shards == 4
        assert run.restarts == 0

    def test_torus4_two_shards(self, tmp_path):
        assert_matches_single(
            tmp_path, config_for(mesh_k=4, topology="torus"),
            seed=1, shards=2)

    def test_chaining_enabled(self, tmp_path):
        assert_matches_single(
            tmp_path, config_for(mesh_k=4, chaining="any_input"),
            seed=1, shards=2)

    def test_no_drain_region(self, tmp_path):
        run = assert_matches_single(
            tmp_path, config_for(mesh_k=4), seed=1, shards=2, drain=0)
        assert run.result.drained is None

    def test_explicit_narrow_window(self, tmp_path):
        assert_matches_single(
            tmp_path, config_for(mesh_k=4), seed=2, shards=2, window=1)

    def test_metrics_export_matches_merged_state(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        config = config_for(mesh_k=4)
        run = shard_run(config, pattern="uniform", rate=0.25, seed=1,
                        shards=2, out_dir=str(tmp_path / "state"),
                        metrics=metrics, **SMALL)
        assert run.status == "done"
        exported = metrics.to_dict()
        names = " ".join(
            name for family in exported.values() for name in family)
        assert "flits" in names or "packets" in names

    def test_rate_zero_idles_identically(self, tmp_path):
        assert_matches_single(
            tmp_path, config_for(mesh_k=4), seed=1, shards=2, rate=0.0,
            drain=0)


class TestRunBookkeeping:
    def test_result_json_and_journal_written(self, tmp_path):
        import json
        import os

        out = tmp_path / "state"
        run = shard_run(config_for(mesh_k=4), rate=0.25, seed=1, shards=2,
                        out_dir=str(out), **SMALL)
        assert run.status == "done"
        summary = json.loads((out / "result.json").read_text())
        assert summary["digest_root"] == run.digest_root
        assert summary["restarts"] == 0
        assert summary["cycles"] == run.cycles
        events = [json.loads(line) for line in
                  (out / "journal.jsonl").read_text().splitlines()]
        assert [e for e in events if e["event"] == "spawn"]
        assert events[-1]["event"] == "assembled"
        assert os.path.isdir(out / "exch" / "s0")

    def test_timers_are_aggregated(self, tmp_path):
        run = shard_run(config_for(mesh_k=4), rate=0.25, seed=1, shards=2,
                        out_dir=str(tmp_path / "state"), **SMALL)
        assert run.timers["step_seconds"] > 0
        for key in ("wait_seconds", "publish_seconds"):
            assert key in run.timers

    def test_mismatched_resume_params_rejected(self, tmp_path):
        from repro.parallel import ShardRunError

        out = tmp_path / "state"
        shard_run(config_for(mesh_k=4), rate=0.25, seed=1, shards=2,
                  out_dir=str(out), **SMALL)
        with pytest.raises(ShardRunError):
            shard_run(config_for(mesh_k=4), rate=0.25, seed=1, shards=4,
                      out_dir=str(out), **SMALL)


# ---------------------------------------------------------------------------
# the shard mask and the shard workers on both cores


def masked_network():
    """A 4x4 network masked to shard 0 of 2, and its plan."""
    config = config_for(mesh_k=4, chaining="any_input", seed=3)
    plan = ShardPlan(config, 2)
    set_next_packet_id(0)
    net = build_network(config)
    net.apply_shard_mask(plan.routers_of(0), plan.terminals_of(0))
    return net, plan


class TestShardMaskOnBothCores:
    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_masked_out_sink_is_never_polled(self, backend):
        """A due flit on a masked-out sink's ejection channel belongs to
        the shard that owns the sink; this one must leave it alone."""
        with on_core(backend):
            net, plan = masked_network()
            outside = plan.terminals_of(1)[0]
            sink = net.sinks[outside]
            flit = Packet(0, outside, 1, 0).flits()[0]
            flit.vc = 0
            sink.flit_channel.send(flit, net.cycle)
            for _ in range(sink.flit_channel.delay + 1):  # to its due cycle
                net.step()
        assert sink.flits_consumed == 0
        assert list(sink.flit_channel.items()) == [flit]
        assert net.stats.packets_ejected == 0

    def test_masked_cores_step_in_lockstep(self):
        """Same mask, same local traffic: one digest root per cycle."""
        roots = {}
        for backend in ("reference", "fast"):
            with on_core(backend):
                net, plan = masked_network()
                local = frozenset(plan.terminals_of(0))
                rng = random.Random(11)
                injector = BernoulliInjector(
                    net.num_terminals,
                    build_pattern("uniform", net.num_terminals, rng),
                    0.4, BimodalLength(1, 5), rng,
                )
                roots[backend] = []
                for cycle in range(80):
                    for packet in injector.generate(cycle):
                        if packet.src in local:
                            net.inject(packet)
                    net.step()
                    roots[backend].append(
                        digest_network(net, injector)["root"])
        assert roots["fast"] == roots["reference"]
        assert len(set(roots["fast"])) == 80  # the network was not idle


def worker_here(root, config):
    """An in-process ``_ShardWorker`` for shard 0 of 2 (built, not run)."""
    run_spec = canonical_run_spec("uniform", 0.25, FixedLength(1),
                                  SMALL["warmup"], SMALL["measure"],
                                  SMALL["drain"])
    return _ShardWorker(str(root), config, run_spec, 0, 1,
                        {"shards": 2, "window": 2})


class TestWorkerBackend:
    def test_worker_builds_the_configured_core(self, tmp_path):
        """Workers build through Network, so the oracle swap reaches them."""
        config = config_for(mesh_k=4)
        net = worker_here(tmp_path, config).net
        assert type(net) is Network
        assert all(type(r) is Router for r in net.routers)
        with reference_core():
            net = worker_here(tmp_path, config).net
        assert all(type(r) is ReferenceRouter for r in net.routers)

    def test_fast_core_is_imported_before_the_fork(self, tmp_path):
        """Workers of every attempt inherit the compiled core from the
        coordinator (nobody imports it after a fork), and sharding does
        not pull NumPy in."""
        script = """
import json, os, sys
from repro.network.config import NetworkConfig
from repro.parallel import coordinator, shard_run

real = coordinator.run_shard_worker

def recording(root, config_dict, run_spec, shard, attempt, options):
    loaded = "repro.network.router" in sys.modules
    with open(os.path.join(root, f"seen.s{shard}.a{attempt}"), "w") as fh:
        fh.write(json.dumps(loaded))
    real(root, config_dict, run_spec, shard, attempt, options)

coordinator.run_shard_worker = recording
config = NetworkConfig(topology="mesh", mesh_k=4, seed=1)
run = shard_run(config, rate=0.25, shards=2, out_dir=sys.argv[1],
                warmup=20, measure=60, drain=400,
                chaos={0: {"sigkill_at_cycle": 37}})
print(json.dumps({
    "status": run.status, "restarts": run.restarts,
    "core": "repro.network.router" in sys.modules,
    "numpy": "numpy" in sys.modules,
}))
"""
        out = tmp_path / "state"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", script, str(out)],
                              capture_output=True, text=True, env=env,
                              timeout=100)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report == {"status": "done", "restarts": 1,
                          "core": True, "numpy": False}
        seen = {name: json.loads((out / name).read_text())
                for name in os.listdir(out) if name.startswith("seen.")}
        assert seen == {"seen.s0.a1": True, "seen.s0.a2": True,
                        "seen.s1.a1": True}

    def test_restart_replays_from_cycle_zero(self, tmp_path):
        """SIGKILL at cycle 150, long past where window checkpoints used
        to land (cycle 64): attempt 2 replays from cycle 0 against the
        published exchange files, leaves no checkpoint behind, and the
        run still matches the single-process run on both cores."""
        config = config_for(mesh_k=4, chaining="any_input")
        knobs = dict(SMALL, measure=200, pattern="uniform", rate=0.3, seed=2)
        out = tmp_path / "state"
        run = shard_run(config, shards=2, out_dir=str(out),
                        chaos={0: {"sigkill_at_cycle": 150}}, **knobs)
        assert run.status == "done" and run.restarts == 1
        assert not os.path.exists(out / "ckpt")
        for backend in ("reference", "fast"):
            with on_core(backend):
                single = single_process_run(config, **knobs)
            assert (run.result, run.digest_root) == single


# ---------------------------------------------------------------------------
# generated differential: production shards == oracle single == production
# single

#: Packets of 5 and 8 flits span several 2-cycle windows (the hybrid-
#: switching paper's long-held connections, as adversarial draws).
LENGTHS = [FixedLength(1), BimodalLength(1, 5), FixedLength(8)]


@st.composite
def sharded_scenarios(draw):
    """(config, run kwargs, shards, chaos) over what ShardPlan accepts."""
    topology = draw(st.sampled_from(["mesh", "torus"]))
    classes = 2 if topology == "torus" else 1
    config = NetworkConfig(
        topology=topology, mesh_k=draw(st.sampled_from([4, 6])),
        routing="dor",
        num_vcs=draw(st.sampled_from(
            [n for n in (1, 2, 4) if n % classes == 0])),
        allocator=draw(st.sampled_from(
            ["islip1", "islip2", "wavefront", "pim1", "augmenting"])),
        chaining=draw(st.sampled_from(
            ["disabled", "same_vc", "same_input", "any_input"])),
        seed=draw(st.integers(1, 50)),
    )
    run = dict(
        pattern="uniform", rate=draw(st.sampled_from([0.05, 0.25, 0.45])),
        lengths=draw(st.sampled_from(LENGTHS)), warmup=20, measure=60,
        drain=draw(st.sampled_from([0, 400])),
    )
    shards = draw(st.sampled_from([1, 2, 3]))
    chaos = draw(st.one_of(st.none(), st.fixed_dictionaries({
        "shard": st.integers(0, shards - 1),
        "sigkill_at_cycle": st.integers(3, 75),
    })))
    return config, run, shards, chaos


#: Tier-1 runs a small derandomised slice; ``--hypothesis-profile soak``
#: (tests/conftest.py) runs hundreds of fresh examples.
_SOAK = settings.get_profile("soak")

#: The first catch, pinned: a 5-flit packet has body flits blocked in a
#: shard upstream of its head, and the blocked cycles they counted there
#: were lost (SimResult.blocking read 2 cycles low). Any multi-flit run
#: near saturation shows it; the hand-written matrix is all 1-flit.
_BLOCKED_UPSTREAM = (
    NetworkConfig(topology="mesh", mesh_k=4, num_vcs=1, seed=1),
    dict(pattern="uniform", rate=0.45, lengths=BimodalLength(1, 5),
         warmup=20, measure=60, drain=0),
    3, None,
)


@(_SOAK if settings.default is _SOAK
  else settings(max_examples=30, derandomize=True))
@given(sharded_scenarios())
@example(_BLOCKED_UPSTREAM)
def test_generated_sharded_runs_match_both_cores(scenario):
    config, run, shards, chaos = scenario
    with reference_core():
        reference = single_process_run(config, **run)
    assert single_process_run(config, **run) == reference
    with tempfile.TemporaryDirectory(prefix="shard-gen-") as out_dir:
        sharded = shard_run(
            config, shards=shards, out_dir=out_dir,
            chaos=chaos and {chaos["shard"]: {
                "sigkill_at_cycle": chaos["sigkill_at_cycle"]}},
            **run)
    assert sharded.status == "done"
    assert sharded.restarts == (1 if chaos else 0)
    assert (sharded.result, sharded.digest_root) == reference
