"""Merge shard final payloads into one equivalent single-process state.

Every component of the global end state lives in exactly one shard's
payload — routers, sources, and sinks in their owner shard — except:

* **Boundary channels.** The writer's copy holds the final window's
  sends; the reader's copy holds imported older items not yet
  delivered. The two sets are disjoint and the reader's dues strictly
  precede the writer's (imports predate the final window by at least
  one lookahead), so the merged channel is simply reader items followed
  by writer items.
* **Statistics.** Counters sum elementwise; latency samples concatenate
  and sort by each shard's recorded ``(cycle, dest)`` eject keys, which
  reproduces the single-process append order exactly (ascending cycle,
  then ascending sink terminal within a cycle).
* **The packet table.** A packet crossing shards appears in several
  payloads; the record serialized alongside the packet's most
  *downstream* flit (lowest live flit index — head-most) carries the
  freshest field values, since an exporter's record freezes when the
  head leaves its shard. Ejected-packet records beat never-seen ones.
  One field is additive instead: a shard zeroes a packet's
  ``blocked_cycles`` each time it hands flits of it downstream, so the
  merged count is the sum over every copy.

The merged state restores into a fresh run from
:func:`~repro.sim.runner.build_run`, which the single-process run is
built by too; its SimResult and metrics export come from the runner's
own :meth:`~repro.sim.runner.SimulationRun.summary`, and its digest
Merkle root from the same ``digest_network`` call.
"""

from repro.checkpoint import RestoreContext
from repro.network.flit import set_next_packet_id
from repro.obs.digest import digest_network
from repro.sim.runner import build_run


class MergeError(RuntimeError):
    """The shard payloads are mutually inconsistent."""


def _consistent(payloads, describe, values):
    first = values[0]
    for value in values[1:]:
        if value != first:
            raise MergeError(
                f"shard payloads disagree on {describe}: "
                f"{first!r} vs {value!r}"
            )
    return first


def _flit_min_indices(node, mins=None):
    """Lowest live flit index per pid anywhere in a network state."""
    if mins is None:
        mins = {}
    if isinstance(node, dict):
        if "pid" in node and "idx" in node and "vc" in node:
            pid = str(node["pid"])
            idx = node["idx"]
            if pid not in mins or idx < mins[pid]:
                mins[pid] = idx
        else:
            for value in node.values():
                _flit_min_indices(value, mins)
    elif isinstance(node, list):
        for value in node:
            _flit_min_indices(value, mins)
    return mins


def merge_packet_tables(payloads):
    """Union of the shard packet tables with downstream precedence."""
    shard_mins = [_flit_min_indices(p["network"]) for p in payloads]
    merged = {}
    choice_rank = {}
    blocked = {}
    for i, payload in enumerate(payloads):
        for pid, record in payload["packets"].items():
            pid = str(pid)
            mins = shard_mins[i]
            if pid in mins:
                rank = (0, mins[pid], i)
            elif record.get("time_ejected") is not None:
                rank = (1, 0, i)
            else:
                rank = (1, 1, i)
            if pid not in merged or rank < choice_rank[pid]:
                merged[pid] = record
                choice_rank[pid] = rank
            blocked[pid] = blocked.get(pid, 0) + record.get("blocked_cycles", 0)
    # Every copy but the chosen one holds only the blocked cycles its
    # shard counted since it last handed the packet's flits downstream.
    return {pid: dict(record, blocked_cycles=blocked[pid])
            for pid, record in merged.items()}


def merge_stats_states(states):
    """Merge per-shard ShardStatsCollector states into one plain
    StatsCollector state (keys consumed, not forwarded)."""
    window = _consistent(states, "stats window",
                         [s["window"] for s in states])
    n = len(states[0]["flits_ejected_per_source"])
    merged = {
        "window": window,
        "flits_ejected_per_source": [0] * n,
        "flits_injected_per_source": [0] * n,
        "packets_created_per_source": [0] * n,
        "max_packet_latency": 0,
        "packets_ejected": 0,
        "flits_ejected": 0,
    }
    samples = []
    for state in states:
        for field in ("flits_ejected_per_source", "flits_injected_per_source",
                      "packets_created_per_source"):
            merged[field] = [a + b for a, b in zip(merged[field], state[field])]
        merged["packets_ejected"] += state["packets_ejected"]
        merged["flits_ejected"] += state["flits_ejected"]
        merged["max_packet_latency"] = max(
            merged["max_packet_latency"], state["max_packet_latency"]
        )
        keys = state.get("eject_keys", [])
        if not (len(keys) == len(state["packet_latencies"])
                == len(state["network_latencies"])
                == len(state["blocked_cycles"])):
            raise MergeError("misaligned latency sample streams")
        samples.extend(
            zip(map(tuple, keys), state["packet_latencies"],
                state["network_latencies"], state["blocked_cycles"])
        )
    samples.sort(key=lambda s: s[0])
    merged["packet_latencies"] = [s[1] for s in samples]
    merged["network_latencies"] = [s[2] for s in samples]
    merged["blocked_cycles"] = [s[3] for s in samples]
    return merged


def _patch_boundary_channels(plan, payloads):
    """Splice reader leftovers in front of writer sends for every
    boundary channel, in the writer's router state (the copy the merged
    network restores from). Mutates the owner payload in place."""
    slot_of = {"flit": "out_flit_channels", "credit": "credit_up_channels"}
    for shard in range(plan.num_shards):
        for spec in plan.exports_of(shard):
            slot = slot_of[spec["kind"]]
            owner = payloads[spec["writer"]]["network"]["routers"][spec["router"]]
            reader = payloads[spec["reader"]]["network"]["routers"][spec["router"]]
            owner_chan = owner[slot][spec["port"]]
            reader_chan = reader[slot][spec["port"]]
            items = reader_chan["items"] + owner_chan["items"]
            dues = [entry["due"] for entry in items]
            if dues != sorted(dues):
                raise MergeError(
                    f"boundary channel {spec['key']} would reorder "
                    f"deliveries when merged"
                )
            owner_chan["items"] = items


def assemble_network_state(plan, payloads):
    """One restorable network state from per-shard final payloads."""
    position = _consistent(
        payloads, "finalize position",
        [p["finalize"]["position"] for p in payloads],
    )
    _patch_boundary_channels(plan, payloads)
    topo = plan.topology
    routers = [
        payloads[plan.shard_of_router(r)]["network"]["routers"][r]
        for r in range(topo.num_routers)
    ]
    sources = [
        payloads[plan.shard_of_terminal(t)]["network"]["sources"][t]
        for t in range(topo.num_terminals)
    ]
    sinks = [
        payloads[plan.shard_of_terminal(t)]["network"]["sinks"][t]
        for t in range(topo.num_terminals)
    ]
    stats = merge_stats_states(
        [p["network"]["stats"] for p in payloads]
    )
    rng = _consistent(payloads, "network rng state",
                      [p["network"]["rng"] for p in payloads])
    return {
        "cycle": position,
        "rng": rng,
        "routers": routers,
        "sources": sources,
        "sinks": sinks,
        "stats": stats,
    }


def assemble_result(config, run_spec, plan, payloads, metrics=None):
    """Merged ``(SimResult, digest root)`` of a sharded run.

    ``payloads`` is the per-shard final payload list, indexed by shard.
    The merged state and the (shard-identical) injector end state are
    restored into the run the single-process runner builds, so metrics
    publication and state digests use the stock code paths.
    """
    if len(payloads) != plan.num_shards:
        raise MergeError(
            f"expected {plan.num_shards} final payloads, got {len(payloads)}"
        )
    _consistent(payloads, "config hash",
                [p["config_hash"] for p in payloads])
    next_pid = _consistent(payloads, "next packet id",
                           [p["next_pid"] for p in payloads])
    injector_state = _consistent(payloads, "injector state",
                                 [p["injector"] for p in payloads])
    drained = _consistent(payloads, "drained flag",
                          [p["finalize"]["drained"] for p in payloads])
    drain_cycles = _consistent(
        payloads, "drain cycles",
        [p["finalize"]["drain_cycles"] for p in payloads],
    )

    state = assemble_network_state(plan, payloads)
    merged_packets = merge_packet_tables(payloads)

    run = build_run(config, run_spec)
    run.network.restore(state, RestoreContext(merged_packets))
    set_next_packet_id(next_pid)
    run.injector.load_state(injector_state)
    run.drain_cycles_done = drain_cycles
    run.metrics = metrics
    result = run.summary(drained)
    digest_root = digest_network(run.network, run.injector,
                                 observers=True)["root"]
    return result, digest_root
