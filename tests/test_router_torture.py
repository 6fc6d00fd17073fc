"""Randomized torture tests: drive a standalone router with random
arrivals and check structural invariants every cycle, for every
chaining scheme and VC-allocation mode."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.config import NetworkConfig
from repro.network.flit import Packet

from tests.test_router import Sim, make_router


def check_invariants(router):
    P = router.radix
    # Connection registers mirror each other.
    for o, held in enumerate(router.conn_out):
        if held is not None:
            p, v = held
            assert router.conn_in[p] == o
            assert 0 <= v < router.config.num_vcs
    inputs = [h[0] for h in router.conn_out if h is not None]
    assert len(inputs) == len(set(inputs))
    for p, o in enumerate(router.conn_in):
        if o is not None:
            assert router.conn_out[o] is not None
            assert router.conn_out[o][0] == p
    # Credits in range.
    for port_credits in router.credits:
        for c in port_credits:
            assert 0 <= c <= router.config.vc_buf_depth
    # A VC with an active packet has consistent allocation state.
    for p in range(P):
        for vcobj in router.in_vcs[p]:
            if vcobj.active_packet is not None:
                assert vcobj.active_out_port is not None
                assert vcobj.active_out_vc is not None


def _replenish(router, sim, rng, in_flight, probability=0.7):
    """Send credit returns without overshooting the buffer depth."""
    depth = router.config.vc_buf_depth
    # Purge in-flight credits already delivered. A credit due at cycle
    # C lands during the step for cycle C (which has not run yet when
    # the driver executes), so entries with c >= sim.cycle still count.
    for key in list(in_flight):
        in_flight[key] = [c for c in in_flight[key] if c >= sim.cycle]
    for o in range(router.radix):
        for w in range(router.config.num_vcs):
            key = (o, w)
            outstanding = len(in_flight.get(key, []))
            if (
                router.credits[o][w] + outstanding < depth
                and rng.random() < probability
            ):
                router.credit_return_channels[o].send(w, sim.cycle)
                in_flight.setdefault(key, []).append(
                    sim.cycle + router.config.credit_delay
                )


def drive(router, seed, cycles=120, inject_p=0.6):
    """Random single/multi-flit arrivals; replenish credits randomly."""
    rng = random.Random(seed)
    sim = Sim(router)
    cfg = router.config
    streams = {}
    in_flight_credits = {}
    for cycle in range(cycles):
        for p in range(router.radix):
            for v in range(cfg.num_vcs):
                key = (p, v)
                if key not in streams and rng.random() < inject_p:
                    pkt = Packet(0, 1, rng.choice([1, 1, 2, 4]), cycle)
                    flits = pkt.flits()
                    flits[0].out_port = rng.randrange(router.radix)
                    for f in flits:
                        f.vc = v
                    streams[key] = flits
                if key in streams:
                    vcobj = router.in_vcs[p][v]
                    if vcobj.free_slots > 0:
                        vcobj.push(streams[key].pop(0))
                        if not streams[key]:
                            del streams[key]
        # Random credit returns (emulating a downstream that drains).
        _replenish(router, sim, rng, in_flight_credits)
        sim.step(1)
        check_invariants(router)
    return sim, streams


MODES = [
    dict(),
    dict(chaining="same_vc"),
    dict(chaining="same_input", starvation_threshold=8),
    dict(chaining="any_input"),
    dict(chaining="any_input", starvation_threshold=4),
    dict(chaining="any_input", age_period=8),
    dict(vc_allocation="split"),
    dict(vc_allocation="speculative", chaining="same_input"),
    dict(allocator="wavefront", chaining="any_input"),
    dict(allocator="augmenting", chaining="any_input"),
    dict(allocator="pim2", chaining="same_vc"),
]


@pytest.mark.parametrize("mode", MODES, ids=lambda m: "_".join(
    f"{k}={v}" for k, v in m.items()) or "baseline")
def test_torture_modes(mode):
    router = make_router(radix=4, **mode)
    drive(router, seed=hash(tuple(sorted(mode.items()))) & 0xFFFF)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_torture_random_seeds_any_input(seed):
    router = make_router(radix=4, chaining="any_input",
                         starvation_threshold=6)
    drive(router, seed=seed, cycles=80)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_torture_flits_eventually_drain(seed):
    """With credits replenished and injection stopped, the router
    drains completely: no stuck connections or lost flits."""
    router = make_router(radix=4, chaining="any_input")
    rng = random.Random(seed ^ 0xD12A)
    sim, streams = drive(router, seed=seed, cycles=60)
    # Finish delivering partially-sent packets (a truncated packet would
    # legitimately hold its output VC forever), stop injecting new ones,
    # keep credits flowing: everything must drain.
    in_flight = {}
    for _ in range(300):
        for (p, v), flits in list(streams.items()):
            vcobj = router.in_vcs[p][v]
            if vcobj.free_slots > 0:
                vcobj.push(flits.pop(0))
                if not flits:
                    del streams[(p, v)]
        _replenish(router, sim, rng, in_flight, probability=1.0)
        sim.step(1)
        if not streams and router.total_buffered_flits() == 0:
            break
    assert router.total_buffered_flits() == 0
    assert all(c is None for c in router.conn_out)
