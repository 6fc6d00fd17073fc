"""End-to-end packet priority tests.

The paper's allocators "take into account priorities" (Section 3):
higher-priority requests beat lower ones at every arbitration point.
These tests inject two traffic classes under load and check that the
high class sees materially lower latency.
"""

import random

import pytest

from repro.network.config import mesh_config
from repro.network.network import Network
from repro.network.flit import Packet

from tests.reference_core import reference_core


def run_two_classes(allocator="islip1", chaining="disabled", cycles=800,
                    rate=0.45, high_fraction=0.2, age_period=None):
    cfg = mesh_config(mesh_k=4, allocator=allocator, chaining=chaining,
                      age_period=age_period)
    net = Network(cfg)
    rng = random.Random(17)
    latencies = {0: [], 5: []}

    class Probe:
        def record_flit_ejected(self, flit, cycle):
            pass

        def record_ejected(self, packet, cycle):
            latencies[packet.priority].append(cycle - packet.time_created)

    for sink in net.sinks:
        sink.stats = Probe()
    for _ in range(cycles):
        for src in range(net.num_terminals):
            if rng.random() < rate:
                dest = rng.randrange(net.num_terminals)
                if dest == src:
                    continue
                prio = 5 if rng.random() < high_fraction else 0
                net.inject(Packet(src, dest, 1, net.cycle, priority=prio))
        net.step()
    return latencies


def mean(xs):
    return sum(xs) / len(xs)


class TestPriorities:
    def test_high_priority_lower_latency_islip(self):
        lat = run_two_classes()
        assert lat[5] and lat[0]
        assert mean(lat[5]) < mean(lat[0])

    def test_high_priority_lower_latency_wavefront(self):
        lat = run_two_classes(allocator="wavefront")
        assert mean(lat[5]) < mean(lat[0])

    def test_high_priority_lower_latency_with_chaining(self):
        lat = run_two_classes(chaining="any_input")
        assert mean(lat[5]) < mean(lat[0])

    def test_priorities_gap_grows_with_load(self):
        """More contention -> more arbitration wins -> bigger gap."""
        light = run_two_classes(rate=0.2)
        heavy = run_two_classes(rate=0.6)
        gap = lambda lat: mean(lat[0]) - mean(lat[5])
        assert gap(heavy) > gap(light)
        assert mean(heavy[5]) < 0.97 * mean(heavy[0])

    def test_pc_candidate_order_matches_the_oracle(self):
        """Packet priorities order the PC candidates behind one grant.

        With every priority 0 (all other tests and goldens) the order
        within an (input, output) bucket is unobservable; two classes
        at rate 0.8 make it decide which candidate chains.
        """
        with reference_core():
            ref = run_two_classes(chaining="any_input", rate=0.8)
        assert run_two_classes(chaining="any_input", rate=0.8) == ref
