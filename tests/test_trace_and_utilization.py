"""Tests for the routers' per-port flit counters."""

import random

from repro.network.config import mesh_config
from repro.network.flit import Packet
from repro.network.network import Network


class TestUtilization:
    def _loaded_network(self):
        """A 4x4 mesh after 200 cycles of random 1-flit traffic, and
        the number of flits injected."""
        net = Network(mesh_config(mesh_k=4))
        rng = random.Random(9)
        injected = 0
        for _ in range(200):
            for src in range(net.num_terminals):
                if rng.random() < 0.3:
                    dest = rng.randrange(net.num_terminals)
                    if dest != src:
                        net.inject(Packet(src, dest, 1, net.cycle))
                        injected += 1
            net.step()
        return net, injected

    def test_flit_conservation_against_port_counters(self):
        """Every injected flit leaves through exactly one terminal port:
        the routers' per-port counters match the sinks once drained."""
        net, injected = self._loaded_network()
        for _ in range(1000):
            if sum(sink.flits_consumed for sink in net.sinks) >= injected:
                break
            net.step()
        assert sum(sink.flits_consumed for sink in net.sinks) == injected
        assert net.backlog() == 0 and net.in_flight_flits() == 0
        ejected = sum(
            router.port_flits[port]
            for router in net.routers
            for port in range(router.radix)
            if router.is_terminal_port[port]
        )
        assert ejected == injected
