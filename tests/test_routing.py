"""Tests for DOR and UGAL routing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network.flit import Packet
from repro.routing import DORMesh, UGALFbfly, build_routing
from repro.network.config import fbfly_config, mesh_config
from repro.topology import FlattenedButterfly, Mesh2D
from repro.topology.mesh import (
    PORT_TERMINAL,
    PORT_XMINUS,
    PORT_XPLUS,
    PORT_YMINUS,
    PORT_YPLUS,
)


class TestDORMesh:
    def setup_method(self):
        self.topo = Mesh2D(8)
        self.routing = DORMesh(self.topo)

    def _route(self, src, dest):
        """Walk the packet hop by hop; return the port sequence."""
        packet = Packet(src, dest, 1, 0)
        self.routing.prepare(packet)
        router = src
        ports = []
        for _ in range(20):
            port, vc_class = self.routing.next_hop(router, packet)
            assert vc_class == 0
            ports.append(port)
            if port == PORT_TERMINAL:
                return ports
            link = self.topo.link(router, port)
            assert link is not None, "DOR routed off the mesh edge"
            router = link.dest_router
        raise AssertionError("routing did not terminate")

    def test_x_before_y(self):
        ports = self._route(self.topo.router_at(0, 0), self.topo.router_at(2, 2))
        assert ports == [PORT_XPLUS, PORT_XPLUS, PORT_YPLUS, PORT_YPLUS, PORT_TERMINAL]

    def test_negative_directions(self):
        ports = self._route(self.topo.router_at(3, 3), self.topo.router_at(1, 2))
        assert ports == [PORT_XMINUS, PORT_XMINUS, PORT_YMINUS, PORT_TERMINAL]

    def test_same_router_ejects(self):
        ports = self._route(5, 5)
        assert ports == [PORT_TERMINAL]

    @settings(max_examples=100, deadline=None)
    @given(src=st.integers(0, 63), dest=st.integers(0, 63))
    def test_property_reaches_destination_minimally(self, src, dest):
        ports = self._route(src, dest)
        sx, sy = self.topo.coords(src)
        dx, dy = self.topo.coords(dest)
        assert len(ports) == abs(sx - dx) + abs(sy - dy) + 1


class TestUGALFbfly:
    def setup_method(self):
        self.topo = FlattenedButterfly(4, 4, 4)
        self.rng = random.Random(3)
        self.routing = UGALFbfly(self.topo, self.rng)

    def _walk(self, packet):
        router, _ = self.topo.terminal_attachment(packet.src)
        hops = []
        for _ in range(10):
            port, vc_class = self.routing.next_hop(router, packet)
            if self.topo.is_terminal_port(router, port):
                assert self.topo.terminal_at(router, port) == packet.dest
                return hops
            link = self.topo.link(router, port)
            hops.append((router, link.dest_router, vc_class))
            router = link.dest_router
        raise AssertionError("UGAL did not terminate")

    def test_uncongested_routes_minimally(self):
        """With zero congestion, q_min*H_min <= threshold: minimal wins."""
        packet = Packet(0, 63, 1, 0)
        self.routing.prepare(packet)
        assert packet.route_state.minimal
        hops = self._walk(packet)
        assert len(hops) <= 2  # one hop per differing dimension

    def test_minimal_packets_use_class_1(self):
        packet = Packet(0, 63, 1, 0)
        self.routing.prepare(packet)
        for _, _, vc_class in self._walk(packet):
            assert vc_class == 1

    def test_congestion_triggers_nonminimal(self):
        """Heavy congestion on the minimal first hop flips to Valiant."""
        # Congestion probe: huge queue toward the minimal path's first
        # hop, empty elsewhere.
        dest_router, _ = self.topo.terminal_attachment(48)
        src_router, _ = self.topo.terminal_attachment(0)
        minimal_port = self.routing._first_port(src_router, dest_router)

        def probe(router, port):
            return 1000 if (router, port) == (src_router, minimal_port) else 0

        self.routing.attach_congestion(probe)
        decisions = []
        for _ in range(50):
            packet = Packet(0, 48, 1, 0)
            self.routing.prepare(packet)
            decisions.append(packet.route_state.minimal)
        assert not all(decisions), "congestion never diverted a packet"

    def test_nonminimal_passes_intermediate_and_switches_class(self):
        packet = Packet(0, 63, 1, 0)
        self.routing.prepare(packet)
        # Force a nonminimal route through a known intermediate.
        packet.route_state.minimal = False
        packet.route_state.phase = 0
        packet.route_state.intermediate = self.topo.router_at(2, 1)
        packet.vc_class = 0
        hops = self._walk(packet)
        routers_visited = [h[1] for h in hops]
        assert self.topo.router_at(2, 1) in [h[0] for h in hops] + routers_visited
        # Class 0 (toward intermediate) precedes class 1 (toward dest).
        classes = [h[2] for h in hops]
        assert classes == sorted(classes)

    def test_self_intermediate_forced_minimal(self):
        """intermediate == src or dest degenerates to minimal routing."""
        rng = random.Random(0)
        routing = UGALFbfly(self.topo, rng)
        for _ in range(200):
            packet = Packet(0, 5, 1, 0)
            routing.prepare(packet)
            self.routing = routing
            self._walk(packet)  # must always terminate

    def test_memoised_geometry_matches_topology(self):
        """The per-(router, target) memo returns what the topology
        computes, on the filling call and on every later one."""
        topo = self.topo
        for router in range(topo.num_routers):
            x, y = topo.coords(router)
            for target in range(topo.num_routers):
                tx, ty = topo.coords(target)
                if x != tx:
                    port = topo.row_port(router, tx)
                elif y != ty:
                    port = topo.col_port(router, ty)
                else:
                    port = None
                for _ in range(2):
                    assert self.routing._first_port(router, target) == port
                    assert (self.routing._hops(router, target)
                            == int(x != tx) + int(y != ty))

    def test_out_of_range_target_still_raises(self):
        """The memo is filled through row_port/col_port, so their range
        checks still run; a failed lookup is not remembered as a port."""
        for _ in range(2):
            with pytest.raises(ValueError):
                self.routing._first_port(0, self.topo.num_routers)

    def test_same_router_pair(self):
        """src and dest on the same router eject without network hops."""
        packet = Packet(0, 1, 1, 0)  # terminals 0 and 1 share router 0
        self.routing.prepare(packet)
        assert self._walk(packet) == []

    @settings(max_examples=100, deadline=None)
    @given(src=st.integers(0, 63), dest=st.integers(0, 63), seed=st.integers(0, 99))
    def test_property_always_delivers(self, src, dest, seed):
        if src == dest:
            return
        routing = UGALFbfly(self.topo, random.Random(seed))
        packet = Packet(src, dest, 1, 0)
        routing.prepare(packet)
        self.routing = routing
        hops = self._walk(packet)
        assert len(hops) <= 4  # two hops per phase maximum


class TestBuildRouting:
    def test_mesh(self):
        cfg = mesh_config()
        topo = Mesh2D(8)
        assert isinstance(build_routing(cfg, topo, random.Random(0)), DORMesh)

    def test_fbfly(self):
        cfg = fbfly_config()
        topo = FlattenedButterfly(4, 4, 4)
        assert isinstance(build_routing(cfg, topo, random.Random(0)), UGALFbfly)
