"""Backend selection: config plumbing, CLI, and bench twins.

The ``backend`` field is an execution detail that must survive config
round-trips and be selectable from the CLI. The fast core is the
default and takes every workload — fault injection and the reliable
transport included — so nothing ever falls back; ``"reference"`` still
builds the per-object oracle the equivalence tests compare against.
"""

import dataclasses
import io
import json
import subprocess
import sys
import warnings

import pytest

from repro.cli import main
from repro.faults import FaultController, ReliableTransport
from repro.faults.plan import FaultPlan, LinkFault
from repro.network import flit as flitmod
from repro.network.config import NetworkConfig, mesh_config
from repro.network.network import build_network
from repro.sim.runner import run_simulation


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


RUN = dict(pattern="uniform", rate=0.2, warmup=50, measure=150, drain=100)


class TestConfigRoundTrip:
    def test_backend_survives_dict_round_trip(self):
        config = mesh_config(mesh_k=4, backend="fast")
        data = config.to_dict()
        assert data["backend"] == "fast"
        assert NetworkConfig.from_dict(data).backend == "fast"

    def test_backend_survives_file_round_trip(self, tmp_path):
        path = str(tmp_path / "config.json")
        mesh_config(mesh_k=4, backend="fast").save(path)
        assert NetworkConfig.load(path).backend == "fast"

    def test_backend_defaults_to_fast(self):
        assert mesh_config(mesh_k=4).backend == "fast"
        assert NetworkConfig.from_dict({}).backend == "fast"

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            mesh_config(mesh_k=4, backend="turbo")


class TestBuildNetwork:
    def test_fast_backend_builds_fast_network(self):
        from repro.fastcore import FastNetwork

        net = build_network(mesh_config(mesh_k=4, backend="fast"))
        assert type(net) is FastNetwork

    def test_default_backend_builds_fast_network(self):
        from repro.fastcore import FastNetwork

        assert type(build_network(mesh_config(mesh_k=4))) is FastNetwork

    def test_reference_backend_builds_reference_network(self):
        from repro.network.network import Network
        from repro.network.router import Router

        net = build_network(mesh_config(mesh_k=4, backend="reference"))
        assert type(net) is Network
        assert all(type(r) is Router for r in net.routers)

    def test_fast_network_accepts_faults_and_transport(self):
        net = build_network(mesh_config(mesh_k=4, backend="fast"))
        plan = FaultPlan(links=[LinkFault(router=5, port=1, cycle=3)])
        controller = net.attach_faults(FaultController(plan))
        transport = net.attach_transport(ReliableTransport())
        assert net.faults is controller and net.transport is transport
        assert all(r.faults is not None for r in net.routers)
        # Fault-aware DOR is not a pure function of (router, dest).
        assert all(r._route_cache is None for r in net.routers)
        assert all(s._route_cache is None for s in net.sources)
        net.run(5)
        assert controller.failed_links == 1


class TestRunnerFallback:
    """There is none any more: the runner honors ``config.backend``."""

    def test_faulted_fast_run_matches_reference_without_warning(self):
        plan = FaultPlan(links=[LinkFault(router=5, port=1, cycle=60,
                                          duration=20)])
        results = {}
        for backend in ("reference", "fast"):
            flitmod.set_next_packet_id(0)
            config = mesh_config(mesh_k=4, backend=backend)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = run_simulation(
                    config, faults=plan, transport=ReliableTransport(), **RUN
                )
            results[backend] = result.to_dict()
        assert results["fast"] == results["reference"]
        assert results["fast"]["faults"]["injection"]["failed_links"] == 1
        assert results["fast"]["faults"]["injection"]["dropped_flits"] > 0

    def test_fault_free_fast_run_does_not_warn(self):
        config = mesh_config(mesh_k=4, backend="fast")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_simulation(config, **RUN)
        assert result.offered_rate > 0


class TestCLI:
    def test_run_backend_fast(self):
        code, text = run_cli(
            "run", "--mesh-k", "4", "--rate", "0.1", "--backend", "fast",
            "--warmup", "100", "--measure", "200", "--drain", "100",
        )
        assert code == 0
        assert "accepted (mean)" in text

    def test_run_backend_fast_matches_reference_output(self):
        args = ("run", "--mesh-k", "4", "--rate", "0.2", "--json",
                "--chaining", "any_input",
                "--warmup", "100", "--measure", "200", "--drain", "100")
        flitmod.set_next_packet_id(0)
        _, ref_text = run_cli(*args, "--backend", "reference")
        flitmod.set_next_packet_id(0)
        _, fast_text = run_cli(*args, "--backend", "fast")
        assert json.loads(fast_text) == json.loads(ref_text)

    def test_backend_default_comes_from_the_config_field(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run"])
        assert args.backend == NetworkConfig.backend == "fast"

    def test_run_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            run_cli("run", "--backend", "turbo")


class TestBenchTwins:
    def test_fast_twin_shares_grid_point(self):
        from repro.bench import default_suite

        cases = default_suite(quick=True)
        by_name = {c.name: c for c in cases}
        twin = by_name["mesh4-islip1-chain-fast"]
        ref = by_name["mesh4-islip1-chain"]
        assert twin.backend == "fast"
        assert dataclasses.replace(twin, name=ref.name,
                                   backend="reference") == ref
        assert twin.config().backend == "fast"

    def test_backend_speedups_pairs_twins(self):
        from repro.bench import backend_speedups

        cases = {
            "a": {"backend": "reference", "cycles_per_sec": 100.0},
            "a-fast": {"backend": "fast", "cycles_per_sec": 320.0},
            "b": {"backend": "reference", "cycles_per_sec": 100.0},
        }
        speedups = backend_speedups(cases)
        assert speedups == {"a": pytest.approx(3.2)}


class TestStateArrays:
    def test_numpy_is_imported_on_first_use_only(self):
        # A fresh interpreter: this process has long since imported it.
        code = (
            "import sys, repro.fastcore\n"
            "from repro.network.config import mesh_config\n"
            "from repro.network.network import build_network\n"
            "net = build_network(mesh_config(mesh_k=4))\n"
            "net.run(3)\n"
            "assert 'numpy' not in sys.modules\n"
            "arrays = net.state_arrays()\n"
            "try:\n"
            "    import numpy\n"
            "except ImportError:\n"
            "    sys.exit(0)\n"
            "for name, a in arrays.items():\n"
            "    assert type(a) is numpy.ndarray, name\n"
            "    assert a.dtype == numpy.int64, name\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_state_arrays_shapes_and_values(self):
        config = mesh_config(mesh_k=4, backend="fast")
        net = build_network(config)
        arrays = net.state_arrays()
        rows = arrays["credits"]
        assert len(rows) == len(net.routers)
        # Idle network: all credits at full depth, occupancy zero.
        radix = net.routers[0].radix
        assert list(rows[0][0]) == [config.vc_buf_depth] * config.num_vcs
        occupancy = arrays["occupancy"]
        assert all(
            x == 0 for row in occupancy for port in row[:radix] for x in port
        )
        conn_out = arrays["conn_out"]
        assert list(conn_out[0][0]) == [-1, -1]
