"""Hotspot traffic and the tree-saturation heatmap.

Drives the mesh with hotspot traffic (20% of packets aimed at two
corners) with a NetworkSampler attached, then renders per-router state
as ASCII heatmaps. The congestion tree rooted at each hotspot is
clearly visible — this is the "tree saturation" (Kruskal & Snir) that
packet chaining mitigates in Figure 5 — and the buffered-flits view
shows it *building over time*, which the end-of-run counters cannot.

Run:  python examples/hotspot_heatmap.py
"""

import random

from repro import mesh_config
from repro.network.network import Network
from repro.obs import NetworkSampler
from repro.sim.runner import SimulationRun
from repro.traffic import BernoulliInjector, FixedLength, Hotspot

CYCLES = 1500
RATE = 0.35
SAMPLE_PERIOD = 100


def run(chaining):
    config = mesh_config(chaining=chaining)
    net = Network(config)
    sampler = NetworkSampler(period=SAMPLE_PERIOD)
    rng = random.Random(4)
    pattern = Hotspot(net.num_terminals, hotspots=(0, 63), fraction=0.2)
    injector = BernoulliInjector(
        net.num_terminals, pattern, RATE, FixedLength(1), rng
    )
    net.stats.set_window(0, CYCLES)
    result = SimulationRun(net, injector, warmup=0, measure=CYCLES,
                           drain=0, probes=[sampler]).execute()
    return net, sampler, result


def main():
    print(f"8x8 mesh, hotspot traffic (20% to corners 0 and 63), "
          f"rate {RATE}, {CYCLES} cycles, sampled every {SAMPLE_PERIOD}\n")
    for scheme in ("disabled", "same_input"):
        net, sampler, result = run(scheme)
        label = "iSLIP-1" if scheme == "disabled" else "packet chaining"
        print(f"--- {label} ---")
        print("switching activity (mean over run):")
        print(sampler.heatmap(field="activity"))
        print("buffered flits (final sample — the saturation tree):")
        print(sampler.heatmap(field="buffered", reduce="last"))
        links = [
            u for (r, p), u in sampler.link_utilization().items()
            if u > 0 and not net.routers[r].is_terminal_port[p]
        ]
        mean, peak = sum(links) / len(links), max(links)
        print(f"{len(links)} active links, mean utilization {mean:.3f}"
              f" flits/cycle")
        print(f"peak link {peak:.3f} flits/cycle ({peak / mean:.1f}x mean)")
        print(f"accepted {result.avg_throughput:.3f} flits/node/cycle, "
              f"worst source {result.min_throughput:.3f}, "
              f"mean latency {result.packet_latency.mean:.1f}\n")
    _, sampler, _ = run("disabled")
    print("hottest links (router, port, flits/cycle):")
    for router, port, util in sampler.hottest_links(top=5):
        print(f"  router {router:>2} port {port}: {util:.3f}")


if __name__ == "__main__":
    main()
