"""Measurement-window statistics collection.

BookSim-style methodology: statistics are collected only inside a
measurement window [start, end). Throughput is the flit ejection rate
per terminal during the window; the paper reports the *minimum over all
sources* ("Throughput results presented in this paper are the minimum
throughput among all sources for each simulation (worst-case
throughput)", Section 4.7). Latencies are recorded for packets ejected
during (or after) the window that were also created inside it.
"""


class StatsCollector:
    def __init__(self, num_terminals):
        self.num_terminals = num_terminals
        self.window = None  # (start, end) or None while not measuring
        # Ejection listener hooks (survive reset): instruments like
        # TimeSeries register callables instead of wrapping record_*
        # methods, so several observers compose without monkey-patching.
        self._flit_hooks = []
        self._packet_hooks = []
        self.reset()

    def reset(self):
        self.flits_ejected_per_source = [0] * self.num_terminals
        self.flits_injected_per_source = [0] * self.num_terminals
        self.packets_created_per_source = [0] * self.num_terminals
        self.packet_latencies = []
        self.network_latencies = []
        self.blocked_cycles = []
        self.max_packet_latency = 0
        self.packets_ejected = 0
        self.flits_ejected = 0

    def set_window(self, start, end):
        self.window = (start, end)

    # --- checkpointing ----------------------------------------------------

    def state_dict(self):
        """Serialize counters and the window.

        Listener hooks are deliberately excluded: they are observer
        wiring, not simulation state, and re-attach after a restore the
        same way they attach to a fresh collector.
        """
        return {
            "window": list(self.window) if self.window is not None else None,
            "flits_ejected_per_source": list(self.flits_ejected_per_source),
            "flits_injected_per_source": list(self.flits_injected_per_source),
            "packets_created_per_source": list(self.packets_created_per_source),
            "packet_latencies": list(self.packet_latencies),
            "network_latencies": list(self.network_latencies),
            "blocked_cycles": list(self.blocked_cycles),
            "max_packet_latency": self.max_packet_latency,
            "packets_ejected": self.packets_ejected,
            "flits_ejected": self.flits_ejected,
        }

    def load_state(self, state):
        self.window = tuple(state["window"]) if state["window"] is not None else None
        self.flits_ejected_per_source = list(state["flits_ejected_per_source"])
        self.flits_injected_per_source = list(state["flits_injected_per_source"])
        self.packets_created_per_source = list(state["packets_created_per_source"])
        self.packet_latencies = list(state["packet_latencies"])
        self.network_latencies = list(state["network_latencies"])
        self.blocked_cycles = list(state["blocked_cycles"])
        self.max_packet_latency = state["max_packet_latency"]
        self.packets_ejected = state["packets_ejected"]
        self.flits_ejected = state["flits_ejected"]

    # --- listener registration -------------------------------------------

    def add_listener(self, listener):
        """Register an ejection observer; returns ``listener``.

        ``listener`` may implement ``on_flit_ejected(flit, cycle)``
        and/or ``on_packet_ejected(packet, cycle)``; whichever methods
        exist are called on **every** ejection (window filtering is the
        listener's business, not the collector's). The hot path pays a
        truthiness check per ejection when no listeners are registered.
        """
        flit_hook = getattr(listener, "on_flit_ejected", None)
        packet_hook = getattr(listener, "on_packet_ejected", None)
        if flit_hook is None and packet_hook is None:
            raise TypeError(
                "listener implements neither on_flit_ejected nor "
                "on_packet_ejected"
            )
        if flit_hook is not None:
            self._flit_hooks.append(flit_hook)
        if packet_hook is not None:
            self._packet_hooks.append(packet_hook)
        return listener

    def remove_listener(self, listener):
        """Unregister a listener added with :meth:`add_listener`."""
        flit_hook = getattr(listener, "on_flit_ejected", None)
        packet_hook = getattr(listener, "on_packet_ejected", None)
        if flit_hook in self._flit_hooks:
            self._flit_hooks.remove(flit_hook)
        if packet_hook in self._packet_hooks:
            self._packet_hooks.remove(packet_hook)

    # --- hooks called by the simulation ---------------------------------

    def in_window(self, cycle):
        return self.window is not None and self.window[0] <= cycle < self.window[1]

    def record_created(self, packet, cycle):
        if self.in_window(cycle):
            self.packets_created_per_source[packet.src] += 1

    def record_injected(self, packet, cycle):
        if self.in_window(cycle):
            self.flits_injected_per_source[packet.src] += packet.size

    def record_flit_ejected(self, flit, cycle):
        if self.in_window(cycle):
            self.flits_ejected_per_source[flit.packet.src] += 1
            self.flits_ejected += 1
        if self._flit_hooks:
            for hook in self._flit_hooks:
                hook(flit, cycle)

    def record_ejected(self, packet, cycle):
        """Called on tail ejection; latency sample if created in-window."""
        if self._packet_hooks:
            for hook in self._packet_hooks:
                hook(packet, cycle)
        if self.in_window(cycle):
            self.packets_ejected += 1
        if self.window is None or packet.time_created < self.window[0]:
            return
        if packet.time_created >= self.window[1]:
            return
        latency = cycle - packet.time_created
        self.packet_latencies.append(latency)
        if packet.time_injected is not None:
            self.network_latencies.append(cycle - packet.time_injected)
        self.blocked_cycles.append(packet.blocked_cycles)
        if latency > self.max_packet_latency:
            self.max_packet_latency = latency

    # --- derived metrics --------------------------------------------------

    @property
    def window_cycles(self):
        if self.window is None:
            return 0
        return self.window[1] - self.window[0]

    def throughput_per_source(self):
        """Accepted flits per cycle for each source terminal."""
        cycles = self.window_cycles
        if cycles == 0:
            return [0.0] * self.num_terminals
        return [n / cycles for n in self.flits_ejected_per_source]

    def avg_throughput(self):
        """Mean accepted flits/cycle/terminal across active sources."""
        rates = self.active_source_rates()
        if not rates:
            return 0.0
        return sum(rates) / self.num_terminals

    def min_throughput(self):
        """Worst-case throughput: minimum over sources that offered load."""
        rates = self.active_source_rates()
        if not rates:
            return 0.0
        return min(rates)

    def active_source_rates(self):
        """Accepted rates of sources that created packets in-window."""
        per = self.throughput_per_source()
        return [
            per[s]
            for s in range(self.num_terminals)
            if self.packets_created_per_source[s] > 0
        ]

    # --- metrics export ---------------------------------------------------

    def publish_metrics(self, registry):
        """Register window counters/gauges/histograms into a registry.

        Snapshot semantics: call once per finished run on a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` (or one whose
        counters you intend to accumulate into).
        """
        from repro.obs.metrics import LATENCY_EDGES

        registry.counter("flits_ejected").inc(self.flits_ejected)
        registry.counter("packets_ejected").inc(self.packets_ejected)
        registry.counter("packets_created").inc(
            sum(self.packets_created_per_source))
        registry.counter("flits_injected").inc(
            sum(self.flits_injected_per_source))
        registry.gauge("throughput_avg").set(self.avg_throughput())
        registry.gauge("throughput_min").set(self.min_throughput())
        registry.gauge("window_cycles").set(self.window_cycles)
        lat = registry.histogram("packet_latency_cycles", LATENCY_EDGES)
        for sample in self.packet_latencies:
            lat.observe(sample)
        blk = registry.histogram("packet_blocked_cycles", LATENCY_EDGES)
        for sample in self.blocked_cycles:
            blk.observe(sample)
        return registry
