"""Command-line interface.

Examples::

    python -m repro run --topology mesh --pattern uniform --rate 0.45 \\
        --chaining same_input
    python -m repro run --rate 0.4 --trace out.jsonl \\
        --trace-filter event=sa_grant|pc_chain --metrics metrics.json
    python -m repro sweep --rates 0.1 0.2 0.3 0.4 --chaining any_input --json
    python -m repro run --rate 0.45 --trace out.jsonl.gz --artifacts runs/pc
    python -m repro spans out.jsonl.gz --perfetto spans.json
    python -m repro diff runs/baseline runs/pc --threshold 5
    python -m repro report out.jsonl
    python -m repro run --rate 0.2 --faults examples/faultplan.json \\
        --reliable --invariants strict --watchdog 2000
    python -m repro run --rate 0.4 --checkpoint ck.json.gz \\
        --checkpoint-every 500 --kill-at 1200
    python -m repro run --rate 0.4 --resume ck.json.gz --json
    python -m repro run --rate 0.4 --progress --json > result.json
    python -m repro run --rate 0.4 --metrics m.json --profile prof.json
    python -m repro run --rate 0.3 --digest digests.jsonl.gz --digest-every 1
    python -m repro serve /tmp/svc --workers 4 &
    python -m repro serve /tmp/svc --submit-sweep 0.1 0.2 0.3 --mesh-k 4
    python -m repro serve /tmp/svc --submit examples/jobspec.json
    python -m repro serve /tmp/svc --status
"""

import argparse
import json
import sys

from repro.checkpoint import CheckpointError, Checkpointer, SimulationKilled
from repro.faults import (
    FaultController,
    FaultPlan,
    HangWatchdog,
    InvariantChecker,
    ReliableTransport,
    WatchdogError,
)
from repro.network.config import NetworkConfig
from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    NetworkSampler,
    PhaseProfiler,
    RunTelemetry,
    TraceBus,
    TraceFilter,
    build_spans,
    compare_artifacts,
    format_diff,
    format_report,
    format_spans_report,
    read_jsonl,
    summarize_trace,
    write_run_artifacts,
    write_sweep_manifest,
)
from repro.obs.artifacts import rate_subdir
from repro.sim.runner import KillAt, run_simulation
from repro.traffic import BimodalLength, FixedLength


def _add_network_args(parser):
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="load a NetworkConfig JSON file "
                             "(other network flags are ignored)")
    parser.add_argument("--topology", default="mesh",
                        choices=["mesh", "fbfly", "torus", "cmesh"])
    parser.add_argument("--mesh-k", type=int, default=8)
    parser.add_argument("--allocator", default="islip1",
                        help="islip<k>, pim<k>, wavefront, augmenting")
    parser.add_argument("--pc-allocator", default="islip1")
    parser.add_argument("--chaining", default="disabled",
                        choices=["disabled", "same_vc", "same_input", "any_input"])
    parser.add_argument("--starvation-threshold", type=int, default=None)
    parser.add_argument("--age-period", type=int, default=None)
    parser.add_argument("--num-vcs", type=int, default=4)
    parser.add_argument("--vc-buf-depth", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)


def _add_traffic_args(parser):
    parser.add_argument("--pattern", default="uniform")
    parser.add_argument("--packet-length", type=int, default=1)
    parser.add_argument("--bimodal", action="store_true",
                        help="1-/5-flit request-reply mix instead of fixed length")
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--measure", type=int, default=1500)
    parser.add_argument("--drain", type=int, default=1000)


def _config_from(args):
    if getattr(args, "config", None):
        return NetworkConfig.load(args.config)
    routing = "ugal" if args.topology == "fbfly" else "dor"
    return NetworkConfig(
        topology=args.topology,
        mesh_k=args.mesh_k,
        routing=routing,
        allocator=args.allocator,
        pc_allocator=args.pc_allocator,
        chaining=args.chaining,
        starvation_threshold=args.starvation_threshold,
        age_period=args.age_period,
        num_vcs=args.num_vcs,
        vc_buf_depth=args.vc_buf_depth,
        seed=args.seed,
    )


def _add_obs_args(parser):
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a JSONL event trace (see 'repro report')")
    parser.add_argument("--trace-filter", default=None, metavar="EXPR",
                        help="filter trace events, e.g. "
                             "'router=3|12,event=sa_grant|pc_chain'")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="export run metrics as JSON")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="profile router pipeline phases to a JSON file "
                             "(per-phase and per-allocator seconds in "
                             "1000-cycle epochs)")
    parser.add_argument("--progress", action="store_true",
                        help="single-line live heartbeat (cycle, cycles/sec, "
                             "ETA) on stderr; stdout stays clean for --json")
    parser.add_argument("--heartbeat", default=None, metavar="FILE",
                        help="append fsynced telemetry heartbeat records to "
                             "a JSONL file (obs.telemetry)")
    parser.add_argument("--heartbeat-every", type=int, default=1000,
                        metavar="N", help="cycles between heartbeats "
                        "(with --progress/--heartbeat)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    _add_recorder_args(parser)


def _add_recorder_args(parser, sampling=True):
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write a self-describing run-artifact directory "
                             "(manifest, summary, metrics; see 'repro diff')")
    if sampling:
        parser.add_argument("--samples", default=None, metavar="FILE",
                            help="record periodic network-state samples to "
                                 "JSONL (.gz compresses)")
        parser.add_argument("--sample-period", type=int, default=100,
                            metavar="N", help="cycles between network-state "
                            "samples (with --samples/--artifacts)")


def _obs_from(args):
    """Build (bus, profiler, metrics) from CLI flags."""
    bus = None
    if args.trace:
        filt = TraceFilter.parse(args.trace_filter) if args.trace_filter else None
        bus = TraceBus(filter=filt)
        bus.attach(JsonlSink(args.trace))
    profiler = PhaseProfiler() if args.profile else None
    registry = (
        MetricsRegistry()
        if (args.metrics or args.json or args.artifacts)
        else None
    )
    return bus, profiler, registry


def _probes_from(args):
    """Build (probes in firing order, sampler, digest recorder) from
    the run flags; the output reads the sampler and the recorder."""
    sampler = watchdog = telemetry = digester = None
    if args.samples or args.artifacts:
        sampler = NetworkSampler(period=args.sample_period)
    if args.watchdog:
        watchdog = HangWatchdog(
            window=args.watchdog, dump_path=args.watchdog_dump
        )
    if args.progress or args.heartbeat:
        telemetry = RunTelemetry(
            path=args.heartbeat, every=args.heartbeat_every,
            console=sys.stderr if args.progress else None,
            rate=args.rate,
        )
    if args.digest:
        from repro.obs.digest import DigestRecorder

        digester = DigestRecorder(every=args.digest_every, path=args.digest)
    probes = [p for p in (sampler, watchdog, telemetry, digester)
              if p is not None]
    if args.checkpoint:
        probes.append(Checkpointer(args.checkpoint, args.checkpoint_every))
    if args.kill_at is not None:
        probes.append(KillAt(args.kill_at))
    return probes, sampler, digester


def _add_fault_args(parser):
    parser.add_argument("--faults", default=None, metavar="FILE",
                        help="inject faults from a FaultPlan JSON file")
    parser.add_argument("--reliable", action="store_true",
                        help="end-to-end reliable delivery (seq numbers, "
                             "acks, bounded retransmission)")
    parser.add_argument("--reliable-timeout", type=int, default=512,
                        metavar="CYCLES", help="retransmission timeout")
    parser.add_argument("--reliable-retries", type=int, default=4,
                        metavar="N", help="retry budget per packet")
    parser.add_argument("--invariants", default="off",
                        choices=["off", "strict", "report"],
                        help="runtime invariant checking (credit/flit "
                             "conservation, buffer bounds, connections)")
    parser.add_argument("--watchdog", type=int, default=0, metavar="CYCLES",
                        help="deadlock/livelock watchdog window (0 = off)")
    parser.add_argument("--watchdog-dump", default=None, metavar="FILE",
                        help="write the watchdog's diagnostic bundle here "
                             "on a hang")


def _faults_from(args):
    """Build (controller, transport, invariants) from flags."""
    controller = None
    if args.faults:
        controller = FaultController(FaultPlan.load(args.faults))
    transport = None
    if args.reliable:
        transport = ReliableTransport(
            timeout=args.reliable_timeout, max_retries=args.reliable_retries
        )
    checker = None
    if args.invariants != "off":
        checker = InvariantChecker(mode=args.invariants)
    return controller, transport, checker


def _print_fault_summary(result, out):
    parts = result.faults or {}
    inj = parts.get("injection")
    if inj:
        out.write(
            f"faults            : {inj['failed_links']} link,"
            f" {inj['failed_routers']} router;"
            f" {inj['dropped_flits']} flits dropped,"
            f" {inj['corrupted_flits']} corrupted,"
            f" {inj['killed_packets']} packets killed,"
            f" {inj['detours']} detours\n"
        )
    tx = parts.get("transport")
    if tx:
        out.write(
            f"reliability       : {tx['delivered']}/{tx['tracked']}"
            f" delivered, {tx['retransmissions']} retransmissions,"
            f" {tx['duplicates']} duplicates, {tx['failed']} failed\n"
        )
    inv = parts.get("invariants")
    if inv:
        out.write(
            f"invariants        : {inv['checks_run']} sweeps"
            f" ({inv['mode']}), {inv['violations']} violations\n"
        )
    wd = parts.get("watchdog")
    if wd:
        out.write(
            f"watchdog          : window {wd['window']},"
            f" {wd['hangs']} hangs\n"
        )


def _run_info_from(args, command):
    """The reproduction block of an artifact manifest."""
    info = {
        "command": command,
        "pattern": args.pattern,
        "warmup": args.warmup,
        "measure": args.measure,
    }
    if hasattr(args, "drain"):
        info["drain"] = args.drain
    if getattr(args, "bimodal", False):
        info["lengths"] = "bimodal(1,5)"
    else:
        info["packet_length"] = args.packet_length
    if hasattr(args, "rate"):
        info["rate"] = args.rate
    if hasattr(args, "rates"):
        info["rates"] = list(args.rates)
    return info


def _finish_obs(args, bus, profiler):
    if bus is not None:
        bus.close()
    if profiler is not None:
        profiler.save(args.profile)


def _lengths_from(args):
    return BimodalLength(1, 5) if args.bimodal else FixedLength(args.packet_length)


def _print_result(result, out):
    cs = result.chain_stats
    out.write(
        f"offered rate      : {result.offered_rate:.3f} flits/node/cycle\n"
        f"accepted (mean)   : {result.avg_throughput:.3f}\n"
        f"accepted (min src): {result.min_throughput:.3f}\n"
        f"packet latency    : mean {result.packet_latency.mean:.1f}"
        f"  p50 {result.packet_latency.p50:.0f}"
        f"  p99 {result.packet_latency.p99:.0f}"
        f"  max {result.packet_latency.max:.0f}\n"
        f"blocking cycles   : mean {result.blocking.mean:.2f} per packet\n"
    )
    if cs.total_chains:
        out.write(
            f"chains            : {cs.total_chains}"
            f" (same VC {cs.same_input_same_vc},"
            f" same input {cs.same_input_other_vc},"
            f" other input {cs.other_input};"
            f" conflicts {cs.conflicts})\n"
        )


def _print_alloc_efficiency(registry, out):
    """One grant-efficiency line per active allocation stage."""
    if registry is None:
        return
    data = registry.to_dict()
    counters, gauges = data["counters"], data["gauges"]
    parts = []
    for role, label in (("sa", "SA"), ("pc", "PC"), ("vc", "VC")):
        requests = counters.get(f"{role}_alloc_requests", 0)
        if not requests:
            continue
        grants = counters.get(f"{role}_alloc_grants", 0)
        eff = gauges.get(f"{role}_grant_efficiency", 0.0)
        parts.append(f"{label} {eff:.3f} ({grants}/{requests})")
    if parts:
        out.write(f"grant efficiency  : {', '.join(parts)}\n")


def cmd_run(args, out):
    bus, profiler, registry = _obs_from(args)
    config = _config_from(args)
    controller, transport, checker = _faults_from(args)
    probes, sampler, digester = _probes_from(args)
    try:
        result = run_simulation(
            config, pattern=args.pattern, rate=args.rate,
            lengths=_lengths_from(args), warmup=args.warmup,
            measure=args.measure, drain=args.drain,
            trace=bus, profiler=profiler, metrics=registry,
            faults=controller, transport=transport, invariants=checker,
            resume_from=args.resume, probes=probes,
        )
    except SimulationKilled as exc:
        _finish_obs(args, bus, profiler)
        out.write(f"repro run: {exc}\n")
        if args.checkpoint:
            out.write(f"checkpoint        : {args.checkpoint}\n")
        return 4
    except CheckpointError as exc:
        _finish_obs(args, bus, profiler)
        out.write(f"repro run: {exc}\n")
        return 2
    except WatchdogError as exc:
        _finish_obs(args, bus, profiler)
        out.write(f"repro run: {exc}\n")
        if args.watchdog_dump:
            out.write(f"diagnostics       : {args.watchdog_dump}\n")
        return 3
    _finish_obs(args, bus, profiler)
    if args.samples:
        sampler.save_jsonl(args.samples)
    if args.artifacts:
        span_set = None
        if args.trace:
            # The trace is on disk and closed; rebuild spans from it so
            # the artifact carries the latency decomposition.
            span_set = build_spans(read_jsonl(args.trace))
            span_set.publish_metrics(registry)
        write_run_artifacts(
            args.artifacts, config, result, registry=registry,
            run_info=_run_info_from(args, "run"),
            sampler=sampler, span_set=span_set,
        )
    if args.metrics:
        registry.save_json(args.metrics)
    if args.json:
        payload = result.to_dict()
        payload["metrics"] = registry.to_dict()
        if digester is not None:
            payload["digest"] = {
                "path": args.digest,
                "digests": digester.digests_taken,
                "fingerprint": digester.fingerprint,
            }
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        _print_result(result, out)
        _print_alloc_efficiency(registry, out)
        if result.drained is not None:
            state = "complete" if result.drained else "INCOMPLETE"
            out.write(
                f"drain             : {state} after {result.drain_cycles}"
                f" cycles\n"
            )
        if result.timing is not None:
            out.write(
                f"simulation speed  : {result.timing['cycles_per_sec']:.0f}"
                f" cycles/sec\n"
            )
        if digester is not None:
            out.write(
                f"digest stream     : {args.digest}"
                f" ({digester.digests_taken} digests, fingerprint"
                f" {digester.fingerprint[:16]})\n"
            )
        _print_fault_summary(result, out)
    # Packets the reliable transport gave up on are a failed run.
    tx = (result.faults or {}).get("transport")
    return 1 if tx and tx["failed"] else 0


def cmd_sweep(args, out):
    import os

    want_metrics = args.json or args.artifacts
    results = []
    for rate in args.rates:
        # Registries hold end-of-run snapshots: one per rate, or the
        # counters would sum across rates.
        registry = MetricsRegistry() if want_metrics else None
        result = run_simulation(
            _config_from(args), pattern=args.pattern, rate=rate,
            lengths=_lengths_from(args), warmup=args.warmup,
            measure=args.measure, drain=args.drain, metrics=registry,
        )
        results.append((rate, result, registry))
    if args.artifacts:
        config = _config_from(args)
        write_sweep_manifest(
            args.artifacts, config, args.rates,
            run_info=_run_info_from(args, "sweep"),
        )
        for rate, result, registry in results:
            write_run_artifacts(
                os.path.join(args.artifacts, rate_subdir(rate)),
                config, result, registry=registry,
                run_info=dict(_run_info_from(args, "sweep"), rate=rate),
            )
    if args.json:
        rows = []
        for rate, result, registry in results:
            payload = result.to_dict()
            payload["rate"] = rate
            payload["metrics"] = registry.to_dict()
            rows.append(payload)
        json.dump(rows, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(f"{'rate':>6} {'accepted':>9} {'min-src':>8} {'latency':>8}\n")
        for rate, result, _ in results:
            out.write(
                f"{rate:>6.2f} {result.avg_throughput:>9.3f}"
                f" {result.min_throughput:>8.3f}"
                f" {result.packet_latency.mean:>8.1f}\n"
            )
    return 0


def cmd_report(args, out):
    events = read_jsonl(args.tracefile)
    out.write(format_report(summarize_trace(events), top=args.top))
    return 0


def cmd_spans(args, out):
    span_set = build_spans(read_jsonl(args.tracefile))
    if args.perfetto:
        span_set.save_chrome_trace(args.perfetto, limit=args.limit)
    if args.json:
        json.dump(span_set.decomposition(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(format_spans_report(span_set, top=args.top))
        if args.perfetto:
            out.write(f"perfetto trace    : {args.perfetto}\n")
    return 0


def cmd_diff(args, out):
    try:
        diff = compare_artifacts(args.base, args.new, args.threshold)
    except (ValueError, OSError) as exc:
        out.write(f"repro diff: {exc}\n")
        return 2
    if args.json:
        json.dump(diff.to_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(format_diff(diff))
    return 1 if diff.regressions else 0


def cmd_shard(args, out):
    from repro.parallel import shard_run, single_process_run
    from repro.parallel.coordinator import ShardRunError
    from repro.parallel.partition import ShardPlanError

    config = _config_from(args)
    kwargs = dict(
        pattern=args.pattern, rate=args.rate, lengths=_lengths_from(args),
        warmup=args.warmup, measure=args.measure, drain=args.drain,
    )
    chaos = None
    if args.chaos_kill_cycle is not None:  # CI's restart-path smoke
        chaos = {args.chaos_shard: {"sigkill_at_cycle": args.chaos_kill_cycle}}
    try:
        res = shard_run(config, shards=args.shards, out_dir=args.out_dir,
                        chaos=chaos, **kwargs)
    except (ShardPlanError, ShardRunError) as exc:
        out.write(f"repro shard: {exc}\n")
        return 2
    _print_result(res.result, out)
    out.write(
        f"shards            : {res.shards} (window {res.window} cycles)\n"
        f"restarts          : {res.restarts}\n"
        f"digest root       : {res.digest_root}\n"
        f"state dir         : {res.out_dir}\n"
    )
    if args.check_single:
        ref_result, ref_root = single_process_run(config, **kwargs)
        if res.result == ref_result and res.digest_root == ref_root:
            out.write("single-process    : bit-identical "
                      "(SimResult + digest root)\n")
        else:
            out.write(f"single-process    : MISMATCH "
                      f"(reference root {ref_root})\n")
            return 3
    return 0


def cmd_serve(args, out):
    from repro.serve import (
        ExperimentService,
        JobSpec,
        ServiceLockError,
        scan_service,
        spec_for,
        submit_spec,
    )
    if args.status:
        status = scan_service(args.root)
        if args.json:
            json.dump(status, out, indent=2, sort_keys=True)
            out.write("\n")
        else:
            jobs = status["jobs"]
            states = ", ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
            out.write(f"jobs ({status['total']}): {states or 'none'}\n")
            out.write(f"spooled submissions: {status['spool']}\n")
            out.write(f"retries recorded: {status['retries']}\n")
            for diag in status["dead"]:
                out.write(f"dead: {diag['label'] or '(unlabelled)'}"
                          f" after {diag['attempts']} attempts:"
                          f" {diag['error']}\n")
            server = status["server"]
            if server:
                cache = server.get("cache", {})
                rate = cache.get("hit_rate")
                out.write(
                    f"last server snapshot: pid {server.get('pid')},"
                    f" {len(server.get('workers', []))} worker(s),"
                    f" cache hits {cache.get('hits', 0)}"
                    f"/{cache.get('hits', 0) + cache.get('misses', 0)}"
                    + (f" ({100 * rate:.0f}%)" if rate is not None else "")
                    + "\n"
                )
        return 0

    if args.submit:
        with open(args.submit) as fh:
            payload = json.load(fh)
        spec = JobSpec.from_dict(payload.get("spec", payload))
        job_id = submit_spec(args.root, spec)
        out.write(f"{job_id}\n")
        return 0

    if args.submit_sweep is not None:
        config = _config_from(args)
        lengths = _lengths_from(args)
        for rate in args.submit_sweep:
            spec = spec_for(
                config, pattern=args.pattern, rate=rate, lengths=lengths,
                warmup=args.warmup, measure=args.measure, drain=args.drain,
                label=args.label or config.topology,
            )
            job_id = submit_spec(args.root, spec)
            out.write(f"{job_id}\n")
        return 0

    service = ExperimentService(
        args.root,
        workers=args.workers,
        max_retries=args.max_retries,
        lease_timeout=args.lease_timeout,
    )
    try:
        service.recover()
    except ServiceLockError as exc:
        out.write(f"error: {exc}\n")
        return 2
    try:
        status = service.run(poll=args.poll, once=args.once)
    finally:
        service.close()
    if args.json:
        json.dump(status, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        jobs = status["jobs"]
        states = ", ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
        cache = status["cache"]
        out.write(f"served: {states or 'nothing'}; cache hits "
                  f"{cache['hits']}/{cache['hits'] + cache['misses']}\n")
    from repro.serve import job_records

    dead = sum(1 for rec in job_records(args.root).values()
               if rec.state == "dead")
    return 1 if dead else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Packet chaining (MICRO 2011) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="one simulation, full result summary")
    _add_network_args(p)
    _add_traffic_args(p)
    _add_obs_args(p)
    _add_fault_args(p)
    p.add_argument("--rate", type=float, default=0.4)
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="write periodic checkpoints here (.gz compresses; "
                        "continue with --resume FILE)")
    p.add_argument("--checkpoint-every", type=int, default=1000, metavar="N",
                   help="cycles between checkpoints (with --checkpoint)")
    p.add_argument("--resume", default=None, metavar="FILE",
                   help="resume from a checkpoint (the other flags must "
                        "describe the same experiment)")
    p.add_argument("--kill-at", type=int, default=None, metavar="CYCLE",
                   help="abort after this cycle with exit code 4 "
                        "(chaos testing for checkpoint/resume)")
    p.add_argument("--digest", default=None, metavar="FILE",
                   help="stream hierarchical state digests to a JSONL file "
                        "(.gz compresses; read back with "
                        "repro.obs.digest.read_digest_stream)")
    p.add_argument("--digest-every", type=int, default=64, metavar="N",
                   help="cycles between digests (with --digest)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="injection-rate sweep")
    _add_network_args(p)
    _add_traffic_args(p)
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.1, 0.2, 0.3, 0.4, 0.5])
    p.add_argument("--json", action="store_true",
                   help="emit one JSON array of per-rate results")
    _add_recorder_args(p, sampling=False)
    p.set_defaults(func=cmd_sweep, drain=0)

    p = sub.add_parser("report", help="summarize a JSONL event trace")
    p.add_argument("tracefile",
                   help="trace written by run --trace (.gz ok, '-' = stdin)")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the contention / blocked-packet tables")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "shard",
        help="crash-tolerant sharded run (supervised worker per shard)",
    )
    _add_network_args(p)
    _add_traffic_args(p)
    p.add_argument("--rate", type=float, default=0.2)
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="worker processes / row bands (<= mesh-k)")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="run-state directory (exchange files, finals, "
                        "journal); rerun on it to resume a killed run")
    p.add_argument("--check-single", action="store_true",
                   help="also run single-process and verify bit-identical "
                        "SimResult + digest root (exit 3 on mismatch)")
    p.add_argument("--chaos-shard", type=int, default=0, metavar="SHARD",
                   help="shard targeted by the --chaos-* flags")
    p.add_argument("--chaos-kill-cycle", type=int, default=None,
                   metavar="CYCLE", help="SIGKILL the target shard "
                   "mid-window at this cycle (first attempt only)")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser(
        "spans", help="per-packet latency decomposition from a trace"
    )
    p.add_argument("tracefile",
                   help="trace written by run --trace (.gz ok, '-' = stdin)")
    p.add_argument("--perfetto", default=None, metavar="FILE",
                   help="also export Chrome trace-event JSON "
                        "(open in Perfetto / chrome://tracing)")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="cap the packets exported to the Perfetto trace")
    p.add_argument("--top", type=int, default=5,
                   help="rows in the worst-packets table")
    p.add_argument("--json", action="store_true",
                   help="emit the decomposition as JSON")
    p.set_defaults(func=cmd_spans)

    p = sub.add_parser(
        "diff", help="compare two artifact dirs; exit 1 on regression"
    )
    p.add_argument("base", help="baseline artifact directory")
    p.add_argument("new", help="candidate artifact directory")
    p.add_argument("--threshold", type=float, default=5.0, metavar="PCT",
                   help="percent change that counts as a regression")
    p.add_argument("--json", action="store_true",
                   help="emit the diff as JSON")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "serve",
        help="crash-tolerant experiment service over a root directory",
        description="Run the experiment service: a durable job queue, a "
                    "supervised worker pool, and a content-addressed "
                    "result cache under ROOT. Kill it (even -9) and "
                    "restart: the queue completes from the journal "
                    "without re-simulating cached work. SIGTERM drains "
                    "gracefully. With --submit/--submit-sweep/--status "
                    "the command acts as a client instead.",
    )
    p.add_argument("root", help="service root directory (created if absent)")
    p.add_argument("--workers", type=int, default=2,
                   help="max concurrent worker processes")
    p.add_argument("--max-retries", type=int, default=3,
                   help="extra attempts before a job is dead-lettered")
    p.add_argument("--lease-timeout", type=float, default=30.0,
                   help="seconds without a heartbeat before a worker is "
                        "presumed dead and its job re-queued")
    p.add_argument("--poll", type=float, default=0.05,
                   help="scheduler poll period in seconds")
    p.add_argument("--once", action="store_true",
                   help="batch mode: exit once every known job is "
                        "terminal and the spool is empty")
    p.add_argument("--status", action="store_true",
                   help="print queue/cache status from the journal "
                        "(no server needed) and exit")
    p.add_argument("--submit", default=None, metavar="FILE",
                   help="spool one job spec JSON file and exit "
                        "(see examples/jobspec.json)")
    p.add_argument("--submit-sweep", type=float, nargs="+", default=None,
                   metavar="RATE",
                   help="spool one job per rate built from the network/"
                        "traffic flags, and exit")
    p.add_argument("--label", default="",
                   help="label for --submit-sweep jobs")
    p.add_argument("--json", action="store_true",
                   help="machine-readable status output")
    _add_network_args(p)
    _add_traffic_args(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
