"""Command-line interface.

::

    python -m repro serve [--port P] [--i-ttl S] [--q-ttl S]
                          [--async | --threaded] [--shards N]
                          [--max-pipeline-buffer BYTES]
        Run an IQ-Twemcached server on a TCP port.  ``--async`` (the
        default) serves every connection from one event loop;
        ``--threaded`` uses the thread-per-connection reference
        transport.  ``--shards N`` (N > 1) instead launches a
        process-per-shard cluster: N supervised worker processes, each
        serving one shard of the consistent-hash ring, restarted on
        crash.  ``--max-pipeline-buffer`` caps the bytes of pipelined
        replies buffered per connection.  SIGINT/SIGTERM drain
        gracefully -- buffered replies are flushed before the listening
        sockets close.

    python -m repro figures
        Replay the paper's race-condition figures and print the outcomes.

    python -m repro bench --experiment table1|table6|table7|table8|
                                       figures|ablations
        Run a scaled evaluation experiment and print its table.

    python -m repro demo [--threads N] [--ops N] [--members M]
        Run the BG workload baseline-vs-IQ comparison.

    python -m repro metrics [--threads N] [--ops N] [--members M]
        Run a short BG workload and print the metrics registries in
        Prometheus text format.

    python -m repro trace [--out F] [--threads N] [--ops N] [--members M]
        Run a short audited BG workload, export its trace as JSONL, and
        print the IQ-invariant audit summary.

    python -m repro mc [--scenario NAME] [--list] [--max-states N]
                       [--fuzz N] [--fuzz-scenario NAME] [--seed S]
        Run the schedule-exploring model checker.  With no arguments it
        runs the acceptance sweep over the six figure pairs: every
        unleased baseline scenario must race (the minimal shrunk
        schedule is printed) and every IQ scenario must explore clean.
        ``--max-states`` caps explored states per scenario; ``--fuzz N``
        additionally samples N random schedules of ``--fuzz-scenario``.

    python -m repro ring add|remove|status [--shards N] [--keys K]
        Online shard rebalancing demo: build a sharded cluster (``N``
        initial shards, ``K`` seeded keys), migrate keys onto a joining
        shard (or off a leaving one) while reader threads hammer the
        router, and report stale-read counts (which must be zero) plus
        the resulting topology.

    python -m repro scenarios [--list] [--run NAME] [--sweep] [--smoke]
                              [--mode live|mc|both] [--technique T]
                              [--transport T] [--tag T] [--family F]
                              [--seed S] [--out F]
        The declarative scenario catalogue.  ``--list`` prints the
        committed entries (honouring the filter flags); ``--run NAME``
        executes one entry through the live system and/or the model
        checker; ``--sweep`` executes the filtered catalogue, and
        ``--smoke`` selects the smoke tier (smaller sizing *and* only
        smoke-tier entries) -- CI runs ``--sweep --smoke``.  Entries
        declaring both modes also get a live/mc parity check.  ``--out``
        writes the machine-readable reports as JSON.
"""

import argparse
import sys


def _cmd_serve(args):
    if args.shards > 1:
        return _serve_cluster(args)
    return _serve_single(args)


def _serve_single(args):
    import signal
    import threading

    from repro.config import LeaseConfig, NetConfig
    from repro.core.iq_server import IQServer
    from repro.net.server import server_class

    net_config = NetConfig()
    if args.max_pipeline_buffer is not None:
        net_config.max_pipeline_buffer = args.max_pipeline_buffer
    server = server_class(args.transport)(
        ("127.0.0.1", args.port),
        IQServer(lease_config=LeaseConfig(
            i_lease_ttl=args.i_ttl, q_lease_ttl=args.q_ttl,
        )),
        net_config=net_config,
    )
    print("IQ-Twemcached ({}) listening on 127.0.0.1:{}".format(
        args.transport, server.port
    ))
    print("Protocol: memcached ASCII + IQ extensions (see repro.net)")

    draining = threading.Event()

    def _drain(_signum=None, _frame=None):
        if draining.is_set():
            return
        draining.set()
        print("\ndraining connections and shutting down")
        # shutdown() blocks until serve_forever exits; it must not run
        # on the thread serve_forever occupies.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _drain()
        server.shutdown()
    finally:
        server.server_close()
    return 0


def _serve_cluster(args):
    import signal
    import threading

    from repro.config import NetConfig
    from repro.net.cluster import IQCluster

    net_config = NetConfig()
    if args.max_pipeline_buffer is not None:
        net_config.max_pipeline_buffer = args.max_pipeline_buffer
    cluster = IQCluster(
        shards=args.shards, transport=args.transport,
        net_config=net_config, i_ttl=args.i_ttl, q_ttl=args.q_ttl,
    )
    cluster.start()
    print("IQ-Twemcached cluster: {} shard processes ({})".format(
        args.shards, args.transport
    ))
    for proc in cluster.processes:
        print("  {:<8} pid {:<8} 127.0.0.1:{}".format(
            proc.name, proc.proc.pid, proc.port
        ))
    print("crashed shards are restarted on the same port; "
          "SIGINT/SIGTERM drains gracefully")

    stop = threading.Event()

    def _drain(_signum=None, _frame=None):
        stop.set()

    signal.signal(signal.SIGTERM, _drain)
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    print("\ndraining shard processes")
    cluster.stop(graceful=True)
    return 0


def _cmd_figures(_args):
    from repro.sim import run_all_figures

    failures = 0
    for outcome in run_all_figures():
        status = "consistent" if outcome.consistent else "STALE"
        print("{:<10} {:<21} rdbms={!r:<8} kvs={!r:<8} {}".format(
            outcome.figure, outcome.variant, outcome.rdbms_value,
            outcome.kvs_value, status,
        ))
        if outcome.variant.startswith("iq") and not outcome.consistent:
            failures += 1
    return 1 if failures else 0


def _cmd_demo(args):
    from repro.bg.actions import Technique
    from repro.bg.harness import build_bg_system
    from repro.bg.workload import HIGH_WRITE_MIX

    for leased in (False, True):
        system = build_bg_system(
            members=args.members, friends_per_member=6,
            resources_per_member=2, technique=Technique.REFRESH,
            leased=leased, mix=HIGH_WRITE_MIX,
            compute_delay=0.001, write_delay=0.001,
        )
        result = system.runner.run(
            threads=args.threads, ops_per_thread=args.ops
        )
        label = "IQ-Twemcached" if leased else "Twemcache baseline"
        print("{:<20} {:.0f} actions/s, unpredictable reads: {:.3f}%".format(
            label, result.throughput, result.unpredictable_percentage,
        ))
    return 0


def _cmd_metrics(args):
    from repro.bg.actions import Technique
    from repro.bg.harness import build_bg_system
    from repro.bg.workload import HIGH_WRITE_MIX

    system = build_bg_system(
        members=args.members, friends_per_member=6, resources_per_member=2,
        technique=Technique.INVALIDATE, mix=HIGH_WRITE_MIX,
    )
    system.runner.run(threads=args.threads, ops_per_thread=args.ops)
    # The server's cache counters and the consistency client's degraded
    # counters live in separate registries (one stats domain per server,
    # like a memcached process); render both.
    print(system.cache.stats.registry.render_prometheus(), end="")
    print(system.consistency_client.metrics.render_prometheus(), end="")
    # The engine counts in plain ints under its latch; mirror them into a
    # registry only here, at export time.
    from repro.obs.registry import MetricsRegistry

    sql = MetricsRegistry()
    for name, value in system.db.stats().items():
        sql.gauge("sql_" + name).set(value)
    print(sql.render_prometheus(), end="")
    return 0


def _cmd_trace(args):
    from repro.bg.actions import Technique
    from repro.bg.harness import build_bg_system
    from repro.bg.workload import HIGH_WRITE_MIX
    from repro.obs import IQAuditor, JSONLRecorder
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    recorder = JSONLRecorder(args.out)
    previous = tracer.set_recorder(recorder)
    auditor = IQAuditor().attach(tracer)
    try:
        system = build_bg_system(
            members=args.members, friends_per_member=6,
            resources_per_member=2, technique=Technique.INVALIDATE,
            mix=HIGH_WRITE_MIX,
        )
        system.runner.run(threads=args.threads, ops_per_thread=args.ops)
    finally:
        auditor.detach(tracer)
        tracer.set_recorder(previous)
        recorder.close()
    report = auditor.report()
    print("{} events -> {}".format(recorder.seen, args.out))
    print(report.summary())
    return 0 if report.clean else 1


def _run_mc_scenario(scenario, max_states, shrink_violations=True):
    from repro.mc import emit_script, explore, shrink

    report = explore(scenario, max_states=max_states)
    print(report.summary())
    expected = scenario.expect_violation
    if report.truncated:
        print("  state budget exhausted; raise --max-states")
        return False
    if report.violation_count == 0:
        if expected:
            print("  EXPECTED a violation (rejected/buggy semantics) but "
                  "the space explored clean")
        return not expected
    if not expected:
        for violation in report.violations[:3]:
            for message in violation.messages:
                print("  {}".format(message))
        return False
    if shrink_violations:
        result = shrink(scenario, report.violations[0].schedule)
        print(emit_script(result))
    return True


def _cmd_mc(args):
    from repro.mc import FIGURE_PAIRS, fuzz, get_scenario, scenario_names

    if args.list:
        from repro.mc import SCENARIOS

        for name in scenario_names():
            scenario = SCENARIOS[name]
            marker = "races" if scenario.expect_violation else "clean"
            print("{:<24} [{}] {:<21} {}".format(
                name, marker,
                "technique:{}".format(scenario.technique),
                scenario.description,
            ))
        return 0

    ok = True
    if args.scenario:
        names = [args.scenario]
    else:
        names = [name for pair in FIGURE_PAIRS for name in pair]
    for name in names:
        if not _run_mc_scenario(get_scenario(name), args.max_states):
            ok = False

    if args.fuzz:
        target = get_scenario(args.fuzz_scenario)
        report = fuzz(target, runs=args.fuzz, seed=args.seed)
        print(report.summary())
        if not report.ok:
            print(report.artifact())
            ok = False

    print("model checker: {}".format("OK" if ok else "FAILED"))
    return 0 if ok else 1


def _build_ring_cluster(shards, keys):
    from repro.core.iq_server import IQServer
    from repro.sharding import ShardedIQServer

    router = ShardedIQServer(
        [IQServer() for _ in range(shards)]
    )
    expected = {}
    for i in range(keys):
        key = "key{}".format(i)
        value = "value-{}".format(i).encode()
        router.shard_for(key).store.set(key, value)
        expected[key] = value
    return router, expected


def _print_ring_status(router, expected):
    spread = router.ring.view().spread(expected)
    print("epoch {}  shards {}".format(
        router.epoch, ",".join(router.shard_names)
    ))
    for name in router.shard_names:
        print("  {:<8} {:>5} keys".format(name, spread.get(name, 0)))


def _migrate_under_load(router, expected, mutate):
    """Run ``mutate`` while readers hammer the router; count stale reads."""
    import threading

    from repro.sharding import Rebalancer

    stop = threading.Event()
    stale = []

    def reader():
        keys = sorted(expected)
        index = 0
        while not stop.is_set():
            key = keys[index % len(keys)]
            index += 1
            result = router.iq_get(key)
            if result.backoff:
                continue
            if result.value is None:
                if result.token is not None:
                    # A genuine miss mid-migration: fill the expected
                    # value, exactly as a cache-augmented app would.
                    router.iq_set(key, expected[key], result.token)
            elif result.value != expected[key]:
                stale.append((key, result.value))

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        report = mutate(Rebalancer(router))
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    return report, stale


def _cmd_ring(args):
    from repro.core.iq_server import IQServer

    router, expected = _build_ring_cluster(args.shards, args.keys)
    if args.ring_action == "status":
        _print_ring_status(router, expected)
        return 0

    if args.ring_action == "add":
        name = "shard{}".format(args.shards)
        report, stale = _migrate_under_load(
            router, expected,
            lambda rebalancer: rebalancer.add_shard(name, IQServer()),
        )
    else:  # remove
        name = router.shard_names[-1]
        report, stale = _migrate_under_load(
            router, expected,
            lambda rebalancer: rebalancer.remove_shard(name),
        )
        router.detach_shard(name)

    print(report.summary())
    _print_ring_status(router, expected)
    wrong = []
    for key, value in expected.items():
        hit = router.shard_for(key).store.get(key)
        if hit is not None and hit[0] != value:
            wrong.append(key)
    print("stale reads during migration: {}".format(len(stale)))
    print("stale cached values after migration: {}".format(len(wrong)))
    ok = report.completed and not stale and not wrong
    print("ring {}: {}".format(args.ring_action, "OK" if ok else "FAILED"))
    return 0 if ok else 1


def _cmd_bench(args):
    import importlib
    import os

    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )), "benchmarks"),
    )
    modules = {
        "table1": "bench_table1_stale",
        "table6": "bench_table6_restarts",
        "table7": "bench_table7_stale_by_graph",
        "table8": "bench_table8_soar",
        "figures": "bench_figures_races",
        "ablations": "bench_ablations",
    }
    name = modules[args.experiment]
    try:
        module = importlib.import_module(name)
    except ImportError:
        print("benchmark module {!r} not found; run from a source "
              "checkout (benchmarks/ directory required)".format(name))
        return 2
    # Each bench module is runnable as a script via its __main__ block;
    # execute the same path here.
    import runpy

    runpy.run_module(name, run_name="__main__")
    return 0


def _cmd_scenarios(args):
    import json

    from repro.scenarios import by_name, filter_catalogue, run_live, run_mc

    filters = dict(
        technique=args.technique, transport=args.transport, tag=args.tag,
        family=args.family,
    )
    if args.list:
        for spec in filter_catalogue(**filters):
            print("{:<30} {:<10} {:<8} {:<24} [{}] {}".format(
                spec.name, spec.technique, spec.transport,
                spec.workload_label(), ",".join(spec.modes),
                spec.description.split("\n")[0],
            ))
        return 0

    if args.run:
        specs = [by_name(args.run)]
        tier = "smoke" if args.smoke else "sweep"
    elif args.sweep or args.smoke:
        tier = "smoke" if args.smoke else "sweep"
        specs = filter_catalogue(tier=tier, **filters)
    else:
        print("give one of --list, --run NAME, or --sweep "
              "(see repro scenarios --help)")
        return 2

    reports = []
    failures = 0
    for spec in specs:
        by_mode = {}
        for mode in spec.modes:
            if args.mode != "both" and mode != args.mode:
                continue
            run = run_live if mode == "live" else run_mc
            report = run(spec, sizing=tier, seed=args.seed)
            print(report.summary())
            reports.append(report)
            by_mode[mode] = report
            if not report.ok:
                failures += 1
        # A spec executing through both paths must reach one verdict.
        if len(by_mode) == 2:
            agree = by_mode["live"].ok == by_mode["mc"].ok
            print("  parity: live/mc verdicts {}".format(
                "agree" if agree else "DISAGREE"
            ))
            if not agree:
                failures += 1

    if args.out:
        with open(args.out, "w") as handle:
            json.dump([r.to_dict() for r in reports], handle, indent=2,
                      sort_keys=True)
        print("wrote {} report(s) -> {}".format(len(reports), args.out))
    print("scenarios: {} report(s), {}".format(
        len(reports),
        "all clean" if failures == 0 else "{} FAILED".format(failures),
    ))
    return 0 if failures == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IQ framework reproduction: strong consistency in "
                    "cache-augmented SQL systems (Middleware 2014).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run an IQ-Twemcached TCP server")
    serve.add_argument("--port", type=int, default=11211)
    serve.add_argument("--i-ttl", type=float, default=10.0,
                       help="I lease lifetime, seconds")
    serve.add_argument("--q-ttl", type=float, default=10.0,
                       help="Q lease lifetime, seconds")
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--async", dest="transport", action="store_const", const="async",
        help="event-loop transport: one thread, every connection (default)",
    )
    transport.add_argument(
        "--threaded", dest="transport", action="store_const",
        const="threaded",
        help="thread-per-connection reference transport",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="N > 1 launches a process-per-shard cluster (default 1)",
    )
    serve.add_argument(
        "--max-pipeline-buffer", type=int, default=None,
        help="per-connection cap on buffered pipelined bytes",
    )
    serve.set_defaults(func=_cmd_serve, transport="async")

    figures = sub.add_parser(
        "figures", help="replay the paper's race-condition figures"
    )
    figures.set_defaults(func=_cmd_figures)

    demo = sub.add_parser(
        "demo", help="BG workload: baseline vs IQ stale percentages"
    )
    demo.add_argument("--threads", type=int, default=8)
    demo.add_argument("--ops", type=int, default=100)
    demo.add_argument("--members", type=int, default=100)
    demo.set_defaults(func=_cmd_demo)

    metrics = sub.add_parser(
        "metrics", help="run a short workload; print Prometheus metrics"
    )
    metrics.add_argument("--threads", type=int, default=4)
    metrics.add_argument("--ops", type=int, default=50)
    metrics.add_argument("--members", type=int, default=100)
    metrics.set_defaults(func=_cmd_metrics)

    trace = sub.add_parser(
        "trace", help="run a short audited workload; export JSONL trace"
    )
    trace.add_argument("--out", default="trace.jsonl",
                       help="JSONL output path (default trace.jsonl)")
    trace.add_argument("--threads", type=int, default=4)
    trace.add_argument("--ops", type=int, default=50)
    trace.add_argument("--members", type=int, default=100)
    trace.set_defaults(func=_cmd_trace)

    mc = sub.add_parser(
        "mc", help="run the schedule-exploring model checker"
    )
    mc.add_argument("--scenario", default=None,
                    help="explore one scenario instead of the figure sweep")
    mc.add_argument("--list", action="store_true",
                    help="list the scenario catalogue and exit")
    mc.add_argument("--max-states", type=int, default=500000,
                    help="cap on explored states per scenario")
    mc.add_argument("--fuzz", type=int, default=0, metavar="N",
                    help="additionally fuzz N random schedules")
    mc.add_argument("--fuzz-scenario", default="fuzz-sharded-fault",
                    help="scenario the fuzzer samples")
    mc.add_argument("--seed", type=int, default=0,
                    help="fuzzer base seed")
    mc.set_defaults(func=_cmd_mc)

    ring = sub.add_parser(
        "ring", help="online shard rebalancing demo (add/remove/status)"
    )
    ring_sub = ring.add_subparsers(dest="ring_action", required=True)
    for action, text in (
        ("status", "build a sharded cluster and print its topology"),
        ("add", "migrate onto a joining shard under live read load"),
        ("remove", "drain a leaving shard under live read load"),
    ):
        ring_action = ring_sub.add_parser(action, help=text)
        ring_action.add_argument("--shards", type=int, default=2,
                                 help="initial shard count")
        ring_action.add_argument("--keys", type=int, default=200,
                                 help="seeded key population")
        ring_action.set_defaults(func=_cmd_ring)

    bench = sub.add_parser("bench", help="run one evaluation experiment")
    bench.add_argument(
        "--experiment", required=True,
        choices=["table1", "table6", "table7", "table8", "figures",
                 "ablations"],
    )
    bench.set_defaults(func=_cmd_bench)

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative scenario catalogue: list, run, sweep",
    )
    scenarios.add_argument("--list", action="store_true",
                           help="print the (filtered) catalogue and exit")
    scenarios.add_argument("--run", metavar="NAME", default=None,
                           help="execute one catalogue entry")
    scenarios.add_argument("--sweep", action="store_true",
                           help="execute the filtered catalogue")
    scenarios.add_argument(
        "--smoke", action="store_true",
        help="smoke tier: smaller sizing and smoke-tier entries only",
    )
    scenarios.add_argument("--mode", choices=["live", "mc", "both"],
                           default="both",
                           help="execution path(s) (default both)")
    scenarios.add_argument(
        "--technique", default=None,
        choices=["invalidate", "refresh", "delta", "clock"],
        help="only entries using this consistency technique",
    )
    scenarios.add_argument(
        "--transport", default=None,
        choices=["inproc", "threaded", "async"],
        help="only entries on this transport",
    )
    scenarios.add_argument("--tag", default=None,
                           help="only entries carrying this tag")
    scenarios.add_argument(
        "--family", default=None,
        choices=["flash-crowd", "thundering-herd", "multi-tenant",
                 "zipf-sweep"],
        help="only entries of this workload family",
    )
    scenarios.add_argument("--seed", type=int, default=13,
                           help="workload seed (default 13)")
    scenarios.add_argument("--out", default=None, metavar="F",
                           help="write the reports as JSON to F")
    scenarios.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
