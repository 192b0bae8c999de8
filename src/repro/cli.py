"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — write a random Steinbrunn-style query to a JSON file;
* ``optimize`` — optimize a JSON query with MPQ and print the chosen plan
  (or Pareto frontier) plus the cluster accounting the paper reports;
* ``serve-batch`` — run a batch of query files through the
  :class:`~repro.service.OptimizerService` (plan cache + warm worker pool)
  and report per-query plans plus cache statistics; with ``--shards N``
  (N > 1) the batch is served by a
  :class:`~repro.service.ShardedOptimizerGateway` — fingerprint-range
  routing to N independent shards, driven by ``--gateway-threads`` request
  handlers, with in-flight coalescing and aggregated gateway statistics;
  with ``--async`` the batch is submitted concurrently through the
  :class:`~repro.service.AsyncOptimizerGateway` front-end (adaptive
  micro-batching bounded by ``--batch-window-ms``/``--max-batch``,
  admission control bounded by ``--max-pending``) and the report adds
  queue/batching/rejection statistics;
  with ``--cache-dir DIR`` each shard's plan cache gains a persistent disk
  tier (append-only log ``DIR/shard-N.log``), so a later invocation with
  the same directory serves previously-seen queries from disk without
  re-optimizing — warm-restart serving;
  with ``--connect ADDR[,ADDR...]`` the batch is instead routed to
  out-of-process shard servers through the
  :class:`~repro.service.NetworkOptimizerGateway` (consistent-hash
  fingerprint routing, per-shard circuit breakers);
* ``shard-server`` — run one optimizer shard as a long-lived server
  process speaking the length-prefixed frame protocol on a unix socket or
  TCP port; N of these behind a ``--connect`` router are the
  out-of-process deployment shape (each owns its worker pool and, with
  ``--cache-dir``, its own single-writer disk cache log);
* ``shard-fleet`` — run a supervised fleet of N shard servers behind one
  command: the :class:`~repro.service.ShardFleet` supervisor spawns the
  processes on unix sockets under ``--socket-dir``, restarts crashed ones
  with exponential backoff, mirrors the live endpoint map to
  ``--socket-dir/membership.json`` after every change, and (as a library,
  via :meth:`~repro.service.ShardFleet.add_shard` /
  :meth:`~repro.service.ShardFleet.remove_shard`) rebalances the ring live
  by shipping moved keys' cache entries to their new owner first;
* ``cache`` — inspect and manage those persistent plan-cache logs:
  ``inspect`` (entries and their provenance records), ``export`` (write a
  compacted snapshot shippable to another shard or machine), ``import``
  (merge a snapshot into a log), and ``invalidate`` (selectively retire
  entries by provenance predicate — backend, registry generation, creation
  time, settings signature — without touching other entries);
* ``backends`` — print the registered enumeration backends and their
  declared capability matrix (what ``--backend auto`` chooses from).

Examples::

    python -m repro generate --tables 10 --kind star -o query.json
    python -m repro optimize query.json --workers 16
    python -m repro optimize query.json --space bushy --workers 8
    python -m repro optimize query.json --objectives time,buffer --alpha 10
    python -m repro optimize query.json --orders --backend legacy
    python -m repro serve-batch q1.json q2.json --workers 8 --repeat 3
    python -m repro serve-batch q*.json --pool persistent --json
    python -m repro serve-batch q*.json --shards 4 --gateway-threads 8
    python -m repro serve-batch q*.json --shards 4 --async --batch-window-ms 2
    python -m repro serve-batch q*.json --shards 4 --cache-dir /var/cache/mpq
    python -m repro shard-server --listen unix:/run/mpq/shard-0.sock --shard-id 0
    python -m repro shard-server --listen 127.0.0.1:7401 --cache-dir /var/cache/mpq
    python -m repro shard-fleet --shards 3 --socket-dir /run/mpq --cache-dir /var/cache/mpq
    python -m repro serve-batch q*.json --connect unix:/run/mpq/shard-0.sock,unix:/run/mpq/shard-1.sock
    python -m repro serve-batch q*.json --connect unix:/run/mpq/shard-0.sock --hedge-after-ms 50
    python -m repro cache inspect /var/cache/mpq/shard-*.log
    python -m repro cache export /var/cache/mpq/shard-0.log -o snapshot.log
    python -m repro cache import snapshot.log --into /var/cache/mpq/shard-0.log
    python -m repro cache invalidate /var/cache/mpq/*.log --backend fastdp --below-generation 7
    python -m repro backends --json
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.algorithms.mpq import optimize_mpq
from repro.config import Backend, Objective, OptimizerSettings, PlanSpace
from repro.query.generator import SteinbrunnGenerator
from repro.query.io import load_query, plan_to_dict, save_query
from repro.query.query import JoinGraphKind


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MPQ — massively parallel query optimization "
        "(Trummer & Koch, VLDB 2016).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a random query")
    generate.add_argument("--tables", type=int, default=8)
    generate.add_argument(
        "--kind",
        choices=[kind.value for kind in JoinGraphKind],
        default=JoinGraphKind.STAR.value,
    )
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", required=True, help="output JSON file")

    optimize = commands.add_parser("optimize", help="optimize a JSON or SQL query")
    optimize.add_argument(
        "query", nargs="?", default=None, help="query JSON file"
    )
    optimize.add_argument(
        "--sql",
        default=None,
        help="SPJ SQL text (requires --catalog) instead of a query file",
    )
    optimize.add_argument(
        "--catalog", default=None, help="catalog JSON file for --sql"
    )
    optimize.add_argument("--workers", type=int, default=1)
    optimize.add_argument(
        "--space",
        choices=[space.value for space in PlanSpace],
        default=PlanSpace.LINEAR.value,
    )
    optimize.add_argument(
        "--objectives",
        default="time",
        help="comma-separated cost metrics: time[,buffer]",
    )
    optimize.add_argument("--alpha", type=float, default=1.0)
    optimize.add_argument(
        "--orders", action="store_true", help="track interesting orders"
    )
    optimize.add_argument(
        "--backend",
        choices=[backend.value for backend in Backend],
        default=Backend.AUTO.value,
        help="enumeration core: auto (fastest capable and available, "
        "default), the legacy object DP, the fastdp bitset core, or the "
        "vecdp array core (needs numpy)",
    )
    optimize.add_argument(
        "--parametric",
        action="store_true",
        help="optimize over the parameter theta in [0,1] weighting the two "
        "objectives; returns the full lower-envelope frontier unless "
        "--theta picks one point",
    )
    optimize.add_argument(
        "--theta",
        type=float,
        default=None,
        metavar="T",
        help="bind the parametric request at this theta (requires "
        "--parametric); served from a cached envelope when one exists",
    )
    optimize.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    serve = commands.add_parser(
        "serve-batch",
        help="optimize a batch of query files through the caching service",
    )
    serve.add_argument("queries", nargs="+", help="query JSON files")
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="upper bound on partitions per cache miss, capped by the "
        "executor's slots: 1 for --pool serial, the pool size (also "
        "--workers) for --pool persistent; not part of the cache key",
    )
    serve.add_argument(
        "--space",
        choices=[space.value for space in PlanSpace],
        default=PlanSpace.LINEAR.value,
    )
    serve.add_argument(
        "--objectives",
        default="time",
        help="comma-separated cost metrics: time[,buffer]",
    )
    serve.add_argument("--alpha", type=float, default=1.0)
    serve.add_argument(
        "--orders", action="store_true", help="track interesting orders"
    )
    serve.add_argument(
        "--backend",
        choices=[backend.value for backend in Backend],
        default=Backend.AUTO.value,
        help="enumeration core: auto (fastest capable and available, "
        "default), the legacy object DP, the fastdp bitset core, or the "
        "vecdp array core (needs numpy)",
    )
    serve.add_argument(
        "--parametric",
        action="store_true",
        help="optimize over the parameter theta in [0,1] weighting the two "
        "objectives; returns the full lower-envelope frontier unless "
        "--theta picks one point",
    )
    serve.add_argument(
        "--theta",
        type=float,
        default=None,
        metavar="T",
        help="bind the parametric request at this theta (requires "
        "--parametric); served from a cached envelope when one exists",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="serve the batch this many times (later rounds hit the cache)",
    )
    serve.add_argument(
        "--pool",
        choices=("serial", "persistent"),
        default="serial",
        help="partition executor: in-process serial, or a warm process pool",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity"
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory of persistent plan-cache logs (one shard-N.log per "
        "shard); entries survive into later invocations with the same "
        "directory and are served from disk instead of re-optimized",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve through a sharded gateway with this many independent "
        "OptimizerService shards (1 = a single service, the default)",
    )
    serve.add_argument(
        "--gateway-threads",
        type=int,
        default=None,
        help="request-handler threads driving the gateway's per-shard "
        "sub-batches (default: one per shard; requires --shards > 1)",
    )
    serve.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve the batch through the asyncio front-end "
        "(AsyncOptimizerGateway): requests are submitted concurrently, "
        "misses micro-batched, and admission control enforced",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=None,
        help="async batching window upper bound in milliseconds "
        "(requires --async; default 2.0)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="flush an async micro-batch early at this many unique "
        "fingerprints (requires --async; default 16)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="async admission-control bound on outstanding requests; "
        "beyond it requests are rejected with a retry-after "
        "(requires --async; default 256)",
    )
    serve.add_argument(
        "--connect",
        default=None,
        metavar="ADDR[,ADDR...]",
        help="route the batch to running shard servers at these endpoints "
        "(unix:/path or host:port, comma-separated) through the "
        "consistent-hash network gateway instead of optimizing in-process",
    )
    serve.add_argument(
        "--hedge-after-ms",
        type=float,
        default=0.0,
        help="with --connect: fire a duplicate request at the next ring "
        "owner when the primary shard has not answered within this floor "
        "(scaled up by its latency EWMA), or refuses it sooner "
        "(overloaded, draining, unreachable); first usable response wins. "
        "0 (default) disables hedging",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    shard_server = commands.add_parser(
        "shard-server",
        help="serve one optimizer shard over a unix socket or TCP port",
    )
    shard_server.add_argument(
        "--listen",
        required=True,
        help="endpoint to bind: unix:/path/to.sock or host:port",
    )
    shard_server.add_argument(
        "--shard-id",
        type=int,
        default=0,
        help="this shard's number (names its cache log and hello frame)",
    )
    shard_server.add_argument(
        "--workers",
        type=int,
        default=4,
        help="upper bound on partitions per cache miss, capped by the "
        "executor's slots (1: a shard runs partitions in process); "
        "not part of the cache key",
    )
    shard_server.add_argument(
        "--space",
        choices=[space.value for space in PlanSpace],
        default=PlanSpace.LINEAR.value,
    )
    shard_server.add_argument(
        "--objectives",
        default="time",
        help="comma-separated cost metrics: time[,buffer]",
    )
    shard_server.add_argument("--alpha", type=float, default=1.0)
    shard_server.add_argument(
        "--orders", action="store_true", help="track interesting orders"
    )
    shard_server.add_argument(
        "--backend",
        choices=[backend.value for backend in Backend],
        default=Backend.AUTO.value,
        help="enumeration core: auto (fastest capable and available, "
        "default), the legacy object DP, the fastdp bitset core, or the "
        "vecdp array core (needs numpy)",
    )
    shard_server.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity"
    )
    shard_server.add_argument(
        "--cache-dir",
        default=None,
        help="directory for this shard's persistent cache log "
        "(shard-<id>.log; single-writer, flock-protected)",
    )
    shard_server.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="admission bound on concurrently running optimizations; "
        "beyond it requests are rejected 'overloaded' with a retry-after",
    )
    shard_server.add_argument(
        "--handler-threads",
        type=int,
        default=None,
        help="blocking-optimization thread pool size "
        "(default: --max-in-flight)",
    )
    shard_server.add_argument(
        "--inject-latency-ms",
        type=float,
        default=0.0,
        help="fault injection for tests/benchmarks: sleep this long before "
        "every optimization, simulating a degraded shard (default 0: off)",
    )

    shard_fleet = commands.add_parser(
        "shard-fleet",
        help="run a supervised fleet of shard servers on unix sockets",
    )
    shard_fleet.add_argument(
        "--shards", type=int, default=3, help="initial shard count"
    )
    shard_fleet.add_argument(
        "--socket-dir",
        required=True,
        help="directory for the fleet's unix sockets and membership.json",
    )
    shard_fleet.add_argument(
        "--cache-dir",
        default=None,
        help="directory for per-shard persistent cache logs (shard-<i>.log); "
        "also what lets a restarted shard come back warm",
    )
    shard_fleet.add_argument(
        "--workers",
        type=int,
        default=4,
        help="forwarded to every shard-server: an upper bound on partitions "
        "per cache miss, capped by the executor's slots (1 on a shard)",
    )
    shard_fleet.add_argument(
        "--cache-size", type=int, default=256, help="plan-cache capacity per shard"
    )
    shard_fleet.add_argument(
        "--max-in-flight",
        type=int,
        default=16,
        help="per-shard admission bound on concurrently running optimizations",
    )
    shard_fleet.add_argument(
        "--health-interval-ms",
        type=float,
        default=200.0,
        help="supervisor liveness-poll cadence",
    )
    shard_fleet.add_argument(
        "--log-dir",
        default=None,
        help="append each shard's stdout/stderr to <log-dir>/<name>.log "
        "(default: inherit the supervisor's stderr)",
    )

    cache = commands.add_parser(
        "cache",
        help="inspect and manage persistent plan-cache logs",
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)

    inspect = cache_commands.add_parser(
        "inspect", help="list a log's entries and their provenance records"
    )
    inspect.add_argument("logs", nargs="+", help="plan-cache log files")
    inspect.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    export = cache_commands.add_parser(
        "export",
        help="write a compacted snapshot of a log's live entries "
        "(openable as a log on another shard, or imported into one)",
    )
    export.add_argument("log", help="plan-cache log file")
    export.add_argument("-o", "--output", required=True, help="snapshot file")

    cache_import = cache_commands.add_parser(
        "import", help="merge a snapshot's entries into a log"
    )
    cache_import.add_argument("snapshot", help="snapshot (or log) file to read")
    cache_import.add_argument(
        "--into", required=True, help="plan-cache log to merge into"
    )
    cache_import.add_argument(
        "--keep-existing",
        action="store_true",
        help="keep entries already in the target when keys collide "
        "(default: the snapshot wins)",
    )

    invalidate = cache_commands.add_parser(
        "invalidate",
        help="retire entries matching a provenance predicate (all supplied "
        "conditions must hold); other entries keep serving",
    )
    invalidate.add_argument("logs", nargs="+", help="plan-cache log files")
    invalidate.add_argument(
        "--backend", default=None, help="match entries produced by this backend"
    )
    invalidate.add_argument(
        "--below-generation",
        type=int,
        default=None,
        help="match entries created below this backend-registry generation",
    )
    invalidate.add_argument(
        "--created-before",
        type=float,
        default=None,
        help="match entries created before this Unix timestamp",
    )
    invalidate.add_argument(
        "--settings-signature",
        default=None,
        help="match entries with this resolved settings signature",
    )
    invalidate.add_argument(
        "--all",
        dest="match_all",
        action="store_true",
        help="flush every entry (required spelling for the unconditional "
        "predicate; conditions above cannot be combined with it)",
    )
    invalidate.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    backends = commands.add_parser(
        "backends",
        help="list registered enumeration backends and their capabilities",
    )
    backends.add_argument(
        "--require",
        default=None,
        metavar="NAME",
        help="exit non-zero unless backend NAME is registered and available "
        "(deployment preflight check)",
    )
    backends.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    return parser


def _settings_from_args(args: argparse.Namespace) -> OptimizerSettings:
    objectives = []
    for token in args.objectives.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            objectives.append(Objective(token))
        except ValueError:
            raise SystemExit(
                f"unknown objective {token!r}; choose from "
                f"{[o.value for o in Objective]}"
            )
    theta = getattr(args, "theta", None)
    parametric = getattr(args, "parametric", False)
    if theta is not None and not parametric:
        raise SystemExit("--theta requires --parametric")
    if parametric and len(objectives) != 2:
        raise SystemExit(
            "--parametric needs exactly two objectives "
            "(e.g. --objectives time,buffer)"
        )
    return OptimizerSettings(
        plan_space=PlanSpace(args.space),
        objectives=tuple(objectives),
        alpha=args.alpha,
        consider_orders=args.orders,
        backend=Backend(args.backend),
        parametric=parametric,
        theta=theta,
    )


def _run_generate(args: argparse.Namespace) -> int:
    query = SteinbrunnGenerator(args.seed).query(
        args.tables, JoinGraphKind(args.kind)
    )
    save_query(query, args.output)
    print(f"wrote {query.name} ({args.tables} tables) to {args.output}")
    return 0


def _load_query_from_args(args: argparse.Namespace):
    if args.sql is not None:
        if args.catalog is None:
            raise SystemExit("--sql requires --catalog")
        from repro.query.io import load_catalog
        from repro.query.sql import parse_sql

        return parse_sql(args.sql, load_catalog(args.catalog))
    if args.query is None:
        raise SystemExit("provide a query JSON file or --sql with --catalog")
    return load_query(args.query)


def _run_optimize(args: argparse.Namespace) -> int:
    query = _load_query_from_args(args)
    settings = _settings_from_args(args)
    report = optimize_mpq(query, args.workers, settings)
    names = tuple(table.name for table in query.tables)
    if args.json:
        payload = {
            "query": query.name,
            "partitions": report.n_partitions,
            "backend_used": report.backend_used,
            "simulated_time_ms": report.simulated_time_ms,
            "network_bytes": report.network_bytes,
            "max_worker_memory_relations": report.max_worker_memory_relations,
            "plans": [plan_to_dict(plan, names) for plan in report.plans],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"query: {query.name} ({query.n_tables} tables)")
    print(
        f"partitions: {report.n_partitions} "
        f"(requested {args.workers} workers, {settings.plan_space} space)"
    )
    print(f"backend: {report.backend_used} (requested {args.backend})")
    print(f"simulated time: {report.simulated_time_ms:.2f} ms")
    print(f"network: {report.network_bytes:,} bytes")
    print(f"max worker memory: {report.max_worker_memory_relations} relations")
    if settings.is_multi_objective:
        print(f"pareto frontier: {len(report.plans)} plans (alpha={args.alpha})")
    print()
    print(report.best.pretty(names))
    print(f"\nbest cost: {tuple(report.best.cost)}")
    return 0


def _stats_dict(stats) -> dict:
    """JSON-ready cache counters via the stats object's own ``to_dict``.

    Every stats type (``CacheStats``, ``TieredStats``) serializes itself;
    hand-picking dataclass fields here is what once crashed ``--json`` on
    non-serializable members.  The ``getattr`` fallback keeps hand-rolled
    stats doubles in tests working.
    """
    to_dict = getattr(stats, "to_dict", None)
    if to_dict is not None:
        return to_dict()
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "evictions": stats.evictions,
        "lookups": stats.hits + stats.misses,
        "hit_rate": stats.hit_rate,
    }


def _tier_totals(gateway_stats) -> dict | None:
    """Tier counters summed over a gateway's shards, or ``None`` untiered.

    ``GatewayStats`` aggregates only the protocol-level hit/miss/eviction
    counters; when the shards carry tiered caches (``--cache-dir``), the
    memory/disk breakdown still matters at the top level — a warm restart
    is visible as disk hits, not as generic hits.
    """
    if gateway_stats is None:
        return None
    caches = [shard.cache for shard in gateway_stats.shards]
    if not any(hasattr(cache, "disk_hits") for cache in caches):
        return None
    names = (
        "memory_hits",
        "disk_hits",
        "promotions",
        "demotions",
        "disk_writes",
        "invalidated",
    )
    return {
        name: sum(getattr(cache, name, 0) for cache in caches)
        for name in names
    }


def _run_serve_batch(args: argparse.Namespace) -> int:
    import time

    from repro.cluster.executors import PersistentProcessPoolExecutor
    from repro.service import OptimizerService, ShardedOptimizerGateway

    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    if args.gateway_threads is not None and args.shards < 2:
        raise SystemExit("--gateway-threads requires --shards > 1")
    if args.connect is not None:
        if args.shards > 1 or args.use_async or args.cache_dir is not None:
            raise SystemExit(
                "--connect routes to remote shard servers; "
                "--shards/--async/--cache-dir are server-side options"
            )
        return _run_serve_batch_remote(args)
    if not args.use_async and any(
        value is not None
        for value in (args.batch_window_ms, args.max_batch, args.max_pending)
    ):
        raise SystemExit(
            "--batch-window-ms/--max-batch/--max-pending require --async"
        )
    batch_window_ms = args.batch_window_ms if args.batch_window_ms is not None else 2.0
    max_batch = args.max_batch if args.max_batch is not None else 16
    max_pending = args.max_pending if args.max_pending is not None else 256
    settings = _settings_from_args(args)
    queries = [load_query(path) for path in args.queries]
    cache_factory = None
    if args.cache_dir is not None:
        from pathlib import Path

        from repro.service import DiskTier, TieredPlanCache

        cache_dir = Path(args.cache_dir)

        def cache_factory(index: int) -> "TieredPlanCache":
            return TieredPlanCache(
                memory_capacity=args.cache_size,
                disk=DiskTier(cache_dir / f"shard-{index}.log"),
            )

    rounds = []
    gateway_stats = None
    async_stats = None
    if args.use_async:
        import asyncio

        from repro.service import AsyncOptimizerGateway, GatewayOverloadedError

        executor_factory = (
            (lambda: PersistentProcessPoolExecutor(max_workers=args.workers))
            if args.pool == "persistent"
            else None
        )

        async def submit(front, query):
            for __ in range(1000):
                try:
                    return await front.optimize(query, tenant="cli")
                except GatewayOverloadedError as rejection:
                    await asyncio.sleep(rejection.retry_after_s)
            raise SystemExit("async gateway kept rejecting; raise --max-pending")

        async def run_rounds():
            async with AsyncOptimizerGateway(
                n_shards=args.shards,
                n_workers=args.workers,
                settings=settings,
                executor_factory=executor_factory,
                cache_capacity=args.cache_size,
                cache_factory=cache_factory,
                gateway_threads=args.gateway_threads,
                batch_window_ms=batch_window_ms,
                max_batch=max_batch,
                max_pending=max_pending,
                # The CLI is a single tenant; a fairness share would
                # silently halve --max-pending for it.
                tenant_share=1.0,
            ) as front:
                collected = []
                for __ in range(max(1, args.repeat)):
                    started = time.perf_counter()
                    results = await asyncio.gather(
                        *[submit(front, query) for query in queries]
                    )
                    collected.append((time.perf_counter() - started, list(results)))
                return collected, front.stats()

        rounds, async_stats = asyncio.run(run_rounds())
        gateway_stats = async_stats.gateway
        stats = gateway_stats
    elif args.shards > 1:
        executor_factory = (
            (lambda: PersistentProcessPoolExecutor(max_workers=args.workers))
            if args.pool == "persistent"
            else None
        )
        with ShardedOptimizerGateway(
            n_shards=args.shards,
            n_workers=args.workers,
            settings=settings,
            executor_factory=executor_factory,
            cache_capacity=args.cache_size,
            cache_factory=cache_factory,
            gateway_threads=args.gateway_threads,
        ) as gateway:
            for __ in range(max(1, args.repeat)):
                started = time.perf_counter()
                results = gateway.optimize_batch(queries)
                rounds.append((time.perf_counter() - started, results))
            gateway_stats = gateway.stats()
        stats = gateway_stats  # aggregate hits/misses/evictions/hit_rate
    else:
        executor = (
            PersistentProcessPoolExecutor(max_workers=args.workers)
            if args.pool == "persistent"
            else None
        )
        with OptimizerService(
            n_workers=args.workers,
            settings=settings,
            executor=executor,
            cache_capacity=args.cache_size,
            cache=cache_factory(0) if cache_factory is not None else None,
        ) as service:
            for __ in range(max(1, args.repeat)):
                started = time.perf_counter()
                results = service.optimize_batch(queries)
                rounds.append((time.perf_counter() - started, results))
            stats = service.cache.snapshot()
            envelope_hits = service.envelope_hits
    if gateway_stats is not None:
        envelope_hits = gateway_stats.envelope_hits
    if args.json:
        payload = {
            "workers": args.workers,
            "pool": args.pool,
            "shards": args.shards,
            "async": args.use_async,
            "rounds": [
                {
                    "wall_s": wall,
                    "results": [
                        {
                            "query": query.name,
                            "cached": result.cached,
                            "fingerprint": result.fingerprint,
                            "partitions": result.n_partitions,
                            "backend_used": result.backend_used,
                            "best_cost": list(result.best.cost),
                            "plans": len(result.plans),
                        }
                        for query, result in zip(queries, results)
                    ],
                }
                for wall, results in rounds
            ],
            "cache": _stats_dict(stats),
        }
        tier_totals = _tier_totals(gateway_stats)
        if tier_totals is not None:
            payload["cache"].update(tier_totals)
        payload["envelope_hits"] = envelope_hits
        if args.cache_dir is not None:
            payload["cache_dir"] = args.cache_dir
        if gateway_stats is not None:
            payload["gateway"] = {
                "requests": gateway_stats.requests,
                "optimizations": gateway_stats.optimizations,
                "coalesced": gateway_stats.coalesced,
                "peak_in_flight": gateway_stats.peak_in_flight,
                "envelope_hits": gateway_stats.envelope_hits,
                "shards": [
                    {
                        "shard": shard.shard,
                        "entries": shard.entries,
                        "envelope_hits": shard.envelope_hits,
                        **_stats_dict(shard.cache),
                    }
                    for shard in gateway_stats.shards
                ],
            }
        if async_stats is not None:
            payload["async_front_end"] = {
                "batch_window_ms": batch_window_ms,
                "max_batch": max_batch,
                "max_pending": max_pending,
                "fast_path_hits": async_stats.fast_path_hits,
                "result_memo_hits": async_stats.result_memo_hits,
                "admitted": async_stats.admitted,
                "coalesced": async_stats.coalesced,
                "batched": async_stats.batched,
                "dispatched_batches": async_stats.dispatched_batches,
                "batch_sizes": {
                    str(size): count
                    for size, count in sorted(async_stats.batch_sizes.items())
                },
                "rejections": {
                    "queue_full": async_stats.rejected_queue_full,
                    "tenant_share": async_stats.rejected_tenant_share,
                },
                "cancelled": async_stats.cancelled,
                "tenants": {
                    tenant: {
                        "requests": tenant_stats.requests,
                        "completed": tenant_stats.completed,
                        "rejected": tenant_stats.rejected,
                        "cancelled": tenant_stats.cancelled,
                    }
                    for tenant, tenant_stats in sorted(async_stats.tenants.items())
                },
            }
        print(json.dumps(payload, indent=2))
        return 0
    for round_number, (wall, results) in enumerate(rounds, start=1):
        print(f"round {round_number}: {len(results)} queries in {wall * 1e3:.1f} ms")
        for query, result in zip(queries, results):
            marker = "HIT " if result.cached else "MISS"
            print(
                f"  [{marker}] {query.name}: best cost {tuple(result.best.cost)} "
                f"({result.n_partitions} partitions, "
                f"backend {result.backend_used})"
            )
    print(
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate), {stats.evictions} evictions"
    )
    if envelope_hits:
        print(
            f"envelopes: {envelope_hits} theta bindings served from cached "
            "envelopes (no DP run)"
        )
    if hasattr(stats, "disk_hits"):
        print(
            f"tiers: {stats.memory_hits} memory hits, {stats.disk_hits} disk "
            f"hits, {stats.promotions} promotions, {stats.demotions} demotions"
        )
    else:
        tier_totals = _tier_totals(gateway_stats)
        if tier_totals is not None:
            print(
                f"tiers: {tier_totals['memory_hits']} memory hits, "
                f"{tier_totals['disk_hits']} disk hits, "
                f"{tier_totals['promotions']} promotions, "
                f"{tier_totals['demotions']} demotions"
            )
    if async_stats is not None:
        sizes = ", ".join(
            f"{size}x{count}"
            for size, count in sorted(async_stats.batch_sizes.items())
        )
        print(
            f"async: {async_stats.fast_path_hits} fast-path hits, "
            f"{async_stats.coalesced} coalesced, "
            f"{async_stats.dispatched_batches} batches ({sizes or 'none'}), "
            f"{async_stats.rejections} rejections, "
            f"{async_stats.cancelled} cancelled"
        )
    if gateway_stats is not None:
        print(
            f"gateway: {gateway_stats.requests} requests, "
            f"{gateway_stats.optimizations} optimizations, "
            f"{gateway_stats.coalesced} coalesced, "
            f"{gateway_stats.envelope_hits} envelope hits, "
            f"peak in-flight {gateway_stats.peak_in_flight}"
        )
        for shard in gateway_stats.shards:
            print(
                f"  shard {shard.shard}: {shard.cache.hits} hits / "
                f"{shard.cache.misses} misses ({shard.hit_rate:.0%}), "
                f"{shard.entries} entries"
            )
    return 0


def _run_serve_batch_remote(args: argparse.Namespace) -> int:
    """Serve the batch through running shard servers (``--connect``)."""
    import time

    from repro.service import NetworkOptimizerGateway

    settings = _settings_from_args(args)
    queries = [load_query(path) for path in args.queries]
    specs = [spec.strip() for spec in args.connect.split(",") if spec.strip()]
    if not specs:
        raise SystemExit("--connect needs at least one endpoint")
    rounds = []
    hedge_after_ms = getattr(args, "hedge_after_ms", 0.0)
    with NetworkOptimizerGateway(
        specs,
        settings=settings,
        n_workers=args.workers,
        # The CLI submits the whole batch at once; ride out the servers'
        # admission control instead of failing the batch on a burst.
        overload_retries=1000,
        # Hedging: the flag sets the budget floor; the EWMA multiplier is
        # fixed at 2x so a healthy shard's own tail does not trip hedges.
        hedge_multiplier=2.0 if hedge_after_ms > 0 else 0.0,
        hedge_min_s=max(hedge_after_ms / 1000.0, 1e-3),
    ) as gateway:
        for __ in range(max(1, args.repeat)):
            started = time.perf_counter()
            results = gateway.optimize_batch(queries)
            rounds.append((time.perf_counter() - started, results))
        net_stats = gateway.stats()
    if args.json:
        payload = {
            "workers": args.workers,
            "connect": specs,
            "rounds": [
                {
                    "wall_s": wall,
                    "results": [
                        {
                            "query": query.name,
                            "cached": result.cached,
                            "fingerprint": result.fingerprint,
                            "partitions": result.n_partitions,
                            "backend_used": result.backend_used,
                            "best_cost": list(result.best.cost),
                            "plans": len(result.plans),
                        }
                        for query, result in zip(queries, results)
                    ],
                }
                for wall, results in rounds
            ],
            "network": net_stats,
        }
        print(json.dumps(payload, indent=2))
        return 0
    for round_number, (wall, results) in enumerate(rounds, start=1):
        print(f"round {round_number}: {len(results)} queries in {wall * 1e3:.1f} ms")
        for query, result in zip(queries, results):
            marker = "HIT " if result.cached else "MISS"
            print(
                f"  [{marker}] {query.name}: best cost {tuple(result.best.cost)} "
                f"({result.n_partitions} partitions, "
                f"backend {result.backend_used})"
            )
    print(
        f"network: {net_stats['requests']} requests over "
        f"{len(net_stats['shards'])} shards, "
        f"{net_stats['breaker_rejections']} breaker rejections, "
        f"{net_stats['hedged']} hedged "
        f"({net_stats['hedged_wins']} hedge wins)"
    )
    for name, shard in sorted(net_stats["shards"].items()):
        optimizations = shard.get("optimizations", "?")
        envelope_hits = shard.get("envelope_hits", 0)
        shipped = shard.get("snapshot_imported", 0)
        print(
            f"  {name} ({shard['address']}): breaker {shard['breaker']}, "
            f"{optimizations} DP runs server-side, "
            f"{envelope_hits} envelope hits, "
            f"{shipped} snapshot entries imported"
        )
    return 0


def _run_shard_server(args: argparse.Namespace) -> int:
    from repro.service import run_shard_server

    settings = _settings_from_args(args)
    print(
        f"shard-server {args.shard_id} listening on {args.listen} "
        f"(workers={args.workers}, max in-flight={args.max_in_flight}"
        + (f", cache log in {args.cache_dir}" if args.cache_dir else "")
        + ")",
        flush=True,
    )
    run_shard_server(
        listen=args.listen,
        shard_id=args.shard_id,
        n_workers=args.workers,
        settings=settings,
        cache_capacity=args.cache_size,
        cache_dir=args.cache_dir,
        max_in_flight=args.max_in_flight,
        handler_threads=args.handler_threads,
        inject_latency_s=args.inject_latency_ms / 1000.0,
    )
    return 0


def _run_shard_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import run_shard_fleet

    socket_dir = Path(args.socket_dir)
    print(
        f"shard-fleet: {args.shards} shards under {socket_dir} "
        f"(workers={args.workers}, max in-flight={args.max_in_flight}"
        + (f", cache logs in {args.cache_dir}" if args.cache_dir else "")
        + ")",
        flush=True,
    )
    run_shard_fleet(
        n_shards=args.shards,
        socket_dir=socket_dir,
        cache_dir=args.cache_dir,
        n_workers=args.workers,
        max_in_flight=args.max_in_flight,
        cache_capacity=args.cache_size,
        health_interval_s=args.health_interval_ms / 1000.0,
        log_dir=args.log_dir,
        membership_path=socket_dir / "membership.json",
    )
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    from repro.service import DiskTier, InvalidationPredicate

    if args.cache_command == "inspect":
        import time as _time

        now_s = _time.time()
        reports = []
        for path in args.logs:
            with DiskTier(path) as tier:
                entries = [
                    {
                        "fingerprint": key,
                        "kind": kind,
                        "age_s": (
                            round(max(0.0, now_s - provenance.created_at_s), 3)
                            if provenance is not None
                            else None
                        ),
                        "provenance": (
                            provenance.to_wire() if provenance is not None else None
                        ),
                    }
                    for key, provenance, kind in tier.entries()
                ]
                reports.append(
                    {
                        "log": path,
                        "entries": len(tier),
                        "log_bytes": tier.log_bytes(),
                        "records": entries,
                    }
                )
        if args.json:
            print(json.dumps(reports, indent=2))
            return 0
        for report in reports:
            print(
                f"{report['log']}: {report['entries']} entries, "
                f"{report['log_bytes']:,} bytes"
            )
            for record in report["records"]:
                provenance = record["provenance"]
                if provenance is None:
                    print(
                        f"  {record['fingerprint'][:16]}…  "
                        f"kind={record['kind']} (no provenance)"
                    )
                    continue
                print(
                    f"  {record['fingerprint'][:16]}…  "
                    f"kind={record['kind']} "
                    f"backend={provenance['backend_used']} "
                    f"generation={provenance['registry_generation']} "
                    f"partitions={provenance['n_partitions']} "
                    f"age={record['age_s']:.0f}s"
                )
        return 0

    if args.cache_command == "export":
        with DiskTier(args.log) as tier:
            exported = tier.export_snapshot(args.output)
        print(f"exported {exported} entries from {args.log} to {args.output}")
        return 0

    if args.cache_command == "import":
        with DiskTier(args.into) as tier:
            imported = tier.import_snapshot(
                args.snapshot, overwrite=not args.keep_existing
            )
        print(f"imported {imported} entries from {args.snapshot} into {args.into}")
        return 0

    assert args.cache_command == "invalidate"
    conditions = (
        args.backend,
        args.below_generation,
        args.created_before,
        args.settings_signature,
    )
    if args.match_all and any(value is not None for value in conditions):
        raise SystemExit("--all cannot be combined with other conditions")
    if not args.match_all and all(value is None for value in conditions):
        raise SystemExit(
            "refusing the implicit match-everything predicate: supply at "
            "least one condition, or spell out --all to flush every entry"
        )
    predicate = InvalidationPredicate(
        backend=args.backend,
        below_generation=args.below_generation,
        created_before_s=args.created_before,
        settings_signature=args.settings_signature,
    )
    reports = []
    for path in args.logs:
        with DiskTier(path) as tier:
            removed = tier.invalidate(predicate)
            reports.append(
                {"log": path, "invalidated": len(removed), "remaining": len(tier)}
            )
    if args.json:
        print(
            json.dumps(
                {"predicate": predicate.to_wire(), "logs": reports}, indent=2
            )
        )
        return 0
    for report in reports:
        print(
            f"{report['log']}: invalidated {report['invalidated']} entries, "
            f"{report['remaining']} remaining"
        )
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    from repro.core.worker import capability_matrix, registered_backends

    descriptors = registered_backends()
    matrix = capability_matrix()
    if args.json:
        payload = {
            descriptor.name: {
                "speed_rank": descriptor.speed_rank,
                "capabilities": matrix[descriptor.name],
                "requires": list(descriptor.requires),
                "available": descriptor.available(),
                "unavailable_reason": descriptor.unavailable_reason(),
            }
            for descriptor in descriptors
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            "registered enumeration backends "
            "(AUTO picks the first capable, available one):"
        )
        for descriptor in descriptors:
            declared = ", ".join(
                name
                for name, declared_flag in matrix[descriptor.name].items()
                if declared_flag
            )
            reason = descriptor.unavailable_reason()
            status = "" if reason is None else f" [unavailable: {reason}]"
            print(
                f"  {descriptor.name:>8} (rank {descriptor.speed_rank})"
                f"{status}: {declared}"
            )
    if args.require is not None:
        wanted = {d.name: d for d in descriptors}.get(args.require)
        if wanted is None:
            print(
                f"error: backend {args.require!r} is not registered "
                f"(registered: {', '.join(d.name for d in descriptors)})",
                file=sys.stderr,
            )
            return 1
        reason = wanted.unavailable_reason()
        if reason is not None:
            print(
                f"error: backend {args.require!r} is unavailable: {reason}",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "generate":
        return _run_generate(args)
    if args.command == "serve-batch":
        return _run_serve_batch(args)
    if args.command == "shard-server":
        return _run_shard_server(args)
    if args.command == "shard-fleet":
        return _run_shard_fleet(args)
    if args.command == "cache":
        return _run_cache(args)
    if args.command == "backends":
        return _run_backends(args)
    return _run_optimize(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
