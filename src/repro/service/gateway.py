"""A concurrency-safe sharded front door over :class:`OptimizerService`.

:mod:`repro.service.service` ends with the observation that "a shard is an
``OptimizerService`` owning a fingerprint range, and an async gateway is a
thin wrapper over ``optimize_batch``" — this module is that successor.
:class:`ShardedOptimizerGateway` partitions the fingerprint space into
``n_shards`` contiguous ranges, each owned by an independent
:class:`OptimizerService` (its own plan cache, its own executor), and serves
requests from a thread pool of handlers safely:

* **routing** — a request's fingerprint places it on exactly one shard
  (:meth:`ShardedOptimizerGateway.shard_for`), so shard caches never
  duplicate entries and shard executors never contend for the same query;
* **in-flight coalescing (singleflight)** — concurrent identical or
  isomorphic misses on one shard share a single optimization: the first
  requester becomes the *leader* and runs the DP, every other requester
  becomes a *follower* that waits on the leader's completion event and is
  then served from the finished entry (remapped to its own table
  numbering).  Without this, N clients racing the same cold fingerprint
  would run N duplicate DP enumerations;
* **aggregated observability** — :meth:`ShardedOptimizerGateway.stats`
  snapshots per-shard cache counters plus gateway-level counters (requests,
  DP runs performed, coalesced requests, current and peak in-flight gauge)
  under one lock, so an operator never reads torn numbers;
* **graceful lifecycle** — the gateway is a context manager whose
  :meth:`~ShardedOptimizerGateway.close` drains the handler pool and fans
  out to every shard's executor.

Thread-safety contract: ``optimize`` and ``optimize_batch`` may be called
from any number of threads concurrently.  Shard caches are internally
locked (:class:`~repro.service.cache.CacheTier` implementations); the
gateway holds its own lock only for dictionary/counter operations — never
while a DP runs, and never across a cache lookup that may touch a disk
tier — so request handlers block each other only on genuinely shared work
and a slow disk read never stalls the flight table.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cluster.simulator import DEFAULT_CLUSTER, ClusterModel
from repro.config import DEFAULT_SETTINGS, OptimizerSettings
from repro.core.master import PartitionExecutor
from repro.query.query import Query
from repro.service.cache import CacheStats, CacheTier
from repro.service.fingerprint import (
    CanonicalForm,
    canonicalize,
    fingerprint_canonical,
)
from repro.service.service import (
    CacheEntry,
    OptimizerService,
    ServiceResult,
    bind_result_theta,
    serve_from_result,
)

#: Width (in hex digits) of the fingerprint prefix used for range routing.
#: 8 hex digits = 32 bits — plenty to spread sha256 prefixes uniformly over
#: any practical shard count.
_ROUTE_HEX_DIGITS = 8
_ROUTE_SPACE = 1 << (4 * _ROUTE_HEX_DIGITS)


@dataclass(frozen=True)
class ShardStats:
    """One shard's observable state at snapshot time.

    ``cache`` is whatever the shard's tier snapshots —
    :class:`~repro.service.cache.CacheStats` for the plain LRU,
    :class:`~repro.service.tiers.TieredStats` for a tiered cache; both
    expose ``hits``/``misses``/``evictions``/``hit_rate`` and ``to_dict``.
    """

    shard: int
    cache: CacheStats
    entries: int
    #: θ-bindings served from a cached envelope (no DP run) on this shard.
    envelope_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """The shard cache's hit rate (0.0 before any lookup)."""
        return self.cache.hit_rate


@dataclass(frozen=True)
class GatewayStats:
    """A consistent cross-shard snapshot of the gateway's counters.

    ``coalesced`` counts requests that were answered by waiting on another
    request's in-flight optimization; ``optimizations`` counts DP runs the
    gateway actually performed.  ``requests - optimizations`` is therefore
    the number of answers served without enumerating anything.
    """

    shards: tuple[ShardStats, ...]
    requests: int
    optimizations: int
    coalesced: int
    in_flight: int
    peak_in_flight: int
    #: θ-specific answers bound from cached envelopes, summed over shards.
    #: Every one is a parametric request answered without enumerating.
    envelope_hits: int = 0

    @property
    def hits(self) -> int:
        """Cache hits summed over shards."""
        return sum(shard.cache.hits for shard in self.shards)

    @property
    def misses(self) -> int:
        """Cache misses summed over shards."""
        return sum(shard.cache.misses for shard in self.shards)

    @property
    def evictions(self) -> int:
        """Cache evictions summed over shards."""
        return sum(shard.cache.evictions for shard in self.shards)

    @property
    def hit_rate(self) -> float:
        """Aggregate hit rate over all shards (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class _Flight:
    """One in-flight optimization: a key, a completion event, its outcome.

    The leader publishes either an answer or ``error`` before setting
    ``done``; followers wait on ``done`` and then read whichever was
    published.  The answer has two forms: ``entry`` (the cached canonical
    plans — the normal case) and, as a fallback for caches that retain
    nothing (``capacity=0``) or evicted the entry before the leader's peek,
    the leader's own ``result`` plus the ``canonical`` numbering it was
    computed in, from which a follower's answer is relabeled directly.
    """

    __slots__ = ("key", "done", "entry", "error", "result", "canonical")

    def __init__(self, key: str) -> None:
        self.key = key
        self.done = threading.Event()
        self.entry: CacheEntry | None = None
        self.error: BaseException | None = None
        self.result: ServiceResult | None = None
        self.canonical: CanonicalForm | None = None


class ShardedOptimizerGateway:
    """Route optimization requests across sharded, coalescing services.

    Args:
        n_shards: number of independent :class:`OptimizerService` shards;
            each owns ``1/n_shards`` of the fingerprint space.
        n_workers: default upper bound on partitions per miss (overridable
            per call), capped by each shard executor's ``slots``; not part
            of the cache key, so every worker count shares one flight.
        settings: default :class:`~repro.config.OptimizerSettings`.
        executor_factory: called once per shard to build its partition
            executor (e.g. ``lambda: PersistentProcessPoolExecutor(4)``);
            ``None`` gives every shard the in-process serial executor.
        cache_capacity: plan-cache capacity *per shard*.
        cache_factory: called with each shard index to build that shard's
            cache tier (e.g. a
            :class:`~repro.service.tiers.TieredPlanCache` over a per-shard
            disk log — the index names the log file).  ``None`` gives every
            shard the default in-memory LRU of ``cache_capacity``.
        cluster: simulated-cluster parameters for reported accounting.
        gateway_threads: size of the internal handler pool that drives
            per-shard sub-batches in :meth:`optimize_batch`; defaults to
            ``n_shards``.
    """

    def __init__(
        self,
        n_shards: int = 4,
        n_workers: int = 8,
        settings: OptimizerSettings = DEFAULT_SETTINGS,
        executor_factory: Callable[[], PartitionExecutor] | None = None,
        cache_capacity: int = 256,
        cluster: ClusterModel = DEFAULT_CLUSTER,
        gateway_threads: int | None = None,
        cache_factory: Callable[[int], "CacheTier[CacheEntry]"] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if gateway_threads is not None and gateway_threads < 1:
            raise ValueError(f"gateway_threads must be >= 1, got {gateway_threads}")
        self.n_shards = n_shards
        self.n_workers = n_workers
        self.settings = settings
        self.shards: tuple[OptimizerService, ...] = tuple(
            OptimizerService(
                n_workers=n_workers,
                settings=settings,
                executor=executor_factory() if executor_factory is not None else None,
                cache_capacity=cache_capacity,
                cluster=cluster,
                cache=cache_factory(index) if cache_factory is not None else None,
            )
            for index in range(n_shards)
        )
        self._pool = ThreadPoolExecutor(
            max_workers=gateway_threads if gateway_threads is not None else n_shards,
            thread_name_prefix="gateway",
        )
        #: Guards the flight table, all counters, and the closed flag; as a
        #: condition variable it also lets ``close`` wait for in-flight
        #: requests to drain.
        self._lock = threading.Condition()
        self._flights: dict[str, _Flight] = {}
        self._closed = False
        self._requests = 0
        self._optimizations = 0
        self._coalesced = 0
        self._in_flight = 0
        self._peak_in_flight = 0

    # ------------------------------------------------------------------ routing

    def shard_for(self, key: str) -> int:
        """The shard owning fingerprint ``key``: contiguous range partitioning.

        The 32-bit fingerprint prefix space is split into ``n_shards``
        equal ranges — shard ``i`` owns ``[i/n, (i+1)/n)`` of it — so shard
        ownership is stable under any shard's restart and a future
        re-sharding can split ranges without rehashing every key.
        """
        return int(key[:_ROUTE_HEX_DIGITS], 16) * self.n_shards >> (
            4 * _ROUTE_HEX_DIGITS
        )

    # ------------------------------------------------------------------ single

    def optimize(
        self,
        query: Query,
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
        timeout_s: float | None = None,
    ) -> ServiceResult:
        """Optimize one query; safe to call from many threads concurrently.

        A cache hit on the owning shard is served immediately; a miss with
        an identical/isomorphic optimization already in flight waits for it
        (coalescing); otherwise this request leads the optimization and
        every concurrent duplicate rides along.

        ``timeout_s`` bounds only how long a *follower* waits on another
        request's in-flight run; on expiry it raises :class:`TimeoutError`
        and abandons the flight cleanly — the leader keeps running, its
        other followers are unaffected, and the in-flight gauge is released.
        A leader is never interrupted (a half-run DP has no safe abort
        point), and a cache hit never waits at all.
        """
        settings = settings if settings is not None else self.settings
        workers = n_workers if n_workers is not None else self.n_workers
        canonical = canonicalize(query)
        key = fingerprint_canonical(canonical, settings, workers)
        shard = self.shards[self.shard_for(key)]
        self._enter_requests(1)
        try:
            role, payload = self._lookup_or_lead(shard, key)
            if role == "hit":
                return shard.serve_entry(payload, canonical, key, theta=settings.theta)
            if role == "follow":
                return self._await_flight(
                    shard,
                    payload,
                    canonical,
                    key,
                    timeout_s=timeout_s,
                    theta=settings.theta,
                )
            return self._lead(shard, payload, query, canonical, key, settings, workers)
        finally:
            self._exit_requests(1)

    def serve_if_cached(
        self, canonical: CanonicalForm, key: str, theta: float | None = None
    ) -> ServiceResult | None:
        """Serve ``key`` from its shard's cache if resident; else ``None``.

        The opportunistic fast path for front-ends (the async gateway) that
        queue misses for batching instead of blocking a thread per request:
        a hit is counted as a request and a shard cache hit; a miss counts
        *nothing* here — the caller funnels it into :meth:`optimize_batch`,
        whose lookup does the real miss accounting, so one logical miss is
        never double-counted.
        """
        shard = self.shards[self.shard_for(key)]
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
        # The probe happens outside the gateway lock: on a tiered cache it
        # may read the disk tier, and a disk read must never stall the
        # flight table or the stats snapshot.  The tier locks itself.
        entry = shard.cache.probe(key)
        if entry is None:
            return None
        with self._lock:
            self._requests += 1
        return shard.serve_entry(entry, canonical, key, theta=theta)

    # ------------------------------------------------------------------- batch

    def optimize_batch(
        self,
        queries: Iterable[Query],
        settings: OptimizerSettings | None = None,
        n_workers: int | None = None,
    ) -> list[ServiceResult]:
        """Optimize many queries, fanning per-shard sub-batches out in parallel.

        Results come back in input order.  Each query is routed exactly as
        :meth:`optimize` routes it — hits served inline, in-flight
        duplicates coalesced (including duplicates *within* this batch),
        and each shard's residual misses submitted as one sub-batch to the
        handler pool so shard executors run concurrently and partition
        tasks interleave per shard.
        """
        settings = settings if settings is not None else self.settings
        workers = n_workers if n_workers is not None else self.n_workers
        requests = list(queries)
        canonicals = [canonicalize(query) for query in requests]
        keys = [
            fingerprint_canonical(canonical, settings, workers)
            for canonical in canonicals
        ]
        results: list[ServiceResult | None] = [None] * len(requests)
        leaders: dict[int, list[tuple[int, _Flight]]] = {}
        followers: list[tuple[int, _Flight]] = []
        self._enter_requests(len(requests))
        try:
            try:
                for index, key in enumerate(keys):
                    shard_index = self.shard_for(key)
                    role, payload = self._lookup_or_lead(self.shards[shard_index], key)
                    if role == "hit":
                        results[index] = self.shards[shard_index].serve_entry(
                            payload, canonicals[index], key, theta=settings.theta
                        )
                    elif role == "follow":
                        followers.append((index, payload))
                    else:
                        leaders.setdefault(shard_index, []).append((index, payload))
            except BaseException as error:  # noqa: BLE001 - resolve flights, re-raise
                # Leader flights registered before the failure would strand
                # their followers (possibly in other threads) forever; fail
                # them explicitly instead.
                for group in leaders.values():
                    for __, flight in group:
                        flight.error = error
                        with self._lock:
                            self._flights.pop(flight.key, None)
                        flight.done.set()
                raise

            futures = [
                self._pool.submit(
                    self._lead_shard_batch,
                    shard_index,
                    group,
                    requests,
                    canonicals,
                    keys,
                    results,
                    settings,
                    workers,
                )
                for shard_index, group in leaders.items()
            ]
            errors: list[BaseException] = []
            for future in futures:
                try:
                    future.result()
                except BaseException as error:  # noqa: BLE001 - re-raised below
                    errors.append(error)
            # Leader groups are fully resolved (entries published, events
            # set) before any follower waits, so followers of *this* batch's
            # own flights never deadlock; followers of other threads' flights
            # wait on those threads' progress as usual.
            for index, flight in followers:
                shard = self.shards[self.shard_for(flight.key)]
                results[index] = self._await_flight(
                    shard, flight, canonicals[index], keys[index], theta=settings.theta
                )
            if errors:
                raise errors[0]
        finally:
            self._exit_requests(len(requests))
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    # -------------------------------------------------------------- singleflight

    def _lookup_or_lead(
        self, shard: OptimizerService, key: str
    ) -> tuple[str, CacheEntry | _Flight]:
        """Classify a request: cache hit, follower, or leader.

        The cache lookup happens *outside* the gateway lock — on a tiered
        cache it may read the disk tier, and holding the flight-table lock
        across file I/O would serialize every concurrent request behind the
        disk.  The miss/flight race this opens is closed under the lock: a
        leader that completed between our lookup and the lock acquisition
        filled the cache *before* deregistering its flight, so a miss that
        finds no flight re-checks the (I/O-free) memory peek and converts
        to a hit rather than leading a duplicate optimization.
        """
        # No closed-check here: requests already admitted (``_enter_requests``)
        # must run to completion, or flights they registered would strand
        # their followers.  Closing is gated at request entry only.
        entry = shard.cache.get(key)
        if entry is not None:
            return "hit", entry
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                self._coalesced += 1
                return "follow", flight
            resident = shard.cache.peek(key)
            if resident is not None:
                # A leader completed in the window between our miss and this
                # lock hold.  Its run answered us without a fresh DP, so the
                # miss our lookup counted is reclassified as the hit it was.
                shard.cache.reclassify_miss_as_hit()
                return "hit", resident
            flight = _Flight(key)
            self._flights[key] = flight
            return "lead", flight

    def _lead(
        self,
        shard: OptimizerService,
        flight: _Flight,
        query: Query,
        canonical: CanonicalForm,
        key: str,
        settings: OptimizerSettings,
        workers: int,
    ) -> ServiceResult:
        """Run the optimization this request leads; publish it to followers.

        The flight carries the *unbound* entry and result: followers may ask
        for different θs than the leader, and each binds its own against the
        shared envelope.  Only the leader's own return value is θ-bound.
        """
        try:
            result, entry = shard.run_misses_with_entries(
                [(query, canonical, key)], settings, workers
            )[0]
            flight.entry = entry
            flight.result = result
            flight.canonical = canonical
            with self._lock:
                self._optimizations += 1
            return bind_result_theta(result, settings.theta, envelope=entry.envelope)
        except BaseException as error:  # noqa: BLE001 - published, then re-raised
            flight.error = error
            raise
        finally:
            # Deregister only after ``run_misses`` has filled the cache, so
            # a concurrent miss either sees the entry or finds this flight.
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()

    def _lead_shard_batch(
        self,
        shard_index: int,
        group: list[tuple[int, _Flight]],
        requests: list[Query],
        canonicals: list[CanonicalForm],
        keys: list[str],
        results: list[ServiceResult | None],
        settings: OptimizerSettings,
        workers: int,
    ) -> None:
        """Run one shard's led misses as a single interleaved sub-batch."""
        shard = self.shards[shard_index]
        try:
            shard_results = shard.run_misses_with_entries(
                [(requests[index], canonicals[index], keys[index]) for index, __ in group],
                settings,
                workers,
            )
            for (index, flight), (result, entry) in zip(group, shard_results):
                flight.entry = entry
                flight.result = result
                flight.canonical = canonicals[index]
                results[index] = bind_result_theta(
                    result, settings.theta, envelope=entry.envelope
                )
            with self._lock:
                self._optimizations += len(group)
        except BaseException as error:  # noqa: BLE001 - published, then re-raised
            for __, flight in group:
                flight.error = error
            raise
        finally:
            with self._lock:
                for index, __ in group:
                    self._flights.pop(keys[index], None)
            for __, flight in group:
                flight.done.set()

    def _await_flight(
        self,
        shard: OptimizerService,
        flight: _Flight,
        canonical: CanonicalForm,
        key: str,
        timeout_s: float | None = None,
        theta: float | None = None,
    ) -> ServiceResult:
        """Wait for the in-flight leader, then serve from its published entry.

        With ``timeout_s``, an expired wait abandons the flight: nothing was
        registered by this follower, so abandonment needs no cleanup beyond
        raising — the flight, its leader, and its other followers are
        untouched.  (The follower's probe already counted a cache miss; that
        stands, since this request was indeed not answered from cache.)
        """
        if not flight.done.wait(timeout_s):
            raise TimeoutError(
                f"coalesced flight for {flight.key[:12]}… did not complete "
                f"within {timeout_s}s; the leader is still running"
            )
        if flight.error is not None:
            raise flight.error
        entry = flight.entry
        if entry is None:
            # Nothing cached to serve from: capacity=0 retains nothing, or
            # the entry was evicted between the leader's cache fill and its
            # peek.  The leader's own result is still on the flight —
            # relabel it into this follower's numbering, preserving the
            # one-DP-run-per-fingerprint invariant even with no cache.
            assert flight.result is not None and flight.canonical is not None
            with self._lock:
                shard.cache.reclassify_miss_as_hit()
            return serve_from_result(
                flight.result, flight.canonical, canonical, key, theta=theta
            )
        # The follower's probe counted a miss, but no optimization ran for
        # it — recount so hit rate means "answered without enumerating".
        # Under the gateway lock so ``stats()`` snapshots never observe the
        # counters mid-reclassification.
        with self._lock:
            shard.cache.reclassify_miss_as_hit()
        return shard.serve_entry(entry, canonical, key, theta=theta)

    # ------------------------------------------------------------------- stats

    def _enter_requests(self, count: int) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("gateway is closed")
            self._requests += count
            self._in_flight += count
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)

    def _exit_requests(self, count: int) -> None:
        with self._lock:
            self._in_flight -= count
            if self._in_flight == 0:
                self._lock.notify_all()

    def stats(self) -> GatewayStats:
        """A consistent snapshot of gateway and per-shard counters.

        Gateway counters are read under the gateway lock; each shard's
        cache counters and entry count are read in one atomic hold of that
        tier's own lock (``snapshot_with_size``), so every individual
        number is untorn.  Cache lookups deliberately run outside the
        gateway lock (they may touch a disk tier), so a snapshot taken
        mid-request can observe a lookup already counted on a shard but not
        yet resolved at the gateway; at quiescence the accounting
        identities (``hits + misses == requests`` per the ``cached`` flags)
        hold exactly, and the tests pin them there.
        """
        with self._lock:
            shard_stats = []
            for index, shard in enumerate(self.shards):
                cache_stats, entries = shard.cache.snapshot_with_size()
                shard_stats.append(
                    ShardStats(
                        shard=index,
                        cache=cache_stats,
                        entries=entries,
                        envelope_hits=shard.envelope_hits,
                    )
                )
            return GatewayStats(
                shards=tuple(shard_stats),
                requests=self._requests,
                optimizations=self._optimizations,
                coalesced=self._coalesced,
                in_flight=self._in_flight,
                peak_in_flight=self._peak_in_flight,
                envelope_hits=sum(stat.envelope_hits for stat in shard_stats),
            )

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop admitting requests, drain in-flight ones, release shards.

        Blocks until every admitted request has completed: tearing a shard
        executor down under a running DP would fail that request — and a
        self-healing executor (the persistent pool rebuilds itself on
        break) could then resurrect a worker pool *after* close, leaking
        processes.  Must not be called from inside a request handler (it
        would wait on its own request).  Idempotent and thread-safe.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            while not already_closed and self._in_flight:
                self._lock.wait()
        if already_closed:
            return
        self._pool.shutdown(wait=True)
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedOptimizerGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
